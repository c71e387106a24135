"""Canonical rows: every polytope stores each (a_i, b_i) times the power of two that puts max |a_ij| in [1, 2).

The factor is exact, so ratios b / (a.v) and normals a / b keep their bits,
while every absolute GEOM_TOL test reads a margin within a factor 2 sqrt(n)
of Euclidean distance, whatever scale the user's rows came at.  The
witnesses below failed on rows kept at the user's scale.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import bits, cut_boxes, scaled

import rayvex as rx
from rayvex.errors import PointOutsidePolytope
from rayvex.geometry import _facet_dots


@pytest.mark.parametrize("scales", [(1e3, 1, 1e-6, 1, 1e4), (1e3, 1, 1e-6, 1, 1e3)])
def test_rescaled_fractional_rows_validate_with_the_unscaled_bounds(scales):
    # "polytope is empty" and "interior-point search failed" on the user's rows
    poly = rx.fractional().default_polytope
    report = rx.validate(scaled(poly, scales))
    want = rx.validate(poly)
    np.testing.assert_allclose(report.coordinate_bounds, want.coordinate_bounds, rtol=0, atol=1e-12)
    assert report.origin_location == want.origin_location == "outside"


def test_rescaled_cut_box_validates_with_the_origin_on_its_boundary():
    # [0, 1.62] x [0, 1.89] cut by a row through the origin: NumericalBreakdown on the user's rows
    poly = rx.Polytope.from_inequalities(
        [[-0.28546516903645525, 0.0], [-0.0010296106992124358, -0.00013251530226929508], [1.2385328794304349, 0.0],
         [0.0, -0.05192204502148773], [0.0, 110.744696892593]],
        [-0.0, 0.0, 2.0015839405181604, -0.0, 209.12271242643473],
    )
    report = rx.validate(poly)
    assert report.origin_location == "boundary"
    np.testing.assert_allclose(report.coordinate_bounds, [[0.0, 1.6160926962541604], [0.0, 1.8883316158177286]])


def test_a_small_row_no_longer_wins_the_entry_tie():
    # the origin is outside, on facet 0's line; facet 0's row is 1e-7 at the user's scale, so
    # |a.v alpha - b| <= GEOM_TOL held 1e-7 away and the cell (0, 1) got a corner 7.8e-3 outside P
    poly = rx.Polytope.from_inequalities(
        [[-1e-07, -0.0078125], [0.0, -0.9921875], [1.0, 1.0], [-0.9999999, 0.0]],
        [0.0, 1.9843749999999998e-07, 1.0078123, -0.00781249921875],
    )
    assert rx.region_of(poly, [0.5, -1.5e-7]).in_facet == 3
    cells = rx.enumerate_regions_2d(poly)
    assert cells
    for _, corners in cells:
        assert poly.contains(corners).all()


def test_vertices_keep_no_point_outside_a_small_row():
    # (0, -1e-7) lies 1e-7 outside facet 0's line, a margin of -7.8e-10 on the user's rows
    a = np.array([[-1e-07, -0.0078125], [0.0, -0.4921875], [1.0, 0.5], [-0.9999999, 0.0]])
    b = np.array([0.0, 4.921875e-08, 0.49999995, 0.0])
    verts = rx.vertices(rx.Polytope.from_inequalities(a, b))
    distance = (b - verts @ a.T) / np.linalg.norm(a, axis=1)
    assert distance.min() >= -1e-15
    assert not any(np.array_equal(v, [0.0, -1e-7]) for v in verts)


@settings(max_examples=100, deadline=None)
@given(
    cut_boxes(exponents=(-8.0, 8.0), permute=False, rounded=True),
    st.lists(st.integers(-60, 60), min_size=9, max_size=9),
    st.lists(st.floats(-6.0, 6.0), min_size=9, max_size=9),
    st.integers(0, 2**32 - 1),
)
def test_canonical_rows_keep_every_ratio_and_every_verdict(case, powers, exponents, seed):
    a, b, center = case
    m, n = a.shape
    poly = rx.Polytope.from_inequalities(a, b)
    assert np.all((np.abs(poly.matrix).max(axis=1) >= 1.0) & (np.abs(poly.matrix).max(axis=1) < 2.0))

    # powers of two, per row, and a rebuild from the stored rows give the same bytes
    two = np.ldexp(1.0, np.array(powers[:m]))
    for again in (rx.Polytope.from_inequalities(a * two[:, None], b * two), rx.Polytope(poly.matrix, poly.offsets)):
        assert bits(again.matrix) == bits(poly.matrix) and bits(again.offsets) == bits(poly.offsets)

    # normals and ratios formed from the user's rows, bit for bit
    for i in range(m):
        if abs(poly.offsets[i]) > rx.geometry.GEOM_TOL:
            assert bits(rx.normalize_facet(poly, i)) == bits(a[i] / b[i])
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(8, n)) + center
    with np.errstate(divide="ignore", invalid="ignore"):
        assert bits(poly.offsets / _facet_dots(poly.matrix, directions)) == bits(b / _facet_dots(a, directions))

    # any per-row factor: validate succeeds, and points 1e-7 clear of every facet line get one verdict
    lam = 10.0 ** np.array(exponents[:m])
    rescaled = rx.Polytope.from_inequalities(a * lam[:, None], b * lam)
    bounds = rx.validate(poly).coordinate_bounds
    np.testing.assert_allclose(rx.validate(rescaled).coordinate_bounds, bounds, rtol=1e-9, atol=1e-9)
    reach = bounds[:, 1] - bounds[:, 0]
    points = rng.uniform(bounds[:, 0] - 0.2 * reach, bounds[:, 1] + 0.2 * reach, size=(40, n))
    clearance = np.abs(b - _facet_dots(a, points)) / np.linalg.norm(a, axis=1)
    points = points[(clearance.min(axis=1) >= 1e-7) & np.any(points != 0.0, axis=1)]
    inside = poly.contains(points)
    assert inside.tolist() == rescaled.contains(points).tolist()
    for x, verdict in zip(points, inside):
        regions = []
        for p in (poly, rescaled):
            try:
                regions.append(rx.region_of(p, x))
            except PointOutsidePolytope:
                regions.append(None)
        assert (regions[0] is not None) == verdict
        assert regions[0] == regions[1]


def test_the_rows_are_stored_once_and_read_only():
    poly = rx.Polytope.from_inequalities([[3.0, 0.0], [0.0, -0.1], [-1.0, 1.0]], [3.0, 0.0, 5.0])
    assert poly.dim == 2 and poly.n_facets == 3
    np.testing.assert_array_equal(poly.matrix, [[1.5, 0.0], [0.0, -1.6], [-1.0, 1.0]])
    assert poly.offsets[0] == 1.5 and poly.offsets[1] == 0.0
    for arr in (poly.matrix, poly.offsets):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    again = rx.Polytope.from_json_dict(poly.to_json_dict())
    assert bits(again.matrix) == bits(poly.matrix) and bits(again.offsets) == bits(poly.offsets)


@pytest.mark.parametrize("matrix, offsets, message", [
    ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], "normal must be nonzero"),
    ([[1.0, 0.0], [math.inf, 1.0]], [1.0, 1.0], r"must be finite, got a = \[inf, 1.0\], b = 1.0"),
    ([[0.0, 0.0], [math.nan, 1.0]], [1.0, 1.0], "normal must be nonzero"),  # the first bad row decides
    ([[1.0, 0.0]], [1.0, 2.0], "offsets"),
    (np.zeros((0, 2)), [], "at least one halfspace"),
    ([[1e-300, 0.0], [-1.0, 0.0]], [1e10, 1.0], "overflows at unit scale"),  # b / max |a| is past the doubles
])
def test_bad_rows_are_rejected_before_scaling(matrix, offsets, message):
    with pytest.raises(ValueError, match=message):
        rx.Polytope(matrix, offsets)
