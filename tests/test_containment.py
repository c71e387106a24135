"""One set-membership rule: ``Polytope.margins`` and ``Polytope.contains``.

Both take a point (n,) or a batch (k, n).  a . x is summed column by column,
as the ray kernels sum it, so a point gets the same margins, bit for bit,
and the same verdict alone and as a row of a batch.  Halfspaces with a
non-finite entry are rejected when they are built.  A translated polytope's
offsets are the anchor's margins, and the point-location rule ``locate``
agrees with ``contains`` outside a stated band around each facet.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayvex as rx
from rayvex.cli import main
from rayvex.errors import PointOutsidePolytope
from rayvex.geometry import GEOM_TOL, INTERIOR_MARGIN, _facet_dots, _facet_products, locate

CATALOG_POLYTOPES = [entry.default_polytope for entry in rx.catalog()]


@st.composite
def polytopes(draw):
    """(polytope, a point inside it): a catalog polytope, or a 2-4-D box cut, row-scaled and permuted."""
    if draw(st.booleans()):
        polytope = draw(st.sampled_from(CATALOG_POLYTOPES))
        return polytope, rx.validate(polytope).interior_point
    n = draw(st.integers(2, 4))
    lower = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    upper = lower + np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n)))
    box = rx.Polytope.box(lower, upper)
    center = 0.5 * (lower + upper)
    coords = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    normal = np.array(draw(coords.filter(lambda c: max(map(abs, c)) >= 0.1)))  # a . a stays far from underflow
    a = np.vstack([box.matrix, normal])
    b = np.append(box.offsets, normal @ center + draw(st.floats(0.0, 1.0)))  # the cut keeps the center
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=len(b), max_size=len(b))))
    perm = np.array(draw(st.permutations(range(len(b)))))
    return rx.Polytope.from_inequalities((a * scales[:, None])[perm], (b * scales)[perm]), center


def near_facet(polytope, center):
    """Points on a facet hyperplane, 1-3 ulps off it or 1e-10 off it, either side."""

    @st.composite
    def point(draw):
        i = draw(st.integers(0, polytope.n_facets - 1))
        a, b = polytope.matrix[i], polytope.offsets[i]
        n = polytope.dim
        x = center + np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
        x = x + (b - a @ x) / (a @ a) * a  # onto the hyperplane, up to rounding
        side = draw(st.sampled_from([-1.0, 1.0]))
        offset = draw(st.sampled_from(["on", "ulps", "1e-10"]))
        if offset == "ulps":
            target = x + side * a
            for _ in range(draw(st.integers(1, 3))):
                x = np.nextafter(x, target)
        elif offset == "1e-10":
            x = x + side * 1e-10 * a / np.linalg.norm(a)
        return x

    return point()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_batch_gets_the_single_point_margins_and_verdicts(data):
    polytope, center = data.draw(polytopes())
    points = data.draw(st.lists(near_facet(polytope, center), min_size=1, max_size=6))
    batch = np.array(points)
    margins = polytope.margins(batch)
    assert margins.shape == (len(points), polytope.n_facets)
    for row, x in zip(margins, points):
        assert row.tobytes() == polytope.margins(x).tobytes()
    for tol in (GEOM_TOL, 0.0, -INTERIOR_MARGIN):
        mask = polytope.contains(batch, tol=tol)
        assert mask.dtype == bool and mask.shape == (len(points),)
        verdicts = [polytope.contains(x, tol=tol) for x in points]
        assert all(type(verdict) is bool for verdict in verdicts)
        assert mask.tolist() == verdicts


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_shared_products_equal_the_scalar_kernels_bit_for_bit(data):
    polytope, center = data.draw(polytopes())
    points = data.draw(st.lists(near_facet(polytope, center), min_size=1, max_size=6))
    dots = _facet_dots(polytope.matrix, np.array(points))
    for row, x in zip(dots, points):
        want = np.array(_facet_products(polytope._rows, x.tolist()))
        assert row.tobytes() == want.tobytes()
        assert _facet_dots(polytope.matrix, x).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_translated_offsets_are_the_anchor_margins(data):
    polytope, center = data.draw(polytopes())
    t = data.draw(st.one_of(st.just(center), near_facet(polytope, center)))
    moved = polytope.translate(t)
    assert moved.offsets.tobytes() == polytope.margins(t).tobytes()
    assert moved.matrix.tobytes() == polytope.matrix.tobytes()
    assert moved.contains(np.zeros(polytope.dim)) == polytope.contains(t)


def _located(polytope, v) -> bool:
    try:
        locate(polytope, v)
    except PointOutsidePolytope:
        return False
    return True


@st.composite
def band_cases(draw):
    """(polytope, v): a polytope, maybe translated to a point near a facet, and a point near a facet.

    The point may then move 1e-12 to 1e-6 along a facet normal and be rescaled along its ray,
    by 10^[-3, 3] or by 2^-[1020, 1080], where every exit ratio b / (a.v) may overflow.
    """
    polytope, center = draw(polytopes())
    if draw(st.booleans()):
        t = draw(near_facet(polytope, center))  # a working origin on or next to a facet line
        polytope, center = polytope.translate(t), center - t
    v = draw(near_facet(polytope, center))
    if draw(st.booleans()):
        a = polytope.matrix[draw(st.integers(0, polytope.n_facets - 1))]
        v = v + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -6.0)) * a / np.linalg.norm(a)
    scale = draw(st.sampled_from(["none", "decades", "subnormal"]))
    if scale == "decades":
        v = v * 10.0 ** draw(st.floats(-3.0, 3.0))
    elif scale == "subnormal":
        v = np.ldexp(v, -draw(st.integers(1020, 1080)))
    return polytope, v


@settings(max_examples=200, deadline=None)
@given(band_cases())
def test_locate_and_contains_differ_only_in_the_band(case):
    """Every margin >= 0: both accept; a margin < -2 GEOM_TOL max(1, |a.v|): both reject."""
    polytope, v = case
    if not v.any():
        return
    t = _facet_dots(polytope.matrix, v)
    margins = polytope.margins(v)
    verdicts = (polytope.contains(v), _located(polytope, v))
    if np.all(margins >= 0.0):
        assert verdicts == (True, True)
    if np.any(margins < -2.0 * GEOM_TOL * np.maximum(1.0, np.abs(t))):
        assert verdicts == (False, False)


def test_a_subnormal_v_along_a_facet_from_a_vertex_is_located():
    """On [0, 1] x [-1, 0], v = (5e-324, 0) has every margin >= 0, and 1 / 5e-324 overflows."""
    box = rx.Polytope.box([0.0, -1.0], [1.0, 0.0])
    v = np.array([5e-324, 0.0])
    assert np.all(box.margins(v) >= 0.0) and box.contains(v)
    trace = locate(box, v)
    assert trace.alpha_minus == 0.0 and trace.alpha_plus == math.inf and trace.alpha_v == 1.0
    assert trace.v_plus.tolist() == [1.0, 0.0] and trace.out_facet == 0


def test_one_ulp_outside_a_facet_through_the_origin_is_in_the_band():
    """On reliability's working box, (-5e-324, 0.5) has margin -5e-324 on x >= 0: contains accepts, locate rejects."""
    entry = rx.reliability()
    model = rx.envelope.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, run_certification=False)
    v = np.array([np.nextafter(0.0, -1.0), 0.5])
    margins = model.polytope.margins(v)
    assert margins.min() == -5e-324
    assert model.polytope.contains(v)
    with pytest.raises(PointOutsidePolytope):
        locate(model.polytope, v)


def test_points_of_the_wrong_shape_are_rejected():
    box = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), np.float64(0.5)):
        with pytest.raises(ValueError):
            box.margins(bad)
        with pytest.raises(ValueError):
            box.contains(bad)


UNIT_SQUARE_ROWS = ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["a", "b"])
def test_non_finite_rows_are_rejected_when_built(bad, where, tmp_path, capsys):
    a, b = [list(row) for row in UNIT_SQUARE_ROWS[0]], list(UNIT_SQUARE_ROWS[1])
    if where == "a":
        a[1][0] = bad
    else:
        b[1] = bad
    message = f"error: halfspace entries must be finite, got a = {a[1]}, b = {b[1]}\n"
    with pytest.raises(ValueError, match="must be finite"):
        rx.Polytope.from_inequalities(a, b)
    data = {"dim": 2, "halfspaces": [{"a": row, "b": offset} for row, offset in zip(a, b)]}
    with pytest.raises(ValueError, match="must be finite"):
        rx.Polytope.from_json_dict(data)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # NaN, Infinity and -Infinity, which json reads back
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "--function", "bilinear", "--polytope", str(path), "--anchor", "none"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == message
    assert caught == []
