"""Geometry: validation, ray traces, regions, vertices and sampling."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import KERNEL_POLYTOPES, SLAB, TRIANGLE, bits, cut_boxes, record_calls, rescaled_polytopes

import rayvex as rx
from rayvex.errors import (
    DimensionNotSupported,
    EmptyInterior,
    HyperplaneThroughOrigin,
    InvalidInput,
    PointOutsidePolytope,
    RayMissesPolytope,
    SamplingBudgetExceeded,
    UnboundedPolytope,
    ZeroDirection,
)
from rayvex.geometry import MAX_LATTICE_POINTS, lattice, polygon_area
from rayvex.simplex import FEAS_TOL

UNIT_BOX = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])


class TestValidate:
    def test_unit_box(self):
        report = rx.validate(UNIT_BOX)
        assert np.allclose(report.coordinate_bounds, [[0, 1], [0, 1]], atol=1e-9)
        assert np.allclose(report.interior_point, [0.5, 0.5], atol=1e-9)
        assert report.interior_margin == pytest.approx(0.5, abs=1e-9)
        assert report.origin_location == "boundary"
        assert report.origin_in_polytope
        assert not report.origin_on_facet_interior  # origin is a vertex, two active facets

    def test_missing_upper_bounds_is_unbounded(self):
        quadrant = rx.Polytope.from_inequalities([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        with pytest.raises(UnboundedPolytope):
            rx.validate(quadrant)

    def test_degenerate_slab_has_empty_interior(self):
        flat = rx.Polytope.from_inequalities(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            [0.0, 0.0, 1.0, 0.0],
        )
        with pytest.raises(EmptyInterior):
            rx.validate(flat)

    def test_origin_classification(self):
        assert rx.validate(SLAB).origin_location == "outside"
        inner = rx.Polytope.box([-1.0, -1.0], [1.0, 1.0])
        assert rx.validate(inner).origin_location == "interior"
        # origin in the relative interior of the single facet y >= 0
        shifted = rx.Polytope.box([-1.0, 0.0], [1.0, 1.0])
        report = rx.validate(shifted)
        assert report.origin_location == "boundary"
        assert report.origin_on_facet_interior

    def test_report_is_kept_on_the_polytope(self, monkeypatch):
        lps = record_calls(monkeypatch, rx.geometry, "solve_lp")
        box = rx.Polytope.box([0.0, 0.0], [2.0, 1.0])
        report = rx.validate(box)
        assert len(lps) == 6  # the Chebyshev LP, two bounds per coordinate, the Chebyshev LP again
        assert rx.validate(box) is report
        rx.sample_interior(box, 0, 10)
        assert len(lps) == 6
        with pytest.raises(ValueError):  # shared by every caller, so read-only
            report.coordinate_bounds[0, 0] = -1.0

    def test_failed_validation_is_not_kept(self, monkeypatch):
        lps = record_calls(monkeypatch, rx.geometry, "solve_lp")
        quadrant = rx.Polytope.from_inequalities([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        for attempt in (1, 2):
            with pytest.raises(UnboundedPolytope):
                rx.validate(quadrant)
            assert len(lps) == 3 * attempt  # the Chebyshev LP, min x1, max x1; solved again: only a success is kept

    # (rows, offsets, error, message) of domains validate rejects.  The messages are those the per-coordinate
    # LPs gave, but for the flat slab (best margin -0.000e+00) and the 3-D thin box (1.000e-11, twice its margin)
    ERRORS = {
        "quadrant": ([[-1, 0], [0, -1]], [0, 0], UnboundedPolytope, "coordinate x1 is unbounded above"),
        "strip": ([[1, 0], [-1, 0]], [1, 0], UnboundedPolytope, "coordinate x2 is unbounded below"),
        "empty box": ([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, -1, 1, 0], EmptyInterior, "polytope is empty"),
        "flat slab": ([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 0], EmptyInterior,
                      "no interior point (best margin 0.000e+00)"),
        "empty and unbounded": ([[1, 0], [-1, 0]], [0, -1], EmptyInterior, "polytope is empty"),
        "thin and unbounded": ([[1, 0], [-1, 0], [0, -1]], [1e-12, 0, 0], UnboundedPolytope,
                               "coordinate x2 is unbounded above"),
        "half-plane": ([[1, 0]], [1], UnboundedPolytope, "coordinate x1 is unbounded below"),
        "3-D slab": ([[1, 1, 1], [-1, -1, -1]], [1, 0], UnboundedPolytope, "coordinate x1 is unbounded below"),
        "nearly empty": ([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1e-12, 0, 1, 0], EmptyInterior,
                         "no interior point (best margin -5.000e-13)"),
        "3-D thin box": ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [1e-11, 0, 1, 0, 1, 0],
                         EmptyInterior, "no interior point (best margin 5.000e-12)"),
    }

    @pytest.mark.parametrize("case", ERRORS)
    def test_each_invalid_domain_keeps_its_error(self, case):
        a, b, error, message = self.ERRORS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            rx.validate(rx.Polytope.from_inequalities(a, b))

    @pytest.mark.parametrize("lower, upper", [
        ([0.5935243687248134] * 3, [1.6493741039071363] * 3),  # read 1.6493741039071361 from separate cold LPs
        ([0.0, -1.0], [1.0, 0.0]),  # zero bounds are +0.0, as JSON prints them: 0.0, not -0.0
    ])
    def test_box_bounds_are_the_box_offsets_bit_for_bit(self, lower, upper):
        bounds = rx.validate(rx.Polytope.box(lower, upper)).coordinate_bounds
        assert bits(bounds) == bits(np.array([lower, upper], dtype=float).T)

    def test_one_validation_solves_one_lp_cold(self, monkeypatch):
        cold = record_calls(monkeypatch, rx.simplex, "_two_phase")
        for count, entry in enumerate(rx.catalog(), start=1):
            rx.validate(rx.Polytope(entry.default_polytope.matrix, entry.default_polytope.offsets))
            assert len(cold) == count, entry.name  # the first Chebyshev LP; the rest start from its certified bases


def _meeting_points(rows, b, k):
    """Every point where k of the rows meet (rows[S] p = b[S], |det| > 1e-12) that meets all of them within 1e-12."""
    subsets = np.array(list(itertools.combinations(range(len(b)), k)))
    systems = rows[subsets]
    with np.errstate(all="ignore"):  # subnormal entries: det and solve may underflow or overflow
        solvable = np.abs(np.linalg.det(systems)) > 1e-12
        points = np.linalg.solve(systems[solvable], b[subsets[solvable]][..., None])[..., 0]
        return points[(points @ rows.T <= b + 1e-12 * np.maximum(1.0, np.abs(b))).all(axis=1)]


@settings(max_examples=80, deadline=None)
@given(rescaled_polytopes())
def test_validate_matches_brute_force_vertices_and_margin(polytope):
    # The references solve no LP.  The bounds are those of the vertices, n facets meeting; not of
    # ``vertices``, which merges the thin box's corners 1e-8 apart.  The margin is the largest t of the
    # points (x, t) where n + 1 facets meet a_i.x + |a_i| t = b_i and every facet holds.  Both are met
    # within the LP's tolerances: an answer's basic values may be PIVOT_TOL below 0 and its reduced costs
    # FEAS_TOL, so within FEAS_TOL; over 4000 draws the worst was 2e-11 relative (bounds) and 5e-12 (margin).
    report = rx.validate(polytope)
    a, b = polytope.matrix, polytope.offsets
    verts = _meeting_points(a, b, polytope.dim)
    expect = np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1)
    np.testing.assert_allclose(report.coordinate_bounds, expect, rtol=FEAS_TOL, atol=FEAS_TOL)
    best = _meeting_points(np.hstack([a, np.linalg.norm(a, axis=1)[:, None]]), b, polytope.dim + 1)[:, -1].max()
    assert best - FEAS_TOL <= report.interior_margin <= best * (1.0 + 1e-12)  # the centre's own t: never above
    _assert_interior_point_clears_margin(polytope)


def _assert_interior_point_clears_margin(polytope):
    # The Chebyshev centre is not unique, so only its contract is checked:
    # every row keeps slack of at least margin * |a_i|.
    report = rx.validate(polytope)
    a, b = polytope.matrix, polytope.offsets
    slack = b - a @ report.interior_point
    assert report.interior_margin > 0.0
    assert np.all(slack >= report.interior_margin * np.linalg.norm(a, axis=1) - 1e-9)


@pytest.mark.parametrize("entry", rx.catalog(), ids=lambda entry: entry.name)
def test_interior_point_contract_on_catalog(entry):
    _assert_interior_point_clears_margin(entry.default_polytope)


@settings(max_examples=60, deadline=None)
@given(cut_boxes(dims=(2, 2), exponents=(math.log10(0.25), math.log10(4.0)), permute=False))
def test_interior_point_contract_on_cut_boxes(case):
    a, b, _ = case
    _assert_interior_point_clears_margin(rx.Polytope.from_inequalities(a, b))


class TestRayIntersect:
    def test_unit_box_interior_point(self):
        trace = rx.ray_intersect(UNIT_BOX, [0.5, 0.25])
        assert trace.alpha_minus == pytest.approx(0.0, abs=1e-12)
        assert trace.alpha_plus == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(trace.v_minus, [0, 0], atol=1e-12)
        assert np.allclose(trace.v_plus, [1, 0.5], atol=1e-12)
        assert trace.in_facet is None
        assert UNIT_BOX.label(trace.out_facet) == "x1<=1"
        assert trace.alpha_v == pytest.approx(0.5, abs=1e-12)

    def test_slab_diagonal(self):
        trace = rx.ray_intersect(SLAB, [0.75, 0.75])
        assert trace.alpha_minus == pytest.approx(2 / 3, abs=1e-12)
        assert trace.alpha_plus == pytest.approx(4 / 3, abs=1e-12)
        assert np.allclose(trace.v_minus, [0.5, 0.5], atol=1e-12)
        assert np.allclose(trace.v_plus, [1, 1], atol=1e-12)
        assert trace.in_facet == 2
        assert trace.out_facet == 3
        assert trace.alpha_v == pytest.approx(0.5, abs=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            rx.ray_intersect(UNIT_BOX, [0.0, 0.0])

    def test_ray_that_misses(self):
        far_box = rx.Polytope.box([1.0, 1.0], [2.0, 2.0])
        with pytest.raises(RayMissesPolytope):
            rx.ray_intersect(far_box, [1.0, -1.0])

    def test_degenerate_touch_at_vertex(self):
        # the x-axis meets the triangle only at the vertex (1, 0)
        trace = rx.ray_intersect(TRIANGLE, [1.0, 0.0])
        assert trace.degenerate
        assert trace.alpha_minus == trace.alpha_plus == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(trace.v_minus, trace.v_plus)
        assert trace.alpha_v == 1.0

    def test_boundary_ray_inside_origin_facet(self):
        # ray along the facet x = 0 of the unit box: generic interval computation
        trace = rx.ray_intersect(UNIT_BOX, [0.0, 0.4])
        assert trace.in_facet is None
        assert trace.alpha_plus == pytest.approx(2.5, abs=1e-12)
        assert UNIT_BOX.offsets[trace.out_facet] > 0

    def test_smallest_index_wins_at_vertex(self):
        # the diagonal exits at (1, 1) where facets 0 (x<=1) and 2 (y<=1) tie
        trace = rx.ray_intersect(UNIT_BOX, [0.5, 0.5])
        assert trace.out_facet == 0
        trace = rx.ray_intersect(SLAB, [1.0, 1.0])  # no tie: unique entry/exit facets
        assert trace.in_facet == 2 and trace.out_facet == 3


class TestNormalizeFacet:
    def test_unit_box_right_facet(self):
        assert np.allclose(rx.normalize_facet(UNIT_BOX, 0), [1.0, 0.0])  # x <= 1

    def test_slab_outer_facet(self):
        assert np.allclose(rx.normalize_facet(SLAB, 3), [0.5, 0.5])  # x + y <= 2

    def test_through_origin_rejected(self):
        with pytest.raises(HyperplaneThroughOrigin):
            rx.normalize_facet(UNIT_BOX, 1)  # x >= 0

    @pytest.mark.parametrize("polytope", [UNIT_BOX, SLAB] + [entry.default_polytope for entry in rx.catalog()])
    def test_cached_read_only_and_exact(self, polytope):
        for i, (a, b) in enumerate(zip(polytope.matrix, polytope.offsets)):
            if b == 0.0:
                with pytest.raises(HyperplaneThroughOrigin):
                    rx.normalize_facet(polytope, i)
                continue
            normal = rx.normalize_facet(polytope, i)
            assert normal is rx.normalize_facet(polytope, i)
            assert normal.tobytes() == (a / b).tobytes()
            with pytest.raises(ValueError):
                normal[0] = 1.0


class TestRegionOf:
    def test_box_regions(self):
        rid = rx.region_of(UNIT_BOX, [0.5, 0.25])
        assert rid.in_facet is None
        assert UNIT_BOX.label(rid.out_facet) == "x1<=1"
        rid = rx.region_of(UNIT_BOX, [0.25, 0.5])
        assert UNIT_BOX.label(rid.out_facet) == "x2<=1"

    def test_slab_region(self):
        rid = rx.region_of(SLAB, [0.75, 0.75])
        assert rid == rx.RegionId(2, 3)

    def test_outside_point_rejected(self):
        with pytest.raises(PointOutsidePolytope):
            rx.region_of(UNIT_BOX, [1.5, 0.5])


class TestEnumerateRegions2D:
    def test_unit_box_splits_along_diagonal(self):
        regions = rx.enumerate_regions_2d(UNIT_BOX)
        assert len(regions) == 2
        assert all(rid.in_facet is None for rid, _ in regions)
        total = sum(polygon_area(poly) for _, poly in regions)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_slab_is_one_region(self):
        regions = rx.enumerate_regions_2d(SLAB)
        assert len(regions) == 1
        rid, poly = regions[0]
        assert rid == rx.RegionId(2, 3)
        assert polygon_area(poly) == pytest.approx(1.5, abs=1e-9)

    def test_triangle_splits_at_interior_vertex_ray(self):
        regions = rx.enumerate_regions_2d(TRIANGLE)
        assert len(regions) == 2
        area = sum(polygon_area(poly) for _, poly in regions)
        assert area == pytest.approx(0.5, abs=1e-9)

    def test_region_interiors_are_disjoint(self):
        regions = rx.enumerate_regions_2d(UNIT_BOX)
        for k, (rid, poly) in enumerate(regions):
            inner = 0.6 * poly.mean(axis=0) + 0.4 * poly[0]
            matches = [rx.region_of(UNIT_BOX, inner) == other_id for other_id, _ in regions]
            assert matches[k]
            assert sum(matches) == 1

    def test_origin_strictly_interior(self):
        box = rx.Polytope.box([-1.0, -1.0], [1.0, 1.0])
        regions = rx.enumerate_regions_2d(box)
        assert len(regions) == 4  # one cone per facet
        assert {rid.out_facet for rid, _ in regions} == {0, 1, 2, 3}
        assert all(rid.in_facet is None for rid, _ in regions)
        total = sum(polygon_area(poly) for _, poly in regions)
        assert total == pytest.approx(4.0, abs=1e-9)

    def test_three_dimensional_rejected(self):
        with pytest.raises(DimensionNotSupported):
            rx.enumerate_regions_2d(rx.Polytope.box([0] * 3, [1] * 3))


class TestVertices:
    def test_unit_box(self):
        verts = rx.vertices(UNIT_BOX)
        expect = {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert {tuple(np.round(v, 8)) for v in verts} == expect

    def test_fractional_polytope(self):
        poly = rx.fractional().default_polytope
        verts = rx.vertices(poly)
        expect = {(1.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 1.5)}
        assert {tuple(np.round(v, 8)) for v in verts} == expect

    def test_cube_has_eight(self):
        verts = rx.vertices(rx.Polytope.box([-1, 0, 2], [1, 3, 5]))
        assert len(verts) == 8

    def test_near_singular_pair_far_outside(self):
        """x = 1 and (1, 1e-308).x = 2.5 solve to (1, 1.5e308), where (0.5, 1.9).x overflows."""
        poly = rx.Polytope.from_inequalities(
            np.vstack([UNIT_BOX.matrix, [[1.0, 1e-308], [0.5, 1.9]]]), np.append(UNIT_BOX.offsets, [2.5, 10.0])
        )
        assert np.array_equal(rx.vertices(poly), rx.vertices(UNIT_BOX))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 3),
    st.data(),
    st.floats(307.99, 308.25),
    st.floats(0.5, 2.0),
    st.floats(0.1, 1.0),
)
def test_vertices_skip_candidates_whose_margins_overflow(n, data, log_far, slack, weight):
    """A box plus two redundant rows: e_i + d e_j, with d so small that a pair
    solves to x_j ~ 10^308, and w e_i + 1.9 e_j, whose a.x then overflows.

    The vertices are the box's, with no overflow warning (an error here).
    """
    lower = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    box = rx.Polytope.box(lower, lower + 1.0)
    i, j = data.draw(st.permutations(range(n)))[:2]
    near = np.zeros(n)
    near[i], near[j] = 1.0, slack / 10.0**log_far
    steep = np.zeros(n)
    steep[i], steep[j] = weight, 1.9
    rows = np.vstack([box.matrix, near, steep])
    offsets = np.append(box.offsets, [lower[i] + 1.0 + slack, np.abs(steep) @ (np.abs(lower) + 1.0) + 1.0])
    order = data.draw(st.permutations(range(len(offsets))))
    poly = rx.Polytope.from_inequalities(rows[order], offsets[order])
    assert np.array_equal(rx.vertices(poly), rx.vertices(box))


class TestSampleInterior:
    def test_points_strictly_inside(self):
        pts = rx.sample_interior(UNIT_BOX, 42, 100)
        assert pts.shape == (100, 2)
        margins = UNIT_BOX.offsets - pts @ UNIT_BOX.matrix.T
        assert margins.min() >= 1e-10

    def test_deterministic_for_seed(self):
        a = rx.sample_interior(UNIT_BOX, 42, 50)
        b = rx.sample_interior(UNIT_BOX, 42, 50)
        assert np.array_equal(a, b)
        c = rx.sample_interior(UNIT_BOX, 43, 50)
        assert not np.array_equal(a, c)

    def test_sliver_exhausts_budget(self):
        # diagonal sliver: tiny area relative to its bounding box
        sliver = rx.Polytope.from_inequalities(
            [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            [1e-7, 1e-7, 1.0, 0.0, 1.0, 0.0],
        )
        with pytest.raises(SamplingBudgetExceeded):
            rx.sample_interior(sliver, 0, 50)


# -- sampled invariants -------------------------------------------------------

boxes = st.tuples(
    st.floats(-3, 2.5), st.floats(-3, 2.5), st.floats(0.1, 4), st.floats(0.1, 4)
)


@settings(max_examples=60, deadline=None)
@given(boxes, st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_reconstruction_identity_on_boxes(box, fx, fy):
    lx, ly, wx, wy = box
    poly = rx.Polytope.box([lx, ly], [lx + wx, ly + wy])
    v = np.array([lx + fx * wx, ly + fy * wy])
    assume(np.any(v != 0.0))
    trace = rx.ray_intersect(poly, v)
    rebuilt = trace.alpha_v * trace.v_minus + (1 - trace.alpha_v) * trace.v_plus
    assert np.max(np.abs(rebuilt - v)) <= 1e-10


def test_hyperplane_relation_when_origin_outside():
    # alpha_v / (a_in . v) + (1 - alpha_v) / (a_out . v) = 1
    pts = rx.sample_interior(SLAB, 3, 300)
    for v in pts:
        trace = rx.ray_intersect(SLAB, v)
        a_in = rx.normalize_facet(SLAB, trace.in_facet)
        a_out = rx.normalize_facet(SLAB, trace.out_facet)
        lhs = trace.alpha_v / (a_in @ v) + (1 - trace.alpha_v) / (a_out @ v)
        assert abs(lhs - 1.0) <= 1e-12


def test_reconstruction_on_sampled_interior():
    for poly in (UNIT_BOX, SLAB, TRIANGLE):
        for v in rx.sample_interior(poly, 11, 200):
            trace = rx.ray_intersect(poly, v)
            rebuilt = trace.alpha_v * trace.v_minus + (1 - trace.alpha_v) * trace.v_plus
            assert np.max(np.abs(rebuilt - v)) <= 1e-10
            assert np.abs(poly.margins(trace.v_plus)).min() <= 1e-9  # on the boundary
            if trace.alpha_minus > 0:
                assert np.abs(poly.margins(trace.v_minus)).min() <= 1e-9


def test_polytope_json_round_trip(tmp_path):
    path = tmp_path / "poly.json"
    SLAB.save(path)
    loaded = rx.Polytope.load(path)
    assert loaded.dim == 2
    assert np.allclose(loaded.matrix, SLAB.matrix)
    assert np.allclose(loaded.offsets, SLAB.offsets)


def test_polytope_json_dim_is_read_as_int():
    # "dim" is read with int(), so a string such as "2" loads as it always did
    data = SLAB.to_json_dict()
    assert rx.Polytope.from_json_dict({**data, "dim": "2"}).dim == 2


def test_polytope_labels_survive_round_trip(tmp_path):
    path = tmp_path / "box.json"
    UNIT_BOX.save(path)
    loaded = rx.Polytope.load(path)
    assert loaded.facet_labels == UNIT_BOX.facet_labels
    assert loaded.label(0) == "x1<=1"


# -- the batched ray kernel (its rows against ray_intersect: test_equivalence.py) --


def test_batch_kernel_reports_first_failing_row():
    rows = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, -1.0]])
    far = rx.Polytope.box([2.0, 2.0], [3.0, 3.0])
    with pytest.raises(ZeroDirection, match="row 1"):
        rx.ray_intersect_batch(UNIT_BOX, rows)
    with pytest.raises(RayMissesPolytope, match="row 2"):
        rx.ray_intersect_batch(far, rows[[0, 0, 2]] + [[2.0, 2.0], [2.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        rx.ray_intersect_batch(UNIT_BOX, np.ones((3, 3)))
    assert rx.ray_intersect_batch(UNIT_BOX, np.zeros((0, 2))).out_facet.shape == (0,)


def test_short_direction_is_traced_by_every_entry_point():
    # every exit ratio 1 / (a.v) overflows at v; the ray through 2^k v leaves through y <= 1 at (0, 1)
    v = np.array([0.0, 2.2e-311])
    trace = rx.ray_intersect(UNIT_BOX, v)
    assert (trace.in_facet, trace.out_facet, trace.alpha_plus) == (None, 2, math.inf)
    assert (trace.v_minus.tolist(), trace.v_plus.tolist(), trace.alpha_v) == ([0.0, 0.0], [0.0, 1.0], 1.0)
    assert bits(trace.v) == bits(v)  # v itself, not 2^k v
    seen = []
    field = rx.ScalarField(2, lambda x: seen.append(x.tolist()) or float(x[1]))
    model = rx.build(field, UNIT_BOX, anchor="none", run_certification=False)
    seen.clear()
    assert rx.secant_raw(model, v) == 0.0
    assert seen == [[0.0, 0.0], [0.0, 1.0]]


def test_short_direction_whose_scaled_ray_misses_raises_that_traces_error():
    # at v both exit ratios overflow ("never exits"); at 2^k v the ray enters x >= 2 after leaving y >= -1
    poly = rx.Polytope.box([2.0, -1.0], [3.0, 1.0])
    v = np.array([2.2e-311, -2.2e-310])
    with pytest.raises(RayMissesPolytope, match=r"^empty intersection interval$"):
        rx.ray_intersect(poly, v)
    with pytest.raises(RayMissesPolytope, match=r"^empty intersection interval \(row 1\)$"):
        rx.ray_intersect_batch(poly, np.array([[2.5, 0.0], v]))
    with pytest.raises(PointOutsidePolytope, match="misses the polytope"):
        rx.region_of(poly, v)


def test_far_ray_is_not_degenerate():
    # an absolute degeneracy test called this trace a single point
    poly = rx.Polytope.box([1.0, 1.0], [2.0, 2.0])
    v = np.array([1.5, 1.2]) * 1e12
    trace = rx.ray_intersect(poly, v)
    assert not trace.degenerate
    assert np.allclose(trace.v_minus, [1.25, 1.0], rtol=1e-12, atol=0)
    assert np.allclose(trace.v_plus, [2.0, 1.6], rtol=1e-12, atol=0)
    assert not rx.ray_intersect_batch(poly, v[None]).degenerate[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 999), st.floats(-6.0, 6.0))
def test_trace_endpoints_invariant_under_scaling(seed, exponent):
    lam = 10.0**exponent
    for poly in KERNEL_POLYTOPES:
        for v in rx.sample_interior(poly, seed, 4):
            base = rx.ray_intersect(poly, v)
            scaled = rx.ray_intersect(poly, lam * v)
            assert scaled.degenerate == base.degenerate
            assert (scaled.in_facet, scaled.out_facet) == (base.in_facet, base.out_facet)
            for got, want in ((scaled.v_minus, base.v_minus), (scaled.v_plus, base.v_plus)):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize(
    "points_per_axis, message",
    [
        (10**6, "1000000 lattice points per axis give more than 1000000 points in 2-D"),  # numpy: MemoryError, 7.28 TiB
        (1001, "1001 lattice points per axis give more than 1000000 points in 2-D"),
        (-1, "lattice points per axis must be at least 0, got -1"),  # numpy: ValueError
    ],
)
def test_a_lattice_past_its_cap_or_negative_is_invalid_input(points_per_axis, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("allocated past the lattice cap")

    monkeypatch.setattr(np, "linspace", never)
    with pytest.raises(InvalidInput, match=message):
        lattice(np.array([[0.0, 1.0], [0.0, 1.0]]), points_per_axis)


def test_a_lattice_at_its_cap_passes():
    points = lattice(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1000)
    assert points.shape == (MAX_LATTICE_POINTS, 2)
    assert points[0].tolist() == [0.0, -1.0] and points[-1].tolist() == [1.0, 0.0]
