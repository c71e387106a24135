"""Geometry: validation, ray traces, regions, vertices and sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rayvex as rx
from rayvex.errors import (
    DimensionNotSupported,
    EmptyInterior,
    HyperplaneThroughOrigin,
    PointOutsidePolytope,
    RayMissesPolytope,
    SamplingBudgetExceeded,
    UnboundedPolytope,
    ZeroDirection,
)

UNIT_BOX = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])
# {(x, y) >= 0 : 1 <= x + y <= 2}
SLAB = rx.Polytope.from_inequalities(
    [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 1.0]],
    [0.0, 0.0, -1.0, 2.0],
)
# triangle conv{(1,0), (0,1), (1,1)}
TRIANGLE = rx.Polytope.from_inequalities(
    [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
    [-1.0, 1.0, 1.0],
)


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
        lps = []
        solve = rx.geometry.solve_inequality_lp
        monkeypatch.setattr(rx.geometry, "solve_inequality_lp", lambda *a: lps.append(1) or solve(*a))
        box = rx.Polytope.box([0.0, 0.0], [2.0, 1.0])
        report = rx.validate(box)
        assert len(lps) == 5  # two bounds per coordinate and the Chebyshev centre
        assert rx.validate(box) is report
        rx.sample_interior(box, 0, 10)
        assert len(lps) == 5
        with pytest.raises(ValueError):  # shared by every caller, so read-only
            report.coordinate_bounds[0, 0] = -1.0

    def test_failed_validation_is_not_kept(self, monkeypatch):
        lps = []
        solve = rx.geometry.solve_inequality_lp
        monkeypatch.setattr(rx.geometry, "solve_inequality_lp", lambda *a: lps.append(1) or solve(*a))
        quadrant = rx.Polytope.from_inequalities([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        for attempt in (1, 2):
            with pytest.raises(UnboundedPolytope):
                rx.validate(quadrant)
            assert len(lps) == 2 * attempt  # solved again: only a success is kept


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
@given(
    lower=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    widths=st.tuples(st.floats(0.1, 4), st.floats(0.1, 4)),
    angle=st.floats(0, 2 * np.pi),
    depth=st.floats(0.05, 1.0),
    scales=st.lists(st.floats(0.25, 4), min_size=5, max_size=5),
)
def test_interior_point_contract_on_cut_boxes(lower, widths, angle, depth, scales):
    # A box cut by one halfspace that keeps the box centre inside, rows rescaled.
    lower = np.array(lower)
    upper = lower + np.array(widths)
    box = rx.Polytope.box(lower, upper)
    normal = np.array([np.cos(angle), np.sin(angle)])
    centre = 0.5 * (lower + upper)
    offset = normal @ centre + depth * 0.5 * min(widths)
    a = np.vstack([box.matrix, normal])
    b = np.append(box.offsets, offset)
    s = np.array(scales)
    _assert_interior_point_clears_margin(rx.Polytope.from_inequalities(a * s[:, None], b * s))


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
        assert UNIT_BOX.halfspaces[trace.out_facet].b > 0

    def test_smallest_index_wins_at_vertex(self):
        # the diagonal exits at (1, 1) where facets 0 (x<=1) and 2 (y<=1) tie
        trace = rx.ray_intersect(UNIT_BOX, [0.5, 0.5])
        assert trace.out_facet == 0
        trace = rx.ray_intersect(SLAB, [1.0, 1.0])  # no tie: unique entry/exit facets
        assert trace.in_facet == 2 and trace.out_facet == 3


class TestNormalizeFacet:
    def test_unit_box_right_facet(self):
        facet = rx.normalize_facet(UNIT_BOX, 0)  # x <= 1
        assert np.allclose(facet.a, [1.0, 0.0])

    def test_slab_outer_facet(self):
        facet = rx.normalize_facet(SLAB, 3)  # x + y <= 2
        assert np.allclose(facet.a, [0.5, 0.5])

    def test_through_origin_rejected(self):
        with pytest.raises(HyperplaneThroughOrigin):
            rx.normalize_facet(UNIT_BOX, 1)  # x >= 0


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
        total = sum(rx.polygon_area(poly) for _, poly in regions)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_slab_is_one_region(self):
        regions = rx.enumerate_regions_2d(SLAB)
        assert len(regions) == 1
        rid, poly = regions[0]
        assert rid == rx.RegionId(2, 3)
        assert rx.polygon_area(poly) == pytest.approx(1.5, abs=1e-9)

    def test_triangle_splits_at_interior_vertex_ray(self):
        regions = rx.enumerate_regions_2d(TRIANGLE)
        assert len(regions) == 2
        area = sum(rx.polygon_area(poly) for _, poly in regions)
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
        total = sum(rx.polygon_area(poly) for _, poly in regions)
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


@settings(max_examples=60, deadline=None)
@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.05, 1.0))
def test_scaling_invariance_of_endpoints(fx, fy, lam):
    # the ray, not the point on it, determines v_minus and v_plus
    v = np.array([0.25 + fx, fy])
    assume(SLAB.contains(v))
    base = rx.ray_intersect(SLAB, v)
    scaled = rx.ray_intersect(SLAB, lam * v)
    assert np.max(np.abs(base.v_minus - scaled.v_minus)) <= 1e-10
    assert np.max(np.abs(base.v_plus - scaled.v_plus)) <= 1e-10


def test_hyperplane_relation_when_origin_outside():
    # alpha_v / (a_in . v) + (1 - alpha_v) / (a_out . v) = 1
    pts = rx.sample_interior(SLAB, 3, 300)
    for v in pts:
        trace = rx.ray_intersect(SLAB, v)
        a_in = rx.normalize_facet(SLAB, trace.in_facet).a
        a_out = rx.normalize_facet(SLAB, trace.out_facet).a
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


def test_polytope_labels_survive_round_trip(tmp_path):
    path = tmp_path / "box.json"
    UNIT_BOX.save(path)
    loaded = rx.Polytope.load(path)
    assert loaded.facet_labels == UNIT_BOX.facet_labels
    assert loaded.label(0) == "x1<=1"


# -- the batched ray kernel ------------------------------------------------------


def _cut_box(rng, dim):
    """A box with two random cuts, every row rescaled: rows with inexact a.v sums."""
    a = np.vstack([np.eye(dim), -np.eye(dim), rng.normal(size=(2, dim))])
    b = np.concatenate([rng.uniform(0.5, 2.0, size=2 * dim), rng.uniform(0.3, 1.0, size=2)])
    b[2 * dim :] += a[2 * dim :] @ rng.uniform(-0.2, 0.2, size=dim)  # keep the cuts off the origin
    scale = 10.0 ** rng.uniform(-3, 3, size=len(b))
    return rx.Polytope.from_inequalities(a * scale[:, None], b * scale)


KERNEL_POLYTOPES = [entry.default_polytope for entry in rx.catalog()] + [
    UNIT_BOX,
    SLAB,
    TRIANGLE,
    rx.Polytope.box([1.0, 1.0], [2.0, 2.0]),
    rx.catalog()[1].default_polytope.translate([1.0, 0.0]),  # fractional, working coordinates: b = 0 facets
    rx.Polytope.box([1.0, 1.0], [1.0 + 1e-8, 2.0]),  # thin: traces span 1e-8 of alpha at unit scale
]


def _ray_candidates(poly, rng):
    """Interior points, vertices (ties), facet points, near-vertex and random directions."""
    verts = rx.vertices(poly)
    near = np.repeat(verts, 3, axis=0)
    near = near * (1.0 + rng.choice([-1.0, 1.0], size=near.shape) * 10.0 ** rng.uniform(-16, -8, size=near.shape))
    edges = [
        w1 + rng.uniform() * (w2 - w1)
        for w1, w2 in zip(verts, np.roll(verts, 1, axis=0))
    ]
    return np.vstack(
        [
            rx.sample_interior(poly, int(rng.integers(1000)), 20),
            verts,
            np.array(edges),
            near,
            rng.dirichlet(np.ones(len(verts)), size=10) @ verts,
            rng.normal(size=(20, poly.dim)) * 3.0,
        ]
    )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_rows_match(poly, rows):
    batch = rx.ray_intersect_batch(poly, rows)
    v_minus, v_plus = batch.v_minus, batch.v_plus
    for r, v in enumerate(rows):
        trace = rx.ray_intersect(poly, v)
        assert _bits(batch.alpha_minus[r]) == _bits(trace.alpha_minus)
        assert _bits(batch.alpha_plus[r]) == _bits(trace.alpha_plus)
        assert _bits(batch.alpha_v[r]) == _bits(trace.alpha_v)
        assert batch.in_facet[r] == (-1 if trace.in_facet is None else trace.in_facet)
        assert batch.out_facet[r] == trace.out_facet
        assert batch.degenerate[r] == trace.degenerate
        assert _bits(v_minus[r]) == _bits(trace.v_minus)
        assert _bits(v_plus[r]) == _bits(trace.v_plus)


def _scalar_outcome(poly, v):
    try:
        rx.ray_intersect(poly, v)
    except rx.errors.RayvexError as exc:
        return type(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(KERNEL_POLYTOPES) + 2), st.integers(0, 2**32 - 1))
def test_batch_kernel_matches_scalar_bit_for_bit(which, seed):
    rng = np.random.default_rng(seed)
    if which < len(KERNEL_POLYTOPES):
        poly = KERNEL_POLYTOPES[which]
    else:
        poly = _cut_box(rng, 2 + which - len(KERNEL_POLYTOPES))  # 2-, 3- and 4-D
    rows = _ray_candidates(poly, rng)
    outcomes = [_scalar_outcome(poly, v) for v in rows]
    _assert_rows_match(poly, rows[[o is None for o in outcomes]])
    for v, outcome in zip(rows, outcomes):
        if outcome is not None:  # a rejected row makes the batch raise the scalar error
            with pytest.raises(outcome):
                rx.ray_intersect_batch(poly, np.vstack([rows[0] if outcomes[0] is None else v, v]))


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
