"""One point-location rule under region_of, value, eval_homogeneous and gradient.

``geometry.locate`` accepts v when its own ray trace puts it between the two
boundary points, alpha_minus <= 1 <= alpha_plus within GEOM_TOL.  These tests
pin that every point query decides containment by that rule: the four
functions agree on inside/outside next to every facet, a point one ulp
outside a facet through the working origin is outside for all of them, and
rescaling or reordering halfspace rows changes no verdict.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import facets, near_catalog_facet, nearly_parallel_entry, on_facet, outside, scaled, ulps

import rayvex as rx
from rayvex import envelope as env
from rayvex.errors import GradientUnavailable, PointOutsideDomain, PointOutsidePolytope, ZeroDirection
from rayvex.geometry import locate

ENTRIES = [entry.name for entry in rx.catalog()]
EVALUATORS = (env.value, env.eval_homogeneous, env.gradient)


def test_one_ulp_outside_each_facet_through_the_origin(catalog_models):
    checked = 0
    for name in ENTRIES:
        entry, model = catalog_models[name]
        assert model.homogeneity_certified
        for i, face in facets(model.polytope):
            normal = model.polytope.matrix[i]
            if model.polytope.offsets[i] != 0.0:
                continue
            for weights in ([1.0, 1.0], [1.0, 3.0], [5.0, 1.0]):
                x = ulps(on_facet(face, weights) + model.anchor, normal, 1)
                v = x - model.anchor
                assert float(normal @ v) > 0.0  # strictly outside the b = 0 facet
                for fn in EVALUATORS:
                    with pytest.raises(PointOutsideDomain):
                        fn(model, x)
                with pytest.raises(PointOutsidePolytope):
                    rx.region_of(model.polytope, v)
                checked += 1
    assert checked == 4 * 2 * 3  # two facets through the origin on each 2-D entry


def test_defect_point_on_shifted_bilinear_box():
    """[0.7, nextafter(0.2, -1)] lies one ulp below the y >= 0.2 facet."""
    entry = rx.bilinear_neg(0.1, 0.2, 1.3, 2.9)
    model = env.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, budget=2000)
    assert model.homogeneity_certified
    x = np.array([0.7, np.nextafter(0.2, -1.0)])
    for fn in EVALUATORS:
        with pytest.raises(PointOutsideDomain):
            fn(model, x)
    inside = np.array([0.7, 0.2])
    assert env.eval_homogeneous(model, inside) == pytest.approx(env.value(model, inside), abs=1e-10)
    assert np.all(np.isfinite(env.gradient(model, inside)))


@settings(max_examples=300, deadline=None)
@given(near_catalog_facet())
def test_all_point_queries_agree_on_inside_and_outside(catalog_models, case):
    name, x = case
    _, model = catalog_models[name]
    v = x - model.anchor
    assume(np.any(v != 0.0))  # the anchor has its own rules in each evaluator
    verdicts = {fn.__name__: outside(fn, model, x) for fn in EVALUATORS}
    verdicts["region_of"] = outside(rx.region_of, model.polytope, v)
    assert len(set(verdicts.values())) == 1, verdicts


def _value_or_none(model, x):
    try:
        return env.value(model, x)
    except PointOutsideDomain:
        return None


def _region_or_none(polytope, v):
    try:
        return rx.region_of(polytope, v)
    except PointOutsidePolytope:
        return None


@settings(max_examples=150, deadline=None)
@given(near_catalog_facet(), st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6))
def test_row_scaling_changes_no_verdict_or_value(uncertified_models, case, exponents):
    name, x = case
    model = uncertified_models[name]
    entry = rx.CATALOG_BUILDERS[name]()
    scales = [10.0**e for e in exponents[: model.polytope.n_facets]]
    rescaled = env.build(
        entry.field, scaled(entry.default_polytope, scales), sense=entry.build_sense, anchor=entry.default_anchor,
        run_certification=False,
    )
    models = [model, rescaled]
    v = x - model.anchor
    assume(np.any(v != 0.0))
    regions = [_region_or_none(m.polytope, v) for m in models]
    assert (regions[0] is None) == (regions[1] is None)
    values = [_value_or_none(m, x) for m in models]
    assert (values[0] is None) == (values[1] is None)
    assert (values[0] is None) == (regions[0] is None)
    if values[0] is not None and math.isfinite(values[0]):
        assert values[1] == pytest.approx(values[0], rel=1e-12, abs=1e-15)


def test_scaled_unit_box_pinned_point():
    """(1 + 5e-12, 0.5) is inside the unit box, also when its rows read x 1e6."""
    box = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])
    big = scaled(box, [1e6] * 4)
    x = np.array([1.0 + 5e-12, 0.5])
    assert rx.region_of(big, x) == rx.region_of(box, x) == rx.RegionId(None, 0)
    entry = rx.bilinear_neg()
    small_model, big_model = (
        env.build(entry.field, p, anchor=entry.default_anchor, run_certification=False) for p in (box, big)
    )
    assert env.value(big_model, x) == pytest.approx(env.value(small_model, x), rel=1e-12)


def test_subnormal_point_keeps_its_verdict_under_row_scaling():
    """(0.5, -5e-324) is outside y >= 0; with that row read x 0.1, a.v once rounded to 0 and v was inside."""
    box = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])
    for p in (box, scaled(box, [1.0, 1.0, 1.0, 0.1])):
        with pytest.raises(PointOutsidePolytope):
            locate(p, [0.5, -5e-324])


def test_a_vertex_reached_past_a_nearly_parallel_entry_facet_is_located():
    # locate raised "empty intersection interval" where contains accepted
    polytope, v = nearly_parallel_entry()
    assert polytope.contains(v) and -1.2e-16 < polytope.margins(v).min() < 0.0
    trace = locate(polytope, v)
    assert trace.degenerate and (trace.alpha_minus, trace.alpha_plus, trace.alpha_v) == (1.0, 1.0, 1.0)
    assert (trace.in_facet, trace.out_facet) == (4, 1)
    batch = rx.ray_intersect_batch(polytope, v[None])
    assert batch.degenerate.tolist() == [True] and (batch.in_facet[0], batch.out_facet[0]) == (4, 1)


def _off_ties(polytope: rx.Polytope, v: np.ndarray) -> bool:
    """Whether one facet alone meets each endpoint of v's ray, with a wide margin."""
    trace = rx.ray_intersect(polytope, v)
    t = polytope.matrix @ v
    b = polytope.offsets
    exits = np.count_nonzero((t > 0) & (np.abs(t * trace.alpha_plus - b) <= 1e-6))
    entries = np.count_nonzero((t < 0) & (np.abs(t * trace.alpha_minus - b) <= 1e-6))
    return bool(exits == 1 and (trace.in_facet is None or entries == 1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ENTRIES), st.data())
def test_row_permutation_maps_region_ids(name, data):
    poly = rx.CATALOG_BUILDERS[name]().default_polytope
    verts = rx.vertices(poly)
    weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(verts), max_size=len(verts))))
    v = weights @ verts / weights.sum()
    assume(_off_ties(poly, v))
    perm = np.array(data.draw(st.permutations(range(poly.n_facets))))
    permuted = rx.Polytope.from_inequalities(poly.matrix[perm], poly.offsets[perm])
    new_index = np.argsort(perm)  # old row i is row new_index[i] of the permuted polytope
    rid = rx.region_of(poly, v)
    want = rx.RegionId(None if rid.in_facet is None else int(new_index[rid.in_facet]), int(new_index[rid.out_facet]))
    assert rx.region_of(permuted, v) == want


def test_the_anchor_keeps_its_own_answers(catalog_models):
    _, model = catalog_models["bilinear"]  # the anchor is the working origin, a vertex of P
    assert env.value(model, model.anchor) == 0.0
    with pytest.raises(ZeroDirection):
        env.eval_homogeneous(model, model.anchor)
    with pytest.raises(GradientUnavailable):
        env.gradient(model, model.anchor)
    _, model = catalog_models["cubic"]  # anchor "none": the working origin lies outside P
    for fn in EVALUATORS:
        with pytest.raises(PointOutsideDomain):
            fn(model, [0.0, 0.0])


def test_locate_returns_the_trace_it_decided_on():
    box = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])
    trace = locate(box, [0.5, 0.25])
    assert trace.alpha_plus == 2.0 and trace.out_facet == 0
    with pytest.raises(PointOutsidePolytope):
        locate(box, [1.5, 0.5])  # alpha_plus = 2/3
    with pytest.raises(PointOutsidePolytope):
        locate(rx.Polytope.box([1.0, 1.0], [2.0, 2.0]), [-1.0, -1.0])  # the ray misses P


def test_envelope_value_carries_f(catalog_models):
    for name in ENTRIES:
        entry, model = catalog_models[name]
        verts = rx.vertices(model.polytope)
        for x in [model.anchor, *(verts + model.anchor), verts.mean(axis=0) + model.anchor]:
            try:
                result = env.eval(model, x)
            except PointOutsideDomain:
                continue
            # f from the working field: sign and offset undone at x - anchor
            v = np.asarray(x, dtype=float) - model.anchor
            f_at_x = model.sign * float(model.field.eval(v)) + model.offset
            np.testing.assert_equal(result.f, f_at_x)  # NaN matches NaN
