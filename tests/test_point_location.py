"""One point-location rule under region_of, value, eval_homogeneous and gradient.

``geometry.locate`` accepts v when its own ray trace puts it between the two
boundary points, alpha_minus <= 1 <= alpha_plus within GEOM_TOL.  These tests
pin that every point query decides containment by that rule: the four
functions agree on inside/outside next to every facet, a point one ulp
outside a facet through the working origin is outside for all of them, and
rescaling or reordering halfspace rows changes no verdict.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rayvex as rx
from rayvex import envelope as env
from rayvex.errors import GradientUnavailable, PointOutsideDomain, PointOutsidePolytope, ZeroDirection
from rayvex.geometry import locate

ENTRIES = [entry.name for entry in rx.catalog()]
EVALUATORS = (env.value, env.eval_homogeneous, env.gradient)


def _facets(polytope: rx.Polytope) -> list[tuple[int, np.ndarray]]:
    """(index, vertices on it) for every facet of a polytope."""
    verts = rx.vertices(polytope)
    out = []
    for i, h in enumerate(polytope.halfspaces):
        on = verts[np.abs(verts @ h.a - h.b) <= 1e-9]
        if len(on) >= polytope.dim:
            out.append((i, on))
    return out


def _on_facet(face: np.ndarray, weights) -> np.ndarray:
    """w0 + sum_k lambda_k (w_k - w0): stays exactly on an axis-aligned facet."""
    w = np.asarray(weights, dtype=float)[: len(face)]
    w = w / w.sum()
    return face[0] + w[1:] @ (face[1:] - face[0])


def _ulps(x: np.ndarray, normal: np.ndarray, steps: int) -> np.ndarray:
    """x moved |steps| ulps per coordinate along +normal (steps > 0) or -normal."""
    target = x + np.sign(steps) * normal
    for _ in range(abs(steps)):
        x = np.nextafter(x, target)
    return x


def _outside(fn, *args) -> bool:
    """Whether fn reports its point outside; any other error propagates."""
    try:
        fn(*args)
    except (PointOutsideDomain, PointOutsidePolytope):
        return True
    except GradientUnavailable:
        if fn is not env.gradient:
            raise
    return False


def test_one_ulp_outside_each_facet_through_the_origin(catalog_models):
    checked = 0
    for name in ENTRIES:
        entry, model = catalog_models[name]
        assert model.homogeneity_certified
        for i, face in _facets(model.polytope):
            normal = model.polytope.halfspaces[i].a
            if model.polytope.offsets[i] != 0.0:
                continue
            for weights in ([1.0, 1.0], [1.0, 3.0], [5.0, 1.0]):
                x = _ulps(_on_facet(face, weights) + model.anchor, normal, 1)
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


@st.composite
def near_facet(draw):
    """(entry name, point in original coordinates) on, or just either side of, a facet."""
    name = draw(st.sampled_from(ENTRIES))
    entry = rx.CATALOG_BUILDERS[name]()
    facets = _facets(entry.default_polytope)
    i, face = facets[draw(st.integers(0, len(facets) - 1))]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(face), max_size=len(face)))
    x = _on_facet(face, weights)
    normal = entry.default_polytope.halfspaces[i].a
    move = draw(st.sampled_from(["ulps", "relative"]))
    if move == "ulps":
        x = _ulps(x, normal, draw(st.integers(-3, 3)))
    else:
        x = x + draw(st.sampled_from([-1e-6, -1e-10, 1e-10, 1e-6])) * normal
    return name, x


@settings(max_examples=300, deadline=None)
@given(near_facet())
def test_all_point_queries_agree_on_inside_and_outside(catalog_models, case):
    name, x = case
    _, model = catalog_models[name]
    v = x - model.anchor
    assume(np.any(v != 0.0))  # the anchor has its own rules in each evaluator
    with np.errstate(over="ignore"):  # the cubic field overflows to its closure value inf next to x = 0
        verdicts = {fn.__name__: _outside(fn, model, x) for fn in EVALUATORS}
    verdicts["region_of"] = _outside(rx.region_of, model.polytope, v)
    assert len(set(verdicts.values())) == 1, verdicts


def _scaled(polytope: rx.Polytope, scales) -> rx.Polytope:
    s = np.asarray(scales, dtype=float)
    return rx.Polytope.from_inequalities(polytope.matrix * s[:, None], polytope.offsets * s)


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


@pytest.fixture(scope="module")
def uncertified_models():
    """Catalog models at their default anchors, built without certification."""
    out = {}
    for entry in rx.catalog():
        out[entry.name] = env.build(
            entry.field, entry.default_polytope, sense=entry.build_sense, anchor=entry.default_anchor,
            run_certification=False,
        )
    return out


@settings(max_examples=150, deadline=None)
@given(near_facet(), st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6))
def test_row_scaling_changes_no_verdict_or_value(uncertified_models, case, exponents):
    name, x = case
    model = uncertified_models[name]
    # the point queries read only these rows; the scaled copy skips build's
    # validation LPs, which are not what this property is about
    scales = [10.0**e for e in exponents[: model.polytope.n_facets]]
    models = [model, replace(model, polytope=_scaled(model.polytope, scales))]
    v = x - model.anchor
    assume(np.any(v != 0.0))
    # a subnormal coordinate's product with a row scaled below 1 can underflow to 0,
    # so a point 5e-324 outside a facet reads as on it: a limit of the floats, not of the rule
    assume(not np.any((v != 0.0) & (np.abs(v) < np.finfo(float).tiny)))
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
    big = _scaled(box, [1e6] * 4)
    x = np.array([1.0 + 5e-12, 0.5])
    assert rx.region_of(big, x) == rx.region_of(box, x) == rx.RegionId(None, 0)
    entry = rx.bilinear_neg()
    small_model, big_model = (
        env.build(entry.field, p, anchor=entry.default_anchor, run_certification=False) for p in (box, big)
    )
    assert env.value(big_model, x) == pytest.approx(env.value(small_model, x), rel=1e-12)


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
            np.testing.assert_equal(result.f, env.original_value(model, x))  # NaN matches NaN
