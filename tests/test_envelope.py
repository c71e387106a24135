"""Envelope models: secant evaluation, homogeneous forms, gradients, properties."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayvex as rx
from strategies import near_facet, outside, placed_polygons, record_calls, region_interior, same, working_points
from rayvex import envelope as env
from rayvex.functions import _eval_rows
from rayvex.errors import (
    DimensionMismatch,
    GradientUnavailable,
    InvalidAnchor,
    NotCertifiedHomogeneous,
    PointOutsideDomain,
)

BUDGET = 2000  # module-level checks; acceptance runs the full 10^4


# (entry, model): the catalog's bilinear on [0, 1]^2, cubic with anchor "none", and reliability on
# [0, 1]^2 in concave sense at the origin, certified once per session at 10^4
@pytest.fixture(scope="module")
def mccormick(catalog_models):
    return catalog_models["bilinear"]


@pytest.fixture(scope="module")
def cubic(catalog_models):
    return catalog_models["cubic"]


@pytest.fixture(scope="module")
def reliability_cave(catalog_models):
    return catalog_models["reliability"]


class TestBuild:
    def test_mccormick_is_certified(self, mccormick):
        _, model = mccormick
        assert model.certified
        assert model.status == "certified"
        assert model.origin_in_P
        assert model.offset == 0.0

    def test_translate_anchor_moves_domain(self):
        entry = rx.fractional()
        model = env.build(entry.field, entry.default_polytope, anchor=[1.0, 0.0], budget=BUDGET)
        assert model.origin_in_P
        assert np.allclose(model.anchor, [1.0, 0.0])
        # working field is f(x+1, y) - f(1, 0) = y / (x + 1)
        assert model.field.eval(np.array([0.5, 0.9])) == pytest.approx(0.6)
        assert model.certified

    def test_ray_convex_field_builds_uncertified(self):
        field = rx.ScalarField(2, lambda p: p[0] ** 2 + p[1] ** 2, grad=lambda p: 2 * np.asarray(p))
        model = env.build(field, rx.Polytope.box([0, 0], [1, 1]), budget=BUDGET)
        assert not model.certified
        assert model.status == "secant interpolant"
        assert model.certification.ray_concave.status == "fail"
        assert model.certification.facet_convex.status == "pass"
        assert model.certification.positively_homogeneous.status == "pass"
        # the secant interpolant still evaluates
        assert env.value(model, [0.5, 0.5]) == pytest.approx(1.0)  # midpoint of 0 and f(1,1)=2

    @staticmethod
    def _count_lps(monkeypatch, entry, anchor) -> int:
        lps = record_calls(monkeypatch, rx.geometry, "solve_lp")
        model = env.build(entry.field, entry.default_polytope, sense=entry.build_sense, anchor=anchor, budget=500)
        assert model.polytope is not entry.default_polytope
        assert model.validation is rx.validate(model.polytope)  # read from the cache, no LP
        return len(lps)

    def test_translated_anchor_validates_each_polytope_once(self, monkeypatch):
        entry = rx.bilinear_neg(0.5, -0.25, 2.0, 1.0)
        # the working polytope only: the Chebyshev LP, then 2n = 4 bounds
        assert self._count_lps(monkeypatch, entry, entry.default_anchor) == 5

    def test_translated_3d_anchor_solves_2n_plus_1_lps(self, monkeypatch):
        assert self._count_lps(monkeypatch, rx.cobb_douglas(), [1.25, 1.5, 1.75]) == 7

    def test_dimension_mismatch(self):
        field = rx.ScalarField(3, lambda p: p[0])
        with pytest.raises(DimensionMismatch):
            env.build(field, rx.Polytope.box([0, 0], [1, 1]), budget=0, run_certification=False)

    def test_invalid_anchor(self):
        entry = rx.bilinear_neg(0, 0, 1, 1)
        with pytest.raises(InvalidAnchor):
            env.build(entry.field, entry.default_polytope, anchor=[5.0, 5.0], run_certification=False)
        slab = rx.cubic_rational().default_polytope
        with pytest.raises(InvalidAnchor):
            # origin-shift needs the origin inside the domain
            env.build(rx.cubic_rational().field, slab, anchor="origin-shift", run_certification=False)

    def test_rejects_invalid_domains(self):
        entry = rx.bilinear_neg(0, 0, 1, 1)
        quadrant = rx.Polytope.from_inequalities([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        with pytest.raises(rx.errors.UnboundedPolytope):
            env.build(entry.field, quadrant, run_certification=False)
        flat = rx.Polytope.from_inequalities(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, 0.0, 1.0, 0.0]
        )
        with pytest.raises(rx.errors.EmptyInterior):
            env.build(entry.field, flat, run_certification=False)
        # the anchor is checked first: only the working domain is validated
        for anchor in ([-1.0, -1.0], "bogus"):
            with pytest.raises(InvalidAnchor):
                env.build(entry.field, quadrant, anchor=anchor, run_certification=False)

    def test_sense_is_checked_first(self, monkeypatch):
        # a misspelt sense raised UnboundedPolytope or InvalidAnchor, or came after the validation LPs
        entry = rx.bilinear_neg(0, 0, 1, 1)
        quadrant = rx.Polytope.from_inequalities([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        lps = record_calls(monkeypatch, rx.geometry, "solve_lp")
        seen = []
        field = replace(entry.field, eval=lambda p: seen.append(p) or entry.field.eval(p))
        away = rx.Polytope.box([2, 2], [3, 3])
        for polytope, anchor in ((quadrant, "origin-shift"), (entry.default_polytope, [5.0, 5.0]), (away, "none")):
            with pytest.raises(ValueError, match="sense must be 'convex' or 'concave', got 'convx'"):
                env.build(field, polytope, sense="convx", anchor=anchor, run_certification=False)
        assert (lps, seen) == ([], [])


class TestEval:
    def test_mccormick_value(self, mccormick):
        entry, model = mccormick
        result = env.eval(model, [0.5, 0.25])
        assert result.value == pytest.approx(-0.25, abs=1e-12)
        assert result.region == rx.RegionId(None, 0)
        assert not result.tight  # f(0.5, 0.25) = -0.125 sits strictly above

    def test_matches_closed_form_on_grid(self, mccormick):
        entry, model = mccormick
        axes = np.linspace(0, 1, 21)
        for x in axes:
            for y in axes:
                p = np.array([x, y])
                assert env.value(model, p) == pytest.approx(entry.expected_envelope(p), abs=1e-9)

    def test_cubic_envelope_value(self, cubic):
        _, model = cubic
        assert env.value(model, [0.75, 0.75]) == pytest.approx(0.75, abs=1e-12)

    def test_vertices_are_tight(self, mccormick, cubic):
        for entry, model in (mccormick, cubic):
            for vtx in rx.vertices(entry.default_polytope):
                f_v = entry.field(vtx)
                if not np.isfinite(f_v):
                    continue
                result = env.eval(model, vtx)
                assert result.value == pytest.approx(f_v, abs=1e-9)
                assert result.tight

    def test_value_at_anchor(self, mccormick):
        _, model = mccormick
        result = env.eval(model, [0.0, 0.0])
        assert result.value == 0.0
        assert result.trace is None and result.region is None
        assert result.tight

    def test_outside_domain(self, mccormick):
        _, model = mccormick
        with pytest.raises(PointOutsideDomain):
            env.eval(model, [2.0, 0.5])

    def test_concave_sense_overestimates(self, reliability_cave):
        entry, model = reliability_cave
        assert env.value(model, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
        for p in rx.sample_interior(entry.default_polytope, 3, 500):
            assert env.value(model, p) >= entry.field(p) - 1e-12

    def test_degenerate_boundary_point_returns_f(self):
        triangle = rx.Polytope.from_inequalities(
            [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 1.0, 1.0]
        )
        entry = rx.bilinear_neg(0, 0, 1, 1)
        model = env.build(entry.field, triangle, anchor="none", budget=500)
        result = env.eval(model, [1.0, 0.0])  # ray touches only this vertex
        assert result.trace.degenerate
        assert result.value == entry.field(np.array([1.0, 0.0]))
        assert result.tight

    @pytest.mark.parametrize("point", [(0.0, 1.0), (0.0, 1.5), (0.0, 2.0)])
    def test_cubic_is_inf_and_tight_on_its_x0_facet(self, cubic, point):
        # y^2/x is +inf there; f(v_minus) = f(v_plus) = inf, and a zero weight on one made g nan at (0, 1) and (0, 2)
        _, model = cubic
        result = env.eval(model, point)
        assert (result.value, result.f, result.tight) == (math.inf, math.inf, True)
        assert env.secant_raw(model, point) == math.inf

    def test_secant_reconstruction(self, mccormick):
        _, model = mccormick
        for p in rx.sample_interior(model.polytope, 7, 200):
            result = env.eval(model, p)
            tr = result.trace
            rebuilt = tr.alpha_v * model.field.eval(tr.v_minus) + (1 - tr.alpha_v) * model.field.eval(tr.v_plus)
            assert result.value == pytest.approx(rebuilt + model.offset, abs=1e-12)


class TestHomogeneousForm:
    @pytest.mark.parametrize("fixture", ["mccormick", "cubic", "reliability_cave"])
    def test_agrees_with_eval(self, fixture, request):
        entry, model = request.getfixturevalue(fixture)
        for p in rx.sample_interior(model.polytope, 5, 400):
            x = p + model.anchor
            direct = env.value(model, x)
            product = env.eval_homogeneous(model, x)
            assert product == pytest.approx(direct, abs=1e-10)

    def test_mccormick_product_value(self, mccormick):
        _, model = mccormick
        assert env.eval_homogeneous(model, [0.5, 0.25]) == pytest.approx(-0.25, abs=1e-12)

    def test_reliability_product_value(self, reliability_cave):
        _, model = reliability_cave
        assert env.eval_homogeneous(model, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_uncertified_model_rejected(self):
        field = rx.ScalarField(2, lambda p: -p[0] * p[1] + 1.0)
        model = env.build(field, rx.Polytope.box([0, 0], [1, 1]), anchor="none", budget=500)
        assert not model.homogeneity_certified
        for evaluate in (env.eval_homogeneous, env.gradient):
            with pytest.raises(NotCertifiedHomogeneous):
                evaluate(model, [0.5, 0.5])


class TestGradient:
    def test_mccormick_upper_region(self, mccormick):
        _, model = mccormick
        grad = env.gradient(model, [0.25, 0.5])
        assert np.allclose(grad, [-1.0, 0.0], atol=1e-12)

    def test_cubic_gradient(self, cubic):
        _, model = cubic
        grad = env.gradient(model, [0.75, 0.75])
        assert np.allclose(grad, [-1.0, 2.0], atol=1e-10)

    def test_not_defined_at_anchor(self, mccormick):
        _, model = mccormick
        with pytest.raises(GradientUnavailable):
            env.gradient(model, [0.0, 0.0])

    def test_no_derivative_where_the_boundary_value_is_infinite(self, cubic):
        _, model = cubic
        probed = []
        field = replace(model.field, grad=lambda p: probed.append(p) or model.field.grad(p))
        with pytest.raises(GradientUnavailable, match="non-finite boundary data"):
            env.gradient(replace(model, field=field), [0.0, 1.5])  # v_plus on x = 0, where f = inf
        assert probed == []

    def test_no_derivative_where_a_finite_difference_probe_is_not_finite(self, cubic):
        # a field without grad: v_plus lies 1.3e-7 from x = 0, inside the central-difference step,
        # and f is inf across x = 0
        _, model = cubic
        field = replace(model.field, grad=None)
        with pytest.raises(GradientUnavailable, match="non-finite probe near"):
            env.gradient(replace(model, field=field), [1e-7, 1.5])


class TestConvexityProperties:
    @pytest.mark.parametrize("fixture", ["mccormick", "cubic"])
    def test_positive_homogeneity_of_secant(self, fixture, request):
        entry, model = request.getfixturevalue(fixture)
        for p in rx.sample_interior(model.polytope, 23, 300):
            g_p = env.secant_raw(model, p)
            for lam in (0.25, 0.5, 0.75):
                if not model.polytope.contains(lam * p):
                    continue
                g_scaled = env.secant_raw(model, lam * p)
                assert g_scaled == pytest.approx(lam * g_p, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("fixture", ["mccormick", "cubic", "reliability_cave"])
    def test_affine_along_ray_segments(self, fixture, request):
        # three collinear points on [v_minus, v_plus] have vanishing second difference
        entry, model = request.getfixturevalue(fixture)
        for p in rx.sample_interior(model.polytope, 29, 100):
            trace = rx.ray_intersect(model.polytope, p)
            chord = trace.v_plus - trace.v_minus
            g = [
                env.secant_raw(model, trace.v_minus + t * chord)
                for t in (0.25, 0.5, 0.75)
            ]
            scale = max(1.0, max(abs(x) for x in g))
            assert abs(g[0] - 2 * g[1] + g[2]) <= 1e-10 * scale

    @pytest.mark.parametrize("fixture", ["mccormick", "cubic", "reliability_cave"])
    def test_subgradient_inequality(self, fixture, request):
        entry, model = request.getfixturevalue(fixture)
        flip = model.sign
        pts = rx.sample_interior(model.polytope, 31, 400)
        tested = 0
        for k in range(0, 400, 2):
            v = pts[k]
            if not region_interior(model, v, margin=1e-4):
                continue
            w = pts[k + 1]
            x_v, x_w = v + model.anchor, w + model.anchor
            grad = env.gradient(model, x_v)
            gap = flip * (env.value(model, x_w) - env.value(model, x_v) - grad @ (x_w - x_v))
            assert gap >= -1e-8
            tested += 1
        assert tested >= 50


# -- the working field: anchor shift, offset and sign composed once -----------


@pytest.mark.parametrize("sense", ["convex", "concave"])
@pytest.mark.parametrize("anchor", ["none", "origin-shift", (0.3, 0.2)])
def test_working_field_calls_the_field_callables_of_the_moment(anchor, sense):
    # a tracer wraps a user's field in place after the model is built
    entry = rx.reliability()
    field = replace(entry.field)
    model = env.build(field, entry.default_polytope, sense=sense, anchor=anchor, run_certification=False)
    seen = []
    object.__setattr__(field, "eval", lambda p: seen.append("eval") or entry.field.eval(p))
    object.__setattr__(field, "grad", lambda p: seen.append("grad") or entry.field.grad(p))
    model.field.eval(np.array([0.2, 0.4]))
    model.field.gradient(np.array([0.2, 0.4]))
    _eval_rows(model.field, np.array([[0.2, 0.4], [0.6, 0.1]]))  # the row form, one eval per row
    assert seen == ["eval", "grad", "eval", "eval"]


@pytest.mark.parametrize("sense", ["convex", "concave"])
@pytest.mark.parametrize("anchor, calls", [("none", 0), ("origin-shift", 1), ((0.3, 0.2), 1)])
def test_build_evaluates_the_anchor_once(anchor, calls, sense):
    # f(anchor) is both the model's offset and the working field's base
    entry = rx.bilinear_neg(-1.0, -1.0, 2.0, 2.0)
    seen = []
    field = replace(entry.field, eval=lambda p: seen.append(p) or entry.field.eval(p))
    model = env.build(field, entry.default_polytope, sense=sense, anchor=anchor, run_certification=False)
    assert len(seen) == calls
    assert model.offset == (entry.field.eval(model.anchor) if calls else 0.0)
    assert model.field.eval(np.zeros(2)) == 0.0


@pytest.mark.parametrize("sense", ["convex", "concave"])
@pytest.mark.parametrize("zero", [(0.0, 0.0), (-0.0, 0.0)])
def test_a_zero_vector_anchor_shifts_nothing(zero, sense):
    # f gets the working point itself, so a -0.0 coordinate reaches it as -0.0, as with "origin-shift";
    # test_equivalence.py holds both working fields to v -> s * (f(v) - f(0)) bit for bit
    entry = rx.reliability()
    seen = []
    field = replace(entry.field, eval=lambda p: seen.append(p) or entry.field.eval(p))
    vector = env.build(field, entry.default_polytope, sense=sense, anchor=zero, run_certification=False)
    assert vector.polytope is entry.default_polytope
    for p in working_points(entry):
        vector.field.eval(p)
        assert seen[-1] is p


@pytest.mark.parametrize("sense", ["convex", "concave"])
def test_working_gradient_accepts_a_list_returning_grad(sense):
    # the concave working field negated the list: "bad operand type for unary -: 'list'"
    entry = rx.reliability()
    field = rx.ScalarField(2, entry.field.eval, grad=lambda p: entry.field.grad(p).tolist())
    model = env.build(field, entry.default_polytope, sense=sense, anchor=(0.3, 0.2), run_certification=False)
    p = np.array([0.2, 0.4])
    assert same(model.field.gradient(p), model.sign * entry.field.grad(p + model.anchor), nan_alike=True)


@settings(max_examples=30, deadline=None)  # about 1 example in 3 met the nan before the rule
@given(case=placed_polygons(), data=st.data())
def test_secant_is_never_nan_where_f_is_inf_on_a_facet(case, data):
    # 0 * inf adds 0: an endpoint of weight 0 on the infinite facet made g nan
    _, polytope = case
    k = data.draw(st.integers(0, polytope.n_facets - 1))
    a, b = polytope.matrix[k].tolist(), float(polytope.offsets[k])
    band = 1e-9 * max(1.0, abs(b))

    def f(p):
        x, y = p.tolist()
        return math.inf if a[0] * x + a[1] * y >= b - band else x - 2.0 * y  # +inf on facet k's line

    model = env.build(rx.ScalarField(2, f), polytope, anchor="none", run_certification=False)
    for x in data.draw(st.lists(near_facet(polytope, moves=("on", "ulps")), min_size=8, max_size=8)):
        if outside(env.eval, model, x):
            continue
        assert not math.isnan(env.eval(model, x).value)
        assert not math.isnan(env.secant_raw(model, x))
