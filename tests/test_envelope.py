"""Envelope models: secant evaluation, homogeneous forms, gradients, properties."""

from dataclasses import replace

import numpy as np
import pytest

import rayvex as rx
from rayvex import envelope as env
from rayvex.errors import (
    DimensionMismatch,
    GradientUnavailable,
    InvalidAnchor,
    NotCertifiedHomogeneous,
    PointOutsideDomain,
)

BUDGET = 2000  # module-level checks; acceptance runs the full 10^4


@pytest.fixture(scope="module")
def mccormick():
    entry = rx.bilinear_neg(0, 0, 1, 1)
    return entry, env.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, budget=BUDGET)


@pytest.fixture(scope="module")
def cubic():
    entry = rx.cubic_rational()
    return entry, env.build(entry.field, entry.default_polytope, anchor="none", budget=BUDGET)


@pytest.fixture(scope="module")
def reliability_cave():
    entry = rx.reliability(1.0, 1.0)
    return entry, env.build(
        entry.field, entry.default_polytope, sense="concave", anchor="origin-shift", budget=BUDGET
    )


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

    def test_translated_anchor_validates_each_polytope_once(self, monkeypatch):
        lps = []
        solve = rx.geometry.solve_inequality_lp
        monkeypatch.setattr(rx.geometry, "solve_inequality_lp", lambda *a: lps.append(1) or solve(*a))
        entry = rx.bilinear_neg(0.5, -0.25, 2.0, 1.0)
        model = env.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, budget=500)
        assert model.polytope is not entry.default_polytope
        # the given and the working polytope: 2 x (4 bound LPs + the Chebyshev centre)
        assert len(lps) <= 2 * 5

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
        with pytest.raises(NotCertifiedHomogeneous):
            env.eval_homogeneous(model, [0.5, 0.5])


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

    @pytest.mark.parametrize("fixture", ["mccormick", "cubic", "reliability_cave"])
    def test_matches_finite_differences(self, fixture, request):
        entry, model = request.getfixturevalue(fixture)
        checked = 0
        for p in rx.sample_interior(model.polytope, 13, 400):
            x = p + model.anchor
            if not _region_interior(model, p, margin=1e-3):
                continue
            analytic = env.gradient(model, x)
            numeric = central_diff_gradient(lambda z: env.value(model, z), x)
            scale = max(1.0, float(np.linalg.norm(analytic)))
            assert np.linalg.norm(analytic - numeric) <= 1e-6 * scale
            checked += 1
            if checked >= 100:
                break
        assert checked >= 50


def central_diff_gradient(fn, x, h=6e-6):
    """Fourth-order central stencil; truncation ~h^4 keeps the steep cubic honest."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (-fn(x + 2 * e) + 8 * fn(x + e) - 8 * fn(x - e) + fn(x - 2 * e)) / (12 * h)
    return out


def _region_interior(model, v, margin):
    """True when all +-margin probes stay in the polytope and the same region."""
    base = rx.region_of(model.polytope, v)
    for i in range(v.size):
        for sign in (-1.0, 1.0):
            probe = v.copy()
            probe[i] += sign * margin
            if not model.polytope.contains(probe, tol=-1e-12):
                return False
            if rx.region_of(model.polytope, probe) != base:
                return False
    return True


class TestConvexityProperties:
    @pytest.mark.parametrize("fixture", ["mccormick", "cubic", "reliability_cave"])
    def test_midpoint_convexity(self, fixture, request):
        entry, model = request.getfixturevalue(fixture)
        flip = model.sign
        pts = rx.sample_interior(model.polytope, 17, 1000)
        for k in range(0, 1000, 2):
            a, b = pts[k] + model.anchor, pts[k + 1] + model.anchor
            mid = 0.5 * (a + b)
            viol = flip * (env.value(model, mid) - 0.5 * (env.value(model, a) + env.value(model, b)))
            assert viol <= 1e-9

    @pytest.mark.parametrize("fixture", ["mccormick", "cubic", "reliability_cave"])
    def test_underestimation(self, fixture, request):
        entry, model = request.getfixturevalue(fixture)
        flip = model.sign
        for p in rx.sample_interior(model.polytope, 19, 1000):
            x = p + model.anchor
            viol = flip * (env.value(model, x) - env.original_value(model, x))
            assert viol <= 1e-12

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
            if not _region_interior(model, v, margin=1e-4):
                continue
            w = pts[k + 1]
            x_v, x_w = v + model.anchor, w + model.anchor
            grad = env.gradient(model, x_v)
            gap = flip * (env.value(model, x_w) - env.value(model, x_v) - grad @ (x_w - x_v))
            assert gap >= -1e-8
            tested += 1
        assert tested >= 50


def test_model_from_descriptor_round_trip(tmp_path):
    descriptor = {
        "function": {"name": "bilinear", "lx": 0.0, "ly": 0.0, "ux": 1.0, "uy": 1.0},
        "polytope": None,
        "sense": "convex",
        "anchor": [0.0, 0.0],
    }
    model = env.model_from_descriptor(descriptor, budget=500)
    assert model.certified
    assert env.value(model, [0.5, 0.25]) == pytest.approx(-0.25)

    poly_file = tmp_path / "box.json"
    rx.Polytope.box([0, 0], [2, 1]).save(poly_file)
    model = env.model_from_descriptor(
        {"function": "bilinear", "polytope": str(poly_file), "anchor": None},
        budget=500,
    )
    assert model.polytope.n_facets == 4
