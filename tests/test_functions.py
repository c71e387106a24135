"""Scalar fields: finite differences, the catalog, and published closed forms."""

import math
import warnings

import numpy as np
import pytest
from strategies import bits

import rayvex as rx
from rayvex import envelope as env
from rayvex.errors import NonFiniteEvaluation
from rayvex.functions import _eval_rows, fd_gradient


class TestFdGradient:
    def test_bilinear(self):
        field = rx.ScalarField(2, lambda p: -p[0] * p[1])
        grad = fd_gradient(field, [0.5, 0.25])
        assert np.allclose(grad, [-0.25, -0.5], atol=1e-8)

    def test_quotient(self):
        field = rx.ScalarField(2, lambda p: p[1] / p[0])
        grad = fd_gradient(field, [1.0, 2.0])
        assert np.allclose(grad, [-2.0, 1.0], rtol=1e-6)

    def test_non_finite_probe(self):
        field = rx.ScalarField(1, lambda p: float(np.log(p[0])) if p[0] > 0 else -np.inf)
        with pytest.raises(NonFiniteEvaluation):
            fd_gradient(field, [1e-9])  # probe below zero


def _shifted(field, polytope, anchor) -> env.EnvelopeModel:
    """A model whose working field is f(p + anchor) - f(anchor), from build: the one shifting path."""
    return env.build(field, polytope, anchor=np.asarray(anchor, dtype=float), run_certification=False)


class TestShiftField:
    def test_round_trip_within_1e12(self):
        # shift(shift(f, a), -a) = f - f(0), so adding f(0) back restores f
        field = rx.ScalarField(2, lambda p: -p[0] * p[1] + 1.0)
        anchor = np.array([0.4, 0.3])
        there = _shifted(field, rx.Polytope.box([-1.0, -1.0], [1.0, 1.0]), anchor)
        back = _shifted(there.field, there.polytope, -anchor).field  # -anchor is the origin of P
        offset = field.eval(np.zeros(2))
        rng = np.random.default_rng(5)
        for p in rng.uniform(-1.0, 1.0, size=(50, 2)):
            assert back.eval(p) + offset == pytest.approx(field.eval(p), abs=1e-12)


class TestCatalog:
    def test_all_five_entries(self):
        names = [entry.name for entry in rx.catalog()]
        assert names == ["bilinear", "fractional", "reliability", "cubic", "cobb-douglas"]

    def test_mccormick_branch_value(self):
        entry = rx.bilinear_neg(0, 0, 1, 1)
        assert entry.expected_envelope(np.array([0.5, 0.25])) == pytest.approx(-0.25)

    def test_fractional_closed_form_value(self):
        # independent hand derivation at (1.2, 1.0): working point (0.2, 1.0),
        # out-hyperplane (-1/3)x + (2/3)y = 1 gives 0.6 * fhat(1/3, 5/3) = 0.75
        entry = rx.fractional()
        assert entry.expected_envelope(np.array([1.2, 1.0])) == pytest.approx(0.75, abs=1e-12)
        assert entry.expected_envelope(np.array([1.8, 0.4])) == pytest.approx(0.2, abs=1e-12)

    def test_reliability_closed_form_value(self):
        entry = rx.reliability(1.0, 1.0)
        assert entry.expected_envelope(np.array([0.5, 0.5])) == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["bilinear", "fractional", "reliability", "cubic"])
    def test_envelope_sense_inequality_sampled(self, name):
        entry = next(e for e in rx.catalog() if e.name == name)
        flip = -1.0 if entry.envelope_sense == "concave-envelope" else 1.0
        pts = rx.sample_interior(entry.default_polytope, 0, 10_000)
        worst = max(
            flip * (entry.expected_envelope(p) - entry.field(p)) for p in pts
        )
        assert worst <= 1e-9

    @pytest.mark.parametrize("name", ["bilinear", "fractional", "reliability", "cubic"])
    def test_envelope_tight_at_vertices(self, name):
        entry = next(e for e in rx.catalog() if e.name == name)
        for v in rx.vertices(entry.default_polytope):
            f_v = entry.field(v)
            e_v = entry.expected_envelope(v)
            if math.isfinite(f_v):
                assert e_v == pytest.approx(f_v, abs=1e-9)
            else:
                assert not math.isfinite(e_v)  # both blow up on the x = 0 facet

    @pytest.mark.parametrize("name", ["bilinear", "fractional", "reliability", "cubic", "cobb-douglas"])
    def test_analytic_gradient_matches_fd(self, name):
        entry = next(e for e in rx.catalog() if e.name == name)
        pts = rx.sample_interior(entry.default_polytope, 1, 1000)
        for p in pts:
            if entry.name == "cubic" and p[0] < 1e-2:
                continue  # FD truncation error ~h^2/x^2 breaches 1e-6 below x ~ 6e-3
            analytic = entry.field.gradient(p)
            numeric = fd_gradient(entry.field, p)
            scale = max(1.0, float(np.linalg.norm(analytic)))
            assert np.linalg.norm(analytic - numeric) <= 1e-6 * scale

    def test_branch_agreement_on_switching_lines(self):
        # both branches of each two-piece form agree where they meet
        for x in np.linspace(1.0, 2.0, 41):
            y = 2.0 * (x - 1.0)
            upper = y * (1.0 - x + 2.0 * y) / (2.0 * (x + y - 1.0)) if x > 1 else 0.0
            assert upper == pytest.approx(0.5 * y, abs=1e-9)
        entry = rx.reliability(0.8, 0.6)
        for t in np.linspace(0.05, 1.0, 20):
            p = t * np.array([0.8, 0.6])
            on_ray = entry.expected_envelope(p)
            a = p[0] * p[1] / (p[0] + p[1] - p[0] * 0.6)
            b = p[0] * p[1] / (p[0] + p[1] - 0.8 * p[1])
            assert a == pytest.approx(b, abs=1e-9)
            assert on_ray == pytest.approx(a, abs=1e-12)


class TestCubicFacetIdentities:
    def test_inner_facet(self):
        field = rx.cubic_rational().field
        for x in np.linspace(0.01, 1.0, 100):
            expect = (x - 1.0) ** 2 / x
            assert field(np.array([x, 1.0 - x])) == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_outer_facet(self):
        field = rx.cubic_rational().field
        for x in np.linspace(0.02, 2.0, 100):
            expect = (x - 2.0) ** 2 / x
            assert field(np.array([x, 2.0 - x])) == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_zero_on_horizontal_axis(self):
        field = rx.cubic_rational().field
        for x in np.linspace(1.0, 2.0, 20):
            assert field(np.array([x, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_blows_up_on_vertical_facet(self):
        field = rx.cubic_rational().field
        assert field(np.array([0.0, 1.5])) == math.inf


def test_cobb_douglas_is_positively_homogeneous():
    entry = rx.cobb_douglas(2.0, 0.2, 0.5, 0.3)
    rng = np.random.default_rng(9)
    for p in rng.uniform(0.5, 3.0, size=(100, 3)):
        for lam in (0.25, 0.5, 2.0):
            assert entry.field(lam * p) == pytest.approx(lam * entry.field(p), rel=1e-12)


def test_reliability_rejects_bad_bounds():
    with pytest.raises(ValueError):
        rx.reliability(0.0, 1.0)
    with pytest.raises(ValueError):
        rx.cobb_douglas(a1=-0.1)
    with pytest.raises(ValueError):
        rx.bilinear_neg(1, 0, 1, 1)


NAN_POINTS = [  # catalog field, point where it is nan
    *((field, point) for field in (rx.bilinear_neg().field, rx.reliability().field, rx.cubic_rational().field)
      for point in ((math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan))),
    *((rx.cobb_douglas(*params).field, point)
      for params in ((1.0, 1 / 3, 1 / 3, 1 / 3), (2.5, 0.2, 0.5, 0.3), (1.0, 5.0, 0.5, 0.5))
      for point in ((0.0, -5e-324, math.nan), (math.nan, 1.0, 1.0), (1.0, -1.0, 1.0), (0.0, math.inf, 1.0))),
]


@pytest.mark.parametrize("field, point", NAN_POINTS)
def test_catalog_fields_give_one_nan(field, point):
    # numpy's power returned a NaN of either sign for the same input: at (0, -5e-324, nan) both sign
    # bits over 3,000 calls in one process, and -nan at (1, -1, 1) every time; the planar column forms
    # gave -x*y at (nan, nan) another sign than the float arithmetic
    values = [field.eval(np.array(point)) for _ in range(300)]
    assert {bits(v) for v in values} == {bits(math.nan)}
    assert {bits(v) for v in _eval_rows(field, np.array([point] * 300))} == {bits(math.nan)}  # the column form


def test_cubic_next_to_its_x0_facet_is_inf_without_a_warning():
    # inside P, where the numpy-scalar form overflowed with a RuntimeWarning
    # (an error under this suite's warning filters)
    assert rx.cubic_rational().field.eval(np.array([5e-324, 1.5])) == math.inf


SINGULAR_GRADIENTS = [  # catalog field, a point where its gradient divides by zero, numpy's gradient there
    (rx.reliability().field, [0, 0], [math.nan, math.nan]),
    (rx.fractional().field, [0, 1], [-math.inf, math.inf]),
    (rx.cubic_rational().field, [0, 1], [-math.inf, math.inf]),
    (rx.cobb_douglas().field, [0, 1, 1], [math.nan, 0.0, 0.0]),
]


@pytest.mark.parametrize("field, point, gradient", SINGULAR_GRADIENTS)
def test_catalog_gradients_at_their_singular_points_are_numpys_without_a_warning(field, point, gradient):
    # the numpy-scalar gradients warned "divide by zero" or "invalid value" here, where eval was already silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = field.gradient(point)
        field.eval(np.array(point, dtype=float))
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, gradient)
