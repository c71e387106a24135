"""Batched certification checks: the per-point call contract, and non-finite fields
that fail a check instead of crashing it.  ``test_equivalence.py`` holds their
reports to the per-sample loops."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import SENSES, SLAB

import rayvex as rx
from rayvex import envelope as env
from rayvex import verify
from rayvex.cli import main


# -- the per-point call contract --------------------------------------------


class _Calls:
    """Counts field evaluations made directly by a check, and secants it asks for."""

    def __init__(self, monkeypatch):
        self.field = 0
        self.secants = 0
        self._in_secant = False
        secant_raw = env.secant_raw

        def counted_secant(model, v):
            self.secants += 1
            self._in_secant = True
            try:
                return secant_raw(model, v)
            finally:
                self._in_secant = False

        monkeypatch.setattr(env, "secant_raw", counted_secant)

    def wrap(self, model):
        evaluate = model.field.eval

        def counted(p):
            self.field += not self._in_secant
            return evaluate(p)

        return replace(model, field=replace(model.field, eval=counted))


@pytest.mark.parametrize("name", ["bilinear", "reliability", "cubic", "cobb-douglas"])
def test_checks_call_the_field_once_per_point(uncertified_models, name, monkeypatch):
    calls = _Calls(monkeypatch)
    model = calls.wrap(uncertified_models[name])

    result = verify.check_ray_concavity(model.field, model.polytope, n_rays=50, seed=2)
    assert (calls.field, calls.secants) == (3 * result.samples, 0)

    calls.field = 0
    result = verify.check_facet_convexity(model.field, model.polytope, n_pairs_per_facet=40, seed=2)
    assert (calls.field, calls.secants) == (3 * result.samples, 0)

    calls.field = 0
    result = verify.check_positive_homogeneity(model, n_samples=60, seed=2)
    if model.origin_in_P:  # f(0) alone decides it
        assert (calls.field, calls.secants, result.samples) == (1, 0, 1)
    else:  # f(v_minus) and f(v_plus) per sample
        assert (calls.field, calls.secants) == (2 * result.samples, 0)


@pytest.mark.parametrize("name", ["bilinear", "fractional", "reliability", "cubic"])
def test_oracle_build_calls_f_once_per_point_kept_or_skipped(name):
    # the benchmark's compare completeness: finite oracle field calls = oracle points
    entry = rx.CATALOG_BUILDERS[name]()
    field = replace(entry.field)
    model = env.build(
        field, entry.default_polytope, sense=entry.build_sense, anchor=entry.default_anchor, run_certification=False
    )
    results, evaluate = [], field.eval
    object.__setattr__(field, "eval", lambda p: results.append(evaluate(p)) or results[-1])
    oracle = rx.oracle_build(model.field, model.polytope, grid_density=12)
    finite = sum(map(math.isfinite, results))
    assert finite == len(oracle.points) and len(results) - finite == oracle.skipped


@pytest.mark.parametrize("sense", SENSES)
def test_corollary_convexity_calls_f_once_per_sampled_point(sense):
    entry = rx.cobb_douglas()
    calls = []
    field = replace(entry.field, eval=lambda p: calls.append(p) or entry.field.eval(p))
    n_samples = 300
    result = verify.check_corollary_convexity(field, entry.default_polytope, sense=sense, seed=4, n_samples=n_samples)
    n_hom = min(n_samples, 2000)
    facet_samples = result.samples - len(verify._SCALING_FACTORS) * n_hom - n_samples
    # f(v) and its three scalings per homogeneity point, three per facet and per global sample
    assert len(calls) == n_hom * (1 + 3) + 3 * (facet_samples + n_samples)


# -- non-finite fields ------------------------------------------------------

NAN_POLYTOPES = [
    rx.Polytope.box([0.0, 0.0], [1.0, 1.0]),  # origin at a vertex
    rx.Polytope.box([-1.0, -1.0], [1.0, 1.0]),  # origin interior
    rx.Polytope.box([1.0, 1.0], [2.0, 2.0]),  # origin outside
    SLAB,
]


class _Poisoned:
    """-x*y, with a non-finite value on a ball; records where it returned one."""

    def __init__(self, center, radius, bad_value):
        self.center, self.radius, self.bad_value = center, radius, bad_value
        self.hits = []

    def __call__(self, p):
        if np.linalg.norm(p - self.center) <= self.radius:
            self.hits.append(np.array(p, dtype=float))
            return self.bad_value
        return -p[0] * p[1]

    def assert_named(self, result):
        """A check that met a non-finite value fails and names one; one that did not, does not."""
        if self.hits:
            assert result.status == "fail"
            point = np.array(result.witness["non_finite_point"])
            assert np.linalg.norm(point - self.center) <= self.radius
        else:
            assert result.witness is None or "non_finite_point" not in result.witness
        self.hits = []


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, len(NAN_POLYTOPES) - 1),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.floats(1e-3, 0.6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_region_fails_the_checks(which, seed, on_boundary, radius, bad_value):
    poly = NAN_POLYTOPES[which]
    rng = np.random.default_rng(seed)
    verts = rx.vertices(poly)
    if on_boundary:  # the ball is centred on a facet
        k = int(rng.integers(len(verts)))
        center = verts[k] + rng.uniform() * (verts[(k + 1) % len(verts)] - verts[k])
    else:
        center = rng.dirichlet(np.ones(len(verts))) @ verts
    poisoned = _Poisoned(center, radius, bad_value)
    field = rx.ScalarField(2, poisoned, name="poisoned")

    model = env.build(field, poly, anchor="none", budget=500, seed=seed % 100)  # never raises
    poisoned.hits = []
    poisoned.assert_named(verify.check_ray_concavity(field, poly, n_rays=50, seed=1))
    poisoned.assert_named(verify.check_facet_convexity(field, poly, n_pairs_per_facet=50, seed=1))
    poisoned.assert_named(verify.check_positive_homogeneity(model, n_samples=150, seed=1))

    result = verify.check_corollary_convexity(field, poly, n_samples=150, seed=1)
    # non-finite values at scaled points lam * v are skipped: lam * v may leave the domain
    points = rx.sample_interior(poly, 1, 150)
    scaled = {tuple((lam * v).tolist()) for v in points for lam in (0.25, 0.5, 0.75)}
    poisoned.hits = [p for p in poisoned.hits if tuple(p.tolist()) not in scaled]
    poisoned.assert_named(result)


def test_nan_face_fails_certify_with_the_origin_inside():
    # NaN on the x = 1 face: the homogeneity check no longer probes secants
    # of rays that leave there, but the facet check samples that face
    field = rx.ScalarField(2, lambda p: math.nan if p[0] >= 1.0 else -p[0] * p[1], name="nan-face")
    model = env.build(field, rx.Polytope.box([-1.0, -1.0], [1.0, 1.0]), anchor="none", run_certification=False)
    assert model.origin_in_P
    report = verify.certify(model, budget=500)
    assert not report.all_passed
    assert report.positively_homogeneous.passed  # f(0) = 0
    witnesses = [check.witness or {} for check in (report.ray_concave, report.facet_convex)]
    named = [w["non_finite_point"] for w in witnesses if "non_finite_point" in w]
    assert named and all(point[0] >= 1.0 for point in named)


def test_non_finite_corollary_homogeneity_counts_the_samples_before_it():
    # NaN for x > 0.99: sample 89 meets it in the homogeneity phase, no lam * v does
    def fn(p):
        return math.nan if p[0] > 0.99 else p[0] ** 2 + p[1]

    poly = rx.Polytope.box([0.1, 0.1], [1.0, 1.0])
    result = verify.check_corollary_convexity(rx.ScalarField(2, fn, name="nan-strip"), poly, n_samples=300, seed=4)
    points = rx.sample_interior(poly, 4, 300)
    k = int(np.argmax(points[:, 0] > 0.99))
    assert k == 89
    worst = max(
        abs(fn(lam * v) - lam * fn(v)) / (1.0 + abs(fn(v))) for v in points[:k] for lam in (0.25, 0.5, 0.75)
    )
    assert result.status == "fail"
    assert result.witness["non_finite_point"] == points[k].tolist()
    assert result.samples == 3 * k
    assert result.worst_violation == worst


def test_cli_certify_with_infinite_region_fails_cleanly(tmp_path, capsys):
    # the reliability ratio is +inf wherever x + y - x*y <= 0, e.g. for x, y < 0
    poly = tmp_path / "wide.json"
    rx.Polytope.box([-1.0, -1.0], [1.0, 1.0]).save(poly)
    code = main(["certify", "--function", "reliability", "--polytope", str(poly), "--budget", "400"])
    out = capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    data = json.loads(out, parse_constant=reject)
    assert code == 2
    failed = [c for c in data["certification"]["checks"].values() if c["status"] == "fail"]
    assert any("non_finite_point" in (c["witness"] or {}) for c in failed)
