"""Batched certification checks: the reports of per-sample loops, the per-point
call contract, and non-finite fields that fail a check instead of crashing it."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import reference_checks as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import SLAB

import rayvex as rx
from rayvex import envelope as env
from rayvex import verify
from rayvex.cli import main

BUDGET = 2000

# a box cut by one halfspace, rows rescaled, moved away from the origin:
# its normalised facet rows give inexact a . v products
_SCALES = np.array([3.0, 0.7, 11.0, 0.13, 9.0])
CUT_FAR = rx.Polytope.from_inequalities(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, -1.3]]) * _SCALES[:, None],
    np.array([1.3, 0.9, 0.7, 1.1, 0.8]) * _SCALES,
).translate([3.0, 3.0])


def _plain_model(fn, polytope, name="anon"):
    field = rx.ScalarField(polytope.dim, fn, name=name)
    return env.build(field, polytope, anchor="none", run_certification=False)


def _assert_same_reports(model, budget, seed):
    """certify's three checks against the per-sample loops, at certify's parameters."""
    report = verify.certify(model, budget=budget, seed=seed)
    field, poly, tol = model.field, model.polytope, report.tolerance
    expected = [
        ref.ray_concavity(field, poly, max(1, budget // 10), 10, tol, seed),
        ref.facet_convexity(field, poly, max(10, budget // poly.n_facets), tol, seed + 1),
        ref.positive_homogeneity(model, budget, tol, seed + 2),
    ]
    got = [report.ray_concave, report.facet_convex, report.positively_homogeneous]
    for result, want in zip(got, expected):
        # json text tells 0.0 from -0.0 and prints every float exactly
        assert json.dumps(result.to_dict()) == json.dumps(want.to_dict()), result.name
    # the 3 x budget secant probes that f(0) replaced for origin-inside models agree
    assert report.positively_homogeneous.status == ref.positive_homogeneity_probes(model, budget, tol, seed + 2).status


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", [entry.name for entry in rx.catalog()])
def test_checks_match_per_sample_loops_on_catalog(uncertified_models, name, seed):
    _assert_same_reports(uncertified_models[name], BUDGET, seed)


@pytest.mark.parametrize(
    "fn, polytope",
    [
        (lambda p: p[0] ** 2 + p[1] ** 2, rx.Polytope.box([0.0, 0.0], [1.0, 1.0])),  # ray-convex: witness
        (lambda p: -(p[0] ** 2) - p[1] ** 3, rx.Polytope.box([0.0, 0.0], [1.0, 1.0])),  # facet-concave
        (lambda p: math.exp(p[0]) - 1.0 + p[1], rx.Polytope.box([-1.0, -0.5], [1.0, 2.0])),  # origin interior
        (lambda p: 1.0 - p[0] * p[1], rx.Polytope.box([-1.0, -1.0], [1.0, 1.0])),  # f(0) = 1
        (lambda p: p[0] ** 2 + p[1], SLAB),  # origin outside, not homogeneous
        (lambda p: p[0] ** 2 + p[1], CUT_FAR),  # origin outside, inexact a . v
        (lambda p: -(p[0] ** 2) + p[1] * p[2], rx.Polytope.box([1.0, 1.0, 1.0], [2.0, 3.0, 2.0])),
    ],
)
def test_checks_match_per_sample_loops_on_failing_fields(fn, polytope):
    model = _plain_model(fn, polytope)
    report = verify.certify(model, budget=600, seed=3)
    assert not report.all_passed  # so the witnesses are compared too
    _assert_same_reports(model, 600, 3)


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


def _inf_left_of(fn, edge):
    """fn, but +inf where x < edge: outside P here, reached only by the scaled points lambda * v."""
    return lambda p: math.inf if p[0] < edge else fn(p)


@pytest.mark.parametrize(
    "field, polytope, sense, status",
    [
        (rx.cobb_douglas().field, rx.cobb_douglas().default_polytope, "concave", "pass"),
        (rx.ScalarField(2, lambda p: p[0] ** 2 + p[1], name="bowl"), rx.Polytope.box([0.1, 0.1], [1.0, 1.0]),
         "convex", "inapplicable"),
        (rx.ScalarField(2, _inf_left_of(lambda p: p[0] ** 2 + p[1], 0.3), name="inf-strip"),
         rx.Polytope.box([0.5, 0.1], [1.0, 1.0]), "convex", "inapplicable"),
        (rx.ScalarField(2, _inf_left_of(lambda p: math.sqrt(p[0] * p[1]), 0.3), name="inf-geomean"),
         rx.Polytope.box([0.5, 0.5], [1.0, 2.0]), "concave", "pass"),
    ],
    ids=["cobb-douglas", "non-homogeneous", "non-finite-scaled", "non-finite-scaled-homogeneous"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_corollary_check_matches_its_per_point_loop(field, polytope, sense, status, seed):
    result = verify.check_corollary_convexity(field, polytope, sense=sense, seed=seed, n_samples=300)
    want = ref.corollary_convexity(field, polytope, sense, verify.DEFAULT_TOL, seed, 300)
    assert result.status == status
    if status == "inapplicable":
        assert set(result.witness) == {"v", "lambda"}
    assert json.dumps(result.to_dict()) == json.dumps(want.to_dict())


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
