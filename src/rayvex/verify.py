"""Numerical certification of the envelope hypotheses and a brute-force oracle.

All checks are sampling-based midpoint (secant) tests with explicit
tolerances and witnesses; they are deterministic given (inputs, seed) and
aggregate violations by maximum with first-sample tie-breaking.  The oracle
realizes the envelope of a finite graph sample as a small dense LP (lower
convex hull evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleLP, NonFiniteEvaluation
from .functions import ScalarField, negate_field
from .geometry import (
    GEOM_TOL,
    Polytope,
    normalize_facet,
    ray_intersect,
    sample_interior,
    vertices,
)
from .simplex import solve_lp

DEFAULT_TOL = 1e-7
DEFAULT_BUDGET = 10_000
_SCALING_FACTORS = (0.25, 0.5, 0.75)


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Outcome of one sampled hypothesis check."""

    name: str
    status: str  # "pass" | "fail" | "inapplicable"
    worst_violation: float
    tolerance: float
    samples: int
    witness: dict | None = None
    details: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "witness": self.witness,
        }
        if self.details is not None:
            out["details"] = self.details
        return out


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Bundle of the three hypothesis checks for one model."""

    ray_concave: CheckResult
    facet_convex: CheckResult
    positively_homogeneous: CheckResult
    sample_counts: dict
    seed: int
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return (
            self.ray_concave.passed
            and self.facet_convex.passed
            and self.positively_homogeneous.passed
        )

    def to_dict(self) -> dict:
        checks = {}
        for check in (self.ray_concave, self.facet_convex, self.positively_homogeneous):
            entry = check.to_dict()
            entry["seed"] = self.seed
            checks[check.name] = entry
        return {
            "all_passed": self.all_passed,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "sample_counts": self.sample_counts,
            "checks": checks,
        }


@dataclass(frozen=True, eq=False)
class SampledOracle:
    """Finite graph sample (all polytope vertices plus a nested lattice)."""

    points: np.ndarray  # (k, n)
    values: np.ndarray  # (k,)
    skipped: int = 0  # closure points where the field was non-finite


def _checked_eval(field: ScalarField, point: np.ndarray) -> float:
    val = float(field.eval(point))
    if not math.isfinite(val):
        raise NonFiniteEvaluation(f"{field.name} is non-finite at {point.tolist()}")
    return val


def check_ray_concavity(
    field: ScalarField,
    polytope: Polytope,
    n_rays: int = 1000,
    n_per_ray: int = 10,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> CheckResult:
    """Midpoint concavity of the field along sampled rays through the origin.

    For each sampled interior direction the segment [v_minus, v_plus] is
    probed with random sub-segment pairs; a positive worst violation of
    f(mid) >= (f(p) + f(q)) / 2 - tol fails the check.
    """
    points = sample_interior(polytope, seed, n_rays)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    witness = None
    tested = 0
    for v in points:
        trace = ray_intersect(polytope, v)
        if trace.degenerate:
            continue
        chord = trace.v_plus - trace.v_minus
        params = np.sort(rng.uniform(0.0, 1.0, size=(n_per_ray, 2)), axis=1)
        for s, u in params:
            p = trace.v_minus + s * chord
            q = trace.v_minus + u * chord
            mid = trace.v_minus + 0.5 * (s + u) * chord
            viol = 0.5 * (_checked_eval(field, p) + _checked_eval(field, q)) - _checked_eval(field, mid)
            tested += 1
            if viol > worst:
                worst = viol
                witness = {"ray_point": v.tolist(), "p": p.tolist(), "q": q.tolist(), "midpoint": mid.tolist()}
    status = "pass" if worst <= tol else "fail"
    return CheckResult("ray_concave", status, worst, tol, tested, witness if status == "fail" else None)


def check_facet_convexity(
    field: ScalarField,
    polytope: Polytope,
    n_pairs_per_facet: int = 500,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> CheckResult:
    """Midpoint convexity of the field on each facet reachable by ray traces.

    Boundary points are collected as the v_plus / v_minus of random ray
    traces, grouped by active facet; facets never hit (those whose cone is
    lower-dimensional, e.g. facets through the origin) are reported in
    details rather than failing the check.
    """
    n_collect = max(200, min(2000, 4 * n_pairs_per_facet))
    points = sample_interior(polytope, seed, n_collect)
    buckets: dict[int, list[np.ndarray]] = {}
    for v in points:
        trace = ray_intersect(polytope, v)
        buckets.setdefault(trace.out_facet, []).append(trace.v_plus)
        if trace.in_facet is not None:
            buckets.setdefault(trace.in_facet, []).append(trace.v_minus)

    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    witness = None
    tested = 0
    unsampled = []
    for facet in range(polytope.n_facets):
        collected = buckets.get(facet, [])
        if len(collected) < 2:
            unsampled.append(facet)
            continue
        arr = np.array(collected)
        pair_idx = rng.integers(0, len(arr), size=(n_pairs_per_facet, 2))
        for i, j in pair_idx:
            p, q = arr[i], arr[j]
            mid = 0.5 * (p + q)
            viol = _checked_eval(field, mid) - 0.5 * (_checked_eval(field, p) + _checked_eval(field, q))
            tested += 1
            if viol > worst:
                worst = viol
                witness = {"facet": int(facet), "p": p.tolist(), "q": q.tolist(), "midpoint": mid.tolist()}
    status = "pass" if worst <= tol else "fail"
    details = {"unsampled_facets": unsampled} if unsampled else None
    return CheckResult("facet_convex", status, worst, tol, tested, witness if status == "fail" else None, details)


def check_positive_homogeneity(
    model,
    n_samples: int = 1000,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> CheckResult:
    """Homogeneity of the secant construction in working coordinates.

    With the origin inside: requires the working field to vanish at 0 and
    spot-checks g(lambda v) = lambda g(v).  Otherwise asserts the two-sided
    product identity (a_in.v) f(v_minus) = (a_out.v) f(v_plus) on samples.
    """
    from .envelope import secant_raw  # local: envelope builds call into here

    polytope = model.polytope
    field = model.field
    points = sample_interior(polytope, seed, n_samples)
    worst = 0.0
    witness = None
    tested = 0

    if model.origin_in_P:
        at_zero = abs(_checked_eval(field, np.zeros(polytope.dim)))
        tested += 1
        if at_zero > worst:
            worst = at_zero
            witness = {"v": [0.0] * polytope.dim, "field_at_zero": at_zero}
        for v in points:
            g_v = secant_raw(model, v)
            for lam in _SCALING_FACTORS:
                viol = abs(secant_raw(model, lam * v) - lam * g_v) / (1.0 + abs(g_v))
                tested += 1
                if viol > worst:
                    worst = viol
                    witness = {"v": v.tolist(), "lambda": lam}
    else:
        for v in points:
            trace = ray_intersect(polytope, v)
            if trace.degenerate or trace.in_facet is None:
                continue
            a_in = normalize_facet(polytope, trace.in_facet).a
            a_out = normalize_facet(polytope, trace.out_facet).a
            lhs = float(a_in @ v) * _checked_eval(field, trace.v_minus)
            rhs = float(a_out @ v) * _checked_eval(field, trace.v_plus)
            viol = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
            tested += 1
            if viol > worst:
                worst = viol
                witness = {"v": v.tolist(), "in_product": lhs, "out_product": rhs}
    status = "pass" if worst <= tol else "fail"
    return CheckResult("positively_homogeneous", status, worst, tol, tested, witness if status == "fail" else None)


def check_corollary_convexity(
    field: ScalarField,
    polytope: Polytope,
    sense: str = "convex",
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    n_samples: int = DEFAULT_BUDGET,
) -> CheckResult:
    """Convexity-from-homogeneity workflow for a field that is its own envelope.

    Verifies f(lambda v) = lambda f(v) directly, then facet convexity
    (concavity for sense="concave"), then global midpoint convexity
    (concavity) of f.  A homogeneity failure makes the check inapplicable
    rather than failed.
    """
    flip = -1.0 if sense == "concave" else 1.0
    n_hom = min(n_samples, 2000)
    points = sample_interior(polytope, seed, n_hom)
    hom_worst = 0.0
    hom_witness = None
    for v in points:
        f_v = _checked_eval(field, v)
        for lam in _SCALING_FACTORS:
            f_scaled = float(field.eval(lam * v))
            if not math.isfinite(f_scaled):
                continue  # scaled point may leave the field's domain
            viol = abs(f_scaled - lam * f_v) / (1.0 + abs(f_v))
            if viol > hom_worst:
                hom_worst = viol
                hom_witness = {"v": v.tolist(), "lambda": lam}

    working = negate_field(field) if sense == "concave" else field
    facet = check_facet_convexity(
        working, polytope, n_pairs_per_facet=max(10, n_samples // max(1, polytope.n_facets)),
        tol=tol, seed=seed + 1,
    )

    rng_points = sample_interior(polytope, seed + 2, 2 * n_samples)
    global_worst = 0.0
    global_witness = None
    for k in range(n_samples):
        p, q = rng_points[2 * k], rng_points[2 * k + 1]
        mid = 0.5 * (p + q)
        viol = flip * (_checked_eval(field, mid) - 0.5 * (_checked_eval(field, p) + _checked_eval(field, q)))
        if viol > global_worst:
            global_worst = viol
            global_witness = {"p": p.tolist(), "q": q.tolist(), "midpoint": mid.tolist()}

    details = {
        "sense": sense,
        "homogeneity_violation": hom_worst,
        "facet_violation": facet.worst_violation,
        "global_violation": global_worst,
        "unsampled_facets": (facet.details or {}).get("unsampled_facets", []),
    }
    if hom_worst > tol:
        status = "inapplicable"
        witness = hom_witness
    elif not facet.passed or global_worst > tol:
        status = "fail"
        witness = facet.witness if not facet.passed else global_witness
    else:
        status = "pass"
        witness = None
    worst = max(hom_worst, facet.worst_violation, global_worst)
    samples = n_hom * len(_SCALING_FACTORS) + facet.samples + n_samples
    return CheckResult("corollary_convexity", status, worst, tol, samples, witness, details)


def certify(model, budget: int = DEFAULT_BUDGET, seed: int = 0, tol: float = DEFAULT_TOL) -> CertificationReport:
    """Run the three hypothesis checks on a model's working field and domain."""
    field = model.field
    polytope = model.polytope
    ray = check_ray_concavity(
        field, polytope, n_rays=max(1, budget // 10), n_per_ray=10, tol=tol, seed=seed
    )
    facet = check_facet_convexity(
        field, polytope,
        n_pairs_per_facet=max(10, budget // max(1, polytope.n_facets)),
        tol=tol, seed=seed + 1,
    )
    homogeneous = check_positive_homogeneity(model, n_samples=budget, tol=tol, seed=seed + 2)
    return CertificationReport(
        ray_concave=ray,
        facet_convex=facet,
        positively_homogeneous=homogeneous,
        sample_counts={
            "ray_concave": ray.samples,
            "facet_convex": facet.samples,
            "positively_homogeneous": homogeneous.samples,
        },
        seed=seed,
        tolerance=tol,
    )


def oracle_build(field: ScalarField, polytope: Polytope, grid_density: int = 10) -> SampledOracle:
    """Sample the field graph at all vertices plus a nested bounding-box lattice.

    ``grid_density`` counts lattice intervals per axis, so doubling the
    density refines the sample set (the monotonicity guarantee relies on
    this).  Density 0 keeps vertices only.  Points where the field is
    non-finite on the closure are skipped and counted.
    """
    verts = vertices(polytope)
    pts = [verts]
    if grid_density >= 1:
        lo = verts.min(axis=0)
        hi = verts.max(axis=0)
        axes = [np.linspace(lo[i], hi[i], grid_density + 1) for i in range(polytope.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, polytope.dim)
        inside = polytope.offsets - mesh @ polytope.matrix.T
        pts.append(mesh[np.min(inside, axis=1) >= -GEOM_TOL])
    combined = np.unique(np.vstack(pts), axis=0)

    keep = []
    values = []
    skipped = 0
    for p in combined:
        val = float(field.eval(p))
        if math.isfinite(val):
            keep.append(p)
            values.append(val)
        else:
            skipped += 1
    return SampledOracle(np.array(keep), np.array(values), skipped)


def oracle_eval(oracle: SampledOracle, x) -> float:
    """Lower convex hull of the sample graph, evaluated at x by a small LP.

    minimize sum(lambda_k f_k) s.t. sum(lambda_k x_k) = x, sum(lambda) = 1,
    lambda >= 0.  Sandwiched between the true envelope and f at sample
    points; refining the sample set never increases the value.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    k = len(oracle.values)
    eq = np.vstack([oracle.points.T, np.ones(k)])
    rhs = np.concatenate([x, [1.0]])
    res = solve_lp(oracle.values, eq, rhs)
    if res.status != "optimal":
        raise InfeasibleLP(f"{x.tolist()} is outside the sampled hull ({res.status})")
    return float(res.objective)
