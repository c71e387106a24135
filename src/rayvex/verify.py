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

from .errors import InfeasibleLP
from .functions import ScalarField, negate_field
from .geometry import (
    GEOM_TOL,
    Polytope,
    normalize_facet,
    ray_intersect,
    ray_intersect_batch,
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


def _sample_values(fn, points: np.ndarray) -> tuple[np.ndarray, tuple[int, int] | None]:
    """fn at every point of a (samples, per_sample, n) array, one call per point in order.

    Returns the values of the samples before the first one with a
    non-finite value, as a (done, per_sample) array, and the (sample, slot)
    of that value, or None when all are finite.  A non-finite value fails
    the check that asked for it, with that point as the witness.
    """
    per_sample = points.shape[1]
    values = np.fromiter((float(fn(p)) for p in points.reshape(-1, points.shape[2])), dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        sample, slot = divmod(int(bad[0]), per_sample)
        return values[: sample * per_sample].reshape(sample, per_sample), (sample, slot)
    return values.reshape(-1, per_sample), None


def _worst(viol: np.ndarray) -> tuple[float, int | None]:
    """Largest positive violation and the first index holding it, or (0.0, None).

    The result of ``if viol > worst`` over the samples in order from
    worst = 0.0, the aggregation every check uses (NaN never counts).
    """
    positive = np.where(viol > 0.0, viol, 0.0)
    if positive.size:
        i = int(np.argmax(positive))
        if positive[i] > 0.0:
            return float(positive[i]), i
    return 0.0, None


def _row_dots(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a[r] @ v[r] for every row, bit for bit: the stacked matmul takes numpy's 1-D dot per row."""
    return (a[:, None, :] @ v[:, :, None])[:, 0, 0]


def _non_finite(name: str, tol: float, worst: float, tested: int, where: dict, point: np.ndarray) -> CheckResult:
    """A failed check whose witness names the point where the field was not finite."""
    return CheckResult(name, "fail", worst, tol, tested, {**where, "non_finite_point": point.tolist()})


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
    traces = ray_intersect_batch(polytope, points)
    keep = ~traces.degenerate
    rays = points[keep]
    v_minus = traces.v_minus[keep][:, None, :]
    chord = traces.v_plus[keep][:, None, :] - v_minus
    # one draw for all rays reads the generator exactly as one draw per ray did
    params = np.sort(np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=(len(rays), n_per_ray, 2)), axis=2)
    s, u = params[..., :1], params[..., 1:]
    triples = np.stack([v_minus + s * chord, v_minus + u * chord, v_minus + 0.5 * (s + u) * chord], axis=2)
    triples = triples.reshape(-1, 3, polytope.dim)  # per sample: p, q, midpoint

    f, bad = _sample_values(field.eval, triples)
    tested = len(f)
    worst, i = _worst(0.5 * (f[:, 0] + f[:, 1]) - f[:, 2])
    if bad is not None:
        where = {"ray_point": rays[bad[0] // n_per_ray].tolist()}
        return _non_finite("ray_concave", tol, worst, tested, where, triples[bad])
    status = "pass" if worst <= tol else "fail"
    witness = None
    if status == "fail":
        p, q, mid = triples[i]
        witness = {"ray_point": rays[i // n_per_ray].tolist(), "p": p.tolist(), "q": q.tolist(), "midpoint": mid.tolist()}
    return CheckResult("ray_concave", status, worst, tol, tested, witness)


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
    traces = ray_intersect_batch(polytope, points)
    v_minus, v_plus = traces.v_minus, traces.v_plus
    buckets = []  # per facet, its boundary points in sample order
    for facet in range(polytope.n_facets):
        exits = traces.out_facet == facet
        hits = exits | (traces.in_facet == facet)
        buckets.append(np.where(exits[hits, None], v_plus[hits], v_minus[hits]))
    unsampled = [facet for facet, arr in enumerate(buckets) if len(arr) < 2]
    details = {"unsampled_facets": unsampled} if unsampled else None

    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    witness = None
    tested = 0
    for facet, arr in enumerate(buckets):
        if len(arr) < 2:
            continue
        pair_idx = rng.integers(0, len(arr), size=(n_pairs_per_facet, 2))
        p, q = arr[pair_idx[:, 0]], arr[pair_idx[:, 1]]
        triples = np.stack([0.5 * (p + q), p, q], axis=1)
        f, bad = _sample_values(field.eval, triples)
        tested += len(f)
        facet_worst, i = _worst(f[:, 0] - 0.5 * (f[:, 1] + f[:, 2]))
        if facet_worst > worst:
            worst = facet_worst
            mid, p_i, q_i = triples[i]
            witness = {"facet": facet, "p": p_i.tolist(), "q": q_i.tolist(), "midpoint": mid.tolist()}
        if bad is not None:
            return _non_finite("facet_convex", tol, worst, tested, {"facet": facet}, triples[bad])
    status = "pass" if worst <= tol else "fail"
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

    name = "positively_homogeneous"
    polytope = model.polytope
    field = model.field
    n = polytope.dim
    points = sample_interior(polytope, seed, n_samples)
    worst = 0.0
    witness = None

    if model.origin_in_P:
        zero = np.zeros((1, 1, n))
        at_zero, bad = _sample_values(field.eval, zero)
        if bad is not None:
            return _non_finite(name, tol, worst, 0, {"v": [0.0] * n}, zero[bad])
        at_zero = abs(float(at_zero[0, 0]))
        if at_zero > worst:
            worst = at_zero
            witness = {"v": [0.0] * n, "field_at_zero": at_zero}
        # per sample: g(v), then g(lambda v) for each scaling; one secant_raw call each
        lams = np.array(_SCALING_FACTORS)
        probes = np.concatenate([points[:, None, :], lams[:, None] * points[:, None, :]], axis=1)
        g, bad = _sample_values(lambda w: secant_raw(model, w), probes)
        sample_worst, i = _worst((np.abs(g[:, 1:] - lams * g[:, :1]) / (1.0 + np.abs(g[:, :1]))).ravel())
        if sample_worst > worst:
            worst = sample_worst
            witness = {"v": points[i // len(lams)].tolist(), "lambda": _SCALING_FACTORS[i % len(lams)]}
        tested = 1 + len(lams) * len(g)
        if bad is not None:
            sample, slot = bad
            where = {"v": points[sample].tolist(), "lambda": None if slot == 0 else _SCALING_FACTORS[slot - 1]}
            return _non_finite(name, tol, worst, tested, where, _secant_non_finite_point(model, probes[bad]))
    else:
        traces = ray_intersect_batch(polytope, points)
        keep = ~traces.degenerate & (traces.in_facet >= 0)
        rays = points[keep]
        in_facet, out_facet = traces.in_facet[keep], traces.out_facet[keep]
        normals = np.zeros((polytope.n_facets, n))  # looked up once per facet, not per sample
        for facet in np.unique(np.concatenate([in_facet, out_facet])).tolist():
            normals[facet] = normalize_facet(polytope, facet).a
        pairs = np.stack([traces.v_minus[keep], traces.v_plus[keep]], axis=1)
        f, bad = _sample_values(field.eval, pairs)
        tested = len(f)
        lhs = _row_dots(normals[in_facet[:tested]], rays[:tested]) * f[:, 0]
        rhs = _row_dots(normals[out_facet[:tested]], rays[:tested]) * f[:, 1]
        worst, i = _worst(np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs))))
        if i is not None:
            witness = {"v": rays[i].tolist(), "in_product": float(lhs[i]), "out_product": float(rhs[i])}
        if bad is not None:
            return _non_finite(name, tol, worst, tested, {"v": rays[bad[0]].tolist()}, pairs[bad])
    status = "pass" if worst <= tol else "fail"
    return CheckResult(name, status, worst, tol, tested, witness if status == "fail" else None)


def _secant_non_finite_point(model, w: np.ndarray) -> np.ndarray:
    """The field point behind a non-finite secant at w != 0 (w itself if none is found)."""
    trace = ray_intersect(model.polytope, w)
    for point in (trace.v,) if trace.degenerate else (trace.v_minus, trace.v_plus):
        if not math.isfinite(float(model.field.eval(point))):
            return point
    return w


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
    rather than failed; a non-finite f at a sampled point fails it.
    """
    name = "corollary_convexity"
    flip = -1.0 if sense == "concave" else 1.0
    n_hom = min(n_samples, 2000)
    points = sample_interior(polytope, seed, n_hom)
    f_points, bad = _sample_values(field.eval, points[:, None, :])
    hom_worst = 0.0
    hom_witness = None
    for v, f_v in zip(points, f_points[:, 0].tolist()):
        for lam in _SCALING_FACTORS:
            f_scaled = float(field.eval(lam * v))
            if not math.isfinite(f_scaled):
                continue  # scaled point may leave the field's domain
            viol = abs(f_scaled - lam * f_v) / (1.0 + abs(f_v))
            if viol > hom_worst:
                hom_worst = viol
                hom_witness = {"v": v.tolist(), "lambda": lam}
    if bad is not None:
        return _non_finite(name, tol, hom_worst, len(f_points) * len(_SCALING_FACTORS), {}, points[bad[0]])

    working = negate_field(field) if sense == "concave" else field
    facet = check_facet_convexity(
        working, polytope, n_pairs_per_facet=max(10, n_samples // max(1, polytope.n_facets)),
        tol=tol, seed=seed + 1,
    )

    rng_points = sample_interior(polytope, seed + 2, 2 * n_samples)
    p, q = rng_points[0::2], rng_points[1::2]
    triples = np.stack([0.5 * (p + q), p, q], axis=1)
    f, bad = _sample_values(field.eval, triples)
    global_worst, i = _worst(flip * (f[:, 0] - 0.5 * (f[:, 1] + f[:, 2])))
    if bad is not None:
        samples = n_hom * len(_SCALING_FACTORS) + facet.samples + len(f)
        worst = max(hom_worst, facet.worst_violation, global_worst)
        return _non_finite(name, tol, worst, samples, {}, triples[bad])
    global_witness = None
    if i is not None:
        mid, p_i, q_i = triples[i]
        global_witness = {"p": p_i.tolist(), "q": q_i.tolist(), "midpoint": mid.tolist()}

    details = {
        "sense": sense,
        "homogeneity_violation": hom_worst,
        "facet_violation": facet.worst_violation,
        "global_violation": global_worst,
        "unsampled_facets": (facet.details or {}).get("unsampled_facets", []),
    }
    if facet.witness is not None and "non_finite_point" in facet.witness:
        status = "fail"
        witness = facet.witness
    elif hom_worst > tol:
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
    return CheckResult(name, status, worst, tol, samples, witness, details)


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
