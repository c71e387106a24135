"""Numerical certification of the envelope hypotheses and a brute-force oracle.

The checks are sampling-based tests with explicit tolerances and
witnesses, except homogeneity with the origin in P, which one evaluation
decides exactly; they are deterministic given (inputs, seed) and aggregate
violations by maximum with first-sample tie-breaking.  The oracle
realizes the envelope of a finite graph sample as a small dense LP (lower
convex hull evaluation).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleLP, InvalidInput
from .functions import ScalarField, _eval_rows, _working_field
from .geometry import (
    Polytope,
    lattice,
    ray_intersect_batch,
    sample_interior,
    vertices,
)
from .simplex import CertifiedBases, solve_lp

DEFAULT_TOL = 1e-7  # a check passes when its worst violation is <= tol: a field value, absolute
DEFAULT_BUDGET = 10_000
MAX_BUDGET = 10**6  # certification samples
MAX_ORACLE_POINTS = 10**5  # oracle lattice points, (grid_density + 1)^dim: the columns of each oracle LP
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
            "sample_counts": {name: entry["samples"] for name, entry in checks.items()},
            "checks": checks,
        }


@dataclass(eq=False)
class SampledOracle:
    """Finite graph sample (all polytope vertices plus a nested lattice).

    Also holds its LP: the (n + 1, k) constraint matrix, stacked once, and
    the ``simplex.CertifiedBases`` of that LP: every optimal basis a query
    has reached, each checked once for optimality as it entered.  They are
    the oracle's whole warm state, and every query starts from them.
    """

    points: np.ndarray  # (k, n)
    values: np.ndarray  # (k,)
    skipped: int = 0  # closure points where the field was non-finite
    constraints: np.ndarray = dataclasses.field(init=False, repr=False)  # the points' coordinates over a row of ones
    bases: CertifiedBases = dataclasses.field(default_factory=CertifiedBases, init=False, repr=False)

    def __post_init__(self):
        self.constraints = np.vstack([self.points.T, np.ones(len(self.values))])


def _sample_values(field: ScalarField, points: np.ndarray) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The field at every point of a (samples, per_sample, n) array, evaluated as one batch.

    The points go through ``functions._eval_rows``: a catalog field's column
    form, or a working field's row form over it, evaluates them in one numpy
    pass; any other eval is called once per point, in order.  A working field
    shifts, subtracts and negates once for all of them.

    Returns the values of the samples before the first one with a
    non-finite value, as a (done, per_sample) array, and the (sample, slot)
    of that value, or None when all are finite.  A non-finite value fails
    the check that asked for it, with that point as the witness.
    """
    per_sample = points.shape[1]
    values = _eval_rows(field, points.reshape(-1, points.shape[2]))
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
    # one draw for all rays reads the generator exactly as one draw per ray did; each pair is put in order
    draws = np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=(len(rays), n_per_ray, 2))
    s, u = np.minimum(draws[..., 0], draws[..., 1]), np.maximum(draws[..., 0], draws[..., 1])
    mid = 0.5 * (s + u)
    # coordinate-major storage, built one coordinate at a time along the sample axes
    stored = np.empty((polytope.dim, len(rays), n_per_ray, 3))
    for j, (lo, hi) in enumerate(zip(traces.v_minus[keep].T, traces.v_plus[keep].T)):
        lo, chord = lo[:, None], (hi - lo)[:, None]
        for slot, scale in enumerate((s, u, mid)):
            stored[j, ..., slot] = lo + scale * chord
    triples = stored.transpose(1, 2, 3, 0).reshape(-1, 3, polytope.dim)  # per sample: p, q, midpoint

    f, bad = _sample_values(field, triples)
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
        f, bad = _sample_values(field, triples)
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
    """Positive homogeneity of the secant construction in working coordinates.

    With the origin in P the check is exact: g is positively homogeneous
    if and only if f(0) = 0, so it evaluates f once, at 0.  Every working
    offset b_i is then >= 0, so every entry ratio b_i / (a_i.v) with
    a_i.v < 0 is <= 0: alpha_minus = 0, v_minus = 0 and
    1 - alpha_v = 1 / alpha_plus, which gives
    g(v) = f(0) + (f(v_plus) - f(0)) / alpha_plus.  The ray through
    lambda v (lambda > 0) has the same v_plus and the exit ratio
    alpha_plus / lambda, hence g(lambda v) - lambda g(v) = (1 - lambda) f(0).
    ``validate`` also puts the origin in P when an offset lies within
    GEOM_TOL below 0, as a rounded anchor on a slanted facet leaves it;
    v_minus is then where the ray meets that facet, |b_i| / |a_i.u| from 0
    along the unit direction u: rounding-size unless the ray runs almost
    along the facet.

    Otherwise samples the two-sided product identity
    (a_in.v) f(v_minus) = (a_out.v) f(v_plus), a real condition on f over
    the facets.  With the facets the ray crosses scaled to read a.x = 1,
    a_in.v = 1 / alpha_minus and a_out.v = 1 / alpha_plus, so the identity
    is read off the trace as f(v_minus) / alpha_minus = f(v_plus) / alpha_plus,
    whichever facet the endpoint tie-break names.  A degenerate ray and one
    that starts inside are skipped.
    """
    name = "positively_homogeneous"
    polytope = model.polytope
    field = model.field
    n = polytope.dim

    if model.origin_in_P:
        zero = np.zeros(n)
        at_zero = float(field.eval(zero))
        if not math.isfinite(at_zero):
            return _non_finite(name, tol, 0.0, 0, {"v": [0.0] * n}, zero)
        worst = abs(at_zero)
        status = "pass" if worst <= tol else "fail"
        witness = {"v": [0.0] * n, "field_at_zero": worst} if status == "fail" else None
        return CheckResult(name, status, worst, tol, 1, witness)

    points = sample_interior(polytope, seed, n_samples)
    traces = ray_intersect_batch(polytope, points)
    keep = ~traces.degenerate & (traces.in_facet >= 0)
    rays = points[keep]
    pairs = np.stack([traces.v_minus[keep], traces.v_plus[keep]], axis=1)
    f, bad = _sample_values(field, pairs)
    tested = len(f)
    lhs = f[:, 0] / traces.alpha_minus[keep][:tested]
    rhs = f[:, 1] / traces.alpha_plus[keep][:tested]
    worst, i = _worst(np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs))))
    witness = None
    if i is not None:
        witness = {"v": rays[i].tolist(), "in_product": float(lhs[i]), "out_product": float(rhs[i])}
    if bad is not None:
        return _non_finite(name, tol, worst, tested, {"v": rays[bad[0]].tolist()}, pairs[bad])
    status = "pass" if worst <= tol else "fail"
    return CheckResult(name, status, worst, tol, tested, witness if status == "fail" else None)


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
    f_points, bad = _sample_values(field, points[:, None, :])
    lams = np.array(_SCALING_FACTORS)
    scaled = lams[:, None] * points[: len(f_points), None, :]  # (k, 3, n): point-major, lambda-minor
    f_scaled = _eval_rows(field, scaled.reshape(-1, polytope.dim)).reshape(len(f_points), len(lams))
    viol = np.abs(f_scaled - lams * f_points) / (1.0 + np.abs(f_points))
    # a scaled point may leave the field's domain: non-finite values there are left out
    hom_worst, i = _worst(np.where(np.isfinite(f_scaled), viol, 0.0).ravel())
    hom_witness = None if i is None else {"v": points[i // len(lams)].tolist(), "lambda": float(lams[i % len(lams)])}
    if bad is not None:
        return _non_finite(name, tol, hom_worst, len(f_points) * len(_SCALING_FACTORS), {}, points[bad[0]])

    working = _working_field(field, None, 0.0, flip)
    facet = check_facet_convexity(
        working, polytope, n_pairs_per_facet=max(10, n_samples // max(1, polytope.n_facets)),
        tol=tol, seed=seed + 1,
    )

    rng_points = sample_interior(polytope, seed + 2, 2 * n_samples)
    p, q = rng_points[0::2], rng_points[1::2]
    triples = np.stack([0.5 * (p + q), p, q], axis=1)
    f, bad = _sample_values(field, triples)
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


def guard_budget(budget: int) -> None:
    """Reject a certification budget below 1, which draws no homogeneity sample, or above ``MAX_BUDGET``."""
    if budget < 1:
        raise InvalidInput(f"certification budget must be at least 1, got {budget}")
    if budget > MAX_BUDGET:
        raise InvalidInput(f"certification budget must be at most {MAX_BUDGET}, got {budget}")


def certify(model, budget: int = DEFAULT_BUDGET, seed: int = 0) -> CertificationReport:
    """Run the three hypothesis checks on a model's working field and domain.

    ``guard_budget`` rejects a budget out of range before anything is drawn.
    """
    guard_budget(budget)
    field = model.field
    polytope = model.polytope
    ray = check_ray_concavity(
        field, polytope, n_rays=max(1, budget // 10), n_per_ray=10, seed=seed
    )
    facet = check_facet_convexity(
        field, polytope,
        n_pairs_per_facet=max(10, budget // max(1, polytope.n_facets)),
        seed=seed + 1,
    )
    homogeneous = check_positive_homogeneity(model, n_samples=budget, seed=seed + 2)
    return CertificationReport(
        ray_concave=ray,
        facet_convex=facet,
        positively_homogeneous=homogeneous,
        seed=seed,
        tolerance=DEFAULT_TOL,
    )


def guard_density(grid_density: int, dim: int) -> None:
    """Reject a negative oracle grid density, or one whose lattice has more than ``MAX_ORACLE_POINTS`` points in dim-D."""
    if grid_density < 0:
        raise InvalidInput(f"grid density must be at least 0, got {grid_density}")
    if (grid_density + 1) ** dim > MAX_ORACLE_POINTS:
        raise InvalidInput(f"grid density {grid_density} gives more than {MAX_ORACLE_POINTS} oracle lattice points in {dim}-D")


def oracle_build(field: ScalarField, polytope: Polytope, grid_density: int = 10) -> SampledOracle:
    """Sample the field graph at all vertices plus a nested bounding-box lattice.

    ``grid_density`` counts lattice intervals per axis, so doubling the
    density refines the sample set (the monotonicity guarantee relies on
    this).  Density 0 keeps vertices only.  ``guard_density`` rejects a
    density out of range before anything is evaluated.  Points where the
    field is non-finite on the closure are skipped and counted.
    """
    guard_density(grid_density, polytope.dim)
    verts = vertices(polytope)
    pts = [verts]
    if grid_density >= 1:
        mesh = lattice(np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1), grid_density + 1)
        pts.append(mesh[polytope.contains(mesh)])
    combined = np.unique(np.vstack(pts), axis=0)
    values = _eval_rows(field, combined)
    finite = np.isfinite(values)
    return SampledOracle(combined[finite], values[finite], int(np.count_nonzero(~finite)))


def oracle_eval(oracle: SampledOracle, x) -> float:
    """Lower convex hull of the sample graph, evaluated at x by a small LP.

    minimize sum(lambda_k f_k) s.t. sum(lambda_k x_k) = x, sum(lambda) = 1,
    lambda >= 0.  Sandwiched between the true envelope and f at sample
    points; refining the sample set never increases the value.

    One ``solve_lp`` per query, started from the oracle's certified bases
    (only the right-hand side (x, 1) changes between queries).  A query
    inside the simplex of a certified basis is answered with no pivot;
    any other runs dual simplex pivots from the nearest certified basis
    (the one whose most negative weight is largest), or solves cold, and
    its optimal basis joins the set.  A value read from one basis may
    differ from another's in the last ulps, so values depend on the query
    order, deterministically.  An x with a NaN or infinite coordinate raises
    InvalidInput.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    rhs = np.concatenate([x, [1.0]])
    res = solve_lp(oracle.values, oracle.constraints, rhs, start=oracle.bases)
    if res.status != "optimal":
        raise InfeasibleLP(f"{x.tolist()} is outside the sampled hull ({res.status})")
    return float(res.objective)
