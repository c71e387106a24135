"""Per-sample reference loops for the three certification checks.

These are the loop forms the batched checks in ``rayvex.verify`` replaced:
one ray trace, one secant and one field evaluation at a time, the secant
probes the origin-inside homogeneity check no longer makes, and the corollary
check's per-point lambda loop.  Tests run both and require the same
``CheckResult.to_dict()``.  The loops raise on a non-finite field value in P,
so they are only a reference for fields finite there.
"""

import math

import numpy as np
from reference_fields import negate_field

from rayvex import envelope as env
from rayvex.geometry import ray_intersect, sample_interior
from rayvex.verify import _SCALING_FACTORS, CheckResult


def _checked_eval(field, point):
    val = float(field.eval(point))
    if not math.isfinite(val):
        raise ValueError(f"{field.name} is non-finite at {point.tolist()}")
    return val


def ray_concavity(field, polytope, n_rays, n_per_ray, tol, seed):
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


def facet_convexity(field, polytope, n_pairs_per_facet, tol, seed):
    n_collect = max(200, min(2000, 4 * n_pairs_per_facet))
    points = sample_interior(polytope, seed, n_collect)
    buckets = {}
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


def positive_homogeneity(model, n_samples, tol, seed):
    if model.origin_in_P:  # f(0) = 0 decides it exactly; one evaluation
        at_zero = abs(_checked_eval(model.field, np.zeros(model.polytope.dim)))
        status = "pass" if at_zero <= tol else "fail"
        witness = {"v": [0.0] * model.polytope.dim, "field_at_zero": at_zero} if status == "fail" else None
        return CheckResult("positively_homogeneous", status, at_zero, tol, 1, witness)
    return positive_homogeneity_probes(model, n_samples, tol, seed)


def positive_homogeneity_probes(model, n_samples, tol, seed):
    """The sampled check the exact origin-inside criterion replaced.

    With the origin inside: f(0), then g(lambda v) against lambda g(v) for
    three scalings per sampled v, one ``secant_raw`` call each.  Its
    verdict must match the one-evaluation check's.
    """
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
            g_v = env.secant_raw(model, v)
            for lam in _SCALING_FACTORS:
                viol = abs(env.secant_raw(model, lam * v) - lam * g_v) / (1.0 + abs(g_v))
                tested += 1
                if viol > worst:
                    worst = viol
                    witness = {"v": v.tolist(), "lambda": lam}
    else:
        for v in points:
            trace = ray_intersect(polytope, v)
            if trace.degenerate or trace.in_facet is None:
                continue
            lhs = _checked_eval(field, trace.v_minus) / trace.alpha_minus  # a_in.v = 1 / alpha_minus
            rhs = _checked_eval(field, trace.v_plus) / trace.alpha_plus
            viol = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
            tested += 1
            if viol > worst:
                worst = viol
                witness = {"v": v.tolist(), "in_product": lhs, "out_product": rhs}
    status = "pass" if worst <= tol else "fail"
    return CheckResult("positively_homogeneous", status, worst, tol, tested, witness if status == "fail" else None)


def corollary_convexity(field, polytope, sense, tol, seed, n_samples):
    """The corollary check with one lambda * v evaluation at a time.

    Non-finite values at the scaled points are left out, since lambda * v
    may leave the field's domain; facet and global convexity use the loops
    above.
    """
    flip = -1.0 if sense == "concave" else 1.0
    n_hom = min(n_samples, 2000)
    hom_worst = 0.0
    hom_witness = None
    for v in sample_interior(polytope, seed, n_hom):
        f_v = _checked_eval(field, v)
        for lam in _SCALING_FACTORS:
            f_scaled = float(field.eval(lam * v))
            if not math.isfinite(f_scaled):
                continue
            viol = abs(f_scaled - lam * f_v) / (1.0 + abs(f_v))
            if viol > hom_worst:
                hom_worst = viol
                hom_witness = {"v": v.tolist(), "lambda": lam}

    working = negate_field(field) if sense == "concave" else field
    n_pairs = max(10, n_samples // max(1, polytope.n_facets))
    facet = facet_convexity(working, polytope, n_pairs, tol, seed + 1)

    points = sample_interior(polytope, seed + 2, 2 * n_samples)
    global_worst = 0.0
    global_witness = None
    for p, q in zip(points[0::2], points[1::2]):
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
        status, witness = "inapplicable", hom_witness
    elif not facet.passed or global_worst > tol:
        status, witness = "fail", facet.witness if not facet.passed else global_witness
    else:
        status, witness = "pass", None
    worst = max(hom_worst, facet.worst_violation, global_worst)
    samples = n_hom * len(_SCALING_FACTORS) + facet.samples + n_samples
    return CheckResult("corollary_convexity", status, worst, tol, samples, witness, details)
