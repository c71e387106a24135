"""The scalar point path before its per-call overhead was cut, and the CLI row writer it fed.

``ray_intersect``/``_trace``/``_facet_products``, ``locate``, ``eval``,
``eval_homogeneous`` and ``gradient`` are the bodies that summed facet
products in list comprehensions, built a frozen dataclass per result and a
fresh ``RegionId`` per call, and formed gradients with numpy ufuncs on
n-element arrays.  ``point_rows``/``emit_rows`` are the writer that keyed a
dict per row and formatted each cell through an ``isinstance`` chain.  Tests
hold the lean path to these bit for bit (finite points) and byte for byte
(CLI output).  ``eval`` returns (value, trace, region, tight, f), the fields
of ``rayvex.EnvelopeValue`` in order.  The secant and ``tight`` follow the
library's rules for infinite values: a weight of 0 on an infinite endpoint
value adds 0, and equal values, infinities included, are tight.
"""

import math

import numpy as np

from rayvex import envelope as env
from rayvex.cli import _write, _write_json
from rayvex.errors import (
    GradientUnavailable,
    NonFiniteEvaluation,
    NotCertifiedHomogeneous,
    PointOutsideDomain,
    PointOutsidePolytope,
    RayMissesPolytope,
    RayvexError,
    ZeroDirection,
)
from rayvex.geometry import ALGEBRA_TOL, GEOM_TOL, RayTrace, RegionId, normalize_facet

TIGHT_TOL = 1e-9
FLOAT_FMT = "{:.17g}"


# -- geometry -------------------------------------------------------------------


def _facet_products(rows, coords):
    x = coords[0]
    products = [row[0] * x for row in rows]
    for j in range(1, len(coords)):
        x = coords[j]
        products = [acc + row[j] * x for acc, row in zip(products, rows)]
    return products


def _interval_rules(alpha_lo, alpha_hi):
    gap = alpha_hi - alpha_lo
    slack = ALGEBRA_TOL * alpha_hi
    return (alpha_hi < 0.0) | (gap < -slack), gap <= slack


def _meets(t, alpha, b):
    return abs(t * alpha - b) <= GEOM_TOL


def ray_intersect(polytope, v):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    coords = v.tolist()
    if len(coords) != polytope.dim:
        raise ValueError(f"direction dimension {v.size} != {polytope.dim}")
    if not any(coords):
        raise ZeroDirection("ray direction must be nonzero")
    t = _facet_products(polytope._rows, coords)
    try:
        return _trace(v, t, polytope._offset_list)
    except RayMissesPolytope:
        top = max(map(abs, coords))
        if top >= 1.0:
            raise
    k = 1 - math.frexp(top)[1]
    scaled = [math.ldexp(ti, k) for ti in t]
    return _trace(np.ldexp(v, k), scaled, polytope._offset_list, at=math.ldexp(1.0, -k))._replace(v=v)


def _trace(v, t, b, at=1.0):
    alpha_hi = math.inf
    alpha_lo = 0.0
    hi_arg = -1
    lo_arg = -1
    for i, (ti, bi) in enumerate(zip(t, b)):
        if ti > 0.0:
            ratio = bi / ti
            if ratio < alpha_hi:
                alpha_hi = ratio
                hi_arg = i
        elif ti < 0.0:
            ratio = bi / ti
            if ratio > alpha_lo:
                alpha_lo = ratio
                lo_arg = i
        elif bi < -GEOM_TOL:
            raise RayMissesPolytope("ray is parallel to a violated facet")
    if hi_arg < 0:
        raise RayMissesPolytope("ray never exits (polytope unbounded along it?)")
    empty, degenerate = _interval_rules(alpha_lo, alpha_hi)
    if empty and alpha_hi >= 0.0 and all(
        _meets(ti, alpha_hi, bi) for ti, bi in zip(t, b) if ti < 0.0 and bi / ti > alpha_hi
    ):
        empty, degenerate = False, True  # each entry ratio past alpha_hi overshoots a facet the ray meets there
    if empty:
        raise RayMissesPolytope("empty intersection interval")
    if degenerate:
        alpha_lo = alpha_hi

    out_facet = hi_arg
    in_facet = lo_arg if alpha_lo > 0.0 else None
    for i, (ti, bi) in enumerate(zip(t, b)):
        if i >= out_facet and (in_facet is None or i >= in_facet):
            break
        if i < out_facet and ti > 0.0 and _meets(ti, alpha_hi, bi):
            out_facet = i
        if in_facet is not None and i < in_facet and ti < 0.0 and _meets(ti, alpha_lo, bi):
            in_facet = i

    if degenerate:
        alpha_v = 1.0
    else:
        alpha_v = (alpha_hi - at) / (alpha_hi - alpha_lo)
        alpha_v = min(1.0, max(0.0, alpha_v))

    return RayTrace(v, alpha_lo / at, alpha_hi / at, alpha_lo * v, alpha_hi * v, in_facet, out_facet, alpha_v, degenerate)


def locate(polytope, v):
    try:
        trace = ray_intersect(polytope, v)
    except RayMissesPolytope as exc:
        raise PointOutsidePolytope(f"the ray through {np.ravel(v).tolist()} misses the polytope") from exc
    if trace.alpha_minus > 1.0 + GEOM_TOL or trace.alpha_plus < 1.0 - GEOM_TOL:
        raise PointOutsidePolytope(f"point {trace.v.tolist()} lies outside the polytope")
    return trace


# -- envelope ---------------------------------------------------------------------


def _secant_from_trace(field, trace):
    if trace.degenerate:
        return float(field.eval(trace.v))
    lo = float(field.eval(trace.v_minus))
    hi = float(field.eval(trace.v_plus))
    return _weighted(trace.alpha_v, lo) + _weighted(1.0 - trace.alpha_v, hi)


def _weighted(weight, value):
    return 0.0 if weight == 0.0 and math.isinf(value) else weight * value  # 0 * inf = 0


def _locate(model, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    v = x - model.anchor
    try:
        if any(v.tolist()):
            return v, locate(model.polytope, v)
        if model.origin_in_P:
            return v, None
    except PointOutsidePolytope as exc:
        raise PointOutsideDomain(f"{x.tolist()} is outside the model domain") from exc
    raise PointOutsideDomain(f"{x.tolist()} is outside the model domain")


def eval(model, x):  # noqa: A001 - the name it replaces
    v, trace = _locate(model, x)
    f_at_x = model.sign * float(model.field.eval(v)) + model.offset
    if trace is None:
        return f_at_x, None, None, True, f_at_x
    value = model.sign * _secant_from_trace(model.field, trace) + model.offset
    tight = value == f_at_x or abs(value - f_at_x) <= TIGHT_TOL * max(1.0, abs(f_at_x))
    return value, trace, RegionId(trace.in_facet, trace.out_facet), tight, f_at_x


def eval_homogeneous(model, x):
    if not model.homogeneity_certified:
        raise NotCertifiedHomogeneous(f"model status: {model.status}")
    v, trace = _locate(model, x)
    if trace is None:
        raise ZeroDirection("the homogeneous form has no ray at the anchor")
    if trace.degenerate:
        return model.sign * float(model.field.eval(v)) + model.offset
    a_out = normalize_facet(model.polytope, trace.out_facet)
    raw = float(a_out @ v) * float(model.field.eval(trace.v_plus))
    return model.sign * raw + model.offset


def gradient(model, x):
    if not model.homogeneity_certified:
        raise NotCertifiedHomogeneous(f"model status: {model.status}")
    _, trace = _locate(model, x)
    if trace is None:
        raise GradientUnavailable("gradient is not defined at the anchor")
    a_out = normalize_facet(model.polytope, trace.out_facet)
    v_plus = trace.v_plus
    try:
        f_plus = float(model.field.eval(v_plus))
        grad_plus = model.field.gradient(v_plus) if np.isfinite(f_plus) else None
    except NonFiniteEvaluation as exc:
        raise GradientUnavailable(str(exc)) from exc
    if grad_plus is None or not np.all(np.isfinite(grad_plus)):
        raise GradientUnavailable(f"non-finite boundary data at {v_plus.tolist()}")

    raw = f_plus * a_out + grad_plus - float(grad_plus @ v_plus) * a_out
    return model.sign * raw


# -- cli rows -----------------------------------------------------------------------


def point_rows(model, points):
    rows = []
    omitted = 0
    for x in points:
        try:
            result = env.eval(model, x)
        except RayvexError:
            omitted += 1
            continue
        region = result.region
        rows.append(
            {
                **{f"x{i + 1}": float(x[i]) for i in range(len(x))},
                "f": result.f,
                "g": result.value,
                "tight": result.tight,
                "region_in": None if region is None else region.in_facet,
                "region_out": None if region is None else region.out_facet,
            }
        )
    return rows, omitted


def emit_rows(payload, rows, omitted, args):
    if args.format == "json":
        _write_json({**payload, "rows": rows, "omitted": omitted}, args.out)
        return
    lines = []
    if rows:
        header = list(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            cells = []
            for key in header:
                val = row[key]
                if isinstance(val, bool) or val is None:
                    cells.append("" if val is None else str(int(val)))
                elif isinstance(val, float):
                    cells.append(FLOAT_FMT.format(val))
                else:
                    cells.append(str(val))
            lines.append(",".join(cells))
    lines.append(f"# omitted={omitted}")
    _write("\n".join(lines) + "\n", args.out)
