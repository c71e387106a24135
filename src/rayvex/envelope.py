"""Envelope models: secant construction along rays, simplified homogeneous
forms, and gradients.

A model holds a working field (shifted so it vanishes at the working origin,
and negated for concave sense) over a working polytope.  The secant value

    g(v) = alpha_v * f(v_minus) + (1 - alpha_v) * f(v_plus)

is the convex envelope whenever the certification checks pass; uncertified
models still evaluate g as a plain secant interpolant.  An endpoint of
weight 0 adds 0, also where f is infinite there (0 * inf = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    GradientUnavailable,
    InvalidAnchor,
    InvalidInput,
    NonFiniteEvaluation,
    NotCertifiedHomogeneous,
    PointOutsideDomain,
    PointOutsidePolytope,
    ZeroDirection,
)
from .functions import ScalarField, _working_field
from .geometry import (
    Polytope,
    RayTrace,
    RegionId,
    ValidationReport,
    _region_id,
    locate,
    normalize_facet,
    ray_intersect,
    validate,
)
from .verify import DEFAULT_BUDGET, CertificationReport, certify

TIGHT_TOL = 1e-9  # EnvelopeValue.tight, |g - f| <= TIGHT_TOL max(1, |f|): a relative value gap
_SIGNS = {"convex": 1.0, "concave": -1.0}  # the working field's sign per sense


class EnvelopeValue(NamedTuple):
    """One envelope evaluation with the ray data that produced it.

    ``tight`` is whether ``value`` is within ``TIGHT_TOL`` of ``f``, relative
    to max(1, |f|), or equal to it: where f is infinite, g is tight exactly
    when it is the same infinity (on cubic's x = 0 facet both are +inf).

    An immutable named tuple, as ``RayTrace`` is, because ``eval`` builds one
    per call.  Its trace's arrays make ``==`` and ``hash`` unusable, so
    compare results field by field.
    """

    value: float
    trace: RayTrace | None
    region: RegionId | None
    tight: bool
    f: float  # the original function at x, which ``tight`` compares with


@dataclass(frozen=True, eq=False)
class EnvelopeModel:
    """Secant-envelope model over a working (possibly translated) polytope.

    In working coordinates v = x - t, with t = ``anchor``, ``field`` is
    f_w(v) = s * (f(v + t) - f(t)), where f(t) is ``offset`` (0 for the
    anchor policy "none") and s is ``sign`` (-1 for concave sense).  It calls
    f once per evaluation, looking up f's ``eval``/``grad`` at each call, and
    is f itself when there is nothing to shift, subtract or negate.
    Evaluation maps x to v, applies the secant formula and undoes sign and
    offset.
    """

    field: ScalarField
    polytope: Polytope
    anchor: np.ndarray
    offset: float
    sense: str  # "convex" | "concave"
    certification: CertificationReport | None

    @property
    def validation(self) -> ValidationReport:
        return self.polytope._validation  # the working polytope's report, cached by build's validate

    @property
    def origin_in_P(self) -> bool:
        return self.validation.origin_in_polytope

    @property
    def sign(self) -> float:
        return _SIGNS[self.sense]

    @property
    def certified(self) -> bool:
        return self.certification is not None and self.certification.all_passed

    @property
    def status(self) -> str:
        return "certified" if self.certified else "secant interpolant"

    @property
    def homogeneity_certified(self) -> bool:
        return (
            self.certification is not None
            and self.certification.positively_homogeneous.status == "pass"
        )


def build(
    field: ScalarField,
    polytope: Polytope,
    sense: str = "convex",
    anchor="origin-shift",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    run_certification: bool = True,
) -> EnvelopeModel:
    """Assemble a model: apply the anchor policy, validate, certify.

    Anchor policies: "none" keeps f and P as given; "origin-shift" subtracts
    f(0) (requires 0 in P); a vector t translates the domain to P - t and
    recentres f at t.  Only the working domain P - t is validated: its
    offsets are t's margins, so its origin is in it exactly when the anchor
    passed ``contains``.  Construction succeeds even when certification
    fails; the model is then a plain secant interpolant.
    """
    if sense not in _SIGNS:
        raise InvalidInput(f"sense must be 'convex' or 'concave', got {sense!r}")
    if field.dim != polytope.dim:
        raise DimensionMismatch(f"field is {field.dim}-D, polytope is {polytope.dim}-D")

    if isinstance(anchor, str):
        if anchor not in ("none", "origin-shift"):
            raise InvalidAnchor(f"unknown anchor policy {anchor!r}")
        t = np.zeros(polytope.dim)
        subtract = anchor == "origin-shift"
    else:
        t = np.asarray(anchor, dtype=float).reshape(-1)
        if t.size != polytope.dim:
            raise DimensionMismatch("anchor dimension mismatch")
        subtract = True

    if subtract and not polytope.contains(t):
        raise InvalidAnchor(f"anchor {t.tolist()} lies outside the polytope")

    shift = t if t.any() else None
    working_poly = polytope if shift is None else polytope.translate(t)
    validate(working_poly)

    offset = float(field.eval(t)) if subtract else 0.0
    model = EnvelopeModel(
        field=_working_field(field, shift, offset, _SIGNS[sense]),
        polytope=working_poly,
        anchor=t,
        offset=offset,
        sense=sense,
        certification=None,
    )
    if run_certification:
        model = replace(model, certification=certify(model, budget=budget, seed=seed))
    return model


def secant_raw(model: EnvelopeModel, v) -> float:
    """The working-coordinate secant g(v), without sign or offset.

    This is the representation whose positive homogeneity certification
    decides; g(0) is the working field value at the origin.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)  # converted once: ray_intersect's own conversion is then a no-op
    if not any(v.tolist()):  # np.any(v != 0.0), but cheaper for a few coordinates
        return float(model.field.eval(np.zeros(model.polytope.dim)))
    trace = ray_intersect(model.polytope, v)
    return _secant_from_trace(model.field, trace)


def _secant_from_trace(field: ScalarField, trace: RayTrace) -> float:
    """alpha_v f(v_minus) + (1 - alpha_v) f(v_plus), where an endpoint of weight 0 adds 0 even if its f is infinite."""
    if trace.degenerate:
        return float(field.eval(trace.v))
    lo = float(field.eval(trace.v_minus))
    hi = float(field.eval(trace.v_plus))
    w = trace.alpha_v
    return (0.0 if w == 0.0 and math.isinf(lo) else w * lo) + (0.0 if w == 1.0 and math.isinf(hi) else (1.0 - w) * hi)


def _locate(model: EnvelopeModel, x) -> tuple[np.ndarray, RayTrace | None]:
    """v = x - anchor and its ``geometry.locate`` trace (None at the anchor), or PointOutsideDomain.

    An x of another dimension than the model's raises DimensionMismatch.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        x = x.reshape(-1)
    if x.size != model.anchor.size:
        raise DimensionMismatch(f"point dimension {x.size} != {model.anchor.size}")
    v = x - model.anchor
    try:
        if any(v.tolist()):  # np.any(v != 0.0), but cheaper for a few coordinates
            return v, locate(model.polytope, v)
        if model.origin_in_P:
            return v, None
    except PointOutsidePolytope as exc:
        raise PointOutsideDomain(f"{x.tolist()} is outside the model domain") from exc
    raise PointOutsideDomain(f"{x.tolist()} is outside the model domain")


def eval(model: EnvelopeModel, x) -> EnvelopeValue:  # noqa: A001 - deliberate builtin shadow
    """Envelope value at x, with the trace, region, tightness flag and f(x).

    Three field calls on a ray through P (f(x), f(v_minus), f(v_plus)), one
    on a degenerate ray and at the anchor, where g is f(x).
    """
    v, trace = _locate(model, x)
    sign = model.sign
    f_at_x = sign * float(model.field.eval(v)) + model.offset
    if trace is None:
        return EnvelopeValue(f_at_x, None, None, True, f_at_x)
    value = f_at_x if trace.degenerate else sign * _secant_from_trace(model.field, trace) + model.offset
    tight = abs(value - f_at_x) <= TIGHT_TOL * max(1.0, abs(f_at_x)) or value == f_at_x
    return EnvelopeValue(value, trace, _region_id(trace.in_facet, trace.out_facet), tight, f_at_x)


def value(model: EnvelopeModel, x) -> float:
    """``eval(model, x).value``, bit for bit, without f(x), ``tight`` or the region.

    Two field calls on a ray through P (f(v_minus), f(v_plus)), one on a
    degenerate ray and at the anchor.
    """
    v, trace = _locate(model, x)
    raw = float(model.field.eval(v)) if trace is None else _secant_from_trace(model.field, trace)
    return model.sign * raw + model.offset


def eval_homogeneous(model: EnvelopeModel, x) -> float:
    """Envelope via the product form (a_out . v) * f(v_plus).

    Requires the homogeneity check to have passed.  Defined where ``eval``
    is, the anchor aside (ZeroDirection), and agrees with it within 1e-10.
    One field call, f(v_plus), or f(x) on a degenerate ray.
    """
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


def gradient(model: EnvelopeModel, x) -> np.ndarray:
    """Gradient of the envelope at a region-interior point.

    Differentiates the homogeneous representation g(v) = (a.v) f(v_plus):
    grad g = f(v_plus) a + grad_f(v_plus) - (grad_f(v_plus) . v_plus) a.
    On region boundaries this returns the tie-broken region's gradient,
    which is a valid subgradient.  One field call and one ``grad`` call, both
    at v_plus.
    """
    if not model.homogeneity_certified:
        raise NotCertifiedHomogeneous(f"model status: {model.status}")
    _, trace = _locate(model, x)
    if trace is None:
        raise GradientUnavailable("gradient is not defined at the anchor")
    a_out = normalize_facet(model.polytope, trace.out_facet)
    v_plus = trace.v_plus
    try:
        f_plus = float(model.field.eval(v_plus))
        grad_plus = model.field.gradient(v_plus) if math.isfinite(f_plus) else None
    except NonFiniteEvaluation as exc:
        raise GradientUnavailable(str(exc)) from exc
    grad_list = None if grad_plus is None else grad_plus.tolist()
    if grad_list is None or not all(map(math.isfinite, grad_list)):
        raise GradientUnavailable(f"non-finite boundary data at {v_plus.tolist()}")

    # per coordinate, the float operations of sign * (f_plus a + grad_plus - (grad_plus . v_plus) a) on arrays
    slope = float(grad_plus @ v_plus)
    sign = model.sign
    return np.array([sign * (f_plus * a + g - slope * a) for a, g in zip(a_out.tolist(), grad_list)])

