"""Envelope models: secant construction along rays, simplified homogeneous
forms, and gradients.

A model holds a working field (shifted so it vanishes at the working origin,
and negated for concave sense) over a working polytope.  The secant value

    g(v) = alpha_v * f(v_minus) + (1 - alpha_v) * f(v_plus)

is the convex envelope whenever the certification checks pass; uncertified
models still evaluate g as a plain secant interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    GradientUnavailable,
    InvalidAnchor,
    NonFiniteEvaluation,
    NotCertifiedHomogeneous,
    PointOutsideDomain,
    PointOutsidePolytope,
    ZeroDirection,
)
from .functions import ScalarField, negate_field, shift_field
from .geometry import (
    Polytope,
    RayTrace,
    RegionId,
    ValidationReport,
    locate,
    normalize_facet,
    ray_intersect,
    validate,
)

TIGHT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EnvelopeValue:
    """One envelope evaluation with the ray data that produced it."""

    value: float
    trace: RayTrace | None
    region: RegionId | None
    tight: bool
    f: float  # the original function at x, which ``tight`` compares with


@dataclass(frozen=True, eq=False)
class EnvelopeModel:
    """Secant-envelope model over a working (possibly translated) polytope.

    ``field`` is the working function: the original shifted by ``anchor``,
    minus its anchor value, and negated for concave sense.  Evaluation maps
    x to working coordinates v = x - anchor, applies the secant formula and
    undoes sign and offset.
    """

    field: ScalarField
    polytope: Polytope
    anchor: np.ndarray
    offset: float
    origin_in_P: bool
    sense: str  # "convex" | "concave"
    certification: object | None
    validation: ValidationReport

    @property
    def sign(self) -> float:
        return -1.0 if self.sense == "concave" else 1.0

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
    budget: int = 10_000,
    seed: int = 0,
    run_certification: bool = True,
) -> EnvelopeModel:
    """Assemble a model: validate, apply the anchor policy, certify.

    Anchor policies: "none" keeps f and P as given; "origin-shift" subtracts
    f(0) (requires 0 in P); a vector t translates the domain to P - t and
    recentres f at t.  Construction succeeds even when certification fails;
    the model is then a plain secant interpolant.
    """
    if field.dim != polytope.dim:
        raise DimensionMismatch(f"field is {field.dim}-D, polytope is {polytope.dim}-D")
    validate(polytope)

    if isinstance(anchor, str):
        if anchor == "none":
            t = np.zeros(polytope.dim)
            subtract = False
        elif anchor == "origin-shift":
            t = np.zeros(polytope.dim)
            subtract = True
        else:
            raise InvalidAnchor(f"unknown anchor policy {anchor!r}")
    else:
        t = np.asarray(anchor, dtype=float).reshape(-1)
        if t.size != polytope.dim:
            raise DimensionMismatch("anchor dimension mismatch")
        subtract = True

    if subtract and not polytope.contains(t):
        raise InvalidAnchor(f"anchor {t.tolist()} lies outside the polytope")

    working_poly = polytope.translate(t) if np.any(t != 0.0) else polytope
    working_validation = validate(working_poly)

    offset = float(field.eval(t)) if subtract else 0.0
    working = shift_field(field, t) if subtract else field
    if sense == "concave":
        working = negate_field(working)
    elif sense != "convex":
        raise ValueError(f"sense must be 'convex' or 'concave', got {sense!r}")

    model = EnvelopeModel(
        field=working,
        polytope=working_poly,
        anchor=t,
        offset=offset,
        origin_in_P=working_validation.origin_in_polytope,
        sense=sense,
        certification=None,
        validation=working_validation,
    )
    if run_certification:
        from .verify import certify  # deferred: verify consumes models

        model = replace(model, certification=certify(model, budget=budget, seed=seed))
    return model


def secant_raw(model: EnvelopeModel, v) -> float:
    """The working-coordinate secant g(v), without sign or offset.

    This is the positively homogeneous representation the certification
    checks probe; g(0) is the working field value at the origin.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if not any(v.tolist()):  # np.any(v != 0.0), but cheaper for a few coordinates
        return float(model.field.eval(np.zeros(model.polytope.dim)))
    trace = ray_intersect(model.polytope, v)
    return _secant_from_trace(model.field, trace)


def _secant_from_trace(field: ScalarField, trace: RayTrace) -> float:
    if trace.degenerate:
        return float(field.eval(trace.v))
    lo = float(field.eval(trace.v_minus))
    hi = float(field.eval(trace.v_plus))
    return trace.alpha_v * lo + (1.0 - trace.alpha_v) * hi


def _locate(model: EnvelopeModel, x) -> tuple[np.ndarray, RayTrace | None]:
    """v = x - anchor and its ``geometry.locate`` trace (None at the anchor), or PointOutsideDomain."""
    x = np.asarray(x, dtype=float).reshape(-1)
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
    """Envelope value at x, with the trace, region, tightness flag and f(x)."""
    v, trace = _locate(model, x)
    f_at_x = model.sign * float(model.field.eval(v)) + model.offset
    if trace is None:
        return EnvelopeValue(f_at_x, None, None, True, f_at_x)
    value = model.sign * _secant_from_trace(model.field, trace) + model.offset
    tight = abs(value - f_at_x) <= TIGHT_TOL * max(1.0, abs(f_at_x))
    return EnvelopeValue(value, trace, RegionId(trace.in_facet, trace.out_facet), tight, f_at_x)


def value(model: EnvelopeModel, x) -> float:
    return eval(model, x).value


def original_value(model: EnvelopeModel, x) -> float:
    """The underlying function f at x, reconstructed from the working field."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return model.sign * float(model.field.eval(x - model.anchor)) + model.offset


def eval_homogeneous(model: EnvelopeModel, x) -> float:
    """Envelope via the product form (a_out . v) * f(v_plus).

    Requires the homogeneity check to have passed.  Defined where ``eval``
    is, the anchor aside (ZeroDirection), and agrees with it within 1e-10.
    """
    if not model.homogeneity_certified:
        raise NotCertifiedHomogeneous(f"model status: {model.status}")
    v, trace = _locate(model, x)
    if trace is None:
        raise ZeroDirection("the homogeneous form has no ray at the anchor")
    if trace.degenerate:
        return model.sign * float(model.field.eval(v)) + model.offset
    a_out = normalize_facet(model.polytope, trace.out_facet).a
    raw = float(a_out @ v) * float(model.field.eval(trace.v_plus))
    return model.sign * raw + model.offset


def gradient(model: EnvelopeModel, x) -> np.ndarray:
    """Gradient of the envelope at a region-interior point.

    Differentiates the homogeneous representation g(v) = (a.v) f(v_plus):
    grad g = f(v_plus) a + grad_f(v_plus) - (grad_f(v_plus) . v_plus) a.
    On region boundaries this returns the tie-broken region's gradient,
    which is a valid subgradient.
    """
    if not model.homogeneity_certified:
        raise NotCertifiedHomogeneous(f"model status: {model.status}")
    _, trace = _locate(model, x)
    if trace is None:
        raise GradientUnavailable("gradient is not defined at the anchor")
    a_out = normalize_facet(model.polytope, trace.out_facet).a
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


def model_from_descriptor(descriptor: dict, budget: int = 10_000, seed: int = 0) -> EnvelopeModel:
    """Build a model from the JSON descriptor form.

    {"function": {"name": ..., **params} or "name", "polytope": inline dict,
     file path or null for the catalog default, "sense": ..., "anchor":
     "none" | "origin-shift" | [t...] or null for the catalog default}
    """
    from .functions import CATALOG_BUILDERS  # local: avoid import-order knots

    function = descriptor.get("function")
    if isinstance(function, str):
        name, params = function, {}
    else:
        params = dict(function)
        name = params.pop("name")
    if name not in CATALOG_BUILDERS:
        raise KeyError(f"unknown catalog function {name!r}")
    entry = CATALOG_BUILDERS[name](**params)

    poly_source = descriptor.get("polytope")
    if poly_source is None:
        polytope = entry.default_polytope
    elif isinstance(poly_source, dict):
        polytope = Polytope.from_json_dict(poly_source)
    else:
        polytope = Polytope.load(poly_source)

    sense = descriptor.get("sense") or entry.build_sense
    anchor = descriptor.get("anchor")
    if anchor is None:
        anchor = entry.default_anchor
    return build(entry.field, polytope, sense=sense, anchor=anchor, budget=budget, seed=seed)
