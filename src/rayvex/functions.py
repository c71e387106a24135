"""Scalar fields, finite-difference derivatives, and the example catalog.

The catalog carries the classical test functions for envelope construction
(bilinear, fractional, a network-reliability ratio, a cubic rational with a
known envelope, and a Cobb-Douglas product) together with their published
closed-form envelopes where those exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteEvaluation
from .geometry import Polytope

_FD_STEP = float(np.cbrt(np.finfo(float).eps))  # ~6.1e-6


@dataclass(frozen=True, eq=False)
class ScalarField:
    """An evaluatable function with an optional analytic gradient.

    ``eval`` must be finite at every strictly interior point of the
    intended domain and pure/re-entrant.
    """

    dim: int
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "field"
    domain_note: str = ""

    def __call__(self, x) -> float:
        return float(self.eval(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return fd_gradient(self, x)


def fd_gradient(field: ScalarField, x) -> np.ndarray:
    """Central-difference gradient with step cbrt(eps) * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        step = _FD_STEP * max(1.0, abs(x[i]))
        probe = np.zeros(x.size)
        probe[i] = step
        hi = field.eval(x + probe)
        lo = field.eval(x - probe)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteEvaluation(
                f"{field.name}: non-finite probe near {x.tolist()} (coordinate {i})"
            )
        out[i] = (hi - lo) / (2.0 * step)
    return out


def shift_field(field: ScalarField, anchor) -> ScalarField:
    """The recentred field f(x + anchor) - f(anchor), which vanishes at 0."""
    anchor = np.asarray(anchor, dtype=float)
    base = float(field.eval(anchor))
    grad = None
    if field.grad is not None:
        grad = lambda p: field.grad(p + anchor)  # noqa: E731
    return ScalarField(
        dim=field.dim,
        eval=lambda p: field.eval(p + anchor) - base,
        grad=grad,
        name=f"{field.name}[shifted]",
        domain_note=field.domain_note,
    )


def negate_field(field: ScalarField) -> ScalarField:
    grad = None
    if field.grad is not None:
        grad = lambda p: -field.grad(p)  # noqa: E731
    return ScalarField(
        dim=field.dim,
        eval=lambda p: -field.eval(p),
        grad=grad,
        name=f"-{field.name}",
        domain_note=field.domain_note,
    )


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A catalog function with its default domain and published envelope."""

    name: str
    field: ScalarField
    default_polytope: Polytope
    expected_envelope: ScalarField | None
    envelope_sense: str  # "convex-envelope" | "concave-envelope"
    default_anchor: object  # "none" | "origin-shift" | translation vector
    params: dict

    @property
    def build_sense(self) -> str:
        return "concave" if self.envelope_sense == "concave-envelope" else "convex"


def bilinear_neg(lx: float = 0.0, ly: float = 0.0, ux: float = 1.0, uy: float = 1.0) -> CatalogEntry:
    """f(x, y) = -x*y over a box; its convex envelope is the McCormick pair."""
    if not (lx < ux and ly < uy):
        raise ValueError("bilinear box needs lx < ux and ly < uy")

    field = ScalarField(
        2,
        lambda p: -p[0] * p[1],
        grad=lambda p: np.array([-p[1], -p[0]]),
        name="bilinear_neg",
        domain_note="all of R^2",
    )

    def env(p):
        x, y = p
        if (y - ly) * (ux - lx) >= (uy - ly) * (x - lx):
            return -uy * x - lx * y + lx * uy
        return -ly * x - ux * y + ly * ux

    expected = ScalarField(2, env, name="mccormick_under", domain_note=f"[{lx},{ux}]x[{ly},{uy}]")
    return CatalogEntry(
        name="bilinear",
        field=field,
        default_polytope=Polytope.box([lx, ly], [ux, uy]),
        expected_envelope=expected,
        envelope_sense="convex-envelope",
        default_anchor=np.array([lx, ly]),
        params={"lx": lx, "ly": ly, "ux": ux, "uy": uy},
    )


def fractional() -> CatalogEntry:
    """f(x, y) = y/x over a fixed trapezoid-like polytope with x >= 1."""
    field = ScalarField(
        2,
        lambda p: p[1] / p[0],
        grad=lambda p: np.array([-p[1] / p[0] ** 2, 1.0 / p[0]]),
        name="fractional",
        domain_note="x > 0",
    )
    poly = Polytope.from_inequalities(
        [[-1.0, 2.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [2.0, 2.0, -1.0, 2.0, 0.0],
        labels=["-x+2y<=2", "x<=2", "x>=1", "y<=2", "y>=0"],
    )

    def env(p):
        x, y = p
        if y >= 2.0 * (x - 1.0):
            den = 2.0 * (x + y - 1.0)
            if den <= 1e-12:  # both branches meet at (1, 0) with value 0
                return 0.5 * y
            return y * (1.0 - x + 2.0 * y) / den
        return 0.5 * y

    expected = ScalarField(2, env, name="fractional_under", domain_note="the default polytope")
    return CatalogEntry(
        name="fractional",
        field=field,
        default_polytope=poly,
        expected_envelope=expected,
        envelope_sense="convex-envelope",
        default_anchor=np.array([1.0, 0.0]),
        params={},
    )


def reliability(ux: float = 1.0, uy: float = 1.0) -> CatalogEntry:
    """f(x, y) = x*y / (x + y - x*y), the series reliability of two components.

    Concave-envelope sense; the two-branch closed form switches across the
    ray y = (uy/ux) x.  Intended for 0 < ux, uy <= 1.
    """
    if ux <= 0 or uy <= 0:
        raise ValueError("reliability box needs positive upper bounds")

    def f(p):
        x, y = p
        den = x + y - x * y
        if den <= 0.0:
            return 0.0 if (x == 0.0 and y == 0.0) else math.inf
        return x * y / den

    def grad(p):
        x, y = p
        den = x + y - x * y
        return np.array([y * y / den**2, x * x / den**2])

    field = ScalarField(2, f, grad=grad, name="reliability", domain_note="x + y - x*y > 0, plus the origin")

    def env(p):
        x, y = p
        if x == 0.0 and y == 0.0:
            return 0.0
        if y * ux >= x * uy:
            return x * y / (x + y - x * uy)
        return x * y / (x + y - ux * y)

    expected = ScalarField(2, env, name="reliability_over", domain_note=f"[0,{ux}]x[0,{uy}]")
    return CatalogEntry(
        name="reliability",
        field=field,
        default_polytope=Polytope.box([0.0, 0.0], [ux, uy]),
        expected_envelope=expected,
        envelope_sense="concave-envelope",
        default_anchor="origin-shift",
        params={"ux": ux, "uy": uy},
    )


def cubic_rational() -> CatalogEntry:
    """A degree-5 rational function on {x, y >= 0, 1 <= x+y <= 2} with envelope y^2/x.

    Facet restrictions simplify to f(x, 0) = 0, f(x, 1-x) = (x-1)^2/x and
    f(x, 2-x) = (x-2)^2/x.  The function blows up like y^2/x on the facet
    x = 0, so evaluation there returns inf (the closure limit).
    """

    def f(p):
        x, y = p
        if x <= 0.0:
            return 0.0 if y == 0.0 else math.inf
        n = (
            y**3
            + 2.0 * x * y**2
            + x**2 * y
            + x**3 * (3.0 * y - y**2 - 2.0)
            - 2.0 * x**4 * y
            + 3.0 * x**4
            - x**5
        )
        return y * n / (x * (x + y) ** 2)

    def grad(p):
        x, y = p
        gx = (
            y
            * (
                -2.0 * x**6
                - 6.0 * x**5 * y
                + 3.0 * x**5
                - 6.0 * x**4 * y**2
                + 9.0 * x**4 * y
                - 2.0 * x**3 * y**3
                + 6.0 * x**3 * y**2
                - 5.0 * x**3 * y
                - 3.0 * x**2 * y**2
                - 3.0 * x * y**3
                - y**4
            )
            / (x**2 * (x + y) ** 3)
        )
        gy = (
            -(x**6)
            - 3.0 * x**5 * y
            + 3.0 * x**5
            - 3.0 * x**4 * y**2
            + 3.0 * x**4 * y
            - 2.0 * x**4
            - x**3 * y**3
            + 4.0 * x**3 * y
            + 6.0 * x**2 * y**2
            + 6.0 * x * y**3
            + 2.0 * y**4
        ) / (x * (x + y) ** 3)
        return np.array([gx, gy])

    field = ScalarField(2, f, grad=grad, name="cubic_rational", domain_note="x > 0 (inf on the x = 0 facet)")
    poly = Polytope.from_inequalities(
        [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 1.0]],
        [0.0, 0.0, -1.0, 2.0],
        labels=["x>=0", "y>=0", "x+y>=1", "x+y<=2"],
    )

    def env(p):
        x, y = p
        if x <= 0.0:
            return 0.0 if y == 0.0 else math.inf
        return y * y / x

    expected = ScalarField(2, env, name="cubic_under", domain_note="x > 0")
    return CatalogEntry(
        name="cubic",
        field=field,
        default_polytope=poly,
        expected_envelope=expected,
        envelope_sense="convex-envelope",
        default_anchor="none",
        params={},
    )


def cobb_douglas(
    scale: float = 1.0,
    a1: float = 1.0 / 3.0,
    a2: float = 1.0 / 3.0,
    a3: float = 1.0 / 3.0,
    lower: float = 1.0,
    upper: float = 2.0,
) -> CatalogEntry:
    """f = scale * x1^a1 * x2^a2 * x3^a3 over a positive box.

    With a1 + a2 + a3 = 1 the function is positively homogeneous; no
    closed-form envelope is stored (the concavity workflow uses it).
    """
    if min(a1, a2, a3) <= 0 or scale <= 0:
        raise ValueError("cobb-douglas needs positive scale and exponents")
    if lower <= 0 or lower >= upper:
        raise ValueError("cobb-douglas box must be positive with lower < upper")
    exps = np.array([a1, a2, a3])

    def f(p):
        return scale * float(np.prod(np.asarray(p) ** exps))

    def grad(p):
        p = np.asarray(p, dtype=float)
        return f(p) * exps / p

    field = ScalarField(3, f, grad=grad, name="cobb_douglas", domain_note="positive orthant")
    return CatalogEntry(
        name="cobb-douglas",
        field=field,
        default_polytope=Polytope.box([lower] * 3, [upper] * 3),
        expected_envelope=None,
        envelope_sense="concave-envelope",
        default_anchor="none",
        params={"scale": scale, "a1": a1, "a2": a2, "a3": a3, "lower": lower, "upper": upper},
    )


CATALOG_BUILDERS: dict[str, Callable[..., CatalogEntry]] = {
    "bilinear": bilinear_neg,
    "fractional": fractional,
    "reliability": reliability,
    "cubic": cubic_rational,
    "cobb-douglas": cobb_douglas,
}


def catalog() -> list[CatalogEntry]:
    """The five reference entries with their default parameters."""
    return [builder() for builder in CATALOG_BUILDERS.values()]
