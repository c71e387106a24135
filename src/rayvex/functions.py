"""Scalar fields, finite-difference derivatives, the working-field transform, and the example catalog.

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

from .errors import InvalidInput, NonFiniteEvaluation
from .geometry import Polytope

_FD_STEP = float(np.cbrt(np.finfo(float).eps))  # ~6.1e-6


@dataclass(frozen=True, eq=False)
class ScalarField:
    """An evaluatable function with an optional analytic gradient.

    ``eval`` receives one point: the library always passes a 1-D float64
    array, and the catalog fields also accept lists and tuples.  Where the
    library evaluates many points (the certification checks, the oracle), a
    catalog field evaluates the whole batch through its private column form,
    with the bits of its per-point ``eval``; any other ``eval``, a catalog
    field's too once it has been replaced or wrapped, is called once per
    point, in sample order, each with a 1-D float64 row.  It must be
    finite at every strictly interior point of the intended domain and
    pure/re-entrant.  The planar catalog fields compute their values and
    gradients on plain Python floats; where float arithmetic would raise
    (``ZeroDivisionError``, or ``OverflowError`` from ``**``) they return
    numpy's inf or nan for that point instead, without a warning.
    """

    dim: int
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "field"

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


def _working_field(field: ScalarField, shift, base: float, sign: float) -> ScalarField:
    """The field v -> sign * (f(v + shift) - base), which calls f once per evaluation.

    ``shift`` is None for no shift: the add is left out, so a -0.0 coordinate
    reaches f as -0.0.  f's value is read as a float64 before the transform.
    The gradient is sign * grad f(v + shift) as a float array, and there is
    none when f has none.  ``field.eval`` and ``field.grad`` are looked up at
    every call, so replacing them on ``field`` later changes what this field
    calls.  With nothing to shift, subtract or negate, ``field`` itself is
    returned.

    The eval closure also carries the row form ``rows(points)`` of the same
    transform, which ``_eval_rows`` uses: on a (k, n) array it adds ``shift``
    once, evaluates f through ``_eval_rows`` (f's column form, or one
    ``field.eval`` per row, in row order, looked up when the batch runs) and
    applies sign and base once to the (k,) values, with the scalar closure's
    bits.  Both return a NaN as ``math.nan``, since float and numpy
    arithmetic do not give a NaN the same sign.
    """
    if shift is None and sign == 1.0 and base == 0.0 and math.copysign(1.0, base) == 1.0:
        return field  # f - (-0.0) would turn an f of -0.0 into +0.0

    def value(p):
        out = sign * (float(field.eval(p if shift is None else p + shift)) - base)
        return out if out == out else math.nan

    def rows(points):
        values = _eval_rows(field, points if shift is None else points + shift)
        with np.errstate(all="ignore"):  # inf - inf and overflow, silent as in the float arithmetic above
            values = sign * (values - base)
        values[np.isnan(values)] = math.nan
        return values

    def grad(p):
        out = np.asarray(field.grad(p if shift is None else p + shift), dtype=float)
        return -out if sign < 0.0 else out  # sign * out, without numpy's costlier array-times-float

    value._rows = (value, rows)
    return ScalarField(
        dim=field.dim,
        eval=value,
        grad=grad if field.grad is not None else None,
        name=f"{'-' if sign < 0.0 else ''}{field.name}{'' if shift is None else '[shifted]'}",
    )


def _eval_rows(field: ScalarField, points) -> np.ndarray:
    """``field.eval`` at every row of a (k, n) array, as a (k,) float64 array.

    Uses the batch form that the eval callable carries as ``_rows``, an
    ``(owner, form)`` pair: a catalog field's column form (``_on_floats``,
    cobb-douglas), or the row form that ``_working_field`` attaches.  The form
    is used only when its owner is this eval, so a wrapper that copied the
    attributes of the eval it wraps (``functools.wraps``) is not bypassed.
    Any other eval, a user field's or one that replaced or wrapped a catalog
    or working field's, is called once per row, in row order, on 1-D float64
    rows.
    """
    points = np.asarray(points, dtype=float)
    evaluate = field.eval
    owner, rows = getattr(evaluate, "_rows", (None, None))
    if owner is evaluate:
        return rows(points)
    return np.fromiter(map(float, map(evaluate, points)), dtype=float, count=len(points))


_FLOAT_ERRORS = (ZeroDivisionError, OverflowError)  # float arithmetic raises these where numpy returns inf or nan


def _on_numpy_scalars(formula: Callable, coords: list):
    """``formula(*coords)`` on numpy float64 scalars, with numpy's warnings silenced.

    The fallback of the planar catalog's float rule.  Its fields and
    gradients compute ``formula(*coordinates)`` on plain Python floats:
    float ``+ - * /`` give numpy float64's bits, and float ``**`` calls
    libm's pow as numpy's scalar power does.  Where numpy returns inf or nan
    float arithmetic raises one of ``_FLOAT_ERRORS`` (a division by zero, a
    ``**`` that overflows); there they return this result instead.
    """
    with np.errstate(all="ignore"):
        return formula(*map(np.float64, coords))


def _on_floats(formula: Callable[..., float], columns: Callable[..., np.ndarray]) -> Callable[[object], float]:
    """A catalog field computing ``formula(*coordinates)`` on plain floats, by the rule of ``_on_numpy_scalars``.

    ``columns`` is the same formula on coordinate columns, its branches
    written as ``np.where``, and is the field's column form: a (k, n) batch
    through ``_eval_rows`` is ``columns(*points.T)``, one numpy pass with
    numpy's warnings silenced, with the per-point bits.  Both forms return
    a NaN as ``math.nan``: float and numpy arithmetic give a NaN of either
    sign for the same point (bilinear's -x*y at (nan, nan), say).
    """

    def field(p) -> float:
        coords = p.tolist() if isinstance(p, np.ndarray) else [float(c) for c in p]
        try:
            value = formula(*coords)
        except _FLOAT_ERRORS:
            value = float(_on_numpy_scalars(formula, coords))
        return value if value == value else math.nan

    def rows(points):
        with np.errstate(all="ignore"):
            values = columns(*points.T)
        values[np.isnan(values)] = math.nan
        return values

    field._rows = (field, rows)
    return field


def _gradient_on_floats(formula: Callable[..., tuple], value: Callable | None = None) -> Callable[[object], np.ndarray]:
    """A catalog gradient: the partial derivatives ``formula(*coordinates)`` as an array, by the rule of ``_on_numpy_scalars``.

    With ``value``, the formula takes ``value(p)``, computed on the point as
    given, before the coordinates.
    """

    def grad(p) -> np.ndarray:
        coords = p.tolist() if isinstance(p, np.ndarray) else [float(c) for c in p]
        if value is not None:
            coords.insert(0, value(p))
        try:
            return np.array(formula(*coords))
        except _FLOAT_ERRORS:
            return np.array(_on_numpy_scalars(formula, coords))

    return grad


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
    """f(x, y) = -x*y, defined on all of R^2, over a box; its convex envelope there is the McCormick pair."""
    if not (lx < ux and ly < uy):
        raise InvalidInput("bilinear box needs lx < ux and ly < uy")

    def f(x, y):  # floats or columns
        return -x * y

    field = ScalarField(2, _on_floats(f, f), grad=_gradient_on_floats(lambda x, y: (-y, -x)), name="bilinear_neg")

    def env(p):
        x, y = p
        if (y - ly) * (ux - lx) >= (uy - ly) * (x - lx):
            return -uy * x - lx * y + lx * uy
        return -ly * x - ux * y + ly * ux

    expected = ScalarField(2, env, name="mccormick_under")
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
    """f(x, y) = y/x, defined for x > 0, over a fixed trapezoid-like polytope with x >= 1, where its envelope holds."""

    def f(x, y):  # floats or columns
        return y / x

    field = ScalarField(
        2,
        _on_floats(f, f),
        grad=_gradient_on_floats(lambda x, y: (-y / x**2, 1.0 / x)),
        name="fractional",
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

    expected = ScalarField(2, env, name="fractional_under")
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

    Defined where x + y - x*y > 0, plus the origin.  Concave-envelope sense;
    the two-branch closed form, the envelope over [0, ux] x [0, uy], switches
    across the ray y = (uy/ux) x.  Intended for 0 < ux, uy <= 1.
    """
    if ux <= 0 or uy <= 0:
        raise InvalidInput("reliability box needs positive upper bounds")

    def ratio(x, y):  # numerator and denominator, branch-free: floats or columns
        return x * y, x + y - x * y

    def f(x, y):
        num, den = ratio(x, y)
        if den <= 0.0:
            return 0.0 if (x == 0.0 and y == 0.0) else math.inf
        return num / den

    def columns(x, y):
        num, den = ratio(x, y)
        return np.where(den <= 0.0, np.where((x == 0.0) & (y == 0.0), 0.0, np.inf), num / den)

    def grad(x, y):
        den = x + y - x * y
        return y * y / den**2, x * x / den**2

    field = ScalarField(2, _on_floats(f, columns), grad=_gradient_on_floats(grad), name="reliability")

    def env(p):
        x, y = p
        if x == 0.0 and y == 0.0:
            return 0.0
        if y * ux >= x * uy:
            return x * y / (x + y - x * uy)
        return x * y / (x + y - ux * y)

    expected = ScalarField(2, env, name="reliability_over")
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

    def core(x, y):
        # branch-free, on floats or columns; the powers are products because
        # numpy's array ** is not libm's pow, and products give both forms one set of bits
        x2, y2, s = x * x, y * y, x + y
        x4 = x2 * x2
        n = y2 * y + 2.0 * x * y2 + x2 * y + x2 * x * (3.0 * y - y2 - 2.0) - 2.0 * x4 * y + 3.0 * x4 - x4 * x
        return y * n / (x * (s * s))

    def f(x, y):
        if x <= 0.0:
            return 0.0 if y == 0.0 else math.inf
        return core(x, y)

    def columns(x, y):
        return np.where(x <= 0.0, np.where(y == 0.0, 0.0, np.inf), core(x, y))

    def grad(x, y):  # ** as in the numpy-scalar form: floats and numpy scalars both call libm's pow
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
        return gx, gy

    field = ScalarField(2, _on_floats(f, columns), grad=_gradient_on_floats(grad), name="cubic_rational")
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

    expected = ScalarField(2, env, name="cubic_under")
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
    """f = scale * x1^a1 * x2^a2 * x3^a3, defined on the positive orthant, over a positive box.

    With a1 + a2 + a3 = 1 the function is positively homogeneous; no
    closed-form envelope is stored (the concavity workflow uses it).
    """
    if min(a1, a2, a3) <= 0 or scale <= 0:
        raise InvalidInput("cobb-douglas needs positive scale and exponents")
    if lower <= 0 or lower >= upper:
        raise InvalidInput("cobb-douglas box must be positive with lower < upper")
    exps = np.array([a1, a2, a3])
    # per coordinate, the largest value whose power stays below 2**1000
    top1, top2, top3 = (2.0 ** (1000.0 / a) if a > 1.0 else math.inf for a in (a1, a2, a3))

    def f(p):
        # numpy's array power (its bits differ from libm's pow), then the product
        # left to right as np.prod forms it; where numpy could warn (a negative
        # coordinate gives nan, a huge one may overflow) the power runs with its
        # warnings silenced.  A NaN comes back as math.nan: numpy's power gives
        # a NaN of either sign for the same input
        p = np.asarray(p)
        x1, x2, x3 = p.tolist()
        if 0.0 <= x1 <= top1 and 0.0 <= x2 <= top2 and 0.0 <= x3 <= top3:
            q0, q1, q2 = (p**exps).tolist()
        else:
            with np.errstate(all="ignore"):
                q0, q1, q2 = (p**exps).tolist()
        value = scale * (q0 * q1 * q2)
        return value if value == value else math.nan

    def rows(points):
        # the column form: numpy's power gives the same bits on (k, 3) as on (3,), a
        # NaN's sign aside, then the same product, and the same one NaN as f; 0 * inf,
        # nan and overflow stay silent
        with np.errstate(all="ignore"):
            q = points**exps
            values = scale * (q[:, 0] * q[:, 1] * q[:, 2])
        values[np.isnan(values)] = math.nan
        return values

    f._rows = (f, rows)
    # the partials f * a_i / x_i, with f on the point as given: numpy's power, as above
    grad = _gradient_on_floats(lambda v, x1, x2, x3: (v * a1 / x1, v * a2 / x2, v * a3 / x3), value=f)
    field = ScalarField(3, f, grad=grad, name="cobb_douglas")
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
