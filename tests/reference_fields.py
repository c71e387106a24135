"""The numpy-scalar forms of the catalog fields, their gradients, and the working-field chain.

The catalog fields in ``rayvex.functions`` compute their values and planar
gradients on plain Python floats, cobb-douglas its gradient's quotients, and ``envelope.build`` applies anchor
shift, offset and sign by one private transform, v -> s * (f(v + t) - f(t)).
These are the forms they replaced: each field and gradient unpacks its
point into numpy float64 scalars (the ``*_grad`` functions keep ``**``, as
the float gradients do), and the working
field is ``shift_field`` followed by ``negate_field``, one lambda layer
each.  Tests require the same bits from both, except that ``shift_field``
adds a zero t, which turns a -0.0 coordinate into +0.0.  ``cubic`` forms
its powers as products, as the catalog field does; ``cubic_pow`` keeps the
``**`` form, which libm's pow rounds differently in the last place.
``cobb_douglas_grad`` is the array formula f(p) * exps / p that cobb-douglas's
gradient computed before its quotients moved to floats.
``negate_field`` is also the reference for the concave working field of the
checks, with the bits of the transform at t = 0 and f(t) = 0.  Numpy warns
where these return inf or nan; call them under ``np.errstate(all="ignore")``.
"""

import math

import numpy as np

import rayvex as rx
from rayvex.functions import ScalarField


def bilinear(p):
    return -p[0] * p[1]


def fractional(p):
    return p[1] / p[0]


def reliability(p):
    x, y = p
    den = x + y - x * y
    if den <= 0.0:
        return 0.0 if (x == 0.0 and y == 0.0) else math.inf
    return x * y / den


def cubic(p):
    x, y = p
    if x <= 0.0:
        return 0.0 if y == 0.0 else math.inf
    x2, y2, s = x * x, y * y, x + y
    x4 = x2 * x2
    n = y2 * y + 2.0 * x * y2 + x2 * y + x2 * x * (3.0 * y - y2 - 2.0) - 2.0 * x4 * y + 3.0 * x4 - x4 * x
    return y * n / (x * (s * s))


def cubic_pow(p):
    """``cubic`` with its powers written as ``**``, as the catalog field computed it before."""
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


def bilinear_grad(p):
    return np.array([-p[1], -p[0]])


def fractional_grad(p):
    return np.array([-p[1] / p[0] ** 2, 1.0 / p[0]])


def reliability_grad(p):
    x, y = p
    den = x + y - x * y
    return np.array([y * y / den**2, x * x / den**2])


def cubic_grad(p):
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


def cobb_douglas(scale, a1, a2, a3):
    exps = np.array([a1, a2, a3])
    return lambda p: scale * float(np.prod(np.asarray(p) ** exps))


def cobb_douglas_grad(scale, a1, a2, a3):
    """The array formula, with the catalog field's own f."""
    f, exps = rx.cobb_douglas(scale, a1, a2, a3).field.eval, np.array([a1, a2, a3])

    def grad(p):
        p = np.asarray(p, dtype=float)
        return f(p) * exps / p

    return grad


def shift_field(field: ScalarField, anchor) -> ScalarField:
    anchor = np.asarray(anchor, dtype=float)
    base = float(field.eval(anchor))
    grad = None
    if field.grad is not None:
        grad = lambda p: field.grad(p + anchor)  # noqa: E731
    return ScalarField(field.dim, lambda p: field.eval(p + anchor) - base, grad, f"{field.name}[shifted]")


def negate_field(field: ScalarField) -> ScalarField:
    grad = None
    if field.grad is not None:
        grad = lambda p: -field.grad(p)  # noqa: E731
    return ScalarField(field.dim, lambda p: -field.eval(p), grad, f"-{field.name}")
