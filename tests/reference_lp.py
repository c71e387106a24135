"""Reference for ``rayvex.simplex.solve_lp``'s preamble and read: the forms the set's own arrays and the float read replaced.

``solve_lp`` here converts and checks c, A and b on every call and compares
c and A with the set's, tries every entry's lowest basic value in a Python
loop to find the entries that may cover b, and reads an optimum
(``solution``) with numpy reductions over the basic values and a snap over
the whole of x.  A walk offers the set every basis it passes through, in
order, before its answer is read.  Everything else -- the cold solve, the
dual walk, the entries and their certificates -- is the library's own, so
on every LP the library accepts the two give the same status, x, objective,
pivots and basis, bit for bit.
"""

import numpy as np

from rayvex import simplex
from rayvex.errors import DimensionMismatch, InvalidInput, NumericalBreakdown
from rayvex.simplex import FEAS_TOL, PIVOT_TOL, CertifiedBases, LPResult


def solve_lp(objective, eq_matrix, eq_rhs, start=None):
    if start is not None and not isinstance(start, CertifiedBases):
        raise InvalidInput(f"start must be None or a CertifiedBases, got {type(start).__name__}")
    c = np.asarray(objective, dtype=float).reshape(-1)
    a = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
    b = np.asarray(eq_rhs, dtype=float).reshape(-1)
    if a.shape != (b.size, c.size):
        raise DimensionMismatch(f"inconsistent LP shapes: A{a.shape}, b({b.size},), c({c.size},)")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInput("LP data must be finite: c, A or b holds a NaN or an infinity")
    bases = CertifiedBases(c, a) if start is None else start
    if not (np.array_equal(c, bases.objective) and np.array_equal(a, bases.matrix)):
        raise InvalidInput("start holds the bases of another LP: c or A differs from the set's")
    c, a = bases.objective, bases.matrix
    res = _lookup(bases, c, a, b)
    if res is not None:
        return res
    status, basis, pivots = simplex._two_phase(c, a, b)
    if status != "optimal":
        return LPResult(status, None, None, pivots)
    k = bases._enter(basis)
    if k is None:
        matrix = a[:, list(basis)]
        res = solution(c, basis, matrix, np.linalg.pinv(matrix), b, pivots)
    else:
        res = _read(bases, k, c, b, pivots) or _walk(bases, k, c, a, b, pivots)
    if res is None:
        raise NumericalBreakdown(f"no certified read of the cold solve's basis {basis}")
    return res


def _lookup(bases, c, a, b):
    if not bases.entries:
        return None
    basics = (bases._inverses @ b).reshape(len(bases.entries), b.size)
    lows = basics.min(axis=1)
    for k, low in enumerate(lows.tolist()):
        if low >= -PIVOT_TOL:
            res = _read(bases, k, c, b, 0, basics[k])
            if res is not None:
                return res
    res = _walk(bases, int(lows.argmax()), c, a, b, 0)
    return res if res is not None and res.status == "optimal" else None


def _read(bases, k, c, b, pivots, basics=None):
    m = b.size
    return solution(c, bases.entries[k], bases._matrices[k], bases._inverses[k * m : (k + 1) * m], b, pivots, basics)


def _walk(bases, k, c, a, b, pivots):
    start = bases.entries[k]
    status, path = simplex._dual_simplex(c, a, b, start, bases._inverses[k * b.size : (k + 1) * b.size])
    for basis in path:
        bases._enter(basis)
    if status == "infeasible":
        return LPResult(status, None, None, pivots + len(path))
    j = bases._enter(path[-1] if path else start) if status == "optimal" else None
    return None if j is None else _read(bases, j, c, b, pivots + len(path))


def solution(c, basis, matrix, inverse, b, pivots, basics=None):
    basics = inverse @ b if basics is None else basics
    residual = b - matrix @ basics
    limit = FEAS_TOL * max(1.0, np.abs(b).max(initial=0.0))
    if basics.min(initial=0.0) < -PIVOT_TOL or np.abs(residual).max(initial=0.0) > limit:
        return None
    x = np.zeros(c.size)
    x[list(basis)] = basics + inverse @ residual
    x[np.abs(x) < 1e-15] = 0.0
    objective = float(c @ x)
    return LPResult("optimal", x, objective, pivots, tuple(basis)) if np.isfinite(objective) else None
