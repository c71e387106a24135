"""Dense two-phase simplex for small standard-form linear programs.

Solves  minimize c.x  subject to  A x = b, x >= 0.  Pivots are priced by the
most negative reduced cost (Dantzig); after a run of DEGENERATE_RUN pivots
that do not lower the objective, pricing falls back to Bland's
smallest-index rule until the objective drops again, which rules out
cycling.  Every pivot, primal or dual, takes one ratio test (``_ratio_test``).
Sized for desk-scale instances (a handful of equality rows, up to ~10^4
columns); everything is a plain numpy tableau.

Every LP of the library is one family of right-hand sides of one (c, A),
solved through ``solve_lp`` with that family's ``CertifiedBases`` as
``start``: the oracle's queries change (x, 1), and ``geometry.validate``'s
2n + 1 questions about a polytope are the right-hand sides of one LP.  A
set is built with its (c, A), which it checks once and keeps, and answers
that LP only; a solve that passes the set's own arrays checks only its b.
An optimal basis stays dual feasible when only b changes (its reduced
costs do not depend on b; the parametric right-hand side of Bertsimas &
Tsitsiklis, *Introduction to Linear Optimization*, ch. 4-5), so it is
optimal for every b with B^-1 b >= 0.  The set keeps every optimal basis its solves reach,
each inverted and checked for reduced costs once, as it enters.  A
certified basis that covers b answers with no pivot; otherwise dual simplex
pivots run from the stored B^-1 of the nearest entry, the one whose most
negative basic value at b is largest, and the basis they end on enters and
answers in turn.  A walk is never cut short: its answer passes the same
certificate as any other.  Where it reaches no optimum -- an empty set, a
row with no dual ratio, the iteration bound -- the cold two-phase solve
decides the status, and its basis enters and answers like any other.
Every optimum is read in one place, ``_solution``: its basis's B^-1 b,
refined once, never a tableau value.  It may differ from another basis's in
the last ulps, and is deterministic for a fixed sequence of solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NumericalBreakdown

FEAS_TOL = 1e-9  # LP feasibility and optimality: an LP residual or reduced cost, absolute
PIVOT_TOL = 1e-11  # the smallest entry a pivot may take: a tableau entry, absolute
DEGENERATE_RUN = 50  # pivots without a new objective low before Bland pricing takes over


@dataclass(frozen=True, eq=False)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int  # the cold phases, if they ran, plus the dual pivots of the walk that answered
    basis: tuple[int, ...] | None = None  # optimal basic columns, row by row (None unless optimal)


class CertifiedBases:
    """One LP's (c, A) and its optimal bases, kept for solving it under every right-hand side.

    ``CertifiedBases(objective, eq_matrix)`` converts c and A to float
    arrays, checks that their shapes agree and that they are finite, and
    keeps read-only copies as ``objective`` and ``matrix``: the set answers
    that LP only (``solve_lp``).  Only ``solve_lp`` offers it bases: a cold
    solve's and each walk's.  One enters at most once, and only when
    B = A[:, basis] is square (the cold solve may have dropped a redundant
    row), invertible, and its reduced costs c - c_B B^-1 A are all
    >= -FEAS_TOL: B is then optimal for every b with B^-1 b >= 0.  Each
    entry keeps its B and B^-1, and the inverses are stacked by rows into
    one (k*m, m) matrix, so ``solve_lp`` tests every entry against a b with
    one product.  An entry answers at b only through ``_solution``'s cover
    test; with the reduced-cost check as it entered, that is the one
    certificate of every optimum.  ``entries`` lists the bases in the order
    they entered; the set is bounded by the number of distinct optimal bases.
    """

    def __init__(self, objective, eq_matrix):
        self.objective, self.matrix = (v.copy() for v in _checked(objective, eq_matrix))
        self.objective.setflags(write=False)
        self.matrix.setflags(write=False)
        self.entries: list[tuple[int, ...]] = []
        self._keys: dict[frozenset[int], int] = {}  # the column set of each entry -> its index
        self._matrices: list[np.ndarray] = []  # B of each entry
        self._inverses = np.empty((0, 0))  # B^-1 of each entry, stacked by rows

    def _enter(self, basis: tuple[int, ...]) -> int | None:
        """The index of the entry with the columns of ``basis``, added now if new; None if its certificate fails."""
        key = frozenset(basis)
        if key in self._keys:
            return self._keys[key]
        c, a = self.objective, self.matrix
        b_inv = _inverse(a, basis)
        if b_inv is None or (c - (c[list(basis)] @ b_inv) @ a).min(initial=0.0) < -FEAS_TOL:
            return None
        self._keys[key] = len(self.entries)
        self.entries.append(basis)
        self._matrices.append(a[:, list(basis)])
        self._inverses = np.vstack([self._inverses.reshape(-1, len(basis)), b_inv])
        return self._keys[key]

    def _lookup(self, b: np.ndarray) -> LPResult | None:
        """The optimum at b from the entries, or None, for the cold solve, if they give none.

        Every entry's basics B^-1 b come from one product.  The first entry
        whose basics cover b answers; otherwise the entry whose most negative
        basic value is largest, the first on a tie, walks.  A walk that ends
        without an optimum, an infeasible row too, leaves the status to the
        cold solve, so statuses do not depend on ``start`` outside the
        FEAS_TOL band.
        """
        if not self.entries:
            return None
        basics = (self._inverses @ b).reshape(len(self.entries), b.size)
        lows = basics.min(axis=1)
        for k, low in enumerate(lows.tolist()):
            if low >= -PIVOT_TOL:
                res = self._read(k, b, 0, basics[k])
                if res is not None:
                    return res
        res = self._walk(int(lows.argmax()), b, 0)
        return res if res is not None and res.status == "optimal" else None

    def _read(self, k: int, b: np.ndarray, pivots: int, basics=None) -> LPResult | None:
        """Entry k's optimum at b with no pivot (``_solution``), or None unless it covers b."""
        inverse = self._inverses[k * b.size : (k + 1) * b.size]
        return _solution(self.objective, self.entries[k], self._matrices[k], inverse, b, pivots, basics)

    def _walk(self, k: int, b: np.ndarray, pivots: int) -> LPResult | None:
        """The answer at b by dual pivots from entry k, or None: "infeasible" at a row no
        column can take, else the read of the basis the pivots end on, once it enters."""
        basis = list(self.entries[k])
        inverse = self._inverses[k * b.size : (k + 1) * b.size]
        status, steps = _dual_simplex(self.objective, self.matrix, b, basis, inverse)
        if status == "infeasible":
            return LPResult(status, None, None, pivots + steps)
        j = self._enter(tuple(basis)) if status == "optimal" else None
        return None if j is None else self._read(j, b, pivots + steps)


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a refused read or a status, not a warning
def solve_lp(objective, eq_matrix, eq_rhs, start: CertifiedBases | None = None) -> LPResult:
    """Solve min c.x s.t. A x = b, x >= 0: the one LP entry point of the library.

    c, A and b must be finite, and ``start`` is None or the
    ``CertifiedBases`` of the same c and A; anything else raises
    InvalidInput.  With no ``start`` the solve builds a fresh set.  A call
    that passes the set's own arrays, ``start.objective`` and
    ``start.matrix``, as the oracle and ``geometry.validate`` do, checks
    only b; any other c and A are converted, checked with b, and compared
    with the set's, and a different LP raises InvalidInput.  The set's
    entries answer if they can (``CertifiedBases._lookup``).  Otherwise the
    cold two-phase solve decides the status, and its optimal basis enters
    the set and answers in the same way: B^-1 b, or a walk from it, which
    may find the LP infeasible.  A basis the set refuses is read the same
    way, with the pseudo-inverse of B for B^-1.  Every optimum is a basis's
    refined solution (``_solution``), never a tableau value, and is finite;
    a cold optimum with no such read, an "unbounded" read off a tableau that
    overflowed, and the cold path's iteration bound raise NumericalBreakdown.
    A b so large that the arithmetic overflows warns of nothing: the
    overflow refuses each read it reaches.

    ``pivots`` counts the cold phases' pivots, if they ran, plus the dual
    pivots of the walk that answered.  ``basis`` lists the final basic
    columns (zero-valued basics too).
    """
    if start is not None and not isinstance(start, CertifiedBases):
        raise InvalidInput(f"start must be None or a CertifiedBases, got {type(start).__name__}")
    b = np.asarray(eq_rhs, dtype=float).reshape(-1)
    bases = start
    if start is None or objective is not start.objective or eq_matrix is not start.matrix:
        c, a = _checked(objective, eq_matrix, b)
        if start is None:
            bases = CertifiedBases(c, a)
        elif not (np.array_equal(c, start.objective) and np.array_equal(a, start.matrix)):
            raise InvalidInput("start holds the bases of another LP: c or A differs from the set's")
    elif start.matrix.shape[0] != b.size:
        raise DimensionMismatch(_shapes(start.objective, start.matrix, b))
    elif not all(map(math.isfinite, b.tolist())):
        raise InvalidInput(_NON_FINITE)
    res = bases._lookup(b)
    if res is not None:
        return res
    c, a = bases.objective, bases.matrix
    status, basis, pivots = _two_phase(c, a, b)
    if status != "optimal":
        return LPResult(status, None, None, pivots)
    k = bases._enter(basis)
    if k is None:
        matrix = a[:, list(basis)]
        res = _solution(c, basis, matrix, np.linalg.pinv(matrix), b, pivots)
    else:
        res = bases._read(k, b, pivots) or bases._walk(k, b, pivots)
    if res is None:
        raise NumericalBreakdown(f"no certified read of the cold solve's basis {basis}")
    return res


_NON_FINITE = "LP data must be finite: c, A or b holds a NaN or an infinity"


def _checked(objective, eq_matrix, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """c and A as float arrays, after checking their shapes and finiteness, and b's too when it is given."""
    c = np.asarray(objective, dtype=float).reshape(-1)
    a = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
    if a.shape != (len(a) if b is None else b.size, c.size):
        raise DimensionMismatch(_shapes(c, a, b))
    if not (np.isfinite(c).all() and np.isfinite(a).all() and (b is None or np.isfinite(b).all())):
        raise InvalidInput(_NON_FINITE)
    return c, a


def _shapes(c: np.ndarray, a: np.ndarray, b: np.ndarray | None) -> str:
    rhs = "" if b is None else f" b({b.size},),"
    return f"inconsistent LP shapes: A{a.shape},{rhs} c({c.size},)"


def _two_phase(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[str, tuple[int, ...] | None, int]:
    """The cold solve: its status, its basis if optimal (rows dropped as redundant have none), and its pivots.

    An infinite artificial sum, which a huge b makes, still reads "infeasible" after phase 1, but
    phase 2's "unbounded" on a tableau that overflowed raises NumericalBreakdown.
    """
    m, n = a.shape
    flip = b < 0
    a, b = np.where(flip[:, None], -a, a), np.where(flip, -b, b)

    # Phase 1: artificial basis, minimize the artificial sum.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :n] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()
    basis = list(range(n, n + m))

    _, pivots = _iterate(tab, basis, n + m)  # "unbounded" here is rounding: the artificial sum is >= 0
    if -tab[-1, -1] > FEAS_TOL:
        return "infeasible", None, pivots

    tab, basis, drive_out = _drop_artificials(tab, basis, n)
    pivots += drive_out

    # Phase 2: real costs, reduced against the current basis.
    tab[-1, :n] = c
    tab[-1, -1] = 0.0
    for row, j in enumerate(basis):
        cj = tab[-1, j]
        if cj != 0.0:
            tab[-1, :] -= cj * tab[row, :]

    status, phase2 = _iterate(tab, basis, n)
    if status == "unbounded" and not np.isfinite(tab).all():  # a ray read off overflowed entries proves nothing
        raise NumericalBreakdown("phase 2 found the LP unbounded on a tableau holding a NaN or an infinity")
    return status, tuple(basis) if status == "optimal" else None, pivots + phase2


def _solution(c, basis, matrix, inverse, b, pivots, basics=None) -> LPResult | None:
    """The optimum of ``basis`` at b: its solution B^-1 b, refined once, or None unless it covers b.

    ``matrix`` is B, ``inverse`` its B^-1 (or pseudo-inverse), and
    ``basics`` B^-1 b where the caller has it.  They cover b when all are
    >= -PIVOT_TOL and r = b - B x_B is within FEAS_TOL * max(1, |b|); the
    answer is then x_B + B^-1 r, each basic value below 1e-15 in magnitude
    read as 0, if its objective is finite.  The test and the snap run on the
    m basic values as floats.  A NaN or an infinity among them or in r,
    which only an overflow at a huge b makes, leaves x and the objective
    non-finite, and the read is refused.  Nothing is re-priced here.
    """
    basics = inverse @ b if basics is None else basics
    residual = b - matrix @ basics
    limit = FEAS_TOL * max(1.0, max(map(abs, b.tolist()), default=0.0))
    if min(basics.tolist(), default=0.0) < -PIVOT_TOL or max(map(abs, residual.tolist()), default=0.0) > limit:
        return None
    x = np.zeros(c.size)
    for j, v in zip(basis, (basics + inverse @ residual).tolist()):
        x[j] = 0.0 if abs(v) < 1e-15 else v  # else validate bounds a cut box through the origin at -2.2e-16, not 0
    objective = float(c @ x)
    return LPResult("optimal", x, objective, pivots, tuple(basis)) if math.isfinite(objective) else None


def _dual_simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: list[int], b_inv: np.ndarray) -> tuple[str, int]:
    """Dual simplex pivots from ``basis`` (updated in place), with its B^-1; the status and the pivots made.

    The leaving row holds the most negative basic value; the entering column
    passes ``_ratio_test`` on the reduced costs over minus that row.  The
    status is "optimal" once no basic value is below -PIVOT_TOL, "infeasible"
    at a row no column can take (a Farkas row: no x >= 0 meets it, up to the
    tolerances), "iteration bound" after ``_max_pivots`` pivots, or "overflow".
    """
    m, n = a.shape
    tab = np.empty((m + 1, n + 1))
    np.matmul(b_inv, a, out=tab[:m, :n])
    np.matmul(b_inv, b, out=tab[:m, -1])
    if not np.isfinite(tab[:m]).all():
        return "overflow", 0
    basics = tab[:m, -1]  # views: _pivot updates tab in place
    costs = tab[-1, :n]
    tab[-1] = -(c[basis] @ tab[:m])  # reduced costs c - c_B B^-1 A, then -c_B x_B
    costs += c
    costs[basis] = 0.0
    for pivots in range(_max_pivots(m, n)):
        leave = int(basics.argmin())
        if basics[leave] >= -PIVOT_TOL:
            return "optimal", pivots
        cols = _ratio_test(costs, -tab[leave, :n])
        if cols.size == 0:
            return "infeasible", pivots
        _pivot(tab, leave, cols[0])
        basis[leave] = int(cols[0])
    return "iteration bound", pivots + 1


def _max_pivots(m: int, n: int) -> int:
    """The iteration bound of every pivot loop on m rows and n columns, the walk's and the cold phases'."""
    return 1000 + 50 * (m + n)


def _inverse(a: np.ndarray, basis: tuple[int, ...]) -> np.ndarray | None:
    """B^-1 for B = A[:, basis], or None unless B is square and invertible."""
    try:
        b_inv = np.linalg.inv(a[:, list(basis)])
    except np.linalg.LinAlgError:
        return None
    return b_inv if np.isfinite(b_inv).all() else None


def _iterate(tab: np.ndarray, basis: list[int], n_cols: int) -> tuple[str, int]:
    """Pivot in place until optimal or unbounded; return the status and pivot count.

    The entering column has the most negative reduced cost (Dantzig).  After
    DEGENERATE_RUN consecutive pivots that leave the objective above its
    lowest value so far, the smallest improving index enters instead (Bland)
    until a pivot reaches a new low.  The objective strictly drops between
    such runs and Bland's rule cannot cycle within one, so no basis repeats.
    The leaving row passes ``_ratio_test`` on the basic values over the entering
    column: its first, or under Bland pricing the smallest basic index.
    """
    m = tab.shape[0] - 1
    best = tab[-1, -1]  # minus the objective: grows as the objective drops
    stalled = 0
    for pivots in range(_max_pivots(m, n_cols)):
        costs = tab[-1, :n_cols]
        improving = costs < -FEAS_TOL
        if not improving.any():
            return "optimal", pivots
        enter = int(np.argmin(costs) if stalled < DEGENERATE_RUN else improving.argmax())
        rows = _ratio_test(tab[:m, -1], tab[:m, enter])
        if rows.size == 0:
            return "unbounded", pivots
        leave = int(rows[0] if stalled < DEGENERATE_RUN else min(rows, key=basis.__getitem__))
        tab[leave, -1] = max(tab[leave, -1], 0.0)  # no step back: a value rounded below 0 stands for 0
        _pivot(tab, leave, enter)
        basis[leave] = enter
        stalled = 0 if tab[-1, -1] > best else stalled + 1
        best = max(best, tab[-1, -1])
    raise NumericalBreakdown("simplex iteration limit reached")


def _ratio_test(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Harris's two-pass ratio test: the indices a pivot may take, largest step first, or none.

    Pass 1 bounds the ratio by the smallest (value + FEAS_TOL) / step over
    steps > PIVOT_TOL, so no value with such a step falls below -FEAS_TOL; pass 2
    keeps each index within that bound (Harris 1973; the dual form: Koberstein 2005).
    """
    eligible = (steps > PIVOT_TOL).nonzero()[0]
    v, s = values[eligible], steps[eligible]
    within = (v / s <= ((v + FEAS_TOL) / s).min(initial=np.inf)).nonzero()[0]
    return eligible[within[np.argsort(-s[within], kind="stable")]]


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row, :] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row, :])


def _drop_artificials(tab: np.ndarray, basis: list[int], n: int):
    """Pivot artificial variables out of the basis, then cut their columns.

    Each basic artificial leaves on its row's largest real entry: a pivot
    barely above PIVOT_TOL, as the first such entry can be, leaves a basis
    that rounding makes singular.  A basic artificial row with no real-column
    pivot is a redundant constraint and is removed entirely.  Also returns
    the pivots made.
    """
    m = tab.shape[0] - 1
    drop_rows = []
    pivots = 0
    for row in range(m):
        if basis[row] < n:
            continue
        magnitudes = np.abs(tab[row, :n])
        piv = int(np.argmax(magnitudes))
        if magnitudes[piv] > PIVOT_TOL:
            _pivot(tab, row, piv)
            basis[row] = piv
            pivots += 1
        else:
            drop_rows.append(row)

    keep = [i for i in range(m) if i not in drop_rows]
    return tab[keep + [m]][:, list(range(n)) + [tab.shape[1] - 1]], [basis[i] for i in keep], pivots
