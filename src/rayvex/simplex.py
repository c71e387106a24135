"""Dense two-phase simplex for small standard-form linear programs.

Solves  minimize c.x  subject to  A x = b, x >= 0.  Pivots are priced by the
most negative reduced cost (Dantzig); after a run of DEGENERATE_RUN pivots
that do not lower the objective, pricing falls back to Bland's
smallest-index rule until the objective drops again, which rules out
cycling.  Every pivot, primal or dual, takes one ratio test (``_ratio_test``),
and NumericalBreakdown means only the iteration limit.  Sized for desk-scale
instances (a handful of equality rows, up to ~10^4 columns); everything is a
plain numpy tableau.

Every LP of the library is one family of right-hand sides of one (c, A),
solved through ``solve_lp`` with that family's ``CertifiedBases`` as
``start``: the oracle's queries change (x, 1), and ``geometry.validate``'s
2n + 1 questions about a polytope are the right-hand sides of one LP.  An
optimal basis stays dual feasible when only b changes (its reduced costs do
not depend on b; the parametric right-hand side of Bertsimas & Tsitsiklis,
*Introduction to Linear Optimization*, ch. 4-5), so it is optimal for every
b with B^-1 b >= 0, and every optimum is read from such a basis.
The set keeps every optimal basis its solves reach, each inverted and
checked for reduced costs once, as it enters.  A certified basis that is
primal feasible for b answers, B^-1 b, with no pivot; otherwise dual
simplex pivots run from the stored B^-1 of the nearest entry, the one whose
most negative basic value at b is largest.  Where that does not cleanly
reach an optimum -- an empty set, the pivot limit, a row with no dual ratio
(the LP may be infeasible) -- the cold two-phase solve decides, so statuses
never depend on ``start``, and its basis enters and answers like any other
(its tableau's own values only where the set refuses the basis or the walk
from it fails).
An optimum may differ from another basis's in the last ulps, and is
deterministic for a fixed sequence of solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NumericalBreakdown

FEAS_TOL = 1e-9  # LP feasibility and optimality: an LP residual or reduced cost, absolute
PIVOT_TOL = 1e-11  # the smallest entry a pivot may take: a tableau entry, absolute
DEGENERATE_RUN = 50  # pivots without a new objective low before Bland pricing takes over
# A warm start goes cold after DUAL_PIVOT_LIMIT dual pivots: each costs ~1/15
# to 1/30 of a cold solve on the oracle's LPs.
DUAL_PIVOT_LIMIT = 12


@dataclass(frozen=True, eq=False)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int  # the cold phases, if they ran, plus the dual pivots of the walk that answered
    basis: tuple[int, ...] | None = None  # optimal basic columns, row by row (None unless optimal)


class CertifiedBases:
    """The optimal bases of one LP's (c, A), kept for solving it under every right-hand side.

    Only ``solve_lp`` offers it bases, those of the optima it reaches.  One
    enters at most once, and only when B = A[:, basis] is square (the cold
    solve may have dropped a redundant row), invertible, and its reduced
    costs c - c_B B^-1 A are all >= -FEAS_TOL: B is then optimal for every
    b with B^-1 b >= 0.  Each entry keeps its B and B^-1, and the inverses
    are stacked by rows into one (k*m, m) matrix, so ``solve_lp`` tests
    every entry against a b with one product.  ``entries`` lists the bases
    in the order they entered; the set is bounded by the number of distinct
    optimal bases.
    """

    def __init__(self):
        self.entries: list[tuple[int, ...]] = []
        self._keys: dict[frozenset[int], int] = {}  # the column set of each entry -> its index
        self._matrices: list[np.ndarray] = []  # B of each entry
        self._inverses = np.empty((0, 0))  # B^-1 of each entry, stacked by rows

    def _enter(self, c: np.ndarray, a: np.ndarray, basis: tuple[int, ...]) -> int | None:
        """The index of the entry with the columns of ``basis``, added now if new; None if its certificate fails."""
        key = frozenset(basis)
        if key in self._keys:
            return self._keys[key]
        b_inv = _inverse(a, basis)
        if b_inv is None or (c - (c[list(basis)] @ b_inv) @ a).min(initial=0.0) < -FEAS_TOL:
            return None
        self._keys[key] = len(self.entries)
        self.entries.append(basis)
        self._matrices.append(a[:, list(basis)])
        self._inverses = np.vstack([self._inverses.reshape(-1, len(basis)), b_inv])
        return self._keys[key]

    def _lookup(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LPResult | None:
        """The optimum at b from the entries, or None, for the cold solve, if they give none.

        Every entry's basics B^-1 b come from one product.  The first entry
        whose basics cover b answers; otherwise the entry whose most negative
        basic value is largest, the first on a tie, walks.
        """
        if not self.entries:
            return None
        basics = (self._inverses @ b).reshape(len(self.entries), b.size)
        lows = basics.min(axis=1)
        for k in (lows >= -PIVOT_TOL).nonzero()[0]:
            res = self._read(k, c, b, basics[k])
            if res is not None:
                return res
        return self._walk(int(lows.argmax()), c, a, b)

    def _read(self, k: int, c: np.ndarray, b: np.ndarray, basics: np.ndarray) -> LPResult | None:
        """Entry k's optimum at b with no pivot, or None unless its basics B^-1 b cover b.

        They cover b when all are >= -PIVOT_TOL and meet A x = b within
        FEAS_TOL * max(1, |b|).  Nothing is re-priced: the entry's reduced
        costs were checked when it entered.
        """
        limit = FEAS_TOL * max(1.0, np.abs(b).max(initial=0.0))
        if basics.min() < -PIVOT_TOL or np.abs(self._matrices[k] @ basics - b).max() > limit:
            return None
        return _optimum(c, list(self.entries[k]), basics, 0)

    def _walk(self, k: int, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LPResult | None:
        """The optimum at b by dual simplex pivots from entry k's stored B^-1, which then enters; or None."""
        m = b.size
        res = _dual_simplex(c, a, b, list(self.entries[k]), self._inverses[k * m : (k + 1) * m])
        if res is not None:
            self._enter(c, a, res.basis)
        return res


def solve_lp(objective, eq_matrix, eq_rhs, start: CertifiedBases | None = None) -> LPResult:
    """Solve min c.x s.t. A x = b, x >= 0: the one LP entry point of the library.

    c, A and b must be finite, and ``start`` is None, a fresh set, or the
    ``CertifiedBases`` of earlier solves of the same c and A; anything else
    raises InvalidInput.  The set's entries answer if they can
    (``CertifiedBases._lookup``).  Otherwise the cold two-phase solve
    decides the status, and its optimal basis enters the set and answers in
    the same way: B^-1 b, or a walk from it.  The cold tableau's values are
    returned only if the set refuses the basis or that walk fails.  The
    cold path raises NumericalBreakdown at its iteration limit.

    ``pivots`` counts the cold phases' pivots, if they ran, plus the dual
    pivots of the walk that answered.  ``basis`` lists the final basic
    columns (zero-valued basics too).
    """
    c = np.asarray(objective, dtype=float).reshape(-1)
    a = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
    b = np.asarray(eq_rhs, dtype=float).reshape(-1)
    if a.shape != (b.size, c.size):
        raise DimensionMismatch(f"inconsistent LP shapes: A{a.shape}, b({b.size},), c({c.size},)")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInput("LP data must be finite: c, A or b holds a NaN or an infinity")
    if start is not None and not isinstance(start, CertifiedBases):
        raise InvalidInput(f"start must be None or a CertifiedBases, got {type(start).__name__}")
    bases = CertifiedBases() if start is None else start
    res = bases._lookup(c, a, b)
    if res is not None:
        return res
    cold = _two_phase(c, a, b)
    k = bases._enter(c, a, cold.basis) if cold.status == "optimal" else None
    if k is None:
        return cold
    m = b.size
    res = bases._read(k, c, b, bases._inverses[k * m : (k + 1) * m] @ b) or bases._walk(k, c, a, b)
    return cold if res is None else replace(res, pivots=cold.pivots + res.pivots)


def _two_phase(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LPResult:
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

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
        return LPResult("infeasible", None, None, pivots)

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
    pivots += phase2
    if status == "unbounded":
        return LPResult("unbounded", None, None, pivots)

    return _optimum(c, basis, tab[:-1, -1], pivots)


def _optimum(c: np.ndarray, basis: list[int], basics: np.ndarray, pivots: int) -> LPResult:
    x = np.zeros(c.size)
    x[basis] = basics
    x[np.abs(x) < 1e-15] = 0.0  # else validate bounds a cut box through the origin at -2.2e-16, not 0
    return LPResult("optimal", x, float(c @ x), pivots, tuple(basis))


def _dual_simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: list[int], b_inv: np.ndarray):
    """Re-solve from ``basis``, with its B^-1, by dual simplex pivots, or None where the cold solve must.

    The leaving row holds the most negative basic value; the entering column
    passes ``_ratio_test`` on the reduced costs over minus that row.  The answer is
    returned only with its optimality certificate: basics >= -PIVOT_TOL,
    reduced costs >= -FEAS_TOL and A x = b within FEAS_TOL; the start is
    re-priced too, as its tableau can disagree with its certificate in ulps.
    """
    m, n = a.shape
    tab = np.empty((m + 1, n + 1))
    np.matmul(b_inv, a, out=tab[:m, :n])
    np.matmul(b_inv, b, out=tab[:m, -1])
    if not np.isfinite(tab[:m]).all():
        return None
    basics = tab[:m, -1]  # views: _pivot updates tab in place
    costs = tab[-1, :n]
    tab[-1] = -(c[basis] @ tab[:m])  # reduced costs c - c_B B^-1 A, then -c_B x_B
    costs += c
    costs[basis] = 0.0
    if costs.min() < -FEAS_TOL:
        return None

    for pivots in range(DUAL_PIVOT_LIMIT + 1):
        leave = int(basics.argmin())
        if basics[leave] >= -PIVOT_TOL:
            break
        if pivots == DUAL_PIVOT_LIMIT:
            return None
        cols = _ratio_test(costs, -tab[leave, :n])
        if cols.size == 0:
            return None  # no x >= 0 meets this row: the cold solve reports infeasible
        _pivot(tab, leave, cols[0])
        basis[leave] = int(cols[0])

    result = _optimum(c, basis, tab[:-1, -1], pivots)
    residual = np.abs(a @ result.x - b).max(initial=0.0)
    if costs.min() < -FEAS_TOL or residual > FEAS_TOL * max(1.0, np.abs(b).max(initial=0.0)):
        return None
    return result


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
    max_iter = 1000 + 50 * (m + n_cols)
    best = tab[-1, -1]  # minus the objective: grows as the objective drops
    stalled = 0
    for pivots in range(max_iter):
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
        if tab[-1, -1] > best:
            best = tab[-1, -1]
            stalled = 0
        else:
            stalled += 1
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

    keep_rows = [i for i in range(m) if i not in drop_rows] + [m]
    tab = tab[keep_rows][:, list(range(n)) + [tab.shape[1] - 1]]
    new_basis = [basis[i] for i in range(m) if i not in drop_rows]
    return tab, new_basis, pivots
