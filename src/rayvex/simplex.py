"""Dense two-phase simplex for small standard-form linear programs.

Solves  minimize c.x  subject to  A x = b, x >= 0.  Pivots are priced by the
most negative reduced cost (Dantzig); after a run of DEGENERATE_RUN pivots
that do not lower the objective, pricing falls back to Bland's
smallest-index rule until the objective drops again, which rules out
cycling.  Sized for desk-scale instances (a handful of equality rows, up to
~10^4 columns); everything is a plain numpy tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
DEGENERATE_RUN = 50  # pivots without a new objective low before Bland pricing takes over


@dataclass(frozen=True, eq=False)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int  # simplex pivots over both phases of the attempt that returned


def solve_lp(objective, eq_matrix, eq_rhs, tol: float = FEAS_TOL) -> LPResult:
    """Solve min c.x s.t. A x = b, x >= 0.

    Retries once with row rescaling if pivoting breaks down, then raises
    NumericalBreakdown.  ``pivots`` counts the pivots of the returned attempt.
    """
    c = np.asarray(objective, dtype=float).reshape(-1)
    a = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
    b = np.asarray(eq_rhs, dtype=float).reshape(-1)
    if a.shape != (b.size, c.size):
        raise ValueError(f"inconsistent LP shapes: A{a.shape}, b({b.size},), c({c.size},)")
    try:
        return _two_phase(c, a, b, tol)
    except NumericalBreakdown:
        scale = np.maximum(np.abs(a).max(axis=1, initial=0.0), np.abs(b))
        scale[scale < 1e-300] = 1.0
        return _two_phase(c, a / scale[:, None], b / scale, tol)


def solve_inequality_lp(objective, ub_matrix, ub_rhs, tol: float = FEAS_TOL) -> LPResult:
    """Solve min c.x s.t. A x <= b with x free, via the split x = p - q."""
    c = np.asarray(objective, dtype=float).reshape(-1)
    a = np.atleast_2d(np.asarray(ub_matrix, dtype=float))
    b = np.asarray(ub_rhs, dtype=float).reshape(-1)
    m, n = a.shape
    a_std = np.hstack([a, -a, np.eye(m)])
    c_std = np.concatenate([c, -c, np.zeros(m)])
    res = solve_lp(c_std, a_std, b, tol)
    if res.status != "optimal":
        return LPResult(res.status, None, None, res.pivots)
    x = res.x[:n] - res.x[n : 2 * n]
    return LPResult("optimal", x, float(c @ x), res.pivots)


def _two_phase(c: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float) -> LPResult:
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

    status, pivots = _iterate(tab, basis, n + m)
    if status == "unbounded":  # cannot happen: phase-1 objective bounded below by 0
        raise NumericalBreakdown("phase-1 reported unbounded")
    if -tab[-1, -1] > tol:
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

    x = np.zeros(n)
    for row, j in enumerate(basis):
        x[j] = tab[row, -1]
    x[np.abs(x) < 1e-15] = 0.0
    return LPResult("optimal", x, float(c @ x), pivots)


def _iterate(tab: np.ndarray, basis: list[int], n_cols: int) -> tuple[str, int]:
    """Pivot in place until optimal or unbounded; return the status and pivot count.

    The entering column has the most negative reduced cost (Dantzig).  After
    DEGENERATE_RUN consecutive pivots that leave the objective above its
    lowest value so far, the smallest improving index enters instead (Bland)
    until a pivot reaches a new low.  The objective strictly drops between
    such runs and Bland's rule cannot cycle within one, so no basis repeats.
    The leaving row is always the Bland tie-break of the ratio test.
    """
    m = tab.shape[0] - 1
    max_iter = 1000 + 50 * (m + n_cols)
    best = tab[-1, -1]  # minus the objective: grows as the objective drops
    stalled = 0
    for pivots in range(max_iter):
        costs = tab[-1, :n_cols]
        if stalled < DEGENERATE_RUN:
            enter = int(np.argmin(costs))
            if costs[enter] >= -FEAS_TOL:
                return "optimal", pivots
        else:
            improving = np.nonzero(costs < -FEAS_TOL)[0]
            if improving.size == 0:
                return "optimal", pivots
            enter = int(improving[0])

        col = tab[:m, enter]
        eligible = col > PIVOT_TOL
        if not eligible.any():
            return "unbounded", pivots
        ratios = np.full(m, np.inf)
        ratios[eligible] = tab[:m, -1][eligible] / col[eligible]
        ties = np.nonzero(ratios <= ratios.min() + 1e-12)[0]
        # Bland tie-break: row whose basic variable has the smallest index.
        leave = min(ties, key=lambda i: basis[i])

        _pivot(tab, leave, enter)
        basis[leave] = enter
        if tab[-1, -1] > best:
            best = tab[-1, -1]
            stalled = 0
        else:
            stalled += 1
    raise NumericalBreakdown("simplex iteration limit reached")


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    piv = tab[row, col]
    if abs(piv) < PIVOT_TOL:
        raise NumericalBreakdown(f"pivot {piv:.3e} below stability threshold")
    tab[row, :] /= piv
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row, :])


def _drop_artificials(tab: np.ndarray, basis: list[int], n: int):
    """Pivot artificial variables out of the basis, then cut their columns.

    A basic artificial row with no real-column pivot is a redundant
    constraint and is removed entirely.  Also returns the pivots made.
    """
    m = tab.shape[0] - 1
    drop_rows = []
    pivots = 0
    for row in range(m):
        if basis[row] < n:
            continue
        piv = -1
        for j in range(n):
            if abs(tab[row, j]) > PIVOT_TOL:
                piv = j
                break
        if piv >= 0:
            _pivot(tab, row, piv)
            basis[row] = piv
            pivots += 1
        else:
            drop_rows.append(row)

    keep_rows = [i for i in range(m) if i not in drop_rows] + [m]
    tab = tab[keep_rows][:, list(range(n)) + [tab.shape[1] - 1]]
    new_basis = [basis[i] for i in range(m) if i not in drop_rows]
    return tab, new_basis, pivots
