"""Exact reference for ``rayvex.simplex.solve_lp``: a two-phase Bland simplex on ``fractions.Fraction``.

Every float is a rational, so the LP that ``solve_lp`` is given has an exact
answer.  Bland's rule (the smallest improving column enters; of the rows
that tie in the ratio test, the one with the smallest basic index leaves)
cannot cycle, and exact arithmetic needs no tolerance.  Phase 1's optimum is
the exact min ||A x - b||_1 over x >= 0, so it also measures how far an
infeasible LP is from a feasible one.  Meant for LPs of a few rows and a few
dozen columns: a 3 x 25 oracle LP takes a few milliseconds.
"""

from fractions import Fraction


def exact_lp(c, a, b):
    """(status, objective, residual) of min c.x s.t. A x = b, x >= 0, all exact.

    ``residual`` is min ||A x - b||_1 over x >= 0, 0 exactly when the LP is
    feasible; ``objective`` is the optimum, or None unless the status is
    "optimal".  The status is "optimal", "infeasible" or "unbounded".
    """
    m, n = len(b), len(c)
    rows = []  # [A | I | -I | b]: A x + r+ - r- = b, each row signed so that its b is >= 0
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        unit = [Fraction(int(i == j)) for j in range(m)]
        rows.append([sign * Fraction(v) for v in a[i]] + unit + [-u for u in unit] + [sign * Fraction(b[i])])
    basis = list(range(n, n + m))
    residual = _bland(rows, basis, [Fraction(0)] * n + [Fraction(1)] * (2 * m), n + 2 * m)
    if residual > 0:
        return "infeasible", None, residual
    for i in reversed(range(len(rows))):  # drive the artificials out, or drop their rows as redundant
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j] != 0), None)
            if enter is None:
                del rows[i], basis[i]
            else:
                _pivot(rows, basis, i, enter)
    objective = _bland(rows, basis, [Fraction(v) for v in c] + [Fraction(0)] * (2 * m), n)
    return ("unbounded", None, residual) if objective is None else ("optimal", objective, residual)


def _bland(rows, basis, cost, cols):
    """Pivot to the minimum of cost.x, entering only columns < cols: that minimum, or None if it is unbounded."""
    while True:
        reduced = [cost[j] - sum(cost[k] * row[j] for k, row in zip(basis, rows)) for j in range(cols)]
        enter = next((j for j in range(cols) if reduced[j] < 0), None)
        if enter is None:
            return sum(cost[k] * row[-1] for k, row in zip(basis, rows))
        steps = [i for i, row in enumerate(rows) if row[enter] > 0]
        if not steps:
            return None
        _pivot(rows, basis, min(steps, key=lambda i: (rows[i][-1] / rows[i][enter], basis[i])), enter)


def _pivot(rows, basis, leave, enter):
    pivot_row = rows[leave] = [v / rows[leave][enter] for v in rows[leave]]
    for i, row in enumerate(rows):
        if i != leave and row[enter] != 0:
            rows[i] = [v - row[enter] * p for v, p in zip(row, pivot_row)]
    basis[leave] = enter
