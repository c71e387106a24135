"""Solver checks against golden instances and an exact rational LP reference (``reference_simplex.exact_lp``)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_simplex import exact_lp
from strategies import hull_lp, near_collinear_hull_lps, record_calls, rescaled_polytopes

import rayvex as rx
from rayvex import simplex
from rayvex.errors import DimensionMismatch, InvalidInput, NumericalBreakdown
from rayvex.simplex import DEGENERATE_RUN, FEAS_TOL, CertifiedBases, _iterate, _pivot, solve_lp

# Beale's degenerate instance: naive most-negative pricing cycles on it.
BEALE_C = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
BEALE_A = np.array(
    [
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
)
BEALE_B = np.array([0.0, 0.0, 1.0])


def test_pivot_matches_row_loop_reference():
    # The outer-product update does the row loop's a - f*b per element.
    rng = np.random.default_rng(3)
    tab = rng.normal(size=(5, 9))
    tab[3, 4] = 0.0  # a row the loop skips
    expect = tab.copy()
    expect[1] /= expect[1, 4]
    for r in range(len(expect)):
        if r != 1 and expect[r, 4] != 0.0:
            expect[r] -= expect[r, 4] * expect[1]
    _pivot(tab, 1, 4)
    assert np.array_equal(tab, expect)


def test_two_variable_golden():
    res = solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.x[0] == pytest.approx(0.0, abs=1e-12)
    assert res.x[1] == pytest.approx(1.0, abs=1e-12)


def test_infeasible_negativity():
    # lambda_1 = -1 with lambda >= 0 has no solution
    res = solve_lp([0.0], [[1.0]], [-1.0])
    assert res.status == "infeasible"


def test_unbounded_direction():
    # x = (t, t) is feasible for all t with objective -t
    res = solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert res.status == "unbounded"


def test_bilinear_vertex_oracle_instance():
    # Convex-combination LP of -x*y over the unit-box corners at (0.5, 0.5).
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    values, a, b = hull_lp(points, [0.0, 0.0, 0.0, -1.0], [0.5, 0.5])
    res = solve_lp(values, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(float(exact_lp(values, a, b)[1]))
    assert res.objective == pytest.approx(-0.5, abs=1e-12)


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance that cycles under naive Dantzig pivoting.
    res = solve_lp(BEALE_C, BEALE_A, BEALE_B)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


@pytest.mark.parametrize("run", [DEGENERATE_RUN, 0])
def test_beale_from_slack_basis_reaches_the_optimum_under_either_pricing(run, monkeypatch):
    # From the slack basis (columns 4-6) most-negative pricing with the largest-pivot
    # leaving row takes two pivots; a degenerate run of 0 prices by Bland's rule
    # from the first pivot, which must end at the optimum too.
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", run)
    tab = np.zeros((4, 8))
    tab[:3, :7] = BEALE_A
    tab[:3, -1] = BEALE_B
    tab[-1, :7] = BEALE_C  # slack costs are zero, so these are the reduced costs
    basis = [4, 5, 6]
    status, pivots = _iterate(tab, basis, 7)
    assert status == "optimal"
    assert -tab[-1, -1] == pytest.approx(-0.05, abs=1e-10)
    assert pivots == (2 if run else 6)
    x = np.zeros(7)
    x[basis] = tab[:3, -1]
    assert np.max(np.abs(BEALE_A @ x - BEALE_B)) <= 1e-12
    assert x.min() >= -1e-12


def test_dense_oracle_query_needs_few_pivots():
    # One interior query on the density-40 unit-box oracle.  Smallest-index
    # pricing takes ~900 pivots here; most-negative pricing takes four.
    entry = rx.bilinear_neg()
    oracle = rx.oracle_build(entry.field, entry.default_polytope, grid_density=40)
    k = len(oracle.values)
    assert k == 1681
    res = solve_lp(oracle.values, np.vstack([oracle.points.T, np.ones(k)]), [0.3, 0.6, 1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.3, abs=1e-12)  # McCormick: max(-x, -y)
    assert 1 <= res.pivots <= 50


def test_redundant_constraint_handled(monkeypatch):
    # the cold solve drops the second row, twice the first: its one-column basis cannot enter the
    # certified set, and is read through the pseudo-inverse of B
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    pseudo = record_calls(monkeypatch, np.linalg, "pinv")
    c = np.array([1.0, 0.0])
    bases = CertifiedBases(c, a)
    res = solve_lp(c, a, b, start=bases)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert bases.entries == [] and [m.tolist() for m, in pseudo] == [[[1.0], [2.0]]]
    assert (res.basis, res.x.tolist()) == ((1,), [0.0, 1.0])


def test_solution_feasibility_contract():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = 3, 8
        a = rng.normal(size=(m, n))
        x0 = np.abs(rng.normal(size=n))
        b = a @ x0
        c = np.abs(rng.normal(size=n))  # nonnegative costs keep the LP bounded
        res = solve_lp(c, a, b)
        assert res.status == "optimal"
        assert np.max(np.abs(a @ res.x - b)) <= 1e-9
        assert res.x.min() >= -1e-12
        assert res.objective <= c @ x0 + 1e-9
        assert res.objective == pytest.approx(res.x @ c)


# y^2 on a 5 x 5 lattice whose bottom row sits 1.2e-7 below y = 0, queried 5e-13 above it
DEFECT_YS = [float.fromhex(h) for h in ("-0x1.00000001c5f68p-23", "0x1.ffffdfffffffcp-4", "0x1.ffffefffffffep-3")]
DEFECT_YS += [float.fromhex(h) for h in ("0x1.7ffff7fffffffp-2", "0x1.fffff7fffffffp-2")]
DEFECT_POINTS = np.array([(x, y) for x in 0.90625 + 0.5 * np.arange(5) for y in DEFECT_YS])
DEFECT_LP = hull_lp(DEFECT_POINTS, DEFECT_POINTS[:, 1] ** 2, [0.90625, float.fromhex("-0x1.ffff7346bfe39p-24")])


def test_a_basic_value_rounded_below_zero_is_not_stepped_back_through():
    # Pivoting on a rounding 1.4e-10 entry under a basic value of -1.85e-17 once made the
    # entering weight -1.3e-7 and the objective 2e-9.
    c, a, b = DEFECT_LP
    res = solve_lp(c, a, b)
    assert res.status == "optimal" and res.x.min() >= 0.0
    assert np.abs(a @ res.x - b).max() <= 1e-15
    assert abs(res.objective) <= 1e-12


# Every optimum is its basis's refined B^-1 b, which covers b: a residual within FEAS_TOL max(1, |b|)
# and weights >= -PIVOT_TOL before the refinement.  Worst seen over 5 seeds x 4,000 draws: a residual
# of 4.4e-15 and a weight of -9.6e-12; a value 2.9e-10 max |c| above the exact optimum and 5.2e-11
# below it.
EDGE_YS = [3.4e-8, 1.0000000000000004, 2.0, 3.0, 3.999999966]
EDGE_POINTS = np.array([(x, y) for x in range(5) for y in EDGE_YS], dtype=float)
TOP_YS = [float.fromhex(h) for h in ("-0x1.52da6910b246fp-42", "0x1.ffffffffff933p-4", "0x1.0000000000000p-2")]
TOP_POINTS = np.array([(x, y) for x in (0.0, 0.125, 0.25) for y in TOP_YS])


@settings(max_examples=60, deadline=None)
@given(near_collinear_hull_lps())
@example(DEFECT_LP)  # once optimal on the basis (2, 0, 1): three points of one column, cond 1.4e17
# phase 1 ends at an artificial sum of -2.5e-9: the tableau read a residual of 2.8e-9, its basis's B^-1 b 0
@example(hull_lp(EDGE_POINTS, EDGE_POINTS[:, 1] ** 2, [1.0, 1.000000000000024]))
# 2.9e-10 above the top row: the cold tableau answered with a residual of 1.17e-9; the walk from its
# basis now meets a row that proves the query infeasible
@example(hull_lp(TOP_POINTS, [0, -2, -2, 0, -2, -1, -2, -2, 2], [0.25, float.fromhex("0x1.000000050477ap-2")]))
def test_a_cold_optimum_is_a_sound_basis_on_near_collinear_lattices(lp):
    c, a, b = lp
    res = solve_lp(c, a, b)
    exact, value, residual = exact_lp(c, a, b)  # residual: the exact min |A x - b|_1 over x >= 0
    band = FEAS_TOL * max(1.0, np.abs(b).max())
    if res.status == "infeasible":  # the LP is infeasible at b, or at a right-hand side within band of it (L1)
        unit = np.eye(len(b))
        assert exact == "infeasible" or any(exact_lp(c, a, b + band * e)[0] == "infeasible" for e in np.vstack([unit, -unit]))
        return
    assert res.status == "optimal" and residual <= band  # feasible at b, or at a right-hand side within band
    basis = a[:, list(res.basis)]
    assert basis.shape == (3, 3) and np.linalg.cond(basis) < 1e12
    assert np.abs(a @ res.x - b).max() <= band and res.x.min() >= -FEAS_TOL
    assert exact != "optimal" or abs(res.objective - float(value)) <= FEAS_TOL * max(1.0, np.abs(c).max())


def test_a_query_just_outside_the_hull_is_infeasible_or_met_within_feas_tol():
    # y^2 on a 4 x 4 lattice with rows moved by up to 6.7e-8, queried 2.4e-9 above its top row.
    # Stepping back through a basic value rounded below 0 gave optimal weights down to -2.4e-9.
    ys = [6.675653505536901e-08, 0.9999999715712518, 2.0000000000000133, 2.9999999999999964]
    points = np.array([(x, y) for x in range(4) for y in ys], dtype=float)
    c, a, b = hull_lp(points, points[:, 1] ** 2, [2.0, 3.0000000023990894])
    res = solve_lp(c, a, b)
    assert res.status == "infeasible" or (res.x.min() >= -FEAS_TOL and np.abs(a @ res.x - b).max() <= FEAS_TOL * np.abs(b).max())


def _chebyshev_lp(a, b):
    """validate's Chebyshev LP on rows (a, b) in standard form: min b.y s.t. A^T y = 0, |a|.y - s = 1, y, s >= 0."""
    n = a.shape[1]
    matrix = np.vstack([np.hstack([a.T, np.zeros((n, 1))]), np.append(np.linalg.norm(a, axis=1), -1.0)])
    return np.append(b, 0.0), matrix, np.eye(n + 1)[n]


def test_the_chebyshev_lp_of_user_scale_rows_is_solved():
    # on a cut box's rows as the user gave them (row norms 1e-3 to 1e2).  The inequality form of the
    # same LP once met a column with no entry above PIVOT_TOL in phase 1 and raised NumericalBreakdown
    a = np.array([[-0.28546516903645525, 0.0], [-0.0010296106992124358, -0.00013251530226929508], [1.2385328794304349, 0.0],
                  [0.0, -0.05192204502148773], [0.0, 110.744696892593]])
    b = np.array([0.0, 0.0, 2.0015839405181604, 0.0, 209.12271242643473])
    cost, matrix, rhs = _chebyshev_lp(a, b)
    res = solve_lp(cost, matrix, rhs)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.8080463481270802, rel=1e-12)  # validate's margin on the canonical rows
    basis = list(res.basis)
    centre = np.linalg.solve(matrix[:, basis].T, cost[basis])[:2]  # the multipliers (x, t)
    assert rx.validate(rx.Polytope.from_inequalities(a, b)).interior_point == pytest.approx(centre, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(rescaled_polytopes())
# the box [0, 0.5] x [0, 1] cut by 1e-8 x + y <= 0.5000000025: its cold tableau once met A y = r only within 5e-9
@example(rx.Polytope.from_inequalities([[1, 0], [-1, 0], [0, 1], [0, -1], [1e-8, 1]], [0.5, 0, 1, 0, 0.5000000025]))
def test_the_cold_chebyshev_lp_meets_its_rows_within_feas_tol(polytope):
    cost, matrix, rhs = _chebyshev_lp(polytope.matrix, polytope.offsets)
    res = solve_lp(cost, matrix, rhs)
    assert res.status == "optimal"
    assert np.abs(matrix @ res.x - rhs).max() <= FEAS_TOL


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "A", "b"])
def test_non_finite_lp_data_is_invalid_input(where, value):
    data = {"c": [1.0, 0.0], "A": [[1.0, 1.0]], "b": [1.0]}
    data[where] = np.array(data[where])
    data[where].reshape(-1)[0] = value
    with pytest.raises(InvalidInput, match="must be finite"):
        solve_lp(data["c"], data["A"], data["b"])


def test_an_oracle_query_must_be_a_finite_point_of_its_dimension():
    entry = rx.bilinear_neg()
    oracle = rx.oracle_build(entry.field, entry.default_polytope, grid_density=10)
    for x in ([np.nan, 0.5], [np.inf, 0.5]):
        with pytest.raises(InvalidInput, match="must be finite"):
            rx.oracle_eval(oracle, x)
    with pytest.raises(DimensionMismatch, match="inconsistent LP shapes"):
        rx.oracle_eval(oracle, [0.5, 0.5, 0.5])


# right-hand sides near the largest float, whose cold solves overflow: each was once answered "optimal"
# with a NaN objective and NaN weights, and warned of the overflow on the way
OVERFLOWING_LPS = [
    ([0.6, 1.3, 1.0], [[1.4, 0.3, -1.2], [-0.2, -0.3, -0.2]], [4e307, -1e308]),
    ([0.8, 0.3, 1.2], [[-0.4, 0.3, 0.6], [-1.0, 0.8, 0.3]], [-1.7e308, 6e307]),
    ([0.1, 0.3, 0.0], [[0.3, -1.0, 0.8], [0.9, -2.0, -1.3]], [-9e307, 4e307]),
]


@pytest.mark.parametrize("lp", OVERFLOWING_LPS)
def test_an_lp_whose_arithmetic_overflows_has_no_optimum_to_read(lp):
    with pytest.raises(NumericalBreakdown, match="no certified read"):
        solve_lp(*lp)


# nonnegative costs, so c.x >= 0 on every x >= 0, and a right-hand side near the largest float: phase 2
# pivoted on NaN and infinite entries and answered "unbounded" (the first LP after 3 pivots)
OVERFLOWED_PHASE_2_LPS = [
    ([0.1, 1.3, 0.5], [[0.0, 0.3, -0.3], [-0.9, -0.5, -1.0]], [7e307, -1.3e308]),
    ([0.5, 0.2, 0.8], [[-0.6, 1.1, -0.8], [-0.9, 1.0, -1.1]], [8.5e307, 7e305]),
    ([0.9, 1.4, 0.5], [[1.0, -1.5, 0.5], [0.9, 1.1, 0.3]], [9.7e307, -3e305]),
    ([0.1, 0.2, 0.5], [[0.1, 0.4, -0.7], [0.2, 1.0, -0.1]], [8.3e307, 4.6e307]),
]


@pytest.mark.parametrize("lp", OVERFLOWED_PHASE_2_LPS)
def test_an_unbounded_read_off_an_overflowed_tableau_is_a_breakdown(lp):
    with pytest.raises(NumericalBreakdown, match="phase 2 found the LP unbounded on a tableau holding a NaN"):
        solve_lp(*lp)
    bases = CertifiedBases(lp[0], lp[1])
    assert solve_lp(lp[0], lp[1], np.array(lp[1]) @ [1.0, 1.0, 1.0], start=bases).status == "optimal"
    with pytest.raises(NumericalBreakdown):  # from a set that holds an optimal basis, too
        solve_lp(lp[0], lp[1], lp[2], start=bases)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(3, 6), st.integers(0, 2**32 - 1))
def test_a_huge_right_hand_side_ends_in_a_status_a_finite_optimum_or_a_breakdown(m, n, seed):
    # cold and warm: every numpy warning is an error here, and an optimum must be finite
    rng = np.random.default_rng(seed)
    a, c = np.round(rng.normal(size=(m, n)), 1), np.round(np.abs(rng.normal(size=n)), 1)
    bases = CertifiedBases(c, a)
    rhss = [a @ rng.uniform(0.5, 1.5, n)] + [rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(290, 308) for _ in range(4)]
    for b in rhss:
        for start in (None, bases):
            try:
                res = solve_lp(c, a, b, start=start)
            except NumericalBreakdown:
                continue
            assert res.status != "optimal" or (np.isfinite(res.x).all() and np.isfinite(res.objective))


def test_the_iteration_limit_is_a_breakdown(monkeypatch):
    # a pivot that changes nothing: the same column enters until the limit
    monkeypatch.setattr(simplex, "_pivot", lambda *args: None)
    with pytest.raises(NumericalBreakdown, match="iteration limit"):
        solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0])


@pytest.mark.parametrize("lp", [([1.0, 0.0], [[1.0, 1.0]], [1.0]), ([1.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])])
def test_a_cold_optimum_with_no_certified_read_is_a_breakdown(lp, monkeypatch):
    # no basis covers b: the cold basis's read and the walk from it give no answer, and a basis
    # the set refuses (the second LP drops a redundant row) has only its own read
    monkeypatch.setattr(simplex, "_solution", lambda *args: None)
    with pytest.raises(NumericalBreakdown, match="no certified read"):
        solve_lp(*lp)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_the_exact_lp_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(m + 1, 8))
    a = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n))
    b = a @ x0
    c = np.abs(rng.normal(size=n))
    res = solve_lp(c, a, b)
    assert res.status == "optimal"
    status, expect, _ = exact_lp(c, a, b)
    assert status == "optimal"
    assert res.objective == pytest.approx(float(expect), abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    density=st.integers(2, 4),
    step=st.sampled_from([0.5, 1.0, 2.0]),
    corner=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    data=st.data(),
)
def test_degenerate_lattice_lps_match_the_exact_lp(density, step, corner, data):
    # The oracle's own LP shape: convex combinations of a box lattice.  Tied
    # integer values and queries on quarter-lattice lines make most bases
    # degenerate.
    ticks = np.arange(density + 1) * step
    points = np.array([(corner[0] + x, corner[1] + y) for x in ticks for y in ticks])
    k = len(points)
    values = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)), dtype=float)
    quarters = data.draw(st.tuples(st.integers(0, 4 * density), st.integers(0, 4 * density)))
    query = np.array(corner) + np.array(quarters) * step / 4
    values, a, b = hull_lp(points, values, query)
    res = solve_lp(values, a, b)
    assert res.status == "optimal"
    assert np.max(np.abs(a @ res.x - b)) <= 1e-9
    assert res.x.min() >= -1e-12
    assert res.objective == pytest.approx(float(exact_lp(values, a, b)[1]), abs=1e-9)
