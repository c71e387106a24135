"""Solver checks against golden instances and a brute-force basic-solution oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayvex as rx
from rayvex.simplex import DEGENERATE_RUN, _iterate, _pivot, solve_inequality_lp, solve_lp

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


def brute_force_optimum(c, a, b, tol=1e-9):
    """Minimum of c.x over basic feasible solutions of {A x = b, x >= 0}.

    The optimum of a feasible bounded LP is attained at one of these, which
    makes this an independent oracle for the simplex path.
    """
    m, n = a.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        try:
            xb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or np.any(xb < -tol):
            continue
        val = float(c[list(cols)] @ xb)
        if best is None or val < best:
            best = val
    return best


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
    values = np.array([0.0, 0.0, 0.0, -1.0])
    a = np.vstack([points.T, np.ones(4)])
    b = np.array([0.5, 0.5, 1.0])
    res = solve_lp(values, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(brute_force_optimum(values, a, b))
    assert res.objective == pytest.approx(-0.5, abs=1e-12)


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance that cycles under naive Dantzig pivoting.
    res = solve_lp(BEALE_C, BEALE_A, BEALE_B)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


def test_beale_from_slack_basis_needs_the_bland_fallback():
    # From the slack basis (columns 4-6) most-negative pricing alone cycles
    # through degenerate bases until the iteration limit; only the switch to
    # Bland's rule after DEGENERATE_RUN stalled pivots reaches the optimum.
    tab = np.zeros((4, 8))
    tab[:3, :7] = BEALE_A
    tab[:3, -1] = BEALE_B
    tab[-1, :7] = BEALE_C  # slack costs are zero, so these are the reduced costs
    basis = [4, 5, 6]
    status, pivots = _iterate(tab, basis, 7)
    assert status == "optimal"
    assert -tab[-1, -1] == pytest.approx(-0.05, abs=1e-10)
    assert pivots > DEGENERATE_RUN
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


def test_redundant_constraint_handled():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(np.array([1.0, 0.0]), a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-12)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_brute_force_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(m + 1, 8))
    a = rng.normal(size=(m, n))
    x0 = np.abs(rng.normal(size=n))
    b = a @ x0
    c = np.abs(rng.normal(size=n))
    res = solve_lp(c, a, b)
    assert res.status == "optimal"
    expect = brute_force_optimum(c, a, b)
    assert expect is not None
    assert res.objective == pytest.approx(expect, abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    density=st.integers(2, 4),
    step=st.sampled_from([0.5, 1.0, 2.0]),
    corner=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    data=st.data(),
)
def test_degenerate_lattice_lps_match_brute_force(density, step, corner, data):
    # The oracle's own LP shape: convex combinations of a box lattice.  Tied
    # integer values and queries on quarter-lattice lines make most bases
    # degenerate.
    ticks = np.arange(density + 1) * step
    points = np.array([(corner[0] + x, corner[1] + y) for x in ticks for y in ticks])
    k = len(points)
    values = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)), dtype=float)
    quarters = data.draw(st.tuples(st.integers(0, 4 * density), st.integers(0, 4 * density)))
    query = np.array(corner) + np.array(quarters) * step / 4
    a = np.vstack([points.T, np.ones(k)])
    b = np.concatenate([query, [1.0]])
    res = solve_lp(values, a, b)
    assert res.status == "optimal"
    assert np.max(np.abs(a @ res.x - b)) <= 1e-9
    assert res.x.min() >= -1e-12
    assert res.objective == pytest.approx(brute_force_optimum(values, a, b), abs=1e-9)


def test_inequality_form_with_free_variables():
    # min x + y over the square [-1, 1]^2 is attained at (-1, -1)
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.ones(4)
    res = solve_inequality_lp([1.0, 1.0], a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0, abs=1e-9)
    c_std = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    assert res.pivots == solve_lp(c_std, np.hstack([a, -a, np.eye(4)]), b).pivots >= 1
    res = solve_inequality_lp([1.0, 0.0], np.array([[0.0, 1.0]]), [1.0])
    assert res.status == "unbounded"
