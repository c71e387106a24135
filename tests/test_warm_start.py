"""Warm-started LPs: ``solve_lp`` from a ``CertifiedBases``, and the oracle that reuses one.

A warm solve answers from a certified basis, or runs dual simplex pivots
from the nearest entry of the set, and must agree with the cold two-phase solve:
the same status everywhere, the same optimum within 1e-9 relative.  A warm
walk that reaches no certified optimum leaves the solve to the cold path,
whose optimal basis enters the set and answers like any other: read, or
walked from to an optimum or to a row that proves the LP infeasible.  A
basis the set refuses is read through its pseudo-inverse, and a cold
optimum with no certified read is a NumericalBreakdown.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from strategies import hull_lp, oracle_query_runs, record_calls, same

import rayvex as rx
from rayvex import cli, simplex, verify
from rayvex.errors import DimensionMismatch, InfeasibleLP, InvalidInput
from rayvex.geometry import lattice
from rayvex.simplex import CertifiedBases, solve_lp


@pytest.fixture
def cold_calls(monkeypatch):
    """The arguments of each cold two-phase solve."""
    return record_calls(monkeypatch, simplex, "_two_phase")


# a 9 x 9 lattice on the unit box (row-major in x) with a strictly convex
# field: every lattice point is on the lower hull, so moving the query walks
# across triangles
GRID = lattice(np.array([[0.0, 1.0], [0.0, 1.0]]), 9)
GRID_VALUES = (GRID**2).sum(axis=1) + 0.3 * GRID[:, 0]
NEAR = ([0.3, 0.6, 1.0], [0.5, 0.4, 1.0])  # a query and one four dual pivots away


def _set_at(c, a, b):
    """A certified set after one solve of (c, A) at b: that optimum is its one entry."""
    bases = CertifiedBases(c, a)
    assert solve_lp(c, a, b, start=bases).status == "optimal"
    return bases


def test_a_start_other_than_a_certified_set_is_invalid_input():
    c, a, b = hull_lp(GRID, GRID_VALUES, [0.3, 0.6])
    basis = solve_lp(c, a, b).basis
    for start in (basis, list(basis), np.array(basis)):
        with pytest.raises(InvalidInput, match="start must be None or a CertifiedBases"):
            solve_lp(c, a, b, start=start)


# the corners of the unit square, queried at its centre: a set built for one objective once answered another
SQUARE = verify.SampledOracle(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 0.0, 1.0]))
CENTRE = np.array([0.5, 0.5, 1.0])


def test_a_set_answers_only_the_lp_it_was_built_for():
    c, a = np.array(SQUARE.values), np.array(SQUARE.constraints)
    bases = CertifiedBases(c, a)
    assert solve_lp(c, a, CENTRE, start=bases).objective == 0.0
    # the set's basis (1, 2, 0) covers b under any objective: the set read 5.0 for c2, whose optimum is 0.5
    c2 = np.array([0.0, 5.0, 5.0, 1.0])
    assert solve_lp(c2, a, CENTRE).objective == 0.5
    for other in ((c2, a), (c, 2.0 * a), (c[:3], a[:, :3])):
        with pytest.raises(InvalidInput, match="another LP"):
            solve_lp(*other, CENTRE, start=bases)
    again = solve_lp(c, a, CENTRE, start=bases)
    assert same(solve_lp(c.tolist(), a.tolist(), CENTRE, start=bases), again)  # equal values are the same LP


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_set_is_built_from_a_finite_lp_whose_shapes_agree(value):
    c, a = np.array(SQUARE.values), np.array(SQUARE.constraints)
    bad_c, bad_a = c.copy(), a.copy()
    bad_c[1], bad_a[0, 2] = value, value
    for lp in ((bad_c, a), (c, bad_a)):
        with pytest.raises(InvalidInput, match="must be finite"):
            CertifiedBases(*lp)
    with pytest.raises(DimensionMismatch, match=r"inconsistent LP shapes: A\(3, 4\), c\(3,\)"):
        CertifiedBases(c[:3], a)
    bases = CertifiedBases(c.tolist(), a.tolist())
    assert not (bases.objective.flags.writeable or bases.matrix.flags.writeable)
    bases = CertifiedBases(c, a)
    c[1], a[0, 2] = value, value  # the set keeps copies
    assert bases.objective.tolist() == SQUARE.values.tolist() and bases.matrix.tolist() == SQUARE.constraints.tolist()


def test_the_sets_own_arrays_check_only_b_and_any_other_c_and_a_are_compared(monkeypatch):
    c, a = np.array(SQUARE.values), np.array(SQUARE.constraints)
    bases = CertifiedBases(c, a)
    solve_lp(bases.objective, bases.matrix, CENTRE, start=bases)  # cold: its basis enters
    first = solve_lp(bases.objective, bases.matrix, CENTRE, start=bases)
    finite = record_calls(monkeypatch, np, "isfinite")
    assert same(solve_lp(bases.objective, bases.matrix, CENTRE, start=bases), first) and not finite  # c and A unchecked
    for rhs in ([np.nan, 0.5, 1.0], [0.5, np.inf, 1.0]):
        with pytest.raises(InvalidInput, match="must be finite"):
            solve_lp(bases.objective, bases.matrix, rhs, start=bases)
    with pytest.raises(DimensionMismatch, match=r"inconsistent LP shapes: A\(3, 4\), b\(2,\), c\(4,\)"):
        solve_lp(bases.objective, bases.matrix, [0.5, 1.0], start=bases)
    assert not finite
    assert same(solve_lp(c, a, CENTRE, start=bases), first) and len(finite) == 3  # the caller's arrays: checked in full
    for frozen in (False, True):
        c.setflags(write=True)  # an array that owns its data can be made writeable again
        c[1] = 5.0 - c[1]  # changed in place since the set was built
        c.setflags(write=not frozen)
        with pytest.raises(InvalidInput, match="another LP"):
            solve_lp(c, a, CENTRE, start=bases)
        c.setflags(write=True)
        c[1] = 5.0 - c[1]
        assert same(solve_lp(c, a, CENTRE, start=bases), first)


def test_an_oracle_keeps_one_read_only_copy_of_its_lp():
    points, values = np.array(SQUARE.points), np.array(SQUARE.values)
    oracle = verify.SampledOracle(points, values)
    values[3] = -1.0
    assert oracle.values.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert oracle.values is oracle.bases.objective and oracle.constraints is oracle.bases.matrix  # the set's own
    assert not (oracle.values.flags.writeable or oracle.constraints.flags.writeable)
    assert rx.oracle_eval(oracle, [0.5, 0.5]) == 0.0


def test_a_huge_query_is_outside_the_hull_and_warns_of_nothing():
    # (1e308, 1e308) overflowed phase 1's sum of b as the oracle's first query, and the entries' product
    # B^-1 b after one; numpy warned of each, which this suite makes an error
    oracle = verify.SampledOracle(SQUARE.points, SQUARE.values)
    for x in ([1e308, 1e308], [0.5, 0.5], [1e308, 1e308], [1e308, -1e308], [-1.7e308, 0.5]):
        if x == [0.5, 0.5]:
            assert rx.oracle_eval(oracle, x) == 0.0
            continue
        with pytest.raises(InfeasibleLP, match="outside the sampled hull"):
            rx.oracle_eval(oracle, x)


def test_a_neighbouring_entry_walks_by_dual_pivots_from_its_stored_inverse(cold_calls, monkeypatch):
    c, a, _ = hull_lp(GRID, GRID_VALUES, [0.3, 0.6])
    bases = _set_at(c, a, NEAR[0])
    b_next = np.array(NEAR[1])
    inverted = record_calls(monkeypatch, np.linalg, "inv")
    warm = solve_lp(c, a, b_next, start=bases)
    assert len(cold_calls) == 1  # the set's first solve, not this one
    assert [m.tolist() for m, in inverted] == [a[:, list(warm.basis)].tolist()]  # the new entry's only
    cold = solve_lp(c, a, b_next)
    assert warm.pivots >= 1
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    weights = np.zeros(len(c))
    weights[list(warm.basis)] = np.linalg.solve(a[:, list(warm.basis)], b_next)
    assert np.allclose(weights, warm.x, rtol=0.0, atol=1e-12)


def test_a_walk_starts_from_the_entry_whose_most_negative_basic_value_is_largest(monkeypatch):
    c, a, _ = hull_lp(GRID, GRID_VALUES, NEAR[0][:2])
    bases = CertifiedBases(c, a)
    for b in (NEAR[0], [0.8, 0.2, 1.0]):
        solve_lp(c, a, b, start=bases)
    b = np.array([0.35, 0.5, 1.0])  # covered by neither entry, and nearer the first
    lows = [np.linalg.solve(a[:, list(basis)], b).min() for basis in bases.entries]
    assert len(lows) == 2 and lows[0] > lows[1]
    starts, walk = [], simplex._dual_simplex
    monkeypatch.setattr(simplex, "_dual_simplex", lambda *args: starts.append(tuple(args[3])) or walk(*args))
    warm = solve_lp(c, a, b, start=bases)
    assert starts == [bases.entries[0]]  # not the last optimum reached
    assert warm.pivots >= 1 and warm.objective == pytest.approx(solve_lp(c, a, b).objective, rel=1e-12)


CORNERS = (0, 8, 72)  # three box corners of GRID: a feasible basis, not an optimal one


def _forced_corners(c, a, monkeypatch):
    """A set whose one entry is CORNERS, forced in past its reduced-cost check."""
    bases = CertifiedBases(c, a)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "FEAS_TOL", np.inf)
        bases._enter(CORNERS)
    return bases


def test_a_dual_infeasible_entry_walks_to_a_certified_optimum(cold_calls, monkeypatch):
    # the query (0.9, 0.9) lies outside the forced entry's triangle and on the diagonal edge of the
    # hull's top corner: the walk, not re-priced, ends 17 pivots on, on a basis that passes the
    # certificate as it enters, with the cold objective; the cold solve ends on the edge's other triangle
    c, a, b = hull_lp(GRID, GRID_VALUES, [0.9, 0.9])
    bases = _forced_corners(c, a, monkeypatch)
    walks = record_calls(monkeypatch, simplex, "_dual_simplex")
    warm = solve_lp(c, a, b, start=bases)
    assert len(walks) == 1 and not cold_calls
    assert (warm.status, warm.basis, warm.pivots) == ("optimal", (79, 71, 70), 17)
    assert bases.entries == [CORNERS, warm.basis]
    cold = solve_lp(c, a, b)
    assert cold.basis == (80, 71, 70)
    assert warm.objective == pytest.approx(1.895, rel=1e-12) and cold.objective == pytest.approx(1.895, rel=1e-12)

    # with the iteration bound lowered below the walk, the walk gives up and the cold solve answers
    monkeypatch.setattr(simplex, "_max_pivots", lambda m, n: 16)
    del cold_calls[:]
    assert same(solve_lp(c, a, b, start=_forced_corners(c, a, monkeypatch)), cold)
    assert len(walks) == 2 and len(cold_calls) == 1


def test_the_iteration_bound_sends_the_walk_cold(cold_calls, monkeypatch):
    # a walk of 8 pivots, where each cold phase takes fewer: the bound cuts the walk and not the cold solve.
    # A loop checks for an optimum before each pivot, not after its last, so 8 pivots need a bound of 9
    c, a, _ = hull_lp(GRID, GRID_VALUES, [0.3, 0.6])
    b_far = np.array([0.1, 0.1, 1.0])
    cold = solve_lp(c, a, b_far)
    del cold_calls[:]
    walked = solve_lp(c, a, b_far, start=_set_at(c, a, NEAR[0]))
    assert walked.pivots == 8 and len(cold_calls) == 1  # the set's first solve only
    for bound, went_cold in ((walked.pivots + 1, False), (walked.pivots, True)):
        monkeypatch.setattr(simplex, "_max_pivots", lambda m, n: bound)
        bases = _set_at(c, a, NEAR[0])
        del cold_calls[:]
        assert same(solve_lp(c, a, b_far, start=bases), cold if went_cold else walked)
        assert len(cold_calls) == went_cold


def test_a_walk_that_fails_its_certificate_goes_cold(cold_calls, monkeypatch):
    # the walk ends on the optimal basis, but its B^-1, which the read would use, is inverted 1e-6 off in the
    # column of the row of ones: its reduced costs fail by about 1e-6, so the set refuses it
    c, a, _ = hull_lp(GRID, GRID_VALUES, [0.3, 0.6])
    bases = _set_at(c, a, NEAR[0])
    b_next = np.array(NEAR[1])
    inverse, drifted = simplex._inverse, []

    def drifts_once(a, basis):
        b_inv = inverse(a, basis)
        if not drifted:
            drifted.append(basis)
            b_inv[:, -1] += 1e-6
        return b_inv

    monkeypatch.setattr(simplex, "_inverse", drifts_once)
    del cold_calls[:]
    res = solve_lp(c, a, b_next, start=bases)
    assert drifted and len(cold_calls) == 1
    assert set(drifted[0]) == set(res.basis) and res.basis in bases.entries  # the cold solve's basis entered
    monkeypatch.setattr(simplex, "_inverse", inverse)
    assert same(res, solve_lp(c, a, b_next))


def test_an_infeasible_query_gets_the_cold_status(cold_calls):
    # outside the hull: the dual ratio test finds no column, and the cold solve says why
    c, a, b = hull_lp(GRID, GRID_VALUES, [0.9, 0.9])
    bases = _set_at(c, a, b)
    entries = list(bases.entries)
    b = np.array([1.02, 0.5, 1.0])
    res = solve_lp(c, a, b, start=bases)
    assert res.status == "infeasible" and res.basis is None
    assert len(cold_calls) == 2  # the set's first solve, then this one
    assert bases.entries == entries


def test_one_solve_lp_per_oracle_eval_in_compare(monkeypatch, capsys):
    # the benchmark's completeness identity: cmd_compare > oracle_eval
    # = oracle_eval > solve_lp = queries + skipped_infeasible
    evals, solves = [], []  # evals: (solves before it, oracle); solves: (start, result)
    oracle_eval, verify_solve = cli.oracle_eval, verify.solve_lp

    def counted_eval(oracle, *args, **kwargs):
        evals.append((len(solves), oracle))
        return oracle_eval(oracle, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        solves.append((kwargs.get("start"), verify_solve(*args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(cli, "oracle_eval", counted_eval)
    monkeypatch.setattr(verify, "solve_lp", counted_solve)
    code = cli.main(["compare", "--function", "cubic", "--density", "10", "--resolution", "9", "--budget", "400"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["skipped_infeasible"] > 0
    assert len(evals) == len(solves) == data["queries"] + data["skipped_infeasible"]
    assert [before for before, _ in evals] == list(range(len(evals)))  # each query's one solve happens inside its own call
    bases = evals[0][1].bases  # each query starts from the oracle's certified set
    assert isinstance(bases, CertifiedBases)
    assert all(oracle.bases is bases for _, oracle in evals) and all(start is bases for start, _ in solves)
    optima = [set(res.basis) for _, res in solves if res.status == "optimal"]
    assert optima and [set(basis) for basis in bases.entries] == [b for i, b in enumerate(optima) if b not in optima[:i]]


def test_compare_inverts_each_basis_once_as_it_enters_and_never_for_a_walk(monkeypatch, capsys):
    solves = []  # (args, kwargs, result) of each oracle LP
    inverted = []  # the matrices inverted within the oracle's LPs, not the validation's
    verify_solve = verify.solve_lp
    every_inverse = record_calls(monkeypatch, np.linalg, "inv")

    def recorded_solve(*args, **kwargs):
        before = len(every_inverse)
        solves.append((args, kwargs, verify_solve(*args, **kwargs)))
        inverted.extend(every_inverse[before:])
        return solves[-1][2]

    monkeypatch.setattr(verify, "solve_lp", recorded_solve)
    walks = record_calls(monkeypatch, simplex, "_dual_simplex")
    assert cli.main(["compare", "--function", "cubic", "--density", "20", "--resolution", "9", "--budget", "400"]) == 0
    capsys.readouterr()
    (_, a, _), kwargs, _ = solves[0]
    bases = kwargs["start"]
    optima = {frozenset(res.basis): res.basis for *_, res in solves if res.status == "optimal"}
    assert walks and list(map(frozenset, bases.entries)) == list(optima)  # every basis offered entered
    assert [m.tolist() for m, in inverted] == [a[:, list(basis)].tolist() for basis in bases.entries]


def test_compare_output_is_byte_identical_for_one_seed(capsys):
    argv = ["compare", "--function", "cubic", "--density", "20", "--resolution", "9", "--budget", "400", "--seed", "5"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# -- the warm oracle against fresh cold solves ------------------------------


def _thin_box_oracle():
    """An oracle whose cold solve at (-1e-5, 1) drives an artificial out of a row with a -1.39e-6 entry.

    That entry is the row's first above PIVOT_TOL, and 1.25 its largest.
    Pivoting on the first gave the basis (90, 0, 80): three lattice points
    on y = 1, whose [points; 1] has rank 2.
    """
    field = rx.ScalarField(2, lambda p: -abs(p[0]), name="-|x|")
    return rx.oracle_build(field, rx.Polytope.box([-1e-5, 1.0], [1.25, 2.25]), grid_density=9)


THIN_BOX_QUERY = np.array([-1e-5, 1.0])
# x^2 on {0, 0.5, 1} x {0, 0.25, 0.5}, queried at (0, 0), then 5.94e-10 outside the hull: the walk from the
# first answer's basis found a row no column can take, and the cold tableau answered with weights 1.19e-9 off
# its own basis's solution; that row now makes the query infeasible, cold or warm
STRIP = np.array([(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.25, 0.5)])


def test_the_cold_solve_reports_a_full_rank_basis():
    oracle = _thin_box_oracle()
    # the cold solve's basis answers with its refined B^-1 b, -1e-5 exactly, and so does the covered query after it
    for _ in range(2):
        assert rx.oracle_eval(oracle, THIN_BOX_QUERY) == -1e-5
    (basis,) = oracle.bases.entries  # certified, so B is invertible
    assert np.linalg.matrix_rank(oracle.constraints[:, list(basis)]) == 3


@settings(max_examples=30, deadline=None)
@given(oracle_query_runs())
@example((_thin_box_oracle(), [THIN_BOX_QUERY]))
@example((verify.SampledOracle(STRIP, STRIP[:, 0] ** 2), [np.array([0.0, 0.0]), np.array([-5.94e-10, 0.0])]))
def test_warm_oracle_matches_a_cold_solve_at_every_query(case):
    oracle, queries = case
    for x in queries:
        rhs = np.append(x, 1.0)
        cold = solve_lp(oracle.values, oracle.constraints, rhs)
        bases = copy.deepcopy(oracle.bases)
        warm = solve_lp(oracle.values, oracle.constraints, rhs, start=bases)
        try:
            value = rx.oracle_eval(oracle, x)
        except InfeasibleLP:
            assert cold.status == warm.status == "infeasible"
            continue
        assert cold.status == warm.status == "optimal"
        assert value == warm.objective  # oracle_eval is this very solve, from its certified set
        assert abs(value - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        assert oracle.bases.entries == bases.entries
        basis = list(warm.basis)
        weights = np.zeros(len(oracle.values))
        weights[basis] = np.linalg.lstsq(oracle.constraints[:, basis], rhs, rcond=None)[0]
        assert np.allclose(weights, warm.x, rtol=0.0, atol=1e-9)


# -- the certified set: every optimal basis, each checked once ---------------


def _certified_run(oracle, queries, bases=None):
    """solve_lp at each query, in order, all started from one certified set (fresh unless given)."""
    bases = CertifiedBases(oracle.values, oracle.constraints) if bases is None else bases
    return [solve_lp(oracle.values, oracle.constraints, np.append(x, 1.0), start=bases) for x in queries]


def _assert_cold_answers(oracle, queries, results):
    for x, res in zip(queries, results):
        cold = solve_lp(oracle.values, oracle.constraints, np.append(x, 1.0))
        assert res.status == cold.status
        if cold.status == "optimal":
            assert abs(res.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))


# a query on the hull's edge x = 1.25, then one 1e-9 inside it: the cold tableau once read -2.5e-9 there,
# 1.25e-9 below the exact -1.25e-9, with a weight of -1e-9
EDGE_ORACLE = verify.SampledOracle(np.array([[1.25, 0.0], [1.25, 1.0], [2.5, 0.0], [2.5, 1.0]]),
                                   np.array([0.0, -1.25, 0.0, -2.5]))


@settings(max_examples=30, deadline=None)
@given(oracle_query_runs())
@example((EDGE_ORACLE, [np.array([1.25, 0.0]), np.array([1.25, 1e-9])]))
def test_a_certified_set_gives_the_cold_answers_and_the_same_bits_twice(case):
    oracle, queries = case
    first = _certified_run(oracle, queries)
    _assert_cold_answers(oracle, queries, first)
    for res, again in zip(first, _certified_run(oracle, queries)):
        assert same(again, res)


@settings(max_examples=30, deadline=None)
@given(oracle_query_runs())
@example((_thin_box_oracle(), [THIN_BOX_QUERY]))
def test_no_start_is_a_fresh_certified_set_and_asked_again_gives_the_same_bits(case):
    oracle, queries = case
    for x in queries:
        c, a, b = oracle.values, oracle.constraints, np.append(x, 1.0)
        cold = solve_lp(c, a, b)
        bases = CertifiedBases(c, a)
        assert same(cold, solve_lp(c, a, b, start=bases))
        if cold.status == "optimal" and bases.entries == [cold.basis]:  # read from the one entry, not walked from it
            again = solve_lp(c, a, b, start=bases)
            assert same((again.objective, again.x, again.basis), (cold.objective, cold.x, cold.basis))


def test_a_certified_basis_answers_with_no_pivot_and_no_tableau(cold_calls, monkeypatch):
    c, a, b = hull_lp(GRID, GRID_VALUES, NEAR[0][:2])
    dual_calls = record_calls(monkeypatch, simplex, "_dual_simplex")
    bases = CertifiedBases(c, a)
    first = solve_lp(c, a, b, start=bases)
    assert len(cold_calls) == 1 and not dual_calls  # an empty set has no entry to walk from: cold
    assert bases.entries == [first.basis]
    again = solve_lp(c, a, b, start=bases)
    assert len(cold_calls) == 1 and not dual_calls
    assert again.pivots == 0 and again.basis == first.basis
    assert again.objective == first.objective  # both read B^-1 b of the one entry
    walked = solve_lp(c, a, NEAR[1], start=bases)  # outside it: dual pivots from its one entry
    assert len(dual_calls) == 1 and len(cold_calls) == 1 and walked.pivots >= 1
    assert bases.entries == [first.basis, walked.basis]
    back = solve_lp(c, a, NEAR[0], start=bases)
    assert (back.basis, back.pivots) == (first.basis, 0) and len(dual_calls) == 1


def test_a_basis_that_is_not_optimal_is_refused_and_never_returned(monkeypatch):
    oracle = verify.SampledOracle(GRID, GRID_VALUES)
    c, a = oracle.values, oracle.constraints
    query = [0.1, 0.15]
    assert np.linalg.solve(a[:, list(CORNERS)], np.append(query, 1.0)).min() > 0  # inside its triangle
    bases = CertifiedBases(c, a)
    bases._enter(CORNERS)
    assert bases.entries == []  # refused: no walk starts from it
    results = _certified_run(oracle, [query], bases)
    assert results[0].basis != CORNERS
    _assert_cold_answers(oracle, [query], results)

    # the same basis put into the set past its check is returned, and the cold comparison catches it
    bases = CertifiedBases(c, a)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "FEAS_TOL", np.inf)
        bases._enter(CORNERS)
    assert bases.entries == [CORNERS]
    results = _certified_run(oracle, [query], bases)
    assert results[0].basis == CORNERS and results[0].pivots == 0
    with pytest.raises(AssertionError):
        _assert_cold_answers(oracle, [query], results)


def test_a_basis_enters_once_and_only_if_invertible(monkeypatch):
    c, a, b = hull_lp(GRID, GRID_VALUES, NEAR[0][:2])
    basis = solve_lp(c, a, b).basis
    inverted = record_calls(monkeypatch, np.linalg, "inv")
    bases = CertifiedBases(c, a)
    bases._enter(basis)
    bases._enter(basis[::-1])  # its columns in another order: found by one lookup, not inverted
    assert bases.entries == [basis] and len(inverted) == 1
    bases._enter((0, 10, 20))  # (0, 0), (0.125, 0.125), (0.25, 0.25): B is singular
    bases._enter(basis[:2])  # B is not square, as after the cold solve drops a redundant row
    assert bases.entries == [basis] and len(inverted) == 3
