import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosdfl import simplex
from cosdfl.core import Sense
from cosdfl.datagen import GenSpec, generate
from cosdfl.errors import DimensionMismatch, NumericalBreakdown
from cosdfl.losses import normalize
from cosdfl.problems import KnapsackOracle, ShortestPathOracle, problem_from_name
from cosdfl.simplex import LinearProgram, SolveStatus, _run_simplex, solve_lp

from brute import brute_lp, brute_shortest_path, dense_tableau_simplex


# the unit simplex x1 + x2 <= 1, x >= 0
UNIT_SIMPLEX = LinearProgram(constraint_matrix=np.array([[1.0, 1.0]]), rhs=np.array([1.0]))


def test_lp_validation():
    with pytest.raises(ValueError):
        LinearProgram(np.array([[1.0]]), np.array([1.0]), upper=np.array([-1.0]))
    with pytest.raises(ValueError):
        LinearProgram(np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(DimensionMismatch,
                       match=r"^constraint matrix must be 2-d, got shape \(2,\)$"):
        LinearProgram(np.array([1.0, 1.0]), np.array([1.0]))


def test_maximize_vertex_and_value():
    # steeper objective picks the x1 vertex of the unit simplex
    sol = solve_lp(UNIT_SIMPLEX, [2.0, 1.0], Sense.MAXIMIZE)
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(2.0)


def test_minimize_stays_at_origin():
    sol = solve_lp(UNIT_SIMPLEX, [2.0, 1.0], Sense.MINIMIZE)
    np.testing.assert_allclose(sol.x, [0.0, 0.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(0.0)


def test_degenerate_tie_is_deterministic():
    # both vertices optimal; smallest-index entering rule picks x1
    sol = solve_lp(UNIT_SIMPLEX, [1.0, 1.0], Sense.MAXIMIZE)
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)
    again = solve_lp(UNIT_SIMPLEX, [1.0, 1.0], Sense.MAXIMIZE)
    np.testing.assert_array_equal(sol.x, again.x)


def test_infeasible_and_unbounded_detection():
    # x <= 1 and x >= 2: every call on the one program repeats the verdict
    infeasible_lp = LinearProgram(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
    infeasible = [solve_lp(infeasible_lp, c, sense) for c, sense in
                  (([1.0], Sense.MAXIMIZE), ([1.0], Sense.MINIMIZE), ([-3.0], Sense.MAXIMIZE))]
    assert all(sol.status is SolveStatus.INFEASIBLE for sol in infeasible)
    unbounded = solve_lp(LinearProgram(np.array([[-1.0, 0.0]]), np.array([0.0])),
                         [1.0, 0.0], Sense.MAXIMIZE)
    assert unbounded.status is SolveStatus.UNBOUNDED
    # a solution that is not optimal carries no vertex and no ranges
    for sol in (*infeasible, unbounded):
        assert sol.x is None and sol.ranges is None


def test_ranging_single_variable_frozen():
    # maximize 5x on x <= 1: any non-negative coefficient keeps x*=1
    lp = LinearProgram(np.array([[1.0]]), np.array([1.0]))
    lower, upper = solve_lp(lp, [5.0], Sense.MAXIMIZE).ranges
    assert lower[0] == pytest.approx(0.0)
    assert upper[0] == np.inf


def test_ranging_two_variable_frozen():
    # x*=(1,0); the basis flips when c1 drops below c2=1
    lower, upper = solve_lp(UNIT_SIMPLEX, [2.0, 1.0], Sense.MAXIMIZE).ranges
    assert lower[0] == pytest.approx(1.0)
    assert upper[0] == np.inf
    # nonbasic x2 can rise until it matches c1=2
    assert upper[1] == pytest.approx(2.0)
    assert lower[1] == -np.inf


def test_range_contains_own_coefficient_randomized(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        a = rng.uniform(0.1, 2.0, (m, d))
        b = rng.uniform(1.0, 5.0, m)
        c = rng.normal(0.0, 2.0, d)
        sense = Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE
        lp = LinearProgram(a, b, upper=np.where(rng.random(d) < 0.5,
                                                rng.uniform(0.5, 3.0, d), np.inf))
        sol = solve_lp(lp, c, sense)
        assert sol.status is SolveStatus.OPTIMAL
        lower, upper = sol.ranges
        assert np.all(lower <= c + 1e-9)
        assert np.all(upper >= c - 1e-9)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_matches_brute_force_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    d = int(rng.integers(1, 5))
    a = rng.uniform(0.1, 2.0, (m, d))
    b = rng.uniform(1.0, 5.0, m)
    c = rng.normal(0.0, 2.0, d)
    maximize = bool(rng.random() < 0.5)
    upper = np.where(rng.random(d) < 0.5, rng.uniform(0.5, 3.0, d), np.inf)
    sol = solve_lp(LinearProgram(a, b, upper=upper), c,
                   Sense.MAXIMIZE if maximize else Sense.MINIMIZE)
    assert sol.status is SolveStatus.OPTIMAL
    _, best = brute_lp(a, b, c, maximize, upper=upper)
    assert sol.objective_value == pytest.approx(best, abs=1e-7)
    # the solver's vertex is feasible and attains that value
    x = sol.x
    assert np.all(a @ x <= b + 1e-7)
    assert np.all(x >= -1e-9) and np.all(x <= upper + 1e-7)
    assert float(c @ x) == pytest.approx(best, abs=1e-7)


def test_ranging_endpoints_keep_decision_optimal(rng):
    # move one coefficient to each finite endpoint of its range: the original
    # vertex must still attain the re-solved optimum there
    for _ in range(30):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        lp = LinearProgram(rng.uniform(0.1, 2.0, (m, d)), rng.uniform(1.0, 5.0, m))
        c = rng.normal(0.0, 2.0, d)
        sense = Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE
        sol = solve_lp(lp, c, sense)
        lower, upper = sol.ranges
        for j in range(d):
            for endpoint in (lower[j], upper[j]):
                if not np.isfinite(endpoint):
                    continue
                c2 = c.copy()
                c2[j] = endpoint
                re_solved = solve_lp(lp, c2, sense)
                attained = float(c2 @ sol.x)
                assert attained == pytest.approx(re_solved.objective_value, abs=1e-7)


def test_ranging_endpoints_are_tight(rng):
    # sound ranges could still be too narrow: one step (relative 1e-6) past
    # any finite endpoint, the brute-force optimum must leave x*
    checked = 0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        a = rng.uniform(0.1, 2.0, (m, d))
        b = rng.uniform(1.0, 5.0, m)
        c = rng.normal(0.0, 2.0, d)
        maximize = bool(rng.random() < 0.5)
        upper = np.where(rng.random(d) < 0.5, rng.uniform(0.5, 3.0, d), np.inf)
        sol = solve_lp(LinearProgram(a, b, upper=upper), c,
                       Sense.MAXIMIZE if maximize else Sense.MINIMIZE)
        x = sol.x
        active = (np.sum(np.abs(a @ x - b) <= 1e-9) + np.sum(np.abs(x) <= 1e-9)
                  + np.sum(np.abs(x - upper) <= 1e-9))
        if active != d:
            continue  # degenerate vertex: another basis of x* may range wider
        lower, upper_c = sol.ranges
        for j in range(d):
            for bound, outward in ((lower[j], -1.0), (upper_c[j], 1.0)):
                if not np.isfinite(bound):
                    continue
                c2 = c.copy()
                c2[j] = bound + outward * 1e-6 * max(1.0, abs(bound))
                x_brute, _ = brute_lp(a, b, c2, maximize, upper=upper)
                assert not np.allclose(x_brute, x, atol=1e-7), (m, d, j, bound)
                checked += 1
    assert checked >= 200


def test_interior_of_range_preserves_decision(rng):
    # strictly inside the range the solver returns the very same vertex
    sol = solve_lp(UNIT_SIMPLEX, [2.0, 1.0], Sense.MAXIMIZE)
    lower, upper = sol.ranges
    for c1 in (1.5, 2.0, 3.0, 10.0):
        assert lower[0] < c1
        re_solved = solve_lp(UNIT_SIMPLEX, [c1, 1.0], Sense.MAXIMIZE)
        np.testing.assert_allclose(re_solved.x, sol.x, atol=1e-9)


def test_relax_knapsack_is_fractional():
    oracle = KnapsackOracle(weights=[[2.0, 3.0, 4.0, 5.0]], capacities=[6.0])
    c = np.array([3.0, 4.0, 5.0, 6.0])
    sol = solve_lp(oracle.relaxation, c, oracle.sense)
    # the fractional optimum upper-bounds the integral one (which is 8)
    assert sol.objective_value >= 8.0 - 1e-9
    assert np.all(sol.x <= 1.0 + 1e-9)


def test_relax_grid_matches_dp_exactly(rng):
    # arc-flow LPs of series-parallel grids are integral: LP value == DP value
    oracle = ShortestPathOracle(rows=3, cols=3)
    for _ in range(10):
        c = rng.uniform(0.1, 5.0, oracle.d)
        sol = solve_lp(oracle.relaxation, c, oracle.sense)
        x_dp = oracle.solve_many(c[None])[0]
        assert sol.objective_value == pytest.approx(float(c @ x_dp), abs=1e-8)


# --- one phase-1 start per LinearProgram ---------------------------------------

def _phase_one_lp(rng):
    """A random box-bounded LP whose slack basis is infeasible, so phase 1 runs.

    It is built around an interior point x0: ``>=`` rows enter negated, with
    a negative rhs, and equalities as <=/>= pairs, the first pair twice.
    Equality pairs leave artificials basic at level zero when phase 1 ends,
    so the start also pivots those out.
    """
    d = int(rng.integers(2, 5))
    upper = rng.uniform(1.0, 3.0, d)
    x0 = rng.uniform(0.2, 0.8, d) * upper
    le = rng.uniform(0.1, 2.0, (int(rng.integers(1, 3)), d))
    ge = rng.uniform(0.1, 2.0, (int(rng.integers(1, 3)), d))
    eq = rng.normal(0.0, 1.0, (int(rng.integers(1, d)), d))
    eq = np.vstack([eq, eq[:1]])
    a = np.vstack([le, -ge, eq, -eq])
    b = np.concatenate([le @ x0 + rng.uniform(0.1, 1.0, len(le)),
                        -(ge @ x0) * rng.uniform(0.5, 0.9, len(ge)),
                        eq @ x0, -(eq @ x0)])
    return a, b, upper


def _check_shared_program(a, b, upper, objectives, reference):
    """Solve every (objective, sense) on one LinearProgram, forwards then
    backwards. Each answer must equal, bit for bit, the solve on a fresh
    program built from the same arrays, and its value must match
    ``reference(c, maximize)``."""
    fresh = [solve_lp(LinearProgram(a, b, upper=upper), c, sense) for c, sense in objectives]
    shared = LinearProgram(a, b, upper=upper)
    for order in (range(len(objectives)), reversed(range(len(objectives)))):
        for k in order:
            sol, ref = solve_lp(shared, *objectives[k]), fresh[k]
            assert sol.status is ref.status is SolveStatus.OPTIMAL
            assert np.array_equal(sol.x, ref.x)
            assert sol.objective_value == ref.objective_value
            assert all(np.array_equal(s, r) for s, r in zip(sol.ranges, ref.ranges))
    for (c, sense), ref in zip(objectives, fresh):
        best = reference(c, sense is Sense.MAXIMIZE)
        assert ref.objective_value == pytest.approx(best, abs=1e-7)


def test_phase_one_start_serves_every_objective(rng):
    for _ in range(12):
        a, b, upper = _phase_one_lp(rng)
        tableau, basis, _ = LinearProgram(a, b, upper=upper)._start
        # every row has its own slack: phase 1 keeps each folded row and
        # releases every artificial, the duplicated equality pair included
        assert tableau.shape[0] == len(b) + np.isfinite(upper).sum()
        assert basis.max() < tableau.shape[1] - 1
        objectives = [(rng.normal(0.0, 2.0, len(upper)), sense)
                      for sense in (Sense.MAXIMIZE, Sense.MINIMIZE) * 2]
        _check_shared_program(a, b, upper, objectives,
                              lambda c, maximize: brute_lp(a, b, c, maximize, upper=upper)[1])


@pytest.mark.parametrize("name", ["sp3x3", "sp5x5", "tsp5", "ks8"])
def test_relaxation_start_serves_every_objective(name, rng):
    problem = problem_from_name(name)
    lp = problem.relaxation
    a, b, upper = lp.constraint_matrix, lp.rhs, lp.upper
    if name == "sp5x5":
        # the arc-flow LP of a grid is integral; vertex enumeration is out of reach
        def reference(c, maximize):
            return brute_shortest_path(5, 5, c)[1]
    elif name.startswith("ks"):
        def reference(c, maximize):
            return brute_lp(a, b, c, maximize, upper=upper)[1]
    else:
        # grid and TSP rows are equality pairs (row, -row)
        assert np.array_equal(a[1::2], -a[0::2]) and np.array_equal(b[1::2], -b[0::2])

        def reference(c, maximize):
            return brute_lp(np.zeros((0, lp.d)), np.zeros(0), c, maximize, upper=upper,
                            a_eq=a[0::2], b_eq=b[0::2])[1]
    objectives = [(rng.uniform(0.1, 5.0, lp.d), problem.sense) for _ in range(3)]
    _check_shared_program(a, b, upper, objectives, reference)


# --- the sparse pivot loop against the dense tableau loop ----------------------

def _assert_matches_dense(lp, c, sense):
    """Solve on ``lp`` and require the dense reference's status, vertex,
    objective value, ranges and phase-1 start, bit for bit, and a start of
    the size that ``lp.nbytes`` states; returns the reference's result."""
    ref = dense_tableau_simplex(lp.constraint_matrix, lp.rhs, lp.upper, c,
                                sense is Sense.MAXIMIZE)
    sol = solve_lp(lp, c, sense)
    assert sol.status.value == ref.status
    if ref.start is None:
        assert lp._start is None
    else:
        tableau, basis, _ = lp._start
        assert np.array_equal(tableau, ref.start[0])
        assert np.array_equal(basis, ref.start[1])
        held = (lp.constraint_matrix, lp.rhs, lp.upper, tableau, basis)
        assert lp.nbytes == sum(arr.nbytes for arr in held)
    if ref.status == "optimal":
        assert np.array_equal(sol.x, ref.x)
        assert sol.objective_value == ref.objective_value
        assert all(np.array_equal(s, r) for s, r in zip(sol.ranges, ref.ranges))
    return ref


@pytest.mark.parametrize("name", ["sp3x3", "sp5x5", "sp8x8", "ks8", "ks16", "ks48",
                                  "tsp5", "tsp8"])
def test_matches_dense_tableau_on_generator_rows(name):
    # raw and unit-norm generator costs, under the problem's sense and the other
    problem = problem_from_name(name)
    costs = generate(GenSpec(3, 0, 0, seed=1), problem).costs
    lp = problem.relaxation
    statuses = set()
    for objectives in (costs, normalize(costs, range(len(costs)))):
        for sense in Sense:
            for c in objectives:
                statuses.add(_assert_matches_dense(lp, c, sense).status)
    assert "optimal" in statuses


def test_matches_dense_tableau_when_phase_one_needs_artificials(rng):
    # box LPs with negative rhs rows start from artificials that phase 1 drives out
    for _ in range(20):
        a, b, upper = _phase_one_lp(rng)
        assert (b < 0.0).any()
        lp = LinearProgram(a, b, upper=upper)
        for sense in Sense:
            ref = _assert_matches_dense(lp, rng.normal(0.0, 2.0, len(upper)), sense)
            assert ref.status == "optimal"


def test_matches_dense_tableau_after_blands_rule_takes_over():
    # Beale's LP cycles under Dantzig's rule with these tie-breaks: the
    # degenerate budget runs out and Bland's rule finishes at -5/4
    lp = LinearProgram(np.array([[0.25, -8.0, -1.0, 9.0],
                                 [0.5, -12.0, -0.5, 3.0],
                                 [0.0, 0.0, 1.0, 0.0]]), np.array([0.0, 0.0, 1.0]))
    ref = _assert_matches_dense(lp, np.array([-0.75, 20.0, -0.5, 6.0]), Sense.MINIMIZE)
    assert ref.bland
    assert ref.status == "optimal" and ref.objective_value == pytest.approx(-1.25)


def test_nan_reduced_cost_raises():
    # argmin stops at a NaN; the loop names it instead of reading it as optimal
    tableau = np.array([[1.0, np.nan, 1.0, 1.0]])
    with pytest.raises(NumericalBreakdown, match="column 1"):
        _run_simplex(tableau, np.array([2]), np.array([-1.0, 0.0, 0.0]), 10)


def test_pivot_below_tolerance_raises_under_blands_rule():
    # minimizing -x under 1e-12 x <= 1: the one positive pivot-column entry
    # is below PIVOT_TOL, so Dantzig's rule gives way to Bland's, which raises
    lp = LinearProgram(np.array([[1e-12]]), np.array([1.0]))
    with pytest.raises(NumericalBreakdown,
                       match="^no pivot above 1e-10 in column 0 under Bland's rule$"):
        solve_lp(lp, [-1.0], Sense.MINIMIZE)


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
    lp = LinearProgram(np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(NumericalBreakdown, match="^simplex iteration limit exceeded$"):
        solve_lp(lp, [1.0, 2.0], Sense.MAXIMIZE)
