import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosdfl.core import Sense
from cosdfl.errors import NotOptimal
from cosdfl.problems import (GridSpec, KnapsackOracle, KnapsackSpec,
                             ShortestPathOracle)
from cosdfl.simplex import LinearProgram, SolveStatus, cost_ranging, solve_lp

from brute import brute_lp


def simplex_lp(c, sense=Sense.MAXIMIZE):
    # the unit simplex x1 + x2 <= 1, x >= 0
    return LinearProgram(constraint_matrix=np.array([[1.0, 1.0]]),
                         rhs=np.array([1.0]), objective=np.asarray(c, float),
                         sense=sense)


def test_lp_validation():
    with pytest.raises(ValueError):
        LinearProgram(np.array([[1.0]]), np.array([1.0]), np.array([1.0]),
                      Sense.MAXIMIZE, lower=np.array([-np.inf]))
    with pytest.raises(ValueError):
        LinearProgram(np.array([[1.0]]), np.array([1.0]), np.array([1.0]),
                      Sense.MAXIMIZE, lower=np.array([2.0]), upper=np.array([1.0]))


def test_maximize_vertex_and_value():
    # steeper objective picks the x1 vertex of the unit simplex
    sol = solve_lp(simplex_lp([2.0, 1.0]))
    assert sol.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(2.0)


def test_minimize_stays_at_origin():
    sol = solve_lp(simplex_lp([2.0, 1.0], sense=Sense.MINIMIZE))
    np.testing.assert_allclose(sol.x, [0.0, 0.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(0.0)


def test_degenerate_tie_is_deterministic():
    # both vertices optimal; smallest-index entering rule picks x1
    sol = solve_lp(simplex_lp([1.0, 1.0]))
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)
    again = solve_lp(simplex_lp([1.0, 1.0]))
    np.testing.assert_array_equal(sol.x, again.x)


def test_infeasible_and_unbounded_detection():
    infeasible = LinearProgram(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]),
                               np.array([1.0]), Sense.MAXIMIZE)
    assert solve_lp(infeasible).status is SolveStatus.INFEASIBLE
    unbounded = LinearProgram(np.array([[-1.0, 0.0]]), np.array([0.0]),
                              np.array([1.0, 0.0]), Sense.MAXIMIZE)
    assert solve_lp(unbounded).status is SolveStatus.UNBOUNDED


def test_shifted_lower_bounds():
    # min x on 2 <= x <= 5 with a slack row; optimum sits at the lower bound
    lp = LinearProgram(np.array([[1.0]]), np.array([10.0]), np.array([1.0]),
                       Sense.MINIMIZE, lower=np.array([2.0]), upper=np.array([5.0]))
    sol = solve_lp(lp)
    assert sol.x[0] == pytest.approx(2.0)
    assert sol.objective_value == pytest.approx(2.0)


def test_ranging_single_variable_frozen():
    # maximize 5x on x <= 1: any non-negative coefficient keeps x*=1
    lp = LinearProgram(np.array([[1.0]]), np.array([1.0]), np.array([5.0]),
                       Sense.MAXIMIZE)
    sol = solve_lp(lp)
    lower, upper = cost_ranging(lp, sol)
    assert lower[0] == pytest.approx(0.0)
    assert upper[0] == np.inf


def test_ranging_two_variable_frozen():
    # x*=(1,0); the basis flips when c1 drops below c2=1
    lp = simplex_lp([2.0, 1.0])
    sol = solve_lp(lp)
    lower, upper = cost_ranging(lp, sol)
    assert lower[0] == pytest.approx(1.0)
    assert upper[0] == np.inf
    # nonbasic x2 can rise until it matches c1=2
    assert upper[1] == pytest.approx(2.0)
    assert lower[1] == -np.inf


def test_ranging_requires_optimal():
    lp = LinearProgram(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]),
                       np.array([1.0]), Sense.MAXIMIZE)
    sol = solve_lp(lp)
    with pytest.raises(NotOptimal):
        cost_ranging(lp, sol)


def test_range_contains_own_coefficient_randomized(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        lp = LinearProgram(rng.uniform(0.1, 2.0, (m, d)),
                           rng.uniform(1.0, 5.0, m),
                           rng.normal(0.0, 2.0, d),
                           Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE,
                           upper=np.where(rng.random(d) < 0.5,
                                          rng.uniform(0.5, 3.0, d), np.inf))
        sol = solve_lp(lp)
        assert sol.status is SolveStatus.OPTIMAL
        lower, upper = cost_ranging(lp, sol)
        assert np.all(lower <= lp.objective + 1e-9)
        assert np.all(upper >= lp.objective - 1e-9)


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
    lp = LinearProgram(a, b, c, Sense.MAXIMIZE if maximize else Sense.MINIMIZE,
                       upper=upper)
    sol = solve_lp(lp)
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
        lp = LinearProgram(rng.uniform(0.1, 2.0, (m, d)),
                           rng.uniform(1.0, 5.0, m),
                           rng.normal(0.0, 2.0, d),
                           Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE)
        sol = solve_lp(lp)
        lower, upper = cost_ranging(lp, sol)
        for j in range(d):
            for endpoint in (lower[j], upper[j]):
                if not np.isfinite(endpoint):
                    continue
                c2 = np.array(lp.objective)
                c2[j] = endpoint
                re_solved = solve_lp(lp.with_objective(c2))
                attained = float(c2 @ sol.x)
                assert attained == pytest.approx(re_solved.objective_value, abs=1e-7)


def test_interior_of_range_preserves_decision(rng):
    # strictly inside the range the solver returns the very same vertex
    lp = simplex_lp([2.0, 1.0])
    sol = solve_lp(lp)
    lower, upper = cost_ranging(lp, sol)
    for c1 in (1.5, 2.0, 3.0, 10.0):
        assert lower[0] < c1
        re_solved = solve_lp(lp.with_objective(np.array([c1, 1.0])))
        np.testing.assert_allclose(re_solved.x, sol.x, atol=1e-9)


def test_relax_knapsack_is_fractional():
    oracle = KnapsackOracle(KnapsackSpec(weights=np.array([[2.0, 3.0, 4.0, 5.0]]),
                                         capacities=np.array([6.0])))
    lp = oracle.lp_form()
    c = np.array([3.0, 4.0, 5.0, 6.0])
    sol = solve_lp(lp.with_objective(c))
    # the fractional optimum upper-bounds the integral one (which is 8)
    assert sol.objective_value >= 8.0 - 1e-9
    assert np.all(sol.x <= 1.0 + 1e-9)


def test_relax_grid_matches_dp_exactly(rng):
    # arc-flow LPs of series-parallel grids are integral: LP value == DP value
    spec = GridSpec(rows=3, cols=3)
    oracle = ShortestPathOracle(spec)
    lp = oracle.lp_form()
    for _ in range(10):
        c = rng.uniform(0.1, 5.0, spec.d)
        sol = solve_lp(lp.with_objective(c))
        x_dp = oracle.solve_many(c[None])[0]
        assert sol.objective_value == pytest.approx(float(c @ x_dp), abs=1e-8)
