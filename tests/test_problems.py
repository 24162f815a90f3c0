import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosdfl import problems
from cosdfl.core import Sense
from cosdfl.datagen import GenSpec, generate
from cosdfl.errors import DimensionMismatch
from cosdfl.problems import (HELD_KARP_MAX_NODES, KnapsackOracle,
                             ShortestPathOracle, TspOracle, load_problem,
                             make_knapsack, problem_from_name)
from cosdfl.simplex import LinearProgram, SolveStatus, solve_lp

import cosdfl.simplex as simplex_mod

from brute import (all_binary_vectors, brute_knapsack, brute_shortest_path,
                   brute_tsp, enumerate_grid_paths, grid_relaxation_rows,
                   suffix_set_shortest_path, tsp_relaxation_rows)


# --- solver paths -----------------------------------------------------------

PATHS = ("table", "recurrence")
# a knapsack's recurrence is its DP over remaining capacities, and its test ids say so
KNAPSACK_PATHS = pytest.mark.parametrize("path", PATHS, ids=["table", "dp"])


def solving_by(oracle, path):
    """``oracle``, made to solve by ``path``: its decision table, or its
    family's recurrence (the knapsack DP, the grid DP or Held-Karp). The
    table is looked up on the first solve, so unbounded table budgets while
    looking it up force a table, and zero budgets force the recurrence; no
    other test does. The lookup goes to a store of its own, so no other
    oracle of the instance gets the forced table, or its absence."""
    budget = np.inf if path == "table" else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "KNAPSACK_TABLE_MAX_ENTRIES", budget)
        mp.setattr(problems, "SIZE_TABLE_MAX_ENTRIES", budget)
        mp.setattr(problems, "_STORE", problems._InstanceStore(problems._STORE.max_bytes))
        assert (oracle.decision_table is None) is (path == "recurrence")
    return oracle


# --- knapsack ---------------------------------------------------------------


def test_knapsack_frozen_example():
    oracle = KnapsackOracle(weights=[[2.0, 3.0, 4.0, 5.0]], capacities=[6.0])
    x = oracle.solve_many(np.array([3.0, 4.0, 5.0, 6.0])[None])[0]
    assert x.tolist() == [1.0, 0.0, 1.0, 0.0]  # {0,2}: weight 6, value 8
    x = oracle.solve_many(np.array([6.0, 5.0, 4.0, 3.0])[None])[0]
    assert x.tolist() == [1.0, 1.0, 0.0, 0.0]  # {0,1}: weight 5, value 11


def test_knapsack_value_ties_break_lexicographically():
    oracle = KnapsackOracle(weights=[[1.0, 1.0]], capacities=[1.0])
    x = oracle.solve_many(np.array([2.0, 2.0])[None])[0]
    assert x.tolist() == [0.0, 1.0]  # (0,1) precedes (1,0)


def test_knapsack_ignores_nonpositive_costs():
    oracle = KnapsackOracle(weights=[[1.0, 1.0, 1.0]], capacities=[3.0])
    x = oracle.solve_many(np.array([-1.0, 0.0, 2.0])[None])[0]
    assert x.tolist() == [0.0, 0.0, 1.0]


def test_knapsack_multidimensional_constraint():
    oracle = KnapsackOracle(weights=[[2.0, 3.0], [4.0, 1.0]], capacities=[5.0, 4.0])
    # {0,1} violates the second dimension (5 > 4); best single item wins
    x = oracle.solve_many(np.array([3.0, 4.0])[None])[0]
    assert x.tolist() == [0.0, 1.0]


def test_knapsack_rejects_negative_weights():
    with pytest.raises(ValueError):
        KnapsackOracle(weights=[[-1.0]], capacities=[1.0])
    with pytest.raises(DimensionMismatch):
        KnapsackOracle(weights=[[1.0, 2.0]], capacities=[3.0, 3.0])
    with pytest.raises(DimensionMismatch, match=r"^weights must be a \(q, d\) matrix$"):
        KnapsackOracle(weights=[1.0, 2.0], capacities=[3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_knapsack_rejects_non_finite_weights(bad):
    # a NaN or inf weight would reach the LP relaxation's constraint matrix,
    # or, under python -O, a table that no check reads
    with pytest.raises(ValueError, match="weights contain non-finite entries"):
        KnapsackOracle([[bad, 1.0]], [1.0])
    payload = {"family": "knapsack", "params": {"weights": [[1.0, bad]], "capacities": [2.0]}}
    with pytest.raises(ValueError, match="weights contain non-finite entries"):
        problems.problem_from_dict(json.loads(json.dumps(payload)))


@settings(max_examples=60)
@given(st.sampled_from(PATHS), st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_knapsack_matches_brute_force(path, tenths, fractional, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 11))
    q = int(rng.integers(1, 3))
    # multiples of 0.7 leave remaining capacities that are not integers,
    # and loads at capacity that round either side of it
    unit = 0.7 if fractional else 1.0
    oracle = solving_by(KnapsackOracle(rng.integers(1, 7, size=(q, d)) * unit,
                                       rng.integers(d, 3 * d, size=q) * unit), path)
    # half-integer costs make exact value ties common, exercising lex order;
    # multiples of 0.1 make ties whose sums round apart, exercising the band
    costs = (rng.integers(0, 30, size=d) / 10.0 if tenths
             else rng.integers(0, 9, size=d) / 2.0)
    x = oracle.solve_many(costs[None])[0]
    x_brute, v_brute = brute_knapsack(oracle.weights, oracle.capacities, costs)
    assert float(costs @ x) == pytest.approx(v_brute, abs=1e-12)
    np.testing.assert_array_equal(x, x_brute)


@pytest.mark.parametrize("fractional", [False, True])
def test_knapsack_table_is_every_feasible_decision_in_lex_order(fractional):
    rng = np.random.default_rng(5)
    weights = rng.integers(1, 7, size=(2, 9)) * (0.7 if fractional else 1.0)
    capacities = np.array([9.0, 12.6]) if fractional else np.array([9.0, 13.0])
    oracle = KnapsackOracle(weights, capacities)
    xs = all_binary_vectors(9)
    feasible = xs[np.all(xs @ oracle.weights.T <= oracle.capacities + 1e-9, axis=1)]
    assert 1 < len(feasible) < len(xs)
    np.testing.assert_array_equal(oracle.decision_table, feasible)


@KNAPSACK_PATHS
def test_knapsack_load_at_capacity_fits_in_any_summation_order(path):
    # multiples of 0.7 sum to slightly different loads in different
    # orders; both paths take the loads down in index order, so the set
    # that fills the knapsack exactly fits on both
    weights = [[2.8, 2.0999999999999996, 0.7, 3.5, 4.199999999999999, 1.4,
                2.0999999999999996, 0.7],
               [3.5, 2.0999999999999996, 1.4, 3.5, 0.7, 2.8, 2.0999999999999996, 3.5],
               [2.0999999999999996, 3.5, 1.4, 3.5, 4.199999999999999, 1.4, 1.4, 2.8]]
    costs = np.array([0.5, 4.0, 1.0, 4.0, 0.5, 2.0, -1.0, 3.0])
    oracle = solving_by(KnapsackOracle(weights, [9.0, 19.8, 12.6]), path)
    x = oracle.solve_many(costs[None])[0]
    assert x.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert float(costs @ x) == 14.0
    np.testing.assert_array_equal(x, brute_knapsack(oracle.weights, oracle.capacities,
                                                    costs)[0])


@KNAPSACK_PATHS
def test_knapsack_near_ties_break_lexicographically(path):
    # {0} is better by 1e-12, inside the 1e-9 tie band, so {1} -- first in
    # lexicographic order -- wins; an exact argmax would pick {0}
    oracle = solving_by(KnapsackOracle([[1.0, 1.0]], [1.0]), path)
    x = oracle.solve_many(np.array([[1.0 + 1e-12, 1.0]]))[0]
    assert x.tolist() == [0.0, 1.0]


@KNAPSACK_PATHS
def test_knapsack_tie_that_rounds_apart_matches_brute_force(path):
    # {1,2,3} and {0,2,3} both cost 2.5 + 2.9 + 2.2, but over the enumeration
    # the sums round to 7.6 and 7.6000000000000005: an exact argmax takes
    # {0,2,3}, the tie band the lexicographically first {1,2,3}
    oracle = solving_by(KnapsackOracle([[2.0, 5.0, 1.0, 1.0]], [7.0]), path)
    costs = np.array([2.5, 2.5, 2.9, 2.2])
    x = oracle.solve_many(costs[None])[0]
    assert x.tolist() == [0.0, 1.0, 1.0, 1.0]
    np.testing.assert_array_equal(x, brute_knapsack(oracle.weights, oracle.capacities,
                                                    costs)[0])


def test_knapsack_dp_follows_a_best_completion_that_rounds_below_the_band():
    # {0} is best at 1.0; {1, 2, 4} reaches the band 1 - 1e-9 when summed
    # from the last item, c1 + (c2 + c4), as the backward pass does, but
    # falls an ulp short of it summed from the first, (c1 + c2) + c4, as the
    # forward walk does. The walk must still skip item 3 (cost -1), which
    # fits, rather than take it because skipping no longer reaches the band.
    # The table, which sums each row once, here puts {1, 2, 4} an ulp
    # outside the band and takes {0}: the paths part only at such an edge
    costs = np.array([1.0, 0.6626540478400544, 0.1912755577277722, -1.0,
                      0.14607039343217337])
    assert costs[1] + (costs[2] + costs[4]) == 1.0 - 1e-9
    assert (costs[1] + costs[2]) + costs[4] < 1.0 - 1e-9
    oracle = solving_by(KnapsackOracle([[10.0, 1.0, 1.0, 1.0, 1.0]], [10.0]), "recurrence")
    assert oracle.solve_many(costs[None])[0].tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]


def test_knapsack_dp_tie_breaking_is_frozen():
    # half-integer costs in [-1, 2] past the table budget: ten of the twelve
    # rows have two to fourteen optimal item sets; the items were recorded
    # from the row-by-row branch-and-bound that the DP replaced, so a change
    # to the tie rule shows here
    expected = {"ks64": [[24, 40, 43, 61], [5, 32, 39, 42, 47], [6, 7, 23, 33, 43],
                         [43, 48, 55, 63], [29, 43, 56, 63], [32, 37, 56, 59]],
                "ks128": [[43, 95, 100, 106, 107], [65, 106, 113, 121, 123],
                          [7, 8, 78, 102, 111], [38, 41, 48, 72, 107],
                          [8, 40, 107, 119, 121], [42, 86, 106, 111, 119]]}
    for name, items in expected.items():
        oracle = problem_from_name(name)
        assert oracle.decision_table is None
        costs = np.random.default_rng(oracle.d).integers(-2, 5, size=(6, oracle.d)) / 2.0
        x = oracle.solve_many(costs)
        assert [np.flatnonzero(row).tolist() for row in x] == items, name
        # the same rows, 40 times over, in a batch of several DP chunks
        steps, last_loads = oracle._load_plan
        loads = sum(len(skip) for skip, _ in steps) + last_loads
        assert 240 > 2 * (problems.KNAPSACK_DP_CHUNK_VALUES // loads)
        x = oracle.solve_many(np.tile(costs, (40, 1)))
        assert [np.flatnonzero(row).tolist() for row in x] == items * 40, name


# --- grid shortest path -----------------------------------------------------

def test_grid_cost_layout():
    # arcs east (0,0)>(0,1), east (1,0)>(1,1), south (0,0)>(1,0), south (0,1)>(1,1):
    # each path is the one whose arcs cost 0, the other's cost 1
    for path in PATHS:
        grid = solving_by(ShortestPathOracle(rows=2, cols=2), path)
        assert grid.d == 4
        for arcs in ([1.0, 0.0, 0.0, 1.0],   # east, then south
                     [0.0, 1.0, 1.0, 0.0]):  # south, then east
            assert grid.solve_many(1.0 - np.array([arcs]))[0].tolist() == arcs
    with pytest.raises(ValueError):
        ShortestPathOracle(rows=1, cols=3)


def test_grid_frozen_example():
    x = ShortestPathOracle(2, 2).solve_many(np.array([1.0, 5.0, 2.0, 1.0])[None])[0]
    assert x.tolist() == [1.0, 0.0, 0.0, 1.0]  # east then south, cost 2


def test_grid_tie_breaks_to_lex_smallest_indicator():
    x = ShortestPathOracle(2, 2).solve_many(np.ones(4)[None])[0]
    assert x.tolist() == [0.0, 1.0, 1.0, 0.0]  # south-then-east precedes


def test_grid_handles_negative_costs():
    x = ShortestPathOracle(2, 2).solve_many(np.array([-5.0, 1.0, 1.0, -5.0])[None])[0]
    assert x.tolist() == [1.0, 0.0, 0.0, 1.0]  # cost -10 beats cost 2


def test_grid_path_count():
    assert len(enumerate_grid_paths(3, 3)) == 6
    assert len(enumerate_grid_paths(5, 5)) == 70


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_grid_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 5))
    cols = int(rng.integers(2, 5))
    oracle = ShortestPathOracle(rows, cols)
    costs = rng.integers(-3, 10, size=oracle.d).astype(float)
    x = oracle.solve_many(costs[None])[0]
    x_brute, v_brute = brute_shortest_path(rows, cols, costs)
    assert float(costs @ x) == pytest.approx(v_brute, abs=1e-12)
    np.testing.assert_array_equal(x, x_brute)


def assert_rows_match_the_suffix_set_reference(oracle, costs):
    x = oracle.solve_many(costs)
    path = PATHS[oracle.decision_table is None]
    for r, c in enumerate(costs):
        np.testing.assert_array_equal(
            x[r], suffix_set_shortest_path(oracle.rows, oracle.cols, c),
            err_msg=f"{oracle.name} by {path}, row {r}")


def generator_rows_and_spo_shifts(oracle, seed):
    """60 generator cost rows and their spo+ shifts 2P - C, with P the
    least-squares linear fit of the costs on the features."""
    data = generate(GenSpec(n_train=60, n_val=0, n_test=0, seed=seed), oracle)
    features = np.hstack([data.features, np.ones((data.n, 1))])
    fitted = features @ np.linalg.lstsq(features, data.costs, rcond=None)[0]
    return data.costs, 2.0 * fitted - data.costs


@pytest.mark.parametrize("name", ["sp5x5", "sp8x8"])
def test_grid_matches_the_suffix_set_reference_on_generator_rows_and_spo_shifts(name):
    # 70 and 3,432 paths: the reference DP stands in for enumeration. Most
    # spo+ shifts have negative entries
    oracle = problem_from_name(name)
    costs, shifts = generator_rows_and_spo_shifts(oracle, 5)
    assert (shifts < 0.0).any(axis=1).mean() > 0.5
    assert_rows_match_the_suffix_set_reference(oracle, costs)
    assert_rows_match_the_suffix_set_reference(oracle, shifts)


@pytest.mark.parametrize("rows", range(2, 7))
@pytest.mark.parametrize("cols", range(2, 7))
def test_grid_matches_the_suffix_set_reference_on_tie_heavy_costs(rows, cols):
    # signed half-integer costs in [-1, 1]: most rows hold several optimal paths
    rng = np.random.default_rng(100 * rows + cols)
    costs = rng.integers(-2, 3, size=(40, ShortestPathOracle(rows, cols).d)) / 2.0
    for path in PATHS:
        assert_rows_match_the_suffix_set_reference(
            solving_by(ShortestPathOracle(rows, cols), path), costs)


# --- tsp ----------------------------------------------------------------------

def heuristic_tour(costs, n):
    """The heuristic's tour for one cost row, called directly, and its cost.

    The oracle runs the heuristic only above ``HELD_KARP_MAX_NODES`` nodes,
    so small instances reach it through the private function.
    """
    dist = TspOracle(n)._edge_matrices(costs[None])[0]
    tour = problems._nearest_neighbor_2opt(dist)
    assert tour[0] == 0 and sorted(tour) == list(range(n))  # a tour from node 0
    return tour, float(sum(dist[a, b] for a, b in zip(tour, tour[1:] + tour[:1])))


def test_tsp_frozen_unit_square():
    oracle = TspOracle(4)
    # corners of the unit square; the perimeter tour (cost 4) is optimal
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    costs = np.array([np.linalg.norm(pts[i] - pts[j])
                      for i in range(4) for j in range(i + 1, 4)])
    x = oracle.solve_many(costs[None])[0]
    assert oracle.exact
    assert x.tolist() == [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
    assert float(costs @ x) == pytest.approx(4.0)
    _, heuristic_cost = heuristic_tour(costs, 4)
    assert heuristic_cost == pytest.approx(4.0)


def test_tsp_cost_layout():
    # the edges in cost order; each tour is the one whose edges cost 0
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for path in PATHS:
        oracle = solving_by(TspOracle(4), path)
        for tour in ([0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3]):
            steps = {frozenset(step) for step in zip(tour, tour[1:] + tour[:1])}
            x = [float(frozenset(edge) in steps) for edge in edges]
            assert oracle.solve_many(1.0 - np.array([x]))[0].tolist() == x


def test_relaxations_match_the_node_by_node_reference():
    # equal entries and equal signs of zero: the >= half of each pair is
    # the negated <= row, so its zeros are -0.0
    cases = [(ShortestPathOracle(r, c), grid_relaxation_rows(r, c))
             for r in range(2, 11) for c in range(2, 11)]
    cases += [(TspOracle(n), tsp_relaxation_rows(n)) for n in range(3, 31)]
    for oracle, (a, b) in cases:
        lp = oracle.relaxation
        for got, want in ((lp.constraint_matrix, a), (lp.rhs, b)):
            np.testing.assert_array_equal(got, want, err_msg=oracle.name)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want),
                                          err_msg=oracle.name)
        np.testing.assert_array_equal(lp.upper, np.ones(oracle.d))


def test_tsp_exactness_follows_the_node_count():
    assert TspOracle(HELD_KARP_MAX_NODES).exact
    assert not TspOracle(HELD_KARP_MAX_NODES + 1).exact
    with pytest.raises(ValueError):
        TspOracle(2)


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32 - 1))
def test_tsp_exact_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    oracle = TspOracle(n)
    costs = rng.uniform(0.5, 10.0, size=oracle.d)
    x = oracle.solve_many(costs[None])[0]
    assert oracle.exact
    _, v_brute = brute_tsp(n, costs)
    assert float(costs @ x) == pytest.approx(v_brute, abs=1e-9)


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_tsp_heuristic_is_feasible_and_close(seed):
    rng = np.random.default_rng(seed)
    n = 7
    # metric instances (random points) keep 2-opt quality predictable
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    costs = np.array([np.linalg.norm(pts[i] - pts[j])
                      for i in range(n) for j in range(i + 1, n)])
    _, heuristic_cost = heuristic_tour(costs, n)
    _, v_brute = brute_tsp(n, costs)
    assert heuristic_cost <= 1.25 * v_brute + 1e-9


# --- oracle wrappers and registry ----------------------------------------------

def test_oracle_counts_solves_and_checks_feasibility():
    oracle = KnapsackOracle(weights=[[1.0, 1.0]], capacities=[1.0])
    assert oracle.solves == 0
    oracle.solve_many(np.array([[1.0, 2.0]]))
    oracle.solve_many(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert oracle.solves == 3


def test_problem_from_name_families():
    ks = problem_from_name("ks32", seed=0)
    assert isinstance(ks, KnapsackOracle) and ks.name == "ks32"
    assert ks.d == 32 and ks.sense is Sense.MAXIMIZE
    assert ks.weights.shape == (2, 32)
    assert np.all((ks.weights >= 3) & (ks.weights <= 8))
    assert np.all(ks.capacities == 20.0)

    sp = problem_from_name("sp5x5", seed=0)
    assert isinstance(sp, ShortestPathOracle) and sp.name == "sp5x5"
    assert sp.d == 40 and sp.sense is Sense.MINIMIZE

    small = problem_from_name("tsp8", seed=0)
    assert isinstance(small, TspOracle) and small.exact and small.name == "tsp8"
    big = problem_from_name("tsp20", seed=0)
    assert not big.exact  # falls back to the heuristic above the DP limit
    assert big.name == "tsp20"

    with pytest.raises(ValueError):
        problem_from_name("mystery42", seed=0)
    # zero items used to build an oracle named ks0 whose solves then failed
    with pytest.raises(ValueError, match="at least 1 item"):
        problem_from_name("ks0", seed=0)


def test_problem_seeds_change_knapsack_weights():
    a = problem_from_name("ks16", seed=0)
    b = problem_from_name("ks16", seed=1)
    c = problem_from_name("ks16", seed=0)
    assert not np.array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.weights, c.weights)


def test_custom_problem_json_loads_each_family(tmp_path):
    files = {
        "ks.json": {"family": "knapsack", "params": {"weights": [[2.0, 3.0, 4.0]],
                                                     "capacities": [5.0]}},
        "ks_seeded.json": {"family": "knapsack", "seed": 3, "params": {"d": 8}},
        "sp.json": {"family": "shortest-path", "params": {"rows": 3, "cols": 4}},
        "tsp.json": {"family": "tsp", "params": {"n_nodes": 9}},
        "tsp_big.json": {"family": "tsp", "params": {"n_nodes": 14}},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    ks = problem_from_name(f"custom:{tmp_path / 'ks.json'}")
    assert type(ks) is KnapsackOracle and ks.d == 3 and ks.name == "ks3"
    assert ks.solve_many(np.array([3.0, 4.0, 5.0])[None])[0].tolist() == [1.0, 1.0, 0.0]
    seeded = load_problem(tmp_path / "ks_seeded.json")
    np.testing.assert_array_equal(seeded.weights,
                                  problem_from_name("ks8", seed=3).weights)
    sp = load_problem(tmp_path / "sp.json")
    assert type(sp) is ShortestPathOracle and sp.d == problem_from_name("sp3x4").d
    tsp = load_problem(tmp_path / "tsp.json")
    assert type(tsp) is TspOracle and tsp.exact and tsp.d == 36
    assert not load_problem(tmp_path / "tsp_big.json").exact
    (tmp_path / "bad.json").write_text(json.dumps({"family": "matching"}))
    with pytest.raises(ValueError, match="matching"):
        load_problem(tmp_path / "bad.json")
    # the node count picks the TSP solver; a file that still sets a mode
    # must not be solved differently without notice
    (tmp_path / "tsp_mode.json").write_text(json.dumps(
        {"family": "tsp", "params": {"n_nodes": 6, "mode": "heuristic"}}))
    with pytest.raises(ValueError, match="'mode'"):
        load_problem(tmp_path / "tsp_mode.json")


@pytest.mark.parametrize("payload, key", [
    ({"params": {"d": 8}}, "family"),
    ({"family": "knapsack", "params": {}}, "d"),
    ({"family": "knapsack", "params": {"weights": [[1.0, 2.0]]}}, "capacities"),
    ({"family": "shortest-path", "params": {"rows": 3}}, "cols"),
])
def test_custom_problem_without_a_key_names_the_file_and_the_key(tmp_path, payload, key):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has no key '{key}'$"):
        problem_from_name(f"custom:{path}")


def test_oracle_names_and_sizes():
    ks = make_knapsack(d=10, seed=1)
    assert (ks.name, ks.d) == ("ks10", 10)
    grid = ShortestPathOracle(rows=3, cols=7)
    assert (grid.name, grid.d) == ("sp3x7", 3 * 6 + 2 * 7)
    tsp = TspOracle(12)
    assert (tsp.name, tsp.d) == ("tsp12", 66)


# --- batched solves -------------------------------------------------------------

BATCH_FAMILIES = ("ks", "ks-recurrence", "sp", "sp-recurrence", "tsp", "tsp-recurrence",
                  "tsp-heuristic")


def batch_case(family, rng):
    """An oracle, a cost batch of 1-8 rows for it, whether the costs are
    integers, and a reference solver of one row: brute force, or for the
    heuristic (n = 14) the heuristic called directly. Half the batches have
    small integer costs, with many ties."""
    rows = int(rng.integers(1, 9))
    integer = bool(rng.integers(0, 2))
    path = "recurrence" if family.endswith("-recurrence") else "table"
    if family.startswith("ks"):
        d = int(rng.integers(2, 9))
        q = int(rng.integers(1, 3))
        oracle = solving_by(KnapsackOracle(rng.integers(1, 5, size=(q, d)).astype(float),
                                           rng.integers(d, 2 * d + 1, size=q).astype(float)),
                            path)
        costs = (rng.integers(-2, 4, size=(rows, d)).astype(float) if integer
                 else rng.normal(1.0, 2.0, size=(rows, d)))
        return (oracle, costs, integer,
                lambda c: brute_knapsack(oracle.weights, oracle.capacities, c))
    if family.startswith("sp"):
        r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        oracle = solving_by(ShortestPathOracle(r, c), path)
        costs = (rng.integers(0, 3, size=(rows, oracle.d)).astype(float) if integer
                 else rng.normal(0.0, 1.0, size=(rows, oracle.d)))
        return oracle, costs, integer, lambda x: brute_shortest_path(r, c, x)
    if family == "tsp-heuristic":
        n = HELD_KARP_MAX_NODES + 1
        oracle = TspOracle(n)
        assert not oracle.exact
    else:
        n = int(rng.integers(3, 7))
        oracle = solving_by(TspOracle(n), path)
    costs = (rng.integers(0, 3, size=(rows, oracle.d)).astype(float) if integer
             else rng.uniform(0.5, 5.0, size=(rows, oracle.d)))
    if oracle.exact:
        return oracle, costs, integer, lambda x: brute_tsp(n, x)
    return oracle, costs, integer, lambda x: heuristic_tour(x, n)


@settings(max_examples=120)
@given(st.sampled_from(BATCH_FAMILIES), st.integers(0, 2 ** 32 - 1))
def test_solve_many_rows_match_single_solves_and_brute_force(family, seed):
    rng = np.random.default_rng(seed)
    oracle, costs, integer, brute = batch_case(family, rng)
    x = oracle.solve_many(costs)
    assert x.shape == costs.shape
    assert oracle.solves == costs.shape[0]  # one step of B
    for r, c in enumerate(costs):
        np.testing.assert_array_equal(x[r], oracle.solve_many(c[None])[0])
        x_ref, v_ref = brute(c)
        if not family.startswith("tsp") or (oracle.exact and integer):
            np.testing.assert_array_equal(x[r], x_ref)
        else:
            # continuous tour costs sum in another order than brute_tsp's
            assert float(c @ x[r]) == pytest.approx(v_ref, abs=1e-9)
    assert oracle.solves == 2 * costs.shape[0]


def test_held_karp_tie_breaking_is_frozen():
    # costs in {0, 1, 2}: seven of the ten rows have two to seven optimal
    # tours; the edges were recorded from the row-by-row backtrack that the
    # batched one replaced, so a change to the tie rule, or a table out of
    # Held-Karp's scan order, shows here
    costs = np.random.default_rng(6).integers(0, 3, size=(10, 15)).astype(float)
    expected = [[0, 2, 8, 10, 11, 12], [3, 4, 5, 6, 10, 13], [3, 4, 5, 6, 10, 13],
                [0, 2, 5, 11, 12, 14], [2, 3, 5, 8, 9, 14], [0, 4, 6, 9, 10, 14],
                [2, 3, 5, 6, 11, 14], [0, 4, 6, 10, 11, 12], [0, 4, 5, 10, 12, 13],
                [0, 3, 5, 11, 12, 13]]
    for path in PATHS:
        x = solving_by(TspOracle(6), path).solve_many(costs)
        assert [np.flatnonzero(row).tolist() for row in x] == expected, path


@pytest.mark.parametrize("n", [3, 4])
def test_held_karp_matches_brute_force_on_tied_integer_costs(n):
    # the layers of tsp3 and tsp4 hold one or two predecessors per state;
    # costs in {0, 1, 2} tie often, and the tours are brute_tsp's
    costs = np.random.default_rng(n).integers(0, 3, size=(200, n * (n - 1) // 2)).astype(float)
    for path in PATHS:
        x = solving_by(TspOracle(n), path).solve_many(costs)
        for r, c in enumerate(costs):
            np.testing.assert_array_equal(x[r], brute_tsp(n, c)[0], err_msg=f"{path} row {r}")


@pytest.mark.parametrize("name", ["sp3x3", "sp4x4", "sp5x5", "sp6x6", "sp7x7", "tsp4", "tsp5",
                                  "tsp6", "tsp7", "tsp8", "ks8", "ks16", "ks32", "ks48"])
def test_decision_table_equals_the_recurrence_on_generator_rows_and_spo_shifts(name):
    # every grid and tour size in the table budget from sp3x3 and tsp4 up,
    # and knapsacks up to ks48, whose table solving_by builds past the budget
    for seed in range(3):
        table, recurrence = (solving_by(problem_from_name(name, seed=seed), path)
                             for path in PATHS)
        for costs in generator_rows_and_spo_shifts(table, seed):
            np.testing.assert_array_equal(table.solve_many(costs),
                                          recurrence.solve_many(costs), err_msg=f"seed {seed}")


def test_cached_plans_are_read_only_and_shared_by_oracles_of_one_size(fresh_store):
    rng = np.random.default_rng(9)
    for first, second in [(ShortestPathOracle(3, 5), ShortestPathOracle(3, 5)),
                          (TspOracle(6), TspOracle(6))]:
        costs = rng.integers(0, 3, size=(12, first.d)).astype(float)
        x = first.solve_many(costs)
        np.testing.assert_array_equal(second.solve_many(costs), x)
        assert first.decision_table is second.decision_table
    grid, tour = ShortestPathOracle(3, 5), TspOracle(6)
    plans = [grid._arc_plan, grid.decision_table, tour.decision_table, *tour._tour_plan,
             *(arr for layer in tour._popcount_layers for arr in layer)]
    assert ShortestPathOracle(3, 5)._arc_plan is plans[0]
    for arr in plans:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_oracles_of_one_size_share_one_relaxation_and_one_phase_one(monkeypatch, fresh_store):
    # grid and tour rows depend on the size alone; a knapsack's are its
    # weights, so it shares them with the oracles of its instance
    real, runs = simplex_mod._phase_one, []

    def recording(lp):
        runs.append(lp)
        return real(lp)

    monkeypatch.setattr(simplex_mod, "_phase_one", recording)
    for first, second, shared in [(ShortestPathOracle(3, 3), ShortestPathOracle(3, 3), True),
                                  (TspOracle(5), TspOracle(5), True),
                                  (problem_from_name("ks8", seed=2),
                                   problem_from_name("ks8", seed=2), True),
                                  (problem_from_name("ks8", seed=0),
                                   problem_from_name("ks8", seed=1), False)]:
        runs.clear()
        for oracle in (first, second):
            solution = solve_lp(oracle.relaxation, np.ones(oracle.d), oracle.sense)
            assert solution.status is SolveStatus.OPTIMAL
        assert (first.relaxation is second.relaxation) is shared
        assert len(runs) == (1 if shared else 2)


def test_oracles_of_one_knapsack_share_its_table_load_plan_and_relaxation(fresh_store):
    first, second, other = (problem_from_name("ks16", seed=s) for s in (0, 0, 1))
    again = KnapsackOracle(first.weights.tolist(), first.capacities.tolist())
    for name in ("decision_table", "_load_plan", "relaxation"):
        assert getattr(first, name) is getattr(second, name) is getattr(again, name), name
        assert getattr(other, name) is not getattr(first, name), name
    costs = np.random.default_rng(0).normal(1.0, 1.0, size=(20, first.d))
    np.testing.assert_array_equal(first.solve_many(costs), second.solve_many(costs))
    # every oracle keeps its own solve count
    assert (first.solves, second.solves, other.solves) == (20, 20, 0)


def recording_checks(monkeypatch, family) -> list[str]:
    """The row names of every ``_check_feasible`` call on a ``family`` oracle."""
    real, checked = family._check_feasible, []

    def recording(self, decisions, row_name):
        checked.append(row_name)
        return real(self, decisions, row_name)

    monkeypatch.setattr(family, "_check_feasible", recording)
    return checked


def test_knapsack_table_is_checked_once_per_instance(monkeypatch, fresh_store):
    checked = recording_checks(monkeypatch, KnapsackOracle)
    for _ in range(3):
        problem_from_name("ks8", seed=0).decision_table
    assert checked == (["row {} of the decision table"] if __debug__ else [])


@pytest.mark.parametrize("name, family", [("sp3x4", ShortestPathOracle), ("tsp6", TspOracle)])
def test_size_table_is_checked_once_per_size(monkeypatch, fresh_store, name, family):
    checked = recording_checks(monkeypatch, family)
    for _ in range(3):
        oracle = problem_from_name(name)
        oracle.solve_many(np.ones((2, oracle.d)))
    assert checked == (["row {} of the decision table"] if __debug__ else [])


def test_solving_by_forces_either_knapsack_path_after_the_other(fresh_store):
    # solving_by looks the table up in a store of its own, so a table built
    # past a budget does not reach an oracle under the default budgets, nor a
    # None built under zero budgets; ks48, sp8x8 and tsp9 are past their
    # budget, and ks16, sp5x5 and tsp8 within it
    fresh_store(max_bytes=np.inf)
    for name, default in (("ks16", "table"), ("ks48", "recurrence"), ("sp5x5", "table"),
                          ("sp8x8", "recurrence"), ("tsp8", "table"), ("tsp9", "recurrence")):
        forced = "recurrence" if default == "table" else "table"
        for path in (default, forced, default):
            oracle = solving_by(problem_from_name(name, seed=0), path)
            assert (oracle.decision_table is None) is (path == "recurrence"), name
        plain = problem_from_name(name, seed=0)
        assert (plain.decision_table is None) is (default == "recurrence"), name


@pytest.mark.parametrize("name, seed", [("ks8", 0), ("ks16", 3), ("ks24", 1)])
def test_knapsack_table_is_built_exactly_up_to_its_budget(monkeypatch, fresh_store,
                                                          name, seed):
    # the subsets are counted before any row is built: a table of R rows
    # builds at a budget of R * d entries and not at one entry fewer
    rows, d = problem_from_name(name, seed=seed).decision_table.shape
    for budget, built in ((rows * d, True), (rows * d - 1, False)):
        fresh_store()
        monkeypatch.setattr(problems, "KNAPSACK_TABLE_MAX_ENTRIES", budget)
        table = problem_from_name(name, seed=seed).decision_table
        assert (table is not None) is built, budget
        if built:
            assert table.shape == (rows, d)


def held_arrays(value) -> list[np.ndarray]:
    """The arrays a stored value holds. A relaxation holds its constraint
    set and the phase-1 start that its first solve keeps, run here if no
    solve has run it yet."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [arr for item in value for arr in held_arrays(item)]
    if isinstance(value, LinearProgram):
        tableau, basis, _ = value._start
        return [value.constraint_matrix, value.rhs, value.upper, tableau, basis]
    return []


def held_bytes(store) -> int:
    return sum(arr.nbytes for entry in store.entries.values()
               for value in entry.values() for arr in held_arrays(value))


def test_knapsack_store_stays_within_its_bytes(fresh_store):
    # room for two or three ks16 tables (60-130 kB each on seeds 0-5)
    store = fresh_store(max_bytes=320_000)
    oracles = [problem_from_name("ks16", seed=s) for s in range(6)]
    for oracle in oracles:
        oracle.decision_table
        assert store.nbytes == held_bytes(store) <= store.max_bytes
    assert 1 <= len(store.entries) < len(oracles)
    # the most recent instance is held, the first was evicted and is rebuilt
    assert problem_from_name("ks16", seed=5).decision_table is oracles[5].decision_table
    rebuilt = problem_from_name("ks16", seed=0).decision_table
    assert rebuilt is not oracles[0].decision_table
    np.testing.assert_array_equal(rebuilt, oracles[0].decision_table)
    # a value past the bound on its own (a ks32 table) is handed out and
    # evicts nothing: the most recent ks16 instance is still held
    assert problem_from_name("ks32", seed=0).decision_table.nbytes > store.max_bytes
    assert problem_from_name("ks16", seed=0).decision_table is rebuilt
    assert store.nbytes == held_bytes(store) <= store.max_bytes
    tiny = fresh_store(max_bytes=1_000)
    assert problem_from_name("ks16", seed=0).decision_table is not None
    assert (tiny.nbytes, len(tiny.entries)) == (0, 0)


class CheckedStore(problems._InstanceStore):
    """A store that checks its count after every lookup: the bytes it holds,
    phase-1 starts included, and within its bound."""

    def held(self, key, name, build):
        value = super().held(key, name, build)
        assert self.nbytes == held_bytes(self) <= self.max_bytes, (key[:2], name)
        return value


def test_store_counts_every_byte_it_holds_and_eviction_changes_no_result(monkeypatch):
    # ks16 instances, the grids sp3x3-sp8x8 and the tours tsp5-tsp9 hold
    # several MB of tables, plans, relaxations and phase-1 starts; a 512 kB
    # store must evict, and keeps neither the sp7x7 table nor the sp8x8
    # relaxation, each past the bound on its own
    names = [("ks16", seed) for seed in range(4)]
    names += [(f"sp{k}x{k}", 0) for k in range(3, 9)] + [(f"tsp{n}", 0) for n in range(5, 10)]
    results = []
    for bound in (np.inf, 1 << 19):
        store = CheckedStore(bound)
        monkeypatch.setattr(problems, "_STORE", store)
        result = []
        for name, seed in names:
            oracle = problem_from_name(name, seed=seed)
            if name.startswith("ks"):
                oracle._load_plan
            costs = np.random.default_rng(oracle.d).uniform(0.1, 2.0, size=(6, oracle.d))
            solution = solve_lp(oracle.relaxation, costs[0], oracle.sense)
            result += [oracle.solve_many(costs), solution.x, *solution.ranges]
        results.append(result)
        held = len(store.entries)
        assert (held == len(names)) if bound == np.inf else (held < len(names))
    for unbounded, bounded in zip(*results):
        np.testing.assert_array_equal(bounded, unbounded)


def test_shared_knapsack_state_is_read_only(fresh_store):
    oracle = problem_from_name("ks16", seed=0)
    steps, _ = oracle._load_plan
    arrays = [oracle.decision_table, *(arr for step in steps for arr in step),
              oracle.relaxation.constraint_matrix, oracle.relaxation.rhs]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_held_karp_chunks_give_the_decisions_of_one_chunk(monkeypatch):
    oracle = solving_by(TspOracle(6), "recurrence")
    costs = np.random.default_rng(1).integers(0, 3, size=(7, oracle.d)).astype(float)
    whole = oracle.solve_many(costs)
    monkeypatch.setattr(problems, "CHUNK_VALUES", 3 * 2 ** 5 * 5)  # 3 rows
    np.testing.assert_array_equal(oracle.solve_many(costs), whole)


@pytest.mark.parametrize("name", ["ks6", "sp3x3", "tsp5", "tsp14"])
def test_solve_many_on_an_empty_batch_counts_nothing(name):
    oracle = problem_from_name(name, seed=0)
    x = oracle.solve_many(np.zeros((0, oracle.d)))
    assert x.shape == (0, oracle.d)
    assert oracle.solves == 0


def test_solve_many_validates_the_batch():
    oracle = problem_from_name("sp3x3")
    with pytest.raises(DimensionMismatch):
        oracle.solve_many(np.zeros(oracle.d))
    with pytest.raises(DimensionMismatch):
        oracle.solve_many(np.zeros((2, oracle.d + 1)))
    costs = np.ones((3, oracle.d))
    costs[1, 4] = np.nan
    with pytest.raises(ValueError, match="row 1"):
        oracle.solve_many(costs)
    assert oracle.solves == 0


class OneBadRowOracle(ShortestPathOracle):
    """Drops one arc of the path in row 2 of every batch the DP solves."""

    bad_row = 2

    def _solve_many(self, costs):
        x = super()._solve_many(costs)
        x[self.bad_row, np.argmax(x[self.bad_row])] = 0.0
        return x


def test_batched_feasibility_check_names_the_infeasible_row():
    costs = np.random.default_rng(0).uniform(1.0, 2.0, size=(5, 17))
    with pytest.raises(AssertionError, match="sp3x4: solved row 2 of the batch"):
        solving_by(OneBadRowOracle(3, 4), "recurrence").solve_many(costs)
    # a table is checked whole where it is built, before any solve; here,
    # one whose path in row 3 lost its first arc
    table = ShortestPathOracle(3, 4).decision_table.copy()
    table[3, table[3].argmax()] = 0.0
    with pytest.raises(AssertionError, match="sp3x4: row 3 of the decision table"):
        ShortestPathOracle(3, 4)._check_feasible(table, "row {} of the decision table")
    for path in PATHS:  # the intact oracle passes
        solving_by(ShortestPathOracle(3, 4), path).solve_many(costs)
