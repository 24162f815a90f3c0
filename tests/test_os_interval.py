"""The O_S safe interval checked against the oracle, not only against the LP.

An O_S coordinate's safe interval is its basis range in the LP relaxation,
which keeps the relaxation's vertex optimal. Where that vertex is X*, moving
one coordinate on its own to a point inside its interval must keep X*
optimal. An independent oracle re-solves every such point: brute force where
the enumeration is small, Held-Karp (itself checked against brute force in
criterion 07) for tsp8.
"""
import numpy as np
import pytest

from cosdfl.datagen import GenSpec, generate
from cosdfl.harness import attach_decisions, attach_ranges
from cosdfl.losses import parse_loss, stack_loss_data
from cosdfl.problems import KnapsackOracle, ShortestPathOracle, problem_from_name
from cosdfl.simplex import solve_lp

from brute import brute_knapsack, brute_shortest_path, brute_tsp

# how far each point lies from the true cost toward the interval's finite end
FRACTIONS = (0.5, 0.99)


def optimal_values(problem, points):
    """The optimal objective value at each cost row of ``points``."""
    if isinstance(problem, KnapsackOracle):
        return [brute_knapsack(problem.weights, problem.capacities, c)[1] for c in points]
    if isinstance(problem, ShortestPathOracle):
        return [brute_shortest_path(problem.rows, problem.cols, c)[1] for c in points]
    if problem.n_nodes <= 5:
        return [brute_tsp(problem.n_nodes, c)[1] for c in points]
    return np.einsum("ij,ij->i", problem.solve_many(points), points)


def interval_points(dataset, data, problem):
    """Moved cost rows and their X*, over the instances whose LP vertex is
    X*; also the number of those instances."""
    points, stars, integral = [], [], 0
    for r, i in enumerate(data.indices):
        costs, star = dataset.costs[i], dataset.x_star[i]
        if not np.allclose(solve_lp(problem.relaxation, costs, problem.sense).x, star,
                           rtol=0.0, atol=1e-9):
            continue
        integral += 1
        ends = np.where(np.isfinite(data.safe_lo[r]), data.safe_lo[r], data.safe_hi[r])
        for j in np.flatnonzero(np.isfinite(ends)):
            for t in FRACTIONS:
                moved = costs.copy()
                moved[j] += t * (ends[j] - costs[j])
                points.append(moved)
                stars.append(star)
    return np.array(points), np.array(stars), integral


@pytest.mark.parametrize("name, n, min_integral", [("sp3x3", 40, 40), ("tsp5", 40, 40),
                                                   ("ks8", 200, 4), ("tsp8", 40, 20)])
def test_os_interval_keeps_x_star_where_the_lp_vertex_is_x_star(name, n, min_integral):
    problem = problem_from_name(name, seed=0)
    dataset = generate(GenSpec(n_train=n, n_val=0, n_test=0, seed=0), problem)
    dataset = attach_decisions(dataset, problem, ("train",))
    dataset = attach_ranges(dataset, problem, ("train",))
    data = stack_loss_data(parse_loss("mse+o_s"), dataset, dataset.split.train,
                           problem.sense)
    points, stars, integral = interval_points(dataset, data, problem)
    assert integral >= min_integral
    star_values = np.einsum("ij,ij->i", points, stars)
    best = np.asarray(optimal_values(problem, points))
    lost = np.abs(star_values - best) > 1e-9 * np.maximum(1.0, np.abs(best))
    assert not lost.any(), (f"{int(lost.sum())} of {len(points)} points inside the O_S "
                            "interval make X* suboptimal")
