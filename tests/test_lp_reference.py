"""``solve_lp`` against an independent LP solver: HiGHS, through scipy.

``tests/brute.py:dense_tableau_simplex`` is the same method written again,
and criterion 03 re-solves its range endpoints with ``solve_lp`` itself, so
a mistake shared by both would pass them. HiGHS shares none of the code.
It is a reference only: it returns no cost ranges, and under degeneracy
its vertex may differ, so only optimal values are compared. The tests skip
when scipy is not installed (it is in the ``test`` extra, not a runtime
dependency).
"""
import numpy as np
import pytest

from cosdfl.core import Sense
from cosdfl.datagen import GenSpec, generate
from cosdfl.problems import problem_from_name
from cosdfl.simplex import LinearProgram, SolveStatus, solve_lp

from lp_check import sensitivity_soundness_check

linprog = pytest.importorskip("scipy.optimize").linprog


def highs_optimum(lp: LinearProgram, objective: np.ndarray, sense: Sense) -> float:
    """The optimal value of ``objective`` over ``lp`` by HiGHS."""
    sign = -1.0 if sense is Sense.MAXIMIZE else 1.0
    result = linprog(sign * objective, A_ub=lp.constraint_matrix, b_ub=lp.rhs,
                     bounds=np.column_stack([np.zeros(lp.d), lp.upper]),
                     method="highs")
    assert result.status == 0, result.message
    return sign * result.fun


@pytest.mark.parametrize("name", ["ks16", "sp5x5", "sp10x10", "tsp8", "tsp20"])
def test_relaxation_optima_match_highs(name):
    problem = problem_from_name(name, seed=0)
    costs = generate(GenSpec(n_train=10, n_val=0, n_test=0), problem).costs
    for objective in costs:
        solution = solve_lp(problem.relaxation, objective, problem.sense)
        assert solution.status is SolveStatus.OPTIMAL
        reference = highs_optimum(problem.relaxation, objective, problem.sense)
        assert solution.objective_value == pytest.approx(reference, rel=1e-9)


def test_criterion_03_range_endpoints_hold_under_highs():
    # criterion 03's sample and tolerance, with every endpoint re-solved by HiGHS
    checks, failures = sensitivity_soundness_check(n_lps=200, max_size=8, seed=0,
                                                   optimum=highs_optimum)
    assert checks > 0
    assert failures == []
