"""LP cost-ranging soundness on random box LPs: the check of criterion 03.

``sensitivity_soundness_check`` solves random box-bounded LPs with
``solve_lp`` and re-solves each at every finite endpoint of its cost
ranges. By default the re-solve is ``solve_lp`` again; the HiGHS reference
test (``test_lp_reference.py``) passes scipy's instead.
"""
from dataclasses import dataclass

import numpy as np

from cosdfl.core import Sense
from cosdfl.simplex import LinearProgram, SolveStatus, solve_lp


@dataclass(frozen=True)
class RangingFailure:
    trial: int
    coordinate: int
    point: float
    gap: float


def solve_lp_optimum(lp: LinearProgram, objective: np.ndarray, sense: Sense) -> float:
    return solve_lp(lp, objective, sense).objective_value


def sensitivity_soundness_check(n_lps: int = 200, max_size: int = 8, seed: int = 0,
                                optimum=solve_lp_optimum
                                ) -> tuple[int, list[RangingFailure]]:
    """Solve random box-bounded LPs and verify their cost ranges.

    For every coordinate, the objective is re-solved at each finite range
    endpoint (and the midpoint when both are finite) by
    ``optimum(lp, objective, sense)``; the original decision vector must
    still be optimal there, i.e. its perturbed objective must match the
    re-solved optimum to 1e-7 relative tolerance. Returns the number of
    point checks performed and the list of failures.
    """
    rng = np.random.default_rng(seed)
    checks = 0
    failures: list[RangingFailure] = []
    for trial in range(n_lps):
        m = int(rng.integers(1, max_size + 1))
        d = int(rng.integers(1, max_size + 1))
        a = rng.uniform(0.1, 2.0, size=(m, d))
        b = rng.uniform(1.0, 6.0, size=m)
        c = rng.normal(0.0, 2.0, size=d)
        sense = Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE
        upper = np.where(rng.random(d) < 0.5, rng.uniform(0.5, 3.0, size=d), np.inf)
        lp = LinearProgram(a, b, upper)
        solution = solve_lp(lp, c, sense)
        assert solution.status is SolveStatus.OPTIMAL, "random box LP must be solvable"
        lower, upper = solution.ranges
        for j in range(d):
            points = []
            lo, hi = lower[j], upper[j]
            if np.isfinite(lo):
                points.append(lo)
            if np.isfinite(hi):
                points.append(hi)
            if np.isfinite(lo) and np.isfinite(hi):
                points.append(0.5 * (lo + hi))
            for point in points:
                perturbed = c.copy()
                perturbed[j] = point
                re_solved = optimum(lp, perturbed, sense)
                checks += 1
                original_value = float(perturbed @ solution.x)
                gap = abs(original_value - re_solved)
                if gap > 1e-7 * max(1.0, abs(re_solved)):
                    failures.append(RangingFailure(trial, j, float(point), gap))
    return checks, failures
