"""Full-tableau two-phase simplex with objective-coefficient ranging.

Solves ``opt c'x  s.t.  Ax <= b, 0 <= x <= u`` with a full-tableau pivot
loop (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*, 3.3).
A :class:`LinearProgram` holds only the constraint set; the objective and
its sense are arguments of :func:`solve_lp`, so one relaxation serves every
instance of a problem. An optimal solve also returns, for every objective
coefficient, the interval of single-coordinate perturbations under which
the final basis (and therefore the returned vertex) stays optimal. Those
intervals come from the terminal tableau alone, by ratio tests over all
basic columns at once; no re-solves.

Pivoting is deterministic: Dantzig's rule with smallest-index tie-breaking,
falling back to Bland's rule once the degenerate-pivot budget is exhausted.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import Sense, as_vector, frozen_array
from .errors import DimensionMismatch, NumericalBreakdown

PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-9
FEASIBILITY_TOL = 1e-7
DEGENERATE_STEP_TOL = 1e-12
MAX_ITERATIONS = 20000


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """The constraint set ``constraint_matrix @ x <= rhs, 0 <= x <= upper``.

    Upper bounds may be +inf. Equality rows are expressed as <=/>= pairs.
    Validated and frozen once; :func:`solve_lp` takes the objective.
    """

    constraint_matrix: np.ndarray
    rhs: np.ndarray
    upper: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.constraint_matrix, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch(f"constraint matrix must be 2-d, got shape {a.shape}")
        m, d = a.shape
        b = as_vector(self.rhs, name="rhs", length=m)
        hi = (np.full(d, np.inf) if self.upper is None
              else as_vector(self.upper, name="upper bounds", length=d, allow_nonfinite=True))
        if not np.all(np.isfinite(a)):
            raise ValueError("constraint matrix contains non-finite entries")
        if np.any(np.isnan(hi)) or np.any(hi < 0.0):
            raise ValueError("upper bounds must be non-negative: finite or +inf")
        object.__setattr__(self, "constraint_matrix", frozen_array(a))
        object.__setattr__(self, "rhs", frozen_array(b))
        object.__setattr__(self, "upper", frozen_array(hi))

    @property
    def d(self) -> int:
        return self.constraint_matrix.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes of the constraint set plus the phase-1 start it keeps once
        solved, in closed form, so phase 1 need not run to count it: m'
        rows (a row per constraint and per finite upper bound) over d
        structural, m' slack and one rhs column, and the basis."""
        rows = len(self.rhs) + int(np.isfinite(self.upper).sum())
        start = rows * (self.d + rows + 1) * 8 + rows * np.dtype(int).itemsize
        return self.constraint_matrix.nbytes + self.rhs.nbytes + self.upper.nbytes + start

    @cached_property
    def _start(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        """The phase-1 result of :func:`_phase_one`, computed on first use."""
        return _phase_one(self)


@dataclass(frozen=True)
class SimplexSolution:
    """Result of :func:`solve_lp`; ``x`` and ``ranges`` are None unless status is OPTIMAL.

    ``ranges`` is ``(lower, upper)``: single-coordinate moves of ``c[j]``
    inside ``[lower[j], upper[j]]`` keep the final basis (hence ``x``)
    optimal; endpoints may be +/-inf.
    """

    status: SolveStatus
    x: np.ndarray | None
    objective_value: float
    ranges: tuple[np.ndarray, np.ndarray] | None = None


def _pivot_once(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``(row, col)`` in place, updating only the entries that change.

    The tableau is mostly zeros (sp5x5: 88 x 129, about 6% nonzero). An
    entry whose row has a zero pivot-column entry, or whose column has a
    zero pivot-row entry, would get ``x - 0 * p`` or ``x - c * 0``, which on
    a finite tableau is ``x`` up to the sign of a zero, and no comparison or
    division here tells the two zeros apart. So only the entries in both a
    nonzero row and a nonzero column are updated, in one indexed update,
    with the dense update's products and differences (the reference is
    ``tests/brute.py:dense_tableau_simplex``).
    """
    pivot = tableau[row]
    pivot /= pivot[col]
    column = tableau[:, col]
    column[row] = 0.0
    rows = column.nonzero()[0]
    cols = pivot.nonzero()[0]
    tableau[rows[:, None], cols] -= column[rows, None] * pivot[cols]
    # the pivot column becomes the unit vector; no rounding residue is left
    column[:] = 0.0
    pivot[col] = 1.0
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                 degenerate_budget: int) -> tuple[str, np.ndarray | None]:
    """Minimize ``cost`` over the canonical tableau in place.

    Returns ``("optimal", reduced)`` with the reduced costs of the final
    basis, or ``("unbounded", None)``. Raises NumericalBreakdown on a NaN
    reduced cost, or if no pivot of trustworthy magnitude exists even under
    Bland's rule.
    """
    body, rhs = tableau[:, :-1], tableau[:, -1]
    ratios = np.empty(tableau.shape[0])
    not_tied = tableau.shape[1]  # above every basis index
    bland = False
    degenerate = 0
    for _ in range(MAX_ITERATIONS):
        reduced = cost - cost[basis] @ body
        reduced[basis] = 0.0
        # argmin takes the first of equal minima: Dantzig's rule, smallest index
        col = int(reduced.argmin())
        if not reduced[col] < -REDUCED_COST_TOL:
            # argmin stops at the first NaN, which is no proof of optimality
            if np.isnan(reduced[col]):
                raise NumericalBreakdown(f"reduced cost of column {col} is NaN")
            return "optimal", reduced
        if bland:
            col = int(np.argmax(reduced < -REDUCED_COST_TOL))
        column = body[:, col]
        usable = column > PIVOT_TOL
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=usable)
        theta = ratios.min()
        # every ratio is inf when no entry is usable; only then is usable read
        if theta == np.inf and not usable.any():
            if (column > 0.0).any():
                # positive entries exist but are all below the pivot tolerance
                if bland:
                    raise NumericalBreakdown(
                        f"no pivot above {PIVOT_TOL:g} in column {col} under Bland's rule")
                bland = True
                continue
            return "unbounded", None
        # of the tied rows, the one whose basic column has the smallest index
        row = int(np.where(ratios <= theta + 1e-12, basis, not_tied).argmin())
        if theta <= DEGENERATE_STEP_TOL:
            degenerate += 1
            if degenerate > degenerate_budget:
                bland = True
        _pivot_once(tableau, basis, row, col)
    raise NumericalBreakdown("simplex iteration limit exceeded")


def _phase_one(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, int] | None:
    """A feasible canonical tableau of ``lp`` and its basis; None if infeasible.

    Finite upper bounds are folded in as extra rows, each row gets a slack,
    and rows with a negative rhs start from an artificial that phase 1
    drives out. An artificial still basic at the end (at level zero) is
    pivoted out; every row has its own slack, so ``[A | I]`` has full row
    rank and such a pivot always exists, and ``NumericalBreakdown`` names
    the row if none is large enough. The artificial columns are then
    stripped. Returns read-only ``(tableau, basis, degenerate_budget)``,
    the budget ``3 * (m + d)`` over the m folded rows.
    """
    d = lp.d
    a, b = lp.constraint_matrix, lp.rhs
    bounded = np.flatnonzero(np.isfinite(lp.upper))
    if bounded.size:
        bound_rows = np.zeros((bounded.size, d))
        bound_rows[np.arange(bounded.size), bounded] = 1.0
        a = np.vstack([a, bound_rows])
        b = np.concatenate([b, lp.upper[bounded]])
    m = a.shape[0]

    n_real = d + m  # structural columns then one slack per row
    tableau = np.zeros((m, n_real + 1))
    tableau[:, :d] = a
    tableau[:, d:n_real] = np.eye(m)
    tableau[:, -1] = b
    negative = b < 0.0
    tableau[negative] *= -1.0

    basis = np.empty(m, dtype=int)
    art_rows = np.flatnonzero(negative)
    basis[~negative] = d + np.flatnonzero(~negative)
    degenerate_budget = 3 * (m + d)

    if art_rows.size:
        art = np.zeros((m, art_rows.size))
        art[art_rows, np.arange(art_rows.size)] = 1.0
        tableau = np.hstack([tableau[:, :-1], art, tableau[:, -1:]])
        basis[art_rows] = n_real + np.arange(art_rows.size)
        cost1 = np.zeros(n_real + art_rows.size)
        cost1[n_real:] = 1.0
        _run_simplex(tableau, basis, cost1, degenerate_budget)
        infeasibility = float(cost1[basis] @ tableau[:, -1])
        if infeasibility > FEASIBILITY_TOL:
            return None
        for i in np.flatnonzero(basis >= n_real):
            pivots = np.flatnonzero(np.abs(tableau[i, :n_real]) > PIVOT_TOL)
            if not pivots.size:
                raise NumericalBreakdown(f"phase 1: no pivot above {PIVOT_TOL:g} "
                                         f"releases the artificial of row {i}")
            _pivot_once(tableau, basis, i, int(pivots[0]))
        tableau = np.hstack([tableau[:, :n_real], tableau[:, -1:]])
    tableau.setflags(write=False)
    basis.setflags(write=False)
    return tableau, basis, degenerate_budget


def solve_lp(lp: LinearProgram, objective, sense: Sense) -> SimplexSolution:
    """Optimize ``objective`` over ``lp``; deterministic for identical inputs.

    Status is OPTIMAL, INFEASIBLE, or UNBOUNDED. On OPTIMAL the solution
    carries the vertex, its objective value and the cost ranges of the final
    basis. Phase 1 runs once per ``lp``, on its first solve; every call runs
    phase 2 and the ranging from a copy of the kept feasible tableau, so the
    result does not depend on which objectives were solved before.
    """
    d = lp.d
    objective = as_vector(objective, name="objective", length=d)
    start = lp._start
    if start is None:
        return SimplexSolution(SolveStatus.INFEASIBLE, None, float("nan"))
    tableau, basis, degenerate_budget = start
    tableau, basis = tableau.copy(), basis.copy()
    n_real = tableau.shape[1] - 1

    c_int = objective.copy() if sense is Sense.MINIMIZE else -objective
    cost2 = np.concatenate([c_int, np.zeros(n_real - d)])
    status, reduced = _run_simplex(tableau, basis, cost2, degenerate_budget)
    if status == "unbounded":
        return SimplexSolution(SolveStatus.UNBOUNDED, None, float("nan"))

    y = np.zeros(n_real)
    y[basis] = tableau[:, -1]
    x = y[:d]
    lo_int, hi_int = _cost_ranges(tableau, basis, cost2, reduced, d)
    if sense is Sense.MAXIMIZE:
        lo_int, hi_int = -hi_int, -lo_int
    # the solved coefficient always lies inside its own interval; clamp dust
    ranges = (frozen_array(np.minimum(lo_int, objective)),
              frozen_array(np.maximum(hi_int, objective)))
    return SimplexSolution(SolveStatus.OPTIMAL, frozen_array(x),
                           float(objective @ x), ranges)


def _cost_ranges(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                 reduced: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranges of the first ``d`` internal (minimization) costs under which
    the final basis stays optimal.

    A nonbasic coefficient may fall until its reduced cost reaches zero. A
    basic coefficient moves until a nonbasic reduced cost, shifted by its
    tableau row, reaches zero: one ratio test in each direction, done for
    the rows of all basic structural columns at once.
    """
    nonbasic = np.ones(tableau.shape[1] - 1, dtype=bool)
    nonbasic[basis] = False
    lower = cost[:d] - reduced[:d]
    upper = np.full(d, np.inf)
    rows = np.flatnonzero(basis < d)
    cols = basis[rows]
    body = tableau[rows, :-1]
    up = nonbasic & (body > PIVOT_TOL)
    down = nonbasic & (body < -PIVOT_TOL)
    ratio = np.divide(reduced, body, out=np.zeros_like(body), where=up | down)
    lower[cols] = cost[cols] + np.where(down, ratio, -np.inf).max(axis=1)
    upper[cols] = cost[cols] + np.where(up, ratio, np.inf).min(axis=1)
    return lower, upper
