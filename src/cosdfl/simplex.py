"""Dense two-phase simplex with objective-coefficient ranging.

Solves ``opt c'x  s.t.  Ax <= b, l <= x <= u`` with a full-tableau revised
pivot loop. After an optimal solve, :func:`cost_ranging` reports, for every
objective coefficient, the interval of single-coordinate perturbations under
which the final basis (and therefore the returned vertex) stays optimal.
That interval is computed from the terminal tableau alone; no re-solves.

Pivoting is deterministic: Dantzig's rule with smallest-index tie-breaking,
falling back to Bland's rule once the degenerate-pivot budget is exhausted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import Sense, as_vector, frozen_array
from .errors import DimensionMismatch, NotOptimal, NumericalBreakdown

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
    """``opt objective'x  s.t.  constraint_matrix @ x <= rhs, lower <= x <= upper``.

    Lower bounds must be finite (they anchor the internal variable shift);
    upper bounds may be +inf. Equality rows are expressed as <=/>= pairs.
    """

    constraint_matrix: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray
    sense: Sense
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.constraint_matrix, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch(f"constraint matrix must be 2-d, got shape {a.shape}")
        m, d = a.shape
        b = as_vector(self.rhs, name="rhs", length=m)
        c = as_vector(self.objective, name="objective", length=d)
        lo = (np.zeros(d) if self.lower is None
              else as_vector(self.lower, name="lower bounds", length=d))
        hi = (np.full(d, np.inf) if self.upper is None
              else as_vector(self.upper, name="upper bounds", length=d, allow_nonfinite=True))
        if not np.all(np.isfinite(a)):
            raise ValueError("constraint matrix contains non-finite entries")
        if not np.all(np.isfinite(lo)):
            raise ValueError("lower bounds must be finite")
        if np.any(np.isnan(hi)) or np.any(hi == -np.inf):
            raise ValueError("upper bounds must be finite or +inf")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", frozen_array(b))
        object.__setattr__(self, "objective", frozen_array(c))
        object.__setattr__(self, "lower", frozen_array(lo))
        object.__setattr__(self, "upper", frozen_array(hi))

    @property
    def m(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def d(self) -> int:
        return self.constraint_matrix.shape[1]

    def with_objective(self, objective) -> "LinearProgram":
        return LinearProgram(self.constraint_matrix, self.rhs, objective,
                             self.sense, self.lower, self.upper)


@dataclass(frozen=True)
class SimplexSolution:
    """Result of :func:`solve_lp`; the vertex ``x`` is None unless status is OPTIMAL."""

    status: SolveStatus
    x: np.ndarray | None
    objective_value: float
    basis: tuple[int, ...]
    reduced_costs: np.ndarray | None
    _internal: dict = field(default_factory=dict, repr=False, compare=False)


def _pivot_once(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # kill rounding residue in the pivot column
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                 degenerate_budget: int) -> str:
    """Minimize ``cost`` over the canonical tableau in place.

    Returns "optimal" or "unbounded". Raises NumericalBreakdown if no pivot
    of trustworthy magnitude exists even under Bland's rule.
    """
    n_cols = tableau.shape[1] - 1
    bland = False
    degenerate = 0
    for _ in range(MAX_ITERATIONS):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        reduced[basis] = 0.0
        candidates = reduced < -REDUCED_COST_TOL
        if not candidates.any():
            return "optimal"
        if bland:
            col = int(np.flatnonzero(candidates)[0])
        else:
            scores = np.where(candidates, reduced, np.inf)
            col = int(np.argmin(scores))
        column = tableau[:, col]
        usable = column > PIVOT_TOL
        if not usable.any():
            if (column > 0.0).any():
                # positive entries exist but are all below the pivot tolerance
                if bland:
                    raise NumericalBreakdown(
                        f"no pivot above {PIVOT_TOL:g} in column {col} under Bland's rule")
                bland = True
                continue
            return "unbounded"
        rhs = tableau[:, -1]
        ratios = np.where(usable, rhs / np.where(usable, column, 1.0), np.inf)
        theta = ratios.min()
        ties = np.flatnonzero(ratios <= theta + 1e-12)
        row = int(ties[np.argmin(basis[ties])])
        if theta <= DEGENERATE_STEP_TOL:
            degenerate += 1
            if degenerate > degenerate_budget:
                bland = True
        _pivot_once(tableau, basis, row, col)
    raise NumericalBreakdown("simplex iteration limit exceeded")


def solve_lp(lp: LinearProgram) -> SimplexSolution:
    """Solve the LP; deterministic for identical inputs.

    Status is OPTIMAL, INFEASIBLE, or UNBOUNDED. On OPTIMAL the solution
    carries the vertex, the basis (column indices: structural j in [0, d),
    slack of row i at d + i), and structural reduced costs with the
    optimality sign of the original sense (<= 0 for Maximize nonbasic at
    lower bound, >= 0 for Minimize).
    """
    d = lp.d
    lo, hi = lp.lower, lp.upper
    # shift to y = x - lower >= 0, fold finite upper bounds in as extra rows
    rows = [lp.constraint_matrix]
    rhs = [lp.rhs - lp.constraint_matrix @ lo]
    bounded = np.flatnonzero(np.isfinite(hi))
    if bounded.size:
        bound_rows = np.zeros((bounded.size, d))
        bound_rows[np.arange(bounded.size), bounded] = 1.0
        rows.append(bound_rows)
        rhs.append(hi[bounded] - lo[bounded])
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    m = a.shape[0]

    c_int = lp.objective.copy() if lp.sense is Sense.MINIMIZE else -lp.objective

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
            return SimplexSolution(SolveStatus.INFEASIBLE, None, float("nan"), (), None)
        # pivot leftover artificials out; rows that cannot release one are redundant
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= n_real:
                pivots = np.flatnonzero(np.abs(tableau[i, :n_real]) > PIVOT_TOL)
                if pivots.size:
                    _pivot_once(tableau, basis, i, int(pivots[0]))
                else:
                    drop.append(i)
        if drop:
            keep = np.setdiff1d(np.arange(m), drop)
            tableau = tableau[keep]
            basis = basis[keep]
            m = tableau.shape[0]
        tableau = np.hstack([tableau[:, :n_real], tableau[:, -1:]])

    cost2 = np.concatenate([c_int, np.zeros(n_real - d)])
    status = _run_simplex(tableau, basis, cost2, degenerate_budget)
    if status == "unbounded":
        return SimplexSolution(SolveStatus.UNBOUNDED, None, float("nan"), (), None)

    y = np.zeros(n_real)
    y[basis] = tableau[:, -1]
    x = y[:d] + lo
    reduced_int = cost2 - cost2[basis] @ tableau[:, :-1]
    reduced_int[basis] = 0.0
    # optimality (dual feasibility) must hold for the internal minimization
    if reduced_int.min() < -FEASIBILITY_TOL:
        raise NumericalBreakdown(
            f"terminal reduced costs violate optimality by {-reduced_int.min():.3e}")
    objective_value = float(lp.objective @ x)
    reduced_structural = reduced_int[:d].copy()
    if lp.sense is Sense.MAXIMIZE:
        reduced_structural = -reduced_structural
    internal = {
        "tableau": tableau,
        "basis": basis.copy(),
        "cost": cost2,
        "reduced": reduced_int,
        "n_struct": d,
    }
    return SimplexSolution(
        status=SolveStatus.OPTIMAL,
        x=frozen_array(x),
        objective_value=objective_value,
        basis=tuple(int(j) for j in basis),
        reduced_costs=frozen_array(reduced_structural),
        _internal=internal,
    )


def cost_ranging(lp: LinearProgram, solution: SimplexSolution
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Range each objective coefficient while the solved basis stays optimal.

    Returns ``(lower, upper)``: single-coordinate moves of ``c[j]`` inside
    ``[lower[j], upper[j]]`` keep the solved basis (hence the returned
    vertex) optimal; endpoints may be +/-inf.

    For a nonbasic coefficient the limit is where its reduced cost reaches
    zero; for a basic coefficient a ratio test of nonbasic reduced costs
    against the substitution row bounds the move in both directions. Every
    interval contains the coefficient it was computed from.
    """
    if solution.status is not SolveStatus.OPTIMAL or not solution._internal:
        raise NotOptimal("cost ranging requires an optimal simplex solution")
    internal = solution._internal
    tableau: np.ndarray = internal["tableau"]
    basis: np.ndarray = internal["basis"]
    cost: np.ndarray = internal["cost"]
    reduced: np.ndarray = internal["reduced"]
    d = internal["n_struct"]
    n_cols = tableau.shape[1] - 1
    nonbasic = np.ones(n_cols, dtype=bool)
    nonbasic[basis] = False

    lo_int = np.empty(d)
    hi_int = np.empty(d)
    basis_row = {int(j): i for i, j in enumerate(basis)}
    for j in range(d):
        if j in basis_row:
            row = tableau[basis_row[j], :-1]
            up_mask = nonbasic & (row > PIVOT_TOL)
            dn_mask = nonbasic & (row < -PIVOT_TOL)
            delta_up = np.min(reduced[up_mask] / row[up_mask]) if up_mask.any() else np.inf
            delta_dn = np.max(reduced[dn_mask] / row[dn_mask]) if dn_mask.any() else -np.inf
            lo_int[j] = cost[j] + delta_dn
            hi_int[j] = cost[j] + delta_up
        else:
            lo_int[j] = cost[j] - reduced[j]
            hi_int[j] = np.inf
    if lp.sense is Sense.MAXIMIZE:
        lower, upper = -hi_int, -lo_int
    else:
        lower, upper = lo_int, hi_int
    # the solved coefficient always lies inside its own interval; clamp dust
    return np.minimum(lower, lp.objective), np.maximum(upper, lp.objective)
