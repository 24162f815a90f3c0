"""Combinatorial problem oracles with deterministic tie-breaking.

Three families are shipped, one class each: multi-dimensional 0/1
knapsack (maximize), shortest path on a directed grid (minimize), and
symmetric TSP (minimize). An oracle takes its instance data, validates it
once, and names itself (``ks16``, ``sp5x5``, ``tsp8``). Knapsack and grid
oracles solve exactly; a TSP oracle solves exactly up to
``HELD_KARP_MAX_NODES`` nodes and by a nearest-neighbor/2-opt heuristic
above, and ``exact`` says which. Every oracle counts its solves and exposes
its box-relaxed linear program, for sensitivity analysis, as
``problem.relaxation``. Which arc or edge each grid or TSP cost index names
is stated once, in the index plans ``_arc_plan`` and ``_tour_plan``, which
the recurrences, the tables and the relaxations all read.

An oracle's derived state (its relaxation, decision table and index plans)
depends on its instance alone, never on costs: on the size for a grid or a
TSP, on the weights and capacities for a knapsack. It is built on first use
and held in one process-wide store, ``_STORE``, keyed on the family and the
instance. Every oracle of the instance shares it read-only, keeps its own
reference for its life, and keeps its own ``solves``. The store holds at
most 4 MB, counted by ``_nbytes``. ``harness.run_experiment`` runs a grid's
cells seed-major, so all the cells of a knapsack instance run while it is
held. The phase-1 starts of sp15x15 (9.0 MB), sp20x20 and tsp50 (about
28 MB each) are past the bound, so their phase 1 runs once per ranging cell
rather than once per process.
"""
from __future__ import annotations

import itertools
import math
import re
from collections import OrderedDict
from functools import cached_property

import numpy as np

from .core import Sense, as_vector, frozen_array, load_json
from .errors import DimensionMismatch
from .simplex import LinearProgram


# a 0/1 decision is feasible when every constraint row holds to this
# tolerance; the knapsack solvers apply the same rule to each load
FEASIBILITY_TOL = 1e-9
KNAPSACK_TIE_TOL = 1e-9  # values this fraction of max(1, |best|) below the best tie


def _shared(build):
    """A cached property whose value, ``build(oracle)``, every oracle of the
    instance shares through ``_STORE``, under the property's name."""
    prop = cached_property(lambda oracle: _STORE.held(
        (type(oracle), oracle._instance), build.__name__, lambda: build(oracle)))
    prop.__doc__ = build.__doc__
    return prop


class ProblemOracle:
    """Base oracle: counts solves, checks feasibility, exposes the relaxation.

    A family validates its instance data in ``__init__``, passes its name
    and cost dimension ``d`` up, sets ``_instance``, and gives its
    ``relaxation``, its recurrence ``_solve_many`` on a validated (B, d)
    cost batch, and ``_decision_table``, None past its table budget.
    ``solves`` is the package's one solve count, never reset; ``harness``
    says what advances it.
    """

    sense: Sense
    relaxation: LinearProgram  # the LP relaxation ``Ax <= b, 0 <= x <= 1``
    exact: bool = True
    tie_tol: float = 0.0  # the table scan's tie band, relative to max(1, |best|)
    _instance: tuple  # the instance data that the derived state depends on

    def __init__(self, name: str, d: int) -> None:
        self.name = name
        self.d = d
        self.solves = 0

    def solve_many(self, costs: np.ndarray) -> np.ndarray:
        """(B, d) 0/1 decisions for a (B, d) cost batch; counts B solves. A
        family with a ``decision_table`` scans it, and otherwise runs its
        recurrence, whose decisions are checked under ``__debug__``."""
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 2 or costs.shape[1] != self.d:
            raise DimensionMismatch(f"costs must be a (B, {self.d}) batch, "
                                    f"got shape {costs.shape}")
        if not math.isfinite(np.add.reduce(costs, axis=None)):  # NaN, inf or overflow
            finite = np.isfinite(costs).all(axis=1)
            if not finite.all():
                raise ValueError(f"costs row {int(np.argmin(finite))} has non-finite entries")
        if costs.shape[0] == 0:
            return np.zeros(costs.shape)
        self.solves += costs.shape[0]
        table = self.decision_table
        if table is not None:
            return self._scan(table, costs)
        decisions = self._solve_many(costs)
        if __debug__:
            self._check_feasible(decisions, "solved row {} of the batch")
        return decisions

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @_shared
    def decision_table(self) -> np.ndarray | None:
        """Every feasible decision as a read-only row, in the family's tie
        order, looked up on the first solve and checked whole under
        ``__debug__`` where it is built; None when the recurrence solves."""
        table = self._decision_table()
        if table is not None:
            table.setflags(write=False)
            if __debug__:
                self._check_feasible(table, "row {} of the decision table")
        return table

    def _scan(self, table: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Per cost row, the first table row whose value is within ``tie_tol``
        * max(1, |best|) of the best value: with the rows in tie order, the
        decision the recurrence returns. A minimizing family scans the
        negated costs; with a band of 0 the first maximum is the pick."""
        signed = costs if self.sense is Sense.MAXIMIZE else -costs
        picks = np.empty(len(costs), dtype=np.intp)
        chunk = max(1, CHUNK_VALUES // len(table))
        for lo in range(0, len(costs), chunk):
            values = signed[lo:lo + chunk] @ table.T
            if self.tie_tol:
                best = values.max(axis=1, keepdims=True)
                values = values >= best - self.tie_tol * np.maximum(1.0, np.abs(best))
            values.argmax(axis=1, out=picks[lo:lo + chunk])
        return table[picks]

    def _check_feasible(self, decisions: np.ndarray, row_name: str) -> None:
        """Every row is 0/1 and meets the constraint rows of ``relaxation``;
        a failure names the first bad row, as ``row_name.format(index)``."""
        binary = (decisions == 0.0) | (decisions == 1.0)
        within = (decisions @ self.relaxation.constraint_matrix.T
                  <= self.relaxation.rhs + FEASIBILITY_TOL)
        if not (binary.all() and within.all()):
            ok = binary.all(axis=1) & within.all(axis=1)
            raise AssertionError(f"{self.name}: {row_name.format(int(np.argmin(ok)))} "
                                 "is not a feasible 0/1 decision of its relaxation")


def _equality_relaxation(a: np.ndarray, b: np.ndarray) -> LinearProgram:
    """The relaxation ``a x = b, 0 <= x <= 1``, each row as a <=/>= pair."""
    return LinearProgram(np.stack([a, -a], axis=1).reshape(-1, a.shape[1]),
                         np.stack([b, -b], axis=1).ravel(), upper=np.ones(a.shape[1]))


# --- decision tables and the store ------------------------------------------

# Knapsacks whose feasible decisions fit in this many table entries (subsets
# x items) solve by table scan, larger ones by the DP. Per solve_many call
# at B = 32 on spo+-like shifts of generator instances, 2 cores, two runs,
# DP -> table: ks16 305-624 -> 51-91 us, ks32 3.1-3.7 -> 0.9-1.0 ms, ks48
# 4.9-6.7 -> 10.7-11.7 ms. On seeds 0-19 a ks32 table has 99k-439k entries
# and a ks48 table 0.82M-3.2M, so the budget keeps ks8-ks32 and stops there
KNAPSACK_TABLE_MAX_ENTRIES = 1 << 19
# Grids and exact TSPs whose table (paths or tours x d) fits in this many
# entries solve by table scan, larger ones by their recurrence. Per
# solve_many call at B = 32 on spo+-like shifts, 2 cores, recurrence ->
# table: sp5x5 210 -> 56 us, sp7x7 526 -> 236 us, sp8x8 428 -> 1,094 us;
# tsp5 354 -> 45 us, tsp8 2,094 -> 315 us, tsp9 4,608 -> 6,045 us. The
# recurrences win from sp8x8 (3,432 paths) and tsp9 (20,160 tours), so the
# budget takes sp3x3-sp7x7 and tsp3-tsp8 (2,520 tours) and stops there
SIZE_TABLE_MAX_ENTRIES = 1 << 17
# float64 working values per batch chunk, 512 kB: table values (rows x
# table rows) of a scan, or Held-Karp states (rows x subsets x last nodes).
# Larger scan chunks read the table less often (ks48 ran 2.4x faster at
# 1 << 18) but raised the peak memory of forty ks16 spo+ cells by 0.7 MB,
# against 0.4 MB at this budget; Held-Karp ran fastest per row at this
# budget (tsp13 5.1 ms against 6.8 ms at 1 << 20)
CHUNK_VALUES = 1 << 16
# float64 load values per DP chunk, 8 MB: per batch row, one best value per
# load before each item. Per DP call at B = 32 on seed-0 spo+-like shifts,
# 2 cores, 1 << 16 -> 1 << 18 -> 1 << 20: ks64 11-12 -> 5-6 -> 3.6-3.8 ms and
# ks128 62-67 -> 19-20 -> 8.8-9.2 ms, at a tracemalloc peak of 0.5 -> 2.0 ->
# 6.3 MB at ks128 (BENCH_25.json); every budget gives the same decisions
KNAPSACK_DP_CHUNK_VALUES = 1 << 20


class _InstanceStore:
    """Read-only state derived from oracle instances, held for the whole
    process: per key, the values built under each name. It holds at most
    ``max_bytes``, as ``_nbytes`` counts them, and evicts the least recently
    used key first. A value past the bound on its own is built, handed out
    and not kept, and evicts nothing."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.entries: OrderedDict[tuple, dict] = OrderedDict()
        self.nbytes = 0

    def held(self, key: tuple, name: str, build):
        """The value of ``build()`` for ``key`` under ``name``, built once while held."""
        entry = self.entries.get(key, {})
        if name not in entry:
            value = build()  # which may look up, or evict, other names of the key
            size = _nbytes(value)
            if size > self.max_bytes:
                return value
            entry = self.entries.setdefault(key, {})
            entry[name] = value
            self.nbytes += size
        self.entries.move_to_end(key)
        while self.nbytes > self.max_bytes:
            _, evicted = self.entries.popitem(last=False)
            self.nbytes -= sum(map(_nbytes, evicted.values()))
        return entry[name]


def _nbytes(value) -> int:
    """Bytes of the arrays in a stored value, and of a relaxation with the
    phase-1 start it keeps once solved; 0 for anything else."""
    if isinstance(value, (np.ndarray, LinearProgram)):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(map(_nbytes, value))
    return 0


_STORE = _InstanceStore(8 * KNAPSACK_TABLE_MAX_ENTRIES)  # one knapsack table at the budget


# --- knapsack ---------------------------------------------------------------

class KnapsackOracle(ProblemOracle):
    """0/1 knapsack with q resource dimensions: maximize c'x, Wx <= cap.

    ``weights`` is a finite, non-negative (q, d) matrix and ``capacities`` a
    non-negative (q,) vector; the oracle is named ``ks{d}``. ``_load_plan``
    says which sets fit.
    """

    sense = Sense.MAXIMIZE
    tie_tol = KNAPSACK_TIE_TOL

    def __init__(self, weights, capacities) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch("weights must be a (q, d) matrix")
        if w.shape[1] < 1:
            raise ValueError("a knapsack needs at least 1 item")
        cap = as_vector(capacities, name="capacities", length=w.shape[0])
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        if np.any(w < 0) or np.any(cap < 0):
            raise ValueError("weights and capacities must be non-negative")
        super().__init__(f"ks{w.shape[1]}", w.shape[1])
        self.weights = frozen_array(w)
        self.capacities = frozen_array(cap)
        self._instance = (w.shape, w.tobytes(), cap.tobytes())

    @_shared
    def relaxation(self) -> LinearProgram:
        """Capacity rows ``weights x <= capacities``."""
        return LinearProgram(self.weights, self.capacities, upper=np.ones(self.d))

    def _decision_table(self) -> np.ndarray | None:
        """Every feasible 0/1 decision as a row, in lexicographic order (x_0
        most significant, 0 before 1); None when it would pass
        ``KNAPSACK_TABLE_MAX_ENTRIES`` entries. A decision is optimal within
        ``KNAPSACK_TIE_TOL`` * max(1, |best|) of the best value, and the
        scan takes the first such row: the empty set is row 0, and a set
        that takes an item of non-positive cost is preceded by the same set
        without it.

        Subsets grow item by item along ``_load_plan``, so the table and the
        DP see the same feasible sets. The subsets of each load are counted
        first, so a knapsack past the budget builds no row.
        """
        steps, _ = self._load_plan
        count = np.ones(1)  # per load before item j, the subsets that reach it
        for skip, take in steps:
            fits = take >= 0
            count = np.bincount(np.concatenate([skip, take[fits]]),
                                weights=np.concatenate([count, count[fits]]))
        if count.sum() * self.d > KNAPSACK_TABLE_MAX_ENTRIES:
            return None
        table = np.zeros((int(count.sum()), self.d))
        load = np.zeros(1, dtype=np.intp)  # per subset so far, its load before item j
        for j, (skip, take) in enumerate(steps):
            parents = np.flatnonzero(take[load] >= 0)
            grown = slice(len(load), len(load) + len(parents))
            table[grown] = table[parents]
            table[grown, j] = 1.0
            load = np.concatenate([skip[load], take[load[parents]]])
        return table[np.lexsort(table.T[::-1])]

    @_shared
    def _load_plan(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], int]:
        """The distinct remaining capacities (loads) that subsets reach,
        taken down item by item: item j fits a load when each of its
        weights is at most that load plus ``FEASIBILITY_TOL``. Per item j,
        the (skip, take) indices of each load before j among the loads after
        j, take -1 where j does not fit; then the number of loads after the
        last item. Equal loads have equal futures, so loads are few where
        subsets are not: at most 229 per item on generator knapsacks up to
        ks256."""
        remaining = self.capacities[None, :]
        steps = []
        for j in range(self.d):
            fits = np.all(self.weights[:, j] <= remaining + FEASIBILITY_TOL, axis=1)
            grown = np.vstack([remaining, remaining[fits] - self.weights[:, j]])
            remaining, after = np.unique(grown, axis=0, return_inverse=True)
            take = np.full(len(fits), -1)
            take[fits] = after[len(fits):]
            skip = after[:len(fits)].copy()  # not a view: the store counts what it keeps
            for arr in (skip, take):
                arr.setflags(write=False)  # shared by every oracle of the instance
            steps.append((skip, take))
        return tuple(steps), len(remaining)

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        """Optimal 0/1 selections, the lexicographically first in the tie
        band, by dynamic programming over ``_load_plan``, in chunks of
        ``KNAPSACK_DP_CHUNK_VALUES`` load values. A backward pass keeps, per
        load before item j and batch row, the best value of items j on; a
        forward pass from the full capacity then skips each item whenever
        the best value without it still reaches the band, and takes it
        otherwise, so an item of non-positive cost is never taken."""
        steps, last_loads = self._load_plan
        loads = sum(len(skip) for skip, _ in steps) + last_loads
        chunk = max(1, KNAPSACK_DP_CHUNK_VALUES // loads)
        x = np.zeros(costs.shape)
        for lo in range(0, len(costs), chunk):
            c = costs[lo:lo + chunk].T
            batch = np.arange(c.shape[1])
            # best[j]: per load before item j, and a last row of -inf where
            # a take index of -1 reads, the best value of items j on
            best = [None] * self.d + [np.zeros((last_loads + 1, len(batch)))]
            best[-1][-1] = -np.inf
            for j in reversed(range(self.d)):
                skip, take = steps[j]
                best[j] = np.full((len(skip) + 1, len(batch)), -np.inf)
                np.maximum(best[j + 1][skip], c[j] + best[j + 1][take], out=best[j][:-1])
            top = best[0][0]
            band = top - KNAPSACK_TIE_TOL * np.maximum(1.0, np.abs(top))
            value = np.zeros(len(batch))
            load = np.zeros(len(batch), dtype=np.intp)
            for j, (skip, take) in enumerate(steps):
                # take only what beats skipping: should the running sum round
                # a best completion to just below the band, the walk still
                # follows it, and never reads a take index of -1
                skipped = best[j + 1][skip[load], batch]
                taking = (value + skipped < band) & (skipped < best[j][load, batch])
                x[lo:lo + chunk, j] = taking
                value += taking * c[j]
                load = np.where(taking, take[load], skip[load])
        return x


# --- grid shortest path -----------------------------------------------------

class ShortestPathOracle(ProblemOracle):
    """Directed grid: east/south arcs from top-left to bottom-right.

    ``rows`` and ``cols`` count nodes; the oracle is named ``sp{rows}x{cols}``.
    Costs index arcs: the east arcs (r, c) -> (r, c + 1) first, row-major,
    then the south arcs (r, c) -> (r + 1, c), row-major (``_arc_plan``).
    """

    sense = Sense.MINIMIZE

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
        super().__init__(f"sp{rows}x{cols}", rows * (cols - 1) + (rows - 1) * cols)
        self.rows = rows
        self.cols = cols
        self._instance = (rows, cols)

    @_shared
    def _arc_plan(self) -> np.ndarray:
        """(2, rows, rows + cols - 1) arc indices in the skewed layout: node
        (r, c) sits at [:, r, r + c], its south arc in [0] and its east arc
        in [1]. A missing arc, and a slot off the grid, holds d: the index of
        the +inf column that ``_solve_many`` appends to the costs."""
        rows, cols, d = self.rows, self.cols, self.d
        n_east = rows * (cols - 1)
        r = np.arange(rows)[:, None]
        c = np.arange(rows + cols - 1) - r
        south = np.where((c >= 0) & (c < cols) & (r < rows - 1), n_east + r * cols + c, d)
        east = np.where((c >= 0) & (c < cols - 1), r * (cols - 1) + c, d)
        plan = np.stack([south, east])
        plan.setflags(write=False)
        return plan

    @_shared
    def relaxation(self) -> LinearProgram:
        """Arc-flow relaxation: one conservation row per node but the sink
        (redundant given the others), row-major, out arcs at +1 and in arcs
        at -1, with supply 1 at the source."""
        rows, cols, d = self.rows, self.cols, self.d
        nodes = np.arange(rows * cols)
        r, c = np.divmod(nodes, cols)
        south, east = self._arc_plan[:, r, r + c]
        tail, head = np.empty((2, d + 1), dtype=np.intp)  # [d] takes the missing arcs
        tail[south] = tail[east] = nodes
        head[south], head[east] = nodes + cols, nodes + 1
        flow = np.zeros((rows * cols, d))
        flow[tail[:d], np.arange(d)] = 1.0
        flow[head[:d], np.arange(d)] = -1.0
        return _equality_relaxation(flow[:-1], (nodes[:-1] == 0).astype(float))

    def _decision_table(self) -> np.ndarray | None:
        """Every monotone path as an arc-indicator row, in lexicographic
        order (x_0 most significant, 0 before 1), when its C(rows + cols - 2,
        rows - 1) paths x d fit in ``SIZE_TABLE_MAX_ENTRIES``. The scan keeps
        the first of the exactly cheapest paths: the lexicographically
        smallest, as in the DP. A path is the set of its rows - 1 south steps
        among its rows + cols - 2 steps; step k leaves node (r, k - r), whose
        arcs ``_arc_plan`` holds at [:, r, k]."""
        steps = self.rows + self.cols - 2
        if math.comb(steps, self.rows - 1) * self.d > SIZE_TABLE_MAX_ENTRIES:
            return None
        picks = np.array(list(itertools.combinations(range(steps), self.rows - 1)))
        south = np.zeros((len(picks), steps), dtype=bool)
        south[np.arange(len(picks))[:, None], picks] = True
        r = np.cumsum(south, axis=1) - south  # the row each step leaves from
        arcs = self._arc_plan[(~south).view(np.uint8), r, np.arange(steps)]
        table = np.zeros((len(picks), self.d))
        table[np.arange(len(picks))[:, None], arcs] = 1.0
        return table[np.lexsort(table.T[::-1])]

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        """Cheapest monotone paths, ties to the lexicographically smallest arc set.

        A backward recurrence over the anti-diagonals k = r + c, sink first,
        for the whole batch at once: in the skewed layout of ``_arc_plan`` a
        diagonal is one slice, and a node's successors sit on the next one,
        east at the same r and south at r + 1. East wins only when strictly
        cheaper: at node (r, c) every arc of either branch has an index at
        least that of the node's east arc, which only the east branch holds,
        so south wins a tie and each node keeps the smallest of its optimal
        suffixes. The paths are rebuilt forward from the "go east" flags.
        """
        rows, diagonals = self.rows, self.rows + self.cols - 1
        plan = self._arc_plan
        batch = costs.shape[0]
        padded = np.empty((self.d + 1, batch))
        padded[:-1] = costs.T
        padded[-1] = np.inf  # a missing arc
        south, east = padded[plan.transpose(0, 2, 1)]  # (diagonal, r, batch row) each
        cost_to_go = np.empty((diagonals, rows, batch))
        cost_to_go[-1] = np.inf
        cost_to_go[-1, -1] = 0.0  # the sink
        go_east = np.empty((diagonals - 1, rows, batch), dtype=bool)
        for k in range(diagonals - 2, -1, -1):
            east[k] += cost_to_go[k + 1]
            south[k, :-1] += cost_to_go[k + 1, 1:]  # the last row has no south arc
            np.less(east[k], south[k], out=go_east[k])
            np.minimum(east[k], south[k], out=cost_to_go[k])
        batch_rows = np.arange(batch)
        r = np.zeros(batch, dtype=np.intp)
        path = np.empty((diagonals - 1, batch), dtype=np.intp)
        for k in range(diagonals - 1):
            step = go_east[k, r, batch_rows]
            path[k] = plan[step.view(np.uint8), r, k]  # 0 south, 1 east
            r += ~step
        x = np.zeros(costs.shape)
        x[batch_rows, path] = 1.0
        return x


# --- travelling salesperson -------------------------------------------------

HELD_KARP_MAX_NODES = 13


def _nearest_neighbor_2opt(dist: np.ndarray) -> list[int]:
    """Deterministic heuristic on one (n, n) distance matrix: best of all
    nearest-neighbor starts, then first-improvement 2-opt until locally
    optimal."""
    n = dist.shape[0]

    def tour_cost(tour: list[int]) -> float:
        return float(sum(dist[a, b] for a, b in zip(tour, tour[1:] + tour[:1])))

    best_tour: list[int] | None = None
    best_cost = np.inf
    for start in range(n):
        tour = [start]
        seen = {start}
        while len(tour) < n:
            here = tour[-1]
            nxt = min((dist[here, j], j) for j in range(n) if j not in seen)[1]
            tour.append(nxt)
            seen.add(nxt)
        cost = tour_cost(tour)
        if cost < best_cost - 1e-12:
            best_tour, best_cost = tour, cost
    tour = best_tour
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # reversing the whole tour changes nothing
                a, b = tour[i], tour[i + 1]
                c, e = tour[j], tour[(j + 1) % n]
                delta = dist[a, c] + dist[b, e] - dist[a, b] - dist[c, e]
                if delta < -1e-10:
                    tour[i + 1:j + 1] = reversed(tour[i + 1:j + 1])
                    improved = True
        # rescan from the top until a full sweep finds nothing
    # canonical orientation: start at node 0
    k = tour.index(0)
    return tour[k:] + tour[:k]


class TspOracle(ProblemOracle):
    """Symmetric TSP on a complete graph; costs index edges (i, j), i < j.

    The edges are in row-major upper-triangle order, (0, 1), (0, 2), ...,
    (0, n - 1), (1, 2), ..., (n - 2, n - 1) (``_tour_plan``). The oracle is
    named ``tsp{n_nodes}``. Held-Karp solves it exactly up to
    ``HELD_KARP_MAX_NODES`` nodes, and the nearest-neighbor/2-opt heuristic
    above; ``exact`` follows from the node count.
    """

    sense = Sense.MINIMIZE

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 3:
            raise ValueError("a tour needs at least 3 nodes")
        super().__init__(f"tsp{n_nodes}", n_nodes * (n_nodes - 1) // 2)
        self.n_nodes = n_nodes
        self._instance = (n_nodes,)

    @property
    def exact(self) -> bool:
        """True when Held-Karp solves, False when the heuristic does."""
        return self.n_nodes <= HELD_KARP_MAX_NODES

    @_shared
    def _tour_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only index arrays: ``slots`` (2, d), the flat (i, j) and
        (j, i) positions in an (n, n) matrix of each edge i < j, in cost
        order; ``edge_ids`` (n, n), the edge index of each pair (the diagonal
        unused); ``successor`` (n,), the next position around a tour."""
        n = self.n_nodes
        i, j = np.triu_indices(n, 1)  # the cost order: row-major upper triangle
        slots = np.stack([i * n + j, j * n + i])
        edge_ids = np.zeros(n * n, dtype=np.intp)
        edge_ids[slots] = np.arange(len(i))
        plan = (slots, edge_ids.reshape(n, n), np.roll(np.arange(n), -1))
        for arr in plan:
            arr.setflags(write=False)
        return plan

    @_shared
    def relaxation(self) -> LinearProgram:
        """Degree-2 relaxation: one row per node, at 1 on the node's n - 1
        edges, with right-hand side 2."""
        n = self.n_nodes
        _, edge_ids, _ = self._tour_plan
        node, other = np.nonzero(~np.eye(n, dtype=bool))
        degree = np.zeros((n, self.d))
        degree[node, edge_ids[node, other]] = 1.0
        return _equality_relaxation(degree, np.full(n, 2.0))

    def _tour_indicators(self, tours: np.ndarray) -> np.ndarray:
        """(T, d) edge indicators of (T, n) tours."""
        _, edge_ids, successor = self._tour_plan
        x = np.zeros((len(tours), self.d))
        x[np.arange(len(tours))[:, None], edge_ids[tours, tours[:, successor]]] = 1.0
        return x

    def _decision_table(self) -> np.ndarray | None:
        """One edge-indicator row per undirected tour, when its (n - 1)! / 2
        tours x d fit in ``SIZE_TABLE_MAX_ENTRIES``, in Held-Karp's scan
        order: by the smallest (t[n-1], ..., t[1]) over the tour's two
        orientations from node 0, so the scan keeps the tour Held-Karp
        returns. Of the orientations (0, p) and (0, reversed p) with p[0] <
        p[-1], the second ends in the smaller node and its key is p itself,
        so these p, in permutation order, are sorted."""
        n = self.n_nodes
        if math.factorial(n - 1) // 2 * self.d > SIZE_TABLE_MAX_ENTRIES:
            return None
        tours = [(0,) + p for p in itertools.permutations(range(1, n)) if p[0] < p[-1]]
        return self._tour_indicators(np.array(tours))

    def _edge_matrices(self, costs: np.ndarray) -> np.ndarray:
        """(B, n, n) symmetric distance matrices of a (B, d) edge-cost batch."""
        n = self.n_nodes
        dist = np.zeros((costs.shape[0], n * n))
        upper, lower = self._tour_plan[0]
        dist[:, upper] = costs
        dist[:, lower] = costs
        return dist.reshape(-1, n, n)

    @_shared
    def _popcount_layers(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Held-Karp's subsets of the m = n - 1 nodes past node 0: for each
        size 2..m, every (mask, last) pair with ``last`` in ``mask``, masks
        ascending, and each pair's predecessor mask, ``mask`` without ``last``."""
        m = self.n_nodes - 1
        masks = np.arange(1 << m)
        bits = (masks[:, None] >> np.arange(m)) & 1
        sizes = bits.sum(axis=1)
        layers = []
        for size in range(2, m + 1):
            rows, lasts = np.nonzero(bits[sizes == size])
            layer = (masks[sizes == size][rows], lasts)
            layer += (layer[0] ^ (1 << lasts),)
            for arr in layer:
                arr.setflags(write=False)
            layers.append(layer)
        return tuple(layers)

    def _held_karp_many(self, dist: np.ndarray) -> np.ndarray:
        """Exact bitmask DP over a (B, n, n) distance batch, anchored at node
        0, one popcount layer at a time; each state takes the first-index
        argmin over its predecessors. Returns the (B, n) tours, node 0 first."""
        n = dist.shape[1]
        m = n - 1  # nodes 1..n-1 in mask coordinates
        full = 1 << m
        batch = dist.shape[0]
        dp = np.full((batch, full, m), np.inf)
        parent = np.full((batch, full, m), -1, dtype=np.int8)
        inner = dist[:, 1:, 1:]
        dp[:, 1 << np.arange(m), np.arange(m)] = dist[:, 0, 1:]
        for masks, lasts, rests in self._popcount_layers:
            # cand[b, s, prev] = dp[b, rest_s, prev] + dist[prev, last_s], with rest_s
            # mask_s without last_s; predecessors outside rest_s sit at inf in dp
            cand = dp[:, rests, :] + inner[:, :, lasts].transpose(0, 2, 1)
            best = cand.argmin(axis=2)
            dp[:, masks, lasts] = np.take_along_axis(cand, best[:, :, None], axis=2)[:, :, 0]
            parent[:, masks, lasts] = best
        # walk the parents back from the closing node, the whole batch per step
        rows = np.arange(batch)
        tours = np.zeros((batch, n), dtype=np.intp)
        mask = np.full(batch, full - 1)
        last = (dp[:, full - 1] + dist[:, 1:, 0]).argmin(axis=1)
        for pos in range(n - 1, 0, -1):
            tours[:, pos] = last + 1
            nxt = parent[rows, mask, last].astype(np.intp)
            mask ^= 1 << last
            last = nxt
        return tours

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        """Held-Karp, in chunks of ``CHUNK_VALUES`` states, or the heuristic
        row by row."""
        dist = self._edge_matrices(costs)
        if self.exact:
            m = self.n_nodes - 1
            chunk = max(1, CHUNK_VALUES // ((1 << m) * m))
            tours = np.concatenate([self._held_karp_many(dist[lo:lo + chunk])
                                    for lo in range(0, len(dist), chunk)])
        else:
            tours = np.array([_nearest_neighbor_2opt(matrix) for matrix in dist])
        return self._tour_indicators(tours)


# --- registry ---------------------------------------------------------------

KNAPSACK_WEIGHT_CHOICES = np.arange(3, 9)  # integer weights drawn from {3..8}
KNAPSACK_CAPACITY = 20.0
KNAPSACK_DIMS = 2


def make_knapsack(d: int, seed: int, q: int = KNAPSACK_DIMS,
                  capacity: float = KNAPSACK_CAPACITY) -> KnapsackOracle:
    rng = np.random.default_rng(seed)
    weights = rng.choice(KNAPSACK_WEIGHT_CHOICES, size=(q, d)).astype(float)
    return KnapsackOracle(weights, np.full(q, capacity))


# (family, short-name pattern, the params key of each of its numbers)
_SHORT_NAMES = (("knapsack", re.compile(r"^ks(\d+)$"), ("d",)),
                ("shortest-path", re.compile(r"^sp(\d+)x(\d+)$"), ("rows", "cols")),
                ("tsp", re.compile(r"^tsp(\d+)$"), ("n_nodes",)))


def problem_from_name(name: str, seed: int = 0) -> ProblemOracle:
    """Build an oracle from a short name (ks32, sp5x5, tsp20, custom:<file>).

    A short name stands for the saved problem of its family whose params
    are its numbers, and ``problem_from_dict`` builds it. The seed only
    matters for knapsack, whose weights are sampled once per problem
    instance.
    """
    if name.startswith("custom:"):
        return load_problem(name.split(":", 1)[1], seed=seed)
    for family, pattern, keys in _SHORT_NAMES:
        if (m := pattern.match(name)):
            params = dict(zip(keys, map(int, m.groups())))
            return problem_from_dict({"family": family, "params": params}, seed=seed)
    raise ValueError(f"unknown problem name {name!r}; "
                     "expected ks<d>, sp<r>x<c>, tsp<n>, or custom:<file>")


def problem_from_dict(payload: dict, seed: int = 0) -> ProblemOracle:
    """Build an oracle from a saved problem: ``family`` plus its ``params``.

    A TSP's solver follows from ``n_nodes`` alone, so a ``mode`` key is
    rejected rather than silently ignored.
    """
    family = payload["family"]
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"params is a JSON {type(params).__name__}, not an object")
    if family == "knapsack":
        if "weights" in params:
            return KnapsackOracle(params["weights"], params["capacities"])
        return make_knapsack(int(params["d"]), seed=int(payload.get("seed", seed)),
                             q=int(params.get("q", KNAPSACK_DIMS)),
                             capacity=float(params.get("capacity", KNAPSACK_CAPACITY)))
    if family == "shortest-path":
        return ShortestPathOracle(int(params["rows"]), int(params["cols"]))
    if family == "tsp":
        if "mode" in params:
            raise ValueError("tsp params key 'mode' is no longer read: the solver is "
                             f"exact up to {HELD_KARP_MAX_NODES} nodes and heuristic "
                             "above; remove the key")
        return TspOracle(int(params["n_nodes"]))
    raise ValueError(f"unknown problem family {family!r}")


def load_problem(path, seed: int = 0) -> ProblemOracle:
    return load_json(path, lambda payload: problem_from_dict(payload, seed=seed))
