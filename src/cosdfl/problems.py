"""Combinatorial problem oracles with deterministic tie-breaking.

Three families are shipped, one class each: multi-dimensional 0/1
knapsack (maximize), shortest path on a directed grid (minimize), and
symmetric TSP (minimize). An oracle takes its instance data, validates it
once, and names itself (``ks16``, ``sp5x5``, ``tsp8``). Knapsack and grid
oracles solve exactly; a TSP oracle solves exactly by Held-Karp up to
``HELD_KARP_MAX_NODES`` nodes and by a nearest-neighbor/2-opt heuristic
above, and ``exact`` says which. Every oracle counts its calls and exposes
its box-relaxed linear program, for sensitivity analysis, as
``problem.relaxation``, built on first use: once per knapsack oracle, whose
rows are its weights, and once per size and process for the grid and the
TSP, whose rows depend on the size alone, so their phase 1 runs once.

Oracles solve in batches: ``solve_many(C)`` maps a (B, d) cost batch to the
(B, d) 0/1 decisions and counts B solves. The grid DP and Held-Karp run as
array recurrences over the batch. The grid takes one anti-diagonal of nodes
(r + c = k, sink first) per step and rebuilds the paths in rows + cols - 2
forward steps; Held-Karp takes one popcount layer of subsets at a time, then
one backtrack step per tour position. Their index plans (the grid's arc
indices per diagonal, Held-Karp's layers with their predecessor masks, the
TSP edge slots) are built on the first solve of a size, cached read-only
and shared by every later oracle of that size. A knapsack whose
feasible sets fit in ``KNAPSACK_TABLE_MAX_ENTRIES`` table entries (ks8-ks48
at the generator's settings) scores the batch against a table of every
feasible decision; a larger one (ks64) runs branch-and-bound row by row, as
does the TSP heuristic. Under ``__debug__`` every solved row is checked
against the constraint rows of ``relaxation`` in one array test, to
``FEASIBILITY_TOL``, the tolerance every knapsack load is held to.

Knapsack and grid solvers break objective ties by returning the
lexicographically smallest decision vector, so repeated solves of tied
instances are reproducible. The grid compares path costs exactly and needs
no set comparison: at node (r, c) every arc of either branch has an index
at least ``east_index(r, c)``, which only the east branch holds, so south
wins a tie and east wins only when strictly cheaper. The knapsack counts
every decision within ``KNAPSACK_TIE_TOL`` * max(1, |best|) of the best
value as tied. The exact TSP solver is deterministic via a fixed
dynamic-programming scan order (global lexicographic reconstruction would
need one extra DP per edge, which ties never justify in practice). The TSP
heuristic can miss the optimum, so regret scored against it
(``core.instance_regrets``) is a lower bound on the true regret.
"""
from __future__ import annotations

import json
import operator
import re
import threading
from functools import cached_property, lru_cache

import numpy as np

from .core import Sense, as_vector, frozen_array
from .errors import DimensionMismatch
from .simplex import LinearProgram


# a 0/1 decision is feasible when every constraint row holds to this
# tolerance; the knapsack solvers apply the same rule to each load
FEASIBILITY_TOL = 1e-9
KNAPSACK_TIE_TOL = 1e-9  # values this fraction of max(1, |best|) below the best tie


class CallCounter:
    """Thread-safe monotone count of a problem's solves.

    ``problem.counter`` is the only solve count of the package: the oracle
    advances it by one per solved cost row, and ``attach_ranges`` by one per
    LP solve of the problem's relaxation. It is never reset; the harness
    reads the change across each pipeline phase (``SolveCounts.phase``).
    """

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def increment(self, n: int = 1) -> None:
        with self._lock:
            self._count += n

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


class ProblemOracle:
    """Base oracle: counts solves, checks feasibility, exposes the relaxation.

    A family validates its instance data in ``__init__``, passes its name
    and cost dimension ``d`` up, and implements ``_solve_many`` on a
    validated (B, d) cost batch.
    """

    sense: Sense
    exact: bool = True

    def __init__(self, name: str, d: int) -> None:
        self.name = name
        self.d = d
        self.counter = CallCounter()

    def solve_many(self, costs: np.ndarray) -> np.ndarray:
        """(B, d) 0/1 decisions for a (B, d) cost batch; counts B solves."""
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 2 or costs.shape[1] != self.d:
            raise DimensionMismatch(f"costs must be a (B, {self.d}) batch, "
                                    f"got shape {costs.shape}")
        finite = np.isfinite(costs).all(axis=1)
        if not finite.all():
            raise ValueError(f"costs row {int(np.argmin(finite))} contains non-finite entries")
        if costs.shape[0] == 0:
            return np.zeros(costs.shape)
        self.counter.increment(costs.shape[0])
        decisions = self._solve_many(costs)
        if __debug__:
            self._check_feasible(decisions)
        return decisions

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def relaxation(self) -> LinearProgram:
        """The LP relaxation ``Ax <= b, 0 <= x <= 1``, built on first use;
        grid and TSP oracles of one size share theirs (``_size_relaxation``)."""
        return LinearProgram(*self._relaxed_rows(), upper=np.ones(self.d))

    def _relaxed_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The constraint rows ``(A, b)`` of the relaxation."""
        raise NotImplementedError

    @cached_property
    def _load_limits(self) -> np.ndarray:
        """``rhs + FEASIBILITY_TOL`` of ``relaxation``, read-only."""
        return frozen_array(self.relaxation.rhs + FEASIBILITY_TOL)

    def _check_feasible(self, decisions: np.ndarray) -> None:
        """Every row is 0/1 and meets the constraint rows of ``relaxation``."""
        binary = (decisions == 0.0) | (decisions == 1.0)
        within = decisions @ self.relaxation.constraint_matrix.T <= self._load_limits
        if not (binary.all() and within.all()):
            ok = binary.all(axis=1) & within.all(axis=1)
            raise AssertionError(f"{self.name}: solved row {int(np.argmin(ok))} of the "
                                 "batch is not a feasible 0/1 decision of its relaxation")


# --- knapsack ---------------------------------------------------------------

# Knapsacks whose feasible decisions fit in this many table entries (subsets
# x items) solve by table look-up, larger ones by branch-and-bound. Median
# per row at B = 32 on generator instances, branch-and-bound -> table:
# ks8 95 -> 2.1 us, ks16 191 -> 4.2 us, ks32 718 -> 35 us, ks48 823 -> 462 us
# (23.6k subsets); ks64 (85k subsets, 3.4 ms per row) is past the budget
KNAPSACK_TABLE_MAX_ENTRIES = 1 << 21
# table values (rows x subsets) per batch chunk, 512 kB: larger chunks read
# the table less often (ks48 ran 2.4x faster at 1 << 18) but raised the peak
# memory of forty ks16 spo+ cells by 0.7 MB, against 0.4 MB at this budget
KNAPSACK_CHUNK_VALUES = 1 << 16


def _tightest_dimension(weights: np.ndarray, capacities: np.ndarray) -> int:
    load = weights.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pressure = np.where(capacities > 0, load / np.maximum(capacities, 1e-300), np.inf)
    return int(np.argmax(pressure))


def _knapsack_order(weights: np.ndarray, tight: int, costs: np.ndarray) -> np.ndarray:
    """Profitable items sorted by density on the tightest resource dimension."""
    profitable = np.flatnonzero(costs > 0.0)
    w_tight = weights[tight, profitable]
    density = np.where(w_tight > 0, costs[profitable] / np.maximum(w_tight, 1e-300), np.inf)
    return profitable[np.lexsort((profitable, -density))]


def _fractional_bound(costs, w_tight, items, remaining_tight) -> float:
    """Upper bound over ``items`` (in density order): fractional fill of the
    tightest dimension only."""
    bound = 0.0
    room = remaining_tight
    for j in items:
        w = w_tight[j]
        if w <= room:
            bound += costs[j]
            room -= w
        else:
            if room > 0 and w > 0:
                bound += costs[j] * (room / w)
            break
    return bound


def _fits(weights, rem) -> bool:
    for w, r in zip(weights, rem):
        if not w <= r + FEASIBILITY_TOL:
            return False
    return True


def _minus(rem, weights) -> tuple:
    return tuple(map(operator.sub, rem, weights))


def _knapsack_row(costs: list, order: list, item_weights: list, cap: tuple,
                  tight: int) -> list[int]:
    """Chosen items of one row (plain floats); see ``KnapsackOracle._branch_and_bound``."""
    w_tight = [w[tight] for w in item_weights]
    n = len(order)
    from_pos = [order[pos:] for pos in range(n + 1)]
    # greedy incumbent primes the pruning bound
    best = 0.0
    rem = cap
    for j in order:
        if _fits(item_weights[j], rem):
            best += costs[j]
            rem = _minus(rem, item_weights[j])

    stack = [(0, 0.0, cap)]
    while stack:
        pos, value, rem = stack.pop()
        if value > best:
            best = value
        if pos >= n:
            continue
        bound = value + _fractional_bound(costs, w_tight, from_pos[pos], rem[tight])
        if bound <= best + 1e-12 * max(1.0, abs(best)):
            continue
        j = order[pos]
        # skip branch pushed first so the take branch is explored first
        stack.append((pos + 1, value, rem))
        if _fits(item_weights[j], rem):
            stack.append((pos + 1, value + costs[j], _minus(rem, item_weights[j])))

    eps = KNAPSACK_TIE_TOL * max(1.0, abs(best))
    if best <= eps:
        return []  # taking nothing is optimal and lexicographically smallest
    d = len(costs)
    # the density order restricted to indices >= j, for every j
    from_index = [[i for i in order if i >= j] for j in range(d + 1)]
    chosen: list[int] = []

    def walk(j: int, value: float, rem: tuple) -> bool:
        if j == d:
            return value >= best - eps
        tail = from_index[j + 1]
        # zero branch first: prefixes are visited in lexicographic order
        if value + _fractional_bound(costs, w_tight, tail, rem[tight]) >= best - eps:
            if walk(j + 1, value, rem):
                return True
        if costs[j] > 0.0 and _fits(item_weights[j], rem):
            take_value = value + costs[j]
            if take_value + _fractional_bound(costs, w_tight, tail,
                                              rem[tight] - w_tight[j]) >= best - eps:
                chosen.append(j)
                if walk(j + 1, take_value, _minus(rem, item_weights[j])):
                    return True
                chosen.pop()
        return False

    if not walk(0, 0.0, cap):
        # the first pass proved this value is attainable, so the replay
        # cannot come up empty unless the bound arithmetic is inconsistent
        raise RuntimeError("knapsack reconstruction failed to reach the proven optimum")
    return chosen


class KnapsackOracle(ProblemOracle):
    """0/1 knapsack with q resource dimensions: maximize c'x, Wx <= cap.

    ``weights`` is a non-negative (q, d) matrix and ``capacities`` a
    non-negative (q,) vector; the oracle is named ``ks{d}``. A set fits when
    each load is at most its capacity plus ``FEASIBILITY_TOL``.
    """

    sense = Sense.MAXIMIZE

    def __init__(self, weights, capacities) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch("weights must be a (q, d) matrix")
        cap = as_vector(capacities, name="capacities", length=w.shape[0])
        if np.any(w < 0) or np.any(cap < 0):
            raise ValueError("weights and capacities must be non-negative")
        super().__init__(f"ks{w.shape[1]}", w.shape[1])
        self.weights = frozen_array(w)
        self.capacities = frozen_array(cap)

    @cached_property
    def decision_table(self) -> np.ndarray | None:
        """Every feasible 0/1 decision as a row, in lexicographic order (x_0
        most significant, 0 before 1), built on the first solve; None when it
        would pass ``KNAPSACK_TABLE_MAX_ENTRIES`` entries.

        Subsets grow item by item in index order, each taking the remaining
        capacity down one item at a time, as the branch-and-bound walk does.
        Only the remaining capacities are kept until the count is known to
        fit, so a knapsack past the budget never holds a partial table.
        """
        remaining = self.capacities[None, :]
        grown_from = []  # per item j: the subsets that j was added to
        for j in range(self.d):
            fits = np.all(self.weights[:, j] <= remaining + FEASIBILITY_TOL, axis=1)
            parents = np.flatnonzero(fits)
            if (len(remaining) + len(parents)) * self.d > KNAPSACK_TABLE_MAX_ENTRIES:
                return None
            grown_from.append(parents)
            remaining = np.vstack([remaining, remaining[parents] - self.weights[:, j]])
        table = np.zeros((len(remaining), self.d))
        start = 1
        for j, parents in enumerate(grown_from):
            table[start:start + len(parents)] = table[parents]
            table[start:start + len(parents), j] = 1.0
            start += len(parents)
        table = table[np.lexsort(table.T[::-1])]
        table.setflags(write=False)
        return table

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        """Optimal 0/1 selections; ties resolved to the lexicographically smallest.

        A decision is optimal when its value is within ``KNAPSACK_TIE_TOL`` *
        max(1, |best|) of the best value; the lexicographically first wins.
        With a ``decision_table`` that is the first table row in the band;
        the empty set is row 0, and a set that takes an item of non-positive
        cost is preceded by the same set without it. Otherwise, per row,
        ``_knapsack_row`` proves the best value and walks to that decision.
        """
        table = self.decision_table
        if table is None:
            return self._branch_and_bound(costs)
        x = np.empty(costs.shape)
        chunk = max(1, KNAPSACK_CHUNK_VALUES // len(table))
        for lo in range(0, len(costs), chunk):
            values = costs[lo:lo + chunk] @ table.T
            best = values.max(axis=1, keepdims=True)
            in_band = values >= best - KNAPSACK_TIE_TOL * np.maximum(1.0, np.abs(best))
            x[lo:lo + chunk] = table[in_band.argmax(axis=1)]
        return x

    def _branch_and_bound(self, costs: np.ndarray) -> np.ndarray:
        """Two passes per row: branch-and-bound with a fractional-relaxation
        bound proves the optimal value, then a depth-first walk in index order
        (zero branch first) reconstructs the first assignment in the band.
        Items with non-positive cost are never taken."""
        x = np.zeros(costs.shape)
        item_weights = [tuple(col) for col in self.weights.T.tolist()]
        cap = tuple(self.capacities.tolist())
        tight = _tightest_dimension(self.weights, self.capacities)
        for row, c in enumerate(costs):
            order = _knapsack_order(self.weights, tight, c).tolist()
            x[row, _knapsack_row(c.tolist(), order, item_weights, cap, tight)] = 1.0
        return x

    def _relaxed_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.weights, self.capacities


@lru_cache(maxsize=None)
def _size_relaxation(family: type[ProblemOracle], *size: int) -> LinearProgram:
    """The relaxation shared by every ``family(*size)`` oracle, for a family
    whose constraint rows depend on the size alone."""
    oracle = family(*size)
    return LinearProgram(*oracle._relaxed_rows(), upper=np.ones(oracle.d))


# --- grid shortest path -----------------------------------------------------

@lru_cache(maxsize=None)
def _grid_arc_plan(rows: int, cols: int) -> np.ndarray:
    """(2, rows, rows + cols - 1) arc indices of a grid in the skewed layout:
    node (r, c) sits at [:, r, r + c], its south arc in [0] and its east arc
    in [1]. A missing arc, and a slot off the grid, holds d: the index of
    the +inf column that ``_solve_many`` appends to the costs."""
    n_east = rows * (cols - 1)
    d = n_east + (rows - 1) * cols
    r = np.arange(rows)[:, None]
    c = np.arange(rows + cols - 1) - r
    south = np.where((c >= 0) & (c < cols) & (r < rows - 1), n_east + r * cols + c, d)
    east = np.where((c >= 0) & (c < cols - 1), r * (cols - 1) + c, d)
    plan = np.stack([south, east])
    plan.setflags(write=False)  # shared by every later call
    return plan


class ShortestPathOracle(ProblemOracle):
    """Directed grid: east/south arcs from top-left to bottom-right.

    ``rows`` and ``cols`` count nodes; the oracle is named ``sp{rows}x{cols}``.
    """

    sense = Sense.MINIMIZE

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
        super().__init__(f"sp{rows}x{cols}", rows * (cols - 1) + (rows - 1) * cols)
        self.rows = rows
        self.cols = cols

    def east_index(self, r: int, c: int) -> int:
        """Arc (r, c) -> (r, c+1); east arcs come first, row-major."""
        return r * (self.cols - 1) + c

    def south_index(self, r: int, c: int) -> int:
        """Arc (r, c) -> (r+1, c); south arcs follow all east arcs, row-major."""
        return self.rows * (self.cols - 1) + r * self.cols + c

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        """Cheapest monotone paths, ties to the lexicographically smallest arc set.

        A backward recurrence over the anti-diagonals k = r + c, sink first,
        for the whole batch at once: in the skewed layout of
        ``_grid_arc_plan`` a diagonal is one slice, and a node's successors
        sit on the next one, east at the same r and south at r + 1. East
        wins only when strictly cheaper (the tie rule of the module
        docstring), so each node keeps the smallest of its optimal suffixes.
        The paths are rebuilt forward from the "go east" flags.
        """
        rows, diagonals = self.rows, self.rows + self.cols - 1
        plan = _grid_arc_plan(self.rows, self.cols)
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

    @property
    def relaxation(self) -> LinearProgram:
        return _size_relaxation(ShortestPathOracle, self.rows, self.cols)

    def _relaxed_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Arc-flow relaxation: conservation rows as <=/>= pairs, sink dropped."""
        d = self.d
        rows = []
        rhs = []
        for r in range(self.rows):
            for c in range(self.cols):
                if (r, c) == (self.rows - 1, self.cols - 1):
                    continue  # redundant given the other balances
                row = np.zeros(d)
                if c + 1 < self.cols:
                    row[self.east_index(r, c)] = 1.0
                if r + 1 < self.rows:
                    row[self.south_index(r, c)] = 1.0
                if c > 0:
                    row[self.east_index(r, c - 1)] = -1.0
                if r > 0:
                    row[self.south_index(r - 1, c)] = -1.0
                supply = 1.0 if (r, c) == (0, 0) else 0.0
                rows.extend([row, -row])
                rhs.extend([supply, -supply])
        return np.vstack(rows), np.array(rhs)


# --- travelling salesperson -------------------------------------------------

HELD_KARP_MAX_NODES = 13
# DP states (rows x subsets x last nodes) per batch chunk: bounds memory, and
# measured fastest per row (tsp13 5.1 ms against 6.8 ms at 1 << 20)
HELD_KARP_CHUNK_STATES = 1 << 16


@lru_cache(maxsize=None)
def _tour_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays of an n-node TSP, shared by every later call:
    ``slots`` (2, d), the flat (i, j) and (j, i) positions in an (n, n)
    matrix of each edge i < j, in ``edge_index`` order; ``edge_ids`` (n, n),
    the edge index of each pair (the diagonal unused); ``successor`` (n,),
    the next position around a tour."""
    i, j = np.triu_indices(n, 1)  # the edge_index order
    slots = np.stack([i * n + j, j * n + i])
    edge_ids = np.zeros(n * n, dtype=np.intp)
    edge_ids[slots] = np.arange(len(i))
    plan = (slots, edge_ids.reshape(n, n), np.roll(np.arange(n), -1))
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _edge_matrices(n: int, costs: np.ndarray) -> np.ndarray:
    """(B, n, n) symmetric distance matrices of a (B, d) edge-cost batch."""
    dist = np.zeros((costs.shape[0], n * n))
    upper, lower = _tour_plan(n)[0]
    dist[:, upper] = costs
    dist[:, lower] = costs
    return dist.reshape(-1, n, n)


@lru_cache(maxsize=None)
def _popcount_layers(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """For each subset size 2..m: every (mask, last) pair with ``last`` in
    ``mask``, masks ascending, and each pair's predecessor mask, ``mask``
    without ``last``."""
    masks = np.arange(1 << m)
    bits = (masks[:, None] >> np.arange(m)) & 1
    sizes = bits.sum(axis=1)
    layers = []
    for size in range(2, m + 1):
        rows, lasts = np.nonzero(bits[sizes == size])
        layer = (masks[sizes == size][rows], lasts)
        layer += (layer[0] ^ (1 << lasts),)
        for arr in layer:
            arr.setflags(write=False)  # shared by every later call
        layers.append(layer)
    return tuple(layers)


def _held_karp_many(dist: np.ndarray) -> np.ndarray:
    """Exact bitmask DP over a (B, n, n) distance batch, anchored at node 0,
    one popcount layer at a time; each state takes the first-index argmin
    over its predecessors. Returns the (B, n) tours, node 0 first."""
    n = dist.shape[1]
    m = n - 1  # nodes 1..n-1 in mask coordinates
    full = 1 << m
    batch = dist.shape[0]
    dp = np.full((batch, full, m), np.inf)
    parent = np.full((batch, full, m), -1, dtype=np.int8)
    inner = dist[:, 1:, 1:]
    dp[:, 1 << np.arange(m), np.arange(m)] = dist[:, 0, 1:]
    for masks, lasts, rests in _popcount_layers(m):
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

    The oracle is named ``tsp{n_nodes}``. Held-Karp solves it exactly up to
    ``HELD_KARP_MAX_NODES`` nodes, and the nearest-neighbor/2-opt heuristic
    above; ``exact`` follows from the node count.
    """

    sense = Sense.MINIMIZE

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 3:
            raise ValueError("a tour needs at least 3 nodes")
        super().__init__(f"tsp{n_nodes}", n_nodes * (n_nodes - 1) // 2)
        self.n_nodes = n_nodes

    @property
    def exact(self) -> bool:
        """True when Held-Karp solves, False when the heuristic does."""
        return self.n_nodes <= HELD_KARP_MAX_NODES

    def edge_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.n_nodes - i * (i + 1) // 2 + (j - i - 1)

    def _solve_many(self, costs: np.ndarray) -> np.ndarray:
        dist = _edge_matrices(self.n_nodes, costs)
        if self.exact:
            m = self.n_nodes - 1
            chunk = max(1, HELD_KARP_CHUNK_STATES // ((1 << m) * m))
            tours = np.concatenate([_held_karp_many(dist[lo:lo + chunk])
                                    for lo in range(0, len(dist), chunk)])
        else:
            tours = np.array([_nearest_neighbor_2opt(matrix) for matrix in dist])
        _, edge_ids, successor = _tour_plan(self.n_nodes)
        x = np.zeros(costs.shape)
        edges = edge_ids[tours, tours[:, successor]]
        x[np.arange(len(tours))[:, None], edges] = 1.0
        return x

    @property
    def relaxation(self) -> LinearProgram:
        return _size_relaxation(TspOracle, self.n_nodes)

    def _relaxed_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Degree-2 relaxation: each node touches exactly two fractional edges."""
        d = self.d
        rows = []
        rhs = []
        for v in range(self.n_nodes):
            row = np.zeros(d)
            for u in range(self.n_nodes):
                if u != v:
                    row[self.edge_index(v, u)] = 1.0
            rows.extend([row, -row])
            rhs.extend([2.0, -2.0])
        return np.vstack(rows), np.array(rhs)


# --- registry ---------------------------------------------------------------

KNAPSACK_WEIGHT_CHOICES = np.arange(3, 9)  # integer weights drawn from {3..8}
KNAPSACK_CAPACITY = 20.0
KNAPSACK_DIMS = 2


def make_knapsack(d: int, seed: int, q: int = KNAPSACK_DIMS,
                  capacity: float = KNAPSACK_CAPACITY) -> KnapsackOracle:
    rng = np.random.default_rng(seed)
    weights = rng.choice(KNAPSACK_WEIGHT_CHOICES, size=(q, d)).astype(float)
    return KnapsackOracle(weights, np.full(q, capacity))


_KS_RE = re.compile(r"^ks(\d+)$")
_SP_RE = re.compile(r"^sp(\d+)x(\d+)$")
_TSP_RE = re.compile(r"^tsp(\d+)$")


def problem_from_name(name: str, seed: int = 0) -> ProblemOracle:
    """Build an oracle from a short name (ks32, sp5x5, tsp20, custom:<file>).

    The seed only matters for knapsack, whose weights are sampled once per
    problem instance.
    """
    if name.startswith("custom:"):
        return load_problem(name.split(":", 1)[1], seed=seed)
    if (m := _KS_RE.match(name)):
        return make_knapsack(int(m.group(1)), seed=seed)
    if (m := _SP_RE.match(name)):
        return ShortestPathOracle(int(m.group(1)), int(m.group(2)))
    if (m := _TSP_RE.match(name)):
        return TspOracle(int(m.group(1)))
    raise ValueError(f"unknown problem name {name!r}; "
                     "expected ks<d>, sp<r>x<c>, tsp<n>, or custom:<file>")


def problem_from_dict(payload: dict, seed: int = 0) -> ProblemOracle:
    """Build an oracle from a saved problem: ``family`` plus its ``params``.

    A TSP's solver follows from ``n_nodes`` alone, so a ``mode`` key is
    rejected rather than silently ignored.
    """
    family = payload["family"]
    params = payload.get("params", {})
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
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh), seed=seed)
