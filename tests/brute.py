"""Independent brute-force reference solvers used to cross-check the package.

Everything here is deliberately naive: full enumeration, no pruning, no shared
code with the implementations under test.
"""
from __future__ import annotations

from itertools import combinations, islice, permutations
from types import SimpleNamespace

import numpy as np


def all_binary_vectors(d: int) -> np.ndarray:
    """All 2^d binary vectors, ordered lexicographically (x_0 most significant)."""
    n = np.arange(2 ** d)
    shifts = d - 1 - np.arange(d)
    return ((n[:, None] >> shifts) & 1).astype(float)


def brute_knapsack(weights: np.ndarray, capacities: np.ndarray,
                   costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Lexicographically smallest feasible binary vector whose value is within
    1e-9 * max(1, |best|) of the best value, the tie band the package
    documents for its knapsack."""
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    capacities = np.atleast_1d(np.asarray(capacities, dtype=float))
    d = weights.shape[1]
    xs = all_binary_vectors(d)
    feasible = np.all(xs @ weights.T <= capacities + 1e-9, axis=1)
    values = xs @ np.asarray(costs, dtype=float)
    values[~feasible] = -np.inf
    best = values.max()
    first = int(np.argmax(values >= best - 1e-9 * max(1.0, abs(best))))  # lex smallest
    return xs[first], float(values[first])


def enumerate_grid_paths(rows: int, cols: int) -> list[np.ndarray]:
    """Arc indicators of every monotone source-to-sink path.

    Arc numbering matches the package convention: east arcs first in row-major
    order (cols-1 per row), then south arcs in row-major order.
    """
    n_east = rows * (cols - 1)

    def east(r: int, c: int) -> int:
        return r * (cols - 1) + c

    def south(r: int, c: int) -> int:
        return n_east + r * cols + c

    d = n_east + (rows - 1) * cols
    paths: list[np.ndarray] = []

    def walk(r: int, c: int, arcs: list[int]) -> None:
        if (r, c) == (rows - 1, cols - 1):
            x = np.zeros(d)
            x[arcs] = 1.0
            paths.append(x)
            return
        if c + 1 < cols:
            walk(r, c + 1, arcs + [east(r, c)])
        if r + 1 < rows:
            walk(r + 1, c, arcs + [south(r, c)])

    walk(0, 0, [])
    return paths


def brute_shortest_path(rows: int, cols: int,
                        costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Cheapest path; exact-cost ties resolved to the lex-smallest indicator."""
    costs = np.asarray(costs, dtype=float)
    best_x = None
    best_cost = np.inf
    for x in enumerate_grid_paths(rows, cols):
        cost = float(x @ costs)
        if cost < best_cost or (cost == best_cost
                                and tuple(x) < tuple(best_x)):
            best_x, best_cost = x, cost
    return best_x, best_cost


def suffix_set_shortest_path(rows: int, cols: int, costs: np.ndarray) -> np.ndarray:
    """Cheapest path of one cost row, exact-cost ties to the lex-smallest
    indicator, by a backward DP over single nodes.

    Each node keeps its cost to the sink and the indicator of its chosen
    suffix. Its candidates are its east arc, then its south arc, each with
    the successor's suffix; a cheaper candidate wins, and on an exact tie
    the two indicators are compared lexicographically. It makes no
    assumption about which branch a tie favours, and reaches grids whose
    paths are too many to enumerate (sp10x10 has 48,620).
    """
    costs = np.asarray(costs, dtype=float)
    n_east = rows * (cols - 1)
    d = n_east + (rows - 1) * cols
    sink = (rows - 1, cols - 1)
    best = {sink: (0.0, np.zeros(d))}
    for r in range(rows - 1, -1, -1):
        for c in range(cols - 1, -1, -1):
            if (r, c) == sink:
                continue
            arcs = []
            if c + 1 < cols:
                arcs.append((r * (cols - 1) + c, (r, c + 1)))
            if r + 1 < rows:
                arcs.append((n_east + r * cols + c, (r + 1, c)))
            chosen = None
            for arc, nxt in arcs:
                cost = costs[arc] + best[nxt][0]
                x = best[nxt][1].copy()
                x[arc] = 1.0
                if chosen is None or cost < chosen[0] or (
                        cost == chosen[0] and tuple(x) < tuple(chosen[1])):
                    chosen = (cost, x)
            best[r, c] = chosen
    return best[0, 0][1]


def brute_tsp(n: int, costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Best tour over all (n-1)! directed tours (0, t[1], ..., t[n-1]).

    Exact-cost ties go to the smallest reversed sequence (t[n-1], ..., t[1]),
    compared as tuples: the tie rule the package documents for its exact
    TSP. Each tour's cost is summed along the tour from node 0.
    """
    costs = np.asarray(costs, dtype=float)

    def edge(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    best_tour, best_key, best_cost = None, None, np.inf
    for perm in permutations(range(1, n)):
        tour = (0,) + perm
        cost = sum(costs[edge(a, b)]
                   for a, b in zip(tour, tour[1:] + tour[:1]))
        key = perm[::-1]
        if cost < best_cost or (cost == best_cost and key < best_key):
            best_tour, best_key, best_cost = tour, key, cost
    x = np.zeros(n * (n - 1) // 2)
    for a, b in zip(best_tour, best_tour[1:] + best_tour[:1]):
        x[edge(a, b)] = 1.0
    return x, float(best_cost)


def grid_relaxation_rows(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of the grid's arc-flow relaxation, node by node: one
    conservation row per node but the sink, row-major, each as a <=/>= pair
    (the >= half negated, zeros included), out arcs at +1 and in arcs at -1,
    supply 1 at the source. Arcs are numbered as in
    ``enumerate_grid_paths``."""
    n_east = rows * (cols - 1)
    d = n_east + (rows - 1) * cols

    def east(r: int, c: int) -> int:
        return r * (cols - 1) + c

    def south(r: int, c: int) -> int:
        return n_east + r * cols + c

    a, b = [], []
    for r in range(rows):
        for c in range(cols):
            if (r, c) == (rows - 1, cols - 1):
                continue
            row = np.zeros(d)
            if c + 1 < cols:
                row[east(r, c)] = 1.0
            if r + 1 < rows:
                row[south(r, c)] = 1.0
            if c > 0:
                row[east(r, c - 1)] = -1.0
            if r > 0:
                row[south(r - 1, c)] = -1.0
            supply = 1.0 if (r, c) == (0, 0) else 0.0
            a.extend([row, -row])
            b.extend([supply, -supply])
    return np.vstack(a), np.array(b)


def tsp_relaxation_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of the degree-2 relaxation, node by node: one row per
    node, at 1 on its n - 1 edges, each as a <=/>= pair with right-hand
    side 2. Edges are numbered as in ``brute_tsp``."""
    def edge(i: int, j: int) -> int:
        i, j = min(i, j), max(i, j)
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    a, b = [], []
    for v in range(n):
        row = np.zeros(n * (n - 1) // 2)
        for u in range(n):
            if u != v:
                row[edge(v, u)] = 1.0
        a.extend([row, -row])
        b.extend([2.0, -2.0])
    return np.vstack(a), np.array(b)


def brute_lp(a: np.ndarray, b: np.ndarray, c: np.ndarray, maximize: bool,
             lower: np.ndarray | None = None,
             upper: np.ndarray | None = None,
             a_eq: np.ndarray | None = None,
             b_eq: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Optimum of a bounded LP by enumerating candidate vertices.

    Vertices are intersections of d linearly independent active constraints
    among the inequality rows and the finite variable bounds. Equality rows
    ``a_eq x = b_eq`` (linearly independent) are active at every vertex, so
    each candidate takes all of them plus d - len(b_eq) of the others.
    Assumes the feasible region is a non-empty polytope.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c = np.asarray(c, dtype=float)
    m, d = a.shape
    lower = np.zeros(d) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(d, np.inf) if upper is None else np.asarray(upper, dtype=float)
    a_eq = np.zeros((0, d)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))

    g_rows = [a[i] for i in range(m)]
    h_vals = [b[i] for i in range(m)]
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        g_rows.append(-e)
        h_vals.append(-lower[j])
        if np.isfinite(upper[j]):
            g_rows.append(e)
            h_vals.append(upper[j])
    g = np.vstack(g_rows)
    h = np.array(h_vals)

    best_x = None
    best_val = -np.inf if maximize else np.inf
    subsets = combinations(range(len(g)), d - len(b_eq))
    # candidates in enumeration order, a few thousand linear systems at a time
    while batch := list(islice(subsets, 4096)):
        chunk, n = np.array(batch, dtype=int), len(batch)
        subs = np.concatenate([np.broadcast_to(a_eq, (n,) + a_eq.shape), g[chunk]], axis=1)
        rhs = np.concatenate([np.broadcast_to(b_eq, (n,) + b_eq.shape), h[chunk]], axis=1)
        regular = np.abs(np.linalg.det(subs)) >= 1e-9
        xs = np.linalg.solve(subs[regular], rhs[regular][..., None])[..., 0]
        feasible = (np.all(xs @ g.T <= h + 1e-7, axis=1)
                    & np.all(np.abs(xs @ a_eq.T - b_eq) <= 1e-7, axis=1))
        for x in xs[feasible]:
            val = float(c @ x)
            if (maximize and val > best_val) or (not maximize and val < best_val):
                best_x, best_val = x, val
    assert best_x is not None, "brute LP found no feasible vertex"
    return best_x, best_val


# --- dense tableau simplex ------------------------------------------------------
#
# The full-tableau two-phase simplex and ranging as the package ran them before
# its pivots skipped the rows with a zero pivot-column entry: every pivot is a
# dense outer-product update of the whole tableau, pricing masks the candidates
# and the leaving row is picked from an explicit list of ties. Same tolerances,
# same operations, so the package must match it bit for bit.

_PIVOT_TOL = 1e-10
_REDUCED_COST_TOL = 1e-9
_FEASIBILITY_TOL = 1e-7
_DEGENERATE_STEP_TOL = 1e-12
_MAX_ITERATIONS = 20000


def _dense_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # kill rounding residue in the pivot column
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _dense_run(tableau, basis, cost, degenerate_budget, reached):
    """Minimize ``cost`` over the tableau in place; "optimal" or "unbounded".
    Appends True to ``reached`` when Bland's rule takes over."""
    bland = False
    degenerate = 0
    for _ in range(_MAX_ITERATIONS):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        reduced[basis] = 0.0
        candidates = reduced < -_REDUCED_COST_TOL
        if not candidates.any():
            return "optimal"
        if bland:
            col = int(np.flatnonzero(candidates)[0])
        else:
            scores = np.where(candidates, reduced, np.inf)
            col = int(np.argmin(scores))
        column = tableau[:, col]
        usable = column > _PIVOT_TOL
        if not usable.any():
            if (column > 0.0).any():
                if bland:
                    raise ArithmeticError(f"no pivot in column {col} under Bland's rule")
                bland = True
                reached.append(True)
                continue
            return "unbounded"
        rhs = tableau[:, -1]
        ratios = np.where(usable, rhs / np.where(usable, column, 1.0), np.inf)
        theta = ratios.min()
        ties = np.flatnonzero(ratios <= theta + 1e-12)
        row = int(ties[np.argmin(basis[ties])])
        if theta <= _DEGENERATE_STEP_TOL:
            degenerate += 1
            if degenerate > degenerate_budget and not bland:
                bland = True
                reached.append(True)
        _dense_pivot(tableau, basis, row, col)
    raise ArithmeticError("simplex iteration limit exceeded")


def _dense_phase_one(a, b, upper, reached):
    d = a.shape[1]
    bounded = np.flatnonzero(np.isfinite(upper))
    if bounded.size:
        bound_rows = np.zeros((bounded.size, d))
        bound_rows[np.arange(bounded.size), bounded] = 1.0
        a = np.vstack([a, bound_rows])
        b = np.concatenate([b, upper[bounded]])
    m = a.shape[0]

    n_real = d + m
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
        _dense_run(tableau, basis, cost1, degenerate_budget, reached)
        infeasibility = float(cost1[basis] @ tableau[:, -1])
        if infeasibility > _FEASIBILITY_TOL:
            return None
        for i in np.flatnonzero(basis >= n_real):
            pivots = np.flatnonzero(np.abs(tableau[i, :n_real]) > _PIVOT_TOL)
            if not pivots.size:
                raise ArithmeticError(f"no pivot releases the artificial of row {i}")
            _dense_pivot(tableau, basis, i, int(pivots[0]))
        tableau = np.hstack([tableau[:, :n_real], tableau[:, -1:]])
    return tableau, basis, degenerate_budget


def _dense_ranges(tableau, basis, cost, reduced, d):
    nonbasic = np.ones(tableau.shape[1] - 1, dtype=bool)
    nonbasic[basis] = False
    lower = cost[:d] - reduced[:d]
    upper = np.full(d, np.inf)
    rows = np.flatnonzero(basis < d)
    cols = basis[rows]
    body = tableau[rows, :-1]
    up = nonbasic & (body > _PIVOT_TOL)
    down = nonbasic & (body < -_PIVOT_TOL)
    ratio = np.divide(reduced, body, out=np.zeros_like(body), where=up | down)
    lower[cols] = cost[cols] + np.where(down, ratio, -np.inf).max(axis=1)
    upper[cols] = cost[cols] + np.where(up, ratio, np.inf).min(axis=1)
    return lower, upper


def dense_tableau_simplex(a, b, upper, c, maximize: bool) -> SimpleNamespace:
    """Two-phase simplex and cost ranging of ``opt c'x, ax <= b, 0 <= x <= upper``
    with dense pivots, phase 1 run on every call.

    Returns ``status`` ("optimal", "infeasible" or "unbounded"), ``x``,
    ``objective_value`` and ``ranges`` (None unless optimal), ``start`` (the
    feasible tableau and basis phase 1 ends on, or None) and ``bland``,
    whether Bland's rule took over in either phase.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    objective = np.asarray(c, dtype=float)
    d = a.shape[1]
    reached = []
    start = _dense_phase_one(a, b, upper, reached)
    result = SimpleNamespace(status="infeasible", x=None, objective_value=float("nan"),
                             ranges=None, start=None, bland=False)
    if start is None:
        result.bland = bool(reached)
        return result
    tableau, basis, degenerate_budget = start
    result.start = (tableau.copy(), basis.copy())
    n_real = tableau.shape[1] - 1
    c_int = -objective if maximize else objective.copy()
    cost2 = np.concatenate([c_int, np.zeros(n_real - d)])
    status = _dense_run(tableau, basis, cost2, degenerate_budget, reached)
    result.bland = bool(reached)
    if status == "unbounded":
        result.status = "unbounded"
        return result
    y = np.zeros(n_real)
    y[basis] = tableau[:, -1]
    x = y[:d]
    reduced = cost2 - cost2[basis] @ tableau[:, :-1]
    reduced[basis] = 0.0
    assert reduced.min() >= -_FEASIBILITY_TOL, "terminal reduced costs violate optimality"
    lo_int, hi_int = _dense_ranges(tableau, basis, cost2, reduced, d)
    if maximize:
        lo_int, hi_int = -hi_int, -lo_int
    result.status = "optimal"
    result.x = x
    result.objective_value = float(objective @ x)
    result.ranges = (np.minimum(lo_int, objective), np.maximum(hi_int, objective))
    return result


# --- composed losses -----------------------------------------------------------
#
# Per-row reference for the batched loss kernel. It reads the LossSpec fields
# and the enum values only, and does its own normalization, masking and
# weighting one coordinate at a time.

# np.isclose(x, 1, atol=1e-9) with its default rtol=1e-5 relative to 1
AT_UPPER_TOL = 1e-9 + 1e-5
AT_LOWER_TOL = 1e-9
ZERO_NORM = 1e-12


def brute_weights(spec, pred_eval, true_eval, x_star, lower, upper,
                  maximize: bool) -> np.ndarray:
    """Per-coordinate weights of the base error at an evaluation-space
    prediction: the one-sided 0/1 mask, the pinball tau, or ones."""
    d = len(pred_eval)
    weights = np.ones(d)
    for j in range(d):
        p, t = float(pred_eval[j]), float(true_eval[j])
        if spec.one_sided.value != "off":
            if spec.one_sided.value == "sensitivity":
                lo, hi = float(lower[j]), float(upper[j])
            else:
                lo = hi = t
            selected = abs(float(x_star[j]) - 1.0) <= AT_UPPER_TOL
            unselected = abs(float(x_star[j])) <= AT_LOWER_TOL
            if maximize:
                harmless = (selected and p > lo) or (unselected and p < hi)
            else:
                harmless = (selected and p < hi) or (unselected and p > lo)
            weights[j] = 0.0 if harmless else 1.0
        elif spec.tau is not None:
            weights[j] = spec.tau if p <= t else 1.0 - spec.tau
    return weights


def brute_loss(spec, predicted, instance, maximize: bool
               ) -> tuple[float, np.ndarray]:
    """Value and prediction-gradient of a composed loss on one instance."""
    predicted = np.asarray(predicted, dtype=float)
    true = np.asarray(instance.true_costs, dtype=float)
    d = len(true)
    factor = 1.0
    if spec.instance_costs:
        factor = instance.instance_cost
    elif spec.lawless_w is not None and spec.lawless_w > 0.0:
        factor = spec.lawless_w * instance.instance_cost + (1.0 - spec.lawless_w)

    if spec.scale_invariant:
        true_eval = true / np.sqrt(sum(v * v for v in true))
        pred_norm = float(np.sqrt(sum(v * v for v in predicted)))
        if pred_norm <= ZERO_NORM:
            return factor * 4.0 / d, -factor * true_eval
        pred_eval = predicted / pred_norm
    else:
        true_eval, pred_eval = true, predicted

    x_star = lower = upper = None
    if spec.one_sided.value != "off":
        x_star = instance.optimal_decision.values
        if spec.one_sided.value == "sensitivity":
            lower = instance.sensitivity_ranges.lower
            upper = instance.sensitivity_ranges.upper
    weights = brute_weights(spec, pred_eval, true_eval, x_star, lower, upper, maximize)

    diff = pred_eval - true_eval
    if spec.base.value == "squared":
        errors, derror = diff * diff, 2.0 * diff
    else:
        errors, derror = np.abs(diff), np.sign(diff)
    value = factor * sum(w * e for w, e in zip(weights, errors)) / d
    grad = factor / d * weights * derror
    if spec.scale_invariant:
        grad = (grad - pred_eval * sum(u * g for u, g in zip(pred_eval, grad))) / pred_norm
    return float(value), grad


# --- spo+ training ---------------------------------------------------------------
#
# Per-row reference for batched spo+ training: the epoch body solves one
# row at a time through ``problem.solve_many(shifted[None])`` and
# accumulates the loss row by row. Batching, shuffling, the optimizer and
# model selection follow ``cosdfl.model.train`` (training and validation
# merged, the epoch's mean training loss as the validation metric).

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's published defaults


def _adam_step(state, grad, config, t):
    m, v = state
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return (m, v), config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def brute_spo_plus_train(model, dataset, config, problem):
    """spo+ training with one oracle solve per row; returns a TrainTrace."""
    from cosdfl.model import EpochRecord, LinearModel, Optimizer, TrainTrace

    maximize = problem.sense.value == "max"
    idx = list(dataset.split.train) + list(dataset.split.val)
    insts = [dataset.instances[i] for i in idx]
    feats = np.stack([inst.features for inst in insts])
    rng = np.random.default_rng(config.seed)
    w, b = model.weights.copy(), model.bias.copy()
    state_w = (np.zeros(w.shape), np.zeros(w.shape))
    state_b = (np.zeros(b.shape), np.zeros(b.shape))
    step = 0
    n = len(insts)
    records = []
    best_val, best_epoch = np.inf, -1
    best_w, best_b = w.copy(), b.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            zb = feats[batch]
            preds = zb @ w.T + b
            grads = np.empty_like(preds)
            for row, i in enumerate(batch):
                true = insts[i].true_costs
                x_star = insts[i].optimal_decision.values
                shifted = 2.0 * preds[row] - true
                x_shift = problem.solve_many(shifted[None])[0]
                if maximize:
                    value = float(shifted @ x_shift) - 2.0 * float(preds[row] @ x_star) \
                        + float(true @ x_star)
                    grads[row] = 2.0 * (x_shift - x_star)
                else:
                    value = -float(shifted @ x_shift) + 2.0 * float(preds[row] @ x_star) \
                        - float(true @ x_star)
                    grads[row] = 2.0 * (x_star - x_shift)
                loss_sum += value
            gw = grads.T @ zb / len(batch)
            gb = grads.mean(axis=0)
            if config.optimizer is Optimizer.SGD:
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
            else:
                step += 1
                state_w, dw = _adam_step(state_w, gw, config, step)
                state_b, db = _adam_step(state_b, gb, config, step)
                w -= dw
                b -= db
        train_loss = loss_sum / n
        records.append(EpochRecord(epoch=epoch, train_loss=train_loss, val_loss=train_loss,
                                   seconds=0.0))
        if train_loss < best_val:
            best_val, best_epoch = train_loss, epoch
            best_w, best_b = w.copy(), b.copy()
    return TrainTrace(records=tuple(records), best_epoch=best_epoch,
                      best_model=LinearModel(best_w, best_b))


# --- solver-free training --------------------------------------------------------
#
# Reference for solver-free training. The loss is the batched kernel in its
# plain form: every row factor and coordinate weight is multiplied in, ones
# included. The loop keeps W and b as two arrays, takes ``grads.mean`` for
# the bias gradient and steps Adam out of place through ``_adam_step``.
# Shuffling, validation under the spec's validation variant and model
# selection follow ``cosdfl.model.train``, which must match it bit for bit.

def _bind_rows(spec, dataset, idx, maximize):
    """True costs (unit rows under S), row factors, safe intervals and tau
    of the rows ``idx``."""
    true = dataset.costs[idx]
    if spec.scale_invariant:
        true = true / np.sqrt(np.array([row @ row for row in true]))[:, None]
    factor = np.ones(len(idx))
    if spec.instance_costs:
        factor = dataset.weights[idx]
    elif spec.lawless_w is not None and spec.lawless_w > 0.0:
        factor = spec.lawless_w * dataset.weights[idx] + (1.0 - spec.lawless_w)
    bound = {"true": true, "factor": factor}
    if spec.one_sided.value != "off":
        if spec.one_sided.value == "sensitivity":
            lower, upper = dataset.lower[idx], dataset.upper[idx]
        else:
            lower = upper = true
        rise_safe = dataset.x_star[idx] == (1.0 if maximize else 0.0)
        bound["safe_lo"] = np.where(rise_safe, lower, -np.inf)
        bound["safe_hi"] = np.where(rise_safe, np.inf, upper)
    elif spec.tau is not None:
        bound["tau"] = spec.tau
    return bound


def _plain_loss_batch(spec, bound, predicted, rows):
    """Values and prediction-gradients of the rows ``rows`` of ``bound``."""
    true, factor = bound["true"][rows], bound["factor"][rows]
    d = true.shape[1]
    if spec.scale_invariant:
        norms = np.sqrt((predicted * predicted).sum(axis=1))
        zero = norms <= ZERO_NORM
        norms[zero] = 1.0
        pred = predicted / norms[:, None]
    else:
        pred = predicted
    if "safe_lo" in bound:
        safe = (pred > bound["safe_lo"][rows]) & (pred < bound["safe_hi"][rows])
        weights = np.where(safe, 0.0, 1.0)
    elif "tau" in bound:
        weights = np.where(pred <= true, bound["tau"], 1.0 - bound["tau"])
    else:
        weights = np.ones_like(pred)
    diff = pred - true
    if spec.base.value == "squared":
        errors, derror = diff * diff, 2.0 * diff
    else:
        errors = np.abs(diff)
        derror = np.where(np.abs(diff) <= 1e-15, 0.0, np.sign(diff))
    values = factor * (weights * errors).sum(axis=1) / d
    grads = (factor / d)[:, None] * weights * derror
    if spec.scale_invariant:
        grads = (grads - pred * (pred * grads).sum(axis=1)[:, None]) / norms[:, None]
        values[zero] = factor[zero] * 4.0 / d
        grads[zero] = -factor[zero, None] * true[zero]
    return values, grads


def brute_solver_free_train(model, dataset, spec, config, maximize: bool):
    """Training under a solver-free spec, in plain arithmetic; returns a
    TrainTrace."""
    from cosdfl.model import EpochRecord, LinearModel, Optimizer, TrainTrace

    train_idx, val_idx = list(dataset.split.train), list(dataset.split.val)
    data = _bind_rows(spec, dataset, train_idx, maximize)
    val_spec = spec.validation_variant()
    val_data = _bind_rows(val_spec, dataset, val_idx, maximize)
    feats, val_feats = dataset.features[train_idx], dataset.features[val_idx]
    rng = np.random.default_rng(config.seed)
    w, b = model.weights.copy(), model.bias.copy()
    state_w = (np.zeros(w.shape), np.zeros(w.shape))
    state_b = (np.zeros(b.shape), np.zeros(b.shape))
    step = 0
    n = len(train_idx)
    records = []
    best_val, best_epoch = np.inf, -1
    best_w, best_b = w.copy(), b.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            zb = feats[batch]
            values, grads = _plain_loss_batch(spec, data, zb @ w.T + b, batch)
            loss_sum += float(values.sum())
            gw = grads.T @ zb / len(batch)
            gb = grads.mean(axis=0)
            if config.optimizer is Optimizer.SGD:
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
            else:
                step += 1
                state_w, dw = _adam_step(state_w, gw, config, step)
                state_b, db = _adam_step(state_b, gb, config, step)
                w -= dw
                b -= db
        values, _ = _plain_loss_batch(val_spec, val_data, val_feats @ w.T + b,
                                      slice(None))
        val_loss = float(np.mean(values))
        records.append(EpochRecord(epoch=epoch, train_loss=loss_sum / n,
                                   val_loss=val_loss, seconds=0.0))
        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_w, best_b = w.copy(), b.copy()
    return TrainTrace(records=tuple(records), best_epoch=best_epoch,
                      best_model=LinearModel(best_w, best_b))
