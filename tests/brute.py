"""Independent brute-force reference solvers used to cross-check the package.

Everything here is deliberately naive: full enumeration, no pruning, no shared
code with the implementations under test.
"""
from __future__ import annotations

from itertools import combinations, islice, permutations

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
    """Best tour over all (n-1)! permutations anchored at node 0."""
    costs = np.asarray(costs, dtype=float)

    def edge(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    best_x = None
    best_cost = np.inf
    for perm in permutations(range(1, n)):
        tour = (0,) + perm
        cost = sum(costs[edge(a, b)]
                   for a, b in zip(tour, tour[1:] + tour[:1]))
        if cost < best_cost - 1e-12:
            x = np.zeros(n * (n - 1) // 2)
            for a, b in zip(tour, tour[1:] + tour[:1]):
                x[edge(a, b)] = 1.0
            best_x, best_cost = x, float(cost)
    return best_x, best_cost


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
            tau = spec.tau if np.isscalar(spec.tau) else spec.tau[j]
            weights[j] = tau if p <= t else 1.0 - tau
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
                      best_model=LinearModel(best_w, best_b),
                      final_model=LinearModel(w, b))
