"""End-to-end acceptance gate.

Every test here checks one numbered release criterion at its stated
tolerance and prints exactly one verdict line of the form

    [criterion NN] PASS|FAIL  description: measured values

The desk-scale experiment (criteria 08-10) is run once per session and
shared. Criteria 09 and 10 bound a 5% effect whose per-seed paired ratio
has a standard deviation near 0.23 on sp5x5, so they read the same grid
extended to 20 seeds, where the standard error of the mean is about 0.05.
Tolerances are pinned; a failing criterion fails the suite.
"""
import math
import time

import numpy as np
import pytest

from cosdfl.core import Dataset, Sense, Split, instance_regrets
from cosdfl.datagen import generate
from cosdfl.harness import (DESK_LOSSES, LAWLESS_SWEEP, ExperimentConfig,
                            aggregate_rows, build_monotonicity,
                            component_subset_losses, fit, run_experiment,
                            run_single, sensitivity_soundness_check,
                            write_results)
from cosdfl.losses import (evaluate_loss_batch, normalize, parse_loss,
                           stack_loss_data)
from cosdfl.problems import (ShortestPathOracle, TspOracle, make_knapsack,
                             problem_from_name)
from cosdfl.simplex import solve_lp

from brute import (brute_knapsack, brute_shortest_path, brute_tsp)

DESK_SEEDS = (0, 1, 2, 3, 4)
STUDY_SEEDS = tuple(range(20))
STUDY_LOSSES = tuple(component_subset_losses("mse")) + LAWLESS_SWEEP


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# --- desk-scale experiment, shared by criteria 08-10 ------------------------

@pytest.fixture(scope="session")
def desk_sp():
    config = ExperimentConfig(problem="sp5x5", losses=DESK_LOSSES["sp5x5"],
                              seeds=DESK_SEEDS)
    t0 = time.perf_counter()
    reports = run_experiment(config)
    return {"reports": reports, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def desk_ks():
    config = ExperimentConfig(problem="ks16", losses=DESK_LOSSES["ks16"],
                              seeds=DESK_SEEDS)
    t0 = time.perf_counter()
    reports = run_experiment(config)
    return {"reports": reports, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def desk_sp_study(desk_sp):
    """The sp5x5 losses of criteria 09 and 10 over STUDY_SEEDS: desk_sp's
    seeds plus a run of the remaining seeds, each normalized against the
    same-seed mse of its own grid."""
    extra = tuple(s for s in STUDY_SEEDS if s not in DESK_SEEDS)
    config = ExperimentConfig(problem="sp5x5", losses=STUDY_LOSSES, seeds=extra)
    reports = [r for r in desk_sp["reports"] if r.loss in STUDY_LOSSES]
    return reports + run_experiment(config)


def clean_seeds(reports, loss):
    return tuple(sorted(r.seed for r in reports if r.loss == loss and r.error is None))


def previous_subset(step):
    """The loss that a monotonicity step adds its component to."""
    parts = step.loss.split("+")
    added = step.order.split(">")[len(parts) - 2]
    return "+".join(p for p in parts if p != added)


def paired_ratio_se(reports, loss, reference):
    """Standard error of the mean over STUDY_SEEDS of the per-seed ratio
    regret(loss) / regret(reference)."""
    regret = {(r.loss, r.seed): r.regret_abs for r in reports}
    ratios = [regret[loss, s] / regret[reference, s] for s in STUDY_SEEDS]
    return float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))


def norm_values(reports, loss):
    return [r.regret_norm for r in reports if r.loss == loss]


def abs_mean(reports, loss):
    return float(np.mean([r.regret_abs for r in reports if r.loss == loss]))


# --- criterion 1: zero surrogate loss implies zero regret -------------------

COMPONENT_SUBSETS = ("", "+c", "+o", "+s", "+c+o", "+c+s", "+o+s", "+c+o+s")
CONSISTENCY_SPECS = [parse_loss(base + suffix)
                     for base in ("mse", "mae") for suffix in COMPONENT_SUBSETS]


def instances(costs, x_star=None, lower=None, upper=None, weight=None):
    """A dataset of the cost rows ``costs`` with the given caches attached."""
    n = costs.shape[0]
    return Dataset(features=np.zeros((n, 1)), costs=costs, split=Split(), x_star=x_star,
                   lower=lower, upper=upper,
                   weights=None if weight is None else np.full(n, weight))


def one_sided_shift(costs, decision, sense, t=0.07):
    """Perturb costs so the cached decision stays optimal and every
    integral coordinate lands on the ignored side of its mask."""
    sign = np.where(decision > 0.5, 1.0, -1.0)
    if sense is Sense.MINIMIZE:
        sign = -sign
    return costs * (1.0 + t * sign)


def test_criterion_01_regret_consistency():
    rng = np.random.default_rng(60601)
    problems = [make_knapsack(d=8, seed=7), ShortestPathOracle(3, 3)]
    t0 = time.perf_counter()
    n_instances = 0
    qualifying = {spec.name: 0 for spec in CONSISTENCY_SPECS}
    failures = 0
    for problem in problems:
        c = np.array([rng.uniform(1.0, 10.0, size=problem.d) for _ in range(500)])
        dataset = instances(c, x_star=problem.solve_many(c), weight=2.0)
        rows = range(len(c))
        candidates = [c.copy(), 1.7 * c,
                      one_sided_shift(c, dataset.x_star, problem.sense)]
        regrets = [instance_regrets(problem, pred, dataset, rows) for pred in candidates]
        for spec in CONSISTENCY_SPECS:
            data = stack_loss_data(spec, dataset, rows, problem.sense)
            for pred, regret in zip(candidates, regrets):
                zero = evaluate_loss_batch(pred, data, rows)[0] < 1e-12
                qualifying[spec.name] += int(zero.sum())
                failures += int(np.count_nonzero(np.asarray(regret)[zero]))
        n_instances += len(c)
    elapsed = time.perf_counter() - t0
    coverage_ok = all(qualifying[s.name] >= n_instances for s in CONSISTENCY_SPECS)
    ok = failures == 0 and n_instances >= 1000 and coverage_ok and elapsed < 60.0
    assert verdict(1, ok, (
        f"zero loss implies zero regret: {n_instances} instances x 16 specs, "
        f"{sum(qualifying.values())} qualifying evals, {failures} failures, "
        f"{elapsed:.1f}s"))


# --- criterion 2: scale-invariant squared loss is 2/d of cosine distance ----

def test_criterion_02_cosine_proportionality():
    rng = np.random.default_rng(21)
    mse = parse_loss("mse")
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 51))
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        if np.linalg.norm(a) < 1e-8 or np.linalg.norm(b) < 1e-8:
            continue
        data = stack_loss_data(mse, instances(normalize(b[None], [0])), [0], Sense.MAXIMIZE)
        value = evaluate_loss_batch(normalize(a[None], [0]), data, [0])[0][0]
        cos = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        worst = max(worst, abs(value - (2.0 / d) * (1.0 - cos)))
    ok = worst <= 1e-10
    assert verdict(2, ok, f"normalized squared error vs 2/d cosine distance: "
                          f"max gap {worst:.3e} over 10000 pairs (tol 1e-10)")


# --- criterion 3: objective ranging endpoints preserve the decision ---------

def test_criterion_03_sensitivity_range_soundness():
    checks, failures = sensitivity_soundness_check(n_lps=200, max_size=8, seed=0)
    ok = len(failures) == 0 and checks > 0
    assert verdict(3, ok, f"range-endpoint re-solves keep the decision optimal: "
                          f"{checks} endpoint checks on 200 random LPs, "
                          f"{len(failures)} failures")


# --- criterion 4: analytic gradients match central finite differences -------

GRADIENT_SPECS = ([f"{b}{s}" for b in ("mse", "mae") for s in COMPONENT_SUBSETS]
                  + ["mse+o_s", "mse+o_s+s", "mae+o_s", "mae+o_s+s",
                     "mse+tau:0.7", "lawless:0.4"])


def _ranges(problem, c, normalized):
    return solve_lp(problem.relaxation, normalize(c[None], [0])[0] if normalized else c,
                    problem.sense).ranges


def _away_from_boundaries(spec, pred, dataset):
    c = dataset.costs[0]
    if np.any(np.abs(pred - c) <= 1e-3) or np.linalg.norm(pred) <= 1e-3:
        return False
    unit_pred, unit_c = normalize(np.stack([pred, c]), [0, 0])
    if spec.scale_invariant and np.any(np.abs(unit_pred - unit_c) <= 1e-4):
        return False
    ref = unit_pred if spec.scale_invariant else pred
    for bound in (dataset.lower[0], dataset.upper[0]):  # NaN when not attached
        finite = np.isfinite(bound)
        if np.any(np.abs(ref[finite] - bound[finite]) <= 1e-3):
            return False
    return True


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(404)
    problem = make_knapsack(d=6, seed=3)
    h = 1e-6
    worst = 0.0
    for name in GRADIENT_SPECS:
        spec = parse_loss(name)
        accepted = 0
        while accepted < 200:
            c = rng.uniform(1.0, 10.0, size=problem.d)
            star = problem.solve_many(c[None])[0]
            lower = upper = None
            if spec.requires_ranges:
                lower, upper = _ranges(problem, c, spec.scale_invariant)
                lower, upper = lower[None, :], upper[None, :]
            dataset = instances(c[None, :], x_star=star[None, :], lower=lower,
                                upper=upper, weight=3.2)
            data = stack_loss_data(spec, dataset, [0], problem.sense)
            for _ in range(10):
                delta = rng.uniform(0.05, 0.4, size=problem.d)
                delta *= rng.choice([-1.0, 1.0], size=problem.d)
                pred = c * (1.0 + delta)
                if not _away_from_boundaries(spec, pred, dataset):
                    continue
                # the point and its 2d shifted copies, one batch on row 0
                steps = h * np.eye(problem.d)
                stencil = np.vstack([pred, pred + steps, pred - steps])
                values, grads = evaluate_loss_batch(stencil, data,
                                                    np.zeros(len(stencil), dtype=int))
                analytic = grads[0]
                up, dn = values[1:problem.d + 1], values[problem.d + 1:]
                fd = (up - dn) / (2.0 * h)
                gap = float(np.max(np.abs(fd - analytic)))
                scale = float(np.max(np.abs(analytic)))
                rel = gap / scale if scale > 1e-6 else gap
                worst = max(worst, rel)
                accepted += 1
                if accepted >= 200:
                    break
    ok = worst <= 1e-5
    assert verdict(4, ok, f"analytic vs central-difference gradients: "
                          f"{len(GRADIENT_SPECS)} specs x 200 points, worst "
                          f"relative error {worst:.3e} (tol 1e-5)")


# --- criterion 5: instance weights reproduce total regret -------------------

def test_criterion_05_instance_cost_identity():
    problem = problem_from_name("sp5x5", seed=0)
    config = ExperimentConfig(problem="sp5x5", losses=("mse+c",), seeds=(0,))
    dataset = generate(config.gen_spec(0), problem)
    _, _, report, _ = fit(problem, dataset, parse_loss("mse+c"), config.train_config(0))
    pos = report.positive_regret
    weighted = math.fsum(report.costs[pos] * report.base_losses[pos])
    total = math.fsum(report.regrets[pos])
    gap = abs(weighted - total)
    ok = gap <= 1e-9 and pos.sum() > 0
    assert verdict(5, ok, f"sum of weighted base losses equals total regret on "
                          f"{int(pos.sum())} positive-regret instances: gap "
                          f"{gap:.3e} (tol 1e-9)")


# --- criterion 6: solver-call accounting matches the closed forms -----------

def test_criterion_06_solver_call_accounting():
    n_tr, n_val, epochs = 50, 10, 5
    config = ExperimentConfig(problem="ks8", losses=("mse",), seeds=(0,),
                              n_train=n_tr, n_val=n_val, n_test=10,
                              epochs=epochs, batch_size=16)
    expected = {
        "mse": (0, 0, 0, 0),
        "mae": (0, 0, 0, 0),
        "mse+c": (n_tr, 0, n_tr, 0),
        "mse+o": (n_tr + n_val, 0, 0, 0),
        "mse+o_s": (n_tr + n_val, n_tr + n_val, 0, 0),
        "spo+": (n_tr + n_val, 0, 0, epochs * (n_tr + n_val)),
    }
    mismatches = []
    for loss, want in expected.items():
        counts = run_single(config, loss, 0).counts
        got = (counts.precompute_n_star, counts.precompute_ranges,
               counts.instance_cost_solves, counts.training_solves)
        if got != want:
            mismatches.append(f"{loss}: {got} != {want}")
    ok = not mismatches
    assert verdict(6, ok, f"counter totals equal closed-form solve counts for "
                          f"{len(expected)} configurations on a 50-instance toy"
                          + (f"; mismatches {mismatches}" if mismatches else ""))


# --- criterion 7: exact oracles agree with brute-force enumeration ----------

def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(777)
    mismatches = 0

    for i in range(100):
        d = int(rng.integers(4, 13))
        problem = make_knapsack(d=d, seed=int(rng.integers(1 << 30)))
        c = rng.uniform(0.5, 10.0, size=d)
        x = problem.solve_many(c[None])[0]
        bx, bv = brute_knapsack(problem.weights, problem.capacities, c)
        if not np.array_equal(x, bx) or abs(float(np.dot(c, x)) - bv) > 1e-9:
            mismatches += 1

    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 5)]
    for i in range(100):
        rows, cols = shapes[int(rng.integers(len(shapes)))]
        problem = ShortestPathOracle(rows, cols)
        c = rng.uniform(-2.0, 10.0, size=problem.d)
        x = problem.solve_many(c[None])[0]
        bx, bv = brute_shortest_path(rows, cols, c)
        if not np.array_equal(x, bx) or abs(float(np.dot(c, x)) - bv) > 1e-9:
            mismatches += 1

    for i in range(100):
        n = int(rng.integers(4, 8))
        problem = TspOracle(n)
        c = rng.uniform(1.0, 10.0, size=problem.d)
        x = problem.solve_many(c[None])[0]
        bx, bv = brute_tsp(n, c)
        if not np.array_equal(x, bx) or abs(float(np.dot(c, x)) - bv) > 1e-9:
            mismatches += 1

    ok = mismatches == 0
    assert verdict(7, ok, f"knapsack, grid DP and Held-Karp vs brute force: "
                          f"100 instances each, {mismatches} mismatches")


# --- criteria 8-10: desk-scale behavior of the composed losses --------------

def test_criterion_08_desk_scale_regret(desk_sp, desk_ks):
    pooled = desk_sp["reports"] + desk_ks["reports"]
    cos_mean = float(np.mean(norm_values(desk_sp["reports"], "mse+c+o+s")
                             + norm_values(desk_ks["reports"], "mse+c+o+s")))
    maeos_mean = float(np.mean(norm_values(desk_sp["reports"], "mae+o+s")
                               + norm_values(desk_ks["reports"], "mae+o+s")))
    spo_mean = float(np.mean(norm_values(desk_sp["reports"], "spo+")
                             + norm_values(desk_ks["reports"], "spo+")))
    elapsed = desk_sp["elapsed"] + desk_ks["elapsed"]
    clean = all(r.error is None for r in pooled)
    ok = (clean and cos_mean <= 0.85 and maeos_mean <= 0.90
          and cos_mean <= 1.3 * spo_mean and elapsed < 600.0)
    assert verdict(8, ok, (
        f"desk-scale normalized regret: mse+c+o+s {cos_mean:.3f} (<=0.85), "
        f"mae+o+s {maeos_mean:.3f} (<=0.90), spo+ {spo_mean:.3f} "
        f"(cos within 1.3x), {elapsed:.0f}s (<600s)"))


def test_criterion_09_component_monotonicity(desk_sp_study):
    reports = desk_sp_study
    losses = component_subset_losses("mse")
    # aggregate_rows drops failed cells, so require every seed clean
    clean = all(clean_seeds(reports, loss) == STUDY_SEEDS for loss in losses)
    rows = {row["loss"]: row.get("regret_norm_mean") for row in aggregate_rows(reports)}
    means = {loss: math.nan if rows[loss] is None else rows[loss] for loss in losses}
    steps = build_monotonicity(means, base="mse", tolerance=0.05)
    regressions = [step for step in steps if step.regression]
    worst = max(steps, key=lambda s: s.mean_norm / max(s.previous_norm, 1e-12))
    previous = previous_subset(worst)
    se = paired_ratio_se(reports, worst.loss, previous)
    ok = clean and not regressions
    assert verdict(9, ok, (
        f"component additions within 5% over all 6 orders: "
        f"{len(regressions)} regressions; worst step {previous} -> "
        f"{worst.loss} {worst.previous_norm:.3f}->{worst.mean_norm:.3f}, "
        f"per-seed ratio SE {se:.3f} over {len(STUDY_SEEDS)} seeds"
        f"{'' if clean else ' (failed cells)'}"))


def test_criterion_10_lawless_comparison(desk_sp_study):
    reports = desk_sp_study
    clean = all(clean_seeds(reports, loss) == STUDY_SEEDS
                for loss in ("mse+c",) + LAWLESS_SWEEP)
    c_mean = abs_mean(reports, "mse+c")
    law = {name: abs_mean(reports, name) for name in LAWLESS_SWEEP}
    best_name = min(law, key=law.get)
    ratio = c_mean / law[best_name]
    se = paired_ratio_se(reports, "mse+c", best_name)
    ok = clean and ratio <= 1.05
    assert verdict(10, ok, (
        f"instance-weighted squared loss vs regret-weighted sweep: "
        f"mse+c {c_mean:.0f} vs best {best_name} {law[best_name]:.0f}, "
        f"ratio {ratio:.3f} (<=1.05), per-seed ratio SE {se:.3f} over "
        f"{len(STUDY_SEEDS)} seeds{'' if clean else ' (failed cells)'}"))


# --- criterion 11: experiment outputs are byte-for-byte reproducible --------

def test_criterion_11_deterministic_results(tmp_path):
    config = ExperimentConfig(problem="ks6", losses=("mse", "mse+c"),
                              seeds=(0, 1), n_train=10, n_val=4, n_test=6,
                              k=4, epochs=2, batch_size=4,
                              deterministic_output=True)
    for name in ("first", "second"):
        write_results(run_experiment(config), tmp_path / name, config)
    first = (tmp_path / "first" / "results.csv").read_bytes()
    second = (tmp_path / "second" / "results.csv").read_bytes()
    ok = first == second and len(first) > 0
    assert verdict(11, ok, f"repeated experiment config: results.csv "
                           f"byte-identical ({len(first)} bytes)")
