"""Grid benchmark for cosdfl: (loss x seed) cells through the public harness API.

Run from the root of a cosdfl checkout:

    python3 perfbench/run.py --workload surrogate-sp5x5 --seed 0 --seconds 40 --trace 0

One run executes a fixed grid of cells, one at a time (a closed loop from one
process; nothing queues), each through ``cosdfl.harness.run_single`` and
timed around that call. The grid holds whole blocks: one block is every
(problem, loss) of the workload on one data seed, and ``BLOCK_SECONDS`` is a
block's duration on the 2-core reference machine. The grid is sized so that
``TARGET_PASSES`` passes over it fill ``--seconds``; passes repeat until
``--seconds`` have gone, and there are at least ``MIN_PASSES``. ``--seed``
picks the data seeds, which map onto the table of committed reference
regrets in ``reference/``.

Timing on a shared machine: the reference machine runs the same code at
full speed or at about half speed, switching within seconds and sometimes
staying slow for a whole run. So the bounded time metrics come from a
model, not straight from the clock: a fixed calibration loop that does not
touch cosdfl runs between every two cell runs, each cell run is divided by
the slowdown of the calibrations before it and after the next run (never
the one directly after itself, so what a run leaves behind does not move its
own divisor) raised to ``SENSITIVITY``, and each (problem, loss) type's time
is the median of its scaled runs over seeds and passes. Each set-up probe
is scaled by the calibrations around it. Raw times are printed next to the scaled ones, and
the traced run reports the raw-time ``wall.*`` metrics.

A cell run fails when it raises, when its four solver-call phase counts
differ from their closed forms, when its test regret differs from the
committed reference by more than ``REGRET_RTOL``, or when its outcome is not
bit-identical to the cell's first run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first
pass under the boundary tracer in ``tracer.py``, the others untraced, and
prints the per-layer metrics. The last line of standard output is one JSON
object.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

# data seeds with a committed reference regret for every cell
REFERENCE_SEEDS = 120
# regret may move at the ulp level when summation order changes; a decision
# flip on one test instance moves it by far more than this
REGRET_RTOL = 1e-6
TARGET_PASSES = 3
MIN_PASSES = 2
SETUP_PROBES = (4, 4)   # fresh-interpreter set-ups before and after the grid
# A quarter of the desk data (n_train 200, n_val 50, n_test 150) and 20 of
# its 50 epochs: cells of 0.05-1 s, so every cell runs several times in a
# run; an spo+ cell still makes 20 x 60 = 1,200 solves in training.
CELL_SIZE = {"n_train": 50, "n_val": 10, "n_test": 40, "epochs": 20}
# the calibration loop's time on the reference machine at full speed
CALIBRATION_S = 1.0e-3
# How program time follows calibration time: program ~ calibration**SENSITIVITY.
# Regressing sample against sample on the reference machine gives slopes of
# 0.74-0.86, biased low because the calibration times are noisy themselves;
# over the logs of 25 forty-second runs per workload, 0.9 gave the smallest
# run-to-run spread of the scaled figures on both workloads.
SENSITIVITY = 0.9

SUBSETS = ("mse", "mse+c", "mse+o", "mse+s", "mse+c+o", "mse+c+s", "mse+o+s", "mse+c+o+s")
LAWLESS_SWEEP = tuple(f"lawless:{w}" for w in ("0", "0.2", "0.4", "0.6", "0.8", "1"))

# workload -> ((problem, losses), ...); "mse" comes first in each problem so
# the other cells can be normalized against it
WORKLOADS = {
    # solver-free desk losses: the loss layer does most of the work, and the
    # o_s cells exercise the simplex ranging
    "surrogate-sp5x5": (("sp5x5", SUBSETS + ("mae+o+s", "mse+o_s+s", "mae+o_s+s")
                         + LAWLESS_SWEEP),),
    # the solver inside the training loop, one exact oracle family each:
    # grid DP, knapsack branch-and-bound and Held-Karp
    "spo-inloop": tuple((problem, ("mse", "spo+")) for problem in ("sp5x5", "ks16", "tsp5")),
}
BLOCK_SECONDS = {"surrogate-sp5x5": 2.8, "spo-inloop": 1.5}

LAYERS = ("datagen", "problems", "simplex", "losses", "model", "instance_costs",
          "core", "harness")
LATENCY_LAYERS = ("problems", "simplex", "losses")
FAMILIES = tuple(sorted({problem for grid in WORKLOADS.values() for problem, _ in grid}))
PHASES = ("precompute_n_star", "precompute_ranges", "instance_cost_solves",
          "training_solves")

END_TO_END_UNITS = {
    "cells_per_min": "1/min",
    "cell_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solves_total": "count",
}
# Printed with the metrics above but kept out of the result's bounded set:
# regret_norm_mean moves with the data seed (its quartile spread over ten
# seeds is about 0.2 of its median on spo-inloop), so the traced run carries
# it as the unbounded harness.regret_norm_mean; cell_error_rate is 0 on
# correct code and travels as the result's failed/attempted.


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.share": "fraction"})
    for layer in LATENCY_LAYERS:
        units.update({f"{layer}.call_us_p50": "us", f"{layer}.call_us_p99": "us"})
    for family in FAMILIES:
        units.update({f"problems.{family}.calls": "count",
                      f"problems.{family}.self_s": "s"})
    units.update({f"harness.solves.{phase}": "count" for phase in PHASES})
    units.update({"harness.regret_norm_mean": "ratio",
                  "model.useful_epoch_frac": "fraction",
                  "instance_costs.positive_regret_frac": "fraction",
                  "trace.unattributed_s": "s", "trace.overhead_frac": "fraction"})
    # the untraced passes' figures from the raw clock, and the model's divisor
    units.update({"wall.cells_per_min": "1/min", "wall.cell_s_p50": "s",
                  "wall.setup_s": "s", "wall.slowdown_p50": "ratio"})
    return units


# --- machine speed ---------------------------------------------------------------

def calibrate() -> float:
    """Best of three timings of a fixed loop of small numpy operations."""
    import numpy as np
    best = math.inf
    for _ in range(3):
        x = np.linspace(0.1, 1.0, 24)
        y = x[::-1].copy()
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(150):
            d = x - y
            w = np.where(d > 0.0, 0.3, 0.7)
            acc += float(w @ (d * d))
            y = y * 0.999 + 0.001 * float(np.linalg.norm(x))
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(before: float, after: float) -> float:
    """The calibration time around some work over its time at full speed,
    raised to ``SENSITIVITY``: divide the work's time by it to scale.

    ``CALIBRATION_S`` only fixes the unit; it cancels between two runs on
    one machine.
    """
    return (0.5 * (before + after) / CALIBRATION_S) ** SENSITIVITY


# --- set-up ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple        # one ExperimentConfig per problem, seeds = data seeds
    seeds: tuple[int, ...]
    seconds: float        # passes repeat until this much time has gone


def import_cosdfl():
    """Import the package from this checkout's ``src``, or stop."""
    if not (SRC / "cosdfl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cosdfl sources under {SRC}; "
                         "run from the root of a cosdfl checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cosdfl import harness, problems
    return harness, problems


def grid_seeds(seed: int, blocks: int) -> tuple[int, ...]:
    return tuple((seed * blocks + b) % REFERENCE_SEEDS for b in range(blocks))


def setup(name: str, seed: int, seconds: int) -> Workload:
    """Import cosdfl and build the workload's configs and oracles."""
    harness, problems = import_cosdfl()
    blocks = max(1, round(seconds / (TARGET_PASSES * BLOCK_SECONDS[name])))
    seeds = grid_seeds(seed, blocks)
    configs = tuple(harness.ExperimentConfig(problem=problem, losses=losses, seeds=seeds,
                                             **CELL_SIZE)
                    for problem, losses in WORKLOADS[name])
    for config in configs:
        for s in seeds:
            problems.problem_from_name(config.problem, seed=s)
    return Workload(name=name, configs=configs, seeds=seeds, seconds=seconds)


_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
          "t0 = time.perf_counter(); run.setup(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])); "
          "print(repr(time.perf_counter() - t0))")


def probe_setup(name: str, seed: int, seconds: int) -> float:
    """Raw set-up time in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), name, str(seed), str(seconds)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def probe_group(probe, n: int) -> list[tuple[float, float]]:
    """``n`` set-up probes as (raw seconds, slowdown), each probe bracketed by
    calibrations. A probe's interpreter has exited before the calibration
    after it starts, so it leaves nothing behind that could move its divisor.
    """
    samples = []
    before = calibrate()
    for _ in range(n):
        seconds = probe()
        after = calibrate()
        samples.append((seconds, slowdown(before, after)))
        before = after
    return samples


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["regret_abs"]


# --- cells and the correctness gate ------------------------------------------------

def expected_counts(loss: str, n_train: int, n_val: int, epochs: int) -> tuple[int, ...]:
    """Closed-form solver calls per phase, as in acceptance criterion 06.

    Order: precompute_n_star, precompute_ranges, instance_cost_solves,
    training_solves. Derived from the loss name alone, not from LossSpec.
    """
    both = n_train + n_val
    if loss == "spo+":
        return (both, 0, 0, epochs * both)
    if loss.startswith("lawless:"):
        weighted = float(loss.split(":", 1)[1]) > 0.0
        return (n_train, 0, n_train, 0) if weighted else (0, 0, 0, 0)
    parts = set(loss.split("+")[1:])
    if "cos" in parts:
        parts |= {"c", "o", "s"}
    one_sided = bool(parts & {"o", "o_s"})
    weighted = "c" in parts
    n_star = both if one_sided else (n_train if weighted else 0)
    return (n_star, both if "o_s" in parts else 0, n_train if weighted else 0, 0)


@dataclass
class Cell:
    config: object
    loss: str
    seed: int
    seconds: float = 0.0      # raw wall time of the run_single call
    slowdown: float = 1.0     # see run_grid() and slowdown()
    regret_abs: float | None = None
    counts: tuple[int, ...] | None = None
    best_val_loss: float | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def problem(self) -> str:
        return self.config.problem

    @property
    def scaled_seconds(self) -> float:
        return self.seconds / self.slowdown

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    def outcome(self) -> tuple:
        return (repr(self.regret_abs), self.counts, repr(self.best_val_loss))


def run_cell(run_single, config, loss: str, seed: int, reference: dict) -> Cell:
    """One timed call of ``run_single``, checked against the gate."""
    cell = Cell(config, loss, seed)
    t0 = time.perf_counter()
    try:
        report = run_single(config, loss, seed)
    except Exception as exc:  # noqa: BLE001 - a raising cell is a failed cell
        cell.seconds = time.perf_counter() - t0
        cell.errors.append(f"raised {type(exc).__name__}: {exc}")
        return cell
    cell.seconds = time.perf_counter() - t0
    c = report.counts
    cell.counts = (c.precompute_n_star, c.precompute_ranges, c.instance_cost_solves,
                   c.training_solves)
    cell.regret_abs = report.regret_abs
    cell.best_val_loss = report.best_val_loss
    want = expected_counts(loss, config.n_train, config.n_val, config.epochs)
    if cell.counts != want:
        cell.errors.append(f"phase counts {cell.counts} != closed form {want}")
    ref = reference.get(config.problem, {}).get(loss, {}).get(str(seed))
    if ref is None:
        cell.errors.append("no reference regret")
    elif not math.isclose(report.regret_abs, ref, rel_tol=REGRET_RTOL, abs_tol=0.0):
        cell.errors.append(f"regret_abs {report.regret_abs!r} != reference {ref!r}")
    return cell


def run_grid(workload: Workload, reference: dict, tracer=None) -> list[list[Cell]]:
    """Passes over the grid until the workload's time has gone; each cell's runs.

    A calibration runs between every two cell runs. Each run is scaled by
    the calibrations just before it and just after the next run, never by
    the one directly after itself, so whatever a run leaves behind (cache
    state, a thread still running) does not move its own divisor. With a
    tracer, the first pass runs traced. A later run fails unless its outcome
    is bit-identical to the cell's first run.
    """
    from cosdfl import harness
    grid = [(config, loss, s) for s in workload.seeds for config in workload.configs
            for loss in config.losses]
    runs: list[list[Cell]] = [[] for _ in grid]
    start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or time.perf_counter() - start < workload.seconds:
        traced = tracer is not None and p == 0
        p += 1
        run_single = tracer.wrap(harness.run_single) if traced else harness.run_single
        if traced:
            tracer.install()
        try:
            calibrations = [calibrate()]    # [i] runs just before cell run i
            cells = []
            for cell in grid:
                cells.append(run_cell(run_single, *cell, reference))
                calibrations.append(calibrate())
        finally:
            if traced:
                tracer.uninstall()
        last = len(cells) - 1
        for i, (cell, cell_runs) in enumerate(zip(cells, runs)):
            later = i + 2 if i < last else max(i - 1, 0)
            cell.slowdown = slowdown(calibrations[i], calibrations[later])
            cell_runs.append(cell)
    for first, *later in runs:
        for cell in later:
            if not cell.failed and cell.outcome() != first.outcome():
                cell.errors.append(f"outcome {cell.outcome()} differs from the first run "
                                   f"{first.outcome()}")
    return runs


# --- metrics -----------------------------------------------------------------------

def regret_norm_mean(cells: list[Cell]) -> float:
    """Mean test regret of the non-mse cells over their same-seed mse cell."""
    base = {(c.problem, c.seed): c.regret_abs for c in cells
            if c.loss == "mse" and not c.failed}
    ratios = [c.regret_abs / base[(c.problem, c.seed)] for c in cells
              if c.loss != "mse" and not c.failed and (c.problem, c.seed) in base]
    return math.fsum(ratios) / len(ratios) if ratios else 0.0


def cell_type_seconds(runs: list[list[Cell]], raw: bool = False) -> list[float]:
    """Per (problem, loss): the median of its scaled (or raw) runs over blocks
    and passes.

    Pooling a type over its data seeds keeps one hard instance (knapsack
    branch-and-bound time varies twofold between seeds) from moving the run.
    """
    by_type: dict[tuple[str, str], list[float]] = {}
    for cell in (c for r in runs for c in r):
        by_type.setdefault((cell.problem, cell.loss), []).append(
            cell.seconds if raw else cell.scaled_seconds)
    return [statistics.median(v) for v in by_type.values()]


def throughput(runs: list[list[Cell]], raw: bool = False) -> tuple[float, float]:
    """cells_per_min and cell_s_p50 over the runs' (problem, loss) types."""
    per_type = cell_type_seconds(runs, raw)
    done = sum(not any(c.failed for c in r) for r in runs)
    # every type has one cell per block, so a block takes sum(per_type)
    return (60.0 * len(per_type) / math.fsum(per_type) * done / len(runs),
            statistics.median(per_type))


def end_to_end(runs: list[list[Cell]],
               setup_samples: list[tuple[float, float]]) -> dict[str, float]:
    done = [r[0] for r in runs if not any(c.failed for c in r)]
    cells_per_min, cell_s_p50 = throughput(runs)
    return {
        "cells_per_min": cells_per_min,
        "cell_s_p50": cell_s_p50,
        "setup_s": statistics.median(raw / factor for raw, factor in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solves_total": sum(sum(c.counts) for c in done),
    }


class Observations:
    """Results of layer calls that the per-layer metrics need."""

    def __init__(self) -> None:
        self.best_epochs = 0
        self.epochs_run = 0
        self.baseline_solves = 0
        self.positive_regrets = 0

    def train(self, trace) -> None:
        self.best_epochs += trace.best_epoch + 1
        self.epochs_run += len(trace.records)

    def regrets(self, result) -> None:
        regrets = getattr(result, "regrets", result)
        self.baseline_solves += len(regrets)
        self.positive_regrets += int(sum(1 for r in regrets if r > 0.0))

    def hooks(self) -> dict:
        return {"model.train": self.train,
                "instance_costs.baseline_regrets": self.regrets,
                "instance_costs.compute_instance_costs": self.regrets}


def _percentile_us(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0


def wall_clock(runs: list[list[Cell]],
               setup_samples: list[tuple[float, float]]) -> dict[str, float]:
    """The time metrics from the raw clock, with no slowdown model."""
    cells_per_min, cell_s_p50 = throughput(runs, raw=True)
    return {"wall.cells_per_min": cells_per_min, "wall.cell_s_p50": cell_s_p50,
            "wall.setup_s": statistics.median(raw for raw, _factor in setup_samples),
            "wall.slowdown_p50": statistics.median(c.slowdown for r in runs for c in r)}


def per_layer(runs: list[list[Cell]], tracer, seen: Observations,
              setup_samples: list[tuple[float, float]]) -> dict[str, float]:
    """Layer metrics of the traced first pass; times are raw wall time.

    The ``wall.*`` metrics come from the untraced later passes.
    """
    from tracer import LayerStats
    cells = [r[0] for r in runs]
    wall = math.fsum(c.seconds for c in cells)
    summary = tracer.summary()
    metrics = {}
    for layer in LAYERS:
        stats = summary.layers.get(layer, LayerStats())
        metrics[f"{layer}.calls"] = stats.calls
        metrics[f"{layer}.self_s"] = stats.self_s
        metrics[f"{layer}.share"] = stats.self_s / wall
    for layer in LATENCY_LAYERS:
        stats = summary.layers.get(layer, LayerStats())
        metrics[f"{layer}.call_us_p50"] = _percentile_us(stats.call_s, 50)
        metrics[f"{layer}.call_us_p99"] = _percentile_us(stats.call_s, 99)
    for family in FAMILIES:
        stats = summary.families.get(family, LayerStats())
        metrics[f"problems.{family}.calls"] = stats.calls
        metrics[f"problems.{family}.self_s"] = stats.self_s
    done = [c for c in cells if not c.failed]
    for i, phase in enumerate(PHASES):
        metrics[f"harness.solves.{phase}"] = sum(c.counts[i] for c in done)
    metrics["harness.regret_norm_mean"] = regret_norm_mean(cells)
    metrics["model.useful_epoch_frac"] = (seen.best_epochs / seen.epochs_run
                                          if seen.epochs_run else 0.0)
    metrics["instance_costs.positive_regret_frac"] = (
        seen.positive_regrets / seen.baseline_solves if seen.baseline_solves else 0.0)
    metrics["trace.unattributed_s"] = wall - summary.root_s
    # traced first runs against the untraced later runs, both scaled
    traced = math.fsum(c.scaled_seconds for c in cells)
    untraced = math.fsum(statistics.median(c.scaled_seconds for c in r[1:]) for r in runs)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics.update(wall_clock([r[1:] for r in runs], setup_samples))
    return metrics


def measure(workload: Workload, reference: dict, trace: bool,
            setup_samples: list[tuple[float, float]], probe=None, log=print) -> dict:
    """Run the grid and return the result object the last output line carries.

    ``setup_samples`` are (raw seconds, slowdown) pairs. ``probe`` times one
    more set-up; it runs in groups before and after the grid so the samples
    span the run.
    """
    samples = list(setup_samples)
    if probe is not None:
        samples += probe_group(probe, SETUP_PROBES[0])
    tracer = seen = None
    if trace:
        from tracer import Tracer  # lazy: it imports numpy, which set-up must time
        seen = Observations()
        tracer = Tracer(observers=seen.hooks())
    runs = run_grid(workload, reference, tracer)
    if probe is not None:
        samples += probe_group(probe, SETUP_PROBES[1])
    for cell_runs in runs:
        first = cell_runs[0]
        errors = [e for c in cell_runs for e in c.errors]
        raw = ",".join(f"{c.seconds:.3f}" for c in cell_runs)
        scaled = ",".join(f"{c.scaled_seconds:.3f}" for c in cell_runs)
        log(f"cell {first.problem} {first.loss} seed={first.seed} raw={raw}s "
            f"scaled={scaled}s regret_abs={first.regret_abs!r} counts={first.counts} "
            + ("ok" if not errors else "FAILED: " + "; ".join(errors)))
    attempted = sum(len(r) for r in runs)
    failed = sum(c.failed for r in runs for c in r)
    if trace:
        values, units = per_layer(runs, tracer, seen, samples), per_layer_units()
    else:
        values, units = end_to_end(runs, samples), END_TO_END_UNITS
        slowdowns = [c.slowdown for r in runs for c in r]
        log(f"cell_s_p50 over n={len(cell_type_seconds(runs))} cell types x "
            f"{len(workload.seeds) * len(runs[0])} scaled runs; "
            f"setup_s over n={len(samples)} set-ups; slowdown "
            f"min={min(slowdowns):.2f} median={statistics.median(slowdowns):.2f} "
            f"max={max(slowdowns):.2f}")
        log("unscaled: " + ", ".join(f"{name} = {value!r}" for name, value
                                     in wall_clock(runs, samples).items()))
        log(f"regret_norm_mean = {regret_norm_mean([r[0] for r in runs])!r} ratio")
        log(f"cell_error_rate = {failed / attempted!r} ratio ({failed} of {attempted} "
            f"cell runs)")
    for name, unit in units.items():
        log(f"{name} = {values[name]!r} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = setup(args.workload, args.seed, args.seconds)
    reference = load_reference(args.workload)
    result = measure(workload, reference, bool(args.trace), [],
                     probe=lambda: probe_setup(args.workload, args.seed, args.seconds))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
