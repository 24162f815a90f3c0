"""Experiment orchestration: grids over (loss, seed), accounting, reports.

Each grid cell builds its own problem oracle from the cell seed, gets its
dataset, precomputes exactly the caches its loss needs (counting the solver
calls spent), trains, and evaluates test regret. Cells share two things,
neither of which moves an output bit: the oracles' read-only derived state
(``problems._STORE``) and ``_RUNS`` (``_RunMemo``). Every solve still runs
and is counted by the cell's own oracle.
Solver calls are attributed to four phases:

  precompute_n_star     optimal decisions filled in for train/val instances
  precompute_ranges     one relaxed LP solve per instance needing ranges
  instance_cost_solves  regret evaluations behind per-instance weights
  training_solves       oracle calls made by the loss during epochs

Each phase count is the change of the integer ``problem.solves`` across
that phase, read by ``SolveCounts.phase`` and nowhere else. Only two places
advance it: the oracle's ``solve_many``, by one per cost row, and
``attach_ranges``, by one per LP solve. Data generation and test-set
evaluation happen outside the phases and are not counted (the latter is
identical for every loss). Cells run one after another, seed by seed, and
reports come back in (loss, seed) order, so re-running a config reproduces
results exactly; ``_POOL`` workers on the spare CPUs share ranging LPs.
"""
from __future__ import annotations

import csv
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Sense, total_regret
from .datagen import GenSpec, generate
from .errors import NumericalBreakdown, SolveFailure, ZeroVector
from .instance_costs import apply_instance_costs, compute_instance_costs
from .losses import LossSpec, instance_factor, normalize, parse_loss
from .model import Optimizer, TrainConfig, TrainTrace, init_model, train
from .problems import ProblemOracle, problem_from_name
from .simplex import LinearProgram, solve_lp


# --- cache attachment --------------------------------------------------------

def attach_decisions(dataset: Dataset, problem: ProblemOracle,
                     splits: tuple[str, ...] = ("train", "val")) -> Dataset:
    """Fill in missing optimal decisions; one batched solve over the uncached
    instances of ``splits``, one solve each; ``dataset`` itself when none is missing."""
    missing = dataset.uncached("x_star", [i for split in splits
                                          for i in dataset.split.part(split)])
    if not missing:
        return dataset
    x_star = dataset.x_star.copy()
    x_star[missing] = problem.solve_many(dataset.costs[missing])
    return dataset.attach(x_star=x_star)


def attach_ranges(dataset: Dataset, problem: ProblemOracle,
                  splits: tuple[str, ...] = ("train", "val"),
                  normalized: bool = False) -> Dataset:
    """Attach objective-coefficient ranges from the problem's LP relaxation.

    One ``solve_lp`` call per instance without ranges, in this process or a
    ``_POOL`` worker, bit for bit alike, each advancing ``problem.solves``
    by one. With ``normalized`` the ranging objective is the unit-norm cost
    vector, which is what scale-invariant losses must mask against,
    normalized before any LP solve. A failed solve or a zero cost vector
    raises an error naming the (first) instance and ``precompute_ranges``.
    """
    missing = dataset.uncached("lower", [i for split in splits
                                         for i in dataset.split.part(split)])
    if not missing:
        return dataset
    lower, upper = dataset.lower.copy(), dataset.upper.copy()
    objectives = dataset.costs[missing]
    try:
        objectives = normalize(objectives, missing) if normalized else objectives
    except ZeroVector as exc:
        raise ZeroVector(f"precompute_ranges: {exc}") from exc
    for i, outcome in zip(missing, _POOL.outcomes(problem.relaxation, objectives,
                                                  problem.sense)):
        if isinstance(outcome, str):
            raise SolveFailure(f"precompute_ranges: LP relaxation of instance {i}{outcome}")
        lower[i], upper[i] = outcome
    problem.solves += len(missing)
    return dataset.attach(lower=lower, upper=upper)


def _range_outcome(lp: LinearProgram, objective: np.ndarray, sense: Sense):
    """``solve_lp``'s ranges, or why it gave none as an error message's end."""
    try:
        solution = solve_lp(lp, objective, sense)
    except NumericalBreakdown as exc:
        return f": {exc}"
    return f" is {solution.status.value}" if solution.ranges is None else solution.ranges


class _RangingPool:
    """Worker processes that share ``attach_ranges``' LPs; the README says
    why each rule holds. One per spare CPU of the affinity set (``size`` is
    a test seam), forked on the first call that shares, daemonic and pinned;
    none without CPU affinity or beside other threads. An LP of at most
    ``MAX_BYTES`` is shared, the parent pinned to the other CPUs: it solves
    the last row (phase 1), then the first of one contiguous slice per
    process, and each worker gets the LP, start included, and one slice in
    one message. An error in a call stops the workers."""
    MAX_BYTES = 1 << 21  # holds sp10x10 (1.98 MB), whose products ran on one BLAS thread

    def __init__(self, size: int | None = None):
        self.size, self.workers, self.cpus = size, None, set()

    def _start(self) -> None:
        import multiprocessing
        import threading
        self.workers, ends = [], []  # (pipe end, process) pairs
        if not (hasattr(os, "sched_setaffinity") and threading.active_count() == 1):
            return  # affinity is Linux's, and fork is always there
        cpus = sorted(os.sched_getaffinity(0))
        size = len(cpus) - 1 if self.size is None else self.size
        self.cpus = set(cpus[:len(cpus) - size] or cpus)  # the parent's during a call
        for k in range(size):
            end, theirs = multiprocessing.Pipe()
            ends.append(end)
            worker = multiprocessing.get_context("fork").Process(
                target=_serve, args=(theirs, ends, cpus[-1 - k % len(cpus)]), daemon=True)
            worker.start()
            theirs.close()
            self.workers.append((end, worker))

    def close(self) -> None:
        for end, worker in self.workers or ():
            end.close()
            worker.terminate()
            worker.join()
        self.workers = None

    def outcomes(self, lp: LinearProgram, objectives: np.ndarray, sense: Sense) -> list:
        """``_range_outcome`` of each row of ``objectives``, in row order."""
        shared = lp.nbytes <= self.MAX_BYTES
        if shared and self.workers is None:
            self._start()
        if not (shared and self.workers):
            return [_range_outcome(lp, row, sense) for row in objectives]
        last = _range_outcome(lp, objectives[-1], sense)  # runs phase 1
        slices = np.array_split(objectives[:-1], len(self.workers) + 1)  # empty ones last
        ends = [end for (end, _), rows in zip(self.workers, slices[1:]) if len(rows)]
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            for end, rows in zip(ends, slices[1:]):
                end.send((lp, sense, rows))
            outcomes = [_range_outcome(lp, row, sense) for row in slices[0]]
            for end in ends:
                outcomes += end.recv()
        except BaseException:
            self.close()
            raise
        finally:
            os.sched_setaffinity(0, own)
        return outcomes + [last]


def _serve(end, parent_ends: list, cpu: int) -> None:
    """A ranging worker on ``cpu``: answer each call's one message until EOF."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    os.sched_setaffinity(0, {cpu})
    for parent_end in parent_ends:
        parent_end.close()
    try:
        while True:
            lp, sense, rows = end.recv()
            end.send([_range_outcome(lp, row, sense) for row in rows])
            del lp, rows  # hold nothing between calls
    except (EOFError, OSError):
        return


_POOL = _RangingPool()


# --- configuration and reports ------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One (loss x seed) grid. The run settings default to the fields of
    ``GenSpec`` and ``TrainConfig``, and the CLI flags default to these."""

    problem: str
    losses: tuple[str, ...]
    seeds: tuple[int, ...]
    n_train: int = 200
    n_val: int = 50
    n_test: int = 150
    k: int = GenSpec.k
    deg: int = GenSpec.deg
    noise_width: float = GenSpec.noise_width
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    optimizer: str = TrainConfig.optimizer.value
    normalize_against: str = "mse"

    def __post_init__(self):
        object.__setattr__(self, "losses", tuple(self.losses))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError("seeds is empty: a grid needs at least one seed")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ValueError(f"seed {repeated[0]} is repeated in seeds {list(self.seeds)}")
        specs = {}
        for loss in self.losses:
            spec = parse_loss(loss)  # fail fast on typos
            if spec in specs:  # one cell per loss, or aggregate_rows counts a seed twice
                raise ValueError(f"losses {specs[spec]!r} and {loss!r} are the same loss")
            specs[spec] = loss
        problem_from_name(self.problem)  # and on a bad problem, before any cell
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and above 0, "
                             f"got {self.learning_rate}")
        self.gen_spec(self.seeds[0])  # GenSpec checks the data settings
        self.train_config(self.seeds[0])  # and Optimizer the optimizer name

    def gen_spec(self, seed: int) -> GenSpec:
        return GenSpec(n_train=self.n_train, n_val=self.n_val, n_test=self.n_test,
                       k=self.k, deg=self.deg, noise_width=self.noise_width,
                       seed=seed)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                           batch_size=self.batch_size,
                           optimizer=Optimizer(self.optimizer), seed=seed)


@dataclass
class SolveCounts:
    precompute_n_star: int = 0
    precompute_ranges: int = 0
    instance_cost_solves: int = 0
    training_solves: int = 0

    @property
    def pre_total(self) -> int:
        """Everything spent before the epochs start."""
        return self.precompute_n_star + self.precompute_ranges + self.instance_cost_solves

    @contextmanager
    def phase(self, name: str, problem: ProblemOracle):
        """Add the change of ``problem.solves`` inside the block to phase ``name``."""
        before = problem.solves
        yield
        setattr(self, name, getattr(self, name) + problem.solves - before)


@dataclass
class RunReport:
    problem: str
    loss: str
    seed: int
    regret_abs: float
    regret_norm: float | None
    time_s: float
    counts: SolveCounts
    exact: bool
    best_val_loss: float = float("nan")
    error: str | None = None


# --- single grid cell ----------------------------------------------------------

class _RunMemo:
    """The dataset ``run_single`` generated last, and the finished training
    runs on it, shared by consecutive cells with the same ``GenSpec`` and d.
    A run is held when it trains on the held dataset (``attach`` shares its
    features), solves nothing and its training rows carry no instance
    factor, keyed on what training reads besides the dataset: the config,
    the sense, the unweighted spec and the caches its O or O_S masks read."""

    def __init__(self):
        self.key = None  # the (GenSpec, d) that generated ``dataset``
        self.dataset: Dataset | None = None
        self.runs: dict = {}

    def generated(self, spec: GenSpec, problem: ProblemOracle) -> Dataset:
        """``generate(spec, problem)``, held while consecutive calls ask for
        the same ``(spec, problem.d)``, its only inputs; a new dataset
        empties the held runs."""
        key = (spec, problem.d)
        if self.key != key:
            self.key, self.dataset, self.runs = key, generate(spec, problem), {}
        return self.dataset

    def trained(self, problem: ProblemOracle, dataset: Dataset, spec: LossSpec,
                cfg: TrainConfig) -> tuple[TrainTrace, float]:
        """``train`` from ``init_model``, or the held run and its measured
        seconds (0.0 when it trains)."""
        key = None
        if (self.dataset is not None and dataset.features is self.dataset.features
                and not spec.spo_plus
                and instance_factor(spec, dataset, dataset.split.train) is None):
            masks = (("x_star",) * spec.requires_decisions
                     + ("lower", "upper") * spec.requires_ranges)
            key = (cfg, problem.sense, spec.validation_variant(),
                   *(getattr(dataset, cache).tobytes() for cache in masks))
        if key in self.runs:
            return self.runs[key]
        t0 = time.perf_counter()
        trace = train(init_model(dataset.k, problem.d, seed=cfg.seed), dataset, spec, cfg,
                      problem)
        if key is not None:
            self.runs[key] = (trace, time.perf_counter() - t0)
        return trace, 0.0


_RUNS = _RunMemo()


def fit(problem: ProblemOracle, dataset: Dataset, spec: LossSpec,
        train_cfg: TrainConfig):
    """Attach the caches ``spec`` needs, then train a fresh model under it.

    Fills optimal decisions and sensitivity ranges where required. An
    instance-weighted (C) or regret-weighted spec first trains a baseline
    under its unweighted validation loss; the baseline's report gives the
    weights: the C weights, or the raw regrets. Both trainings go through
    ``_RUNS``. Returns the training trace, the solver calls of the four
    phases, the baseline report (None unless ``spec`` weights its instances)
    and the measured seconds of the held runs reused in place of training.
    """
    counts = SolveCounts()
    report = None
    reused_s = 0.0
    weighted = spec.instance_costs or spec.requires_baseline_regret

    # decisions: masks and spo+ need them on everything touched in epochs and
    # validation; instance weighting needs them on train for regret evaluation
    decision_splits = []
    if spec.requires_decisions or weighted:
        decision_splits.append("train")
    if spec.requires_decisions:
        decision_splits.append("val")
    if decision_splits:
        with counts.phase("precompute_n_star", problem):
            dataset = attach_decisions(dataset, problem, tuple(decision_splits))

    if spec.requires_ranges:
        with counts.phase("precompute_ranges", problem):
            dataset = attach_ranges(dataset, problem, ("train", "val"),
                                    normalized=spec.scale_invariant)

    if weighted:
        base_spec = spec.validation_variant()
        base_trace, reused_s = _RUNS.trained(problem, dataset, base_spec, train_cfg)
        with counts.phase("instance_cost_solves", problem):
            report = compute_instance_costs(problem, base_trace.best_model, dataset,
                                            base_spec)
        dataset = apply_instance_costs(dataset, report.costs if spec.instance_costs
                                       else report.regrets)

    with counts.phase("training_solves", problem):
        trace, seconds = _RUNS.trained(problem, dataset, spec, train_cfg)
    return trace, counts, report, reused_s + seconds


def run_single(config: ExperimentConfig, loss: str, seed: int) -> RunReport:
    """One (loss, seed) cell: generate, precompute, train, evaluate. A reused
    training run is charged to ``time_s`` at its measured seconds."""
    problem = problem_from_name(config.problem, seed=seed)
    dataset = _RUNS.generated(config.gen_spec(seed), problem)
    t0 = time.perf_counter()
    trace, counts, _, reused_s = fit(problem, dataset, parse_loss(loss),
                                     config.train_config(seed))
    regret_abs = total_regret(problem, trace.best_model, dataset, split="test")
    elapsed = time.perf_counter() - t0 + reused_s
    return RunReport(problem=config.problem, loss=loss, seed=seed,
                     regret_abs=regret_abs, regret_norm=None, time_s=elapsed,
                     counts=counts, exact=problem.exact,
                     best_val_loss=trace.best_val_loss)


# --- the grid -------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> list[RunReport]:
    """Run the full grid; reports come back sorted by (loss, seed).

    Failures in individual cells are captured on the report rather than
    aborting the grid. Normalized regret divides each run's absolute regret
    by the same-seed run of ``config.normalize_against`` when that loss is
    part of the grid. An empty loss list or test split is an error, raised
    before any cell runs.
    """
    if not config.losses:
        raise ValueError("losses is empty: a grid needs at least one loss")
    if config.n_test < 1:  # no test instance, no regret to score
        raise ValueError(f"n_test must be at least 1 in a grid, got {config.n_test}")

    def cell(loss: str, seed: int) -> RunReport:
        try:
            return run_single(config, loss, seed)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            return RunReport(problem=config.problem, loss=loss, seed=seed,
                             regret_abs=float("nan"), regret_norm=None,
                             time_s=float("nan"), counts=SolveCounts(),
                             exact=False, error=f"{type(exc).__name__}: {exc}")

    # seed-major: every cell of a seed's knapsack runs while its state is held
    reports = [cell(loss, seed) for seed in config.seeds for loss in config.losses]
    reports.sort(key=lambda r: (r.loss, r.seed))

    baseline = {r.seed: r.regret_abs for r in reports
                if r.loss == config.normalize_against and r.error is None}
    for r in reports:
        if r.error is not None or r.seed not in baseline:
            continue
        base = baseline[r.seed]
        if base <= 0.0:
            r.regret_norm = 1.0 if r.regret_abs <= 0.0 else float("inf")
        else:
            r.regret_norm = r.regret_abs / base
    return reports


# --- output files ----------------------------------------------------------------

RESULTS_COLUMNS = ("problem", "loss", "seed", "regret_abs", "regret_norm",
                   "solves_pre", "solves_train", "exact")


def write_results(reports: list[RunReport], out_dir,
                  config: ExperimentConfig) -> list[dict]:
    """Write results.csv (schema above), runs.json with full breakdowns,
    config.json, pareto.csv and times.json; return the ``aggregate_rows``.
    times.json holds every wall-clock reading, so the other four files are
    the same on every run of one config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", RESULTS_COLUMNS, ([
        r.problem, r.loss, r.seed, repr(r.regret_abs),
        "" if r.regret_norm is None else repr(r.regret_norm),
        r.counts.pre_total, r.counts.training_solves, str(bool(r.exact)).lower(),
    ] for r in reports))
    with open(out / "runs.json", "w", encoding="utf-8") as fh:
        json.dump([{
            "problem": r.problem, "loss": r.loss, "seed": r.seed,
            "regret_abs": r.regret_abs, "regret_norm": r.regret_norm,
            "counts": asdict(r.counts), "exact": r.exact,
            "best_val_loss": r.best_val_loss, "error": r.error,
        } for r in reports], fh, indent=2)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(config), fh, indent=2)
    with open(out / "times.json", "w", encoding="utf-8") as fh:
        json.dump([{"loss": r.loss, "seed": r.seed, "time_s": r.time_s}
                   for r in reports], fh, indent=2)
    rows = aggregate_rows(reports)
    _write_csv(out / "pareto.csv", ("loss", "regret_abs_mean", "solves_mean", "pareto_optimal"),
               ([row["loss"], repr(row["regret_abs_mean"]), repr(row["solves_mean"]),
                 str(row["pareto_optimal"]).lower()] for row in rows if row["n"]))
    return rows


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def aggregate_rows(reports: list[RunReport]) -> list[dict]:
    """One row per loss, sorted by name, over its successful runs: the means
    of regret, normalized regret (None when no run has one), solves
    (``solves_pre + solves_train``) and time, and whether the (regret, solves)
    point is Pareto-optimal among the losses with a successful run. A loss
    whose every run failed gets ``{"loss": loss, "n": 0}``."""
    rows = []
    for loss in sorted({r.loss for r in reports}):
        group = [r for r in reports if r.loss == loss and r.error is None]
        if not group:
            rows.append({"loss": loss, "n": 0})
            continue
        norms = [r.regret_norm for r in group if r.regret_norm is not None]
        rows.append({
            "loss": loss,
            "n": len(group),
            "regret_abs_mean": float(np.mean([r.regret_abs for r in group])),
            "regret_norm_mean": float(np.mean(norms)) if norms else None,
            "solves_mean": float(np.mean([r.counts.pre_total + r.counts.training_solves
                                          for r in group])),
            "time_s_mean": float(np.mean([r.time_s for r in group])),
            "exact": all(r.exact for r in group),
        })
    ran = [row for row in rows if row["n"]]
    flags = pareto_flags([(row["regret_abs_mean"], row["solves_mean"]) for row in ran])
    for row, flag in zip(ran, flags):
        row["pareto_optimal"] = flag
    return rows


def pareto_flags(points: list[tuple[float, float]]) -> list[bool]:
    """Flag (regret, solves) points not dominated by any other point.

    Point j dominates i when it is no worse on both axes and strictly
    better on at least one, so no point dominates itself or its equal.
    Solves, not seconds, measure the cost: the paper states its efficiency
    in solves, and they are deterministic.
    """
    return [not any(reg_j <= reg_i and s_j <= s_i and (reg_j < reg_i or s_j < s_i)
                    for reg_j, s_j in points) for reg_i, s_i in points]


# --- component monotonicity --------------------------------------------------------

COMPONENT_ORDERS = tuple(itertools.permutations(("c", "o", "s")))


def _subset_name(base: str, subset: frozenset[str]) -> str:
    parts = [base] + [c for c in ("c", "o", "s") if c in subset]
    return "+".join(parts)


@dataclass(frozen=True)
class MonotonicityStep:
    order: str
    loss: str
    mean_norm: float
    previous_norm: float
    regression: bool


def component_subset_losses(base: str) -> list[str]:
    """The eight loss names formed by adding subsets of c, o, s to a base."""
    subsets = [frozenset(s) for r in range(4)
               for s in itertools.combinations(("c", "o", "s"), r)]
    return [_subset_name(base, s) for s in subsets]


# the regret-weighted sweep of criterion 10 and the desk grids of criterion 08 (`cosdfl desk`)
LAWLESS_SWEEP = tuple(f"lawless:{w}" for w in ("0", "0.2", "0.4", "0.6", "0.8", "1"))
DESK_LOSSES = {"sp5x5": (*component_subset_losses("mse"), "mae+o+s", "spo+", *LAWLESS_SWEEP),
               "ks16": ("mse", "mse+c+o+s", "mae+o+s", "spo+")}


def build_monotonicity(subset_means: dict[str, float], base: str = "mse",
                       tolerance: float = 0.05) -> tuple[MonotonicityStep, ...]:
    """Walk every component addition order over precomputed subset means.

    ``subset_means`` must hold the mean normalized regret of all eight
    subsets of {c, o, s} over ``base``. Each subset is shared across the six
    orders, so the final value of every order is identical by construction.
    A step regresses when its mean exceeds the previous prefix's by more
    than the tolerance fraction.
    """
    steps = []
    for order in COMPONENT_ORDERS:
        prefix: frozenset[str] = frozenset()
        prev = subset_means[_subset_name(base, prefix)]
        for component in order:
            prefix = prefix | {component}
            name = _subset_name(base, prefix)
            mean = subset_means[name]
            steps.append(MonotonicityStep(
                order=">".join(order), loss=name, mean_norm=mean,
                previous_norm=prev, regression=bool(mean > prev * (1.0 + tolerance))))
            prev = mean
    return tuple(steps)


def write_monotonicity(steps: tuple[MonotonicityStep, ...], out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "monotonicity.csv"
    _write_csv(path, ("order", "loss", "mean_norm", "previous_norm", "regression"),
               ([s.order, s.loss, repr(s.mean_norm), repr(s.previous_norm),
                 str(s.regression).lower()] for s in steps))
    return path
