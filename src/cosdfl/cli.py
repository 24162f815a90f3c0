"""Command-line entry points.

Subcommands:
  generate           write a synthetic dataset for a problem to JSON
  train              train a linear cost model under a named loss
  eval               test-set regret of a saved model on a saved dataset
  experiment         run a (loss x seed) grid and write results.csv
  desk               run the desk grids of both problems, with the sweep ratio
  monotonicity       check that adding loss components never hurts

The process exits 0 only when every requested run succeeded.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .core import load_dataset, save_dataset, total_regret
from .datagen import GenSpec, generate
from .errors import CosdflError, DimensionMismatch
from .harness import (DESK_LOSSES, LAWLESS_SWEEP, ExperimentConfig, attach_decisions,
                      build_monotonicity, component_subset_losses, fit,
                      run_experiment, write_monotonicity, write_results)
from .instance_costs import save_baseline_report
from .losses import parse_loss
from .model import load_model, save_model
from .problems import problem_from_name


def _add_problem_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", required=True,
                        help="ks<d> | sp<R>x<C> | tsp<n> | custom:<file>")


# each run-setting flag is named after, and defaults to, an ExperimentConfig field
def _add_gen_args(parser: argparse.ArgumentParser) -> None:
    # a flag left out stays out of the namespace, so _config gives it the
    # field's default and train can tell that one was given next to --dataset
    group = parser.add_argument_group("data generation",
                                      argument_default=argparse.SUPPRESS)
    group.add_argument("--n-train", type=int)
    group.add_argument("--n-val", type=int)
    group.add_argument("--n-test", type=int)
    group.add_argument("--k", type=int, help="latent feature dimension")
    group.add_argument("--deg", type=int, help="polynomial lift degree")
    group.add_argument("--noise-width", type=float)


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                        default=ExperimentConfig.learning_rate)
    parser.add_argument("--epochs", type=int, default=ExperimentConfig.epochs)
    parser.add_argument("--batch-size", type=int, default=ExperimentConfig.batch_size)
    parser.add_argument("--optimizer", choices=["sgd", "adam"],
                        default=ExperimentConfig.optimizer)


def _config(args: argparse.Namespace, losses, seeds, **overrides) -> ExperimentConfig:
    """The ExperimentConfig of the parsed flags; a field with no flag in the
    command keeps its default."""
    flags = {f.name for f in fields(ExperimentConfig)} - {"losses", "seeds"}
    given = {name: value for name, value in vars(args).items() if name in flags}
    return ExperimentConfig(losses=tuple(losses), seeds=tuple(seeds),
                            **{**given, **overrides})


def _cmd_generate(args: argparse.Namespace) -> int:
    problem = problem_from_name(args.problem, seed=args.seed)
    config = _config(args, (), (args.seed,))
    dataset = generate(config.gen_spec(args.seed), problem)
    if args.cache_decisions:
        dataset = attach_decisions(dataset, problem)
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} instances (d={dataset.d}, k={dataset.k}) to {args.out}")
    return 0


def _read_dataset(args: argparse.Namespace, model=None):
    """The dataset of ``--dataset`` and its problem, built from the dataset's
    seed; raises DimensionMismatch when the problem's or the model's
    dimensions differ from the dataset's."""
    dataset = load_dataset(args.dataset)
    problem = problem_from_name(args.problem, seed=dataset.seed)
    if dataset.d != problem.d:
        raise DimensionMismatch(f"dataset {args.dataset} has d={dataset.d}, "
                                f"problem {args.problem} has d={problem.d}")
    if model is not None and (model.d, model.k) != (dataset.d, dataset.k):
        raise DimensionMismatch(f"model {args.model} has d={model.d}, k={model.k}; "
                                f"dataset {args.dataset} has d={dataset.d}, k={dataset.k}")
    return dataset, problem


def _cmd_train(args: argparse.Namespace) -> int:
    spec = parse_loss(args.loss)
    if args.emit_costs and not spec.instance_costs:
        raise ValueError("--emit-costs requires a loss with instance weighting (+c)")
    given = ["--" + f.name.replace("_", "-") for f in fields(GenSpec)
             if f.name != "seed" and f.name in args]
    if args.dataset and given:
        raise ValueError(f"{', '.join(given)} set how data is generated and cannot "
                         f"be combined with --dataset {args.dataset}")
    config = _config(args, (args.loss,), (args.seed,))
    if args.dataset:
        dataset, problem = _read_dataset(args)
    else:
        problem = problem_from_name(args.problem, seed=args.seed)
        dataset = generate(config.gen_spec(args.seed), problem)
    trace, counts, report, _ = fit(problem, dataset, spec, config.train_config(args.seed))
    if args.emit_costs:
        save_baseline_report(report, args.emit_costs)
    save_model(trace.best_model, args.out)
    print(f"loss={spec.name} best_epoch={trace.best_epoch} "
          f"best_val={trace.best_val_loss:.6g}")
    print(f"solves: pre={counts.pre_total} train={counts.training_solves}")
    print(f"wrote model to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset, problem = _read_dataset(args, model)
    total = total_regret(problem, model, dataset, split=args.split)
    n = len(dataset.split.part(args.split))
    mean = total / n if n else 0.0
    print(f"split={args.split} regret_total={total!r} regret_mean={mean!r}")
    return 0


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _run_grid(config: ExperimentConfig, out: Path) -> tuple[int, list[dict]]:
    """Run ``config``'s (loss x seed) grid, write its files to ``out``, and
    print the per-loss summary and the failed cells. Returns the exit code
    and the ``aggregate_rows``. An empty loss list or test split is an
    error, raised before any cell runs or any file is written."""
    if not config.losses:
        raise ValueError("losses is empty: a grid needs at least one loss")
    if config.n_test < 1:  # no test instance, no regret to score
        raise ValueError(f"n_test must be at least 1 in a grid, got {config.n_test}")
    reports = run_experiment(config)
    rows = write_results(reports, out, config)
    for row in rows:
        if row["n"] == 0:
            print(f"{row['loss']}: all runs failed")
            continue
        norm = row["regret_norm_mean"]
        norm_text = "n/a" if norm is None else f"{norm:.4f}"
        print(f"{row['loss']}: regret_norm={norm_text} "
              f"regret_abs={row['regret_abs_mean']:.4f} "
              f"time_s={row['time_s_mean']:.1f}")
    failed = [r for r in reports if r.error is not None]
    for r in failed:
        print(f"FAILED {r.loss} seed={r.seed}: {r.error}", file=sys.stderr)
    print(f"wrote {out / 'results.csv'}")
    return (1 if failed else 0), rows


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _config(args, _parse_list(args.losses), map(int, _parse_list(args.seeds)))
    return _run_grid(config, Path(args.out_dir))[0]


def _cmd_desk(args: argparse.Namespace) -> int:
    seeds = [int(seed) for seed in _parse_list(args.seeds)]
    code = 0
    for problem, losses in DESK_LOSSES.items():
        out = Path(args.out_dir) / problem
        print(f"== {problem}: {len(losses)} losses x {len(seeds)} seeds -> {out}")
        grid_code, rows = _run_grid(_config(args, losses, seeds, problem=problem), out)
        code = max(code, grid_code)
        if problem == "sp5x5" and grid_code == 0:
            means = {row["loss"]: row["regret_abs_mean"] for row in rows}
            best = min(LAWLESS_SWEEP, key=means.__getitem__)
            print(f"mse+c / best = {means['mse+c'] / means[best]:.4f} "
                  f"(best sweep member: {best})")
    return code


def _cmd_monotonicity(args: argparse.Namespace) -> int:
    config = _config(args, component_subset_losses(args.base),
                     map(int, _parse_list(args.seeds)), normalize_against=args.base)
    out = Path(args.out_dir)
    code, rows = _run_grid(config, out)
    # a failed cell leaves its subset mean NaN or short of seeds, and no
    # comparison with NaN flags a regression
    means = {row["loss"]: row.get("regret_norm_mean") for row in rows}
    steps = build_monotonicity({loss: float("nan") if mean is None else mean
                                for loss, mean in means.items()},
                               base=args.base, tolerance=args.tolerance)
    write_monotonicity(steps, out)
    regressions = [step for step in steps if step.regression]
    for step in regressions:
        print(f"REGRESSION {step.order} at {step.loss}: "
              f"{step.previous_norm:.4f} -> {step.mean_norm:.4f}", file=sys.stderr)
    if code or regressions:
        return 1
    print("no component made regret worse beyond tolerance "
          f"({args.tolerance:.0%}) in any addition order")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosdfl",
        description="cost-sensitive losses for predict-then-optimize pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to JSON")
    _add_problem_arg(p)
    _add_gen_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-decisions", action="store_true",
                   help="also solve and store optimal decisions for train/val")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a linear cost model under one loss")
    _add_problem_arg(p)
    p.add_argument("--loss", required=True,
                   help='e.g. "mse", "mse+c+o+s", "mae+cos", "spo+", "lawless:0.4"')
    p.add_argument("--dataset", help="dataset JSON; generated fresh when omitted")
    _add_gen_args(p)
    _add_train_args(p)
    p.add_argument("--seed", type=int, default=0,
                   help="training seed; without --dataset, also the data seed")
    p.add_argument("--emit-costs", metavar="PATH",
                   help="write the per-instance weight report JSON (+c losses)")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="regret of a saved model on a saved dataset")
    _add_problem_arg(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a (loss x seed) grid")
    _add_problem_arg(p)
    p.add_argument("--losses", required=True, help="comma-separated loss names")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    _add_gen_args(p)
    _add_train_args(p)
    p.add_argument("--normalize-against", default=ExperimentConfig.normalize_against)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("desk", help="run the desk grids: DESK_LOSSES on sp5x5 and ks16")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--out-dir", required=True, help="each grid goes to <out-dir>/<problem>")
    p.set_defaults(func=_cmd_desk)

    p = sub.add_parser("monotonicity",
                       help="run all component subsets and check addition orders")
    _add_problem_arg(p)
    p.add_argument("--base", default="mse", choices=["mse", "mae"])
    p.add_argument("--seeds", default=",".join(map(str, range(20))),
                   help="comma-separated seeds (default 0-19: five seeds cannot "
                        "resolve the 5%% tolerance)")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="allowed fractional regression per added component")
    _add_gen_args(p)
    _add_train_args(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_monotonicity)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CosdflError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
