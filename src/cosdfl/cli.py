"""Command-line entry points.

Subcommands:
  generate           write a synthetic dataset for a problem to JSON
  train              train a linear cost model under a named loss
  eval               test-set regret of a saved model on a saved dataset
  experiment         run a (loss x seed) grid and write results.csv
  monotonicity       check that adding loss components never hurts
  sensitivity-check  verify LP cost ranges against re-solves on random LPs

The process exits 0 only when every requested run succeeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import load_dataset, save_dataset, total_regret
from .datagen import GenSpec, generate
from .harness import (ExperimentConfig, SolveCounts, aggregate_rows,
                      emit_pareto, monotonicity_report, prepare_dataset,
                      run_experiment, sensitivity_soundness_check,
                      write_monotonicity, write_results)
from .instance_costs import save_baseline_report
from .losses import parse_loss
from .model import (Optimizer, TrainConfig, init_model, load_model,
                    save_model, train)
from .problems import problem_from_name


def _add_problem_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", required=True,
                        help="ks<d> | sp<R>x<C> | tsp<n> | custom:<file>")


def _add_gen_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-train", type=int, default=200)
    parser.add_argument("--n-val", type=int, default=50)
    parser.add_argument("--n-test", type=int, default=150)
    parser.add_argument("--k", type=int, default=5, help="latent feature dimension")
    parser.add_argument("--deg", type=int, default=6, help="polynomial lift degree")
    parser.add_argument("--noise-width", type=float, default=0.5)


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lr", type=float, default=0.005)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")


def _gen_spec(args: argparse.Namespace, seed: int) -> GenSpec:
    return GenSpec(n_train=args.n_train, n_val=args.n_val, n_test=args.n_test,
                   k=args.k, deg=args.deg, noise_width=args.noise_width, seed=seed)


def _cmd_generate(args: argparse.Namespace) -> int:
    problem = problem_from_name(args.problem, seed=args.seed)
    dataset = generate(_gen_spec(args, args.seed), problem,
                       cache_decisions=args.cache_decisions)
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} instances (d={dataset.d}, k={dataset.k}) to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    problem = problem_from_name(args.problem, seed=args.seed)
    spec = parse_loss(args.loss)
    if args.dataset:
        dataset = load_dataset(args.dataset)
    else:
        dataset = generate(_gen_spec(args, args.seed), problem, cache_decisions=False)
    problem.counter.reset()
    train_cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                            batch_size=args.batch_size,
                            optimizer=Optimizer(args.optimizer), seed=args.seed)
    dataset, counts, report = prepare_dataset(problem, dataset, spec, train_cfg,
                                              dataset.k)
    if args.emit_costs:
        if report is None:
            print("--emit-costs requires a loss with instance weighting (+c)",
                  file=sys.stderr)
            return 1
        save_baseline_report(report, args.emit_costs)
    before = problem.counter.count
    trace = train(init_model(dataset.k, problem.d, seed=args.seed), dataset, spec,
                  train_cfg, problem=problem if spec.spo_plus else None,
                  sense=problem.sense)
    counts.training_solves = problem.counter.count - before
    save_model(trace.best_model, args.out)
    print(f"loss={spec.name} best_epoch={trace.best_epoch} "
          f"best_val={trace.best_val_loss:.6g}")
    print(f"solves: pre={counts.pre_total} train={counts.training_solves}")
    print(f"wrote model to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    problem = problem_from_name(args.problem, seed=args.seed)
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    total = total_regret(problem, model, dataset, split=args.split)
    mean = total_regret(problem, model, dataset, split=args.split, reduction="mean")
    print(f"split={args.split} regret_total={total!r} regret_mean={mean!r}")
    return 0


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _experiment_config(args: argparse.Namespace, losses: list[str]) -> ExperimentConfig:
    return ExperimentConfig(
        problem=args.problem, losses=tuple(losses),
        seeds=tuple(int(s) for s in _parse_list(args.seeds)),
        n_train=args.n_train, n_val=args.n_val, n_test=args.n_test,
        k=args.k, deg=args.deg, noise_width=args.noise_width,
        learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
        optimizer=args.optimizer, normalize_against=args.normalize_against,
        deterministic_output=args.deterministic_output, threads=args.threads)


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _experiment_config(args, _parse_list(args.losses))
    reports = run_experiment(config)
    out = Path(args.out_dir)
    write_results(reports, out, deterministic_output=config.deterministic_output)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
    emit_pareto(reports, out)
    for row in aggregate_rows(reports):
        if row.get("n", 0) == 0:
            print(f"{row['loss']}: all runs failed")
            continue
        norm = row["regret_norm_mean"]
        norm_text = "n/a" if norm is None else f"{norm:.4f}"
        print(f"{row['loss']}: regret_norm={norm_text} "
              f"regret_abs={row['regret_abs_mean']:.4f} "
              f"time_s={row['time_s_mean']:.1f}")
    failed = _report_failures(reports)
    print(f"wrote {out / 'results.csv'}")
    return 1 if failed else 0


def _report_failures(reports) -> bool:
    """Print each failed cell on stderr; True when there was one."""
    failed = [r for r in reports if r.error is not None]
    for r in failed:
        print(f"FAILED {r.loss} seed={r.seed}: {r.error}", file=sys.stderr)
    return bool(failed)


def _cmd_monotonicity(args: argparse.Namespace) -> int:
    config = _experiment_config(args, [args.base])
    report, reports = monotonicity_report(config, base=args.base,
                                          tolerance=args.tolerance)
    out = Path(args.out_dir)
    write_results(reports, out, deterministic_output=config.deterministic_output)
    write_monotonicity(report, out)
    for name in sorted(report.subset_means):
        print(f"{name}: mean_norm={report.subset_means[name]:.4f}")
    for step in report.regressions:
        print(f"REGRESSION {step.order} at {step.loss}: "
              f"{step.previous_norm:.4f} -> {step.mean_norm:.4f}", file=sys.stderr)
    # a failed cell leaves its subset mean NaN or short of seeds, and no
    # comparison with NaN flags a regression
    if _report_failures(reports) or report.regressions:
        return 1
    print("no component made regret worse beyond tolerance "
          f"({report.tolerance:.0%}) in any addition order")
    return 0


def _cmd_sensitivity_check(args: argparse.Namespace) -> int:
    checks, failures = sensitivity_soundness_check(
        n_lps=args.n_lps, max_size=args.max_size, seed=args.seed)
    print(f"{checks} range-endpoint checks across {args.n_lps} random LPs, "
          f"{len(failures)} failures")
    for f in failures[:10]:
        print(f"  trial={f.trial} coord={f.coordinate} point={f.point!r} "
              f"gap={f.gap:.3e}", file=sys.stderr)
    return 1 if failures else 0


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-costs", metavar="PATH",
                   help="write the per-instance weight report JSON (+c losses)")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="regret of a saved model on a saved dataset")
    _add_problem_arg(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--seed", type=int, default=0,
                   help="problem seed (must match the dataset's problem)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a (loss x seed) grid")
    _add_problem_arg(p)
    p.add_argument("--losses", required=True, help="comma-separated loss names")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    _add_gen_args(p)
    _add_train_args(p)
    p.add_argument("--normalize-against", default="mse")
    p.add_argument("--deterministic-output", action="store_true",
                   help="zero wall-clock columns so outputs are byte-identical")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads (default: ${'{'}COSDFL_THREADS{'}'} or 1)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("monotonicity",
                       help="run all component subsets and check addition orders")
    _add_problem_arg(p)
    p.add_argument("--base", default="mse", choices=["mse", "mae"])
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="allowed fractional regression per added component")
    _add_gen_args(p)
    _add_train_args(p)
    p.add_argument("--normalize-against", default="mse")
    p.add_argument("--deterministic-output", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_monotonicity)

    p = sub.add_parser("sensitivity-check",
                       help="re-solve random LPs at range endpoints")
    p.add_argument("--n-lps", type=int, default=200)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sensitivity_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
