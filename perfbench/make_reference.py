"""Write the reference regrets of one workload to ``reference/<workload>.json``.

    python3 perfbench/make_reference.py --workload spo-inloop

Runs every cell of the workload on each of the ``REFERENCE_SEEDS`` data
seeds through ``cosdfl.harness.run_single`` and stores its test regret.
Regenerate only when a change is meant to move regrets, and say why.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)

    harness, _problems = run.import_cosdfl()
    regrets: dict[str, dict[str, dict[str, float]]] = {}
    for problem, losses in run.WORKLOADS[args.workload]:
        config = harness.ExperimentConfig(problem=problem, losses=losses,
                                          seeds=range(run.REFERENCE_SEEDS), **run.CELL_SIZE)
        for loss in losses:
            for seed in config.seeds:
                report = harness.run_single(config, loss, seed)
                c = report.counts
                got = (c.precompute_n_star, c.precompute_ranges, c.instance_cost_solves,
                       c.training_solves)
                want = run.expected_counts(loss, config.n_train, config.n_val, config.epochs)
                if got != want:
                    raise SystemExit(f"{problem} {loss} seed {seed}: phase counts {got} "
                                     f"!= closed form {want}")
                regrets.setdefault(problem, {}).setdefault(loss, {})[str(seed)] = \
                    report.regret_abs
                print(f"{problem} {loss} seed={seed} regret_abs={report.regret_abs!r}",
                      flush=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(run.REFERENCE_DIR / f"{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": run.REFERENCE_SEEDS, "rtol": run.REGRET_RTOL,
                   "regret_abs": regrets}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
