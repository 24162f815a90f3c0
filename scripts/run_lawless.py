#!/usr/bin/env python3
"""Instance-weighted squared loss vs the regret-weighted interpolation sweep.

Runs mse+c against lawless:w for w in {0, 0.2, ..., 1.0} on one problem and
prints the mean test regret of each, plus the ratio of mse+c to the best
sweep member. Results land in results.csv under the output directory.
"""
import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

from cosdfl.cli import main as cli_main
from cosdfl.harness import LAWLESS_SWEEP


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/lawless")
    parser.add_argument("--problem", default="sp5x5")
    parser.add_argument("--seeds", default=",".join(map(str, range(20))),
                        help="comma-separated seeds (default 0-19, as in the "
                             "acceptance criterion)")
    args = parser.parse_args(argv)

    code = cli_main(["experiment", "--problem", args.problem,
                     "--losses", ",".join(["mse", "mse+c", *LAWLESS_SWEEP]),
                     "--seeds", args.seeds, "--out-dir", args.out])
    if code != 0:
        return code

    totals = defaultdict(list)
    with open(Path(args.out) / "results.csv") as fh:
        for row in csv.DictReader(fh):
            totals[row["loss"]].append(float(row["regret_abs"]))
    means = {loss: sum(v) / len(v) for loss, v in totals.items()}
    best = min(LAWLESS_SWEEP, key=lambda name: means[name])
    print(f"\nmean test regret over seeds {args.seeds}:")
    for loss in ["mse", "mse+c", *LAWLESS_SWEEP]:
        marker = "  <- best sweep member" if loss == best else ""
        print(f"  {loss:<12} {means[loss]:.1f}{marker}")
    print(f"mse+c / best = {means['mse+c'] / means[best]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
