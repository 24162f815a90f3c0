#!/usr/bin/env python3
"""Desk-scale benchmark: composed losses vs baselines on both problems.

Runs the full component grid plus the regret-weighted sweep on the 5x5
shortest-path problem, and the headline losses on a two-constraint d=16
knapsack. Writes results.csv / runs.json / pareto.csv per problem under the
output directory and prints per-loss aggregates.
"""
import argparse
import sys
from pathlib import Path

from cosdfl.cli import main as cli_main
from cosdfl.harness import component_subset_losses

LAWLESS_SWEEP = ["lawless:0", "lawless:0.2", "lawless:0.4", "lawless:0.6",
                 "lawless:0.8", "lawless:1"]


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/desk")
    parser.add_argument("--seeds", default="0,1,2,3,4")
    args = parser.parse_args(argv)

    sp_losses = (component_subset_losses("mse") + ["mae+o+s", "spo+"]
                 + LAWLESS_SWEEP)
    ks_losses = ["mse", "mse+c+o+s", "mae+o+s", "spo+"]
    code = 0
    for problem, losses in [("sp5x5", sp_losses), ("ks16", ks_losses)]:
        out = Path(args.out) / problem
        print(f"== {problem}: {len(losses)} losses x {len(args.seeds.split(','))} seeds -> {out}")
        cli_args = ["experiment", "--problem", problem,
                    "--losses", ",".join(losses), "--seeds", args.seeds,
                    "--out-dir", str(out)]
        code = max(code, cli_main(cli_args))
    return code


if __name__ == "__main__":
    sys.exit(run())
