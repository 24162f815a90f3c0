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
from cosdfl.harness import DESK_LOSSES


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/desk")
    parser.add_argument("--seeds", default="0,1,2,3,4")
    args = parser.parse_args(argv)

    code = 0
    for problem, losses in DESK_LOSSES.items():
        out = Path(args.out) / problem
        print(f"== {problem}: {len(losses)} losses x {len(args.seeds.split(','))} seeds -> {out}")
        cli_args = ["experiment", "--problem", problem,
                    "--losses", ",".join(losses), "--seeds", args.seeds,
                    "--out-dir", str(out)]
        code = max(code, cli_main(cli_args))
    return code


if __name__ == "__main__":
    sys.exit(run())
