"""Deterministic experiment outputs match the committed golden files byte for byte.

The files under ``tests/golden/<problem>/`` were written by

    cosdfl experiment --problem <problem> \
        --losses mse,mse+o_s+s,mae+o_s,mse+c+o+s,lawless:0.5,spo+ \
        --seeds 0,1 --n-train 30 --n-val 10 --n-test 20 --epochs 5 \
        --deterministic-output --out-dir tests/golden/<problem>

for each of sp3x3, ks8 and tsp5 (``config.json`` and ``pareto.csv`` are not
kept). ``runs.json`` carries ``best_val_loss`` in ``repr`` form, so a change
to the LP cost ranges of the O_S losses shows up here. A change that moves
these outputs on purpose regenerates the files with the command above and
says so in CHANGES.md.
"""
from pathlib import Path

import pytest

from cosdfl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
LOSSES = "mse,mse+o_s+s,mae+o_s,mse+c+o+s,lawless:0.5,spo+"


@pytest.mark.parametrize("problem", ["sp3x3", "ks8", "tsp5"])
def test_deterministic_outputs_match_golden(tmp_path, problem):
    assert main(["experiment", "--problem", problem, "--losses", LOSSES,
                 "--seeds", "0,1", "--n-train", "30", "--n-val", "10",
                 "--n-test", "20", "--epochs", "5", "--deterministic-output",
                 "--out-dir", str(tmp_path)]) == 0
    for name in ("results.csv", "runs.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / problem / name).read_bytes(), name
