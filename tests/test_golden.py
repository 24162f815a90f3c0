"""Experiment outputs match the committed golden files byte for byte.

The files under ``tests/golden/<problem>/`` were written by

    cosdfl experiment --problem <problem> \
        --losses mse,mse+o_s+s,mae+o_s,mse+c+o+s,lawless:0.5,spo+ \
        --seeds 0,1 --n-train 30 --n-val 10 --n-test 20 --epochs 5 \
        --out-dir tests/golden/<problem>

for each of sp3x3, ks8 and tsp5, which the oracles solve by a table scan,
and sp8x8 (grid DP), ks48 (knapsack DP), tsp9 (Held-Karp) and tsp14 (the
heuristic), which they solve without one. Those runs train 30 rows in one
mini-batch per epoch, so the files under
``tests/golden/<problem>_multibatch/`` were written by

    cosdfl experiment --problem <problem> \
        --losses mse,mae+o+s,mse+o_s+s,mse+c+s,lawless:0.2,spo+ \
        --seeds 0,1 --n-train 70 --n-val 10 --n-test 20 --epochs 4 \
        --batch-size 16 --out-dir tests/golden/<problem>_multibatch

for sp3x3 and ks8: 70 rows in batches of 16 (80 for spo+, which trains on
the validation rows too) give several mini-batches per epoch and a short
last one. Every file of a run but ``times.json``, which holds the wall
clocks, is kept and compared. ``runs.json`` carries ``best_val_loss`` in
``repr`` form, so a change to the LP cost ranges of the O_S losses shows up
here. A change that moves these outputs on purpose regenerates the files
with the commands above (and deletes each ``times.json``) and says so in
CHANGES.md.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cosdfl.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LOSSES = "mse,mse+o_s+s,mae+o_s,mse+c+o+s,lawless:0.5,spo+"
MULTIBATCH_LOSSES = "mse,mae+o+s,mse+o_s+s,mse+c+s,lawless:0.2,spo+"


def golden_args(problem: str, out: Path) -> list[str]:
    return ["experiment", "--problem", problem, "--losses", LOSSES,
            "--seeds", "0,1", "--n-train", "30", "--n-val", "10",
            "--n-test", "20", "--epochs", "5", "--out-dir", str(out)]


def multibatch_args(problem: str, out: Path) -> list[str]:
    return ["experiment", "--problem", problem, "--losses", MULTIBATCH_LOSSES,
            "--seeds", "0,1", "--n-train", "70", "--n-val", "10",
            "--n-test", "20", "--epochs", "4", "--batch-size", "16",
            "--out-dir", str(out)]


def assert_golden(golden: str, out: Path) -> None:
    written = sorted(p.name for p in out.iterdir() if p.name != "times.json")
    assert written == sorted(p.name for p in (GOLDEN / golden).iterdir())
    for name in written:
        assert (out / name).read_bytes() == (GOLDEN / golden / name).read_bytes(), name


@pytest.mark.parametrize("problem", ["sp3x3", "ks8", "tsp5", "sp8x8", "ks48", "tsp9",
                                     "tsp14"])
def test_deterministic_outputs_match_golden(tmp_path, problem):
    assert main(golden_args(problem, tmp_path)) == 0
    assert_golden(problem, tmp_path)


@pytest.mark.parametrize("problem", ["sp3x3", "ks8"])
def test_multibatch_outputs_match_golden(tmp_path, problem):
    assert main(multibatch_args(problem, tmp_path)) == 0
    assert_golden(f"{problem}_multibatch", tmp_path)


def test_golden_outputs_do_not_depend_on_debug_checks(tmp_path):
    # python -O drops the __debug__-only checks of the oracles, which
    # solve_many runs on the recurrence paths (Held-Karp on tsp9); they must
    # check decisions, never change them
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-O", "-m", "cosdfl.cli",
                    *golden_args("tsp9", tmp_path)],
                   env=env, check=True)
    assert_golden("tsp9", tmp_path)
