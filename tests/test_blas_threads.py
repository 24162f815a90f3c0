"""Outputs do not depend on the BLAS thread count.

``cosdfl experiment`` runs in two child processes, one with
``OPENBLAS_NUM_THREADS=1`` in its own environment and one with OpenBLAS's
default, and the two output directories must be identical apart from
``times.json``, which holds the wall clocks. At
the benchmark's cell size (50/10/40 instances, 20 epochs) the 80-row ks16
scans, and at some instances the 60-row ones, are large enough for OpenBLAS
to split a product over two threads on a machine with two or more cores,
which sums in another order; the grid's outputs must still come out the
same.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CELL_SIZE = ["--n-train", "50", "--n-val", "10", "--n-test", "40", "--epochs", "20"]
GRIDS = {"ks16": "mse,spo+,mse+o_s+s", "sp5x5": "mse+o_s+s"}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_grids(out_dir: Path, **threads) -> None:
    """Each grid of ``GRIDS`` at seed 0 in one child process whose
    environment sets the given thread variables and no other."""
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    env.update(threads)
    script = ("import sys\nfrom cosdfl.cli import main\n"
              "for problem, losses in zip(sys.argv[2::2], sys.argv[3::2]):\n"
              "    assert main(['experiment', '--problem', problem, '--losses', losses,\n"
              f"                 '--seeds', '0', *{CELL_SIZE!r},\n"
              "                 '--out-dir', f'{sys.argv[1]}/{problem}']) == 0\n")
    subprocess.run([sys.executable, "-c", script, str(out_dir),
                    *(item for grid in GRIDS.items() for item in grid)],
                   env=env, check=True)


def contents(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "times.json"}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    run_grids(tmp_path / "default")
    run_grids(tmp_path / "one", OPENBLAS_NUM_THREADS="1")
    default, one = contents(tmp_path / "default"), contents(tmp_path / "one")
    assert sorted({name.split("/")[0] for name in one}) == sorted(GRIDS)
    assert sorted(default) == sorted(one)
    assert [name for name in one if one[name] != default[name]] == []
