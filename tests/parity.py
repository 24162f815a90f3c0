"""Compare the outputs of this tree with those of git commit REF.

    python tests/parity.py REF

checks REF out with ``git worktree add`` into a temporary directory, runs
one fixed set of commands with each tree's ``src`` on PYTHONPATH, and
prints ``identical`` when every output file matches byte for byte, or else
the first differing rows of each file that differs and, for a
``results.csv``, every (problem, loss, seed) row whose ``regret_abs``
moved, with both values, and their count. The worktree is
removed at the end; the exit status is 0 only when the outputs are
identical. Needs no network. Tier-1 does not run it: it takes a few
minutes per tree.

The set covers every solver path and every loss component once: the desk
grids, one experiment grid per solver (table, DP, Held-Karp, heuristic
TSP, and LP ranging up to sp10x10), a monotonicity grid, ``train
--emit-costs``, and the acceptance criteria's verdict lines. Wall clocks
are left out: ``times.json``, the ``time_s`` of the printed summaries and
the durations in the criterion lines. Each command's exit status is
compared too; two seeds cannot resolve the monotonicity grid's tolerance,
so it may exit 1 on both trees.
"""
import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOSSES = "mse,mse+c,mse+o,mse+o_s,mse+o_s+s,mae+o_s+s,mse+tau:0.3,lawless:0.4,spo+"
SMALL = ["--n-train", "30", "--n-val", "10", "--n-test", "20", "--epochs", "5"]
COMMANDS = {  # output directory: cosdfl arguments, run in that directory
    "desk": ["desk", "--seeds", "0,1", "--out-dir", "."],
    **{problem: ["experiment", "--problem", problem, "--losses", LOSSES, "--seeds", "0,1",
                 "--out-dir", ".", *(SMALL if problem == "tsp14" else [])]
       for problem in ("ks16", "ks48", "sp5x5", "sp8x8", "sp10x10", "tsp8", "tsp9", "tsp14")},
    "monotonicity": ["monotonicity", "--problem", "ks6", "--seeds", "0,1", "--out-dir", "."],
    "train": ["train", "--problem", "sp5x5", "--loss", "mse+c+o+s", "--out", "model.bin",
              "--emit-costs", "costs.json"],
}
CLOCK = re.compile(r"time_s=[\d.]+|\b\d+(?:\.\d+)?s\b")
CLI = "import sys; from cosdfl.cli import main; sys.exit(main(sys.argv[1:]))"


def run_all(tree: Path, out: Path) -> None:
    """Write every command's files and masked stdout under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for name, args in COMMANDS.items():
        (out / name).mkdir(parents=True)
        done = subprocess.run([sys.executable, "-c", CLI, *args], cwd=out / name, env=env,
                              stdout=subprocess.PIPE, text=True)
        print(f"  {name}: exit {done.returncode}", flush=True)
        (out / name / "stdout.txt").write_text(
            f"exit {done.returncode}\n{CLOCK.sub('<clock>', done.stdout)}")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           "tests/test_acceptance.py"], cwd=tree, env=env,
                          stdout=subprocess.PIPE, text=True)
    verdicts = re.findall(r"\[criterion \d+\].*", done.stdout)
    print(f"  acceptance criteria: {len(verdicts)} verdict lines", flush=True)
    (out / "criteria.txt").write_text(CLOCK.sub("<clock>", "\n".join(verdicts)) + "\n")


def differences(ours: Path, theirs: Path, ref: str, rows: int = 3) -> list[str]:
    """One block of lines per file that is not the same under both roots."""
    names = {p.relative_to(root) for root in (ours, theirs) for p in root.rglob("*")
             if p.is_file() and p.name != "times.json"}
    report = []
    for name in sorted(names):
        a, b = ours / name, theirs / name
        if not (a.exists() and b.exists()):
            report.append(f"{name}: only in {'this tree' if a.exists() else ref}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        try:
            lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
        except UnicodeDecodeError:
            report.append(f"{name}: binary files differ")
            continue
        first = next((i for i, pair in enumerate(zip(lines_a, lines_b)) if pair[0] != pair[1]),
                     min(len(lines_a), len(lines_b)))
        report.append(f"{name}: first difference at line {first + 1}")
        report += [f"  this tree: {line}" for line in lines_a[first:first + rows]]
        report += [f"  {ref}: {line}" for line in lines_b[first:first + rows]]
        if name.name == "results.csv":
            report += moved_regrets(a, b, ref)
    return report


def moved_regrets(ours: Path, theirs: Path, ref: str) -> list[str]:
    """The count of rows in both files whose ``regret_abs`` differs, then
    one line per such row with both values."""
    def regrets(path: Path) -> dict:
        with open(path, newline="") as fh:
            return {(row["problem"], row["loss"], row["seed"]): row["regret_abs"]
                    for row in csv.DictReader(fh)}

    a, b = regrets(ours), regrets(theirs)
    moved = [key for key in a if key in b and a[key] != b[key]]
    report = [f"  regret_abs moved in {len(moved)} of {len(a)} rows "
              f"(problem loss seed: this tree | {ref})"]
    report += [f"    {' '.join(key)}: {a[key]} | {b[key]}" for key in moved]
    return report


def main(ref: str) -> int:
    with tempfile.TemporaryDirectory(prefix="cosdfl-parity-") as tmp:
        tmp = Path(tmp)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tmp / "ref"), ref], check=True)
        try:
            for side, tree in (("this tree", ROOT), (ref, tmp / "ref")):
                print(f"running {side}", flush=True)
                run_all(tree, tmp / ("ours" if tree == ROOT else "theirs"))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tmp / "ref")], check=True)
        report = differences(tmp / "ours", tmp / "theirs", ref)
    print("\n".join(report) if report else "identical")
    return 1 if report else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
