"""The ranging pool: ``attach_ranges`` shares its LPs with worker processes.

The ranges that come back through the workers equal those of one
in-process ``solve_lp`` per instance, byte for byte, on generator rows of
every solver family, with one or two workers and with none. The parent
solves a call's last row, then the first of one contiguous slice per
process; each worker gets a later slice in one message, so every call with
a worker uses ranges that a worker solved. A worker exits with its parent:
at a normal exit, and within a few seconds of a SIGKILL. A call whose
worker has died solves its rows in this process.
"""
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from cosdfl import harness, simplex
from cosdfl.datagen import GenSpec, generate
from cosdfl.losses import normalize
from cosdfl.problems import problem_from_name
from cosdfl.simplex import solve_lp

ROOT = Path(__file__).resolve().parent.parent
SIZES = {"sp5x5": 24, "ks16": 24, "tsp8": 24, "sp8x8": 12}


@pytest.mark.parametrize("workers", [1, 2, 0])
@pytest.mark.parametrize("name", sorted(SIZES))
def test_ranges_through_workers_equal_in_process_solves(fresh_pool, name, workers):
    problem = problem_from_name(name, seed=0)
    dataset = generate(GenSpec(n_train=SIZES[name], n_val=2, n_test=1, seed=0), problem)
    rows = list(dataset.split.train) + list(dataset.split.val)
    pool = fresh_pool(workers)
    for normalized in (False, True):
        before = problem.solves
        ranged = harness.attach_ranges(dataset, problem, normalized=normalized)
        assert problem.solves - before == len(rows)
        objectives = normalize(dataset.costs[rows], rows) if normalized else dataset.costs[rows]
        direct = [solve_lp(problem.relaxation, c, problem.sense).ranges for c in objectives]
        assert ranged.lower[rows].tobytes() == np.array([lo for lo, _ in direct]).tobytes()
        assert ranged.upper[rows].tobytes() == np.array([hi for _, hi in direct]).tobytes()
    assert len(pool.workers) == workers and all(w.is_alive() for _, w in pool.workers)


def test_each_process_solves_one_contiguous_slice(fresh_store, fresh_pool, monkeypatch,
                                                  tmp_path):
    # every solve logs its process, its row and the length of the array it
    # came in: the call's objectives in the parent, a message in the worker;
    # an empty store gives a relaxation that has not run phase 1 yet
    problem = problem_from_name("sp5x5", seed=0)
    dataset = generate(GenSpec(n_train=9, n_val=0, n_test=1, seed=0), problem)
    log = tmp_path / "solves.log"
    range_outcome, phase_one = harness._range_outcome, simplex._phase_one

    def write(line):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {line}\n")

    def logged_outcome(lp, objective, sense):
        row = int(np.flatnonzero((dataset.costs == objective).all(axis=1))[0])
        write(f"{row} {len(objective.base)}")
        return range_outcome(lp, objective, sense)

    def logged_phase_one(lp):
        write("phase1")
        return phase_one(lp)

    monkeypatch.setattr(harness, "_range_outcome", logged_outcome)
    monkeypatch.setattr(simplex, "_phase_one", logged_phase_one)
    pool = fresh_pool(1)
    harness.attach_ranges(dataset, problem, ("train",))
    solves = {}  # the processes write to one log at once: one list each
    for line in log.read_text().splitlines():
        pid, solve = line.split(" ", 1)
        solves.setdefault(int(pid), []).append(solve)
    assert solves == {os.getpid(): ["8 9", "phase1"] + [f"{i} 9" for i in range(4)],
                      pool.workers[0][1].pid: [f"{i} 4" for i in range(4, 8)]}


RANGING_CHILD = """
import sys, time
from cosdfl import harness
from cosdfl.datagen import GenSpec, generate
from cosdfl.problems import problem_from_name
harness._POOL = harness._RangingPool(1)
problem = problem_from_name("sp3x3", seed=0)
dataset = generate(GenSpec(n_train=8, n_val=0, n_test=1, seed=0), problem)
harness.attach_ranges(dataset, problem, ("train",))
print(harness._POOL.workers[0][1].pid, flush=True)
if sys.argv[1] == "wait":
    time.sleep(120)
"""


def running(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie has exited, whether or not its new
    parent has reaped it yet."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def gone_within(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("end", ["exit", "wait"])
def test_workers_exit_with_their_parent(end):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-c", RANGING_CHILD, end], env=env,
                             stdout=subprocess.PIPE, text=True)
    worker = None
    try:
        worker = int(child.stdout.readline())
        assert running(worker)
        if end == "wait":
            child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert gone_within(worker, 5.0), f"worker {worker} outlived its parent"
    finally:
        child.kill()
        child.stdout.close()
        if worker is not None and running(worker):  # leave no process behind
            os.kill(worker, signal.SIGKILL)


def test_an_lp_past_the_bound_is_solved_in_process(fresh_pool):
    # a relaxation above MAX_BYTES has products that BLAS may spread over
    # every CPU, where a worker would only compete: no worker starts
    problem = problem_from_name("sp5x5", seed=0)
    dataset = generate(GenSpec(n_train=12, n_val=0, n_test=1, seed=0), problem)
    pool = fresh_pool(1)
    pool.MAX_BYTES = problem.relaxation.nbytes - 1
    ranged = harness.attach_ranges(dataset, problem, ("train",))
    assert pool.workers is None
    direct = [solve_lp(problem.relaxation, c, problem.sense).ranges for c in dataset.costs[:12]]
    assert ranged.lower[:12].tobytes() == np.array([lo for lo, _ in direct]).tobytes()


def in_process_ranges(problem, costs):
    direct = [solve_lp(problem.relaxation, c, problem.sense).ranges for c in costs]
    return np.array([lo for lo, _ in direct]), np.array([hi for _, hi in direct])


def test_a_dead_worker_leaves_its_call_to_this_process(fresh_pool):
    # a worker killed between calls breaks its pipe: the next call solves
    # its rows in this process instead of failing the cell, and the call
    # after it forks a fresh worker
    problem = problem_from_name("sp5x5", seed=0)
    dataset = generate(GenSpec(n_train=12, n_val=0, n_test=1, seed=0), problem)
    lower, upper = in_process_ranges(problem, dataset.costs[:12])
    pool = fresh_pool(1)
    harness.attach_ranges(dataset, problem, ("train",))
    dead = pool.workers[0][1]
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(timeout=10)
    for call in ("in process", "fresh worker"):
        before = problem.solves
        ranged = harness.attach_ranges(dataset, problem, ("train",))
        assert problem.solves - before == 12, call
        assert ranged.lower[:12].tobytes() == lower.tobytes(), call
        assert ranged.upper[:12].tobytes() == upper.tobytes(), call
    assert [w.pid != dead.pid and w.is_alive() for _, w in pool.workers] == [True]


def test_no_worker_forks_beside_another_thread(fresh_pool):
    # a fork beside a running thread could copy a lock that thread holds
    problem = problem_from_name("sp5x5", seed=0)
    dataset = generate(GenSpec(n_train=6, n_val=0, n_test=1, seed=0), problem)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        pool = fresh_pool(1)
        ranged = harness.attach_ranges(dataset, problem, ("train",))
    finally:
        release.set()
        waiting.join(timeout=10)
    assert pool.workers == []
    lower, upper = in_process_ranges(problem, dataset.costs[:6])
    assert ranged.lower[:6].tobytes() == lower.tobytes()
    assert ranged.upper[:6].tobytes() == upper.tobytes()


def test_any_other_error_stops_the_workers_and_propagates(fresh_pool, monkeypatch):
    # Ctrl-C while the parent solves its slice: no fallback solve, and no
    # worker left running
    problem = problem_from_name("sp5x5", seed=0)
    dataset = generate(GenSpec(n_train=12, n_val=0, n_test=1, seed=0), problem)
    pool = fresh_pool(1)
    harness.attach_ranges(dataset, problem, ("train",))
    worker = pool.workers[0][1]
    range_outcome, calls = harness._range_outcome, []

    def interrupted(lp, objective, sense):
        calls.append(objective)
        if len(calls) == 2:  # the first row of the parent's slice, after the last row
            raise KeyboardInterrupt
        return range_outcome(lp, objective, sense)

    monkeypatch.setattr(harness, "_range_outcome", interrupted)
    with pytest.raises(KeyboardInterrupt):
        harness.attach_ranges(dataset, problem, ("train",))
    assert len(calls) == 2 and pool.workers is None
    worker.join(timeout=10)
    assert not worker.is_alive()
