"""Toy-size checks of the benchmark itself.

    python3 -m pytest perfbench -q
"""
import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

harness, _problems = run.import_cosdfl()


def quiet(*_args):
    pass


@pytest.fixture(scope="module")
def toy():
    """A two-problem grid small enough to run in well under a second."""
    grid = (("sp3x3", ("mse", "mse+c+o+s", "mse+o_s+s", "lawless:0.4", "spo+")),
            ("ks6", ("mse", "spo+")))
    configs = tuple(harness.ExperimentConfig(problem=problem, losses=losses, seeds=(0,),
                                             n_train=16, n_val=4, n_test=8, epochs=2)
                    for problem, losses in grid)
    workload = run.Workload("toy", configs, (0,), seconds=0.0)
    reference = {}
    for config in configs:
        for loss in config.losses:
            reference.setdefault(config.problem, {}).setdefault(loss, {})["0"] = \
                harness.run_single(config, loss, 0).regret_abs
    return workload, reference


def declared_units(section: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(toy, trace, section):
    workload, reference = toy
    lines = []
    result = run.measure(workload, reference, trace, [(0.5, 1.0)], log=lines.append)
    want = declared_units(section)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert result["correct"] and result["failed"] == 0
    assert json.loads(json.dumps(result)) == result
    if not trace:
        assert any(line.startswith("cell_error_rate = 0.0") for line in lines)


def test_reference_mismatch_counts_as_a_failed_cell(toy):
    workload, reference = toy
    wrong = copy.deepcopy(reference)
    wrong["sp3x3"]["mse+c+o+s"]["0"] *= 1.0 + 1e-3
    result = run.measure(workload, wrong, False, [(0.5, 1.0)], log=quiet)
    assert not result["correct"]
    # every run of the one cell fails
    assert (result["attempted"], result["failed"]) == (7 * run.MIN_PASSES, run.MIN_PASSES)


def test_a_run_that_differs_from_the_first_bit_for_bit_fails(toy, monkeypatch):
    workload, reference = toy
    real = harness.run_single
    runs = []

    def drifting(config, loss, seed):
        report = real(config, loss, seed)
        if (config.problem, loss) == ("ks6", "spo+"):
            runs.append(report)
            report.best_val_loss *= 1.0 + 1e-12 * len(runs)
        return report

    monkeypatch.setattr(harness, "run_single", drifting)
    result = run.measure(workload, reference, False, [(0.5, 1.0)], log=quiet)
    assert (result["attempted"], result["failed"]) == (7 * run.MIN_PASSES, run.MIN_PASSES - 1)


def test_phase_counts_use_the_criterion_06_closed_forms():
    n_tr, n_val, epochs = 50, 10, 5
    assert run.expected_counts("mse", n_tr, n_val, epochs) == (0, 0, 0, 0)
    assert run.expected_counts("mse+c", n_tr, n_val, epochs) == (n_tr, 0, n_tr, 0)
    assert run.expected_counts("mse+o", n_tr, n_val, epochs) == (n_tr + n_val, 0, 0, 0)
    assert run.expected_counts("mse+o_s", n_tr, n_val, epochs) == (n_tr + n_val,) * 2 + (0, 0)
    assert run.expected_counts("spo+", n_tr, n_val, epochs) == \
        (n_tr + n_val, 0, 0, epochs * (n_tr + n_val))
    assert run.expected_counts("lawless:0", n_tr, n_val, epochs) == (0, 0, 0, 0)
    assert run.expected_counts("mae+cos", n_tr, n_val, epochs) == (n_tr + n_val, 0, n_tr, 0)


def test_self_times_and_unattributed_sum_to_traced_wall(toy):
    workload, reference = toy
    seen = run.Observations()
    tracer = Tracer(observers=seen.hooks())
    runs = run.run_grid(workload, reference, tracer)
    metrics = run.per_layer(runs, tracer, seen, [(0.5, 1.0)])
    summary = tracer.summary()

    cells = [first for first, *_later in runs]
    wall = math.fsum(c.seconds for c in cells)
    self_total = math.fsum(stats.self_s for stats in summary.layers.values())
    assert math.isclose(self_total + metrics["trace.unattributed_s"], wall, rel_tol=1e-9)
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.01 * wall
    for layer in run.LAYERS:
        assert metrics[f"{layer}.self_s"] == summary.layers[layer].self_s >= 0.0
    # The identity above holds by construction, since run_single is the root
    # span. Coverage: every layer is entered from another one, and run_single
    # keeps only its bookkeeping (about 0.05 of the toy grid), so the work it
    # calls into is attributed to the layers below it.
    for layer in run.LAYERS:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["harness.share"] < 0.25
    # spo+ nests an oracle solve inside each loss call; both layers keep time
    oracle_solves = sum(c.counts[0] + c.counts[2] + c.counts[3] for c in cells
                        if c.problem == "sp3x3")
    assert summary.families["sp3x3"].calls > oracle_solves  # plus test evaluation
    assert metrics["losses.self_s"] > 0.0 and metrics["problems.self_s"] > 0.0
    # the tracer leaves the package as it found it
    from cosdfl import losses, model
    assert model.evaluate_loss is losses.evaluate_loss
    assert not hasattr(model.evaluate_loss, "__wrapped__")


def test_without_the_sources_the_benchmark_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "spo-inloop",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
