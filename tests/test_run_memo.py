"""The memo of solver-free training runs reuses runs without changing a bit.

``harness._RUNS`` holds the finished runs of one dataset. Reusing them must
leave every output of a grid as it is when each cell trains its own runs,
later passes over a grid must train as much as the first, and a run that
training would see differently must miss.
"""
import numpy as np
import pytest

from cosdfl import harness
from cosdfl.core import total_regret
from cosdfl.datagen import generate
from cosdfl.harness import (DESK_LOSSES, ExperimentConfig, attach_decisions,
                            attach_ranges, fit, run_experiment)
from cosdfl.losses import parse_loss
from cosdfl.problems import problem_from_name

# the multi-batch golden settings (tests/test_golden.py)
MULTIBATCH = dict(n_train=70, n_val=10, n_test=20, epochs=4, batch_size=16)
SOLVER_FREE = tuple(loss for loss in DESK_LOSSES["sp5x5"] if loss != "spo+") + (
    "mse+o_s+s", "mae+o_s+s", "mse+tau:0.3")
TOY = dict(n_train=10, n_val=4, n_test=6, k=4, epochs=2, batch_size=4)


@pytest.fixture
def train_calls(monkeypatch):
    """Every ``train`` call the harness makes, as (spec, dataset, trace)."""
    calls = []
    real = harness.train

    def counted(model, dataset, spec, config, problem):
        trace = real(model, dataset, spec, config, problem)
        calls.append((spec, dataset, trace))
        return trace

    monkeypatch.setattr(harness, "train", counted)
    return calls


def grid_outcomes(config: ExperimentConfig, before_cell) -> list[tuple]:
    """Each cell's regret, best validation loss, counts, best model and
    per-epoch validation losses, seed-major as ``run_experiment`` runs them."""
    out = []
    for seed in config.seeds:
        for loss in config.losses:
            before_cell()
            problem = problem_from_name(config.problem, seed=seed)
            dataset = generate(config.gen_spec(seed), problem)
            trace, counts, _, _ = fit(problem, dataset, parse_loss(loss),
                                      config.train_config(seed))
            out.append((loss, seed, total_regret(problem, trace.best_model, dataset, "test"),
                        trace.best_val_loss, counts, trace.best_model.weights.tolist(),
                        trace.best_model.bias.tolist(),
                        [r.val_loss for r in trace.records]))
    return out


@pytest.mark.parametrize("problem", ["sp3x3", "ks8", "tsp5"])
def test_reuse_changes_nothing(problem, fresh_runs, train_calls):
    config = ExperimentConfig(problem=problem, losses=SOLVER_FREE, seeds=(0, 1),
                              **MULTIBATCH)
    reused = grid_outcomes(config, lambda: None)
    n_reused = len(train_calls)
    alone = grid_outcomes(config, fresh_runs)
    assert reused == alone
    # mse+c, mse+c+o, mse+c+s, mse+c+o+s, lawless:0 and lawless:0.2-1 per seed
    assert len(train_calls) - n_reused == n_reused + 2 * 10


def test_later_passes_train_as_much_as_the_first(fresh_runs, train_calls, monkeypatch):
    config = ExperimentConfig(problem="ks6", seeds=(0, 1, 2), **TOY,
                              losses=("mse", "mse+c", "lawless:0", "lawless:0.4",
                                      "mse+o", "mse+c+o", "spo+"))
    held = []
    real = harness.run_single

    def watched(config, loss, seed):
        report = real(config, loss, seed)
        memo = harness._RUNS
        traces = {id(trace) for trace, _ in memo.runs.values()}
        stored = [(spec, dataset) for spec, dataset, trace in train_calls
                  if id(trace) in traces]
        assert len(stored) == len(memo.runs)
        held.extend(spec.name for spec, _ in stored)
        # the memo holds one dataset, this cell's: every held run trained on it
        cell = generate(config.gen_spec(seed), problem_from_name("ks6", seed))
        for _, dataset in stored:
            assert np.array_equal(dataset.features, cell.features)
        return report

    monkeypatch.setattr(harness, "run_single", watched)
    per_pass = []
    for _ in range(2):
        before = len(train_calls)
        assert all(r.error is None for r in run_experiment(config))
        per_pass.append(len(train_calls) - before)
    # per seed: mse, mse+c, lawless:0.4, mse+o, mse+c+o and spo+ train; the
    # baselines of the weighted cells and lawless:0 reuse mse and mse+o
    assert per_pass == [3 * 6, 3 * 6]
    # only unweighted, solver-free runs are stored
    assert set(held) == {"mse", "mse+o"}


def test_a_run_is_held_once_per_key(fresh_runs, train_calls):
    config = ExperimentConfig(problem="sp3x3", losses=("mse",), seeds=(0,), **TOY)
    problem = problem_from_name("sp3x3", seed=0)
    dataset = generate(config.gen_spec(0), problem)
    cfg = config.train_config(0)
    memo = harness._RUNS
    mse, _ = memo.trained(problem, dataset, parse_loss("mse"), cfg)
    # a C spec whose weights are all exactly 1 trains as mse does
    ones = dataset.attach(weights=np.ones(dataset.n))
    assert memo.trained(problem, ones, parse_loss("mse+c"), cfg)[0] is mse
    assert memo.trained(problem, dataset, parse_loss("lawless:0"), cfg)[0] is mse
    assert len(train_calls) == 1
    # other weights, spo+, another config or other ranges train again
    halves = dataset.attach(weights=np.linspace(0.5, 1.5, dataset.n))
    memo.trained(problem, halves, parse_loss("mse+c"), cfg)
    memo.trained(problem, dataset, parse_loss("mse"), config.train_config(1))
    decided = attach_decisions(dataset, problem)
    raw = attach_ranges(decided, problem)
    normalized = attach_ranges(decided, problem, normalized=True)
    memo.trained(problem, raw, parse_loss("mse+o_s+s"), cfg)
    memo.trained(problem, normalized, parse_loss("mse+o_s+s"), cfg)
    memo.trained(problem, decided, parse_loss("spo+"), cfg)
    memo.trained(problem, decided, parse_loss("spo+"), cfg)
    assert len(train_calls) == 7
    assert len(memo.runs) == 4  # mse at two configs and o_s+s on two ranges
    # another dataset empties the memo before its run is held
    other = generate(config.gen_spec(1), problem)
    memo.trained(problem, other, parse_loss("mse"), cfg)
    assert len(memo.runs) == 1 and np.array_equal(memo.dataset[0], other.features)


def test_a_reusing_cell_is_charged_the_reused_seconds(fresh_runs):
    config = ExperimentConfig(problem="ks6", losses=("mse", "lawless:0"), seeds=(0,), **TOY)
    reports = {r.loss: r for r in run_experiment(config)}
    (_, seconds), = harness._RUNS.runs.values()
    assert reports["lawless:0"].time_s >= seconds > 0.0
