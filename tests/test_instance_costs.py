import json
from dataclasses import replace

import numpy as np
import pytest

from cosdfl.core import Split, instance_regrets
from cosdfl.datagen import GenSpec, generate
from cosdfl.errors import DimensionMismatch
from cosdfl.harness import attach_decisions
from cosdfl.instance_costs import (BaselineReport, apply_instance_costs,
                                   compute_instance_costs, save_baseline_report,
                                   _costs_from_values)
from cosdfl.losses import evaluate_loss_batch, parse_loss, stack_loss_data
from cosdfl.model import init_model
from cosdfl.problems import make_knapsack


@pytest.fixture(scope="module")
def ks_setup():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=10, n_val=3, n_test=3, k=4, seed=0), problem)
    dataset = attach_decisions(dataset, problem)
    return problem, dataset


class FixedRows:
    """A baseline that predicts the given rows, whatever the features."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def predict(self, features):
        return self.rows


# --- the weighting rule ---------------------------------------------------------

def test_ratio_rule_frozen():
    costs, degenerate, all_zero = _costs_from_values(
        np.array([4.0, 2.0]), np.array([8.0, 4.0]))
    np.testing.assert_allclose(costs, [2.0, 2.0])
    assert not degenerate.any() and not all_zero


def test_zero_regret_instances_get_mean_weight():
    costs, _, all_zero = _costs_from_values(
        np.array([4.0, 2.0, 1.0]), np.array([8.0, 0.0, 3.0]))
    np.testing.assert_allclose(costs, [2.0, 2.5, 3.0])
    assert not all_zero


def test_degenerate_loss_is_capped_at_percentile():
    losses = np.array([1e-15, 1.0, 2.0])
    regrets = np.array([5.0, 2.0, 2.0])
    costs, degenerate, _ = _costs_from_values(losses, regrets)
    assert degenerate.tolist() == [True, False, False]
    cap = np.percentile([2.0, 1.0], 99)
    assert costs[0] == pytest.approx(cap)
    np.testing.assert_allclose(costs[1:], [2.0, 1.0])


def test_all_zero_regret_gives_unit_weights():
    costs, degenerate, all_zero = _costs_from_values(
        np.array([3.0, 4.0]), np.zeros(2))
    np.testing.assert_array_equal(costs, [1.0, 1.0])
    assert all_zero and not degenerate.any()


# --- end-to-end weight computation -----------------------------------------------

def test_costs_satisfy_regret_identity(ks_setup):
    problem, dataset = ks_setup
    rng = np.random.default_rng(5)
    indices = dataset.split.train
    preds = np.stack([dataset.costs[i] * rng.uniform(0.3, 1.8, dataset.d)
                      for i in indices])
    report = compute_instance_costs(problem, FixedRows(preds), dataset, parse_loss("mse"))
    pos = report.positive_regret
    assert pos.any(), "setup should produce at least one regretting instance"
    lhs = float(np.sum(report.costs[pos] * report.base_losses[pos]))
    rhs = float(np.sum(report.regrets[pos]))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_compute_instance_costs_counts_one_solve_per_instance(ks_setup):
    problem, dataset = ks_setup
    preds = dataset.costs[list(dataset.split.train)] + 0.5
    before = problem.solves
    compute_instance_costs(problem, FixedRows(preds), dataset, parse_loss("mse"))
    assert problem.solves - before == len(dataset.split.train)


def test_compute_instance_costs_validation(ks_setup):
    problem, dataset = ks_setup
    good = np.zeros((len(dataset.split.train), dataset.d)) + 1.0
    with pytest.raises(ValueError):
        compute_instance_costs(problem, FixedRows(good), dataset, parse_loss("mse+c"))
    with pytest.raises(DimensionMismatch):
        compute_instance_costs(problem, FixedRows(good[:2]), dataset, parse_loss("mse"))


def test_compute_instance_costs_on_an_empty_split():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=5, n_val=0, n_test=2, k=3, seed=0), problem)
    dataset = attach_decisions(dataset, problem)
    # training takes no empty split, so the split is emptied by hand
    dataset = replace(dataset, split=Split(train=(), val=dataset.split.train,
                                           test=dataset.split.test))
    before = problem.solves
    report = compute_instance_costs(problem, FixedRows(np.zeros((0, 6))), dataset,
                                    parse_loss("mse"))
    assert report.costs.shape == (0,)
    # the model's predictions on no rows still form a (0, d) batch
    report = compute_instance_costs(problem, init_model(3, 6, seed=0), dataset,
                                    parse_loss("mse"))
    assert report.costs.shape == report.regrets.shape == (0,)
    assert problem.solves == before


def test_report_round_trip_and_serialization(ks_setup, tmp_path):
    problem, dataset = ks_setup
    model = init_model(dataset.k, dataset.d, seed=1)
    report = compute_instance_costs(problem, model, dataset, parse_loss("mse"))
    assert isinstance(report, BaselineReport)
    assert report.base_spec_name == "mse"
    path = tmp_path / "report.json"
    save_baseline_report(report, path)
    payload = json.loads(path.read_text())
    assert payload["base_spec"] == "mse"
    assert len(payload["costs"]) == len(dataset.split.train)
    assert payload["regrets"] == report.regrets.tolist()


def test_apply_instance_costs(ks_setup):
    _, dataset = ks_setup
    n = len(dataset.split.train)
    updated = apply_instance_costs(dataset, np.arange(1.0, n + 1.0))
    for row, i in enumerate(updated.split.train):
        assert updated.weights[i] == row + 1.0
    assert updated.uncached("weights", range(dataset.n)) == list(dataset.split.val
                                                                 + dataset.split.test)
    assert np.isnan(dataset.weights).all()
    with pytest.raises(ValueError):
        apply_instance_costs(dataset, [1.0])


def test_baseline_regrets_matches_direct_loop(ks_setup):
    problem, dataset = ks_setup
    model = init_model(dataset.k, dataset.d, seed=2)
    regs = compute_instance_costs(problem, model, dataset, parse_loss("mse")).regrets
    for row, i in enumerate(dataset.split.train):
        expected = instance_regrets(problem, model.predict(dataset.features[[i]]),
                                    dataset, [i])[0]
        assert regs[row] == pytest.approx(expected, abs=1e-12)


def test_weighted_total_loss_equals_total_regret_on_positive_set(ks_setup):
    # the re-weighted training objective, restricted to regretting instances,
    # sums to their total regret: the surrogate locally *is* regret
    problem, dataset = ks_setup
    model = init_model(dataset.k, dataset.d, seed=3)
    report = compute_instance_costs(problem, model, dataset, parse_loss("mse"))
    ds = apply_instance_costs(dataset, report.costs)
    spec = parse_loss("mse+c")
    data = stack_loss_data(spec, ds, ds.split.train, problem.sense)
    total = 0.0
    for row, i in enumerate(ds.split.train):
        if not report.positive_regret[row]:
            continue
        total += evaluate_loss_batch(model.predict(ds.features[[i]]), data, [row])[0][0]
    assert total == pytest.approx(float(report.regrets[report.positive_regret].sum()),
                                  abs=1e-9)
