import json

import numpy as np
import pytest

from cosdfl.core import instance_regret
from cosdfl.datagen import GenSpec, generate
from cosdfl.instance_costs import (BaselineReport, EnsembleModel,
                                   apply_instance_costs, baseline_regrets,
                                   compute_instance_costs,
                                   costs_from_predictions, ensemble_costs,
                                   iterative_costs, save_baseline_report,
                                   _costs_from_values)
from cosdfl.losses import evaluate_loss, parse_loss
from cosdfl.model import TrainConfig, init_model, train
from cosdfl.problems import make_knapsack


@pytest.fixture(scope="module")
def ks_setup():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=10, n_val=3, n_test=3, k=4, seed=0),
                       problem, cache_decisions=True)
    return problem, dataset


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
    preds = np.stack([dataset.instances[i].true_costs *
                      rng.uniform(0.3, 1.8, dataset.d) for i in indices])
    report = costs_from_predictions(problem, dataset, preds, parse_loss("mse"))
    pos = report.positive_regret
    assert pos.any(), "setup should produce at least one regretting instance"
    lhs = float(np.sum(report.costs[pos] * report.base_losses[pos]))
    rhs = float(np.sum(report.regrets[pos]))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_costs_from_predictions_counts_one_solve_per_instance(ks_setup):
    problem, dataset = ks_setup
    preds = np.stack([dataset.instances[i].true_costs + 0.5
                      for i in dataset.split.train])
    before = problem.counter.count
    report = costs_from_predictions(problem, dataset, preds, parse_loss("mse"))
    assert report.solver_calls == len(dataset.split.train)
    assert problem.counter.count - before == report.solver_calls


def test_costs_from_predictions_validation(ks_setup):
    problem, dataset = ks_setup
    good = np.zeros((len(dataset.split.train), dataset.d)) + 1.0
    with pytest.raises(ValueError):
        costs_from_predictions(problem, dataset, good, parse_loss("mse+c"))
    with pytest.raises(ValueError):
        costs_from_predictions(problem, dataset, good[:2], parse_loss("mse"))


def test_costs_from_predictions_on_an_empty_split():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=5, n_val=0, n_test=2, k=3, seed=0),
                       problem, cache_decisions=True)
    report = costs_from_predictions(problem, dataset, np.zeros((0, 6)),
                                    parse_loss("mse"), split="val")
    assert report.costs.shape == (0,) and report.solver_calls == 0


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
    assert payload["solver_calls"] == report.solver_calls


def test_apply_instance_costs(ks_setup):
    _, dataset = ks_setup
    n = len(dataset.split.train)
    updated = apply_instance_costs(dataset, np.arange(1.0, n + 1.0))
    for row, i in enumerate(updated.split.train):
        assert updated.instances[i].instance_cost == row + 1.0
    assert all(dataset.instances[i].instance_cost is None
               for i in dataset.split.train)
    with pytest.raises(ValueError):
        apply_instance_costs(dataset, [1.0])


def test_baseline_regrets_matches_direct_loop(ks_setup):
    problem, dataset = ks_setup
    model = init_model(dataset.k, dataset.d, seed=2)
    regs = baseline_regrets(problem, model, dataset)
    for row, i in enumerate(dataset.split.train):
        inst = dataset.instances[i]
        expected = instance_regret(problem, model.predict(inst.features), inst)
        assert regs[row] == pytest.approx(expected, abs=1e-12)


# --- iterative and ensemble refinement --------------------------------------------

def test_single_round_equals_plain_baseline(ks_setup):
    problem, dataset = ks_setup
    config = TrainConfig(epochs=3, batch_size=4, seed=0)
    result = iterative_costs(problem, dataset, parse_loss("mse"), rounds=1,
                             config=config)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config, sense=problem.sense)
    direct = compute_instance_costs(problem, trace.best_model, dataset,
                                    parse_loss("mse"))
    np.testing.assert_allclose(result.costs, direct.costs, atol=1e-12)
    np.testing.assert_allclose(result.model.weights, trace.best_model.weights,
                               atol=1e-12)
    assert len(result.reports) == 1
    assert result.solver_calls == len(dataset.split.train)


def test_iterative_rounds_refine_weights(ks_setup):
    problem, dataset = ks_setup
    config = TrainConfig(epochs=3, batch_size=4, seed=0)
    result = iterative_costs(problem, dataset, parse_loss("mse"), rounds=3,
                             config=config)
    assert len(result.reports) == 3
    assert result.solver_calls == 3 * len(dataset.split.train)
    with pytest.raises(ValueError):
        iterative_costs(problem, dataset, parse_loss("mse"), rounds=0)


def test_ensemble_averages_member_predictions(ks_setup):
    problem, dataset = ks_setup
    fixed = [init_model(dataset.k, dataset.d, seed=s) for s in (1, 2, 3)]
    calls = []

    def canned_trainer(ds, round_index):
        calls.append(round_index)
        return fixed[round_index - 1]

    result = ensemble_costs(problem, dataset, parse_loss("mse"), rounds=3,
                            trainer=canned_trainer)
    assert calls == [1, 2, 3]
    assert len(result.model.members) == 3
    z = dataset.instances[dataset.split.train[0]].features
    expected = np.mean([m.predict(z) for m in fixed], axis=0)
    np.testing.assert_allclose(result.model.predict(z), expected, atol=1e-12)
    # the final report was computed from the full-ensemble predictions
    np.testing.assert_allclose(result.reports[-1].predictions[0], expected,
                               atol=1e-12)


def test_ensemble_model_validation():
    with pytest.raises(ValueError):
        EnsembleModel([])


def test_weighted_total_loss_equals_total_regret_on_positive_set(ks_setup):
    # the re-weighted training objective, restricted to regretting instances,
    # sums to their total regret: the surrogate locally *is* regret
    problem, dataset = ks_setup
    model = init_model(dataset.k, dataset.d, seed=3)
    report = compute_instance_costs(problem, model, dataset, parse_loss("mse"))
    ds = apply_instance_costs(dataset, report.costs)
    spec = parse_loss("mse+c")
    total = 0.0
    for row, i in enumerate(ds.split.train):
        if not report.positive_regret[row]:
            continue
        inst = ds.instances[i]
        total += evaluate_loss(spec, model.predict(inst.features), inst,
                               problem.sense).value
    assert total == pytest.approx(float(report.regrets[report.positive_regret].sum()),
                                  abs=1e-9)
