import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cosdfl.core import Dataset, Sense, Split
from cosdfl.datagen import GenSpec, generate
from cosdfl.errors import DimensionMismatch, NonFiniteLoss
from cosdfl.harness import attach_decisions
from cosdfl.losses import evaluate_loss_batch, parse_loss, stack_loss_data
from cosdfl.model import (CHECKPOINT_MAGIC, LinearModel, Optimizer,
                          TrainConfig, TrainTrace, init_model, load_model,
                          save_model, train)
from cosdfl.problems import make_knapsack, problem_from_name

import cosdfl.model as model_mod

from brute import _adam_step, brute_solver_free_train, brute_spo_plus_train


# the problem the linear datasets are trained for; its sense orients the
# one-sided masks, and solver-free losses never call it
LINEAR_PROBLEM = make_knapsack(d=4, seed=0)


def linear_dataset(n_train=24, n_val=8, k=3, d=4, seed=0):
    """Costs are an exact linear map of features: learnable to zero error."""
    rng = np.random.default_rng(seed)
    w_true = rng.normal(0.0, 1.0, (d, k))
    features = [rng.normal(0.0, 1.0, k) for _ in range(n_train + n_val)]
    split = Split(train=tuple(range(n_train)),
                  val=tuple(range(n_train, n_train + n_val)))
    return Dataset(features=features, costs=[w_true @ z + 5.0 for z in features],
                   split=split), w_true


def per_instance_view(dataset):
    """The dataset in the per-instance shape that brute_spo_plus_train reads."""
    return SimpleNamespace(split=dataset.split, instances=[
        SimpleNamespace(features=z, true_costs=c, optimal_decision=SimpleNamespace(values=x))
        for z, c, x in zip(dataset.features, dataset.costs, dataset.x_star)])


def deterministic_fields(trace):
    """Everything in a training trace except wall-clock timings."""
    return (
        tuple((r.epoch, r.train_loss, r.val_loss) for r in trace.records),
        trace.best_epoch,
        trace.best_model.weights.tobytes(), trace.best_model.bias.tobytes(),
    )


def test_init_model_bounds_and_determinism():
    a = init_model(k=9, d=5, seed=3)
    b = init_model(k=9, d=5, seed=3)
    c = init_model(k=9, d=5, seed=4)
    bound = 1.0 / np.sqrt(9)
    assert np.all(np.abs(a.weights) <= bound)
    assert np.all(a.bias == 0.0)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)




def test_model_binary_roundtrip(tmp_path):
    model = init_model(k=4, d=7, seed=11)
    path = tmp_path / "model.bin"
    save_model(model, path)
    raw = path.read_bytes()
    assert raw[:8] == CHECKPOINT_MAGIC
    back = load_model(path)
    np.testing.assert_array_equal(back.weights, model.weights)
    np.testing.assert_array_equal(back.bias, model.bias)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + raw[8:])
        load_model(bad)




def test_load_model_rejects_a_file_of_the_wrong_length(tmp_path):
    # a truncated file used to fail inside numpy, and a padded one loaded
    path = tmp_path / "model.bin"
    save_model(init_model(k=4, d=7, seed=11), path)
    raw = path.read_bytes()
    assert len(raw) == 16 + 8 * 7 * (4 + 1)
    for name, data in (("truncated.bin", raw[:-8]), ("padded.bin", raw + bytes(8))):
        bad = tmp_path / name
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=(f"^model checkpoint {re.escape(str(bad))} "
                                              f"holds {len(data)} bytes, expected 296$")):
            load_model(bad)


def test_train_config_defaults():
    config = TrainConfig()
    assert config.learning_rate == 0.005
    assert config.epochs == 50
    assert config.batch_size == 32
    assert config.optimizer is Optimizer.ADAM


def test_training_learns_linear_ground_truth():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=60, batch_size=8, learning_rate=0.05, seed=0)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config, LINEAR_PROBLEM)
    assert trace.records[-1].train_loss < 0.05 * trace.records[0].train_loss
    assert trace.best_val_loss <= trace.records[0].val_loss


def test_training_is_deterministic():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=5, batch_size=8, seed=7)
    a = train(init_model(dataset.k, dataset.d, seed=7), dataset,
              parse_loss("mae"), config, LINEAR_PROBLEM)
    b = train(init_model(dataset.k, dataset.d, seed=7), dataset,
              parse_loss("mae"), config, LINEAR_PROBLEM)
    assert deterministic_fields(a) == deterministic_fields(b)


def test_best_epoch_is_earliest_strict_minimum():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=8, batch_size=8, seed=0)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config, LINEAR_PROBLEM)
    vals = [r.val_loss for r in trace.records]
    assert trace.best_epoch == int(np.argmin(vals))
    assert trace.best_val_loss == min(vals)


def test_validation_ignores_instance_weights():
    # validation instances never carry weights; the val metric is the plain
    # base loss of the epoch-end snapshot
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=12, n_val=4, n_test=2, k=3, seed=1), problem)
    dataset = attach_decisions(dataset, problem)
    from cosdfl.instance_costs import apply_instance_costs
    dataset = apply_instance_costs(dataset, np.full(12, 9.0))
    config = TrainConfig(epochs=3, batch_size=4, seed=0)
    trace = train(init_model(3, 6, seed=0), dataset, parse_loss("mse+c"),
                  config, problem)
    snapshot = trace.best_model
    data = stack_loss_data(parse_loss("mse"), dataset, dataset.split.val, problem.sense)
    predicted = snapshot.predict(dataset.features[list(dataset.split.val)])
    manual = float(np.mean(evaluate_loss_batch(predicted, data, slice(None))[0]))
    assert trace.best_val_loss == pytest.approx(manual, rel=1e-9)


def test_spo_plus_merges_validation_and_counts_solves():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=10, n_val=5, n_test=2, k=3, seed=0), problem)
    dataset = attach_decisions(dataset, problem)
    config = TrainConfig(epochs=4, batch_size=8, seed=0)
    before = problem.solves
    trace = train(init_model(3, 6, seed=0), dataset, parse_loss("spo+"),
                  config, problem)
    # one solve per merged-training instance per epoch, none for validation
    assert problem.solves - before == 4 * 15
    for r in trace.records:
        assert r.val_loss == r.train_loss


@pytest.mark.parametrize("name, optimizer", [("sp5x5", Optimizer.ADAM),
                                             ("ks16", Optimizer.ADAM),
                                             ("tsp5", Optimizer.ADAM),
                                             ("ks16", Optimizer.SGD)])
def test_batched_spo_plus_matches_per_row_training(name, optimizer):
    # sp5x5 and tsp5 minimize, ks16 maximizes; 26 rows in batches of 8 leave
    # a short last batch
    problem = problem_from_name(name, seed=3)
    dataset = generate(GenSpec(n_train=20, n_val=6, n_test=2, k=3, seed=3), problem)
    dataset = attach_decisions(dataset, problem)
    config = TrainConfig(epochs=4, batch_size=8, learning_rate=0.05,
                         optimizer=optimizer, seed=3)
    start = init_model(3, problem.d, seed=3)
    before = problem.solves
    batched = train(start, dataset, parse_loss("spo+"), config, problem)
    batched_solves = problem.solves - before
    reference = brute_spo_plus_train(start, per_instance_view(dataset), config, problem)
    reference_solves = problem.solves - before - batched_solves
    assert deterministic_fields(batched) == deterministic_fields(reference)
    assert batched_solves == reference_solves == 4 * 26


def cached_dataset(n_train=20, n_val=6, k=3, d=6, seed=0):
    """Random rows carrying every cache a solver-free loss reads: X*, cost
    ranges around the true costs, and positive row weights."""
    rng = np.random.default_rng(seed)
    n = n_train + n_val
    costs = rng.normal(2.0, 1.0, (n, d))
    return Dataset(features=rng.normal(0.0, 1.0, (n, k)), costs=costs,
                   split=Split(train=tuple(range(n_train)), val=tuple(range(n_train, n))),
                   x_star=(rng.random((n, d)) < 0.5).astype(float),
                   lower=costs - rng.random((n, d)), upper=costs + rng.random((n, d)),
                   weights=rng.uniform(0.5, 3.0, n))


@pytest.mark.parametrize("optimizer", [Optimizer.ADAM, Optimizer.SGD])
@pytest.mark.parametrize("loss", ["mse", "mae", "mse+c", "mse+o", "mae+o_s+s", "mse+s",
                                  "mse+tau:0.3", "lawless:0", "lawless:0.5"])
def test_solver_free_training_matches_plain_reference(loss, optimizer):
    # 20 training rows in batches of 8 leave a short last batch; both senses
    # orient the one-sided masks, and a solver-free spec reads nothing else
    # of the problem
    dataset = cached_dataset()
    config = TrainConfig(epochs=5, batch_size=8, learning_rate=0.05,
                         optimizer=optimizer, seed=4)
    start = init_model(dataset.k, dataset.d, seed=4)
    for sense in Sense:
        trace = train(start, dataset, parse_loss(loss), config, SimpleNamespace(sense=sense))
        reference = brute_solver_free_train(start, dataset, parse_loss(loss), config,
                                            sense is Sense.MAXIMIZE)
        assert deterministic_fields(trace) == deterministic_fields(reference)


def test_solver_free_specs_touch_no_oracle():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=10, n_val=5, n_test=2, k=3, seed=0), problem)
    dataset = attach_decisions(dataset, problem)
    before = problem.solves
    train(init_model(3, 6, seed=0), dataset, parse_loss("mse"),
          TrainConfig(epochs=3, batch_size=4, seed=0), problem)
    assert problem.solves == before


def test_training_requirements():
    dataset, _ = linear_dataset()
    empty = replace(dataset, split=Split(val=dataset.split.val))
    with pytest.raises(ValueError):
        train(init_model(dataset.k, dataset.d), empty, parse_loss("mse"),
              TrainConfig(epochs=1), LINEAR_PROBLEM)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_loss_names_the_instance_and_the_phase():
    # a squared error of 1e200 overflows; the error names the instance
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=2, batch_size=8, seed=0)
    for index, phase in ((5, "training batch of epoch 0"),
                         (27, "validation after epoch 0")):
        costs = dataset.costs.copy()
        costs[index] = 1e200
        broken = replace(dataset, costs=costs)
        with pytest.raises(NonFiniteLoss) as info:
            train(init_model(dataset.k, dataset.d, seed=0), broken,
                  parse_loss("mse"), config, LINEAR_PROBLEM)
        assert phase in str(info.value)
        assert f"instance {index} " in str(info.value)




@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_training_error_after_a_non_finite_validation_names_the_validation():
    # one batch per epoch: the epoch-0 step sends the weights to about 1e200,
    # so validation after epoch 0 overflows, and so does epoch 1's batch;
    # the held validation is scored before the training error is raised
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=3, batch_size=24, learning_rate=1e200,
                         optimizer=Optimizer.SGD, seed=0)
    with pytest.raises(NonFiniteLoss, match=r"^validation after epoch 0: .*instance 24 "):
        train(init_model(dataset.k, dataset.d, seed=0), dataset, parse_loss("mse"),
              config, LINEAR_PROBLEM)


@pytest.mark.parametrize("loss", ["mse", "mae+o_s+s", "mse+tau:0.3"])
def test_validation_held_for_fewer_epochs_gives_the_same_trace(monkeypatch, loss):
    # 7 epochs scored one at a time, three at a time (3 + 3 + 1), or in one
    # pass under the default budget; an epoch holds 6 x 6 predictions and a
    # 6 x 4 snapshot, 480 bytes
    dataset = cached_dataset()
    config = TrainConfig(epochs=7, batch_size=8, learning_rate=0.05, seed=2)
    start = init_model(dataset.k, dataset.d, seed=2)
    real, val_calls = model_mod.evaluate_loss_batch, []

    def counting(predicted, data, rows):
        if len(data.indices) == len(dataset.split.val):
            val_calls.append(len(predicted))
        return real(predicted, data, rows)

    monkeypatch.setattr(model_mod, "evaluate_loss_batch", counting)
    whole = train(start, dataset, parse_loss(loss), config, LINEAR_PROBLEM)
    assert val_calls == [7 * 6]
    for budget, passes in ((480, [6] * 7), (3 * 480 + 479, [18, 18, 6])):
        val_calls.clear()
        monkeypatch.setattr(model_mod, "VALIDATION_HOLD_BYTES", budget)
        trace = train(start, dataset, parse_loss(loss), config, LINEAR_PROBLEM)
        assert val_calls == passes
        assert deterministic_fields(trace) == deterministic_fields(whole)


def test_tied_epochs_keep_the_first():
    # a learning rate of 0 leaves every epoch's parameters, and so its
    # validation loss, equal to the start's: the strict < keeps epoch 0
    dataset = cached_dataset()
    start = init_model(dataset.k, dataset.d, seed=0)
    for optimizer in Optimizer:
        config = TrainConfig(epochs=4, batch_size=8, learning_rate=0.0,
                             optimizer=optimizer, seed=0)
        trace = train(start, dataset, parse_loss("mse+o"), config, LINEAR_PROBLEM)
        assert len({r.val_loss for r in trace.records}) == 1
        assert trace.best_epoch == 0
        assert trace.best_model.weights.tobytes() == start.weights.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_best_model_is_the_start_when_no_epoch_improves():
    # with no epoch, and with validation means that overflow to +inf (each
    # of the 12 rows' values is finite, about 2.4e307, their sum is not), no
    # epoch beats the start
    dataset = cached_dataset(n_val=12)
    costs = dataset.costs.copy()
    costs[list(dataset.split.val), 0] = 1.2e154
    overflowing = replace(dataset, costs=costs)
    start = init_model(dataset.k, dataset.d, seed=0)
    for data, epochs in ((dataset, 0), (overflowing, 3)):
        trace = train(start, data, parse_loss("mse"), TrainConfig(epochs=epochs, seed=0),
                      LINEAR_PROBLEM)
        assert [r.val_loss for r in trace.records] == [np.inf] * epochs
        assert trace.best_epoch == -1
        assert trace.best_model.weights.tobytes() == start.weights.tobytes()
        assert trace.best_model.bias.tobytes() == start.bias.tobytes()


def test_a_trace_with_no_best_epoch_reads_an_infinite_best_loss():
    start = init_model(2, 3, seed=0)
    trace = TrainTrace(records=(), best_epoch=-1, best_model=start)
    assert trace.best_val_loss == np.inf


def test_sgd_optimizer_path():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=30, batch_size=8, learning_rate=0.01,
                         optimizer=Optimizer.SGD, seed=0)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config, LINEAR_PROBLEM)
    assert trace.records[-1].train_loss < trace.records[0].train_loss


def test_linear_model_validation():
    with pytest.raises(Exception):
        LinearModel(weights=np.zeros((2, 3)), bias=np.zeros(5))
    with pytest.raises(DimensionMismatch, match=r"^weights must be a \(d, k\) matrix$"):
        LinearModel(weights=np.zeros(3), bias=np.zeros(3))
    with pytest.raises(ValueError, match="^weights contain non-finite entries$"):
        LinearModel(weights=np.array([[0.0, np.nan]]), bias=np.zeros(1))
    with pytest.raises(DimensionMismatch, match=r"^features must be \(n, 3\), got \(4, 2\)$"):
        init_model(3, 2).predict(np.zeros((4, 2)))


@pytest.mark.parametrize("shape", [(6, 5), (7,)])
def test_adam_state_equals_the_out_of_place_step_at_every_step(shape):
    # (d, k + 1) as training steps it, and a 1-d array; gradients from 1e-300
    # to 1e150 in magnitude, with random signs and zeros
    rng = np.random.default_rng(26)
    config = SimpleNamespace(learning_rate=0.005)
    adam = model_mod._AdamState(shape)
    params = rng.normal(size=shape)
    reference, state = params.copy(), (np.zeros(shape), np.zeros(shape))
    for t in range(1, 1201):
        grad = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 150, size=shape)
        grad[rng.random(shape) < 0.1] = 0.0
        adam.step(params, grad, config.learning_rate)
        state, step = _adam_step(state, grad, config, t)
        reference -= step
        assert np.array_equal(params, reference), f"step {t}"
        assert np.array_equal(adam.moments, np.stack(state)), f"step {t}"
