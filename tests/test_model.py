import numpy as np
import pytest

from cosdfl.core import DataInstance, Dataset, Split
from cosdfl.datagen import GenSpec, generate
from cosdfl.errors import NonFiniteLoss
from cosdfl.losses import evaluate_loss, parse_loss
from cosdfl.model import (CHECKPOINT_MAGIC, LinearModel, Optimizer,
                          TrainConfig, init_model, load_model,
                          model_from_json, model_to_json, save_model, train)
from cosdfl.problems import make_knapsack


def linear_dataset(n_train=24, n_val=8, k=3, d=4, seed=0):
    """Costs are an exact linear map of features: learnable to zero error."""
    rng = np.random.default_rng(seed)
    w_true = rng.normal(0.0, 1.0, (d, k))
    instances = []
    for _ in range(n_train + n_val):
        z = rng.normal(0.0, 1.0, k)
        instances.append(DataInstance(z, w_true @ z + 5.0))
    split = Split(train=tuple(range(n_train)),
                  val=tuple(range(n_train, n_train + n_val)))
    return Dataset(instances=tuple(instances), split=split, k=k, d=d), w_true


def test_init_model_bounds_and_determinism():
    a = init_model(k=9, d=5, seed=3)
    b = init_model(k=9, d=5, seed=3)
    c = init_model(k=9, d=5, seed=4)
    bound = 1.0 / np.sqrt(9)
    assert np.all(np.abs(a.weights) <= bound)
    assert np.all(a.bias == 0.0)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_predict_and_batch_agree():
    model = init_model(k=3, d=2, seed=0)
    z = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 1.0]])
    batch = model.predict_batch(z)
    np.testing.assert_allclose(batch[0], model.predict(z[0]))
    np.testing.assert_allclose(batch[1], model.predict(z[1]))


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


def test_model_json_roundtrip():
    model = init_model(k=2, d=3, seed=1)
    back = model_from_json(model_to_json(model))
    np.testing.assert_array_equal(back.weights, model.weights)
    np.testing.assert_array_equal(back.bias, model.bias)


def test_train_config_defaults():
    config = TrainConfig()
    assert config.learning_rate == 0.005
    assert config.epochs == 50
    assert config.batch_size == 32
    assert config.optimizer is Optimizer.ADAM
    assert config.patience_seconds is None


def test_training_learns_linear_ground_truth():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=60, batch_size=8, learning_rate=0.05, seed=0)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config)
    assert trace.records[-1].train_loss < 0.05 * trace.records[0].train_loss
    assert trace.best_val_loss <= trace.records[0].val_loss


def test_training_is_deterministic():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=5, batch_size=8, seed=7)
    a = train(init_model(dataset.k, dataset.d, seed=7), dataset,
              parse_loss("mae"), config)
    b = train(init_model(dataset.k, dataset.d, seed=7), dataset,
              parse_loss("mae"), config)
    assert a.deterministic_fields() == b.deterministic_fields()


def test_best_epoch_is_earliest_strict_minimum():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=8, batch_size=8, seed=0)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config)
    vals = [r.val_loss for r in trace.records]
    assert trace.best_epoch == int(np.argmin(vals))
    assert trace.best_val_loss == min(vals)


def test_validation_ignores_instance_weights():
    # validation instances never carry weights; the val metric is the plain
    # base loss of the epoch-end snapshot
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=12, n_val=4, n_test=2, k=3, seed=1),
                       problem, cache_decisions=True)
    from cosdfl.instance_costs import apply_instance_costs
    dataset = apply_instance_costs(dataset, np.full(12, 9.0))
    config = TrainConfig(epochs=3, batch_size=4, seed=0)
    trace = train(init_model(3, 6, seed=0), dataset, parse_loss("mse+c"),
                  config, sense=problem.sense)
    snapshot = trace.final_model
    manual = float(np.mean([
        evaluate_loss(parse_loss("mse"), snapshot.predict(inst.features), inst,
                      problem.sense).value
        for inst in dataset.part("val")]))
    assert trace.records[-1].val_loss == pytest.approx(manual, rel=1e-9)


def test_spo_plus_merges_validation_and_counts_solves():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=10, n_val=5, n_test=2, k=3, seed=0),
                       problem, cache_decisions=True)
    config = TrainConfig(epochs=4, batch_size=8, seed=0)
    problem.counter.reset()
    trace = train(init_model(3, 6, seed=0), dataset, parse_loss("spo+"),
                  config, problem=problem)
    # one solve per merged-training instance per epoch, none for validation
    assert problem.counter.count == 4 * 15
    assert trace.records[-1].solver_calls == 4 * 15
    for r in trace.records:
        assert r.val_loss == r.train_loss


def test_solver_free_specs_touch_no_oracle():
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(GenSpec(n_train=10, n_val=5, n_test=2, k=3, seed=0),
                       problem, cache_decisions=True)
    problem.counter.reset()
    train(init_model(3, 6, seed=0), dataset, parse_loss("mse"),
          TrainConfig(epochs=3, batch_size=4, seed=0))
    assert problem.counter.count == 0


def test_training_requirements():
    dataset, _ = linear_dataset()
    with pytest.raises(ValueError):
        train(init_model(dataset.k, dataset.d), dataset, parse_loss("spo+"),
              TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        # one-sided losses need a sense to orient the mask
        train(init_model(dataset.k, dataset.d), dataset, parse_loss("mse+o"),
              TrainConfig(epochs=1))
    empty = Dataset(instances=dataset.instances,
                    split=Split(val=dataset.split.val), k=dataset.k, d=dataset.d)
    with pytest.raises(ValueError):
        train(init_model(dataset.k, dataset.d), empty, parse_loss("mse"),
              TrainConfig(epochs=1))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_loss_names_the_instance_and_the_phase():
    # a squared error of 1e200 overflows; the error names the instance
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=2, batch_size=8, seed=0)
    for index, phase in ((5, "training batch of epoch 0"),
                         (27, "validation after epoch 0")):
        inst = dataset.instances[index]
        broken = dataset.with_replaced(
            {index: DataInstance(inst.features, np.full(dataset.d, 1e200))})
        with pytest.raises(NonFiniteLoss) as info:
            train(init_model(dataset.k, dataset.d, seed=0), broken,
                  parse_loss("mse"), config)
        assert phase in str(info.value)
        assert f"instance {index} " in str(info.value)


def test_zero_patience_stops_after_first_plateau():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=10, batch_size=8, learning_rate=0.0,
                         patience_seconds=0.0, seed=0)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config)
    # lr=0 never improves after the first epoch, so the clock stops the run
    assert len(trace.records) == 2


def test_sgd_optimizer_path():
    dataset, _ = linear_dataset()
    config = TrainConfig(epochs=30, batch_size=8, learning_rate=0.01,
                         optimizer=Optimizer.SGD, seed=0)
    trace = train(init_model(dataset.k, dataset.d, seed=0), dataset,
                  parse_loss("mse"), config)
    assert trace.records[-1].train_loss < trace.records[0].train_loss


def test_linear_model_validation():
    with pytest.raises(Exception):
        LinearModel(weights=np.zeros((2, 3)), bias=np.zeros(5))
