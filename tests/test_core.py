import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosdfl.core import (REGRET_TOL, CostRangeVector, DataInstance, Dataset,
                         Decision, DecisionKind, Sense, Split, as_vector,
                         dataset_from_dict, dataset_to_dict, decision_value,
                         instance_regret, load_dataset,
                         regret, regret_from_decisions, save_dataset,
                         total_regret)
from cosdfl.errors import DimensionMismatch, SolveFailure
from cosdfl.problems import KnapsackOracle, KnapsackSpec

from brute import brute_knapsack


@pytest.fixture
def tiny_knapsack():
    # weights (2,3,4,5), capacity 6: {0,2} is the best set under c=(3,4,5,6)
    return KnapsackOracle(KnapsackSpec(weights=np.array([[2., 3., 4., 5.]]),
                                       capacities=np.array([6.])))


class ConstantPredictor:
    def __init__(self, costs):
        self.costs = np.asarray(costs, dtype=float)

    def predict(self, features):
        return self.costs


def test_as_vector_validates_shape_and_length():
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], length=3)
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    assert as_vector([np.inf], allow_nonfinite=True)[0] == np.inf


def test_binary_decision_snaps_and_freezes():
    dec = Decision(np.array([1.0 - 1e-12, 0.0, 1.0]))
    assert dec.values.tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        dec.values[0] = 0.0  # frozen buffer
    with pytest.raises(ValueError):
        Decision(np.array([0.4, 1.0]))
    Decision(np.array([0.4, 1.0]), kind=DecisionKind.CONTINUOUS)


def test_cost_range_vector_invariants():
    r = CostRangeVector(np.array([-np.inf, 1.0]), np.array([2.0, np.inf]))
    assert r.d == 2
    with pytest.raises(ValueError):
        CostRangeVector(np.array([2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        CostRangeVector(np.array([np.nan]), np.array([1.0]))
    scaled = r.scaled(0.5)
    assert scaled.upper[0] == 1.0 and scaled.lower[0] == -np.inf
    with pytest.raises(ValueError):
        r.scaled(-1.0)


def test_split_rejects_overlap_and_dataset_checks_indices():
    with pytest.raises(ValueError):
        Split(train=(0, 1), val=(1,))
    inst = DataInstance(features=np.zeros(2), true_costs=np.ones(3))
    with pytest.raises(ValueError):
        Dataset(instances=(inst,), split=Split(train=(5,)), k=2, d=3)
    with pytest.raises(DimensionMismatch):
        Dataset(instances=(inst,), split=Split(train=(0,)), k=2, d=4)


def test_with_replaced_is_non_destructive():
    insts = tuple(DataInstance(np.zeros(1), np.array([float(i)])) for i in range(3))
    ds = Dataset(instances=insts, split=Split(train=(0, 1), test=(2,)), k=1, d=1)
    ds2 = ds.with_replaced({1: insts[1].with_instance_cost(7.0)})
    assert ds.instances[1].instance_cost is None
    assert ds2.instances[1].instance_cost == 7.0
    assert ds2.split == ds.split


def test_regret_frozen_knapsack_example(tiny_knapsack):
    # true optimum {0,2} = 8; predicted costs pick {0,1} worth 7 -> regret 1
    c = np.array([3.0, 4.0, 5.0, 6.0])
    c_hat = np.array([6.0, 5.0, 4.0, 3.0])
    assert tiny_knapsack.solve(c).values.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert tiny_knapsack.solve(c_hat).values.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert regret(tiny_knapsack, c_hat, c) == pytest.approx(1.0, abs=1e-12)
    assert regret(tiny_knapsack, c, c) == 0.0


def test_regret_is_zero_under_positive_scaling(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    assert regret(tiny_knapsack, 3.7 * c, c) == 0.0


def test_regret_clamps_tolerance_and_raises_below(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    x_star = tiny_knapsack.solve(c)
    better = Decision(np.array([1.0, 0.0, 1.0, 0.0]))
    # a "stale" cached optimum worse than the actual one trips the guard
    stale = Decision(np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(SolveFailure):
        regret_from_decisions(tiny_knapsack, c, stale, better)
    assert regret_from_decisions(tiny_knapsack, c, x_star, x_star) == 0.0


def test_instance_regret_uses_cache(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    inst = DataInstance(np.zeros(2), c).with_decision(tiny_knapsack.solve(c))
    tiny_knapsack.counter.reset()
    value = instance_regret(tiny_knapsack, np.array([6.0, 5.0, 4.0, 3.0]), inst)
    assert value == pytest.approx(1.0)
    assert tiny_knapsack.counter.count == 1


def test_total_regret_sum_and_mean(tiny_knapsack):
    c1 = np.array([3.0, 4.0, 5.0, 6.0])
    c2 = np.array([1.0, 1.0, 10.0, 1.0])
    insts = (DataInstance(np.zeros(1), c1), DataInstance(np.zeros(1), c2))
    ds = Dataset(instances=insts, split=Split(test=(0, 1)), k=1, d=4)
    model = ConstantPredictor([6.0, 5.0, 4.0, 3.0])
    total = total_regret(tiny_knapsack, model, ds, split="test")
    mean = total_regret(tiny_knapsack, model, ds, split="test", reduction="mean")
    # c2: predicted picks {0,1} (value 2) vs optimum {0,2} or {2,?}: best is
    # {0,2} w=6 value 11 -> regret 9; plus 1 from the first instance
    assert total == pytest.approx(10.0)
    assert mean == pytest.approx(5.0)
    with pytest.raises(ValueError):
        total_regret(tiny_knapsack, model, ds, reduction="median")


def test_total_regret_names_the_instance_of_a_bad_prediction(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    insts = tuple(DataInstance(np.array([float(i)]), c) for i in range(3))
    ds = Dataset(instances=insts, split=Split(train=(0,), test=(1, 2)), k=1, d=4)

    class NanForInstance2:
        def predict(self, features):
            return c * (np.nan if features[0] == 2.0 else 1.0)

    with pytest.raises(ValueError, match="instance 2 "):
        total_regret(tiny_knapsack, NanForInstance2(), ds)
    assert tiny_knapsack.counter.count == 0


def test_dataset_roundtrip(tmp_path, tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    inst = DataInstance(np.array([0.5, -1.5]), c,
                        optimal_decision=tiny_knapsack.solve(c))
    ds = Dataset(instances=(inst, DataInstance(np.array([1.0, 2.0]), c + 1)),
                 split=Split(train=(0,), test=(1,)), k=2, d=4, seed=9)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.k == 2 and back.d == 4 and back.seed == 9
    assert back.split.train == (0,) and back.split.test == (1,)
    np.testing.assert_array_equal(back.instances[0].features, inst.features)
    np.testing.assert_array_equal(back.instances[0].optimal_decision.values,
                                  inst.optimal_decision.values)
    assert back.instances[1].optimal_decision is None
    assert dataset_to_dict(back) == dataset_to_dict(ds)




@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 32 - 1))
def test_regret_nonnegative_and_scale_free(bits, seed):
    rng = np.random.default_rng(seed)
    spec = KnapsackSpec(weights=rng.integers(1, 5, size=(1, 6)).astype(float),
                        capacities=np.array([7.0]))
    oracle = KnapsackOracle(spec)
    c = rng.uniform(0.1, 5.0, size=6)
    c_hat = rng.uniform(0.1, 5.0, size=6)
    r = regret(oracle, c_hat, c)
    assert r >= 0.0
    # matches the definition computed through the brute-force solver
    _, v_star = brute_knapsack(spec.weights, spec.capacities, c)
    x_hat, _ = brute_knapsack(spec.weights, spec.capacities, c_hat)
    assert r == pytest.approx(v_star - float(c @ x_hat), abs=1e-9)


def test_decision_value_and_sense():
    dec = Decision(np.array([1.0, 0.0, 1.0]))
    assert decision_value(np.array([2.0, 7.0, 3.0]), dec) == 5.0
    assert Sense.MAXIMIZE.value == "max" and Sense.MINIMIZE.value == "min"
    assert REGRET_TOL == 1e-9
