import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosdfl.core import (REGRET_TOL, Dataset, Sense, Split, as_vector,
                         dataset_to_dict, instance_regrets, load_dataset,
                         row_dots, save_dataset, total_regret)
from cosdfl.errors import DimensionMismatch, SolveFailure
from cosdfl.instance_costs import apply_instance_costs
from cosdfl.model import LinearModel
from cosdfl.problems import KnapsackOracle

from brute import brute_knapsack


@pytest.fixture
def tiny_knapsack():
    # weights (2,3,4,5), capacity 6: {0,2} is the best set under c=(3,4,5,6)
    return KnapsackOracle(weights=[[2., 3., 4., 5.]], capacities=[6.])


def one_row(costs, x_star=None):
    """A one-instance dataset on its train split."""
    return Dataset(features=np.zeros((1, 1)), costs=np.asarray(costs, dtype=float)[None, :],
                   split=Split(train=(0,)),
                   x_star=None if x_star is None else np.asarray(x_star, dtype=float)[None, :])


def regret(problem, predicted, costs, x_star=None):
    """Regret of one prediction through instance_regrets."""
    return float(instance_regrets(problem, [predicted], one_row(costs, x_star), [0])[0])


class ConstantPredictor:
    def __init__(self, costs):
        self.costs = np.asarray(costs, dtype=float)

    def predict(self, features):
        return np.tile(self.costs, (len(features), 1))


def test_as_vector_validates_shape_and_length():
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], length=3)
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    assert as_vector([np.inf], allow_nonfinite=True)[0] == np.inf


def test_split_rejects_overlap_and_dataset_checks_indices():
    with pytest.raises(ValueError):
        Split(train=(0, 1), val=(1,))
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((1, 2)), costs=np.ones((1, 3)), split=Split(train=(5,)))
    with pytest.raises(DimensionMismatch):
        Dataset(features=np.zeros((1, 2)), costs=np.ones((1, 3)), split=Split(train=(0,)),
                x_star=np.zeros((1, 4)))


def test_attaching_a_cache_leaves_the_original_dataset_untouched():
    ds = Dataset(features=np.zeros((3, 1)), costs=np.arange(3.0)[:, None],
                 split=Split(train=(0, 1), test=(2,)))
    ds2 = apply_instance_costs(ds, [5.0, 7.0])
    assert np.isnan(ds.weights).all()
    assert ds2.weights[1] == 7.0 and np.isnan(ds2.weights[2])
    assert ds2.split == ds.split
    assert (ds.n, ds.k, ds.d) == (ds2.n, ds2.k, ds2.d) == (3, 1, 1)
    with pytest.raises(ValueError):
        ds2.weights[0] = 1.0  # frozen buffer


def test_regret_frozen_knapsack_example(tiny_knapsack):
    # true optimum {0,2} = 8; predicted costs pick {0,1} worth 7 -> regret 1
    c = np.array([3.0, 4.0, 5.0, 6.0])
    c_hat = np.array([6.0, 5.0, 4.0, 3.0])
    assert tiny_knapsack.solve_many(c[None])[0].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert tiny_knapsack.solve_many(c_hat[None])[0].tolist() == [1.0, 1.0, 0.0, 0.0]
    assert regret(tiny_knapsack, c_hat, c) == pytest.approx(1.0, abs=1e-12)
    assert regret(tiny_knapsack, c, c) == 0.0


def test_regret_is_zero_under_positive_scaling(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    assert regret(tiny_knapsack, 3.7 * c, c) == 0.0


def test_regret_clamps_tolerance_and_raises_below(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    x_star = tiny_knapsack.solve_many(c[None])[0]
    # a "stale" cached optimum worse than the actual one trips the guard
    stale = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(SolveFailure, match="instance 0"):
        regret(tiny_knapsack, c, c, x_star=stale)
    assert regret(tiny_knapsack, c, c, x_star=x_star) == 0.0
    # of two stale instances, the error names the first in batch order
    ds = Dataset(features=np.zeros((3, 1)), costs=np.tile(c, (3, 1)), split=Split(),
                 x_star=np.stack([x_star, stale, stale]))
    with pytest.raises(SolveFailure, match="^instance 2: negative regret"):
        instance_regrets(tiny_knapsack, np.tile(c, (3, 1)), ds, [0, 2, 1])


def test_regret_on_an_inexact_oracle_scores_against_the_better_decision(tiny_knapsack):
    # a heuristic may miss the optimum, so its cached X* can be beaten by its
    # decision at the prediction: no error, and the gap is clamped at zero
    class HeuristicKnapsack(KnapsackOracle):
        exact = False

    heuristic = HeuristicKnapsack(tiny_knapsack.weights, tiny_knapsack.capacities)
    c = np.array([3.0, 4.0, 5.0, 6.0])
    stale = np.array([0.0, 0.0, 0.0, 1.0])  # worth 6, the optimum 8
    assert regret(heuristic, c, c, x_star=stale) == 0.0
    assert regret(heuristic, np.array([6.0, 5.0, 4.0, 3.0]), c, x_star=stale) == 0.0
    assert regret(heuristic, np.array([0.0, 0.0, 0.0, 9.0]), c,
                  x_star=np.array([1.0, 0.0, 1.0, 0.0])) == 2.0


# (n, d, k): empty, one-coordinate and one-feature batches, then random ones
STACKED_SHAPES = [(0, 3, 2), (4, 1, 3), (5, 6, 1), (1, 1, 1)] + [
    tuple(int(v) for v in np.random.default_rng(seed).integers(1, 40, size=3))
    for seed in range(12)]


@pytest.mark.parametrize("n,d,k", STACKED_SHAPES)
@pytest.mark.parametrize("strided", [False, True])
def test_stacked_products_equal_the_per_row_products(n, d, k, strided):
    # the batched regrets, spo+ values, normalizations and predictions are
    # bit-identical to their per-row forms only while numpy makes the same
    # BLAS call per stacked item as for the 1-d product; if this fails, a
    # numpy or BLAS change broke that, and the golden outputs will move
    rng = np.random.default_rng(n * 10_000 + d * 100 + k)
    a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    features = rng.normal(size=(n, k))
    if strided:  # row views into wider arrays, every other row
        a = rng.normal(size=(2 * n, d + 3))[::2, 1:d + 1]
        features = rng.normal(size=(2 * n, k + 2))[::2, :k]
    model = LinearModel(rng.normal(size=(d, k)), rng.normal(size=d))
    dots, predicted = row_dots(a, b), model.predict(features)
    assert dots.shape == (n,) and predicted.shape == (n, d)
    for r in range(n):
        assert np.array_equal(dots[r], a[r] @ b[r]), "row_dots differs from a[r] @ b[r]"
        assert np.array_equal(predicted[r], model.weights @ features[r] + model.bias), \
            "LinearModel.predict differs from W @ z + b"


def test_instance_regret_uses_cache(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    ds = one_row(c, x_star=tiny_knapsack.solve_many(c[None])[0])
    before = tiny_knapsack.solves
    value = instance_regrets(tiny_knapsack, [np.array([6.0, 5.0, 4.0, 3.0])], ds, [0])
    assert value.tolist() == pytest.approx([1.0])
    assert tiny_knapsack.solves - before == 1


def test_total_regret_sums_the_split(tiny_knapsack):
    c1 = np.array([3.0, 4.0, 5.0, 6.0])
    c2 = np.array([1.0, 1.0, 10.0, 1.0])
    ds = Dataset(features=np.zeros((2, 1)), costs=np.stack([c1, c2]),
                 split=Split(test=(0, 1)))
    model = ConstantPredictor([6.0, 5.0, 4.0, 3.0])
    total = total_regret(tiny_knapsack, model, ds, split="test")
    # c2: predicted picks {0,1} (value 2) vs optimum {0,2} or {2,?}: best is
    # {0,2} w=6 value 11 -> regret 9; plus 1 from the first instance
    assert total == pytest.approx(10.0)


def test_total_regret_names_the_instance_of_a_bad_prediction(tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    ds = Dataset(features=np.arange(3.0)[:, None], costs=np.tile(c, (3, 1)),
                 split=Split(train=(0,), test=(1, 2)))

    class NanForInstance2:
        def predict(self, features):
            return c * np.where(features == 2.0, np.nan, 1.0)

    with pytest.raises(ValueError, match="instance 2 "):
        total_regret(tiny_knapsack, NanForInstance2(), ds)
    assert tiny_knapsack.solves == 0


def test_dataset_roundtrip(tmp_path, tiny_knapsack):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    x_star = tiny_knapsack.solve_many(c[None])[0]
    ds = Dataset(features=np.array([[0.5, -1.5], [1.0, 2.0]]), costs=np.stack([c, c + 1]),
                 split=Split(train=(0,), test=(1,)),
                 x_star=np.stack([x_star, np.full(4, np.nan)]), seed=9)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.k == 2 and back.d == 4 and back.seed == 9
    assert back.split.train == (0,) and back.split.test == (1,)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.x_star[0], x_star)
    assert np.isnan(back.x_star[1]).all()
    assert dataset_to_dict(back) == dataset_to_dict(ds)


def good_columns():
    """Valid constructor arguments for three instances with k=2, d=3."""
    return dict(features=np.zeros((3, 2)), costs=np.ones((3, 3)),
                split=Split(train=(0, 1), test=(2,)),
                x_star=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [np.nan] * 3]),
                lower=np.zeros((3, 3)), upper=np.full((3, 3), np.inf),
                weights=np.array([1.0, 0.5, np.nan]))


def with_row(name, row, value):
    """good_columns() with one row of column ``name`` replaced."""
    columns = good_columns()
    rows = list(columns[name])
    rows[row] = value
    columns[name] = rows
    return columns


@pytest.mark.parametrize("columns, error, message", [
    (with_row("features", 1, [0.0, 0.0, 0.0]), DimensionMismatch, "instance 1"),
    (with_row("costs", 2, [1.0, 1.0]), DimensionMismatch, "instance 2"),
    (with_row("x_star", 1, [1.0, 0.0]), DimensionMismatch, "instance 1"),
    (with_row("features", 2, [0.0, np.inf]), ValueError, "instance 2 has non-finite features"),
    (with_row("costs", 1, [1.0, np.nan, 1.0]), ValueError, "instance 1 has non-finite costs"),
    (with_row("x_star", 1, [1.0, 0.5, 0.0]), ValueError, "instance 1 has an x_star"),
    (with_row("x_star", 2, [1.0, np.nan, 0.0]), ValueError, "instance 2 has an x_star"),
    (with_row("weights", 1, -0.5), ValueError, "instance 1 has a negative"),
    (with_row("weights", 0, np.inf), ValueError, "instance 0 has a negative or non-finite"),
    (with_row("lower", 2, [0.0, 2.0, 0.0]), None, None),  # 2 <= inf
    (with_row("upper", 2, [1.0, -1.0, 1.0]), ValueError, "instance 2 has cost ranges"),
    (with_row("lower", 1, [0.0, np.nan, 0.0]), ValueError, "instance 1 has cost ranges"),
    ({**good_columns(), "split": Split(train=(0,), test=(3,))}, ValueError, "split index 3"),
])
def test_malformed_columns_name_the_instance(columns, error, message):
    if error is None:
        Dataset(**columns)
        return
    with pytest.raises(error, match=message):
        Dataset(**columns)


def no_caches() -> Dataset:
    columns = good_columns()
    return Dataset(features=columns["features"], costs=columns["costs"],
                   split=columns["split"])


def assert_same_fields(a: Dataset, b: Dataset) -> None:
    for field in dataclasses.fields(Dataset):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
            assert np.array_equal(x, y, equal_nan=True), field.name
            assert not x.flags.writeable and not y.flags.writeable, field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("name, row, value, error, message", [
    ("x_star", 1, [1.0, 0.5, 0.0], ValueError, "instance 1 has an x_star"),
    ("x_star", 0, [np.nan, 1.0, 0.0], ValueError, "instance 0 has an x_star"),
    ("lower", 1, [0.0, np.nan, 0.0], ValueError, "instance 1 has cost ranges"),
    ("upper", 2, [1.0, -1.0, 1.0], ValueError, "instance 2 has cost ranges"),
    ("weights", 1, -0.5, ValueError, "instance 1 has a negative"),
    ("weights", 0, np.inf, ValueError, "instance 0 has a negative or non-finite"),
    ("x_star", 2, [1.0, 0.0], DimensionMismatch, "instance 2"),
    ("lower", 0, [0.0, 0.0, 0.0, 0.0], DimensionMismatch, "instance 0"),
])
def test_attaching_a_bad_cache_raises_the_constructors_error(name, row, value, error,
                                                            message):
    columns = with_row(name, row, value)
    with pytest.raises(error, match=message) as built:
        Dataset(**columns)
    caches = ({"lower": columns["lower"], "upper": columns["upper"]}
              if name in ("lower", "upper") else {name: columns[name]})
    with pytest.raises(error, match=message) as attached:
        no_caches().attach(**caches)
    assert str(attached.value) == str(built.value)


def test_attaching_one_range_bound_checks_it_against_the_other():
    ranged = no_caches().attach(lower=np.zeros((3, 3)), upper=np.ones((3, 3)))
    upper = np.ones((3, 3))
    upper[2, 1] = -1.0
    with pytest.raises(ValueError, match="instance 2 has cost ranges"):
        ranged.attach(upper=upper)
    with pytest.raises(ValueError, match="instance 0 has cost ranges"):
        no_caches().attach(lower=np.zeros((3, 3)))  # against an unattached upper
    with pytest.raises(DimensionMismatch, match="weights must have length 3"):
        no_caches().attach(weights=np.ones(2))


def test_an_attached_dataset_equals_the_replaced_one_field_for_field():
    columns = good_columns()
    caches = {name: columns[name] for name in ("x_star", "lower", "upper", "weights")}
    attached = replaced = no_caches()
    for names in (("x_star",), ("lower", "upper"), ("weights",)):
        step = {name: caches[name] for name in names}
        attached, replaced = attached.attach(**step), dataclasses.replace(replaced, **step)
        assert_same_fields(attached, replaced)
    assert_same_fields(attached, Dataset(**columns))
    # an attached cache is a frozen copy: the caller's array stays writable
    weights = np.array([1.0, 2.0, 3.0])
    assert no_caches().attach(weights=weights).weights is not weights
    assert weights.flags.writeable


@pytest.mark.parametrize("parts, message", [
    (dict(train=(0, 1), val=(1,)), "split index 1 appears in more than one part"),
    (dict(train=(0, -2), test=(0,)), "split index -2 is negative"),
    (dict(train=(3, 0), val=(5,), test=(0, -1)), "split index 0 appears"),
    (dict(train=(4,), val=(-1,), test=(-3, 4)), "split index -1 is negative"),
])
def test_split_names_its_first_bad_index(parts, message):
    with pytest.raises(ValueError, match=message):
        Split(**parts)


def test_binary_x_star_snaps_and_a_nan_row_marks_no_cache():
    columns = good_columns()
    columns["x_star"][0] = [1.0 - 1e-12, 1e-12, 1.0]
    ds = Dataset(**columns)
    assert ds.x_star[0].tolist() == [1.0, 0.0, 1.0]
    assert ds.uncached("x_star", (0, 1, 2)) == [2]
    assert ds.uncached("weights", (2, 0)) == [2]
    assert ds.uncached("lower", (0, 1, 2)) == []


@pytest.mark.parametrize("edit, error, message", [
    (lambda p: p["instances"][1].update(z=[0.0]), DimensionMismatch, "instance 1"),
    (lambda p: p["instances"][0].update(c=[1.0, 2.0, 3.0, 4.0, 5.0]), DimensionMismatch,
     "instance 0"),
    (lambda p: p["instances"][1].update(z=[0.0, float("nan")]), ValueError,
     "instance 1 has non-finite features"),
    (lambda p: p["instances"][0].update(c=[1.0, float("inf"), 1.0, 1.0]), ValueError,
     "instance 0 has non-finite costs"),
    (lambda p: p["instances"][1].update(x_star=[1.0, 0.0, 2.0, 0.0]), ValueError,
     "instance 1 has an x_star"),
    (lambda p: p["instances"][1].update(x_star=[1.0, 0.0]), DimensionMismatch, "instance 1"),
    (lambda p: p["split"].update(test=[1, 2]), ValueError, "split index 2"),
])
def test_load_dataset_rejects_malformed_rows(tmp_path, tiny_knapsack, edit, error, message):
    c = np.array([3.0, 4.0, 5.0, 6.0])
    ds = Dataset(features=np.zeros((2, 2)), costs=np.stack([c, c]),
                 split=Split(train=(0,), test=(1,)),
                 x_star=np.stack([tiny_knapsack.solve_many(c[None])[0],
                                  np.full(4, np.nan)]))
    payload = dataset_to_dict(ds)
    edit(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(error, match=message):
        load_dataset(path)


@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 32 - 1))
def test_regret_nonnegative_and_scale_free(bits, seed):
    rng = np.random.default_rng(seed)
    oracle = KnapsackOracle(weights=rng.integers(1, 5, size=(1, 6)).astype(float),
                            capacities=[7.0])
    c = rng.uniform(0.1, 5.0, size=6)
    c_hat = rng.uniform(0.1, 5.0, size=6)
    r = regret(oracle, c_hat, c)
    assert r >= 0.0
    # matches the definition computed through the brute-force solver
    _, v_star = brute_knapsack(oracle.weights, oracle.capacities, c)
    x_hat, _ = brute_knapsack(oracle.weights, oracle.capacities, c_hat)
    assert r == pytest.approx(v_star - float(c @ x_hat), abs=1e-9)


def test_sense_values_and_regret_tolerance():
    assert Sense.MAXIMIZE.value == "max" and Sense.MINIMIZE.value == "min"
    assert REGRET_TOL == 1e-9
