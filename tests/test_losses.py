import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosdfl.core import Dataset, Sense, Split, instance_regrets
from cosdfl.errors import (DimensionMismatch, MissingBaselineRegret,
                           MissingInstanceCost, MissingOptimalDecision,
                           MissingRanges, NonFiniteGradient, ZeroVector)
from cosdfl.losses import (BaseError, LossSpec, base_error, check_finite,
                           coordinate_weights, evaluate_loss_batch, normalize,
                           parse_loss, spo_plus_batch, stack_loss_data)
from cosdfl.problems import KnapsackOracle, ShortestPathOracle
from cosdfl.simplex import solve_lp

from brute import brute_loss, brute_weights


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for j in range(x.shape[0]):
        step = np.zeros_like(x, dtype=float)
        step[j] = h
        g[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def pick_one_of_two():
    # maximize over {choose item 0, choose item 1, choose none}
    return KnapsackOracle(weights=[[1.0, 1.0]], capacities=[1.0])


def one_row(true, x_star=None, lower=None, upper=None, weight=None):
    """A one-instance dataset carrying the given caches."""
    def row(values):
        return None if values is None else np.asarray(values, dtype=float)[None, :]
    return Dataset(features=np.zeros((1, 1)), costs=row(true), split=Split(train=(0,)),
                   x_star=row(x_star), lower=row(lower), upper=row(upper),
                   weights=None if weight is None else [weight])


def loss_of(spec, predicted, dataset, sense):
    """Value and gradient on the one row of a one-instance dataset: the
    kernel on the batch ``predicted[None]``."""
    values, grads = evaluate_loss_batch(np.asarray(predicted, dtype=float)[None, :],
                                        stack_loss_data(spec, dataset, [0], sense), [0])
    return values[0], grads[0]


def one_row_weights(loss, predicted, dataset, sense):
    """coordinate_weights of a one-instance dataset; ``predicted`` is in
    evaluation space (normalized under S)."""
    data = stack_loss_data(parse_loss(loss), dataset, [0], sense)
    return coordinate_weights(np.asarray(predicted, dtype=float)[None, :], data,
                              slice(None))[0]


def spo_plus(predicted, dataset, problem):
    """spo+ value and gradient on the one row of a one-instance dataset."""
    data = stack_loss_data(LossSpec(spo_plus=True), dataset, [0], problem.sense)
    values, grads = spo_plus_batch(np.asarray(predicted, dtype=float)[None, :], data,
                                   slice(None), problem)
    return values[0], grads[0]


# --- parsing and spec algebra --------------------------------------------------

def test_parse_canonical_names_roundtrip():
    for text, canonical in [
        ("mse", "mse"), ("mae", "mae"), ("mse+c", "mse+c"),
        ("mse+o", "mse+o"), ("mse+o_s", "mse+o_s"), ("mse+s", "mse+s"),
        ("mse+cos", "mse+c+o+s"), ("mae+cos", "mae+c+o+s"),
        ("mse+s+c+o", "mse+c+o+s"), ("mae+o_s+s", "mae+o_s+s"),
        ("spo+", "spo+"), ("lawless:0.4", "lawless:0.4"),
        ("lawless:0", "lawless:0"), ("mse+tau:0.3", "mse+tau:0.3"),
    ]:
        spec = parse_loss(text)
        assert spec.name == canonical
        assert parse_loss(spec.name) == spec


def test_parse_rejects_bad_compositions():
    for bad in ["xyz", "mse+q", "mse+o+o_s", "spo++c", "lawless:1.5",
                "mse+tau:0.5+o", "lawless:0.4+o"]:
        with pytest.raises((ValueError, Exception)):
            parse_loss(bad)


def test_spec_requirement_flags():
    assert not parse_loss("mse").requires_decisions
    assert parse_loss("mse+o").requires_decisions
    assert parse_loss("mse+o_s").requires_ranges
    assert not parse_loss("mse+o").requires_ranges
    assert parse_loss("mse+c").instance_costs
    assert parse_loss("lawless:0.4").requires_baseline_regret
    assert not parse_loss("lawless:0").requires_baseline_regret


def test_validation_variant_strips_weighting():
    assert parse_loss("mse+c+o+s").validation_variant().name == "mse+o+s"
    assert parse_loss("lawless:0.4").validation_variant().name == "mse"
    assert parse_loss("mse+o").validation_variant().name == "mse+o"


# --- primitives -----------------------------------------------------------------

def test_pinball_frozen_values():
    def pinball(predicted, true, tau, base):
        return loss_of(LossSpec(base=base, tau=tau), np.array([predicted]),
                       one_row([true]), Sense.MAXIMIZE)[0]

    # overprediction at tau=0.5 halves the squared error 4 -> 2
    assert pinball(3.0, 1.0, 0.5, BaseError.SQUARED) == pytest.approx(2.0)
    # underprediction at tau=0.9 weighs the absolute error by 0.9
    assert pinball(0.0, 1.0, 0.9, BaseError.ABSOLUTE) == pytest.approx(0.9)
    assert pinball(1.0, 1.0, 0.3, BaseError.ABSOLUTE) == 0.0
    with pytest.raises(ValueError):
        LossSpec(base=BaseError.ABSOLUTE, tau=1.5)


def test_base_error_values_and_derivatives():
    e, de = base_error(np.array([3.0, -1.0]), np.array([1.0, 1.0]), BaseError.SQUARED)
    np.testing.assert_allclose(e, [4.0, 4.0])
    np.testing.assert_allclose(de, [4.0, -4.0])
    e, de = base_error(np.array([3.0, -1.0]), np.array([1.0, 1.0]), BaseError.ABSOLUTE)
    np.testing.assert_allclose(e, [2.0, 2.0])
    np.testing.assert_allclose(de, [1.0, -1.0])


def test_normalize_frozen_and_zero_rejection():
    np.testing.assert_allclose(normalize(np.array([[3.0, 4.0]]), [0]), [[0.6, 0.8]])
    rows = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ZeroVector, match=r"^instance 7\b"):
        normalize(rows, [3, 7])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_check_finite_names_the_first_bad_instance_past_the_sum_test():
    rows = slice(None)
    indices = np.array([10, 11, 12, 13])
    values, grads = np.ones(4), np.ones((4, 3))
    # +inf in one row and -inf in another sum to NaN, not to an infinity
    opposite = values.copy()
    opposite[1], opposite[3] = np.inf, -np.inf
    with pytest.raises(NonFiniteGradient, match="instance 11 "):
        check_finite(opposite, grads, indices, rows)
    nan_grad = grads.copy()
    nan_grad[2, 1] = np.nan
    with pytest.raises(NonFiniteGradient, match="instance 12 "):
        check_finite(values, nan_grad, indices, rows)
    # finite entries whose sum overflows to inf are not an error
    check_finite(np.full(4, 1e308), np.full((4, 3), -1e308), indices, rows)


def test_check_finite_reads_each_rows_instance_through_rows():
    indices = np.array([10, 11, 12, 13, 14])
    values = np.array([1.0, np.nan, 1.0])
    with pytest.raises(NonFiniteGradient, match="instance 11 "):
        check_finite(values, np.ones((3, 2)), indices, np.array([4, 1, 0]))
    with pytest.raises(NonFiniteGradient, match="instance 13 "):
        check_finite(values, np.ones((3, 2)), indices, slice(2, 5))


# --- one-sided masks --------------------------------------------------------------

def test_optimal_mask_directions_maximize():
    true = np.array([2.0, 1.9])
    inst = one_row(true, [1.0, 0.0])
    # selected coordinate: overprediction is harmless; underprediction is not
    w = one_row_weights("mse+o", [2.5, 1.0], inst, Sense.MAXIMIZE)
    np.testing.assert_array_equal(w, [0.0, 0.0])
    w = one_row_weights("mse+o", [1.5, 2.5], inst, Sense.MAXIMIZE)
    np.testing.assert_array_equal(w, [1.0, 1.0])
    # exact equality is never masked (and has zero error anyway)
    w = one_row_weights("mse+o", true, inst, Sense.MAXIMIZE)
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_optimal_mask_directions_minimize():
    inst = one_row([1.0, 2.0], [1.0, 0.0])
    # selected coordinate of a minimizer: underprediction is harmless
    w = one_row_weights("mse+o", [0.5, 3.0], inst, Sense.MINIMIZE)
    np.testing.assert_array_equal(w, [0.0, 0.0])
    w = one_row_weights("mse+o", [1.5, 1.0], inst, Sense.MINIMIZE)
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_fractional_coordinates_are_never_masked():
    # a Dataset holds only 0/1 decisions, so no fractional coordinate (as an
    # LP relaxation's x would have) ever reaches a mask
    with pytest.raises(ValueError, match="instance 0"):
        one_row([1.0, 1.0], [0.5, 0.5])


def test_sensitivity_mask_widens_safe_region():
    # pick-one-of-two: x*=(1,0) under c=(2,1.9); ranging gives c0 in [1.9,inf),
    # c1 in (-inf,2]. The prediction (1.95,1.99) flips the decision (regret
    # 0.1) yet stays inside both stability ranges, so O_S masks everything
    # while O does not: the sensitivity variant trades consistency for slack.
    oracle = pick_one_of_two()
    true = np.array([2.0, 1.9])
    x_star = oracle.solve_many(true[None])[0]
    lower, upper = solve_lp(oracle.relaxation, true, oracle.sense).ranges
    assert lower[0] == pytest.approx(1.9)
    assert upper[1] == pytest.approx(2.0)
    inst = one_row(true, x_star, lower, upper)
    predicted = np.array([1.95, 1.99])
    assert instance_regrets(oracle, [predicted], inst, [0])[0] == pytest.approx(0.1)
    assert loss_of(parse_loss("mse+o"), predicted, inst, oracle.sense)[0] > 0.0
    assert loss_of(parse_loss("mse+o_s"), predicted, inst, oracle.sense)[0] == 0.0
    mask = one_row_weights("mse+o_s", predicted, inst, oracle.sense)
    np.testing.assert_array_equal(mask, [0.0, 0.0])


def test_sensitivity_mask_minimize_directions():
    # minimize: a selected coordinate is masked while predicted below the
    # range's upper endpoint; unselected while above its lower endpoint
    inst = one_row([1.0, 2.0], [1.0, 0.0], lower=[0.0, 1.0], upper=[2.0, 5.0])
    w = one_row_weights("mse+o_s", [1.8, 1.5], inst, Sense.MINIMIZE)
    np.testing.assert_array_equal(w, [0.0, 0.0])
    w = one_row_weights("mse+o_s", [2.5, 0.5], inst, Sense.MINIMIZE)
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_mask_requires_caches():
    with pytest.raises(MissingOptimalDecision):
        stack_loss_data(parse_loss("mse+o"), one_row([1.0, 2.0]), [0], Sense.MAXIMIZE)
    with pytest.raises(MissingRanges):
        stack_loss_data(parse_loss("mse+o_s"), one_row([1.0, 2.0], [1.0, 0.0]), [0],
                        Sense.MAXIMIZE)


# --- composed evaluation -------------------------------------------------------

def test_plain_mse_and_mae_values():
    inst = one_row([1.0, 2.0, 3.0])
    value, grad = loss_of(parse_loss("mse"), np.array([2.0, 2.0, 1.0]), inst,
                          Sense.MAXIMIZE)
    assert value == pytest.approx((1.0 + 0.0 + 4.0) / 3.0)
    np.testing.assert_allclose(grad, [2.0 / 3.0, 0.0, -4.0 / 3.0])
    value, _ = loss_of(parse_loss("mae"), np.array([2.0, 2.0, 1.0]), inst, Sense.MAXIMIZE)
    assert value == pytest.approx(1.0)


def test_tau_half_with_cost_two_recovers_mse():
    inst = one_row([1.0, 2.0, 3.0], weight=2.0)
    spec = LossSpec(base=BaseError.SQUARED, instance_costs=True, tau=0.5)
    predicted = np.array([2.0, 1.5, 3.5])
    weighted, weighted_grad = loss_of(spec, predicted, inst, Sense.MAXIMIZE)
    plain, plain_grad = loss_of(parse_loss("mse"), predicted, inst, Sense.MAXIMIZE)
    assert weighted == pytest.approx(plain, abs=1e-12)
    np.testing.assert_allclose(weighted_grad, plain_grad, atol=1e-12)


def test_instance_cost_factor_and_errors():
    bare = one_row([1.0, 2.0])
    with pytest.raises(MissingInstanceCost):
        loss_of(parse_loss("mse+c"), np.array([0.0, 0.0]), bare, Sense.MAXIMIZE)
    weighted = one_row([1.0, 2.0], weight=3.0)
    value, _ = loss_of(parse_loss("mse+c"), np.array([0.0, 0.0]), weighted, Sense.MAXIMIZE)
    assert value == pytest.approx(3.0 * (1.0 + 4.0) / 2.0)


def test_lawless_factor_and_errors():
    bare = one_row([1.0, 2.0])
    with pytest.raises(MissingBaselineRegret):
        loss_of(parse_loss("lawless:0.4"), np.array([0.0, 0.0]), bare, Sense.MINIMIZE)
    # w=0 ignores the missing weight entirely and equals plain mse
    value, _ = loss_of(parse_loss("lawless:0"), np.array([0.0, 0.0]), bare, Sense.MINIMIZE)
    assert value == pytest.approx(2.5)
    inst = one_row([1.0, 2.0], weight=6.0)  # raw baseline regret
    value, _ = loss_of(parse_loss("lawless:0.4"), np.array([0.0, 0.0]), inst, Sense.MINIMIZE)
    assert value == pytest.approx((0.4 * 6.0 + 0.6) * 2.5)


def test_scale_invariant_orthogonal_frozen():
    # orthogonal unit vectors: (2/d)(1 - cos) = 1 at d=2
    value, _ = loss_of(parse_loss("mse+s"), np.array([0.0, 1.0]), one_row([1.0, 0.0]),
                       Sense.MAXIMIZE)
    assert value == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32 - 1))
def test_scale_invariant_equals_cosine_formula(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 12))
    c = rng.normal(0.0, 3.0, d)
    c_hat = rng.normal(0.0, 3.0, d)
    if np.linalg.norm(c) < 1e-6 or np.linalg.norm(c_hat) < 1e-6:
        return
    value, _ = loss_of(parse_loss("mse+s"), c_hat, one_row(c), Sense.MAXIMIZE)
    cos = float(c @ c_hat) / (np.linalg.norm(c) * np.linalg.norm(c_hat))
    assert value == pytest.approx((2.0 / d) * (1.0 - cos), abs=1e-10)


def test_scale_invariance_property():
    rng = np.random.default_rng(7)
    c = rng.uniform(0.5, 3.0, 6)
    c_hat = rng.uniform(0.5, 3.0, 6)
    inst = one_row(c)
    spec = parse_loss("mse+s")
    base = loss_of(spec, c_hat, inst, Sense.MAXIMIZE)[0]
    for alpha in (0.01, 0.5, 7.0, 4000.0):
        assert loss_of(spec, alpha * c_hat, inst,
                       Sense.MAXIMIZE)[0] == pytest.approx(base, abs=1e-10)
    assert loss_of(spec, c_hat, one_row(13.0 * c),
                   Sense.MAXIMIZE)[0] == pytest.approx(base, abs=1e-10)


def test_parallel_prediction_is_stationary_under_absolute_error():
    # the two sides are normalized by differently rounded norms; a prediction
    # parallel to the truth must still get the zero subgradient of a tie
    c = np.array([-0.45, 0.72, 2.97])
    inst = one_row(c)
    for predicted in (c, 2.0 * c):
        value, grad = loss_of(parse_loss("mae+s"), predicted, inst, Sense.MAXIMIZE)
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(grad, np.zeros(3))


def test_zero_prediction_gets_finite_escape():
    inst = one_row([3.0, 4.0], weight=2.0)
    value, grad = loss_of(parse_loss("mse+c+s"), np.zeros(2), inst, Sense.MAXIMIZE)
    assert value == pytest.approx(2.0 * 4.0 / 2)
    np.testing.assert_allclose(grad, -2.0 * np.array([0.6, 0.8]))
    assert np.all(np.isfinite(grad))


def test_masks_follow_normalized_space_when_scale_invariant():
    # raw comparison says "masked" (2.1 > 2) but the normalized prediction
    # drops below the normalized truth, so with S the coordinate is live
    true = np.array([2.0, 1.0])
    inst = one_row(true, [1.0, 0.0])
    predicted = np.array([2.1, 5.0])
    raw_mask = one_row_weights("mse+o", predicted, inst, Sense.MAXIMIZE)
    assert raw_mask[0] == 0.0
    value, _ = loss_of(parse_loss("mse+o+s"), predicted, inst, Sense.MAXIMIZE)
    u_hat, u = normalize(np.stack([predicted, true]), [0, 0])
    w = one_row_weights("mse+o+s", u_hat, inst, Sense.MAXIMIZE)
    assert w[0] == 1.0
    expected = float(w @ (u_hat - u) ** 2) / 2.0
    assert value == pytest.approx(expected, abs=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    true = rng.uniform(1.0, 4.0, 5)
    x_star = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    lower = true - rng.uniform(0.2, 0.5, 5)
    upper = true + rng.uniform(0.2, 0.5, 5)
    inst = one_row(true, x_star, lower, upper, weight=1.7)
    scale = 1.0 / float(np.linalg.norm(true))
    inst_s = one_row(true, x_star, lower * scale, upper * scale, weight=1.7)
    for name in ["mse", "mae", "mse+c", "mse+o", "mae+o", "mse+o_s", "mse+s",
                 "mae+s", "mse+c+o+s", "mae+c+o+s", "mse+o_s+s", "mse+tau:0.3"]:
        spec = parse_loss(name)
        data = stack_loss_data(spec, inst_s if spec.scale_invariant else inst, [0],
                               Sense.MAXIMIZE)
        for trial in range(5):
            predicted = true + rng.uniform(0.05, 0.4, 5) * rng.choice([-1.0, 1.0], 5)
            _, (grad,) = evaluate_loss_batch(predicted[None, :], data, [0])
            num = fd_grad(lambda p: evaluate_loss_batch(p[None, :], data, [0])[0][0],
                          predicted)
            scale = max(np.linalg.norm(grad), np.linalg.norm(num), 1e-6)
            assert np.linalg.norm(grad - num) / scale < 1e-5, name


# --- the batched kernel against the per-row reference -------------------------

REFERENCE_SPECS = ([f"{b}{s}" for b in ("mse", "mae")
                    for s in ("", "+c", "+o", "+s", "+c+o", "+c+s", "+o+s", "+c+o+s")]
                   + ["mse+o_s", "mse+o_s+s", "mae+o_s", "mae+o_s+s", "mse+tau:0.7",
                      "mae+tau:0.2", "tau per coordinate", "lawless:0",
                      "lawless:0.4", "mae+lawless:0.4"])
REFERENCE_ROWS = 32


def reference_case(name, seed):
    """A spec, a dataset of REFERENCE_ROWS instances carrying every cache,
    and predictions with exact ties to the truth and, under S, one
    exactly-zero row."""
    rng = np.random.default_rng(seed)
    n, d = REFERENCE_ROWS, int(rng.integers(2, 9))
    if name == "tau per coordinate":
        spec = replace(parse_loss("mse+tau:0.5"), tau=tuple(rng.uniform(0.0, 1.0, d)))
    else:
        spec = parse_loss(name)
    true = rng.normal(0.0, 3.0, (n, d))
    # binary decisions, some off by rounding dust the Dataset snaps away
    x_star = rng.choice([0.0, 1.0, 1.0 - 5e-10, 5e-10, -5e-10],
                        p=[0.4, 0.4, 0.1, 0.05, 0.05], size=(n, d))
    centre = true / np.linalg.norm(true, axis=1, keepdims=True) \
        if spec.scale_invariant else true
    lower = np.where(rng.random((n, d)) < 0.2, -np.inf,
                     centre - rng.uniform(0.0, 0.5, (n, d)))
    upper = np.where(rng.random((n, d)) < 0.2, np.inf,
                     centre + rng.uniform(0.0, 0.5, (n, d)))
    dataset = Dataset(features=np.zeros((n, 1)), costs=true, split=Split(train=range(n)),
                      x_star=x_star, lower=lower, upper=upper,
                      weights=[float(rng.uniform(0.0, 5.0)) for _ in range(n)])
    predicted = true * (1.0 + rng.normal(0.0, 0.3, (n, d)))
    ties = rng.random((n, d)) < 0.1
    predicted[ties] = true[ties]
    if spec.scale_invariant:
        predicted[int(rng.integers(n))] = 0.0
    return spec, dataset, predicted


def row_view(dataset, r):
    """Row r of a dataset in the per-instance shape that brute_loss reads."""
    return SimpleNamespace(true_costs=dataset.costs[r], instance_cost=dataset.weights[r],
                           optimal_decision=SimpleNamespace(values=dataset.x_star[r]),
                           sensitivity_ranges=SimpleNamespace(lower=dataset.lower[r],
                                                              upper=dataset.upper[r]))


@settings(max_examples=200)
@given(name=st.sampled_from(REFERENCE_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       maximize=st.booleans())
def test_batched_kernel_matches_per_row_reference(name, seed, maximize):
    spec, dataset, predicted = reference_case(name, seed)
    sense = Sense.MAXIMIZE if maximize else Sense.MINIMIZE
    data = stack_loss_data(spec, dataset, range(REFERENCE_ROWS), sense)
    order = np.random.default_rng(seed).permutation(REFERENCE_ROWS)
    per_size = []
    for size in (1, 7, REFERENCE_ROWS):
        values = np.empty(REFERENCE_ROWS)
        grads = np.empty_like(predicted)
        for start in range(0, REFERENCE_ROWS, size):
            rows = order[start:start + size]
            values[rows], grads[rows] = evaluate_loss_batch(predicted[rows], data, rows)
        per_size.append((values, grads))
    for values, grads in per_size[1:]:
        np.testing.assert_array_equal(values, per_size[0][0])
        np.testing.assert_array_equal(grads, per_size[0][1])

    values, grads = per_size[0]
    for r in range(REFERENCE_ROWS):
        value, grad = brute_loss(spec, predicted[r], row_view(dataset, r), maximize)
        np.testing.assert_allclose(values[r], value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[r], grad, rtol=1e-12, atol=1e-12)

    # masks on identical evaluation-space inputs, with coordinates set exactly
    # onto the thresholds they are compared against
    norms = np.linalg.norm(predicted, axis=1, keepdims=True)
    pred_eval = predicted / np.where(norms > 0.0, norms, 1.0) \
        if spec.scale_invariant else predicted.copy()
    lower, upper = dataset.lower, dataset.upper
    rng = np.random.default_rng(seed + 1)
    for threshold in (data.true, lower, upper):
        pick = (rng.random(pred_eval.shape) < 0.1) & np.isfinite(threshold)
        pred_eval[pick] = threshold[pick]
    rows = np.arange(REFERENCE_ROWS)
    weights = coordinate_weights(pred_eval, data, rows)
    if weights is None:  # a spec with neither a mask nor tau weighs every coordinate 1
        weights = np.ones_like(pred_eval)
    for r in range(REFERENCE_ROWS):
        expected = brute_weights(spec, pred_eval[r], data.true[r], dataset.x_star[r],
                                 lower[r], upper[r], maximize)
        np.testing.assert_array_equal(weights[r], expected)


def test_stacking_names_the_instance_missing_a_cache():
    weights = np.full(8, np.nan)
    weights[3] = 1.0
    dataset = Dataset(features=np.zeros((8, 1)), costs=np.ones((8, 2)), split=Split(),
                      weights=weights)
    with pytest.raises(MissingInstanceCost, match="instance 7"):
        stack_loss_data(parse_loss("mse+c"), dataset, [3, 7], Sense.MAXIMIZE)
    with pytest.raises(MissingOptimalDecision, match="instance 3"):
        stack_loss_data(parse_loss("mse+o"), dataset, [3, 7], Sense.MAXIMIZE)


def test_stacking_names_the_instance_with_a_zero_cost_vector():
    costs = np.ones((8, 2))
    costs[7] = 0.0
    dataset = Dataset(features=np.zeros((8, 1)), costs=costs, split=Split())
    with pytest.raises(ZeroVector, match=r"^instance 7\b"):
        stack_loss_data(parse_loss("mse+s"), dataset, [3, 7], Sense.MAXIMIZE)


@pytest.mark.parametrize("name", ["mse", "mae+c", "mse+o+s", "spo+"])
@pytest.mark.parametrize("shape", [(2, 1), (1, 4), (4,), (2, 5)])
def test_kernels_reject_a_prediction_of_the_wrong_shape(name, shape):
    # numpy broadcasting would give mse two values for a (2, 1), (1, 4) or
    # (4,) prediction; every kernel takes (len(rows), d) only
    oracle = KnapsackOracle(weights=[[1.0, 1.0, 1.0, 1.0]], capacities=[2.0])
    costs = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
    dataset = Dataset(features=np.zeros((2, 1)), costs=costs, split=Split(train=(0, 1)),
                      x_star=oracle.solve_many(costs), weights=[1.0, 2.0])
    spec = parse_loss(name)
    data = stack_loss_data(spec, dataset, [0, 1], oracle.sense)
    kernel = ((lambda p: spo_plus_batch(p, data, [0, 1], oracle)) if spec.spo_plus
              else (lambda p: evaluate_loss_batch(p, data, [0, 1])))
    values, grads = kernel(np.ones((2, 4)))
    assert values.shape == (2,) and grads.shape == (2, 4)
    with pytest.raises(DimensionMismatch, match=rf"\(2, 4\).*{re.escape(str(shape))}"):
        kernel(np.ones(shape))


# --- spo+ ----------------------------------------------------------------------

def test_spo_plus_frozen_example():
    oracle = pick_one_of_two()
    true = np.array([2.0, 1.0])
    inst = one_row(true, oracle.solve_many(true[None])[0])
    before = oracle.solves
    value, gradient = spo_plus(np.array([1.0, 2.0]), inst, oracle)
    # shifted costs (0,3) pick item 1: 3 - 2*1 + 2 = 3
    assert value == pytest.approx(3.0)
    np.testing.assert_allclose(gradient, [-2.0, 2.0])
    assert oracle.solves - before == 1
    # perfect prediction has zero surrogate value
    assert spo_plus(true, inst, oracle)[0] == pytest.approx(0.0)


def test_spo_plus_minimize_sense():
    oracle = ShortestPathOracle(rows=2, cols=2)
    true = np.array([1.0, 5.0, 2.0, 1.0])
    inst = one_row(true, oracle.solve_many(true[None])[0])
    assert spo_plus(true, inst, oracle)[0] == pytest.approx(0.0)
    assert spo_plus(np.array([5.0, 1.0, 1.0, 5.0]), inst, oracle)[0] > 0.0


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_spo_plus_upper_bounds_regret(seed):
    rng = np.random.default_rng(seed)
    oracle = KnapsackOracle(weights=rng.integers(1, 5, size=(1, 6)).astype(float),
                            capacities=[8.0])
    true = rng.uniform(0.5, 5.0, 6)
    inst = one_row(true, oracle.solve_many(true[None])[0])
    predicted = rng.uniform(0.5, 5.0, 6)
    surrogate = spo_plus(predicted, inst, oracle)[0]
    assert surrogate >= instance_regrets(oracle, [predicted], inst, [0])[0] - 1e-9


def test_spo_plus_requires_cached_decision():
    oracle = pick_one_of_two()
    with pytest.raises(MissingOptimalDecision):
        spo_plus(np.array([1.0, 1.0]), one_row([2.0, 1.0]), oracle)
