from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosdfl.core import (CostRangeVector, DataInstance, Decision, DecisionKind,
                         Sense, instance_regret)
from cosdfl.errors import (MissingBaselineRegret, MissingInstanceCost,
                           MissingOptimalDecision, MissingRanges, ZeroVector)
from cosdfl.losses import (BaseError, LossSpec, OneSidedMode, base_error,
                           coordinate_weights, evaluate_loss,
                           evaluate_loss_batch, lawless_loss, normalize,
                           one_sided_mask, one_sided_weights, parse_loss,
                           pinball_loss, spo_plus_loss, stack_loss_data)
from cosdfl.problems import KnapsackOracle, KnapsackSpec, ShortestPathOracle, GridSpec
from cosdfl.simplex import cost_ranging, relax, solve_lp

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
    return KnapsackOracle(KnapsackSpec(weights=np.array([[1.0, 1.0]]),
                                       capacities=np.array([1.0])))


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
    assert parse_loss("mse+c").requires_instance_cost
    assert parse_loss("lawless:0.4").requires_baseline_regret
    assert not parse_loss("lawless:0").requires_baseline_regret
    assert parse_loss("mse").solver_free
    assert parse_loss("mse+s").solver_free
    assert not parse_loss("spo+").solver_free


def test_validation_variant_strips_weighting():
    assert parse_loss("mse+c+o+s").validation_variant().name == "mse+o+s"
    assert parse_loss("lawless:0.4").validation_variant().name == "mse"
    assert parse_loss("mse+o").validation_variant().name == "mse+o"


# --- primitives -----------------------------------------------------------------

def test_pinball_frozen_values():
    # overprediction at tau=0.5 halves the squared error 4 -> 2
    assert pinball_loss(3.0, 1.0, 0.5, base=BaseError.SQUARED) == pytest.approx(2.0)
    # underprediction at tau=0.9 weighs the absolute error by 0.9
    assert pinball_loss(0.0, 1.0, 0.9, base=BaseError.ABSOLUTE) == pytest.approx(0.9)
    assert pinball_loss(1.0, 1.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        pinball_loss(1.0, 2.0, 1.5)


def test_base_error_values_and_derivatives():
    e, de = base_error(np.array([3.0, -1.0]), np.array([1.0, 1.0]), BaseError.SQUARED)
    np.testing.assert_allclose(e, [4.0, 4.0])
    np.testing.assert_allclose(de, [4.0, -4.0])
    e, de = base_error(np.array([3.0, -1.0]), np.array([1.0, 1.0]), BaseError.ABSOLUTE)
    np.testing.assert_allclose(e, [2.0, 2.0])
    np.testing.assert_allclose(de, [1.0, -1.0])


def test_normalize_frozen_and_zero_rejection():
    np.testing.assert_allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8])
    with pytest.raises(ZeroVector):
        normalize(np.zeros(3))


# --- one-sided masks --------------------------------------------------------------

def test_optimal_mask_directions_maximize():
    x_star = np.array([1.0, 0.0])
    true = np.array([2.0, 1.9])
    # selected coordinate: overprediction is harmless; underprediction is not
    w = one_sided_weights(np.array([2.5, 1.0]), true, x_star, Sense.MAXIMIZE,
                          OneSidedMode.OPTIMAL)
    np.testing.assert_array_equal(w, [0.0, 0.0])
    w = one_sided_weights(np.array([1.5, 2.5]), true, x_star, Sense.MAXIMIZE,
                          OneSidedMode.OPTIMAL)
    np.testing.assert_array_equal(w, [1.0, 1.0])
    # exact equality is never masked (and has zero error anyway)
    w = one_sided_weights(true, true, x_star, Sense.MAXIMIZE, OneSidedMode.OPTIMAL)
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_optimal_mask_directions_minimize():
    x_star = np.array([1.0, 0.0])
    true = np.array([1.0, 2.0])
    # selected coordinate of a minimizer: underprediction is harmless
    w = one_sided_weights(np.array([0.5, 3.0]), true, x_star, Sense.MINIMIZE,
                          OneSidedMode.OPTIMAL)
    np.testing.assert_array_equal(w, [0.0, 0.0])
    w = one_sided_weights(np.array([1.5, 1.0]), true, x_star, Sense.MINIMIZE,
                          OneSidedMode.OPTIMAL)
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_fractional_coordinates_are_never_masked():
    w = one_sided_weights(np.array([9.0, -9.0]), np.array([1.0, 1.0]),
                          np.array([0.5, 0.5]), Sense.MAXIMIZE,
                          OneSidedMode.OPTIMAL)
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_sensitivity_mask_widens_safe_region():
    # pick-one-of-two: x*=(1,0) under c=(2,1.9); ranging gives c0 in [1.9,inf),
    # c1 in (-inf,2]. The prediction (1.95,1.99) flips the decision (regret
    # 0.1) yet stays inside both stability ranges, so O_S masks everything
    # while O does not: the sensitivity variant trades consistency for slack.
    oracle = pick_one_of_two()
    true = np.array([2.0, 1.9])
    x_star = oracle.solve(true)
    lp = relax(oracle)
    ranges = cost_ranging(lp.with_objective(true), solve_lp(lp.with_objective(true)))
    assert ranges.lower[0] == pytest.approx(1.9)
    assert ranges.upper[1] == pytest.approx(2.0)
    inst = DataInstance(np.zeros(1), true, optimal_decision=x_star,
                        sensitivity_ranges=ranges)
    predicted = np.array([1.95, 1.99])
    assert instance_regret(oracle, predicted, inst) == pytest.approx(0.1)
    o_loss = evaluate_loss(parse_loss("mse+o"), predicted, inst, oracle.sense)
    os_loss = evaluate_loss(parse_loss("mse+o_s"), predicted, inst, oracle.sense)
    assert o_loss.value > 0.0
    assert os_loss.value == 0.0
    mask = one_sided_mask(predicted, inst, oracle.sense, OneSidedMode.SENSITIVITY)
    np.testing.assert_array_equal(mask, [0.0, 0.0])


def test_sensitivity_mask_minimize_directions():
    # minimize: a selected coordinate is masked while predicted below the
    # range's upper endpoint; unselected while above its lower endpoint
    x_star = np.array([1.0, 0.0])
    true = np.array([1.0, 2.0])
    lo = np.array([0.0, 1.0])
    hi = np.array([2.0, 5.0])
    w = one_sided_weights(np.array([1.8, 1.5]), true, x_star, Sense.MINIMIZE,
                          OneSidedMode.SENSITIVITY, range_lower=lo, range_upper=hi)
    np.testing.assert_array_equal(w, [0.0, 0.0])
    w = one_sided_weights(np.array([2.5, 0.5]), true, x_star, Sense.MINIMIZE,
                          OneSidedMode.SENSITIVITY, range_lower=lo, range_upper=hi)
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_mask_requires_caches():
    inst = DataInstance(np.zeros(1), np.array([1.0, 2.0]))
    with pytest.raises(MissingOptimalDecision):
        one_sided_mask(np.array([1.0, 1.0]), inst, Sense.MAXIMIZE,
                       OneSidedMode.OPTIMAL)
    inst = inst.with_decision(Decision(np.array([1.0, 0.0])))
    with pytest.raises(MissingRanges):
        one_sided_mask(np.array([1.0, 1.0]), inst, Sense.MAXIMIZE,
                       OneSidedMode.SENSITIVITY)


# --- composed evaluation -------------------------------------------------------

def test_plain_mse_and_mae_values():
    inst = DataInstance(np.zeros(1), np.array([1.0, 2.0, 3.0]))
    out = evaluate_loss(parse_loss("mse"), np.array([2.0, 2.0, 1.0]), inst,
                        Sense.MAXIMIZE)
    assert out.value == pytest.approx((1.0 + 0.0 + 4.0) / 3.0)
    np.testing.assert_allclose(out.gradient, [2.0 / 3.0, 0.0, -4.0 / 3.0])
    out = evaluate_loss(parse_loss("mae"), np.array([2.0, 2.0, 1.0]), inst,
                        Sense.MAXIMIZE)
    assert out.value == pytest.approx(1.0)


def test_tau_half_with_cost_two_recovers_mse():
    inst = DataInstance(np.zeros(1), np.array([1.0, 2.0, 3.0]), instance_cost=2.0)
    spec = LossSpec(base=BaseError.SQUARED, instance_costs=True, tau=0.5)
    predicted = np.array([2.0, 1.5, 3.5])
    weighted = evaluate_loss(spec, predicted, inst, Sense.MAXIMIZE)
    plain = evaluate_loss(parse_loss("mse"), predicted, inst, Sense.MAXIMIZE)
    assert weighted.value == pytest.approx(plain.value, abs=1e-12)
    np.testing.assert_allclose(weighted.gradient, plain.gradient, atol=1e-12)


def test_instance_cost_factor_and_errors():
    bare = DataInstance(np.zeros(1), np.array([1.0, 2.0]))
    with pytest.raises(MissingInstanceCost):
        evaluate_loss(parse_loss("mse+c"), np.array([0.0, 0.0]), bare, Sense.MAXIMIZE)
    weighted = bare.with_instance_cost(3.0)
    out = evaluate_loss(parse_loss("mse+c"), np.array([0.0, 0.0]), weighted,
                        Sense.MAXIMIZE)
    assert out.value == pytest.approx(3.0 * (1.0 + 4.0) / 2.0)


def test_lawless_factor_and_errors():
    bare = DataInstance(np.zeros(1), np.array([1.0, 2.0]))
    with pytest.raises(MissingBaselineRegret):
        lawless_loss(0.4, np.array([0.0, 0.0]), bare)
    # w=0 ignores the missing weight entirely and equals plain mse
    out0 = lawless_loss(0.0, np.array([0.0, 0.0]), bare)
    assert out0.value == pytest.approx(2.5)
    inst = bare.with_instance_cost(6.0)  # raw baseline regret
    out = lawless_loss(0.4, np.array([0.0, 0.0]), inst)
    assert out.value == pytest.approx((0.4 * 6.0 + 0.6) * 2.5)


def test_scale_invariant_orthogonal_frozen():
    # orthogonal unit vectors: (2/d)(1 - cos) = 1 at d=2
    inst = DataInstance(np.zeros(1), np.array([1.0, 0.0]))
    out = evaluate_loss(parse_loss("mse+s"), np.array([0.0, 1.0]), inst,
                        Sense.MAXIMIZE)
    assert out.value == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32 - 1))
def test_scale_invariant_equals_cosine_formula(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 12))
    c = rng.normal(0.0, 3.0, d)
    c_hat = rng.normal(0.0, 3.0, d)
    if np.linalg.norm(c) < 1e-6 or np.linalg.norm(c_hat) < 1e-6:
        return
    inst = DataInstance(np.zeros(1), c)
    out = evaluate_loss(parse_loss("mse+s"), c_hat, inst, Sense.MAXIMIZE)
    cos = float(c @ c_hat) / (np.linalg.norm(c) * np.linalg.norm(c_hat))
    assert out.value == pytest.approx((2.0 / d) * (1.0 - cos), abs=1e-10)


def test_scale_invariance_property():
    rng = np.random.default_rng(7)
    c = rng.uniform(0.5, 3.0, 6)
    c_hat = rng.uniform(0.5, 3.0, 6)
    inst = DataInstance(np.zeros(1), c)
    spec = parse_loss("mse+s")
    base = evaluate_loss(spec, c_hat, inst, Sense.MAXIMIZE).value
    for alpha in (0.01, 0.5, 7.0, 4000.0):
        assert evaluate_loss(spec, alpha * c_hat, inst,
                             Sense.MAXIMIZE).value == pytest.approx(base, abs=1e-10)
    inst_scaled = DataInstance(np.zeros(1), 13.0 * c)
    assert evaluate_loss(spec, c_hat, inst_scaled,
                         Sense.MAXIMIZE).value == pytest.approx(base, abs=1e-10)


def test_zero_prediction_gets_finite_escape():
    inst = DataInstance(np.zeros(1), np.array([3.0, 4.0]), instance_cost=2.0)
    out = evaluate_loss(parse_loss("mse+c+s"), np.zeros(2), inst, Sense.MAXIMIZE)
    assert out.value == pytest.approx(2.0 * 4.0 / 2)
    np.testing.assert_allclose(out.gradient, -2.0 * np.array([0.6, 0.8]))
    assert np.all(np.isfinite(out.gradient))


def test_masks_follow_normalized_space_when_scale_invariant():
    # raw comparison says "masked" (2.1 > 2) but the normalized prediction
    # drops below the normalized truth, so with S the coordinate is live
    true = np.array([2.0, 1.0])
    inst = DataInstance(np.zeros(1), true,
                        optimal_decision=Decision(np.array([1.0, 0.0])))
    predicted = np.array([2.1, 5.0])
    raw_mask = one_sided_weights(predicted, true, np.array([1.0, 0.0]),
                                 Sense.MAXIMIZE, OneSidedMode.OPTIMAL)
    assert raw_mask[0] == 0.0
    out = evaluate_loss(parse_loss("mse+o+s"), predicted, inst, Sense.MAXIMIZE)
    u_hat, u = normalize(predicted), normalize(true)
    w = one_sided_weights(u_hat, u, np.array([1.0, 0.0]), Sense.MAXIMIZE,
                          OneSidedMode.OPTIMAL)
    assert w[0] == 1.0
    expected = float(w @ (u_hat - u) ** 2) / 2.0
    assert out.value == pytest.approx(expected, abs=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    true = rng.uniform(1.0, 4.0, 5)
    x_star = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    ranges = CostRangeVector(true - rng.uniform(0.2, 0.5, 5),
                             true + rng.uniform(0.2, 0.5, 5))
    inst = DataInstance(np.zeros(1), true, optimal_decision=Decision(x_star),
                        sensitivity_ranges=ranges, instance_cost=1.7)
    norm_ranges = ranges.scaled(1.0 / float(np.linalg.norm(true)))
    inst_s = DataInstance(np.zeros(1), true, optimal_decision=Decision(x_star),
                          sensitivity_ranges=norm_ranges, instance_cost=1.7)
    for name in ["mse", "mae", "mse+c", "mse+o", "mae+o", "mse+o_s", "mse+s",
                 "mae+s", "mse+c+o+s", "mae+c+o+s", "mse+o_s+s", "mse+tau:0.3"]:
        spec = parse_loss(name)
        carrier = inst_s if spec.scale_invariant else inst
        for trial in range(5):
            predicted = true + rng.uniform(0.05, 0.4, 5) * rng.choice([-1.0, 1.0], 5)
            out = evaluate_loss(spec, predicted, carrier, Sense.MAXIMIZE)
            num = fd_grad(lambda p: evaluate_loss(spec, p, carrier,
                                                  Sense.MAXIMIZE).value, predicted)
            scale = max(np.linalg.norm(out.gradient), np.linalg.norm(num), 1e-6)
            assert np.linalg.norm(out.gradient - num) / scale < 1e-5, name


# --- the batched kernel against the per-row reference -------------------------

REFERENCE_SPECS = ([f"{b}{s}" for b in ("mse", "mae")
                    for s in ("", "+c", "+o", "+s", "+c+o", "+c+s", "+o+s", "+c+o+s")]
                   + ["mse+o_s", "mse+o_s+s", "mae+o_s", "mae+o_s+s", "mse+tau:0.7",
                      "mae+tau:0.2", "tau per coordinate", "lawless:0",
                      "lawless:0.4", "mae+lawless:0.4"])
REFERENCE_ROWS = 32


def reference_case(name, seed):
    """A spec, REFERENCE_ROWS instances carrying every cache, and predictions
    with exact ties to the truth and, under S, one exactly-zero row."""
    rng = np.random.default_rng(seed)
    n, d = REFERENCE_ROWS, int(rng.integers(2, 9))
    if name == "tau per coordinate":
        spec = replace(parse_loss("mse+tau:0.5"), tau=tuple(rng.uniform(0.0, 1.0, d)))
    else:
        spec = parse_loss(name)
    true = rng.normal(0.0, 3.0, (n, d))
    # mostly binary decisions; the rest sit just inside or just outside the
    # bound tolerances (1e-5 relative at 1, 1e-9 absolute at 0) or in between
    x_star = rng.choice([0.0, 1.0, 0.5, 1.0 - 5e-6, 1.0 - 2e-5, 5e-10, 2e-9],
                        p=[0.4, 0.4, 0.04, 0.04, 0.04, 0.04, 0.04], size=(n, d))
    centre = true / np.linalg.norm(true, axis=1, keepdims=True) \
        if spec.scale_invariant else true
    lower = np.where(rng.random((n, d)) < 0.2, -np.inf,
                     centre - rng.uniform(0.0, 0.5, (n, d)))
    upper = np.where(rng.random((n, d)) < 0.2, np.inf,
                     centre + rng.uniform(0.0, 0.5, (n, d)))
    instances = [DataInstance(np.zeros(1), true[r],
                              optimal_decision=Decision(x_star[r],
                                                        kind=DecisionKind.CONTINUOUS),
                              sensitivity_ranges=CostRangeVector(lower[r], upper[r]),
                              instance_cost=float(rng.uniform(0.0, 5.0)))
                 for r in range(n)]
    predicted = true * (1.0 + rng.normal(0.0, 0.3, (n, d)))
    ties = rng.random((n, d)) < 0.1
    predicted[ties] = true[ties]
    if spec.scale_invariant:
        predicted[int(rng.integers(n))] = 0.0
    return spec, instances, predicted


@settings(max_examples=200)
@given(name=st.sampled_from(REFERENCE_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       maximize=st.booleans())
def test_batched_kernel_matches_per_row_reference(name, seed, maximize):
    spec, instances, predicted = reference_case(name, seed)
    sense = Sense.MAXIMIZE if maximize else Sense.MINIMIZE
    data = stack_loss_data(spec, instances)
    order = np.random.default_rng(seed).permutation(REFERENCE_ROWS)
    per_size = []
    for size in (1, 7, REFERENCE_ROWS):
        values = np.empty(REFERENCE_ROWS)
        grads = np.empty_like(predicted)
        for start in range(0, REFERENCE_ROWS, size):
            rows = order[start:start + size]
            values[rows], grads[rows] = evaluate_loss_batch(spec, predicted[rows],
                                                            data, rows, sense)
        per_size.append((values, grads))
    for values, grads in per_size[1:]:
        np.testing.assert_array_equal(values, per_size[0][0])
        np.testing.assert_array_equal(grads, per_size[0][1])

    values, grads = per_size[0]
    for r, inst in enumerate(instances):
        value, grad = brute_loss(spec, predicted[r], inst, maximize)
        np.testing.assert_allclose(values[r], value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[r], grad, rtol=1e-12, atol=1e-12)

    # masks on identical evaluation-space inputs, with coordinates set exactly
    # onto the thresholds they are compared against
    norms = np.linalg.norm(predicted, axis=1, keepdims=True)
    pred_eval = predicted / np.where(norms > 0.0, norms, 1.0) \
        if spec.scale_invariant else predicted.copy()
    ranges = [inst.sensitivity_ranges for inst in instances]
    lower = np.stack([rv.lower for rv in ranges])
    upper = np.stack([rv.upper for rv in ranges])
    rng = np.random.default_rng(seed + 1)
    for threshold in (data.true, lower, upper):
        pick = (rng.random(pred_eval.shape) < 0.1) & np.isfinite(threshold)
        pred_eval[pick] = threshold[pick]
    rows = np.arange(REFERENCE_ROWS)
    weights = coordinate_weights(spec, pred_eval, data, rows, sense)
    for r, inst in enumerate(instances):
        expected = brute_weights(spec, pred_eval[r], data.true[r],
                                 inst.optimal_decision.values, lower[r], upper[r],
                                 maximize)
        np.testing.assert_array_equal(weights[r], expected)


def test_stacking_names_the_instance_missing_a_cache():
    insts = [DataInstance(np.zeros(1), np.array([1.0, 2.0]), instance_cost=1.0),
             DataInstance(np.zeros(1), np.array([2.0, 1.0]))]
    with pytest.raises(MissingInstanceCost, match="instance 7"):
        stack_loss_data(parse_loss("mse+c"), insts, [3, 7])
    with pytest.raises(MissingOptimalDecision, match="instance 3"):
        stack_loss_data(parse_loss("mse+o"), insts, [3, 7])


# --- spo+ ----------------------------------------------------------------------

def test_spo_plus_frozen_example():
    oracle = pick_one_of_two()
    true = np.array([2.0, 1.0])
    inst = DataInstance(np.zeros(1), true, optimal_decision=oracle.solve(true))
    oracle.counter.reset()
    out = spo_plus_loss(np.array([1.0, 2.0]), inst, oracle)
    # shifted costs (0,3) pick item 1: 3 - 2*1 + 2 = 3
    assert out.value == pytest.approx(3.0)
    np.testing.assert_allclose(out.gradient, [-2.0, 2.0])
    assert oracle.counter.count == 1
    # perfect prediction has zero surrogate value
    assert spo_plus_loss(true, inst, oracle).value == pytest.approx(0.0)


def test_spo_plus_minimize_sense():
    oracle = ShortestPathOracle(GridSpec(rows=2, cols=2))
    true = np.array([1.0, 5.0, 2.0, 1.0])
    inst = DataInstance(np.zeros(1), true, optimal_decision=oracle.solve(true))
    assert spo_plus_loss(true, inst, oracle).value == pytest.approx(0.0)
    out = spo_plus_loss(np.array([5.0, 1.0, 1.0, 5.0]), inst, oracle)
    assert out.value > 0.0


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_spo_plus_upper_bounds_regret(seed):
    rng = np.random.default_rng(seed)
    oracle = KnapsackOracle(KnapsackSpec(
        weights=rng.integers(1, 5, size=(1, 6)).astype(float),
        capacities=np.array([8.0])))
    true = rng.uniform(0.5, 5.0, 6)
    inst = DataInstance(np.zeros(1), true, optimal_decision=oracle.solve(true))
    predicted = rng.uniform(0.5, 5.0, 6)
    surrogate = spo_plus_loss(predicted, inst, oracle).value
    assert surrogate >= instance_regret(oracle, predicted, inst) - 1e-9


def test_spo_plus_requires_cached_decision():
    oracle = pick_one_of_two()
    inst = DataInstance(np.zeros(1), np.array([2.0, 1.0]))
    with pytest.raises(MissingOptimalDecision):
        spo_plus_loss(np.array([1.0, 1.0]), inst, oracle)
