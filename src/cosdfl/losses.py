"""Composable cost-sensitive losses over multi-output regression.

A loss is assembled from a base error (squared or absolute) and optional
components:

  C   multiply by a cached per-instance cost weight,
  O   zero out coordinates whose prediction errs in the direction the
      downstream optimizer is indifferent to (given the optimal decision),
  O_S like O but widened by objective-coefficient sensitivity ranges,
  S   evaluate on L2-normalized vectors so only the predicted direction
      matters.

There is one implementation, :func:`evaluate_loss_batch`, which returns the
values and prediction-gradients of a whole mini-batch in one array pass.
What it reads from the instances (true costs, normalized under S; the C or
regret weights; which coordinates of X* sit at a bound; the mask
thresholds; tau) is stacked once into a :class:`LossData` by
:func:`stack_loss_data`, which also raises the missing-cache errors.
:func:`evaluate_loss` is the one-row call of the kernel. Only ``spo+``
needs the solver and is evaluated row by row by :func:`spo_plus_loss`.

Masks and pinball indicators are treated as locally constant, so the
gradient is the almost-everywhere derivative (zero subgradient on the
measure-zero boundaries). With S the gradient is chained through the full
normalization Jacobian (I - u u') / ||c_hat||, u = c_hat / ||c_hat||.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import DataInstance, Problem, Sense, as_vector
from .errors import (MissingBaselineRegret, MissingInstanceCost,
                     MissingOptimalDecision, MissingRanges, NonFiniteGradient,
                     ZeroVector)

NORM_EPS = 1e-12
# value assigned when a scale-invariant loss sees a (near-)zero prediction:
# twice the maximum of the normalized squared error, scaled by 2/d at use site
ZERO_PREDICTION_PENALTY = 2.0 * 2.0


class BaseError(Enum):
    SQUARED = "squared"
    ABSOLUTE = "absolute"


class OneSidedMode(Enum):
    OFF = "off"
    OPTIMAL = "optimal"
    SENSITIVITY = "sensitivity"


@dataclass(frozen=True)
class LossValueGrad:
    value: float
    gradient: np.ndarray


@dataclass(frozen=True)
class LossSpec:
    """Declarative description of a composed loss.

    ``tau`` activates the generic asymmetric (pinball-weighted) form and is
    mutually exclusive with the one-sided components, which are the special
    case tau in {0, 1} chosen per coordinate from the optimal decision.
    """

    base: BaseError = BaseError.SQUARED
    instance_costs: bool = False
    one_sided: OneSidedMode = OneSidedMode.OFF
    scale_invariant: bool = False
    tau: float | tuple[float, ...] | None = None
    lawless_w: float | None = None
    spo_plus: bool = False

    def __post_init__(self):
        if self.spo_plus:
            if (self.instance_costs or self.one_sided is not OneSidedMode.OFF
                    or self.scale_invariant or self.tau is not None
                    or self.lawless_w is not None):
                raise ValueError("spo+ does not compose with other components")
            return
        if self.lawless_w is not None:
            w = float(self.lawless_w)
            if not 0.0 <= w <= 1.0:
                raise ValueError("lawless weight must lie in [0, 1]")
            if (self.instance_costs or self.one_sided is not OneSidedMode.OFF
                    or self.scale_invariant or self.tau is not None):
                raise ValueError("the regret-weighted loss only composes with a base error")
            object.__setattr__(self, "lawless_w", w)
        if self.tau is not None:
            if self.one_sided is not OneSidedMode.OFF:
                raise ValueError("tau and one-sided masking both set the asymmetry; pick one")
            taus = (self.tau,) if np.isscalar(self.tau) else tuple(self.tau)
            if any(not 0.0 <= float(t) <= 1.0 for t in taus):
                raise ValueError("tau values must lie in [0, 1]")
            object.__setattr__(self, "tau", float(taus[0]) if np.isscalar(self.tau)
                               else tuple(float(t) for t in taus))

    # -- requirements used by trainers and the harness ----------------------

    @property
    def requires_decisions(self) -> bool:
        return self.spo_plus or self.one_sided is not OneSidedMode.OFF

    @property
    def requires_ranges(self) -> bool:
        return self.one_sided is OneSidedMode.SENSITIVITY

    @property
    def requires_instance_cost(self) -> bool:
        return self.instance_costs

    @property
    def requires_baseline_regret(self) -> bool:
        return self.lawless_w is not None and self.lawless_w > 0.0

    @property
    def solver_free(self) -> bool:
        return not self.spo_plus

    def validation_variant(self) -> "LossSpec":
        """The loss used on validation instances, which carry no cost weights."""
        if self.spo_plus:
            return self
        return replace(self, instance_costs=False, lawless_w=None)

    # -- naming --------------------------------------------------------------

    @property
    def name(self) -> str:
        if self.spo_plus:
            return "spo+"
        base = "mse" if self.base is BaseError.SQUARED else "mae"
        if self.lawless_w is not None:
            tag = f"lawless:{self.lawless_w:g}"
            return tag if self.base is BaseError.SQUARED else f"{base}+{tag}"
        parts = [base]
        if self.instance_costs:
            parts.append("c")
        if self.one_sided is OneSidedMode.OPTIMAL:
            parts.append("o")
        elif self.one_sided is OneSidedMode.SENSITIVITY:
            parts.append("o_s")
        if self.scale_invariant:
            parts.append("s")
        if self.tau is not None:
            if np.isscalar(self.tau):
                parts.append(f"tau:{self.tau:g}")
            else:
                parts.append("tau:" + ",".join(f"{v:g}" for v in self.tau))
        return "+".join(parts)

    @staticmethod
    def parse(text: str) -> "LossSpec":
        """Parse loss strings: mse, mae+cos, mse+o_s+s, spo+, lawless:0.4."""
        text = text.strip().lower()
        if text == "spo+":
            return LossSpec(spo_plus=True)
        tokens = text.split("+")
        base = BaseError.SQUARED
        start = 0
        if tokens[0] in ("mse", "mae"):
            base = BaseError.SQUARED if tokens[0] == "mse" else BaseError.ABSOLUTE
            start = 1
        elif not tokens[0].startswith("lawless:"):
            raise ValueError(f"loss string must start with mse, mae, lawless:<w>, "
                             f"or be spo+; got {text!r}")
        kwargs: dict = {"base": base}
        for token in tokens[start:]:
            if token == "c":
                kwargs["instance_costs"] = True
            elif token == "o":
                _set_one_sided(kwargs, OneSidedMode.OPTIMAL)
            elif token == "o_s":
                _set_one_sided(kwargs, OneSidedMode.SENSITIVITY)
            elif token == "s":
                kwargs["scale_invariant"] = True
            elif token == "cos":
                kwargs["instance_costs"] = True
                _set_one_sided(kwargs, OneSidedMode.OPTIMAL)
                kwargs["scale_invariant"] = True
            elif token.startswith("lawless:"):
                kwargs["lawless_w"] = float(token.split(":", 1)[1])
            elif token.startswith("tau:"):
                spec = token.split(":", 1)[1]
                vals = tuple(float(v) for v in spec.split(","))
                kwargs["tau"] = vals[0] if len(vals) == 1 else vals
            else:
                raise ValueError(f"unknown loss component {token!r} in {text!r}")
        return LossSpec(**kwargs)


def _set_one_sided(kwargs: dict, mode: OneSidedMode) -> None:
    if kwargs.get("one_sided", OneSidedMode.OFF) is not OneSidedMode.OFF:
        raise ValueError("components o and o_s are mutually exclusive")
    kwargs["one_sided"] = mode


def parse_loss(text: str) -> LossSpec:
    return LossSpec.parse(text)


# --- primitives --------------------------------------------------------------

def base_error(predicted: np.ndarray, true: np.ndarray, base: BaseError
               ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise error and its derivative in the prediction."""
    diff = predicted - true
    if base is BaseError.SQUARED:
        return diff * diff, 2.0 * diff
    return np.abs(diff), np.sign(diff)


def pinball_loss(predicted: float, true: float, tau: float,
                 base: BaseError = BaseError.ABSOLUTE) -> float:
    """Asymmetric scalar error: tau * e if predicted <= true else (1-tau) * e."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    e, _ = base_error(np.asarray([float(predicted)]), np.asarray([float(true)]), base)
    weight = tau if predicted <= true else 1.0 - tau
    return float(weight * e[0])


def normalize(vector: np.ndarray) -> np.ndarray:
    """Project onto the unit sphere; rejects (near-)zero input."""
    vector = as_vector(vector, name="vector")
    norm = float(np.linalg.norm(vector))
    if norm <= NORM_EPS:
        raise ZeroVector(f"cannot normalize a vector with norm {norm:.3e}")
    return vector / norm


def _at_bounds(decision_values: np.ndarray, var_lower: float | np.ndarray = 0.0,
               var_upper: float | np.ndarray = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Which coordinates of a decision sit at their upper and lower bound."""
    return (np.isclose(decision_values, var_upper, atol=1e-9),
            np.isclose(decision_values, var_lower, atol=1e-9))


def _masked(predicted: np.ndarray, lower: np.ndarray, upper: np.ndarray,
            at_upper: np.ndarray, at_lower: np.ndarray, sense: Sense) -> np.ndarray:
    """True where the prediction errs only in the direction the decision ignores."""
    if sense is Sense.MAXIMIZE:
        return (at_upper & (predicted > lower)) | (at_lower & (predicted < upper))
    return (at_upper & (predicted < upper)) | (at_lower & (predicted > lower))


def one_sided_weights(predicted: np.ndarray, true: np.ndarray,
                      decision_values: np.ndarray, sense: Sense,
                      mode: OneSidedMode,
                      range_lower: np.ndarray | None = None,
                      range_upper: np.ndarray | None = None,
                      var_lower: float | np.ndarray = 0.0,
                      var_upper: float | np.ndarray = 1.0) -> np.ndarray:
    """0/1 weights zeroing error directions the optimizer is indifferent to.

    A coordinate at its upper bound (selected) keeps its decision when the
    prediction errs toward making it more attractive: overprediction for
    Maximize, underprediction for Minimize. Coordinates at the lower bound
    mirror this; coordinates strictly between their bounds are never masked.
    In SENSITIVITY mode the safe region is widened to the coefficient's
    stability range, so e.g. a selected Maximize coordinate is masked
    whenever the prediction stays above the range's lower endpoint.
    """
    if mode is OneSidedMode.OFF:
        return np.ones_like(true)
    at_upper, at_lower = _at_bounds(decision_values, var_lower, var_upper)
    if mode is OneSidedMode.OPTIMAL:
        hi, lo = true, true
    else:
        if range_lower is None or range_upper is None:
            raise MissingRanges("sensitivity masking requires cached cost ranges")
        lo, hi = range_lower, range_upper
    return np.where(_masked(predicted, lo, hi, at_upper, at_lower, sense), 0.0, 1.0)


def one_sided_mask(predicted: np.ndarray, instance: DataInstance, sense: Sense,
                   mode: OneSidedMode) -> np.ndarray:
    """Mask for a raw-space prediction against an instance's cached caches."""
    predicted = as_vector(predicted, name="predicted costs", length=instance.d)
    if instance.optimal_decision is None:
        raise MissingOptimalDecision("one-sided masking requires the cached optimal decision")
    lo = hi = None
    if mode is OneSidedMode.SENSITIVITY:
        if instance.sensitivity_ranges is None:
            raise MissingRanges("sensitivity masking requires cached cost ranges")
        lo, hi = instance.sensitivity_ranges.lower, instance.sensitivity_ranges.upper
    return one_sided_weights(predicted, instance.true_costs,
                             instance.optimal_decision.values, sense, mode,
                             range_lower=lo, range_upper=hi)


# --- composed evaluation ------------------------------------------------------

@dataclass(frozen=True)
class LossData:
    """The per-instance arrays a loss reads, stacked once per set of instances.

    Row r describes dataset instance ``indices[r]``. ``true`` holds the true
    costs in evaluation space (unit-norm rows when the spec has S) and
    ``factor`` the C or regret weight (ones without one). The one-sided
    fields are set only for a spec with O or O_S: which coordinates of X*
    sit at their upper and lower bound, and the thresholds the prediction
    is compared against (the true costs, or the O_S range bounds). ``tau``
    is set only for a pinball-weighted spec.
    """

    indices: np.ndarray
    true: np.ndarray
    factor: np.ndarray
    at_upper: np.ndarray | None = None
    at_lower: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    tau: np.ndarray | None = None


def _instance_factors(spec: LossSpec, instances: tuple[DataInstance, ...],
                      indices: np.ndarray) -> np.ndarray:
    costs = [inst.instance_cost for inst in instances]
    if spec.instance_costs:
        if None in costs:
            i = indices[costs.index(None)]
            raise MissingInstanceCost(f"loss has component C but instance {i} "
                                      "carries no cost weight")
        return np.array(costs, dtype=float)
    if spec.lawless_w is not None and spec.lawless_w != 0.0:
        if None in costs:
            i = indices[costs.index(None)]
            raise MissingBaselineRegret("regret-weighted loss requires the cached "
                                        f"baseline regret of instance {i}")
        w = spec.lawless_w
        return w * np.array(costs, dtype=float) + (1.0 - w)
    return np.ones(len(instances))


def stack_loss_data(spec: LossSpec, instances, indices=None) -> LossData:
    """Stack what ``spec`` needs from ``instances``; ``indices`` are their
    dataset indices (0..n-1 when omitted), used to name a failing instance.

    Raises the missing-cache errors (and ZeroVector for an all-zero true cost
    vector under S) here, before any evaluation.
    """
    if spec.spo_plus:
        raise ValueError("spo+ is evaluated via spo_plus_loss (it needs the problem oracle)")
    instances = tuple(instances)
    indices = np.arange(len(instances)) if indices is None else np.asarray(indices)
    factor = _instance_factors(spec, instances, indices)
    if spec.scale_invariant:
        true = np.stack([normalize(inst.true_costs) for inst in instances])
    else:
        true = np.stack([inst.true_costs for inst in instances])
    d = true.shape[1]
    fields: dict = {}
    if spec.one_sided is not OneSidedMode.OFF:
        for i, inst in zip(indices, instances):
            if inst.optimal_decision is None:
                raise MissingOptimalDecision("one-sided loss requires the cached "
                                             f"optimal decision of instance {i}")
        fields["at_upper"], fields["at_lower"] = _at_bounds(
            np.stack([inst.optimal_decision.values for inst in instances]))
        if spec.one_sided is OneSidedMode.SENSITIVITY:
            for i, inst in zip(indices, instances):
                if inst.sensitivity_ranges is None:
                    raise MissingRanges("sensitivity loss requires cached cost "
                                        f"ranges of instance {i}")
            fields["lower"] = np.stack([inst.sensitivity_ranges.lower for inst in instances])
            fields["upper"] = np.stack([inst.sensitivity_ranges.upper for inst in instances])
        else:
            fields["lower"] = fields["upper"] = true
    elif spec.tau is not None:
        tau = np.full(d, spec.tau) if np.isscalar(spec.tau) else np.asarray(spec.tau, dtype=float)
        if tau.shape[0] != d:
            raise ValueError(f"tau must be scalar or length {d}")
        fields["tau"] = tau
    return LossData(indices=indices, true=true, factor=factor, **fields)


def coordinate_weights(spec: LossSpec, predicted: np.ndarray, data: LossData,
                       rows, sense: Sense) -> np.ndarray:
    """(B, d) weights of the base error at evaluation-space predictions: the
    one-sided 0/1 mask, the pinball tau / 1 - tau, or ones."""
    if spec.one_sided is not OneSidedMode.OFF:
        masked = _masked(predicted, data.lower[rows], data.upper[rows],
                         data.at_upper[rows], data.at_lower[rows], sense)
        return np.where(masked, 0.0, 1.0)
    if spec.tau is not None:
        return np.where(predicted <= data.true[rows], data.tau, 1.0 - data.tau)
    return np.ones_like(predicted)


def check_finite(values: np.ndarray, gradients: np.ndarray, indices) -> None:
    """Raise NonFiniteGradient naming the first instance whose loss value or
    gradient is NaN or infinite; ``indices`` gives each row's instance."""
    bad = ~(np.isfinite(values) & np.isfinite(gradients).all(axis=1))
    if bad.any():
        raise NonFiniteGradient(f"loss or gradient of instance "
                                f"{indices[int(np.argmax(bad))]} evaluated to a "
                                "non-finite value")


def evaluate_loss_batch(spec: LossSpec, predicted: np.ndarray, data: LossData,
                        rows, sense: Sense) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) and prediction-gradients (B, d) of a composed loss.

    Row b of ``predicted`` is the prediction for row ``rows[b]`` of ``data``;
    ``rows`` is an index array or a slice. Nothing in ``data`` is written.
    With S the masks and the O_S ranges are read in normalized space, and a
    (near-)zero prediction row gets a finite penalty whose gradient points
    back toward the true direction.
    """
    true = data.true[rows]
    factor = data.factor[rows]
    d = true.shape[1]
    if spec.scale_invariant:
        norms = np.sqrt((predicted * predicted).sum(axis=1))
        zero = norms <= NORM_EPS
        norms[zero] = 1.0
        pred = predicted / norms[:, None]
    else:
        pred = predicted
    weights = coordinate_weights(spec, pred, data, rows, sense)
    errors, derror = base_error(pred, true, spec.base)
    values = factor * (weights * errors).sum(axis=1) / d
    grads = (factor / d)[:, None] * weights * derror
    if spec.scale_invariant:
        # chain through the normalization Jacobian (I - u u') / ||c_hat||
        grads = (grads - pred * (pred * grads).sum(axis=1)[:, None]) / norms[:, None]
        values[zero] = factor[zero] * ZERO_PREDICTION_PENALTY / d
        grads[zero] = -factor[zero, None] * true[zero]
    check_finite(values, grads, data.indices[rows])
    return values, grads


def evaluate_loss(spec: LossSpec, predicted: np.ndarray, instance: DataInstance,
                  sense: Sense) -> LossValueGrad:
    """Value and prediction-gradient of a composed loss on one instance.

    A one-row call of :func:`evaluate_loss_batch`. With S, the instance's
    cached sensitivity ranges are interpreted as already living in
    normalized space (they must be computed from the normalized true costs).
    """
    predicted = as_vector(predicted, name="predicted costs", length=instance.d)
    data = stack_loss_data(spec, [instance])
    values, grads = evaluate_loss_batch(spec, predicted[None, :], data, slice(None), sense)
    return LossValueGrad(float(values[0]), grads[0])


def spo_plus_loss(predicted: np.ndarray, instance: DataInstance,
                  problem: Problem) -> LossValueGrad:
    """Convex surrogate that upper-bounds regret; costs one solver call.

    Solves the problem at 2*predicted - true and compares against the cached
    optimal decision. The gradient is the standard subgradient
    +/- 2 (x(2c_hat - c) - x(c)).
    """
    predicted = as_vector(predicted, name="predicted costs", length=problem.d)
    if instance.optimal_decision is None:
        raise MissingOptimalDecision("spo+ requires the cached optimal decision")
    true = instance.true_costs
    x_star = instance.optimal_decision.values
    shifted = 2.0 * predicted - true
    x_shift = problem.solve(shifted).values
    if problem.sense is Sense.MAXIMIZE:
        value = float(shifted @ x_shift) - 2.0 * float(predicted @ x_star) \
            + float(true @ x_star)
        grad = 2.0 * (x_shift - x_star)
    else:
        value = -float(shifted @ x_shift) + 2.0 * float(predicted @ x_star) \
            - float(true @ x_star)
        grad = 2.0 * (x_star - x_shift)
    return LossValueGrad(value, grad)


def lawless_loss(w: float, predicted: np.ndarray, instance: DataInstance,
                 base: BaseError = BaseError.SQUARED) -> LossValueGrad:
    """Baseline-regret-weighted base loss: (w * C + (1 - w)) * base_loss.

    C is the instance's cached raw baseline regret (not a regret/loss ratio).
    """
    spec = LossSpec(base=base, lawless_w=float(w))
    # sense is irrelevant: no mask component can be active here
    return evaluate_loss(spec, predicted, instance, Sense.MINIMIZE)
