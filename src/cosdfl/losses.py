"""Composable cost-sensitive losses over multi-output regression.

A loss is assembled from a base error (squared or absolute) and optional
components:

  C   multiply by a cached per-instance cost weight,
  O   zero out coordinates whose prediction errs in the direction the
      downstream optimizer is indifferent to (given the optimal decision),
  O_S like O but widened by objective-coefficient sensitivity ranges,
  S   evaluate on L2-normalized vectors so only the predicted direction
      matters.

:func:`stack_loss_data` binds a spec to a set of dataset rows once, as a
:class:`LossData`, and :func:`evaluate_loss_batch`, the one implementation,
returns the values and prediction-gradients of a whole mini-batch in one
array pass. Only ``spo+`` needs the solver: :func:`spo_plus_batch` makes one
batched oracle solve per mini-batch.

Masks and pinball indicators are treated as locally constant, so the
gradient is the almost-everywhere derivative (zero subgradient on the
measure-zero boundaries). With S the gradient is chained through the full
normalization Jacobian (I - u u') / ||c_hat||, u = c_hat / ||c_hat||.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import Dataset, Problem, Sense, row_dots
from .errors import (DimensionMismatch, MissingBaselineRegret,
                     MissingInstanceCost, MissingOptimalDecision, MissingRanges,
                     NonFiniteGradient, ZeroVector)

NORM_EPS = 1e-12
# absolute errors this small are ties: the two sides of a unit-vector
# comparison are normalized by differently rounded norms, so a prediction
# parallel to the truth would otherwise get a subgradient of rounding noise
TIE_EPS = 1e-15
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


# The loss grammar: each name token in the order names list them, with the
# LossSpec field it sets and the value it sets it to, where ``float`` reads
# the number after ``token:``. ``cos`` is short for ``c+o+s``.
_TOKENS = {"mse": ("base", BaseError.SQUARED), "mae": ("base", BaseError.ABSOLUTE),
           "c": ("instance_costs", True), "o": ("one_sided", OneSidedMode.OPTIMAL),
           "o_s": ("one_sided", OneSidedMode.SENSITIVITY), "s": ("scale_invariant", True),
           "lawless": ("lawless_w", float), "tau": ("tau", float)}


@dataclass(frozen=True)
class LossSpec:
    """Declarative description of a composed loss. ``tau`` gives the generic
    asymmetric (pinball-weighted) form: weight ``tau`` on underprediction and
    ``1 - tau`` on overprediction, alike on every coordinate."""

    base: BaseError = BaseError.SQUARED
    instance_costs: bool = False
    one_sided: OneSidedMode = OneSidedMode.OFF
    scale_invariant: bool = False
    tau: float | None = None
    lawless_w: float | None = None
    spo_plus: bool = False

    def __post_init__(self):
        # spo+ stands alone, lawless takes only a base, tau excludes O and
        # O_S, and both weights lie in [0, 1]
        tokens = [token for token, _ in self._named()]
        if self.spo_plus and tokens[1:]:
            raise ValueError("spo+ does not compose with other components")
        if self.lawless_w is not None and tokens[2:]:
            raise ValueError("the regret-weighted loss only composes with a base error")
        if self.tau is not None and self.one_sided is not OneSidedMode.OFF:
            raise ValueError("tau and one-sided masking both set the asymmetry; pick one")
        for field, what in (("lawless_w", "lawless weight"), ("tau", "tau values")):
            if getattr(self, field) is not None:
                object.__setattr__(self, field, float(getattr(self, field)))
                if not 0.0 <= getattr(self, field) <= 1.0:
                    raise ValueError(f"{what} must lie in [0, 1]")

    def _named(self) -> list[tuple[str, object]]:
        """(token, field value) of each ``_TOKENS`` entry this spec sets."""
        return [(token, getattr(self, field)) for token, (field, value) in _TOKENS.items()
                if (getattr(self, field) is not None if value is float
                    else getattr(self, field) == value)]

    # -- requirements used by trainers and the harness ----------------------

    @property
    def requires_decisions(self) -> bool:
        return self.spo_plus or self.one_sided is not OneSidedMode.OFF

    @property
    def requires_ranges(self) -> bool:
        return self.one_sided is OneSidedMode.SENSITIVITY

    @property
    def requires_baseline_regret(self) -> bool:
        return self.lawless_w is not None and self.lawless_w > 0.0

    def validation_variant(self) -> "LossSpec":
        """The loss used on validation instances, which carry no cost weights."""
        return replace(self, instance_costs=False, lawless_w=None)

    # -- naming --------------------------------------------------------------

    @property
    def name(self) -> str:
        if self.spo_plus:
            return "spo+"
        parts = [f"{token}:{value:g}" if isinstance(value, float) else token
                 for token, value in self._named()]
        implied = self.lawless_w is not None and self.base is BaseError.SQUARED
        return "+".join(parts[implied:])  # lawless:<w> implies the mse base


def parse_loss(text: str) -> LossSpec:
    """Parse loss strings: mse, mae+cos, mse+o_s+s, spo+, lawless:0.4."""
    text = text.strip().lower()
    if text == "spo+":
        return LossSpec(spo_plus=True)
    tokens = text.split("+")
    if tokens[0].startswith("lawless:"):
        tokens.insert(0, "mse")
    if tokens[0] not in ("mse", "mae"):
        raise ValueError(f"loss string must start with mse, mae, lawless:<w>, "
                         f"or be spo+; got {text!r}")
    fields, set_by = {"base": _TOKENS[tokens[0]][1]}, {}  # field -> its token
    for token in tokens[1:]:
        for part in ("c", "o", "s") if token == "cos" else (token,):
            key, colon, arg = part.partition(":")
            field, value = _TOKENS.get(key, ("base", None))
            try:  # a base, a bad value or a missing or extra ":" is no component
                if field == "base" or (value is float) != bool(colon):
                    raise ValueError
                value = float(arg) if colon else value
            except ValueError:
                raise ValueError(f"unknown loss component {token!r} in {text!r}") from None
            if field in set_by:
                raise ValueError(f"components {set_by[field]!r} and {token!r} of {text!r} "
                                 f"both set {field}")
            fields[field], set_by[field] = value, token
    return LossSpec(**fields)


# --- primitives --------------------------------------------------------------

def base_error(predicted: np.ndarray, true: np.ndarray, base: BaseError
               ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise error and its derivative in the prediction."""
    diff = predicted - true
    if base is BaseError.SQUARED:
        return diff * diff, 2.0 * diff
    error = np.abs(diff)
    return error, np.where(error <= TIE_EPS, 0.0, np.sign(diff))


def normalize(rows: np.ndarray, indices) -> np.ndarray:
    """Project each row of an (n, d) array onto the unit sphere; a row of norm
    at most NORM_EPS raises ZeroVector naming its instance ``indices[r]``."""
    norms = np.sqrt(row_dots(rows, rows))
    small = norms <= NORM_EPS
    if small.any():
        r = int(np.argmax(small))
        raise ZeroVector(f"instance {indices[r]}: cannot normalize costs of norm {norms[r]:.3e}")
    return rows / norms[:, None]


# --- composed evaluation ------------------------------------------------------

@dataclass(frozen=True)
class LossData:
    """A spec bound to a set of dataset rows: what its loss reads, sliced once.

    Row r describes dataset instance ``indices[r]``. ``true`` holds the true
    costs in evaluation space (unit-norm rows when the spec has S) and
    ``factor`` the C or regret weight, or None when every row's weight is 1
    (no C or regret weight, or ``lawless:0``). ``safe_lo`` and ``safe_hi``
    are set only for a spec with O or O_S: the open interval, per
    coordinate, inside which a prediction error is masked
    (``coordinate_weights`` says when that keeps X* optimal,
    ``stack_loss_data`` how it is fixed). ``x_star`` (X* itself) and
    ``true_value`` (each row's objective at X*, ``row_dots(true, x_star)``)
    are set only for spo+. Which of these fields is None, and ``spec.tau``,
    decide once per binding which multiplies :func:`evaluate_loss_batch`
    makes: a mask, a pinball weight, a row weight, or none of them.
    """

    spec: LossSpec
    indices: np.ndarray
    true: np.ndarray
    factor: np.ndarray | None
    safe_lo: np.ndarray | None = None
    safe_hi: np.ndarray | None = None
    x_star: np.ndarray | None = None
    true_value: np.ndarray | None = None


def instance_factor(spec: LossSpec, dataset: Dataset, indices) -> np.ndarray | None:
    """The C or regret weight of each of the rows ``indices``; None when
    ``spec`` weights no instance or every weight is exactly 1."""
    if not (spec.instance_costs or spec.requires_baseline_regret):
        return None
    indices = np.asarray(indices, dtype=int)
    missing = dataset.uncached("weights", indices)
    if missing and spec.instance_costs:
        raise MissingInstanceCost(f"loss has component C but instance {missing[0]} "
                                  "carries no cost weight")
    if missing:
        raise MissingBaselineRegret("regret-weighted loss requires the cached "
                                    f"baseline regret of instance {missing[0]}")
    factor = dataset.weights[indices]
    if not spec.instance_costs:
        # (w * C + (1 - w)), with C the raw baseline regret, not a ratio
        w = spec.lawless_w
        factor = w * factor + (1.0 - w)
    return None if np.all(factor == 1.0) else factor  # a factor of ones multiplies nothing


def stack_loss_data(spec: LossSpec, dataset: Dataset, indices, sense: Sense) -> LossData:
    """Bind ``spec`` to the rows ``indices`` of ``dataset`` under ``sense``.

    Raises the missing-cache errors, naming the first dataset index with no
    cache attached, and under S ZeroVector naming the first instance whose
    true cost vector is (near) zero, here, before any evaluation.
    """
    indices = np.asarray(indices, dtype=int)
    factor = instance_factor(spec, dataset, indices)
    true = dataset.costs[indices]
    if spec.scale_invariant:
        true = normalize(true, indices)
    fields: dict = {}
    if spec.requires_decisions:
        missing = dataset.uncached("x_star", indices)
        if missing:
            raise MissingOptimalDecision(f"{spec.name} requires the cached "
                                         f"optimal decision of instance {missing[0]}")
        x_star = dataset.x_star[indices]
    if spec.spo_plus:
        fields["x_star"] = x_star
        fields["true_value"] = row_dots(true, x_star)
    elif spec.one_sided is not OneSidedMode.OFF:
        if spec.one_sided is OneSidedMode.SENSITIVITY:
            missing = dataset.uncached("lower", indices)
            if missing:
                raise MissingRanges("sensitivity loss requires cached cost "
                                    f"ranges of instance {missing[0]}")
            lower, upper = dataset.lower[indices], dataset.upper[indices]
        else:
            lower = upper = true
        # X* is exact 0/1 (the Dataset snaps it). A coordinate whose decision
        # survives any rise of its cost is safe above lower, any other below upper
        rise_safe = x_star == (1.0 if sense is Sense.MAXIMIZE else 0.0)
        fields["safe_lo"] = np.where(rise_safe, lower, -np.inf)
        fields["safe_hi"] = np.where(rise_safe, np.inf, upper)
    return LossData(spec=spec, indices=indices, true=true, factor=factor, **fields)


def coordinate_weights(predicted: np.ndarray, data: LossData, rows) -> np.ndarray | None:
    """(B, d) weights of the base error at evaluation-space predictions: the
    one-sided 0/1 mask, the pinball tau / 1 - tau, or None for a spec with
    neither, whose weights are all 1.

    The one-sided mask zeroes a coordinate whose prediction lies strictly
    inside its safe interval ``(data.safe_lo, data.safe_hi)``, where the
    error is in the direction the optimizer is indifferent to: e.g. a
    selected Maximize coordinate keeps its decision when overpredicted.
    Under O the interval ends at the true cost; under O_S it is widened to
    the coefficient's basis range in the LP relaxation, so that coordinate
    is masked whenever the prediction stays above the range's lower
    endpoint, which keeps the relaxation's vertex (not always X*; README
    gives the share of instances where it is X*) optimal.
    """
    if data.safe_lo is not None:
        safe = (predicted > data.safe_lo[rows]) & (predicted < data.safe_hi[rows])
        return np.where(safe, 0.0, 1.0)
    if data.spec.tau is not None:
        return np.where(predicted <= data.true[rows], data.spec.tau, 1.0 - data.spec.tau)
    return None


def _check_batch(predicted: np.ndarray, true: np.ndarray) -> None:
    """Raise DimensionMismatch unless ``predicted`` has the (len(rows), d)
    shape of the sliced true costs ``true``."""
    if np.shape(predicted) != true.shape:
        raise DimensionMismatch(f"predicted costs must have shape {true.shape} "
                                f"(len(rows), d), got {np.shape(predicted)}")


def check_finite(values: np.ndarray, gradients: np.ndarray, indices, rows) -> None:
    """Raise NonFiniteGradient naming the first instance whose loss value or
    gradient is NaN or infinite; row b is instance ``indices[rows][b]``, with
    ``rows`` an index array or a slice, gathered only to name a bad one.

    A NaN or infinite entry makes the sum of all entries NaN or infinite, so
    a finite sum clears the batch in two reductions. Only a non-finite sum,
    which finite entries can also reach by overflow, searches row by row.
    """
    if math.isfinite(np.add.reduce(values) + np.add.reduce(gradients, axis=None)):
        return
    bad = ~(np.isfinite(values) & np.isfinite(gradients).all(axis=1))
    if bad.any():
        raise NonFiniteGradient(f"loss or gradient of instance "
                                f"{indices[rows][int(np.argmax(bad))]} evaluated to a "
                                "non-finite value")


def evaluate_loss_batch(predicted: np.ndarray, data: LossData,
                        rows) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) and prediction-gradients (B, d) of a composed loss.

    Row b of ``predicted`` is the prediction for row ``rows[b]`` of ``data``;
    ``rows`` is an index array or a slice. Nothing in ``data`` is written.
    With S the masks and the O_S ranges are read in normalized space, and a
    (near-)zero prediction row gets a finite penalty whose gradient points
    back toward the true direction. A ``predicted`` that is not
    (len(rows), d) raises DimensionMismatch.
    """
    spec = data.spec
    true = data.true[rows]
    _check_batch(predicted, true)
    factor = None if data.factor is None else data.factor[rows]
    d = true.shape[1]
    any_zero = False
    if spec.scale_invariant:
        norms = np.sqrt(np.add.reduce(predicted * predicted, axis=1))
        zero = norms <= NORM_EPS
        any_zero = zero.any()
        if any_zero:
            norms[zero] = 1.0
        pred = predicted / norms[:, None]
    else:
        pred = predicted
    weights = coordinate_weights(pred, data, rows)
    errors, derror = base_error(pred, true, spec.base)
    # a weight or factor of 1 is left out, a multiply by 1 being exact; the
    # rest keep the order ((factor / d) * weights) * derror, which rounds
    # differently from (factor / d) * (weights * derror) under tau
    scale = 1.0 / d if factor is None else (factor / d)[:, None]
    if weights is not None:
        errors = weights * errors
        scale = scale * weights
    values = np.add.reduce(errors, axis=1)
    grads = scale * derror
    if factor is not None:
        values = factor * values
    values /= d
    if spec.scale_invariant:
        # chain through the normalization Jacobian (I - u u') / ||c_hat||
        grads = (grads - pred * np.add.reduce(pred * grads, axis=1)[:, None]) / norms[:, None]
    if any_zero:
        factor_zero = np.ones(zero.sum()) if factor is None else factor[zero]
        values[zero] = factor_zero * ZERO_PREDICTION_PENALTY / d
        grads[zero] = -factor_zero[:, None] * true[zero]
    check_finite(values, grads, data.indices, rows)
    return values, grads


def spo_plus_batch(predicted: np.ndarray, data: LossData, rows,
                   problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Values (B,) and prediction-gradients (B, d) of spo+; one batched solve.

    Solves the problem at 2*predicted - true for every row in one
    ``solve_many`` call and compares against the sliced optimal decisions
    X* of ``data`` (from :func:`stack_loss_data` with the spo+ spec) and
    their true objective values ``data.true_value``, bound once. The
    gradient is the standard subgradient +/- 2 (x(2c_hat - c) - x(c)). A
    ``predicted`` that is not (len(rows), d) raises DimensionMismatch.
    """
    true = data.true[rows]
    _check_batch(predicted, true)
    x_star = data.x_star[rows]
    shifted = 2.0 * predicted - true
    x_shift = problem.solve_many(shifted)
    maximize = problem.sense is Sense.MAXIMIZE
    shift_value = row_dots(shifted, x_shift)
    pred_value = row_dots(predicted, x_star)
    true_value = data.true_value[rows]
    values = (shift_value - 2.0 * pred_value + true_value if maximize
              else -shift_value + 2.0 * pred_value - true_value)
    grads = 2.0 * (x_shift - x_star) if maximize else 2.0 * (x_star - x_shift)
    check_finite(values, grads, data.indices, rows)
    return values, grads
