"""Per-instance cost weights derived from a baseline model's decision regret."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Dataset, Predictor, Problem, instance_regrets
from .losses import LossSpec, evaluate_loss_batch, stack_loss_data

DEGENERATE_LOSS_TOL = 1e-12


@dataclass(frozen=True)
class BaselineReport:
    """Everything derived from one baseline prediction pass over a split."""

    base_spec_name: str
    indices: tuple[int, ...]
    base_losses: np.ndarray     # (n,)
    regrets: np.ndarray         # (n,)
    costs: np.ndarray           # (n,) final instance weights
    positive_regret: np.ndarray  # (n,) bool: the N+ membership
    degenerate: np.ndarray      # (n,) bool: capped ratio (loss ~ 0, regret > 0)
    all_zero_regret: bool

    def to_dict(self) -> dict:
        return {
            "base_spec": self.base_spec_name,
            "indices": list(self.indices),
            "base_losses": self.base_losses.tolist(),
            "regrets": self.regrets.tolist(),
            "costs": self.costs.tolist(),
            "positive_regret": [bool(v) for v in self.positive_regret],
            "degenerate": [bool(v) for v in self.degenerate],
            "all_zero_regret": self.all_zero_regret,
        }


def save_baseline_report(report: BaselineReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh)


def _costs_from_values(base_losses: np.ndarray, regrets: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, bool]:
    """The weight of each instance, the ratio of the baseline's regret to its
    base loss, so that re-weighted base losses total the regret over the
    instances where the baseline regrets anything. Instances with zero
    regret get the mean weight of the regretting ones; a near-zero base loss
    with positive regret is capped at the 99th percentile of the finite
    weights. Also returns the capped flags, and whether no instance regrets."""
    positive = regrets > 0.0
    n = regrets.shape[0]
    degenerate = np.zeros(n, dtype=bool)
    if not positive.any():
        return np.ones(n), degenerate, True
    costs = np.empty(n)
    degenerate = positive & (base_losses < DEGENERATE_LOSS_TOL)
    finite = positive & ~degenerate
    costs[finite] = regrets[finite] / base_losses[finite]
    if degenerate.any():
        cap = float(np.percentile(costs[finite], 99)) if finite.any() else 1.0
        costs[degenerate] = cap
    mean_positive = float(costs[positive].mean())
    costs[~positive] = mean_positive
    return costs, degenerate, False


def compute_instance_costs(problem: Problem, baseline: Predictor, dataset: Dataset,
                           base_spec: LossSpec) -> BaselineReport:
    """Training-split instance weights from a baseline model; one batched solve.

    The baseline predicts every training row in one call, and the base
    losses and regrets of those predictions are each one batched pass (a
    prediction that is not (n, d) raises DimensionMismatch there). Assumes
    optimal decisions are cached on the training instances (each regret
    evaluation then costs exactly one solve).
    """
    if base_spec.instance_costs or base_spec.lawless_w is not None or base_spec.spo_plus:
        raise ValueError("the base spec for instance costs must not itself re-weight")
    indices = dataset.split.train
    predictions = baseline.predict(dataset.features[list(indices)])
    losses, _ = evaluate_loss_batch(
        predictions, stack_loss_data(base_spec, dataset, indices, problem.sense),
        slice(None))
    regrets = instance_regrets(problem, predictions, dataset, indices)
    costs, degenerate, all_zero = _costs_from_values(losses, regrets)
    return BaselineReport(
        base_spec_name=base_spec.name,
        indices=tuple(indices),
        base_losses=losses,
        regrets=regrets,
        costs=costs,
        positive_regret=regrets > 0.0,
        degenerate=degenerate,
        all_zero_regret=all_zero,
    )


def apply_instance_costs(dataset: Dataset, values: Sequence[float]) -> Dataset:
    """Attach one weight per training instance, returning the updated dataset."""
    indices = dataset.split.train
    if len(values) != len(indices):
        raise ValueError(f"expected {len(indices)} weights, got {len(values)}")
    weights = dataset.weights.copy()
    weights[list(indices)] = values
    return dataset.attach(weights=weights)
