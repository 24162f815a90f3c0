"""Per-instance cost weights derived from a baseline model's decision regret.

The weight of a training instance is the ratio of the baseline's regret to
its base loss, so that re-weighted base loss totals exactly match total
regret over the instances where the baseline actually regrets anything.
Instances with zero regret receive the mean weight of the regretting ones;
a (pathological) near-zero base loss with positive regret is capped at the
99th percentile of the finite weights instead of exploding.

Two refinements re-estimate the weights between training rounds: an
iterative scheme that retrains a single model against the latest weights,
and an ensemble scheme that averages all models trained so far and derives
the next weights from the ensemble's predictions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import DataInstance, Dataset, Problem, instance_regret
from .losses import LossSpec, evaluate_loss_batch, stack_loss_data
from .model import LinearModel, TrainConfig, init_model, train

DEGENERATE_LOSS_TOL = 1e-12


@dataclass(frozen=True)
class BaselineReport:
    """Everything derived from one baseline prediction pass over a split."""

    base_spec_name: str
    indices: tuple[int, ...]
    predictions: np.ndarray     # (n, d)
    base_losses: np.ndarray     # (n,)
    regrets: np.ndarray         # (n,)
    costs: np.ndarray           # (n,) final instance weights
    positive_regret: np.ndarray  # (n,) bool: the N+ membership
    degenerate: np.ndarray      # (n,) bool: capped ratio (loss ~ 0, regret > 0)
    all_zero_regret: bool
    solver_calls: int

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
            "solver_calls": self.solver_calls,
        }


def save_baseline_report(report: BaselineReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh)


def _costs_from_values(base_losses: np.ndarray, regrets: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, bool]:
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


def costs_from_predictions(problem: Problem, dataset: Dataset,
                           predictions: np.ndarray, base_spec: LossSpec,
                           split: str = "train") -> BaselineReport:
    """Instance weights from explicit predictions; one solver call per instance.

    Assumes optimal decisions are already cached on the split's instances
    (each regret evaluation then costs exactly one solve).
    """
    if base_spec.instance_costs or base_spec.lawless_w is not None or base_spec.spo_plus:
        raise ValueError("the base spec for instance costs must not itself re-weight")
    indices = dataset.split.part(split)
    if predictions.shape != (len(indices), dataset.d):
        raise ValueError(f"expected predictions of shape {(len(indices), dataset.d)}, "
                         f"got {predictions.shape}")
    counter = getattr(problem, "counter", None)
    calls_before = counter.count if counter is not None else 0
    insts = [dataset.instances[i] for i in indices]
    losses = np.empty(0)
    if insts:  # an empty split has nothing to stack
        losses, _ = evaluate_loss_batch(base_spec, predictions,
                                        stack_loss_data(base_spec, insts, indices),
                                        slice(None), problem.sense)
    regrets = np.array([instance_regret(problem, predictions[row], inst)
                        for row, inst in enumerate(insts)])
    costs, degenerate, all_zero = _costs_from_values(losses, regrets)
    calls = (counter.count - calls_before) if counter is not None else len(indices)
    return BaselineReport(
        base_spec_name=base_spec.name,
        indices=tuple(indices),
        predictions=predictions.copy(),
        base_losses=losses,
        regrets=regrets,
        costs=costs,
        positive_regret=regrets > 0.0,
        degenerate=degenerate,
        all_zero_regret=all_zero,
        solver_calls=calls,
    )


def compute_instance_costs(problem: Problem, baseline: LinearModel,
                           dataset: Dataset, base_spec: LossSpec,
                           split: str = "train") -> BaselineReport:
    """Instance weights from a trained baseline model over one split."""
    indices = dataset.split.part(split)
    preds = np.stack([baseline.predict(dataset.instances[i].features) for i in indices])
    return costs_from_predictions(problem, dataset, preds, base_spec, split=split)


def apply_instance_costs(dataset: Dataset, values: Sequence[float],
                         split: str = "train") -> Dataset:
    """Attach one weight per split instance, returning the updated dataset."""
    indices = dataset.split.part(split)
    if len(values) != len(indices):
        raise ValueError(f"expected {len(indices)} weights, got {len(values)}")
    updates = {i: dataset.instances[i].with_instance_cost(float(v))
               for i, v in zip(indices, values)}
    return dataset.with_replaced(updates)


def baseline_regrets(problem: Problem, baseline: LinearModel, dataset: Dataset,
                     split: str = "train") -> np.ndarray:
    """Raw per-instance baseline regrets (the weights of the regret-weighted loss)."""
    indices = dataset.split.part(split)
    out = np.empty(len(indices))
    for row, i in enumerate(indices):
        inst = dataset.instances[i]
        out[row] = instance_regret(problem, baseline.predict(inst.features), inst)
    return out


# --- iterative and ensemble refinement ---------------------------------------

Trainer = Callable[[Dataset, int], LinearModel]


def _default_trainer(problem: Problem, base_spec: LossSpec,
                     config: TrainConfig) -> Trainer:
    weighted_spec = replace(base_spec, instance_costs=True)

    def trainer(ds: Dataset, round_index: int) -> LinearModel:
        start = init_model(ds.k, ds.d, seed=config.seed)
        trace = train(start, ds, weighted_spec, config, sense=problem.sense)
        return trace.best_model

    return trainer


@dataclass(frozen=True)
class IterativeCostsResult:
    model: LinearModel
    costs: np.ndarray
    reports: tuple[BaselineReport, ...]

    @property
    def solver_calls(self) -> int:
        return sum(r.solver_calls for r in self.reports)


def iterative_costs(problem: Problem, dataset: Dataset, base_spec: LossSpec,
                    rounds: int, config: TrainConfig | None = None,
                    trainer: Trainer | None = None) -> IterativeCostsResult:
    """Alternate (train against current weights) and (re-derive weights).

    Round one trains with unit weights, so a single round reproduces the
    plain baseline training plus one weight computation. Each round spends
    one solver call per training instance on the weight update.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if trainer is None:
        trainer = _default_trainer(problem, base_spec, config or TrainConfig())
    n_train = len(dataset.split.train)
    costs = np.ones(n_train)
    reports: list[BaselineReport] = []
    model: LinearModel | None = None
    for round_index in range(1, rounds + 1):
        ds = apply_instance_costs(dataset, costs)
        model = trainer(ds, round_index)
        indices = dataset.split.part("train")
        preds = np.stack([model.predict(dataset.instances[i].features) for i in indices])
        report = costs_from_predictions(problem, dataset, preds, base_spec)
        costs = report.costs
        reports.append(report)
    return IterativeCostsResult(model=model, costs=costs, reports=tuple(reports))


class EnsembleModel:
    """Uniform average of member predictions."""

    def __init__(self, members: Sequence[LinearModel]) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = tuple(members)

    @property
    def k(self) -> int:
        return self.members[0].k

    @property
    def d(self) -> int:
        return self.members[0].d

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.mean([m.predict(features) for m in self.members], axis=0)


@dataclass(frozen=True)
class EnsembleCostsResult:
    model: EnsembleModel
    costs: np.ndarray
    reports: tuple[BaselineReport, ...]

    @property
    def solver_calls(self) -> int:
        return sum(r.solver_calls for r in self.reports)


def ensemble_costs(problem: Problem, dataset: Dataset, base_spec: LossSpec,
                   rounds: int, config: TrainConfig | None = None,
                   trainer: Trainer | None = None) -> EnsembleCostsResult:
    """Like :func:`iterative_costs`, but each round's weights come from the
    running average of all member models trained so far."""
    if rounds < 1:
        raise ValueError("need at least one round")
    if trainer is None:
        trainer = _default_trainer(problem, base_spec, config or TrainConfig())
    n_train = len(dataset.split.train)
    costs = np.ones(n_train)
    members: list[LinearModel] = []
    reports: list[BaselineReport] = []
    ensemble: EnsembleModel | None = None
    indices = dataset.split.part("train")
    for round_index in range(1, rounds + 1):
        ds = apply_instance_costs(dataset, costs)
        members.append(trainer(ds, round_index))
        ensemble = EnsembleModel(members)
        preds = np.stack([ensemble.predict(dataset.instances[i].features)
                          for i in indices])
        report = costs_from_predictions(problem, dataset, preds, base_spec)
        costs = report.costs
        reports.append(report)
    return EnsembleCostsResult(model=ensemble, costs=costs, reports=tuple(reports))
