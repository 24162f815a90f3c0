"""Core domain types: senses, decisions, instances, datasets, and regret.

Vectors are plain numpy float64 arrays. Every type here is immutable after
construction (arrays are frozen via ``setflags``) so instances can be shared
between datasets without copying. Caches such as optimal decisions are
attached by building a replacement instance, never by mutation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Protocol, Sequence

import numpy as np

from .errors import DimensionMismatch, SolveFailure

# Regret more negative than this means the "optimal" decision was beaten.
REGRET_TOL = 1e-9


class Sense(Enum):
    """Direction of a problem's linear objective."""

    MAXIMIZE = "max"
    MINIMIZE = "min"


class DecisionKind(Enum):
    BINARY = "binary"
    CONTINUOUS = "continuous"


def as_vector(values, *, name: str = "vector", length: int | None = None,
              allow_nonfinite: bool = False) -> np.ndarray:
    """Coerce to a 1-d float64 array, validating length and finiteness."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise DimensionMismatch(f"{name} must have length {length}, got {arr.shape[0]}")
    if not allow_nonfinite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Decision:
    """A solver's decision vector.

    Binary decisions are snapped to exact 0.0/1.0 so downstream dot products
    are reproducible; entries further than 1e-9 from an integer are rejected.
    """

    values: np.ndarray
    kind: DecisionKind = DecisionKind.BINARY

    def __post_init__(self):
        arr = as_vector(self.values, name="decision values")
        if self.kind is DecisionKind.BINARY:
            snapped = np.round(arr)
            if np.any(np.abs(arr - snapped) > 1e-9) or np.any((snapped != 0.0) & (snapped != 1.0)):
                raise ValueError("binary decision entries must be 0 or 1")
            arr = snapped
        object.__setattr__(self, "values", frozen_array(arr))

    @property
    def d(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CostRangeVector:
    """Per-coordinate objective-coefficient intervals.

    ``lower[j] <= c[j] <= upper[j]`` holds for the objective the ranges were
    computed from; endpoints may be +/-inf. Single-coordinate moves inside the
    interval keep the solved basis (hence the returned vertex) optimal.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower, name="range lower", allow_nonfinite=True)
        hi = as_vector(self.upper, name="range upper", allow_nonfinite=True)
        if lo.shape != hi.shape:
            raise DimensionMismatch("range bounds must have equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("range bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("range lower bound exceeds upper bound")
        object.__setattr__(self, "lower", frozen_array(lo))
        object.__setattr__(self, "upper", frozen_array(hi))

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def scaled(self, factor: float) -> "CostRangeVector":
        """Rescale both endpoints by a positive factor (e.g. 1/||c||)."""
        if not factor > 0.0:
            raise ValueError("range scale factor must be positive")
        return CostRangeVector(self.lower * factor, self.upper * factor)


@dataclass(frozen=True)
class DataInstance:
    """One (features, true costs) pair plus optional solver-derived caches."""

    features: np.ndarray
    true_costs: np.ndarray
    optimal_decision: Decision | None = None
    sensitivity_ranges: CostRangeVector | None = None
    instance_cost: float | None = None

    def __post_init__(self):
        feats = frozen_array(as_vector(self.features, name="features"))
        costs = frozen_array(as_vector(self.true_costs, name="true costs"))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "true_costs", costs)
        d = costs.shape[0]
        if self.optimal_decision is not None and self.optimal_decision.d != d:
            raise DimensionMismatch("cached decision length differs from cost length")
        if self.sensitivity_ranges is not None and self.sensitivity_ranges.d != d:
            raise DimensionMismatch("cached ranges length differs from cost length")
        if self.instance_cost is not None:
            ic = float(self.instance_cost)
            if not np.isfinite(ic) or ic < 0.0:
                raise ValueError("instance cost must be finite and non-negative")
            object.__setattr__(self, "instance_cost", ic)

    @property
    def k(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.true_costs.shape[0]

    def with_decision(self, decision: Decision) -> "DataInstance":
        return replace(self, optimal_decision=decision)

    def with_ranges(self, ranges: CostRangeVector) -> "DataInstance":
        return replace(self, sensitivity_ranges=ranges)

    def with_instance_cost(self, cost: float) -> "DataInstance":
        return replace(self, instance_cost=cost)


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test index sets over a dataset."""

    train: tuple[int, ...] = ()
    val: tuple[int, ...] = ()
    test: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("train", "val", "test"):
            object.__setattr__(self, name, tuple(int(i) for i in getattr(self, name)))
        groups = (self.train, self.val, self.test)
        seen: set[int] = set()
        for group in groups:
            for i in group:
                if i < 0:
                    raise ValueError("split indices must be non-negative")
                if i in seen:
                    raise ValueError(f"split index {i} appears in more than one part")
                seen.add(i)

    def part(self, name: str) -> tuple[int, ...]:
        if name not in ("train", "val", "test"):
            raise ValueError(f"unknown split part {name!r}")
        return getattr(self, name)

    def all_indices(self) -> tuple[int, ...]:
        return self.train + self.val + self.test


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of instances with a declared split."""

    instances: tuple[DataInstance, ...]
    split: Split
    k: int
    d: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        for i, inst in enumerate(self.instances):
            if inst.k != self.k or inst.d != self.d:
                raise DimensionMismatch(
                    f"instance {i} has shape (k={inst.k}, d={inst.d}), "
                    f"dataset declares (k={self.k}, d={self.d})")
        n = len(self.instances)
        for i in self.split.all_indices():
            if i >= n:
                raise ValueError(f"split index {i} out of range for {n} instances")

    @property
    def n(self) -> int:
        return len(self.instances)

    def part(self, name: str) -> tuple[DataInstance, ...]:
        return tuple(self.instances[i] for i in self.split.part(name))

    def with_instances(self, instances: Sequence[DataInstance]) -> "Dataset":
        return replace(self, instances=tuple(instances))

    def with_replaced(self, updates: dict[int, DataInstance]) -> "Dataset":
        """Return a dataset where selected instances are swapped out."""
        new = list(self.instances)
        for i, inst in updates.items():
            new[i] = inst
        return self.with_instances(new)


class Problem(Protocol):
    """Anything that can solve the downstream optimization for a cost vector."""

    @property
    def d(self) -> int: ...

    @property
    def sense(self) -> Sense: ...

    def solve(self, costs: np.ndarray) -> Decision: ...

    def solve_many(self, costs: np.ndarray) -> np.ndarray: ...


def decision_value(costs: np.ndarray, decision: Decision) -> float:
    return float(np.dot(costs, decision.values))


def regret_from_decisions(problem: Problem, true_costs: np.ndarray,
                          optimal_decision: Decision, predicted_decision: Decision) -> float:
    """Objective gap of ``predicted_decision`` under the true costs, clamped at zero.

    A gap below -REGRET_TOL means the cached "optimal" decision was beaten,
    which indicates a solver bug or a stale cache, and raises SolveFailure.
    """
    return _regret(problem.sense, true_costs, optimal_decision.values,
                   predicted_decision.values)


def _regret(sense: Sense, true_costs: np.ndarray, x_star: np.ndarray,
            x_hat: np.ndarray) -> float:
    v_star = float(np.dot(true_costs, x_star))
    v_hat = float(np.dot(true_costs, x_hat))
    gap = v_star - v_hat if sense is Sense.MAXIMIZE else v_hat - v_star
    if gap < -REGRET_TOL:
        raise SolveFailure(
            f"negative regret {gap:.3e}: the cached optimal decision was beaten")
    return max(gap, 0.0)


def regret(problem: Problem, predicted: np.ndarray, true_costs: np.ndarray) -> float:
    """Decision regret of predicting ``predicted`` when the truth is ``true_costs``.

    Solves the problem twice (once per cost vector). Zero iff the predicted
    costs induce a decision as good as the true optimum.
    """
    predicted = as_vector(predicted, name="predicted costs", length=problem.d)
    true_costs = as_vector(true_costs, name="true costs", length=problem.d)
    x_star = problem.solve(true_costs)
    x_hat = problem.solve(predicted)
    return regret_from_decisions(problem, true_costs, x_star, x_hat)


def instance_regret(problem: Problem, predicted: np.ndarray, instance: DataInstance) -> float:
    """Like :func:`regret` but reuses the instance's cached optimal decision.

    Costs exactly one solver call when the cache is present.
    """
    predicted = as_vector(predicted, name="predicted costs", length=problem.d)
    return float(instance_regrets(problem, predicted[None, :], [instance])[0])


def instance_regrets(problem: Problem, predictions, instances: Sequence[DataInstance],
                     indices: Sequence[int] | None = None) -> np.ndarray:
    """Regret of each prediction row on its instance, from one batched solve.

    The batch holds the predictions plus the true costs of the instances
    that have no cached optimal decision, so it costs one solve per row and
    one more per uncached instance. ``indices`` are the instances' dataset
    indices (0..n-1 when omitted); a non-finite prediction (ValueError) or
    a negative regret (SolveFailure) raises an error naming the instance.
    """
    n = len(instances)
    predictions = np.asarray(predictions, dtype=float).reshape(n, problem.d)
    indices = range(n) if indices is None else indices
    finite = np.isfinite(predictions).all(axis=1)
    if not finite.all():
        raise ValueError(f"predicted costs of instance {indices[int(np.argmin(finite))]} "
                         "contain non-finite entries")
    uncached = [r for r, inst in enumerate(instances) if inst.optimal_decision is None]
    true = np.reshape([instances[r].true_costs for r in uncached], (-1, problem.d))
    decisions = problem.solve_many(np.vstack([true, predictions]))
    x_star = [None if inst.optimal_decision is None else inst.optimal_decision.values
              for inst in instances]
    for k, r in enumerate(uncached):
        x_star[r] = decisions[k]
    x_hat = decisions[len(uncached):]
    out = np.empty(n)
    for r, (i, inst) in enumerate(zip(indices, instances)):
        try:
            out[r] = _regret(problem.sense, inst.true_costs, x_star[r], x_hat[r])
        except SolveFailure as exc:
            raise SolveFailure(f"instance {i}: {exc}") from exc
    return out


class Predictor(Protocol):
    def predict(self, features: np.ndarray) -> np.ndarray: ...


def total_regret(problem: Problem, model: Predictor, dataset: Dataset,
                 split: str = "test", reduction: str = "sum") -> float:
    """Regret of a predictive model accumulated over one split.

    ``reduction`` is "sum" or "mean"; an empty split yields 0.0. Solver
    failures are re-raised with the offending instance index attached.
    """
    if reduction not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    indices = dataset.split.part(split)
    insts = [dataset.instances[i] for i in indices]
    total = 0.0
    for value in instance_regrets(problem, [model.predict(inst.features) for inst in insts],
                                  insts, indices).tolist():
        total += value
    if reduction == "mean":
        return total / len(indices) if indices else 0.0
    return total


# --- serialization ---------------------------------------------------------

def dataset_to_dict(dataset: Dataset) -> dict:
    records = []
    for inst in dataset.instances:
        rec: dict = {"z": inst.features.tolist(), "c": inst.true_costs.tolist()}
        if inst.optimal_decision is not None:
            rec["x_star"] = inst.optimal_decision.values.tolist()
        records.append(rec)
    return {
        "k": dataset.k,
        "d": dataset.d,
        "seed": dataset.seed,
        "split": {
            "train": list(dataset.split.train),
            "val": list(dataset.split.val),
            "test": list(dataset.split.test),
        },
        "instances": records,
    }


def dataset_from_dict(payload: dict) -> Dataset:
    split = Split(
        train=payload["split"].get("train", ()),
        val=payload["split"].get("val", ()),
        test=payload["split"].get("test", ()),
    )
    instances = []
    for rec in payload["instances"]:
        decision = None
        if rec.get("x_star") is not None:
            decision = Decision(np.asarray(rec["x_star"], dtype=float))
        instances.append(DataInstance(
            features=np.asarray(rec["z"], dtype=float),
            true_costs=np.asarray(rec["c"], dtype=float),
            optimal_decision=decision,
        ))
    return Dataset(
        instances=tuple(instances),
        split=split,
        k=int(payload["k"]),
        d=int(payload["d"]),
        seed=int(payload.get("seed", 0)),
    )


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_dict(dataset), fh)


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_dict(json.load(fh))

