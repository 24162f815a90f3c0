"""Core domain types: senses, datasets, and regret.

Vectors are plain numpy float64 arrays. A :class:`Dataset` holds its
instances as columns: features, true costs and the solver-derived caches
(optimal decisions, cost ranges, weights) are each one array with a row per
instance, validated once at construction. Every type here is immutable
after construction (arrays are frozen via ``setflags``); ``Dataset.attach``
returns a new dataset with the caches it is given, and nothing mutates one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
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


def _off_binary(values: np.ndarray, snapped: np.ndarray) -> np.ndarray:
    """Entries further than 1e-9 from 0 or 1 (NaN included)."""
    return (np.abs(values - snapped) > 1e-9) | ((snapped != 0.0) & (snapped != 1.0))


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test index sets over a dataset."""

    train: tuple[int, ...] = ()
    val: tuple[int, ...] = ()
    test: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("train", "val", "test"):
            object.__setattr__(self, name, tuple(int(i) for i in getattr(self, name)))
        every = self.all_indices()
        if len(set(every)) < len(every) or min(every, default=0) < 0:
            i = next(i for j, i in enumerate(every) if i < 0 or i in every[:j])
            raise ValueError(f"split index {i} is negative" if i < 0 else
                             f"split index {i} appears in more than one part")

    def part(self, name: str) -> tuple[int, ...]:
        if name not in ("train", "val", "test"):
            raise ValueError(f"unknown split part {name!r}")
        return getattr(self, name)

    def all_indices(self) -> tuple[int, ...]:
        return self.train + self.val + self.test


def _matrix(values, name: str, width: int | None = None) -> np.ndarray:
    """Coerce to an (n, width) float64 array; a ragged or wrong-length row
    raises DimensionMismatch naming its instance."""
    try:
        arr = np.array(values, dtype=float)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.ndim == 2 and width in (None, arr.shape[1]):
        return arr
    if arr is not None and arr.size == 0 and width is not None:
        return arr.reshape(0, width)
    rows = list(values)
    want = (width,) if width is not None else np.shape(rows[0]) if rows else None
    for i, row in enumerate(rows):
        if np.ndim(row) != 1 or np.shape(row) != want:
            raise DimensionMismatch(f"{name} of instance {i} has shape {np.shape(row)}, "
                                    f"expected {want}")
    raise DimensionMismatch(f"{name} must be a 2-dimensional array of rows")


def _reject_rows(bad: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first instance flagged in ``bad``."""
    if bad.any():
        raise ValueError(f"instance {int(np.argmax(bad))} has {what}")


@dataclass(frozen=True)
class Dataset:
    """Instances as columns: one row per instance, plus the declared split.

    ``features`` is (n, k) and ``costs`` (n, d). The solver-derived caches
    are ``x_star`` (n, d) optimal 0/1 decisions, ``lower``/``upper`` (n, d)
    objective-coefficient ranges, and ``weights`` (n,) per-instance cost
    weights (the C weight or the baseline regret). A NaN row marks a cache
    that is not attached; NaN is never a valid value, while range bounds may
    be +/-inf. Every array given is validated once, and an invalid row raises
    an error naming its instance; a cache not given is all NaN, unchecked.
    Arrays are frozen; ``attach`` validates only the caches it attaches.
    """

    features: np.ndarray
    costs: np.ndarray
    split: Split
    x_star: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    weights: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        feats = _matrix(self.features, "features")
        costs = _matrix(self.costs, "costs")
        n, d = feats.shape[0], costs.shape[1]
        if costs.shape[0] != n:
            raise DimensionMismatch(f"{costs.shape[0]} cost rows for {n} feature rows")
        _reject_rows(~np.isfinite(feats).all(axis=1), "non-finite features")
        _reject_rows(~np.isfinite(costs).all(axis=1), "non-finite costs")
        if outside := [i for i in self.split.all_indices() if i >= n]:
            raise ValueError(f"split index {outside[0]} out of range for {n} instances")
        given = {name: getattr(self, name) for name in ("x_star", "lower", "upper", "weights")
                 if getattr(self, name) is not None}
        unattached = np.full((n, d), np.nan)  # a cache not given: all NaN, unchecked
        for name, arr in {"features": feats, "costs": costs, "x_star": unattached,
                          "lower": unattached, "upper": unattached,
                          "weights": np.full(n, np.nan)}.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        self.__dict__.update(self.attach(**given).__dict__)  # the given caches, checked

    def attach(self, **caches) -> Dataset:
        """This dataset with the named caches in place of its own, each checked
        as the constructor checks it, X* snapped to 0/1, and every other array
        shared: equal, field for field, to ``dataclasses.replace(self, **caches)``."""
        checked = {}
        for name, value in caches.items():
            if name == "weights":
                arr = as_vector(value, name=name, length=self.n, allow_nonfinite=True).copy()
                _reject_rows(np.isinf(arr) | (arr < 0.0), "a negative or non-finite weight")
            elif name not in ("x_star", "lower", "upper"):
                raise TypeError(f"{name!r} is not a dataset cache")
            elif (arr := _matrix(value, name, width=self.d)).shape[0] != self.n:
                raise DimensionMismatch(f"{name} has {arr.shape[0]} rows "
                                        f"for {self.n} instances")
            if name == "x_star":
                arr, x = np.round(arr), arr  # a NaN row stays NaN
                _reject_rows(~np.isnan(x).all(axis=1) & _off_binary(x, arr).any(axis=1),
                             "an x_star that is not a 0/1 decision")
            arr.setflags(write=False)
            checked[name] = arr
        if "lower" in checked or "upper" in checked:
            lo, hi = checked.get("lower", self.lower), checked.get("upper", self.upper)
            unranged = np.isnan(lo).all(axis=1) & np.isnan(hi).all(axis=1)
            _reject_rows(~unranged & (np.isnan(lo) | np.isnan(hi) | (lo > hi)).any(axis=1),
                         "cost ranges with NaN or lower > upper")
        attached = object.__new__(Dataset)
        attached.__dict__.update(self.__dict__, **checked)
        return attached

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def k(self) -> int:
        return self.features.shape[1]

    @property
    def d(self) -> int:
        return self.costs.shape[1]

    def uncached(self, cache: str, indices: Sequence[int]) -> list[int]:
        """The ``indices`` whose row of the named cache is not attached."""
        indices = np.asarray(indices, dtype=int)
        rows = np.isnan(getattr(self, cache)[indices])
        return indices[rows.any(axis=1) if rows.ndim == 2 else rows].tolist()


class Problem(Protocol):
    """Anything that can solve the downstream optimization for a cost vector."""

    @property
    def d(self) -> int: ...

    @property
    def sense(self) -> Sense: ...

    @property
    def exact(self) -> bool: ...  # False when a heuristic may miss the optimum

    def solve_many(self, costs: np.ndarray) -> np.ndarray: ...


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ b[r]`` for each row r of two (n, d) arrays, in one stacked product
    that makes the 1-d product's BLAS ``ddot`` call per item: bit-identical to a
    per-row loop, where ``einsum``, ``(a * b).sum(1)`` or ``norm(axis=1)`` are not."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def instance_regrets(problem: Problem, predictions, dataset: Dataset,
                     indices: Sequence[int]) -> np.ndarray:
    """Regret of each prediction row on its dataset instance, from one batched solve.

    Row r of ``predictions`` belongs to instance ``indices[r]``. The batch
    holds the predictions plus the true costs of the instances with no
    cached X*, so it costs one solve per row and one more per uncached
    instance. The regret is the true-cost objective gap, clamped at zero.
    ValueError (a non-finite prediction) names the instance, and so does
    SolveFailure, raised when an exact oracle's X* is beaten by more than
    REGRET_TOL (a solver bug or a stale cache). A heuristic oracle's X* can
    be beaten by its own decision at the prediction; each instance then
    scores against the better of the two, and its regret, 0 where X* was
    beaten, is a lower bound on the true one.
    """
    n = len(indices)
    predictions = np.asarray(predictions, dtype=float).reshape(n, problem.d)
    finite = np.isfinite(predictions).all(axis=1)
    if not finite.all():
        raise ValueError(f"predicted costs of instance {indices[int(np.argmin(finite))]} "
                         "contain non-finite entries")
    true = dataset.costs[list(indices)]
    x_star = dataset.x_star[list(indices)]
    uncached = np.isnan(x_star).any(axis=1)
    decisions = problem.solve_many(np.vstack([true[uncached], predictions]))
    k = int(uncached.sum())
    x_star[uncached] = decisions[:k]
    v_star, v_hat = row_dots(true, x_star), row_dots(true, decisions[k:])
    gaps = v_star - v_hat if problem.sense is Sense.MAXIMIZE else v_hat - v_star
    beaten = gaps < -REGRET_TOL
    if problem.exact and beaten.any():
        r = int(np.argmax(beaten))
        raise SolveFailure(f"instance {indices[r]}: negative regret {gaps[r]:.3e}: "
                           "the cached optimal decision was beaten")
    return np.where(gaps < 0.0, 0.0, gaps)  # keeps a -0.0 gap, np.maximum would not


class Predictor(Protocol):
    def predict(self, features: np.ndarray) -> np.ndarray: ...  # (n, k) -> (n, d)


def total_regret(problem: Problem, model: Predictor, dataset: Dataset,
                 split: str = "test") -> float:
    """Regret of a predictive model summed over one split, from one predict
    call; an empty split yields 0.0. Errors name the offending instance."""
    indices = dataset.split.part(split)
    regrets = instance_regrets(problem, model.predict(dataset.features[list(indices)]),
                               dataset, indices)
    total = 0.0
    # np.sum adds pairwise and sum() compensates from Python 3.12: both move bits
    for value in regrets.tolist():
        total += value
    return total


# --- serialization ---------------------------------------------------------

def dataset_to_dict(dataset: Dataset) -> dict:
    records = []
    for z, c, x in zip(dataset.features, dataset.costs, dataset.x_star):
        rec: dict = {"z": z.tolist(), "c": c.tolist()}
        if not np.isnan(x).any():
            rec["x_star"] = x.tolist()
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
    k, d = int(payload["k"]), int(payload["d"])
    records = payload["instances"]
    missing = [np.nan] * d
    return Dataset(
        features=_matrix([rec["z"] for rec in records], "features", width=k),
        costs=_matrix([rec["c"] for rec in records], "costs", width=d),
        split=split,
        x_star=_matrix([missing if rec.get("x_star") is None else rec["x_star"]
                        for rec in records], "x_star", width=d),
        seed=int(payload.get("seed", 0)),
    )


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_dict(dataset), fh)


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_dict(json.load(fh))

