"""Linear multi-output predictor trained by hand-written gradients.

The model is c_hat = W z + b. Training runs seeded mini-batch gradient
descent (SGD or Adam) against any composed loss. The loss arrays of the
training and validation instances are stacked once per run, and each
mini-batch (and each epoch's validation pass) is one call of the batched
loss kernel, whose (B, d) prediction-gradients chain into W and b by one
matrix product; no autodiff is involved. Only ``spo+`` evaluates row by
row, since each row calls the solver. Given the same seed and config,
training is bit-for-bit reproducible.
"""
from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, Sense, as_vector, frozen_array
from .errors import DimensionMismatch, NonFiniteGradient, NonFiniteLoss
from .losses import (LossSpec, check_finite, evaluate_loss_batch,
                     spo_plus_loss, stack_loss_data)
# Not called here; perfbench's tracer test reads this binding (see perfbench/).
from .losses import evaluate_loss  # noqa: F401

CHECKPOINT_MAGIC = b"CDFLLM01"


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (d, k)
    bias: np.ndarray     # (d,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch("weights must be a (d, k) matrix")
        b = as_vector(self.bias, name="bias", length=w.shape[0])
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", frozen_array(b))

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = as_vector(features, name="features", length=self.k)
        return self.weights @ features + self.bias

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.k:
            raise DimensionMismatch(f"expected (n, {self.k}) features, got {features.shape}")
        return features @ self.weights.T + self.bias


def init_model(k: int, d: int, seed: int = 0) -> LinearModel:
    """Uniform(-1/sqrt(k), 1/sqrt(k)) weights, zero bias, seeded."""
    rng = np.random.default_rng(seed)
    limit = 1.0 / np.sqrt(k)
    return LinearModel(rng.uniform(-limit, limit, size=(d, k)), np.zeros(d))


# --- checkpoints -------------------------------------------------------------

def save_model(model: LinearModel, path) -> None:
    """16-byte header (magic, k, d as uint32 LE) then W row-major, then b."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", model.k, model.d))
        fh.write(model.weights.astype("<f8").tobytes(order="C"))
        fh.write(model.bias.astype("<f8").tobytes())


def load_model(path) -> LinearModel:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a model checkpoint (magic {magic!r})")
        k, d = struct.unpack("<II", fh.read(8))
        w = np.frombuffer(fh.read(8 * d * k), dtype="<f8").reshape(d, k)
        b = np.frombuffer(fh.read(8 * d), dtype="<f8")
    return LinearModel(w, b)


def model_to_json(model: LinearModel) -> str:
    return json.dumps({"k": model.k, "d": model.d,
                       "weights": model.weights.tolist(),
                       "bias": model.bias.tolist()})


def model_from_json(text: str) -> LinearModel:
    payload = json.loads(text)
    return LinearModel(np.asarray(payload["weights"], dtype=float),
                       np.asarray(payload["bias"], dtype=float))


# --- training ----------------------------------------------------------------

class Optimizer(Enum):
    SGD = "sgd"
    ADAM = "adam"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 50
    batch_size: int = 32
    optimizer: Optimizer = Optimizer.ADAM
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    # optional wall-clock early stop; keeping it None preserves determinism
    patience_seconds: float | None = None


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float
    solver_calls: int  # cumulative oracle calls made by the loss so far


@dataclass(frozen=True)
class TrainTrace:
    records: tuple[EpochRecord, ...]
    best_epoch: int
    best_model: LinearModel
    final_model: LinearModel

    @property
    def best_val_loss(self) -> float:
        return self.records[self.best_epoch].val_loss

    def deterministic_fields(self):
        """Everything except wall-clock timings, for reproducibility checks."""
        return (
            tuple((r.epoch, r.train_loss, r.val_loss, r.solver_calls) for r in self.records),
            self.best_epoch,
            self.best_model.weights.tobytes(), self.best_model.bias.tobytes(),
            self.final_model.weights.tobytes(), self.final_model.bias.tobytes(),
        )


class _AdamState:
    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, grad, lr, b1, b2, eps, t):
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        m_hat = self.m / (1.0 - b1 ** t)
        v_hat = self.v / (1.0 - b2 ** t)
        return lr * m_hat / (np.sqrt(v_hat) + eps)


def train(model: LinearModel, dataset: Dataset, spec: LossSpec, config: TrainConfig,
          problem=None, sense: Sense | None = None) -> TrainTrace:
    """Mini-batch training; returns the trace with the best-validation snapshot.

    For solver-free specs no oracle is touched during epochs. The spo+ loss
    folds validation instances into the training set and uses the epoch's
    mean training loss as its validation metric, so model selection never
    spends extra solver calls. Other specs are validated each epoch with the
    loss stripped of per-instance weights (validation instances carry none).
    """
    if spec.spo_plus and problem is None:
        raise ValueError("spo+ training requires the problem oracle")
    if sense is None and problem is not None:
        sense = problem.sense
    if spec.requires_decisions and sense is None:
        raise ValueError("one-sided losses need the problem sense")

    train_idx = list(dataset.split.train)
    val_idx = list(dataset.split.val)
    if spec.spo_plus:
        train_idx = train_idx + val_idx
        val_idx = []
    if not train_idx:
        raise ValueError("empty training split")

    insts = [dataset.instances[i] for i in train_idx]
    feats = np.stack([inst.features for inst in insts])
    val_insts = [dataset.instances[i] for i in val_idx]
    val_feats = np.stack([inst.features for inst in val_insts]) if val_insts else None
    val_spec = spec.validation_variant()
    if not spec.spo_plus:
        data = stack_loss_data(spec, insts, train_idx)
    if val_insts:
        val_data = stack_loss_data(val_spec, val_insts, val_idx)

    rng = np.random.default_rng(config.seed)
    w = model.weights.copy()
    b = model.bias.copy()
    adam_w = _AdamState(w.shape)
    adam_b = _AdamState(b.shape)
    step = 0
    n = len(insts)
    train_indices = np.asarray(train_idx)

    def count_solves() -> int:
        counter = getattr(problem, "counter", None)
        return counter.count if counter is not None else 0

    solves_start = count_solves()
    records: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1
    best_w, best_b = w.copy(), b.copy()
    t_start = time.monotonic()
    last_improvement = t_start

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo_idx in range(0, n, config.batch_size):
            batch = order[lo_idx:lo_idx + config.batch_size]
            zb = feats[batch]
            preds = zb @ w.T + b
            try:
                if spec.spo_plus:
                    values = np.empty(len(batch))
                    grads = np.empty_like(preds)
                    for row, i in enumerate(batch):
                        out = spo_plus_loss(preds[row], insts[i], problem)
                        values[row] = out.value
                        grads[row] = out.gradient
                        loss_sum += out.value
                    check_finite(values, grads, train_indices[batch])
                else:
                    values, grads = evaluate_loss_batch(spec, preds, data, batch, sense)
                    loss_sum += float(values.sum())
            except NonFiniteGradient as exc:
                raise NonFiniteLoss(f"training batch of epoch {epoch}: {exc}") from exc
            gw = grads.T @ zb / len(batch)
            gb = grads.mean(axis=0)
            if config.optimizer is Optimizer.SGD:
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
            else:
                step += 1
                w -= adam_w.step(gw, config.learning_rate, config.beta1,
                                 config.beta2, config.eps, step)
                b -= adam_b.step(gb, config.learning_rate, config.beta1,
                                 config.beta2, config.eps, step)
        train_loss = loss_sum / n

        if val_insts:
            try:
                values, _ = evaluate_loss_batch(val_spec, val_feats @ w.T + b,
                                                val_data, slice(None), sense)
            except NonFiniteGradient as exc:
                raise NonFiniteLoss(f"validation after epoch {epoch}: {exc}") from exc
            val_loss = float(np.mean(values))
        else:
            val_loss = train_loss

        now = time.monotonic()
        records.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   val_loss=val_loss, seconds=now - t_start,
                                   solver_calls=count_solves() - solves_start))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_w, best_b = w.copy(), b.copy()
            last_improvement = now
        if (config.patience_seconds is not None
                and now - last_improvement > config.patience_seconds):
            break

    if best_epoch < 0:
        best_epoch = len(records) - 1
    return TrainTrace(records=tuple(records), best_epoch=best_epoch,
                      best_model=LinearModel(best_w, best_b),
                      final_model=LinearModel(w, b))
