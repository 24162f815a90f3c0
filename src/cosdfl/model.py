"""Linear multi-output predictor trained by hand-written gradients.

The model is c_hat = W z + b, predicted for (n, k) feature rows in one
stacked matrix-vector product. Training runs seeded mini-batch gradient
descent (SGD or Adam) against any composed loss, bound to the training rows
and to the validation rows once per run (``stack_loss_data`` fixes each
one-sided coordinate's safe interval from X* and the problem sense). Each
mini-batch (and each epoch's validation pass) is one call of the batched
loss kernel, whose (B, d) prediction-gradients chain into W and b by one
matrix product, with no autodiff. A ``spo+`` mini-batch makes one batched
oracle solve. Training is bit-for-bit reproducible per seed and config.
"""
from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, Problem, as_vector, frozen_array
from .errors import DimensionMismatch, NonFiniteGradient, NonFiniteLoss
from .losses import (LossSpec, evaluate_loss_batch, spo_plus_batch,
                     stack_loss_data)

CHECKPOINT_MAGIC = b"CDFLLM01"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        """(n, d) costs of (n, k) feature rows. Row r is ``W @ features[r] + b``
        bit for bit: the stacked product makes its BLAS ``gemv`` call per row."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.k:
            raise DimensionMismatch(f"features must be (n, {self.k}), got {features.shape}")
        return (self.weights @ features[:, :, None])[:, :, 0] + self.bias


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
    seed: int = 0


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass(frozen=True)
class TrainTrace:
    records: tuple[EpochRecord, ...]
    best_epoch: int
    best_model: LinearModel
    final_model: LinearModel

    @property
    def best_val_loss(self) -> float:
        return self.records[self.best_epoch].val_loss


class _AdamState:
    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, grad, lr, t):
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - ADAM_BETA1 ** t)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** t)
        return lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(model: LinearModel, dataset: Dataset, spec: LossSpec, config: TrainConfig,
          problem: Problem) -> TrainTrace:
    """Mini-batch training; returns the trace with the best-validation snapshot.

    One-sided masks are oriented by ``problem.sense``. For solver-free specs
    no oracle is touched during epochs. The spo+ loss folds validation
    instances into the training set and uses the epoch's mean training loss
    as its validation metric, so model selection never spends extra solver
    calls. Other specs are validated each epoch with the
    loss stripped of per-instance weights (validation instances carry none).
    """
    train_idx = list(dataset.split.train)
    val_idx = list(dataset.split.val)
    if spec.spo_plus:
        train_idx = train_idx + val_idx
        val_idx = []
    if not train_idx:
        raise ValueError("empty training split")

    feats = dataset.features[train_idx]
    val_feats = dataset.features[val_idx]
    val_spec = spec.validation_variant()
    data = stack_loss_data(spec, dataset, train_idx, problem.sense)
    if val_idx:
        val_data = stack_loss_data(val_spec, dataset, val_idx, problem.sense)

    rng = np.random.default_rng(config.seed)
    w = model.weights.copy()
    b = model.bias.copy()
    adam_w = _AdamState(w.shape)
    adam_b = _AdamState(b.shape)
    step = 0
    n = len(train_idx)
    records: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1
    best_w, best_b = w.copy(), b.copy()
    t_start = time.monotonic()

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo_idx in range(0, n, config.batch_size):
            batch = order[lo_idx:lo_idx + config.batch_size]
            zb = feats[batch]
            preds = zb @ w.T + b
            # each sum order stays: train_loss is a val metric (spo+, or no val rows)
            try:
                if spec.spo_plus:
                    values, grads = spo_plus_batch(preds, data, batch, problem)
                    for value in values.tolist():  # summed row by row, in batch order
                        loss_sum += value
                else:
                    values, grads = evaluate_loss_batch(preds, data, batch)
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
                w -= adam_w.step(gw, config.learning_rate, step)
                b -= adam_b.step(gb, config.learning_rate, step)
        train_loss = loss_sum / n

        if val_idx:
            try:
                values, _ = evaluate_loss_batch(val_feats @ w.T + b, val_data,
                                                slice(None))
            except NonFiniteGradient as exc:
                raise NonFiniteLoss(f"validation after epoch {epoch}: {exc}") from exc
            val_loss = float(np.mean(values))
        else:
            val_loss = train_loss

        now = time.monotonic()
        records.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   val_loss=val_loss, seconds=now - t_start))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_w, best_b = w.copy(), b.copy()

    if best_epoch < 0:
        best_epoch = len(records) - 1
    return TrainTrace(records=tuple(records), best_epoch=best_epoch,
                      best_model=LinearModel(best_w, best_b),
                      final_model=LinearModel(w, b))
