"""Linear multi-output predictor trained by hand-written gradients.

The model is c_hat = W z + b, predicted for (n, k) feature rows in one
stacked matrix-vector product. Training runs seeded mini-batch gradient
descent (SGD or Adam) against any composed loss, bound to the training rows
and to the validation rows once per run. Each mini-batch is one call of the
batched loss kernel, whose (B, d) prediction-gradients chain into W and b
by one matrix product, with no autodiff. A ``spo+`` mini-batch makes one
batched oracle solve. Training is bit-for-bit reproducible per seed and
config.
"""
from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, Problem, as_vector, frozen_array
from .errors import DimensionMismatch, NonFiniteGradient, NonFiniteLoss
from .losses import (LossData, LossSpec, evaluate_loss_batch, spo_plus_batch,
                     stack_loss_data)

CHECKPOINT_MAGIC = b"CDFLLM01"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# bytes of validation predictions and parameter snapshots held for one
# scoring pass, 128 kB: twenty sp5x5 epochs at 10 validation rows (5.1 kB
# each) fit in one pass, a desk-size sp5x5 run (50 rows, 18 kB) scores 7
# epochs per pass. The kernel's temporaries peak near 6x the held bytes: a
# desk sp5x5 mse run peaked at 0.8 MB (tracemalloc), against 0.2 MB with a
# pass per epoch and 5.0 MB at 1 << 20, which also ran slower (17.2 against
# 15.2 ms per run, best of 15)
VALIDATION_HOLD_BYTES = 1 << 17


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
    """The model ``save_model`` wrote to ``path``; raises ValueError when the
    magic is wrong or the file length is not the one its header implies."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint (magic {raw[:8]!r})")
    expected = 16
    if len(raw) >= expected:
        k, d = struct.unpack_from("<II", raw, 8)
        expected += 8 * d * (k + 1)
    if len(raw) != expected:
        raise ValueError(f"model checkpoint {path} holds {len(raw)} bytes, "
                         f"expected {expected}")
    w = np.frombuffer(raw, dtype="<f8", count=d * k, offset=16).reshape(d, k)
    b = np.frombuffer(raw, dtype="<f8", count=d, offset=16 + 8 * d * k)
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
    seconds: float  # since training began, read when this epoch's steps end


@dataclass(frozen=True)
class TrainTrace:
    records: tuple[EpochRecord, ...]
    best_epoch: int
    best_model: LinearModel

    @property
    def best_val_loss(self) -> float:
        """The best epoch's validation loss; inf when no epoch beat the start
        (``best_epoch`` -1, and ``best_model`` holds the start parameters)."""
        return self.records[self.best_epoch].val_loss if self.best_epoch >= 0 else np.inf


class _PendingValidation:
    """Epoch-end validation, scored for several epochs in one kernel call.

    ``hold`` keeps an epoch's validation predictions and a copy of its
    parameters; once ``VALIDATION_HOLD_BYTES`` are held the buffer is
    ``full``. ``score`` evaluates every held epoch in one
    ``evaluate_loss_batch`` call over the stacked rows, empties the buffer
    and returns each epoch's record and snapshot, in epoch order. The kernel
    scores every row on its own, and each epoch's mean reduces its own
    contiguous block of values, so every record is bit for bit that of one
    call per epoch. A non-finite value raises NonFiniteLoss naming the first
    epoch, and in it the first instance, that a call per epoch would name.
    """

    def __init__(self, data: LossData, n_params: int):
        self.data = data
        n_val, d = data.true.shape
        self.capacity = max(1, VALIDATION_HOLD_BYTES // (8 * (n_val * d + n_params)))
        self.held: list[tuple[int, float, float, np.ndarray, np.ndarray]] = []

    @property
    def full(self) -> bool:
        return len(self.held) >= self.capacity

    def hold(self, epoch: int, train_loss: float, seconds: float,
             predictions: np.ndarray, params: np.ndarray) -> None:
        self.held.append((epoch, train_loss, seconds, predictions, params.copy()))

    def score(self) -> list[tuple[EpochRecord, np.ndarray]]:
        held, self.held = self.held, []
        if not held:
            return []
        n_val = len(self.data.indices)
        rows = np.tile(np.arange(n_val), len(held))
        try:
            stacked = np.concatenate([predictions for _, _, _, predictions, _ in held])
            values, _ = evaluate_loss_batch(stacked, self.data, rows)
        except NonFiniteGradient:
            for epoch, _, _, predictions, _ in held:
                try:
                    evaluate_loss_batch(predictions, self.data, slice(None))
                except NonFiniteGradient as exc:
                    raise NonFiniteLoss(f"validation after epoch {epoch}: {exc}") from exc
            raise
        means = values.reshape(len(held), n_val).mean(axis=1).tolist()
        return [(EpochRecord(epoch=epoch, train_loss=train_loss, val_loss=val_loss,
                             seconds=seconds), snapshot)
                for (epoch, train_loss, seconds, _, snapshot), val_loss in zip(held, means)]


class _AdamState:
    """Adam's moments for one parameter array, updated in place.

    ``moments`` stacks m and v in one (2, *shape) array, and the decays,
    gains, bias corrections and buffers are stacked alike at full size, so a
    step is ten ufunc calls on equal shapes, each element taking the textbook
    operations in their textbook order: ``m = beta1 m + (1 - beta1) g`` and
    ``v = beta2 v + ((1 - beta2) g) g`` as one decay, one gain product, one
    product by g of the v half and one sum, m_hat and v_hat as one quotient,
    then ``params -= (lr m_hat) / (sqrt(v_hat) + eps)``: bit for bit.
    """

    def __init__(self, shape):
        self.moments = np.zeros((2, *shape))
        self.t = 0
        self._decay = np.multiply.outer([ADAM_BETA1, ADAM_BETA2], np.ones(shape))
        self._gain = 1.0 - self._decay
        self._bias, self._scaled, self._hat = np.empty((3, 2, *shape))
        self._halves = (*self._bias, self._scaled[1], *self._hat)  # read on their own

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        bias_m, bias_v, scaled_v, m_hat, denom = self._halves
        self.moments *= self._decay
        np.multiply(grad, self._gain, out=self._scaled)
        scaled_v *= grad
        self.moments += self._scaled
        bias_m.fill(1.0 - ADAM_BETA1 ** self.t)
        bias_v.fill(1.0 - ADAM_BETA2 ** self.t)
        np.divide(self.moments, self._bias, out=self._hat)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        m_hat *= lr
        m_hat /= denom
        params -= m_hat


def train(model: LinearModel, dataset: Dataset, spec: LossSpec, config: TrainConfig,
          problem: Problem) -> TrainTrace:
    """Mini-batch training; returns the trace with the best-validation snapshot.

    One-sided masks are oriented by ``problem.sense``. For solver-free specs
    no oracle is touched during epochs. The spo+ loss folds validation
    instances into the training set and uses the epoch's mean training loss
    as its validation metric, so model selection never spends extra solver
    calls. Other specs are validated each epoch with the
    loss stripped of per-instance weights (validation instances carry none),
    scored in passes over several epochs (``_PendingValidation``). An
    epoch's ``seconds`` is read when its training steps end, so it leaves
    out validation.
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
    k = model.k
    # W and b are views of one (d, k + 1) array, as are their gradients, so
    # one optimizer step and one snapshot copy cover both
    params = np.concatenate([model.weights, model.bias[:, None]], axis=1)
    w, b = params[:, :k], params[:, k]
    param_grad = np.empty_like(params)
    gw, gb = param_grad[:, :k], param_grad[:, k]
    adam = _AdamState(params.shape)
    n = len(train_idx)
    records: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1
    best = params.copy()
    pending = _PendingValidation(val_data, params.size) if val_idx else None
    t_start = time.monotonic()

    def settle(scored) -> None:
        """Record scored epochs in epoch order; the first strict minimum wins."""
        nonlocal best_val, best_epoch, best
        for record, snapshot in scored:
            records.append(record)
            if record.val_loss < best_val:
                best_val = record.val_loss
                best_epoch = record.epoch
                best = snapshot.copy()

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
                    loss_sum += float(np.add.reduce(values))
            except NonFiniteGradient as exc:
                if pending is not None:
                    pending.score()  # an earlier epoch's validation error comes first
                raise NonFiniteLoss(f"training batch of epoch {epoch}: {exc}") from exc
            # grads.T @ zb / B and grads.mean(axis=0), which is this sum over B
            np.matmul(grads.T, zb, out=gw)
            np.add.reduce(grads, axis=0, out=gb)
            param_grad /= len(batch)
            if config.optimizer is Optimizer.SGD:
                param_grad *= config.learning_rate
                params -= param_grad
            else:
                adam.step(params, param_grad, config.learning_rate)
        train_loss = loss_sum / n
        seconds = time.monotonic() - t_start

        if pending is None:
            settle([(EpochRecord(epoch=epoch, train_loss=train_loss,
                                 val_loss=train_loss, seconds=seconds), params)])
        else:
            pending.hold(epoch, train_loss, seconds, val_feats @ w.T + b, params)
            if pending.full:
                settle(pending.score())
    if pending is not None:
        settle(pending.score())

    return TrainTrace(records=tuple(records), best_epoch=best_epoch,
                      best_model=LinearModel(best[:, :k], best[:, k]))
