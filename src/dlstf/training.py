"""MAE loss, RMSprop, and the deterministic mini-batch training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import SampleSet
from .errors import NumericsError
from .lstm import LstmNetwork, net_backward, net_forward, predict_batches


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    rho: float = 0.9
    epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        for name in ("learning_rate", "epsilon", "clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass
class TrainHistory:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


def mae_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over all elements and its subgradient (sign(0) taken as 0).

    `pred` and `target` are (B, n) batches, as net_forward predicts them; the
    batch loss is the mean of the per-sample losses.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ValueError(f"expected (B, n) pred and target, got {pred.shape} and {target.shape}")
    if pred.size == 0:
        raise ValueError("mae_loss needs at least one element")
    d = pred - target
    return float(np.mean(np.abs(d))), np.sign(d) / d.size


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradient arrays in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads:
        total += float(np.dot(g.reshape(-1), g.reshape(-1)))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def rmsprop_update(params: list[np.ndarray], grads: list[np.ndarray],
                   acc: list[np.ndarray], cfg: TrainConfig) -> None:
    """One RMSprop step, in place: s <- rho*s + (1-rho)*g^2; p -= lr*g/sqrt(s+eps).

    `acc` holds the running mean squares s, one array per parameter array,
    zero before the first step. The gradient is globally norm-clipped at
    cfg.clip_norm first. The arrays are updated through `out=`, with the
    operands of the formulas in their written order and one scratch array
    for the temporaries.
    """
    if len(params) != len(grads) or len(params) != len(acc):
        raise ValueError("params, grads and acc must have the same number of arrays")
    for p, g, s in zip(params, grads, acc):
        if p.shape != g.shape or p.shape != s.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, acc {s.shape}")
    clip_global_norm(grads, cfg.clip_norm)
    scratch = np.empty((2, max(g.size for g in grads)))
    for p, g, s in zip(params, grads, acc):
        t, root = (row[:g.size].reshape(g.shape) for row in scratch)
        s *= cfg.rho
        np.multiply(1.0 - cfg.rho, g, out=t)
        t *= g
        s += t
        np.multiply(cfg.learning_rate, g, out=t)
        np.add(s, cfg.epsilon, out=root)
        np.sqrt(root, out=root)
        t /= root
        p -= t


def _mean_val_mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over samples of the per-sample MAE of (N, n) validation predictions."""
    return float(np.mean(np.mean(np.abs(pred - target), axis=1)))


def train_model(net: LstmNetwork, train_samples: SampleSet, val_samples: SampleSet,
                cfg: TrainConfig) -> tuple[LstmNetwork, TrainHistory, np.ndarray]:
    """Train a copy of `net` on a SampleSet's time-major inputs and targets.

    Each epoch shuffles the samples with the seeded PRNG
    Generator(PCG64(SeedSequence([seed, 1]))) and cuts the permutation into
    mini-batches. Each batch runs as one (L, B, n) forward and backward pass
    whose gradient is the mean of the per-sample MAE gradients, reduced over
    the batch by BLAS; one RMSprop step follows per batch. Validation MAE is
    computed every epoch by predict_batches, whose chunk size does not depend
    on batch_size; training stops once it has failed to improve for
    `patience` consecutive epochs, and the parameters from the best
    validation epoch are returned, with that epoch's (N, n) validation
    predictions.
    """
    if not train_samples:
        raise ValueError("training set is empty")
    if not val_samples:
        raise ValueError("validation set is empty")

    work = net.clone()
    params = work.param_arrays()
    acc = [np.zeros_like(p) for p in params]
    grads = work.clone()    # net_backward overwrites it every batch
    cache = None            # every batch's forward pass writes into the first one's
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
    history = TrainHistory()
    x_train, y_train = np.asarray(train_samples.x, dtype=np.float64), train_samples.y
    steps, n = x_train.shape[0], x_train.shape[2]
    x_buffer = np.empty(steps * min(cfg.batch_size, len(train_samples)) * n)

    best_val = np.inf
    best_params: list[np.ndarray] = [p.copy() for p in params]
    best_pred = None
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_samples))
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = order[start:start + cfg.batch_size]
            x = x_buffer[:steps * len(batch) * n].reshape(steps, len(batch), n)
            # mode="clip" takes straight into x ("raise" would buffer); no index is out of range
            np.take(x_train, batch, axis=1, out=x, mode="clip")
            pred, cache = net_forward(work, x, cache=cache)
            loss, dpred = mae_loss(pred, y_train[batch])
            if not np.isfinite(loss):
                raise NumericsError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_no}")
            loss_sum += loss * len(batch)
            net_backward(work, cache, dpred, grads)
            rmsprop_update(params, grads.param_arrays(), acc, cfg)

        train_loss = loss_sum / len(train_samples)
        val_pred = predict_batches(work, val_samples.x)
        val_loss = _mean_val_mae(val_pred, val_samples.y)
        history.train_losses.append(train_loss)
        history.val_losses.append(val_loss)
        history.stopped_epoch = epoch

        if val_loss < best_val:
            best_val = val_loss
            history.best_epoch = epoch
            best_params = [p.copy() for p in params]
            best_pred = val_pred
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    result = work.clone()
    for dst, src in zip(result.param_arrays(), best_params):
        dst[...] = src
    if best_pred is None:    # no epoch's validation MAE was finite
        best_pred = predict_batches(result, val_samples.x)
    return result, history, best_pred
