"""MAE loss, RMSprop, and the deterministic mini-batch training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


class RmspropState:
    """Running mean-square accumulators, one per parameter array, zero-initialized."""

    def __init__(self, param_arrays: list[np.ndarray]):
        self.acc = [np.zeros_like(p) for p in param_arrays]


@dataclass
class TrainHistory:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


def mae_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over all elements and its subgradient (sign(0) taken as 0).

    `pred` and `target` are one (n,) prediction or a (B, n) batch; the
    batch loss is the mean of the per-sample losses.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim not in (1, 2):
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
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
                   state: RmspropState, cfg: TrainConfig) -> None:
    """One RMSprop step, in place: s <- rho*s + (1-rho)*g^2; p -= lr*g/sqrt(s+eps).

    The gradient is globally norm-clipped at cfg.clip_norm first.
    """
    if len(params) != len(grads) or len(params) != len(state.acc):
        raise ValueError("params, grads and state must have the same number of arrays")
    for p, g, s in zip(params, grads, state.acc):
        if p.shape != g.shape or p.shape != s.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, state {s.shape}")
    clip_global_norm(grads, cfg.clip_norm)
    for p, g, s in zip(params, grads, state.acc):
        s *= cfg.rho
        s += (1.0 - cfg.rho) * g * g
        p -= cfg.learning_rate * g / np.sqrt(s + cfg.epsilon)


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """(sequence, target) pairs as one time-major (L, N, n) input and (N, n) targets."""
    x = np.stack([np.asarray(seq, dtype=np.float64) for seq, _ in samples], axis=1)
    y = np.stack([np.asarray(target, dtype=np.float64) for _, target in samples])
    return x, y


def _mean_val_mae(net: LstmNetwork, val_samples, chunk: int = TrainConfig.batch_size) -> float:
    """Mean over samples of the per-sample MAE, forward only in chunks of `chunk` samples."""
    x, y = stack_samples(val_samples)
    return float(np.mean(np.mean(np.abs(predict_batches(net, x, chunk) - y), axis=1)))


def train_model(net: LstmNetwork, train_samples, val_samples, cfg: TrainConfig,
                _val_loss_fn=None) -> tuple[LstmNetwork, TrainHistory]:
    """Train a copy of `net` on (sequence, target) samples.

    Each epoch shuffles the samples with the seeded PRNG
    Generator(PCG64(SeedSequence([seed, 1]))) and cuts the permutation into
    mini-batches. Each batch runs as one (L, B, n) forward and backward pass
    whose gradient is the mean of the per-sample MAE gradients, reduced over
    the batch by BLAS; one RMSprop step follows per batch. Validation MAE is
    computed every epoch, forward only in chunks of batch_size samples;
    training stops once it has failed to improve for `patience` consecutive
    epochs, and the parameters from the best validation epoch are returned.

    `_val_loss_fn(net, epoch) -> float` is a test-only validation override.
    """
    train_samples = list(train_samples)
    if not train_samples:
        raise ValueError("training set is empty")
    if _val_loss_fn is None and not val_samples:
        raise ValueError("validation set is empty")

    work = net.clone()
    params = work.param_arrays()
    state = RmspropState(params)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
    history = TrainHistory()
    x_train, y_train = stack_samples(train_samples)

    best_val = np.inf
    best_params: list[np.ndarray] = [p.copy() for p in params]
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_samples))
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = order[start:start + cfg.batch_size]
            pred, cache = net_forward(work, x_train[:, batch])
            loss, dpred = mae_loss(pred, y_train[batch])
            if not np.isfinite(loss):
                raise NumericsError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_no}")
            loss_sum += loss * len(batch)
            rmsprop_update(params, net_backward(work, cache, dpred).arrays(), state, cfg)

        train_loss = loss_sum / len(train_samples)
        if _val_loss_fn is not None:
            val_loss = float(_val_loss_fn(work, epoch))
        else:
            val_loss = _mean_val_mae(work, val_samples, cfg.batch_size)
        history.train_losses.append(train_loss)
        history.val_losses.append(val_loss)
        history.stopped_epoch = epoch

        if val_loss < best_val:
            best_val = val_loss
            history.best_epoch = epoch
            best_params = [p.copy() for p in params]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    result = work.clone()
    for dst, src in zip(result.param_arrays(), best_params):
        dst[...] = src
    return result, history
