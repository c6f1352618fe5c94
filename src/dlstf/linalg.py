"""Float64 activations and their derivatives, a vector check and a gate pre-activation.

The activations are elementwise. All operations are pure: the same inputs
always produce bit-identical outputs.
"""

from __future__ import annotations

import enum

import numpy as np


class ActivationKind(enum.Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"
    IDENTITY = "identity"


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def affine_combine(w, x, u, h, b) -> np.ndarray:
    """Gate pre-activation w x + b + u h of one step, summed in the LSTM kernel's order."""
    x, h, b = as_vector(x), as_vector(h), as_vector(b)
    if np.shape(w) != b.shape + x.shape or np.shape(u) != b.shape + h.shape:
        raise ValueError(f"affine_combine: w {np.shape(w)} and u {np.shape(u)} do not "
                         f"match x {x.shape}, h {h.shape} and b {b.shape}")
    return x @ np.asarray(w, dtype=np.float64).T + b + h @ np.asarray(u, dtype=np.float64).T


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # overflow-free formulation of 1/(1+exp(-v)); exact at 0 and saturates to 0/1
    return 0.5 * (np.tanh(0.5 * v) + 1.0)


def activation_apply(v: np.ndarray, kind: ActivationKind) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(v)
    if kind is ActivationKind.TANH:
        return np.tanh(v)
    if kind is ActivationKind.RELU:
        return np.maximum(0.0, v)
    if kind is ActivationKind.IDENTITY:
        return v.copy()
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_derivative(kind: ActivationKind, pre: np.ndarray) -> np.ndarray:
    """Elementwise derivative evaluated at the pre-activation values."""
    pre = np.asarray(pre, dtype=np.float64)
    if kind is ActivationKind.SIGMOID:
        s = _sigmoid(pre)
        return s * (1.0 - s)
    if kind is ActivationKind.TANH:
        t = np.tanh(pre)
        return 1.0 - t * t
    if kind is ActivationKind.RELU:
        # subgradient at 0 is taken as 0
        return (pre > 0.0).astype(np.float64)
    if kind is ActivationKind.IDENTITY:
        return np.ones_like(pre)
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_derivative_from_output(kind: ActivationKind, out: np.ndarray) -> np.ndarray:
    """Derivative expressed through the activation's own output.

    Bit-identical to activation_derivative(kind, pre) when `out` was produced
    by activation_apply(pre, kind); skips recomputing the activation.
    """
    if kind is ActivationKind.SIGMOID:
        return out * (1.0 - out)
    if kind is ActivationKind.TANH:
        return 1.0 - out * out
    if kind is ActivationKind.RELU:
        return (out > 0.0).astype(np.float64)
    if kind is ActivationKind.IDENTITY:
        return np.ones_like(out)
    raise ValueError(f"unknown activation kind: {kind!r}")
