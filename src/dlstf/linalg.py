"""Float64 sigmoid, a vector check and a gate pre-activation.

All operations are pure: the same inputs always produce bit-identical outputs.
"""

from __future__ import annotations

import numpy as np


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


def sigmoid(v) -> np.ndarray:
    """Elementwise 1/(1+exp(-v)) without overflow; exact at 0, saturates to 0 and 1."""
    return 0.5 * (np.tanh(0.5 * np.asarray(v, dtype=np.float64)) + 1.0)
