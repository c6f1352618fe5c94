"""Reference computations the benchmark checks the program's outputs against.

They follow the paper's description and share no code path with dlstf: the
LSTM forward pass reads each layer's fused ``w``/``u``/``b`` (gate order f,
i, k, o) and the head's ``head_w``/``head_b`` and runs batched over blocks;
the offset rule is a sliding ell-row window over the block's real rows
followed by the forecasts made so far in the block. Results agree with the
program to a tolerance, not bit for bit, so a change that reorders the
arithmetic passes while a change of the rule fails.
"""

from __future__ import annotations

import numpy as np

# relative tolerance of every comparison against a reference; reordered
# float64 arithmetic differs by a few ulps, far below this
RTOL = 1e-9


def close(actual, expected, rtol: float = RTOL) -> bool:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    scale = np.maximum(1.0, np.abs(expected))
    return bool(np.all(np.abs(actual - expected) <= rtol * scale))


def fill_gaps(values: np.ndarray, max_gap: int) -> np.ndarray:
    """Linear interpolation of interior NaN runs no longer than max_gap."""
    out = values.copy()
    T = out.shape[0]
    for col in out.T:
        missing = np.isnan(col).astype(np.int8)
        edges = np.diff(np.concatenate(([0], missing, [0])))
        for start, stop in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
            length = stop - start
            if start > 0 and stop < T and length <= max_gap:
                left, right = col[start - 1], col[stop]
                for j in range(length):
                    col[start + j] = left + (j + 1) / (length + 1) * (right - left)
    return out


def block_starts(values: np.ndarray, first: int, h: int, ell: int) -> list[int]:
    """Block starts of the walk from `first` in steps of h with a complete ell-row history."""
    T = values.shape[0]
    finite_row = np.all(np.isfinite(values), axis=1)
    return [b for b in range(first, T - h + 1, h) if finite_row[b - ell:b].all()]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _net_batch(net, x: np.ndarray) -> np.ndarray:
    """Stacked LSTM plus dense head over a (B, L, n) batch; returns (B, n)."""
    seq = x
    for layer in net.layers:
        w, u, b = layer.w, layer.u, layer.b
        hid = u.shape[1]
        batch, steps, _ = seq.shape
        h = np.zeros((batch, hid))
        c = np.zeros((batch, hid))
        outs = np.empty((batch, steps, hid))
        for t in range(steps):
            z = seq[:, t] @ w.T + h @ u.T + b
            f = _sigmoid(z[:, :hid])
            i = _sigmoid(z[:, hid:2 * hid])
            k = np.tanh(z[:, 2 * hid:3 * hid])
            o = _sigmoid(z[:, 3 * hid:])
            c = f * c + i * k
            h = o * np.tanh(c)
            outs[:, t] = h
        seq = outs
    return seq[:, -1] @ net.head_w.T + net.head_b


def bank_blocks(bank, values: np.ndarray, starts: list[int]) -> np.ndarray:
    """(len(starts), h, n) denormalized forecasts of the blocks starting at `starts`."""
    h, ell = bank.config.h, bank.config.ell
    mins = np.asarray(bank.normalizer.mins, dtype=np.float64)
    span = np.asarray(bank.normalizer.maxs, dtype=np.float64) - mins
    span = np.where(span > 0.0, span, 1.0)
    seq = np.stack([(values[b - ell:b] - mins) / span for b in starts])
    for i in range(h):
        pred = _net_batch(bank.models[i], seq[:, -ell:])
        seq = np.concatenate([seq, pred[:, None, :]], axis=1)
    return seq[:, ell:] * span + mins


def persistence_blocks(values: np.ndarray, starts: list[int], h: int) -> np.ndarray:
    """Each station's last observed value before the block, repeated h times."""
    T, n = values.shape
    idx = np.where(np.isfinite(values), np.arange(T)[:, None], -1)
    last = np.maximum.accumulate(idx, axis=0)
    rows = last[np.asarray(starts) - 1]
    out = values[rows, np.arange(n)]
    return np.repeat(out[:, None, :], h, axis=1)


def ar_coefficients(values: np.ndarray, p: int) -> np.ndarray:
    """(n, p + 1) least-squares AR(p) fits per station, intercept first, via QR."""
    rows = values.shape[0] - p
    coefs = []
    for col in values.T:
        design = np.column_stack([np.ones(rows)] + [col[p - 1 - j:p - 1 - j + rows]
                                                   for j in range(p)])
        q, r = np.linalg.qr(design)
        coefs.append(np.linalg.solve(r, q.T @ col[p:]))
    return np.array(coefs)


def ar_blocks(values: np.ndarray, coefs: np.ndarray, starts: list[int], h: int) -> np.ndarray:
    """Recursive AR forecasts from the p real rows before each block (all finite)."""
    p = coefs.shape[1] - 1
    lags = np.stack([values[b - p:b][::-1] for b in starts])  # (B, p, n), lag 1 first
    out = np.empty((len(starts), h, values.shape[1]))
    for step in range(h):
        nxt = coefs[:, 0] + np.einsum("bjn,nj->bn", lags, coefs[:, 1:])
        out[:, step] = nxt
        lags = np.concatenate([nxt[:, None, :], lags[:, :-1]], axis=1)
    return out


def walk_report(values: np.ndarray, starts: list[int], blocks: np.ndarray
                ) -> dict[str, np.ndarray]:
    """Per-station MAE, RMSE and NRMSE% of stitched block forecasts."""
    T, n = values.shape
    h = blocks.shape[1]
    preds = np.full((T, n), np.nan)
    for b, block in zip(starts, blocks):
        preds[b:b + h] = block
    out = {"mae": np.empty(n), "rmse": np.empty(n), "nrmse": np.empty(n)}
    for s in range(n):
        sel = np.isfinite(preds[:, s]) & np.isfinite(values[:, s])
        err = preds[sel, s] - values[sel, s]
        actual = values[sel, s]
        out["mae"][s] = np.mean(np.abs(err))
        out["rmse"][s] = np.sqrt(np.mean(err * err))
        out["nrmse"][s] = 100.0 * out["rmse"][s] / (actual.max() - actual.min())
    return out


def read_report(path) -> dict[str, np.ndarray]:
    """Parse an ErrorReport CSV (station,mae,rmse,nrmse plus a MEAN row)."""
    lines = open(path, encoding="utf-8").read().splitlines()
    if lines[0] != "station,mae,rmse,nrmse" or not lines[-1].startswith("MEAN,"):
        raise ValueError(f"{path}: unexpected report layout")
    rows = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:-1]])
    mean = np.array([float(v) for v in lines[-1].split(",")[1:]])
    return {"mae": rows[:, 0], "rmse": rows[:, 1], "nrmse": rows[:, 2], "mean": mean}


def report_matches(report: dict, expected: dict) -> bool:
    return all(close(report[k], expected[k]) for k in ("mae", "rmse", "nrmse")) and close(
        report["mean"], [np.mean(expected[k]) for k in ("mae", "rmse", "nrmse")])
