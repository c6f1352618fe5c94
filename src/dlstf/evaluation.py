"""Reference forecasters and block-walk evaluation with MAE/RMSE/NRMSE reports.

A forecaster here is a batch callable `forecast(values, starts)` returning the
(h, B, n) forecasts of the B blocks that start at rows `starts` of the (T, n)
values; block j may read only `values[:starts[j]]`. `bank_forecaster`,
`persistence_forecaster` and `ar_forecaster` adapt the bank and the baselines
to it; each also takes a lone history as the B = 1 case and returns (h, n).
Metrics are always computed on denormalized (m/s) values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import HorizonConfig, ModelBank
from .dataset import TimeSeriesPanel
from .errors import DataError


@dataclass(frozen=True)
class ArModel:
    """Univariate autoregression: x_t = intercept + sum_j coefficients[j] * x_{t-1-j}."""

    station_id: str
    order: int
    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if self.order < 1:
            raise ValueError("AR order must be >= 1")
        if coeffs.shape != (self.order,):
            raise ValueError(f"need {self.order} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "coefficients", coeffs)


def persistence_forecast(history_values: np.ndarray, block_start: int, h: int) -> np.ndarray:
    """Repeat each station's last real observation before block_start for h steps."""
    values = np.asarray(history_values, dtype=np.float64)
    if values.ndim != 2 or block_start < 1 or block_start > values.shape[0]:
        raise ValueError(f"bad history shape {values.shape} or block_start {block_start}")
    past = values[:block_start]
    n = values.shape[1]
    last = np.full(n, np.nan)
    for s in range(n):
        col = past[:, s]
        finite = np.flatnonzero(np.isfinite(col))
        if finite.size == 0:
            raise DataError(f"station column {s} has no real observation before the block")
        last[s] = col[finite[-1]]
    return np.tile(last, (h, 1))


def ar_fit(series: np.ndarray, p: int) -> ArModel:
    """Least-squares AR(p) with intercept on a gap-free 1-D series.

    The design matrix puts lag 1 first; the solve is numpy lstsq (SVD).
    """
    if p < 1:
        raise ValueError("AR order must be >= 1")
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {series.shape}")
    if series.shape[0] <= p + 1:
        raise ValueError(f"need more than {p + 1} observations to fit AR({p})")
    if not np.all(np.isfinite(series)):
        raise DataError("AR fitting range contains missing values")
    rows = series.shape[0] - p
    design = np.ones((rows, p + 1))
    for j in range(p):
        design[:, 1 + j] = series[p - 1 - j:p - 1 - j + rows]
    target = series[p:]
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < p + 1:
        raise ValueError("singular design matrix: series has no AR structure to fit")
    return ArModel(station_id="", order=p, intercept=float(coeffs[0]),
                   coefficients=coeffs[1:])


def ar_forecast(model: ArModel, history: np.ndarray, h: int) -> np.ndarray:
    """Recursive h-step forecasts of B series from their (B, t) histories, as
    (h, B); each prediction feeds the later lags. The sum runs elementwise in
    lag order, so a series' bits do not depend on B."""
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 2 or history.shape[1] < model.order:
        raise ValueError(
            f"need (B, t) histories of at least {model.order} values, got shape {history.shape}")
    lags = list(history.T[::-1][:model.order])  # lags[0] = most recent
    c = model.coefficients
    out = np.empty((h, history.shape[0]))
    for step in range(h):
        acc = c[0] * lags[0]
        for j in range(1, model.order):
            acc += c[j] * lags[j]
        out[step] = nxt = model.intercept + acc
        lags = [nxt] + lags[:-1]
    return out


def compute_metrics(pred: np.ndarray, actual: np.ndarray) -> tuple[float, float, float]:
    """(MAE, RMSE, NRMSE%) of one series pair; NRMSE normalizes RMSE by the
    range of the actuals and is NaN when that range is zero."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    if pred.shape != actual.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {actual.shape}")
    if pred.size == 0:
        raise ValueError("cannot compute metrics on empty series")
    err = pred - actual
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    span = float(actual.max() - actual.min())
    nrmse = 100.0 * rmse / span if span > 0.0 else float("nan")
    return mae, rmse, nrmse


@dataclass(frozen=True)
class ErrorReport:
    """Per-station and station-averaged MAE/RMSE/NRMSE over all evaluated blocks."""

    station_ids: tuple[str, ...]
    mae: np.ndarray
    rmse: np.ndarray
    nrmse: np.ndarray
    mean_mae: float
    mean_rmse: float
    mean_nrmse: float
    sample_count: int

    def to_csv(self, path) -> None:
        lines = ["station,mae,rmse,nrmse"]
        for s, sid in enumerate(self.station_ids):
            lines.append(f"{sid},{float(self.mae[s])!r},{float(self.rmse[s])!r},"
                         f"{float(self.nrmse[s])!r}")
        lines.append(f"MEAN,{self.mean_mae!r},{self.mean_rmse!r},{self.mean_nrmse!r}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def block_walk(forecaster, panel: TimeSeriesPanel, cfg: HorizonConfig,
               first_block_index: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Run the moving-horizon schedule over a panel.

    Blocks start at `first_block_index` (default ell) and step by h; each
    forecast sees only the rows before its block. Blocks whose ell-row history
    window is incomplete are skipped. The forecaster is called once with every
    kept start. Returns the (T, n) matrix of stitched predictions (NaN where no
    forecast was made) and the block start indices.
    """
    h, ell = cfg.h, cfg.ell
    start = ell if first_block_index is None else first_block_index
    if start < ell:
        raise DataError(f"first block at index {start} leaves less than ell={ell} history rows")
    T, n = panel.values.shape
    # bad[t] counts the rows before t with a missing value
    bad = np.concatenate(([0], np.cumsum(~np.all(np.isfinite(panel.values), axis=1))))
    starts = np.arange(start, T - h + 1, h)
    starts = starts[bad[starts] == bad[starts - ell]]
    if starts.size == 0:
        raise DataError("test panel is too short or too gappy for a single complete block")
    blocks = np.asarray(forecaster(panel.values, starts), dtype=np.float64)
    if blocks.shape != (h, starts.size, n):
        raise ValueError(f"forecaster returned {blocks.shape}, expected {(h, starts.size, n)}")
    preds = np.full((T, n), np.nan)
    preds[starts + np.arange(h)[:, None]] = blocks
    return preds, starts.tolist()


def evaluate(forecaster, test_panel: TimeSeriesPanel, cfg: HorizonConfig,
             first_block_index: int | None = None) -> ErrorReport:
    """Walk the test panel block by block and report per-station metrics.

    The rows before `first_block_index` (default ell) serve as warm-up history;
    thereafter blocks step by h, with all rows before each block available as
    real history. Positions with a missing actual are excluded from the error sums.
    """
    preds, _ = block_walk(forecaster, test_panel, cfg, first_block_index)
    mask = np.isfinite(preds) & np.isfinite(test_panel.values)
    rows = []
    for s, sid in enumerate(test_panel.station_ids):
        sel = mask[:, s]
        if not sel.any():
            raise DataError(f"station {sid!r} has no evaluable forecasts")
        rows.append(compute_metrics(preds[sel, s], test_panel.values[sel, s]))
    mae, rmse, nrmse = (np.array(col) for col in zip(*rows))
    return ErrorReport(
        station_ids=test_panel.station_ids, mae=mae, rmse=rmse, nrmse=nrmse,
        mean_mae=float(np.mean(mae)), mean_rmse=float(np.mean(rmse)),
        mean_nrmse=float(np.mean(nrmse)), sample_count=int(mask.sum()))


def _batch_forecaster(blocks):
    """Wrap `blocks(values, starts) -> (h, B, n)` so it also takes a lone history."""
    def forecast(values: np.ndarray, starts=None) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if starts is None:  # one block after the last row, as (h, n)
            return forecast(values, [values.shape[0]])[:, 0]
        starts = np.asarray(starts, dtype=np.intp)
        if values.ndim != 2 or starts.ndim != 1 or np.any((starts < 1) | (starts > len(values))):
            raise ValueError(f"bad history shape {values.shape} or block starts")
        return blocks(values, starts)
    return forecast


def bank_forecaster(bank: ModelBank):
    """Adapt a ModelBank to the evaluate() forecaster shape: every offset runs
    once over all blocks of a walk."""
    return _batch_forecaster(bank.predict_blocks)


def persistence_forecaster(h: int):
    """Each station's last real row before every start, from one forward-filled index."""
    def blocks(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        seen = np.where(np.isfinite(values), np.arange(values.shape[0])[:, None], -1)
        rows = np.maximum.accumulate(seen, axis=0)[starts - 1]
        if np.any(rows < 0):
            s = int(np.argwhere(rows < 0)[0, 1])
            raise DataError(f"station column {s} has no real observation before the block")
        last = np.take_along_axis(values, rows, axis=0)
        return np.repeat(last[None], h, axis=0)
    return _batch_forecaster(blocks)


def fit_ar_models(panel: TimeSeriesPanel, p: int) -> list[ArModel]:
    """Fit one AR(p) per station over the whole (gap-free) panel; a refused fit
    raises `ar_fit`'s exception class, its text prefixed with the station id."""
    models = []
    for s, sid in enumerate(panel.station_ids):
        try:
            m = ar_fit(panel.values[:, s], p)
        except ValueError as exc:  # DataError too
            raise type(exc)(f"station {sid!r}: {exc}") from None
        models.append(ArModel(sid, m.order, m.intercept, m.coefficients))
    return models


def ar_forecaster(models: list[ArModel], h: int):
    """Adapt per-station AR models; each forecasts from its station's last `order` rows."""
    def blocks(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        out = np.empty((h, starts.size, len(models)))
        observed = np.empty((starts.size, len(models)), dtype=bool)
        for s, m in enumerate(models):
            rows = starts[:, None] - m.order + np.arange(m.order)
            lags = values[rows, s]
            observed[:, s] = np.all(np.isfinite(lags) & (rows >= 0), axis=1)
            out[:, :, s] = ar_forecast(m, lags, h)
        if not observed.all():
            m = models[int(np.argwhere(~observed)[0, 1])]
            raise DataError(f"station {m.station_id!r}: the last {m.order} history rows "
                            "must all be observed for an AR forecast")
        return out
    return _batch_forecaster(blocks)
