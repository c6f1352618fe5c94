"""Reference forecasters and block-walk evaluation with MAE/RMSE/NRMSE reports.

A forecaster here is any callable taking the (t, n) array of real history
rows and returning the (h, n) block of forecasts for the next h hours;
`bank_forecaster`, `persistence_forecaster` and `ar_forecaster` adapt the
bank and the baselines to that shape. Metrics are always computed on
denormalized (m/s) values.
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
    """Recursive h-step forecast; each prediction feeds the later lags."""
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 1 or history.shape[0] < model.order:
        raise ValueError(
            f"need at least {model.order} history values, got shape {history.shape}")
    lags = list(history[-model.order:][::-1])  # lags[0] = most recent
    out = np.empty(h)
    for step in range(h):
        nxt = model.intercept + float(np.dot(model.coefficients, lags))
        out[step] = nxt
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

    @property
    def station_count(self) -> int:
        return len(self.station_ids)

    def station_row(self, station_id: str) -> tuple[float, float, float]:
        idx = self.station_ids.index(station_id)
        return float(self.mae[idx]), float(self.rmse[idx]), float(self.nrmse[idx])

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        lines = ["station,mae,rmse,nrmse"]
        for s, sid in enumerate(self.station_ids):
            lines.append(f"{sid},{float(self.mae[s])!r},{float(self.rmse[s])!r},"
                         f"{float(self.nrmse[s])!r}")
        lines.append(f"MEAN,{self.mean_mae!r},{self.mean_rmse!r},{self.mean_nrmse!r}")
        return "\n".join(lines) + "\n"


def block_walk(forecaster, panel: TimeSeriesPanel, cfg: HorizonConfig,
               first_block_index: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Run the moving-horizon schedule over a panel.

    Blocks start at `first_block_index` (default ell) and step by h; each
    forecast sees only the rows before its block. Blocks whose ell-row history
    window is incomplete are skipped. Returns the (T, n) matrix of stitched
    predictions (NaN where no forecast was made) and the block start indices.
    """
    h, ell = cfg.h, cfg.ell
    start = ell if first_block_index is None else first_block_index
    if start < ell:
        raise DataError(f"first block at index {start} leaves less than ell={ell} history rows")
    T, n = panel.values.shape
    preds = np.full((T, n), np.nan)
    starts: list[int] = []
    for b in range(start, T - h + 1, h):
        window = panel.values[b - ell:b]
        if not np.all(np.isfinite(window)):
            continue
        block = forecaster(panel.values[:b])
        block = np.asarray(block, dtype=np.float64)
        if block.shape != (h, n):
            raise ValueError(f"forecaster returned {block.shape}, expected {(h, n)}")
        preds[b:b + h] = block
        starts.append(b)
    if not starts:
        raise DataError("test panel is too short or too gappy for a single complete block")
    return preds, starts


def evaluate(forecaster, test_panel: TimeSeriesPanel, cfg: HorizonConfig,
             first_block_index: int | None = None) -> ErrorReport:
    """Walk the test panel block by block and report per-station metrics.

    The first ell rows serve as warm-up history; thereafter blocks step by h,
    with all rows before each block available as real history. Positions with
    a missing actual are excluded from the error sums.
    """
    preds, _ = block_walk(forecaster, test_panel, cfg, first_block_index)
    mask = np.isfinite(preds) & np.isfinite(test_panel.values)
    n = test_panel.n_stations
    mae = np.empty(n)
    rmse = np.empty(n)
    nrmse = np.empty(n)
    total = 0
    for s in range(n):
        sel = mask[:, s]
        count = int(sel.sum())
        if count == 0:
            raise DataError(f"station {test_panel.station_ids[s]!r} has no evaluable forecasts")
        total += count
        mae[s], rmse[s], nrmse[s] = compute_metrics(preds[sel, s], test_panel.values[sel, s])
    return ErrorReport(
        station_ids=test_panel.station_ids,
        mae=mae, rmse=rmse, nrmse=nrmse,
        mean_mae=float(np.mean(mae)),
        mean_rmse=float(np.mean(rmse)),
        mean_nrmse=float(np.mean(nrmse)),
        sample_count=total,
    )


def bank_forecaster(bank: ModelBank):
    """Adapt a ModelBank to the evaluate() forecaster shape."""
    return bank.predict_block


def persistence_forecaster(h: int):
    def forecast(history: np.ndarray) -> np.ndarray:
        return persistence_forecast(history, history.shape[0], h)
    return forecast


def fit_ar_models(panel: TimeSeriesPanel, p: int) -> list[ArModel]:
    """Fit one AR(p) per station over the whole (gap-free) panel."""
    models = []
    for s, sid in enumerate(panel.station_ids):
        m = ar_fit(panel.values[:, s], p)
        models.append(ArModel(sid, m.order, m.intercept, m.coefficients))
    return models


def ar_forecaster(models: list[ArModel], h: int):
    """Adapt per-station AR models; each forecasts from its station's last `order` rows."""
    def forecast(history: np.ndarray) -> np.ndarray:
        out = np.empty((h, len(models)))
        for s, m in enumerate(models):
            lags = history[-m.order:, s]
            if not np.all(np.isfinite(lags)):
                raise DataError(f"station {m.station_id!r}: the last {m.order} history rows "
                                "must all be observed for an AR forecast")
            out[:, s] = ar_forecast(m, lags, h)
        return out
    return forecast
