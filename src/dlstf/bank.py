"""Bank of per-offset models for moving-horizon forecasting.

Real observations arrive only every h hours. Inside a block of h forecast
steps, the model for offset i consumes the last ell station vectors, of which
ell-i+1 are real and i-1 are forecasts produced earlier in the block (when
i-1 >= ell, the input is the last ell forecasts only). The schedule counts
from the block: offset i serves row b + i - 1 of the block that starts at row
b. Blocks start at --test-start or forecast --at, or else at the held-out cut
max(ell, b) of the configured train/validation split, then every h rows.

Banks are trained in cascade: the offset-1 model learns from all-real inputs,
its sliding-window predictions become the offset-1 forecast overlay, the
offset-2 model trains on inputs mixing real rows with that overlay, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import struct

import numpy as np

from .dataset import (Normalizer, TimeSeriesPanel, assemble_input, denormalize,
                      fit_normalizer, make_samples, normalize)
from .errors import DataError, NumericsError
from .lstm import LstmLayerParams, LstmNetwork, init_params, predict_batches
from .training import TrainConfig, train_model

BANK_MAGIC = b"DLSTF\x00"
BANK_VERSION = 1

DEFAULT_H = 6
DEFAULT_ELL = 12
DEFAULT_FIRST_WIDTHS = (32,)
DEFAULT_LATER_WIDTHS = (64, 64)


@dataclass(frozen=True)
class HorizonConfig:
    """Shape of a bank: h offsets, input horizon ell, n stations, per-model widths."""

    n: int
    h: int
    ell: int
    widths: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.h < 1 or self.ell < 1 or self.n < 1:
            raise ValueError(f"h={self.h}, ell={self.ell} and n={self.n} must all be >= 1")
        if len(self.widths) != self.h:
            raise ValueError(f"need exactly {self.h} width specifications, got {len(self.widths)}")
        for i, w in enumerate(self.widths, start=1):
            if not w or min(w) < 1:
                raise ValueError(f"model {i} needs layer widths, each >= 1, got {list(w)}")

    @classmethod
    def default(cls, n: int, h: int = DEFAULT_H, ell: int = DEFAULT_ELL,
                first_widths: tuple[int, ...] = DEFAULT_FIRST_WIDTHS,
                later_widths: tuple[int, ...] = DEFAULT_LATER_WIDTHS) -> "HorizonConfig":
        """Standard bank: one small net for offset 1, stacked nets for the rest."""
        widths = (tuple(first_widths),) + (tuple(later_widths),) * (h - 1)
        return cls(n=n, h=h, ell=ell, widths=widths)


@dataclass
class ModelBank:
    """The h trained per-offset networks plus the normalization fitted with them."""

    config: HorizonConfig
    models: list[LstmNetwork]
    normalizer: Normalizer

    def __post_init__(self):
        if len(self.models) != self.config.h:
            raise ValueError(f"bank needs exactly {self.config.h} models, got {len(self.models)}")
        for idx, m in enumerate(self.models, start=1):
            if m.input_dim != self.config.n or m.output_dim != self.config.n:
                raise ValueError(
                    f"model {idx} must map {self.config.n} stations to {self.config.n}, "
                    f"got {m.input_dim} -> {m.output_dim}")
        if len(self.normalizer.station_ids) != self.config.n:
            raise ValueError("normalizer station count does not match the config")

    def predict_blocks(self, values: np.ndarray, starts) -> np.ndarray:
        """Forecast the h hours from each row of `starts` of raw (T, n) values in
        m/s (stations matched by position); the result is the denormalized
        (h, B, n) array of the B blocks.

        Block j reads only the ell rows before starts[j], which must be present
        and finite. Each offset runs once over all blocks through
        predict_batches. A non-finite forecast raises NumericsError naming the
        first offset that has one.
        """
        cfg = self.config
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != cfg.n:
            raise DataError(f"history must be (t, {cfg.n}), got {values.shape}")
        starts = np.asarray(starts, dtype=np.intp)
        short = starts[starts < cfg.ell]
        if short.size:
            raise DataError(f"need at least ell={cfg.ell} history rows, got {short[0]}")
        window = values[starts - cfg.ell + np.arange(cfg.ell)[:, None]]
        if not np.all(np.isfinite(window)):
            raise DataError("the last ell history rows contain missing values")
        window = normalize(window, self.normalizer)
        out = np.empty((cfg.h, len(starts), cfg.n))
        forecasts: dict[int, np.ndarray] = {}
        # an overflow shows as a non-finite result, checked once below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, cfg.h + 1):
                seq = assemble_input(window, forecasts, i, cfg.ell)
                out[i - 1] = predict_batches(self.models[i - 1], seq)
                forecasts[i] = out[i - 1]
            out = denormalize(out, self.normalizer)
        if not np.isfinite(out).all():
            bad = ~np.isfinite(out).all(axis=2)
            i = int(np.flatnonzero(bad.any(axis=1))[0])
            raise NumericsError(f"offset {i + 1}: non-finite forecast in "
                                f"{int(bad[i].sum())} of {bad.shape[1]} blocks")
        return out

    def predict_block(self, history_values: np.ndarray) -> np.ndarray:
        """The (h, n) block after the last of the (t, n) history rows: the
        B = 1 case of predict_blocks."""
        history_values = np.asarray(history_values, dtype=np.float64)
        return self.predict_blocks(history_values, np.shape(history_values)[:1])[:, 0]


@dataclass(frozen=True)
class ForecastBlock:
    """One moving-horizon block: h denormalized prediction rows from block_start on."""

    block_start: np.datetime64
    predictions: np.ndarray

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=np.float64)
        if preds.ndim != 2:
            raise ValueError(f"predictions must be (h, n), got {preds.shape}")
        preds = preds.copy()
        preds.setflags(write=False)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "block_start", np.datetime64(self.block_start, "s"))


def check_train_rows(T: int, ell: int, h: int) -> None:
    """A training range of T rows must be longer than ell + h rows."""
    if T <= ell + h:
        raise DataError(f"not enough training history: T={T} must exceed ell + h = {ell + h}")


def train_bank(train_panel: TimeSeriesPanel, val_panel: TimeSeriesPanel,
               cfg: HorizonConfig, train: TrainConfig, progress=None) -> ModelBank:
    """Cascade-train all h models on raw (missing-repaired) panels in m/s.

    Model i trains with `train`, its seed replaced by `train.seed + i - 1`. The
    normalizer is fitted on the train panel, both panels' values are normalized
    into arrays, and models are trained in offset order: after model i finishes,
    its sliding-window predictions over both ranges populate the offset-i forecast
    overlay consumed by later models; the validation ones are those train_model
    made at its best epoch. `progress(i, history)` is called after
    each model when given.
    """
    if train_panel.station_ids != val_panel.station_ids:
        raise DataError("train and validation panels must share the same stations")
    if train_panel.n_stations != cfg.n:
        raise DataError(f"config expects {cfg.n} stations, panel has {train_panel.n_stations}")
    check_train_rows(train_panel.n_times, cfg.ell, cfg.h)

    nz = fit_normalizer(train_panel)
    train_values = normalize(train_panel.values, nz)
    val_values = normalize(val_panel.values, nz)

    n_overlays = max(cfg.h - 1, 0)
    ov_train = np.full((n_overlays, *train_values.shape), np.nan)
    ov_val = np.full((n_overlays, *val_values.shape), np.nan)

    models: list[LstmNetwork] = []
    for i in range(1, cfg.h + 1):
        tc = replace(train, seed=train.seed + i - 1)
        net = init_params(list(cfg.widths[i - 1]), cfg.n, tc.seed)
        tr = make_samples(train_values, ov_train, cfg.ell, i)
        va = make_samples(val_values, ov_val, cfg.ell, i)
        if len(tr) == 0:
            raise DataError(f"model {i}: no usable training samples")
        if len(va) == 0:
            raise DataError(f"model {i}: no usable validation samples")
        try:
            trained, history, val_pred = train_model(net, tr, va, tc)
        except NumericsError as exc:
            raise NumericsError(f"model {i}: {exc}") from exc
        models.append(trained)
        if progress is not None:
            progress(i, history)
        if i < cfg.h:
            ov_train[i - 1, tr.target_indices] = predict_batches(trained, tr.x)
            ov_val[i - 1, va.target_indices] = val_pred
    return ModelBank(config=cfg, models=models, normalizer=nz)


def forecast_block(bank: ModelBank, history_panel: TimeSeriesPanel,
                   block_start) -> ForecastBlock:
    """Forecast the h hours from block_start, a panel hour or the hour after the
    last row, from the real history before it."""
    idx = history_panel.index_of(block_start, past_end=True)
    preds = bank.predict_block(history_panel.values[:idx])
    return ForecastBlock(block_start=np.datetime64(block_start, "s"), predictions=preds)


def save_bank(bank: ModelBank, path) -> None:
    """Write the versioned binary bank file (see README for the exact layout),
    each block straight to the file."""
    cfg = bank.config
    nz = bank.normalizer
    pairs = np.empty(2 * cfg.n)
    pairs[0::2] = nz.mins
    pairs[1::2] = nz.maxs
    with open(path, "wb") as fh:
        fh.write(BANK_MAGIC)
        fh.write(struct.pack("<IIII", BANK_VERSION, cfg.h, cfg.ell, cfg.n))
        fh.write(pairs.astype("<f8", copy=False).data)
        for m in bank.models:
            fh.write(struct.pack("<I", len(m.layers)))
            for l in m.layers:
                fh.write(struct.pack("<II", l.input_dim, l.hidden_dim))
                for block in (l.w, l.u, l.b):
                    fh.write(block.astype("<f8", copy=False).data)
            fh.write(m.head_w.astype("<f8", copy=False).data)
            fh.write(m.head_b.astype("<f8", copy=False).data)
        fh.write(struct.pack("<Q", pairs.size + sum(
            a.size for m in bank.models for a in m.param_arrays())))


class _Reader:
    """The bank file's fields in order, counting the f64s read in `f64_count`."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path
        self.f64_count = 0

    def take(self, nbytes: int) -> bytes:
        if self.pos + nbytes > len(self.data):
            raise DataError(
                f"{self.path}: truncated bank file (needed {nbytes} bytes at "
                f"offset {self.pos}, only {len(self.data) - self.pos} left)")
        chunk = self.data[self.pos:self.pos + nbytes]
        self.pos += nbytes
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64s(self, count: int) -> np.ndarray:
        start = self.pos
        values = np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise DataError(f"{self.path}: non-finite value in the f64 block at offset {start}")
        self.f64_count += count
        return values


def load_bank(path) -> ModelBank:
    """Read a version 1 bank file, bit-exact through save_bank. The reader checks
    the frame only; the bank's classes refuse a bad shape, and their ValueError
    becomes a DataError naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, path)
    magic = r.take(len(BANK_MAGIC))
    if magic != BANK_MAGIC:
        raise DataError(
            f"{path}: bad magic: expected {BANK_MAGIC.hex()}, found {magic.hex()}")
    version = r.u32()
    if version != BANK_VERSION:
        raise DataError(
            f"{path}: unsupported format version: found {version}, supported {BANK_VERSION}")
    h, ell, n = r.u32(), r.u32(), r.u32()
    pairs = r.f64s(2 * n)
    models = []  # per model: its layers' (input_dim, hidden_dim, w, u, b), head_w, head_b
    for _ in range(h):
        layers, width = [], n
        for _ in range(r.u32()):
            d, width = r.u32(), r.u32()
            layers.append((d, width, r.f64s(4 * width * d).reshape(4 * width, d),
                           r.f64s(4 * width * width).reshape(4 * width, width),
                           r.f64s(4 * width)))
        models.append((layers, r.f64s(n * width).reshape(n, width), r.f64s(n)))
    declared = r.u64()
    if declared != r.f64_count:
        raise DataError(f"{path}: f64 count mismatch: trailer says {declared}, "
                        f"payload holds {r.f64_count}")
    if r.pos != len(data):
        raise DataError(f"{path}: {len(data) - r.pos} unexpected trailing bytes")
    try:
        nets = [LstmNetwork([LstmLayerParams(*l) for l in layers], head_w, head_b)
                for layers, head_w, head_b in models]
        # station identity is not part of the format; stations match by CSV position
        nz = Normalizer(tuple(str(k) for k in range(n)), pairs[0::2], pairs[1::2])
        widths = tuple(tuple(l.hidden_dim for l in m.layers) for m in nets)
        cfg = HorizonConfig(n=n, h=h, ell=ell, widths=widths)
        return ModelBank(config=cfg, models=nets, normalizer=nz)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
