"""Bank of per-offset models for moving-horizon forecasting.

Real observations arrive only every h hours. Inside a block of h forecast
steps, the model for offset i consumes the last ell station vectors, of which
ell-i+1 are real and i-1 are forecasts produced earlier in the block (when
i-1 >= ell, the input is the last ell forecasts only). The offset for global
hour t is t mod h, mapping 0 to h, so the bank cycles with period h.

Banks are trained in cascade: the offset-1 model learns from all-real inputs,
its sliding-window predictions become the offset-1 forecast overlay, the
offset-2 model trains on inputs mixing real rows with that overlay, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import struct

import numpy as np

from .dataset import (Normalizer, TimeSeriesPanel, denormalize, fit_normalizer,
                      format_timestamp, make_samples, normalize, HOUR)
from .errors import DataError, NumericsError
from .linalg import ActivationKind
from .lstm import LstmLayerParams, LstmNetwork, init_params, net_forward, predict_batches
from .training import TrainConfig, stack_samples, train_model

BANK_MAGIC = b"DLSTF\x00"
BANK_VERSION = 1

DEFAULT_FIRST_WIDTHS = (32,)
DEFAULT_LATER_WIDTHS = (64, 64)


@dataclass(frozen=True)
class HorizonConfig:
    """Shape of a bank: h offsets, input horizon ell, n stations, per-model widths."""

    n: int
    h: int = 6
    ell: int = 12
    widths: tuple[tuple[int, ...], ...] = ()
    train_configs: tuple[TrainConfig, ...] = ()

    def __post_init__(self):
        if self.h < 1 or self.ell < 1 or self.n < 1:
            raise ValueError("h, ell and n must all be >= 1")
        if len(self.widths) != self.h:
            raise ValueError(f"need exactly {self.h} width specifications, got {len(self.widths)}")
        if any(len(w) == 0 or any(d < 1 for d in w) for w in self.widths):
            raise ValueError("every model needs at least one positive layer width")
        if len(self.train_configs) != self.h:
            raise ValueError(f"need exactly {self.h} train configs, got {len(self.train_configs)}")

    @classmethod
    def default(cls, n: int, h: int = 6, ell: int = 12, seed: int = 0,
                first_widths: tuple[int, ...] = DEFAULT_FIRST_WIDTHS,
                later_widths: tuple[int, ...] = DEFAULT_LATER_WIDTHS,
                **train_kwargs) -> "HorizonConfig":
        """Standard bank: one small net for offset 1, stacked nets for the rest.

        Model i trains with seed `seed + i - 1`; extra keyword arguments go to
        every TrainConfig.
        """
        widths = (tuple(first_widths),) + (tuple(later_widths),) * (h - 1)
        train = tuple(TrainConfig(seed=seed + i, **train_kwargs) for i in range(h))
        return cls(n=n, h=h, ell=ell, widths=widths, train_configs=train)


def model_index(t: int, h: int) -> int:
    """Offset (1-based model number) serving global hour t: t mod h, 0 meaning h."""
    if t < 1 or h < 1:
        raise ValueError("t and h must be >= 1")
    t_hat = t % h
    return t_hat if t_hat != 0 else h


def assemble_input(real_history, forecast_buffer, t: int, cfg: HorizonConfig) -> np.ndarray:
    """Build the ell-row input for the model serving global hour t.

    `real_history` and `forecast_buffer` map integer hour indices to station
    vectors; positions up to t-i come from the former, later ones from the
    latter, where i = model_index(t, cfg.h).
    """
    i = model_index(t, cfg.h)
    rows = []
    for p in range(t - cfg.ell, t):
        source = real_history if p <= t - i else forecast_buffer
        kind = "real" if p <= t - i else "forecast"
        if p not in source:
            raise DataError(f"no {kind} coverage at hour {p} (needed for target hour {t})")
        rows.append(np.asarray(source[p], dtype=np.float64))
    return np.stack(rows)


@dataclass
class ModelBank:
    """The h trained per-offset networks plus the normalization fitted with them."""

    config: HorizonConfig
    models: list[LstmNetwork]
    normalizer: Normalizer
    format_version: int = BANK_VERSION

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

    def predict_block(self, history_values: np.ndarray) -> np.ndarray:
        """Forecast the next h hours from raw history rows (matched by position).

        `history_values` is a (t, n) array in m/s whose last ell rows must be
        present and finite; the result is the denormalized (h, n) block.
        """
        cfg = self.config
        history_values = np.asarray(history_values, dtype=np.float64)
        if history_values.ndim != 2 or history_values.shape[1] != cfg.n:
            raise DataError(f"history must be (t, {cfg.n}), got {history_values.shape}")
        if history_values.shape[0] < cfg.ell:
            raise DataError(
                f"need at least ell={cfg.ell} history rows, got {history_values.shape[0]}")
        window = history_values[-cfg.ell:]
        if not np.all(np.isfinite(window)):
            raise DataError("the last ell history rows contain missing values")
        nz = self.normalizer
        window = (window - nz.mins) / nz.spans

        # block-relative indexing: hour 0 is the last real row, targets are 1..h
        real = {p: window[p + cfg.ell - 1] for p in range(1 - cfg.ell, 1)}
        forecasts: dict[int, np.ndarray] = {}
        block = np.empty((cfg.h, cfg.n))
        for i in range(1, cfg.h + 1):
            seq = assemble_input(real, forecasts, i, cfg)
            pred, _ = net_forward(self.models[i - 1], seq, keep_cache=False)
            forecasts[i] = pred
            block[i - 1] = pred
        return denormalize(block, nz)


@dataclass(frozen=True)
class ForecastBlock:
    """One moving-horizon block: h denormalized prediction rows from block_start on."""

    block_start: np.datetime64
    predictions: np.ndarray

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=np.float64)
        if preds.ndim != 2:
            raise ValueError(f"predictions must be (h, n), got {preds.shape}")
        if not np.all(np.isfinite(preds)):
            raise ValueError("predictions must be finite")
        preds = preds.copy()
        preds.setflags(write=False)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "block_start", np.datetime64(self.block_start, "s"))


def _fill_overlay(overlay_row: np.ndarray, net: LstmNetwork, samples, chunk: int) -> None:
    """Write the net's forecast for every sample's target row, `chunk` samples per pass."""
    overlay_row[samples.target_indices] = predict_batches(net, stack_samples(samples)[0], chunk)


def train_bank(train_panel: TimeSeriesPanel, val_panel: TimeSeriesPanel,
               cfg: HorizonConfig, progress=None) -> ModelBank:
    """Cascade-train all h models on raw (missing-repaired) panels.

    The normalizer is fitted on the train panel, both panels are normalized,
    and models are trained in offset order: after model i finishes, its
    sliding-window predictions over both panels populate the offset-i forecast
    overlay consumed by later models. `progress(i, history)` is called after
    each model when given.
    """
    if train_panel.station_ids != val_panel.station_ids:
        raise DataError("train and validation panels must share the same stations")
    if train_panel.n_stations != cfg.n:
        raise DataError(f"config expects {cfg.n} stations, panel has {train_panel.n_stations}")
    if train_panel.n_times <= cfg.ell + cfg.h:
        raise DataError(
            f"not enough training history: T={train_panel.n_times} must exceed "
            f"ell + h = {cfg.ell + cfg.h}")

    nz = fit_normalizer(train_panel)
    norm_train = normalize(train_panel, nz)
    norm_val = normalize(val_panel, nz)

    n_overlays = max(cfg.h - 1, 0)
    ov_train = np.full((n_overlays, norm_train.n_times, cfg.n), np.nan)
    ov_val = np.full((n_overlays, norm_val.n_times, cfg.n), np.nan)

    models: list[LstmNetwork] = []
    for i in range(1, cfg.h + 1):
        tc = cfg.train_configs[i - 1]
        net = init_params(list(cfg.widths[i - 1]), cfg.n, tc.seed)
        tr = make_samples(norm_train, ov_train, cfg.ell, i)
        va = make_samples(norm_val, ov_val, cfg.ell, i)
        if len(tr) == 0:
            raise DataError(f"model {i}: no usable training samples")
        if len(va) == 0:
            raise DataError(f"model {i}: no usable validation samples")
        try:
            trained, history = train_model(net, tr, va, tc)
        except NumericsError as exc:
            raise NumericsError(f"model {i}: {exc}") from exc
        models.append(trained)
        if progress is not None:
            progress(i, history)
        if i < cfg.h:
            _fill_overlay(ov_train[i - 1], trained, tr, tc.batch_size)
            _fill_overlay(ov_val[i - 1], trained, va, tc.batch_size)
    return ModelBank(config=cfg, models=models, normalizer=nz)


def forecast_block(bank: ModelBank, history_panel: TimeSeriesPanel,
                   block_start) -> ForecastBlock:
    """Forecast the h hours starting at block_start from real history before it."""
    block_start = np.datetime64(block_start, "s")
    ts = history_panel.timestamps
    idx = int(np.searchsorted(ts, block_start))
    if idx < history_panel.n_times and ts[idx] != block_start:
        raise DataError(
            f"block start {format_timestamp(block_start)} is not on the panel's hourly grid")
    if idx == history_panel.n_times and ts[-1] + HOUR != block_start:
        raise DataError(
            f"block start {format_timestamp(block_start)} lies beyond the panel's history")
    if idx < bank.config.ell:
        raise DataError(
            f"only {idx} history rows before {format_timestamp(block_start)}, "
            f"need at least ell={bank.config.ell}")
    preds = bank.predict_block(history_panel.values[:idx])
    return ForecastBlock(block_start=block_start, predictions=preds)


def save_bank(bank: ModelBank, path) -> None:
    """Write the versioned binary bank file (see README for the exact layout)."""
    for idx, m in enumerate(bank.models, start=1):
        if m.head_activation is not ActivationKind.IDENTITY or any(
                l.gate_activation is not ActivationKind.SIGMOID for l in m.layers):
            raise ValueError(
                f"model {idx} uses non-default activations, which the v1 bank "
                "format cannot represent")
    cfg = bank.config
    out = bytearray()
    out += BANK_MAGIC
    out += struct.pack("<IIII", BANK_VERSION, cfg.h, cfg.ell, cfg.n)
    nz = bank.normalizer
    pairs = np.empty(2 * cfg.n)
    pairs[0::2] = nz.mins
    pairs[1::2] = nz.maxs
    out += pairs.astype("<f8").tobytes()
    total = 2 * cfg.n
    for m in bank.models:
        out += struct.pack("<I", len(m.layers))
        for l in m.layers:
            out += struct.pack("<II", l.input_dim, l.hidden_dim)
            for block in (l.w_f, l.w_i, l.w_k, l.w_o,
                          l.u_f, l.u_i, l.u_k, l.u_o,
                          l.b_f, l.b_i, l.b_k, l.b_o):
                out += np.ascontiguousarray(block).astype("<f8").tobytes()
        out += m.head_w.astype("<f8").tobytes()
        out += m.head_b.astype("<f8").tobytes()
        total += sum(a.size for a in m.param_arrays())
    out += struct.pack("<Q", total)
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

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
        return values


def load_bank(path) -> ModelBank:
    """Read a bank file; every parameter round-trips bit-exactly through save_bank."""
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
    if h < 1 or ell < 1 or n < 1:
        raise DataError(f"{path}: invalid dimensions h={h}, ell={ell}, n={n}")
    pairs = r.f64s(2 * n)
    bad = np.flatnonzero(pairs[1::2] < pairs[0::2])
    if bad.size:
        raise DataError(f"{path}: normalizer of station {bad[0]} has min > max")
    # station identity is not part of the format; stations match by CSV position
    nz = Normalizer(tuple(str(k) for k in range(n)), pairs[0::2], pairs[1::2])
    total = 2 * n

    models: list[LstmNetwork] = []
    widths: list[tuple[int, ...]] = []
    for _ in range(h):
        layer_count = r.u32()
        if layer_count < 1:
            raise DataError(f"{path}: model with zero layers")
        layers = []
        expected_in = n
        for _ in range(layer_count):
            d, hid = r.u32(), r.u32()
            if d != expected_in:
                raise DataError(
                    f"{path}: layer input dim {d} breaks the dimension chain "
                    f"(expected {expected_in})")
            gate_blocks = [r.f64s(hid * d).reshape(hid, d) for _ in range(4)]
            rec_blocks = [r.f64s(hid * hid).reshape(hid, hid) for _ in range(4)]
            bias_blocks = [r.f64s(hid) for _ in range(4)]
            layers.append(LstmLayerParams.from_gates(*gate_blocks, *rec_blocks, *bias_blocks))
            expected_in = hid
        head_w = r.f64s(n * expected_in).reshape(n, expected_in)
        head_b = r.f64s(n)
        net = LstmNetwork(layers, head_w, head_b)
        models.append(net)
        widths.append(tuple(l.hidden_dim for l in layers))
        total += sum(a.size for a in net.param_arrays())
    declared = r.u64()
    if declared != total:
        raise DataError(
            f"{path}: f64 count mismatch: trailer says {declared}, payload holds {total}")
    if r.pos != len(data):
        raise DataError(f"{path}: {len(data) - r.pos} unexpected trailing bytes")
    cfg = HorizonConfig(n=n, h=h, ell=ell, widths=tuple(widths),
                        train_configs=tuple(TrainConfig() for _ in range(h)))
    return ModelBank(config=cfg, models=models, normalizer=nz)
