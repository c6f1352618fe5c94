"""Multi-station hourly time-series ingestion, repair, normalization and sampling.

A panel holds n stations by T hourly observations (m/s) with NaN marking
missing values. The CSV schema is: UTF-8, header ``timestamp,<id1>,<id2>,...``,
then one line per hour ``YYYY-MM-DDTHH:00:00Z`` followed by one decimal value
per station; an empty field or the literal ``NA`` means missing, and no other
non-finite value is accepted. Station ids are unique, can name files and have
no surrounding whitespace. LF line endings, a CR only as a line's last
character; a leading BOM is ignored.
"""

from __future__ import annotations

import codecs
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

HOUR = np.timedelta64(3600, "s")


def parse_timestamp(text: str) -> np.datetime64:
    """Parse a timestamp of exactly the form ``YYYY-MM-DDTHH:00:00Z`` in zero-padded
    ASCII digits, the one rule for the CSV, the command-line flags and config files."""
    try:  # np.datetime64 alone would also read timezone suffixes and negative years
        form = re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z", text)
        ts = np.datetime64(text[:-1], "s") if form else None
    except ValueError:  # a month, day, hour, minute or second out of range
        ts = None
    if ts is None:
        raise DataError(f"bad timestamp {text!r}: expected YYYY-MM-DDTHH:00:00Z")
    if ts != ts.astype("datetime64[h]"):
        raise DataError(f"bad timestamp {text!r}: not on the hour")
    return ts


def format_timestamp(ts: np.datetime64) -> str:
    """Format as ``YYYY-MM-DDTHH:MM:SSZ``, the form `parse_timestamp` reads back."""
    return np.datetime_as_string(np.datetime64(ts, "s"), unit="s") + "Z"


@dataclass(frozen=True)
class TimeSeriesPanel:
    """n stations x T hourly observations in m/s; values are float64 with NaN = missing."""

    station_ids: tuple[str, ...]
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._seal(self.station_ids, np.asarray(self.timestamps, dtype="datetime64[s]").copy(),
                   np.asarray(self.values, dtype=np.float64).copy())
        off_grid = np.flatnonzero(np.diff(self.timestamps) != HOUR)
        if off_grid.size:
            bad = int(off_grid[0]) + 1
            raise ValueError(
                f"timestamps must increase in exact 1-hour steps; violated at row {bad} "
                f"({format_timestamp(self.timestamps[bad])})")

    @classmethod
    def _adopt(cls, station_ids, timestamps, values) -> "TimeSeriesPanel":
        """A panel of hourly-grid arrays that this module built, or of views of a panel's:
        shape-checked and made read-only, but neither copied nor grid-checked again."""
        return object.__new__(cls)._seal(station_ids, timestamps, values)

    def _seal(self, station_ids, ts: np.ndarray, vals: np.ndarray) -> "TimeSeriesPanel":
        object.__setattr__(self, "station_ids", tuple(station_ids))
        if vals.ndim != 2 or vals.shape != (ts.shape[0], len(self.station_ids)):
            raise ValueError(
                f"values must be (T={ts.shape[0]}, n={len(self.station_ids)}), got {vals.shape}")
        if ts.shape[0] == 0:
            raise ValueError("panel must contain at least one row")
        ts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        return self

    @property
    def n_stations(self) -> int:
        return len(self.station_ids)

    @property
    def n_times(self) -> int:
        return self.timestamps.shape[0]

    def station_index(self, station_id: str) -> int:
        try:
            return self.station_ids.index(station_id)
        except ValueError:
            raise DataError(f"unknown station id {station_id!r}") from None

    def index_of(self, ts: np.datetime64, past_end: bool = False) -> int:
        """The row k of the hour ts = t0 + k hours, the package's one rule from a
        time to a row: 0 <= k < T, or k == T too when `past_end` is set (the
        block start after the last row). Any other time is a DataError."""
        t0, last = self.timestamps[0], self.timestamps[-1]
        k, off_grid = divmod(np.datetime64(ts) - t0, HOUR)
        if off_grid or not 0 <= k < self.n_times + past_end:
            raise DataError(f"timestamp {format_timestamp(ts)} is not in the panel "
                            f"({format_timestamp(t0)} .. {format_timestamp(last)})")
        return int(k)

    def slice_rows(self, lo: int, hi: int) -> "TimeSeriesPanel":
        """Rows [lo, hi) as a panel whose arrays are read-only views of this one's."""
        if not 0 <= lo < hi <= self.n_times:
            raise ValueError(f"bad row slice [{lo}, {hi}) for T={self.n_times}")
        return TimeSeriesPanel._adopt(self.station_ids, self.timestamps[lo:hi], self.values[lo:hi])


# data lines per array pass of ingest_csv and write_csv; bounds a pass's lines, joined text,
# regex output and loadtxt buffers, which with one read block are all the text ingest holds
CSV_CHUNK_ROWS = 1024
_READ_BYTES = 1 << 14  # bytes per read of ingest_csv


def _parse_line(path, lineno: int, line: str, station_ids: list[str], prev) -> None:
    """Raise the DataError of one data line's first fault; return if it has none.

    This is the only code that writes the error message of a data line, and it
    makes no value. `prev` is the grid hour before the line's, or None for the
    first data line. A cell must be empty, ``NA`` or an ASCII number that
    float() reads as finite, with no ``_`` or CR in it.
    """
    n = len(station_ids)
    fields = line.split(",")
    if len(fields) != n + 1:
        raise DataError(f"{path}: line {lineno} has {len(fields)} fields, expected {n + 1}")
    try:
        ts = parse_timestamp(fields[0])
    except DataError as exc:
        raise DataError(f"{path}: line {lineno}: {exc}") from None
    if prev is not None:
        if ts == prev:
            raise DataError(f"{path}: line {lineno}: duplicate timestamp {fields[0]}")
        if ts != prev + HOUR:
            raise DataError(
                f"{path}: line {lineno}: timestamp {fields[0]} breaks the hourly grid "
                f"(previous was {format_timestamp(prev)})")
    for sid, cell in zip(station_ids, fields[1:]):
        if cell == "" or cell == "NA":
            continue
        where = f"{path}: line {lineno}, column {sid!r}"
        try:  # float() would also read 1_0 as 10, ١٢ as 12 and \r2.5 as 2.5
            value = float(cell) if cell.isascii() and "_" not in cell and "\r" not in cell else None
        except ValueError:
            value = None
        if value is None:
            raise DataError(f"{where}: non-numeric cell {cell!r}")
        if not math.isfinite(value):
            raise DataError(f"{where}: non-finite cell {cell!r}")


# what `_read_chunk` expects after a line's day, and the cells it rewrites as nan
_HOUR_PREFIXES = [f"T{h:02d}:00:00Z," for h in range(24)]
_NA_CELL = re.compile(r",NA(?=,|\n|\Z)")
_EMPTY_CELL = re.compile(r",(?=,|\n|\Z)")


def _loadtxt(text: str, n: int):
    """The n cells after the timestamp of each line, or None if loadtxt refuses them."""
    try:  # a list of lines takes a quarter of the memory of a StringIO of their text
        return np.loadtxt(text.split("\n"), delimiter=",", usecols=range(1, n + 1),
                          comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None


def _read_chunk(chunk: list[str], stamps: np.ndarray, n: int):
    """The (len(chunk), n) cells of data lines on the grid `stamps`, or None.

    The only code that makes panel values, with one np.loadtxt call and so
    float()'s correctly rounded parser. None if a line breaks `_parse_line`'s rule.
    """
    days = stamps.astype("datetime64[D]")
    day_texts = np.datetime_as_string(np.arange(days[0], days[-1] + 1), unit="D").tolist()
    h0 = int((stamps[0] - days[0]) // HOUR)
    grid = [day + hour for day in day_texts for hour in _HOUR_PREFIXES][h0:h0 + len(chunk)]
    text = "\n".join(chunk)
    # parse_timestamp refuses a 5-digit year; loadtxt strips \x1c-\x1f and
    # non-ASCII spaces around a number as whitespace, where _parse_line refuses the cell
    if len(day_texts[-1]) != 10 or not all(map(str.startswith, chunk, grid)) \
            or text.count(",") != n * len(chunk) or not text.isascii() \
            or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    text, marked = _NA_CELL.subn(",nan", text)
    cells = _loadtxt(text, n)
    if cells is None:  # loadtxt refuses empty cells: mark them too and try once more
        text, empty = _EMPTY_CELL.subn(",nan", text)
        marked += empty
        cells = _loadtxt(text, n) if empty else None
    # a blank line, or a nan, inf or 1e999 cell, shows in the shape or the count
    if cells is None or cells.shape != (len(chunk), n) \
            or np.count_nonzero(~np.isfinite(cells)) != marked:
        return None
    return cells


def _line_blocks(path):
    """The lines of the UTF-8 file at `path` after any BOM, one list per read block,
    split on "\n" only and each without one trailing CR; a last line that is empty or
    a lone CR is none. A byte that is not UTF-8 is named as one decode would name it."""
    with open(path, "rb") as fh:
        if not codecs.BOM_UTF8.startswith(fh.read(3)):  # skip a BOM, or a file that is part of one
            fh.seek(0)
        pos, carry, tail = 0, b"", ""  # carry: the bytes of a character cut by a block
        while True:
            data = carry + (block := fh.read(_READ_BYTES))
            try:
                text, used = codecs.utf_8_decode(data, "strict", not block)
            except UnicodeDecodeError as exc:
                at, last = pos + exc.start, pos + exc.end - 1
                where = (f"byte 0x{data[exc.start]:02x} in position {at}" if at == last
                         else f"bytes in position {at}-{last}")
                raise DataError(f"{path}: not UTF-8 text: 'utf-8' codec can't decode "
                                f"{where}: {exc.reason}") from None
            text = tail + text
            lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
            tail = lines.pop()
            yield lines if block or tail in ("", "\r") else lines + [tail.removesuffix("\r")]
            if not block:
                return
            pos, carry = pos + used, data[used:]


def ingest_csv(path) -> TimeSeriesPanel:
    """Parse a panel CSV; empty cells and ``NA`` become missing values.

    The first data line's timestamp fixes the hourly grid. `_read_chunk` makes
    every value, one call per CSV_CHUNK_ROWS data lines. A chunk that it refuses
    goes line by line through `_parse_line`, which names the file's first error
    in line order; if no line there has a fault, the chunk's lines are named.
    It reads the file twice: to count its lines and name any non-UTF-8 byte, then to parse.
    """
    count = sum(map(len, _line_blocks(path)))
    lines = itertools.chain.from_iterable(_line_blocks(path))

    def take(k: int) -> list[str]:
        if len(got := list(itertools.islice(lines, k))) != k:
            raise DataError(f"{path}: file changed while it was read")
        return got

    if count == 0:
        raise DataError(f"{path}: empty file")
    header = take(1)[0].split(",")
    if len(header) < 2 or header[0] != "timestamp":
        raise DataError(f"{path}: missing header; first line must be 'timestamp,<id1>,...'")
    station_ids = header[1:]
    if any(not s for s in station_ids):
        raise DataError(f"{path}: empty station id in header")
    for k, sid in enumerate(station_ids):
        if sid in station_ids[:k]:
            raise DataError(f"{path}: duplicate station id {sid!r} in header")
        # plot writes <id>.csv beside its index.csv
        if "/" in sid or "\\" in sid or sid in (".", "..", "index"):
            raise DataError(f"{path}: station id {sid!r} cannot name a file")
        # plot --stations strips each id it is given
        if sid != sid.strip():
            raise DataError(f"{path}: station id {sid!r} has leading or trailing whitespace")
    n = len(station_ids)
    T = count - 1
    if T == 0:
        raise DataError(f"{path}: no data rows")

    chunk = take(min(CSV_CHUNK_ROWS, T))
    try:
        t0 = parse_timestamp(chunk[0].split(",", 1)[0])
    except DataError:
        _parse_line(path, 2, chunk[0], station_ids, None)  # names line 2's first fault
        raise
    stamps = t0 + np.arange(T) * HOUR
    values = np.empty((T, n))
    for lo in range(0, T, CSV_CHUNK_ROWS):
        hi = lo + len(chunk)
        cells = _read_chunk(chunk, stamps[lo:hi], n)
        if cells is None:
            for r, line in enumerate(chunk, start=lo):
                _parse_line(path, r + 2, line, station_ids, stamps[r - 1] if r else None)
            raise DataError(f"{path}: lines {lo + 2}-{hi + 1} refused with no line at fault")
        values[lo:hi] = cells
        chunk = take(min(CSV_CHUNK_ROWS, T - hi))
    if next(lines, None) is not None:
        raise DataError(f"{path}: file changed while it was read")
    return TimeSeriesPanel._adopt(tuple(station_ids), stamps, values)


def write_csv(panel: TimeSeriesPanel, path) -> None:
    """Write a panel in the ingestion schema; missing values become ``NA``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp," + ",".join(panel.station_ids) + "\n")
        for lo in range(0, panel.n_times, CSV_CHUNK_ROWS):
            stamps = np.datetime_as_string(panel.timestamps[lo:lo + CSV_CHUNK_ROWS], unit="s")
            rows = panel.values[lo:lo + CSV_CHUNK_ROWS].tolist()
            # v != v only for NaN
            fh.writelines(
                ts + "Z," + ",".join(["NA" if v != v else repr(v) for v in row]) + "\n"
                for ts, row in zip(stamps.tolist(), rows))


@dataclass(frozen=True)
class GapReport:
    filled: np.ndarray
    unfilled: np.ndarray


def fill_missing(panel: TimeSeriesPanel, max_gap: int) -> tuple[TimeSeriesPanel, GapReport]:
    """Linearly interpolate interior missing runs of length <= max_gap.

    Longer runs and runs touching either end of the panel stay missing.
    The report lists every run as one row of a (k, 3) integer array,
    ``(station column, first row, length)``, in station-then-row order:
    ``filled`` holds the repaired runs and ``unfilled`` the runs left missing,
    so ``len()`` of each is its run count.
    """
    if max_gap < 0:
        raise ValueError("max_gap must be >= 0")
    values = panel.values.copy()
    T = panel.n_times
    # station-major missing mask, padded so that every run starts and ends
    # inside its own station's row of the flattened mask
    padded = np.zeros((panel.n_stations, T + 2), dtype=np.int8)
    padded[:, 1:-1] = np.isnan(values.T)
    edges = np.diff(padded.reshape(-1))
    station, start = np.divmod(np.flatnonzero(edges == 1), T + 2)
    stop = np.flatnonzero(edges == -1) % (T + 2)
    runs = np.stack([station, start, stop - start], axis=1)
    filled = (start > 0) & (stop < T) & (runs[:, 2] <= max_gap)
    report = GapReport(runs[filled], runs[~filled])

    station, start, lens = report.filled.T
    cols = np.repeat(station, lens)
    first = np.repeat(start, lens)
    run_len = np.repeat(lens, lens)
    j = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    left = values[first - 1, cols]
    right = values[first + run_len, cols]
    frac = (j + 1) / (run_len + 1)
    values[first + j, cols] = left + frac * (right - left)
    return TimeSeriesPanel._adopt(panel.station_ids, panel.timestamps, values), report


@dataclass(frozen=True)
class Normalizer:
    """Per-station min/max fitted on the training range only, and the spans
    max - min (1 for a constant station), all read-only; a span that is not
    finite is a DataError naming the station."""

    station_ids: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray
    spans: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "station_ids", tuple(self.station_ids))
        mins = np.asarray(self.mins, dtype=np.float64).copy()
        maxs = np.asarray(self.maxs, dtype=np.float64).copy()
        if mins.shape != (len(self.station_ids),) or maxs.shape != mins.shape:
            raise ValueError("mins/maxs must be one value per station")
        low = np.flatnonzero(maxs < mins)
        if low.size:
            s = low[0]
            raise ValueError(f"station {self.station_ids[s]!r}: normalizer min {mins[s]:g} "
                             f"exceeds max {maxs[s]:g}")
        with np.errstate(over="ignore", invalid="ignore"):
            wide = np.flatnonzero(~np.isfinite(maxs - mins))
        if wide.size:
            s = wide[0]
            raise DataError(f"station {self.station_ids[s]!r}: normalizer span max - min "
                            f"is not finite (min {mins[s]:g}, max {maxs[s]:g})")
        spans = np.where(maxs > mins, maxs - mins, 1.0)
        for name, arr in (("mins", mins), ("maxs", maxs), ("spans", spans)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fit_normalizer(panel: TimeSeriesPanel) -> Normalizer:
    """Fit per-station min/max on the whole (training) panel."""
    mins = np.full(panel.n_stations, np.nan)
    maxs = np.full(panel.n_stations, np.nan)
    for s, sid in enumerate(panel.station_ids):
        col = panel.values[:, s]
        finite = col[np.isfinite(col)]
        if finite.size == 0:
            raise DataError(f"station {sid!r} has no observations on the training range")
        mins[s] = finite.min()
        maxs[s] = finite.max()
        if maxs[s] == mins[s]:
            warnings.warn(
                f"station {sid!r} is constant on the training range; "
                "using a unit span for normalization")
    return Normalizer(panel.station_ids, mins, maxs)


def _station_axis(values, nz: Normalizer) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != len(nz.station_ids):
        raise ValueError(f"last axis must have {len(nz.station_ids)} stations")
    return values


def normalize(values: np.ndarray, nz: Normalizer) -> np.ndarray:
    """The one scaling rule: any (..., n) array of m/s values to normalized, by position."""
    return (_station_axis(values, nz) - nz.mins) / nz.spans


def denormalize(values: np.ndarray, nz: Normalizer) -> np.ndarray:
    """Invert normalization on any (..., n) array of station values."""
    return _station_axis(values, nz) * nz.spans + nz.mins


def fraction_cuts(n_times: int, train_frac: float, val_frac: float) -> tuple[int, int]:
    """The rows (a, b) that end the training and validation ranges of an
    n_times-row panel cut at the given fractions: training is rows [0, a),
    validation [a, b), and the rest is held out. Callers check the result."""
    return int(n_times * train_frac), int(n_times * (train_frac + val_frac))


@dataclass(frozen=True)
class SampleSet:
    """Training samples for one horizon offset as the arrays the LSTM kernel runs on.

    `x` holds the time-major (ell, N, n) inputs, `y` the (N, n) targets and
    `target_indices` the panel row of each target; `skipped` counts the
    samples dropped for a missing input or target value.
    """

    x: np.ndarray
    y: np.ndarray
    target_indices: np.ndarray
    skipped: int

    def __len__(self):
        return self.y.shape[0]


def assemble_input(window, forecasts, i: int, ell: int) -> np.ndarray:
    """The ell-row input of the model at offset i for blocks whose real rows end
    with `window`.

    Hours count from the block: hour 0 is the last row of `window`, an (m, ...)
    array of the real rows before the block start, and `forecasts` maps hour
    j < i to the rows forecast for it earlier in the block. The input is hours
    i-ell .. i-1: the last ell-i+1 rows of `window` (for m = ell, window[i-1:])
    followed by forecasts 1 .. i-1, or only the last ell forecasts when
    i-1 >= ell. At i = 1 the input is a view of `window`, not a copy.
    """
    window = np.asarray(window, dtype=np.float64)
    n_real = max(ell - i + 1, 0)
    if window.shape[0] < n_real:
        raise DataError(f"no real coverage at hour {i - ell} (needed for offset {i})")
    parts = [window[window.shape[0] - n_real:]]
    for j in range(i - ell + n_real, i):
        if j not in forecasts:
            raise DataError(f"no forecast coverage at hour {j} (needed for offset {i})")
        parts.append(np.asarray(forecasts[j], dtype=np.float64)[None])
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def make_samples(values: np.ndarray, forecast_overlay, ell: int, i: int) -> SampleSet:
    """Assemble the samples of the model at horizon offset i from (T, n) normalized values.

    Every target row t with a full ell-step history is offset i of the block
    that starts at b = t-i+1, and its input is `assemble_input` of that block's
    real rows and the forecasts ``forecast_overlay[j-1][b+j-1]`` for its hours
    j < i. `forecast_overlay` is an (m, T, n) array with m >= i-1 (None is fine
    when i = 1); NaN entries mark positions with no forecast. Samples touching
    any NaN input or target are skipped and counted.
    """
    if i < 1:
        raise ValueError("offset i must be >= 1")
    if ell < 1:
        raise ValueError("input horizon ell must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    T, n = values.shape
    n_fc = min(i - 1, ell)
    # target t = ell + k is offset i of the block that starts at b = t-i+1;
    # the input keeps that block's real rows b-ell+r with r >= i-1
    starts = np.arange(max(T - ell, 0)) + ell - i + 1
    forecasts = {}
    if n_fc > 0:
        overlay = np.asarray(forecast_overlay, dtype=np.float64)
        if overlay.ndim != 3 or overlay.shape[0] < i - 1 or overlay.shape[1:] != (T, n):
            raise ValueError(
                f"forecast_overlay must be (>= {i - 1}, {T}, {n}), got "
                f"{None if forecast_overlay is None else overlay.shape}")
        forecasts = {j: overlay[j - 1, starts + j - 1] for j in range(i - n_fc, i)}
    window = values[starts - ell + np.arange(i - 1, ell)[:, None]]
    x = assemble_input(window, forecasts, i, ell)
    y = values[ell:]
    keep = np.isfinite(x).all(axis=(0, 2)) & np.isfinite(y).all(axis=1)
    # unlike x[:, keep], compress returns the C-contiguous layout train_model's gather reads
    return SampleSet(np.compress(keep, x, axis=1), y[keep], np.flatnonzero(keep) + ell,
                     int(np.count_nonzero(~keep)))
