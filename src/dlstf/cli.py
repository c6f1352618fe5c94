"""Command-line entry point: train, forecast, evaluate, baseline, gradcheck, synth, plot.

Configuration is a flat key = value text file ('#' starts a comment that runs
to the end of the line, and no key may be set twice); CLI flags override file
values, and the seed falls back to the DLSTF_SEED environment variable. Every
value is parsed and checked when the config is built, so every command refuses
every bad value before it reads a file. Every subcommand that writes files also
writes a plain-text run manifest recording the command, seed, config digest and
a sha256 per produced file. Exit codes: 0 success, 1 usage error or not enough
memory, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .bank import (DEFAULT_ELL, DEFAULT_FIRST_WIDTHS, DEFAULT_H, DEFAULT_LATER_WIDTHS,
                   HorizonConfig, ModelBank, check_train_rows, forecast_block, load_bank,
                   save_bank, train_bank)
from .dataset import (HOUR, TimeSeriesPanel, fill_missing, format_timestamp,
                      fraction_cuts, ingest_csv, parse_timestamp, write_csv)
from .errors import DataError, NumericsError
from .evaluation import (ErrorReport, ar_forecaster, bank_forecaster, block_walk, evaluate,
                         fit_ar_models, persistence_forecaster)
from .lstm import gradient_check, init_params, net_backward, net_forward
from .synth import synth_generate
from .training import TrainConfig

GRADCHECK_TOLERANCE = 1e-6


class UsageError(Exception):
    pass


def _widths(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _valid_widths(widths: tuple[int, ...]) -> bool:
    return bool(widths) and min(widths) >= 1


def _timestamp(text: str):
    return None if text == "" else parse_timestamp(text)


class _Key(NamedTuple):
    """A config key's parser, which raises ValueError on text that is no valid `kind`, its
    default, and the rule `valid` a parsed value must meet, else `refusal` refuses it."""
    parse: Callable[[str], Any]
    kind: str
    default: Any
    valid: Callable[[Any], bool] = lambda value: True
    refusal: str = ""

    def read(self, key: str, text: str) -> Any:
        """`text` parsed and checked; a value this entry refuses, or one with ``_`` or
        a non-ASCII character, is a usage error naming `key`."""
        try:  # as for CSV cells: int() and float() alone also read 1_2, ١٢ and １２
            if not text.isascii() or "_" in text:
                raise ValueError(text)
            value = self.parse(text)
        except ValueError:
            raise UsageError(f"config key {key!r}: {text!r} is not a valid {self.kind}") from None
        if not self.valid(value):
            raise UsageError(f"config key {key!r} {self.refusal.format(value)}")
        return value


_TIMESTAMP, _AT_LEAST_1 = "timestamp (YYYY-MM-DDTHH:00:00Z)", "must be >= 1, got {}"
_WIDTHS = "must list at least one layer width, each >= 1"
# every config key in dump order, which the config digest hashes; the bank
# shape and training keys take the library's defaults
CONFIG_KEYS: dict[str, _Key] = {
    "h": _Key(int, "integer", DEFAULT_H, lambda h: h >= 1, _AT_LEAST_1),
    "ell": _Key(int, "integer", DEFAULT_ELL, lambda ell: ell >= 1, _AT_LEAST_1),
    "m1_layers": _Key(_widths, "width list", DEFAULT_FIRST_WIDTHS, _valid_widths, _WIDTHS),
    "mi_layers": _Key(_widths, "width list", DEFAULT_LATER_WIDTHS, _valid_widths, _WIDTHS),
    "learning_rate": _Key(float, "number", TrainConfig.learning_rate),
    "rho": _Key(float, "number", TrainConfig.rho),
    "epsilon": _Key(float, "number", TrainConfig.epsilon),
    "batch_size": _Key(int, "integer", TrainConfig.batch_size),
    "max_epochs": _Key(int, "integer", TrainConfig.max_epochs),
    "patience": _Key(int, "integer", TrainConfig.patience),
    "clip_norm": _Key(float, "number", TrainConfig.clip_norm),
    "seed": _Key(int, "integer", TrainConfig.seed, lambda seed: seed >= 0,
                 "must be a non-negative integer, got {}"),
    "train_frac": _Key(float, "number", 0.7),
    "val_frac": _Key(float, "number", 0.15),
    "max_gap": _Key(int, "integer", 3, lambda max_gap: max_gap >= 0, "must be >= 0, got {}"),
    "train_end": _Key(_timestamp, _TIMESTAMP, ""),
    "val_end": _Key(_timestamp, _TIMESTAMP, ""),
    "test_start": _Key(_timestamp, _TIMESTAMP, ""),
    "test_end": _Key(_timestamp, _TIMESTAMP, ""),
}


def _text(default) -> str:
    """A default as config text, a width list space-separated."""
    return " ".join(map(str, default)) if isinstance(default, tuple) else str(default)


class RunConfig:
    """Effective run configuration: defaults, then DLSTF_SEED, file values and flags, each
    stripped. Every value is parsed and checked, and `train` built, when it is made."""

    def __init__(self, values: dict[str, str]):
        self.values = values
        self._parsed = {key: entry.read(key, values[key]) for key, entry in CONFIG_KEYS.items()}
        self.train = _configured(TrainConfig, **{f.name: self.get(f.name)
                                                for f in fields(TrainConfig)})
        train_end, val_end = self.get("train_end"), self.get("val_end")
        if (train_end is None) != (val_end is None):
            pair = ("train_end", "val_end") if val_end is None else ("val_end", "train_end")
            raise UsageError("{} needs {}: set both or neither".format(*pair))
        train_frac, val_frac = self.get("train_frac"), self.get("val_frac")
        if not 0 < train_frac < train_frac + val_frac <= 1:
            raise UsageError("train_frac and val_frac must be positive and sum to at most 1")
        test_start, test_end = self.get("test_start"), self.get("test_end")
        if test_start is not None and test_end is not None and test_start > test_end:
            raise DataError(f"test_start {format_timestamp(test_start)} falls after "
                            f"test_end {format_timestamp(test_end)}")

    @classmethod
    def build(cls, config_path: str | None, flag_overrides: dict[str, str | None]) -> "RunConfig":
        values = {key: _text(entry.default) for key, entry in CONFIG_KEYS.items()}
        values["seed"] = os.environ.get("DLSTF_SEED", values["seed"]).strip()
        file_values = {} if config_path is None else parse_config_file(config_path)
        for key, val in file_values.items():
            if key not in values:
                raise UsageError(f"{config_path}: unknown config key {key!r}")
            values[key] = val
        for key, val in flag_overrides.items():
            if val is not None:
                values[key] = str(val).strip()
        return cls(values)

    def dump(self) -> str:
        return "".join(f"{k} = {self.values[k]}\n" for k in CONFIG_KEYS)

    def digest(self) -> str:
        return hashlib.sha256(self.dump().encode("utf-8")).hexdigest()

    def get(self, key: str) -> Any:
        return self._parsed[key]

    def horizon_config(self, n: int) -> HorizonConfig:
        """The bank shape for n stations; an out-of-range value is a usage error."""
        return _configured(HorizonConfig.default, n=n, h=self.get("h"), ell=self.get("ell"),
                           first_widths=self.get("m1_layers"), later_widths=self.get("mi_layers"))


def _configured(make, **settings):
    """make(**settings), where the ValueError of an out-of-range value is a usage error."""
    try:
        return make(**settings)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None


def parse_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise UsageError(
                f"{path}: config key {key!r} is set twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        values[key] = val.strip()
    return values


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(manifest_path, command: str, cfg: RunConfig, files: list[Path]) -> None:
    lines = [f"command = {command}", f"seed = {cfg.values['seed']}",
             f"config_digest = {cfg.digest()}"]
    for f in files:
        lines.append(f"sha256.{f.name} = {_sha256(f)}")
    Path(manifest_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_panel(cfg: RunConfig, data_path: str) -> TimeSeriesPanel:
    panel, report = fill_missing(ingest_csv(data_path), cfg.get("max_gap"))
    filled, unfilled = len(report.filled), len(report.unfilled)
    if filled or unfilled:
        _log(f"missing data: filled {filled} runs, left {unfilled} unfilled")
    return panel


def _load_bank_and_panel(cfg: RunConfig, args) -> tuple[ModelBank, TimeSeriesPanel]:
    bank = load_bank(args.model)
    panel = _load_panel(cfg, args.data)
    if panel.n_stations != bank.config.n:
        raise DataError(
            f"bank expects {bank.config.n} stations, data has {panel.n_stations}")
    return bank, panel


def _cuts(panel: TimeSeriesPanel, cfg: RunConfig) -> tuple[int, int]:
    """The row cuts (a, b): train on [0, a), validate on [a, b), hold out [b, T).
    train_end and val_end name the last rows of the first two ranges and must lie
    in the panel; without them the cuts are `fraction_cuts` of the fractions."""
    train_end, val_end = cfg.get("train_end"), cfg.get("val_end")
    if train_end is not None:
        a, b = panel.index_of(train_end) + 1, panel.index_of(val_end) + 1
        if not a < b:
            raise DataError("train_end/val_end do not cut the panel into nonempty ranges")
    else:
        a, b = fraction_cuts(panel.n_times, cfg.get("train_frac"), cfg.get("val_frac"))
        if not 0 < a < b:
            raise DataError(f"panel too short (T={panel.n_times}) for the requested fractions")
    return a, b


def _test_window(panel: TimeSeriesPanel, cfg: RunConfig, ell: int,
                 h: int) -> tuple[TimeSeriesPanel, int]:
    """The scored range as (panel cut after test_end, first block row). The first
    block starts at test_start, or else at max(ell, b), the held-out cut of
    `_cuts`, so that every scoring command walks the same rows; test_start and
    test_end must lie in the panel."""
    test_start, test_end = cfg.get("test_start"), cfg.get("test_end")
    sliced = panel if test_end is None else panel.slice_rows(0, panel.index_of(test_end) + 1)
    if test_start is None:
        first = max(ell, _cuts(panel, cfg)[1])
    else:
        first = panel.index_of(test_start)
        if first < ell:
            raise DataError(
                f"only {first} rows precede test_start; need ell={ell} history rows")
    if first + h > sliced.n_times:
        raise DataError("test window is too short for a single block")
    return sliced, first


def emit_plot_data(predictions: np.ndarray, panel: TimeSeriesPanel,
                   stations: list[str], out_dir) -> list[Path]:
    """Write one time_index,actual,forecast CSV per station plus an index file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for sid in stations:
        col = panel.station_index(sid)
        path = out_dir / f"{sid}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time_index,actual,forecast\n")
            for t in range(panel.n_times):
                if np.isfinite(predictions[t, col]):
                    fh.write(f"{t},{float(panel.values[t, col])!r},"
                             f"{float(predictions[t, col])!r}\n")
        written.append(path)
    index_path = out_dir / "index.csv"
    with open(index_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("station,file\n")
        for sid in stations:
            fh.write(f"{sid},{sid}.csv\n")
    written.append(index_path)
    return written


def _run_config(args, *required: str) -> RunConfig:
    """A command's effective config, with every flag whose dest is a config key
    as an override; then the `required` options are checked and the seed and
    digest logged. `train --dump-config` skips the option check and the log."""
    cfg = RunConfig.build(args.config, {k: getattr(args, k, None) for k in CONFIG_KEYS})
    if getattr(args, "dump_config", False):
        return cfg
    for name in required:
        if getattr(args, name) is None:
            raise UsageError(f"the --{name} option is required")
    _log(f"seed = {cfg.values['seed']}  config_digest = {cfg.digest()}")
    return cfg


def _cmd_train(args) -> int:
    cfg = _run_config(args, "data", "out")
    if args.dump_config:
        sys.stdout.write(cfg.dump())
        return 0
    panel = _load_panel(cfg, args.data)
    a, b = _cuts(panel, cfg)
    train_panel, val_panel = panel.slice_rows(0, a), panel.slice_rows(a, b)
    check_train_rows(train_panel.n_times, cfg.get("ell"), cfg.get("h"))
    hcfg = cfg.horizon_config(panel.n_stations)

    def progress(i, hist):
        _log(f"model {i}/{hcfg.h}: stopped epoch {hist.stopped_epoch}, "
             f"best epoch {hist.best_epoch}, val MAE {hist.val_losses[hist.best_epoch - 1]:.5f}")

    bank = train_bank(train_panel, val_panel, hcfg, cfg.train, progress=progress)
    out = Path(args.out)
    save_bank(bank, out)
    write_manifest(out.with_name(out.name + ".run.txt"), "train", cfg, [out])
    _log(f"wrote {out}")
    return 0


def _write_report(report: ErrorReport, path: str, command: str, cfg: RunConfig) -> int:
    """Write the --report CSV and its manifest, and log the station-averaged errors."""
    out = Path(path)
    report.to_csv(out)
    write_manifest(out.with_name(out.name + ".run.txt"), command, cfg, [out])
    _log(f"mean MAE {report.mean_mae:.4f}  RMSE {report.mean_rmse:.4f}  "
         f"NRMSE {report.mean_nrmse:.2f}%")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _run_config(args, "model", "data", "report")
    bank, panel = _load_bank_and_panel(cfg, args)
    sliced, first = _test_window(panel, cfg, bank.config.ell, bank.config.h)
    report = evaluate(bank_forecaster(bank), sliced, bank.config, first_block_index=first)
    return _write_report(report, args.report, "evaluate", cfg)


def _cmd_baseline(args) -> int:
    cfg = _run_config(args, "data", "report")
    if args.method == "ar" and args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    panel = _load_panel(cfg, args.data)
    h, ell = cfg.get("h"), cfg.get("ell")
    sliced, first = _test_window(panel, cfg, ell, h)
    # built after the window checks: it holds h widths, the defaults, which no baseline reads
    shape = _configured(HorizonConfig.default, n=panel.n_stations, h=h, ell=ell)
    if args.method == "persistence":
        forecaster = persistence_forecaster(h)
    else:
        try:
            models = fit_ar_models(sliced.slice_rows(0, first), args.order)
        except ValueError as exc:  # a fit range too short or without AR structure
            raise DataError(f"cannot fit AR({args.order}): {exc}") from None
        forecaster = ar_forecaster(models, h)
    report = evaluate(forecaster, sliced, shape, first_block_index=first)
    return _write_report(report, args.report, f"baseline {args.method}", cfg)


def _cmd_forecast(args) -> int:
    cfg = _run_config(args, "model", "data", "at")
    try:
        at = parse_timestamp(args.at)
    except DataError:
        raise UsageError(f"--at {args.at!r} is not a valid {_TIMESTAMP}") from None
    bank, panel = _load_bank_and_panel(cfg, args)
    block = forecast_block(bank, panel, at)
    lines = ["timestamp," + ",".join(panel.station_ids)]
    for k in range(bank.config.h):
        ts = format_timestamp(block.block_start + k * HOUR)
        lines.append(ts + "," + ",".join(repr(float(v)) for v in block.predictions[k]))
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.write_text(text, encoding="utf-8")
        write_manifest(out.with_name(out.name + ".run.txt"), "forecast", cfg, [out])
    else:
        sys.stdout.write(text)
    return 0


def _gradcheck_instance(seed: int):
    """Pick the best-conditioned seeded (net, sample) pair for finite differences.

    Central differences in float64 have an absolute noise floor around 1e-12,
    so a parameter whose true gradient is tiny (a random cancellation) shows a
    large relative error even when the backward pass is exact. The probe
    therefore scans a small seeded family of nets and samples and keeps the
    candidate whose smallest gradient magnitude is largest. Deterministic in
    the seed.
    """
    best = None
    for j in range(10):
        net = init_params([6], 2, (seed * 31 + j) % (2 ** 63))
        for k in range(12):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2, j, k])))
            seq = rng.uniform(-1.0, 1.0, size=(4, 2))
            target = rng.uniform(-1.0, 1.0, size=2)
            pred, cache = net_forward(net, seq[:, None])
            grads = net_backward(net, cache, (pred - target) / 2.0)
            floor = min(np.abs(a).min() for a in grads.param_arrays())
            if best is None or floor > best[0]:
                best = (floor, net, seq, target)
        if best[0] >= 3e-5:
            break
    _, net, seq, target = best
    return net, (seq, target)


def _cmd_gradcheck(args) -> int:
    net, sample = _gradcheck_instance(_run_config(args).get("seed"))
    err = gradient_check(net, sample, eps=1e-5)
    print(f"max relative error: {err:.3e}")
    if err < GRADCHECK_TOLERANCE:
        print(f"OK (< {GRADCHECK_TOLERANCE:g})")
        return 0
    print(f"FAIL (>= {GRADCHECK_TOLERANCE:g})")
    return 3


def _cmd_synth(args) -> int:
    cfg = _run_config(args, "out")
    try:
        panel = synth_generate(args.n, args.T, cfg.get("seed"),
                               coupling=args.coupling, noise=args.noise)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    write_csv(panel, out)
    write_manifest(out.with_name(out.name + ".run.txt"), "synth", cfg, [out])
    _log(f"wrote {out} ({panel.n_stations} stations x {panel.n_times} hours)")
    return 0


def _cmd_plot(args) -> int:
    cfg = _run_config(args, "model", "data", "stations", "out")
    bank, panel = _load_bank_and_panel(cfg, args)
    if args.stations == "all":
        stations = list(panel.station_ids)
    else:
        # dict keys drop repeated ids and keep the first-seen order
        stations = list(dict.fromkeys(s.strip() for s in args.stations.split(",") if s.strip()))
        if not stations:
            raise UsageError(f"--stations {args.stations!r} lists no station ids")
    for sid in stations:
        panel.station_index(sid)
    sliced, first = _test_window(panel, cfg, bank.config.ell, bank.config.h)
    preds, _ = block_walk(bank_forecaster(bank), sliced, bank.config, first_block_index=first)
    files = emit_plot_data(preds, sliced, stations, args.out)
    write_manifest(Path(args.out) / "run.txt", "plot", cfg, files)
    _log(f"wrote {len(files)} files to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process: parse_args keeps no state between calls."""
    parser = _Parser(prog="dlstf",
                     description="Multi-station moving-horizon wind speed forecasting")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def command(name, help, func, *flags):
        """A subcommand with --config, --seed and plain string `flags`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", help="seed (overrides config and DLSTF_SEED)")
        for flag in flags:
            p.add_argument(flag)
        p.set_defaults(func=func)
        return p

    p = command("train", "train a model bank", _cmd_train, "--data", "--h", "--ell",
                "--max-epochs", "--learning-rate", "--batch-size", "--patience", "--m1-layers",
                "--mi-layers", "--train-frac", "--val-frac", "--train-end", "--val-end")
    p.add_argument("--out", help="output bank file")
    p.add_argument("--dump-config", action="store_true")

    p = command("forecast", "forecast one block", _cmd_forecast, "--model", "--data", "--out")
    p.add_argument("--at", help="block start timestamp")

    command("evaluate", "evaluate a bank over a test window", _cmd_evaluate,
            "--model", "--data", "--report", "--test-start", "--test-end")

    p = command("baseline", "evaluate a reference forecaster", _cmd_baseline, "--data",
                "--report", "--h", "--ell", "--train-frac", "--test-start", "--test-end")
    p.add_argument("--method", choices=("persistence", "ar"), required=True)
    p.add_argument("--order", type=int, default=3)

    command("gradcheck", "verify the backward pass numerically", _cmd_gradcheck)

    p = command("synth", "generate a synthetic panel CSV", _cmd_synth, "--out")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--T", type=int, default=5000)
    p.add_argument("--coupling", type=float, default=0.8)
    p.add_argument("--noise", type=float, default=0.3)

    p = command("plot", "emit per-station actual/forecast data files", _cmd_plot,
                "--model", "--data", "--test-start", "--test-end")
    p.add_argument("--stations", help="comma-separated ids or 'all'")
    p.add_argument("--out", help="output directory")
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"dlstf: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"dlstf: data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"dlstf: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"dlstf: error: not enough memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
