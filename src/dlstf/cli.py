"""Command-line entry point: train, forecast, evaluate, baseline, gradcheck, synth, plot.

Configuration is a flat key = value text file ('#' starts a comment); CLI
flags override file values, and the seed falls back to the DLSTF_SEED
environment variable. Every subcommand that writes files also writes a
plain-text run manifest recording the command, seed, config digest and a
sha256 per produced file. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from .bank import HorizonConfig, ModelBank, forecast_block, load_bank, save_bank, train_bank
from .dataset import (HOUR, TimeSeriesPanel, fill_missing, format_timestamp,
                      ingest_csv, parse_timestamp, write_csv)
from .errors import DataError, NumericsError
from .evaluation import (ar_forecaster, bank_forecaster, block_walk, evaluate,
                         fit_ar_models, persistence_forecaster)
from .lstm import gradient_check, init_params, net_backward, net_forward
from .synth import synth_generate

GRADCHECK_TOLERANCE = 1e-6


class UsageError(Exception):
    pass


# effective-config keys in canonical dump order, with their default values
CONFIG_DEFAULTS: tuple[tuple[str, str], ...] = (
    ("h", "6"),
    ("ell", "12"),
    ("m1_layers", "32"),
    ("mi_layers", "64 64"),
    ("learning_rate", "0.001"),
    ("rho", "0.9"),
    ("epsilon", "1e-08"),
    ("batch_size", "32"),
    ("max_epochs", "200"),
    ("patience", "10"),
    ("clip_norm", "5.0"),
    ("seed", "0"),
    ("train_frac", "0.7"),
    ("val_frac", "0.15"),
    ("max_gap", "3"),
    ("train_end", ""),
    ("val_end", ""),
    ("test_start", ""),
    ("test_end", ""),
)
KNOWN_KEYS = tuple(k for k, _ in CONFIG_DEFAULTS)


class RunConfig:
    """Effective run configuration: defaults, overlaid by file values, then flags."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    @classmethod
    def build(cls, config_path: str | None, flag_overrides: dict[str, str | None]) -> "RunConfig":
        values = dict(CONFIG_DEFAULTS)
        if config_path is not None:
            for key, val in parse_config_file(config_path).items():
                if key not in values:
                    raise UsageError(f"{config_path}: unknown config key {key!r}")
                values[key] = val
        if "seed" not in {k for k, v in flag_overrides.items() if v is not None}:
            env_seed = os.environ.get("DLSTF_SEED")
            if env_seed is not None and (config_path is None
                                         or "seed" not in parse_config_file(config_path)):
                values["seed"] = env_seed
        for key, val in flag_overrides.items():
            if val is not None:
                values[key] = str(val)
        return cls(values)

    def dump(self) -> str:
        return "".join(f"{k} = {self.values[k]}\n" for k in KNOWN_KEYS)

    def digest(self) -> str:
        return hashlib.sha256(self.dump().encode("utf-8")).hexdigest()

    def _parse(self, key: str, conv, kind: str):
        raw = self.values[key]
        try:
            return conv(raw)
        except (ValueError, DataError):
            raise UsageError(f"config key {key!r}: {raw!r} is not a valid {kind}") from None

    def get_int(self, key: str) -> int:
        return self._parse(key, int, "integer")

    def get_float(self, key: str) -> float:
        return self._parse(key, float, "number")

    def get_widths(self, key: str) -> tuple[int, ...]:
        raw = self.values[key].replace(",", " ")
        widths = self._parse(key, lambda _: tuple(int(tok) for tok in raw.split()),
                             "width list")
        if not widths:
            raise UsageError(f"config key {key!r} must list at least one layer width")
        return widths

    def get_timestamp(self, key: str):
        raw = self.values[key]
        if raw == "":
            return None
        return self._parse(key, parse_timestamp, "timestamp (YYYY-MM-DDTHH:00:00Z)")

    def horizon_config(self, n: int) -> HorizonConfig:
        """The bank shape and training settings; an out-of-range value is a usage error."""
        try:
            return HorizonConfig.default(
                n=n,
                h=self.get_int("h"),
                ell=self.get_int("ell"),
                seed=self.get_int("seed"),
                first_widths=self.get_widths("m1_layers"),
                later_widths=self.get_widths("mi_layers"),
                learning_rate=self.get_float("learning_rate"),
                rho=self.get_float("rho"),
                epsilon=self.get_float("epsilon"),
                batch_size=self.get_int("batch_size"),
                max_epochs=self.get_int("max_epochs"),
                patience=self.get_int("patience"),
                clip_norm=self.get_float("clip_norm"),
            )
        except ValueError as exc:
            raise UsageError(f"invalid configuration: {exc}") from None


def parse_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, val = stripped.partition("=")
        values[key.strip()] = val.strip()
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
    panel = ingest_csv(data_path)
    panel, report = fill_missing(panel, cfg.get_int("max_gap"))
    if report.runs:
        _log(f"missing data: filled {len(report.filled)} runs, "
             f"left {len(report.unfilled)} unfilled")
    return panel


def _split_train_val(panel: TimeSeriesPanel, cfg: RunConfig
                     ) -> tuple[TimeSeriesPanel, TimeSeriesPanel]:
    train_end = cfg.get_timestamp("train_end")
    val_end = cfg.get_timestamp("val_end")
    if train_end is not None and val_end is not None:
        a = int(np.searchsorted(panel.timestamps, train_end, side="right"))
        b = int(np.searchsorted(panel.timestamps, val_end, side="right"))
        if not 0 < a < b <= panel.n_times:
            raise DataError("train_end/val_end do not cut the panel into nonempty ranges")
    else:
        frac_a = cfg.get_float("train_frac")
        frac_b = frac_a + cfg.get_float("val_frac")
        if not 0 < frac_a < frac_b <= 1:
            raise UsageError("train_frac and val_frac must be positive and sum to at most 1")
        a = int(panel.n_times * frac_a)
        b = int(panel.n_times * frac_b)
        if not 0 < a < b:
            raise DataError(f"panel too short (T={panel.n_times}) for the requested fractions")
    return panel.slice_rows(0, a), panel.slice_rows(a, b)


def _test_window(panel: TimeSeriesPanel, cfg: RunConfig, ell: int, h: int
                 ) -> tuple[TimeSeriesPanel, int]:
    """Resolve --test-start/--test-end into (panel slice, first block index)."""
    test_start = cfg.get_timestamp("test_start")
    test_end = cfg.get_timestamp("test_end")
    sliced = panel
    if test_end is not None:
        hi = int(np.searchsorted(panel.timestamps, test_end, side="right"))
        if hi == 0:
            raise DataError("test_end precedes the panel")
        sliced = panel.slice_rows(0, hi)
    if test_start is None:
        first = ell
    else:
        first = sliced.index_of(np.datetime64(test_start, "s"))
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


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"the --{name} option is required")


def _cmd_train(args) -> int:
    cfg = RunConfig.build(args.config, {
        "seed": args.seed, "h": args.h, "ell": args.ell,
        "max_epochs": args.max_epochs, "learning_rate": args.learning_rate,
        "batch_size": args.batch_size, "patience": args.patience,
        "m1_layers": args.m1_layers, "mi_layers": args.mi_layers,
        "train_frac": args.train_frac, "val_frac": args.val_frac,
        "train_end": args.train_end, "val_end": args.val_end,
    })
    if args.dump_config:
        sys.stdout.write(cfg.dump())
        return 0
    _require(args, "data", "out")
    _log(f"seed = {cfg.values['seed']}  config_digest = {cfg.digest()}")
    panel = _load_panel(cfg, args.data)
    train_panel, val_panel = _split_train_val(panel, cfg)
    hcfg = cfg.horizon_config(panel.n_stations)

    def progress(i, hist):
        _log(f"model {i}/{hcfg.h}: stopped epoch {hist.stopped_epoch}, "
             f"best epoch {hist.best_epoch}, val MAE {hist.val_losses[hist.best_epoch - 1]:.5f}")

    bank = train_bank(train_panel, val_panel, hcfg, progress=progress)
    out = Path(args.out)
    save_bank(bank, out)
    write_manifest(out.with_name(out.name + ".run.txt"), "train", cfg, [out])
    _log(f"wrote {out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = RunConfig.build(args.config, {
        "seed": args.seed, "test_start": args.test_start, "test_end": args.test_end,
    })
    _require(args, "model", "data", "report")
    _log(f"seed = {cfg.values['seed']}  config_digest = {cfg.digest()}")
    bank = load_bank(args.model)
    panel = _load_panel(cfg, args.data)
    if panel.n_stations != bank.config.n:
        raise DataError(
            f"bank expects {bank.config.n} stations, data has {panel.n_stations}")
    sliced, first = _test_window(panel, cfg, bank.config.ell, bank.config.h)
    report = evaluate(bank_forecaster(bank), sliced, bank.config, first_block_index=first)
    out = Path(args.report)
    report.to_csv(out)
    write_manifest(out.with_name(out.name + ".run.txt"), "evaluate", cfg, [out])
    _log(f"mean MAE {report.mean_mae:.4f}  RMSE {report.mean_rmse:.4f}  "
         f"NRMSE {report.mean_nrmse:.2f}%")
    return 0


def _cmd_baseline(args) -> int:
    cfg = RunConfig.build(args.config, {
        "seed": args.seed, "h": args.h, "ell": args.ell,
        "test_start": args.test_start, "test_end": args.test_end,
        "train_frac": args.train_frac,
    })
    _require(args, "data", "report")
    _log(f"seed = {cfg.values['seed']}  config_digest = {cfg.digest()}")
    panel = _load_panel(cfg, args.data)
    h, ell = cfg.get_int("h"), cfg.get_int("ell")
    hcfg_schedule = cfg.horizon_config(panel.n_stations)
    if cfg.get_timestamp("test_start") is None:
        # without an explicit window, hold out the tail past train_frac
        first = max(ell, int(panel.n_times * cfg.get_float("train_frac")))
        sliced = panel
        if cfg.get_timestamp("test_end") is not None:
            sliced, _ = _test_window(panel, cfg, ell, h)
        if first + h > sliced.n_times:
            raise DataError("panel too short for a baseline block after the training range")
    else:
        sliced, first = _test_window(panel, cfg, ell, h)
    if args.method == "persistence":
        forecaster = persistence_forecaster(h)
    else:
        fit_panel = sliced.slice_rows(0, first)
        models = fit_ar_models(fit_panel, args.order)
        forecaster = ar_forecaster(models, h)
    report = evaluate(forecaster, sliced, hcfg_schedule, first_block_index=first)
    out = Path(args.report)
    report.to_csv(out)
    write_manifest(out.with_name(out.name + ".run.txt"), f"baseline {args.method}", cfg, [out])
    _log(f"mean MAE {report.mean_mae:.4f}  RMSE {report.mean_rmse:.4f}  "
         f"NRMSE {report.mean_nrmse:.2f}%")
    return 0


def _cmd_forecast(args) -> int:
    cfg = RunConfig.build(args.config, {"seed": args.seed})
    _require(args, "model", "data", "at")
    _log(f"seed = {cfg.values['seed']}  config_digest = {cfg.digest()}")
    bank = load_bank(args.model)
    panel = _load_panel(cfg, args.data)
    if panel.n_stations != bank.config.n:
        raise DataError(
            f"bank expects {bank.config.n} stations, data has {panel.n_stations}")
    block = forecast_block(bank, panel, parse_timestamp(args.at))
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
            pred, cache = net_forward(net, seq)
            grads = net_backward(net, cache, (pred - target) / 2.0)
            floor = min(np.abs(a).min() for a in grads.arrays())
            if best is None or floor > best[0]:
                best = (floor, net, seq, target)
        if best[0] >= 3e-5:
            break
    _, net, seq, target = best
    return net, (seq, target)


def _cmd_gradcheck(args) -> int:
    cfg = RunConfig.build(args.config, {"seed": args.seed})
    seed = cfg.get_int("seed")
    _log(f"seed = {seed}  config_digest = {cfg.digest()}")
    net, sample = _gradcheck_instance(seed)
    err = gradient_check(net, sample, eps=1e-5)
    print(f"max relative error: {err:.3e}")
    if err < GRADCHECK_TOLERANCE:
        print(f"OK (< {GRADCHECK_TOLERANCE:g})")
        return 0
    print(f"FAIL (>= {GRADCHECK_TOLERANCE:g})")
    return 3


def _cmd_synth(args) -> int:
    cfg = RunConfig.build(args.config, {"seed": args.seed})
    _require(args, "out")
    _log(f"seed = {cfg.values['seed']}  config_digest = {cfg.digest()}")
    try:
        panel = synth_generate(args.n, args.T, cfg.get_int("seed"),
                               coupling=args.coupling, noise=args.noise)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    write_csv(panel, out)
    write_manifest(out.with_name(out.name + ".run.txt"), "synth", cfg, [out])
    _log(f"wrote {out} ({panel.n_stations} stations x {panel.n_times} hours)")
    return 0


def _cmd_plot(args) -> int:
    cfg = RunConfig.build(args.config, {
        "seed": args.seed, "test_start": args.test_start, "test_end": args.test_end,
    })
    _require(args, "model", "data", "stations", "out")
    _log(f"seed = {cfg.values['seed']}  config_digest = {cfg.digest()}")
    bank = load_bank(args.model)
    panel = _load_panel(cfg, args.data)
    if panel.n_stations != bank.config.n:
        raise DataError(
            f"bank expects {bank.config.n} stations, data has {panel.n_stations}")
    if args.stations == "all":
        stations = list(panel.station_ids)
    else:
        stations = [s.strip() for s in args.stations.split(",") if s.strip()]
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="dlstf",
                     description="Multi-station moving-horizon wind speed forecasting")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", help="seed (overrides config and DLSTF_SEED)")

    p = sub.add_parser("train", help="train a model bank")
    common(p)
    p.add_argument("--data")
    p.add_argument("--out", help="output bank file")
    p.add_argument("--h")
    p.add_argument("--ell")
    p.add_argument("--max-epochs")
    p.add_argument("--learning-rate")
    p.add_argument("--batch-size")
    p.add_argument("--patience")
    p.add_argument("--m1-layers")
    p.add_argument("--mi-layers")
    p.add_argument("--train-frac")
    p.add_argument("--val-frac")
    p.add_argument("--train-end")
    p.add_argument("--val-end")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("forecast", help="forecast one block")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--at", help="block start timestamp")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("evaluate", help="evaluate a bank over a test window")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--report")
    p.add_argument("--test-start")
    p.add_argument("--test-end")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("baseline", help="evaluate a reference forecaster")
    common(p)
    p.add_argument("--method", choices=("persistence", "ar"), required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--data")
    p.add_argument("--report")
    p.add_argument("--h")
    p.add_argument("--ell")
    p.add_argument("--train-frac")
    p.add_argument("--test-start")
    p.add_argument("--test-end")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("gradcheck", help="verify the backward pass numerically")
    common(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic panel CSV")
    common(p)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--T", type=int, default=5000)
    p.add_argument("--coupling", type=float, default=0.8)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("plot", help="emit per-station actual/forecast data files")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--stations", help="comma-separated ids or 'all'")
    p.add_argument("--out", help="output directory")
    p.add_argument("--test-start")
    p.add_argument("--test-end")
    p.set_defaults(func=_cmd_plot)
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


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
