"""The benchmark workloads: train and baseline.

Both workloads have the same shape so that every end-to-end metric exists on
each of them:

* setup: the input CSV generated from the workload seed; the program under
  test receives only this file;
* main operation: the workload's own CLI command(s), whose throughput is
  ``throughput_per_s`` and whose error report gives ``test_mae_ms``;
* ingest: ``ingest_csv`` + ``fill_missing`` of the workload's CSV;
* requests: single-block forecasts in a closed loop (one client, the next
  request sent when the previous one returns) at seeded block starts;
* checks: the outputs compared with the references in ``reference.py``.

Why these workloads:

* train: ``lstm`` forward/backward, ``training`` and the ``bank`` cascade do
  almost all the work; the batched-core and strided-sample changes must show
  here. Its requests run ``forecast_block`` (``lstm`` forward at B = 1), and
  it evaluates the trained bank with a block walk.
* baseline: ``dataset`` ingest and ``evaluation`` do all the work and
  ``lstm`` none, so an LSTM change must leave it unchanged. Panel length is
  what matters: the persistence and AR forecasters scan the whole history
  for every block, so the walk is quadratic in T.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import reference as ref
# program functions are called through their modules, so that the wrappers
# the traced run installs there are the ones called
from dlstf import bank, cli, dataset, evaluation
from dlstf import synth_generate, write_csv
from dlstf.dataset import format_timestamp

# CLI defaults, passed explicitly so that the benchmark and the program agree
H, ELL, MAX_GAP, AR_ORDER = 6, 12, 3, 3
N_STATIONS = 6
# blocks of the AR forecaster compared with the reference
CHECKED_AR_BLOCKS = 24


class CommandFailed(RuntimeError):
    pass


def run_command(argv: list[str]) -> str:
    """Run one dlstf command in process; returns its stderr, raises on a non-zero exit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    if code != 0:
        raise CommandFailed(f"dlstf {argv[0]} exited {code}: {err.getvalue().strip()}")
    return err.getvalue()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def gappy_panel(n: int, T: int, seed: int, short: tuple[int, int, int],
                long: tuple[int, int, int]):
    """Synthetic panel with seeded NaN gaps.

    `short` and `long` are (count, lo, hi): that many gaps start in rows
    [lo, hi). Short gaps last 1..MAX_GAP rows and are repaired by
    fill_missing; long ones last MAX_GAP+1..MAX_GAP+5 rows and stay missing.
    Starts sit on one 12-row grid (rows 1, 13, 25, ...), so no two gaps touch.
    """
    panel = synth_generate(n, T, seed)
    values = panel.values.copy()
    rng = rng_for(seed, 1)
    used: set[int] = set()
    for (count, lo, hi), (min_len, max_len) in ((long, (MAX_GAP + 1, MAX_GAP + 6)),
                                                (short, (1, MAX_GAP + 1))):
        slots = [s for s in range(1, hi, 12) if s >= lo and s not in used]
        for start in rng.choice(slots, size=count, replace=False):
            used.add(int(start))
            length = int(rng.integers(min_len, max_len))
            values[start:start + length, int(rng.integers(n))] = np.nan
    return type(panel)(panel.station_ids, panel.timestamps, values)


class Workload:
    """Base class; subclasses define the sizes, the setup and the operations."""

    name = ""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.report_mae = float("nan")
        self.record: dict = {}
        # (raw, repaired) panel of the first ingest, used by requests and checks
        self.ingested = None

    # -- setup -----------------------------------------------------------

    def setup(self, work: Path) -> dict:
        """Write the inputs under `work`; returns their sizes."""
        raise NotImplementedError

    def _write_panel(self, work: Path, panel) -> None:
        self.panel = panel
        self.filled = ref.fill_gaps(panel.values, MAX_GAP)
        self.csv = work / f"{self.name}.csv"
        write_csv(panel, self.csv)

    def _input_sizes(self) -> dict:
        return {"rows": self.panel.n_times, "stations": self.panel.n_stations,
                "csv_bytes": self.csv.stat().st_size,
                "missing_cells": int(np.isnan(self.panel.values).sum())}

    # -- operations ------------------------------------------------------

    def on_train_model(self, result) -> None:
        """Called with each value `train_model` returns."""

    def main_op(self) -> int:
        """Run the workload's command(s) once; returns the work items done."""
        raise NotImplementedError

    def after_main(self) -> None:
        """Untimed follow-up of the last main operation (error report, checks' inputs)."""

    def ingest_op(self) -> int:
        panel = dataset.ingest_csv(self.csv)
        filled, _ = dataset.fill_missing(panel, MAX_GAP)
        if self.ingested is None:
            self.ingested = (panel, filled)
        return panel.n_times

    def prepare_requests(self) -> list[int]:
        """Load what requests need (untimed); returns the seeded request block starts."""
        raise NotImplementedError

    def request(self, b: int) -> np.ndarray:
        raise NotImplementedError

    def _request_starts(self, lo: int) -> list[int]:
        valid = ref.block_starts(self.filled, lo, 1, ELL)
        return [int(b) for b in rng_for(self.seed, 2).choice(valid, size=4096)]

    # -- checks ----------------------------------------------------------

    def checks(self, outputs: list[tuple[int, np.ndarray]]):
        """Yield (name, passed, detail) for every correctness check."""
        panel, filled = self.ingested
        yield ("ingest_round_trip",
               panel.station_ids == self.panel.station_ids
               and np.array_equal(panel.timestamps, self.panel.timestamps)
               and np.array_equal(panel.values, self.panel.values, equal_nan=True), "")
        yield ("fill_missing_matches_reference",
               np.array_equal(np.isnan(filled.values), np.isnan(self.filled))
               and ref.close(np.nan_to_num(filled.values), np.nan_to_num(self.filled)), "")
        yield from self._checks(outputs)

    def _checks(self, outputs):
        return ()


class TrainWorkload(Workload):
    """Cascade training of a default bank on a 6-station panel, then its evaluation."""

    name = "train"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        # rows of the train, validation and held-out ranges; epochs are fixed
        # (patience = max_epochs) so every run does the same work
        self.rows = (40, 30, 60) if quick else (150, 40, 300)
        self.epochs = 1

    def setup(self, work: Path) -> dict:
        n_train, n_val, n_test = self.rows
        T = n_train + n_val + n_test
        n_long = 1 if self.quick else 2
        panel = gappy_panel(N_STATIONS, T, self.seed, short=(4 if self.quick else 6, 1, T - 10),
                            long=(n_long, ELL + 1, n_train - 10))
        self._write_panel(work, panel)
        self.bank_path = work / "train.bank"
        ts = panel.timestamps
        self.train_argv = ["train", "--data", str(self.csv), "--out", str(self.bank_path),
                           "--seed", str(self.seed), "--h", str(H), "--ell", str(ELL),
                           "--max-epochs", str(self.epochs), "--patience", str(self.epochs),
                           "--train-end", format_timestamp(ts[n_train - 1]),
                           "--val-end", format_timestamp(ts[n_train + n_val - 1])]
        self.test_first = n_train + n_val
        self.report_path = work / "train.report.csv"
        self.eval_argv = ["evaluate", "--model", str(self.bank_path), "--data", str(self.csv),
                          "--report", str(self.report_path),
                          "--test-start", format_timestamp(ts[self.test_first])]
        self.histories: list[list] = []
        self.bank_hashes: list[str] = []
        return dict(self._input_sizes(), train_rows=n_train, val_rows=n_val, test_rows=n_test,
                    epochs=self.epochs)

    def on_train_model(self, result) -> None:
        """Keep each model's per-epoch train/validation MAE."""
        history = result[1]
        self.histories[-1].append({"train_mae": list(history.train_losses),
                                   "val_mae": list(history.val_losses),
                                   "stopped_epoch": history.stopped_epoch,
                                   "best_epoch": history.best_epoch})

    def main_op(self) -> int:
        self.histories.append([])
        run_command(self.train_argv)
        self.bank_hashes.append(sha256(self.bank_path))
        # sample passes fixed by the geometry: train-range target rows x h x epochs
        return (self.rows[0] - ELL) * H * self.epochs

    def after_main(self) -> None:
        run_command(self.eval_argv)
        self.report = ref.read_report(self.report_path)
        self.report_mae = float(self.report["mean"][0])
        self.record = {"bank_sha256": self.bank_hashes[-1], "models": self.histories[-1]}

    def prepare_requests(self) -> list[int]:
        self.model_bank = bank.load_bank(self.bank_path)
        self.request_panel = self.ingested[1]
        return self._request_starts(ELL)

    def request(self, b: int) -> np.ndarray:
        ts = self.request_panel.timestamps
        return bank.forecast_block(self.model_bank, self.request_panel, ts[b]).predictions

    def _checks(self, outputs):
        yield ("train_rerun_identical", len(set(self.bank_hashes)) == 1,
               f"{len(set(self.bank_hashes))} distinct bank hashes")
        copy = self.bank_path.with_suffix(".roundtrip")
        bank.save_bank(bank.load_bank(self.bank_path), copy)
        yield ("bank_round_trip", copy.read_bytes() == self.bank_path.read_bytes(), "")
        curves = [v for m in self.histories[-1] for v in m["train_mae"] + m["val_mae"]]
        yield ("train_history_finite", len(self.histories[-1]) == H
               and bool(np.all(np.isfinite(curves))), "")
        yield ("report_finite", all(np.all(np.isfinite(v)) for v in self.report.values()), "")
        starts = ref.block_starts(self.filled, self.test_first, H, ELL)
        blocks = ref.bank_blocks(self.model_bank, self.filled, starts)
        expected = ref.walk_report(self.filled, starts, blocks)
        yield ("evaluate_matches_reference", ref.report_matches(self.report, expected), "")
        yield _blocks_check("forecast_block_matches_reference", outputs,
                            lambda bs: ref.bank_blocks(self.model_bank, self.filled, bs))


class BaselineWorkload(Workload):
    """Persistence and AR(3) block walks over a long multi-station gappy CSV."""

    name = "baseline"

    def setup(self, work: Path) -> dict:
        T = 600 if self.quick else 12000
        self.first = int(0.7 * T)
        # long gaps only after the AR fit range, which must stay gap-free
        panel = gappy_panel(N_STATIONS, T, self.seed,
                            short=(5 if self.quick else 40, 1, T - 10),
                            long=(2 if self.quick else 12, self.first + 1, T - 10))
        self._write_panel(work, panel)
        test_start = format_timestamp(panel.timestamps[self.first])
        self.report_paths = (work / "persistence.csv", work / "ar.csv")
        common = ["--data", str(self.csv), "--h", str(H), "--ell", str(ELL),
                  "--test-start", test_start]
        self.argvs = (["baseline", "--method", "persistence", "--report",
                       str(self.report_paths[0])] + common,
                      ["baseline", "--method", "ar", "--order", str(AR_ORDER), "--report",
                       str(self.report_paths[1])] + common)
        self.starts = ref.block_starts(self.filled, self.first, H, ELL)
        return dict(self._input_sizes(), blocks_per_method=len(self.starts))

    def main_op(self) -> int:
        for argv in self.argvs:
            run_command(argv)
        return 2 * len(self.starts)

    def after_main(self) -> None:
        self.reports = [ref.read_report(p) for p in self.report_paths]
        self.report_mae = float(np.mean([r["mean"][0] for r in self.reports]))

    def prepare_requests(self) -> list[int]:
        self.request_values = self.ingested[1].values
        return self._request_starts(self.first)

    def request(self, b: int) -> np.ndarray:
        return evaluation.persistence_forecast(self.request_values, b, H)

    def _checks(self, outputs):
        coefs = ref.ar_coefficients(self.filled[:self.first], AR_ORDER)
        persistence = ref.walk_report(self.filled, self.starts,
                                      ref.persistence_blocks(self.filled, self.starts, H))
        ar = ref.walk_report(self.filled, self.starts,
                             ref.ar_blocks(self.filled, coefs, self.starts, H))
        yield ("persistence_report_matches_reference",
               ref.report_matches(self.reports[0], persistence), "")
        yield ("ar_report_matches_reference", ref.report_matches(self.reports[1], ar), "")
        yield _blocks_check("persistence_forecast_matches_reference", outputs,
                            lambda bs: ref.persistence_blocks(self.filled, bs, H))
        filled = self.ingested[1]
        forecaster = evaluation.ar_forecaster(
            evaluation.fit_ar_models(filled.slice_rows(0, self.first), AR_ORDER), H)
        sample = [b for _, b in zip(range(CHECKED_AR_BLOCKS), self.starts[::7])]
        got = [(b, forecaster(filled.values[:b])) for b in sample]
        yield _blocks_check("ar_forecaster_matches_reference", got,
                            lambda bs: ref.ar_blocks(self.filled, coefs, bs, H))


def _blocks_check(name: str, outputs: list[tuple[int, np.ndarray]], reference_fn):
    if not outputs:
        return (name, False, "no outputs to compare")
    starts = [b for b, _ in outputs]
    got = np.stack([np.asarray(o, dtype=np.float64) for _, o in outputs])
    expected = reference_fn(starts)
    worst = float(np.max(np.abs(got - expected))) if got.shape == expected.shape else np.inf
    return (name, ref.close(got, expected), f"{len(starts)} blocks, max abs diff {worst:.3g}")


WORKLOADS = {w.name: w for w in (TrainWorkload, BaselineWorkload)}
