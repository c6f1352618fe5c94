"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

The heavy criteria (5, 6, 9) train full banks on the default synthetic panel
and take up to a minute each; the whole module runs in about two minutes on
one core. Criteria 7 and 8 need the real hourly measurement CSV and are skipped
unless DLSTF_METAR_CSV points at it (per criterion 7's own fallback clause,
criteria 4-6 stand in when the dataset is unavailable).

Run with `pytest tests/test_acceptance.py -v -s` to watch the per-criterion
lines as they print.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dlstf.bank import (BANK_MAGIC, HorizonConfig, ModelBank, forecast_block,
                        load_bank, save_bank, train_bank)
from dlstf.cli import run_cli
from dlstf.dataset import (TimeSeriesPanel, fill_missing, fit_normalizer,
                           fraction_cuts, ingest_csv, parse_timestamp)
from dlstf.errors import DataError
from dlstf.evaluation import (ar_fit, bank_forecaster, evaluate, fit_ar_models,
                              ar_forecaster, persistence_forecaster)
from dlstf.lstm import LstmLayerParams, gradient_check, init_params, net_forward
from dlstf.synth import TARGET_STATION, synth_generate
from dlstf.training import TrainConfig
from conftest import (GRADCHECK_CASES, gradcheck_instance, layer_record, offset_stub_bank,
                      scalar_unroll, seeded_rng, walk_schedule_errors)

SYNTH_SEED = 20240809
BANK_SEED = 11
METAR_ENV = "DLSTF_METAR_CSV"


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"criterion {number} ({description}): FAIL after {elapsed:.1f}s", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number} ({description}): PASS in {elapsed:.1f}s "
          f"(budget {budget_seconds:.0f}s)", flush=True)
    assert elapsed < budget_seconds


@pytest.fixture(scope="session")
def synth_panel():
    return synth_generate(6, 5000, seed=SYNTH_SEED, coupling=0.8, noise=0.3)


@pytest.fixture(scope="session")
def synth_splits(synth_panel):
    a, b = fraction_cuts(synth_panel.n_times, 0.70, 0.15)
    return (synth_panel.slice_rows(0, a), synth_panel.slice_rows(a, b),
            synth_panel.slice_rows(b, synth_panel.n_times))


# epoch budget chosen for the stated runtime ceilings; quality margins
# over the criteria gates are wide (see the assertions below)
BANK_TRAIN = TrainConfig(seed=BANK_SEED, max_epochs=8, patience=4)


@pytest.fixture(scope="session")
def bank_config():
    return HorizonConfig.default(n=6)


@pytest.fixture(scope="session")
def trained_bank(synth_splits, bank_config):
    train_panel, val_panel, _ = synth_splits
    start = time.monotonic()
    bank = train_bank(train_panel, val_panel, bank_config, BANK_TRAIN)
    return bank, time.monotonic() - start


@pytest.fixture(scope="session")
def solo_bank(synth_panel):
    solo = TimeSeriesPanel((TARGET_STATION,), synth_panel.timestamps,
                           synth_panel.values[:, :1])
    a, b = fraction_cuts(solo.n_times, 0.70, 0.15)
    train_panel, val_panel, test_panel = (solo.slice_rows(0, a), solo.slice_rows(a, b),
                                          solo.slice_rows(b, solo.n_times))
    cfg = HorizonConfig.default(n=1)
    start = time.monotonic()
    bank = train_bank(train_panel, val_panel, cfg, BANK_TRAIN)
    return bank, cfg, test_panel, time.monotonic() - start


def test_criterion_01_gradient_exactness():
    with criterion(1, "BPTT gradients match finite differences", 10):
        for dims, n, length, seed in GRADCHECK_CASES:
            net, sample = gradcheck_instance(dims, n, length, seed)
            err = gradient_check(net, sample, eps=1e-5)
            assert err < 1e-6, f"dims={dims} seed={seed}: {err:.3e}"


def test_criterion_02_forward_oracle():
    with criterion(2, "forward pass matches hand computations", 1):
        # scalar cell, all weights 1, all biases 0, input 1
        p_scalar = LstmLayerParams(1, 1, np.ones((4, 1)), np.ones((4, 1)), np.zeros(4))
        gates, c, h = layer_record(p_scalar, [[1.0]])
        f, _, k, _ = gates[0]
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        c_expect = sig1 * math.tanh(1.0)
        h_expect = sig1 * math.tanh(c_expect)
        assert abs(f - sig1) < 1e-4
        assert abs(k - math.tanh(1.0)) < 1e-4
        assert abs(c[1, 0] - c_expect) < 1e-4
        assert abs(h[1, 0] - h_expect) < 1e-4

        # 3-step single-layer network equals a scalar math unroll to rounding:
        # the two sum and round in their own orders
        net = init_params([5], 3, seed=17)
        seq = seeded_rng(17, 4).uniform(-1, 1, (3, 3))
        pred, _ = net_forward(net, seq[:, None])
        manual = scalar_unroll(net, seq)
        assert np.allclose(pred[0], manual, rtol=1e-12, atol=1e-15)


def test_criterion_03_offset_indexing():
    with criterion(3, "block-relative offset schedule of the stitched walk over 1000 "
                      "rows, exhaustive over h in [1,8] and every first-block phase", 1):
        ell = 3  # offsets past ell read forecasts only, so both input rules run
        for h in range(1, 9):
            bank = offset_stub_bank(h, ell)
            for first in range(ell, ell + h):
                assert walk_schedule_errors(bank, ell + h + 1000, first) == [], (h, first)


def test_criterion_04_ar_recovery():
    with criterion(4, "AR(3) least-squares recovery within 0.05", 5):
        coeffs = np.array([0.5, -0.2, 0.1])
        rng = seeded_rng(31415)
        x = np.zeros(5200)
        for t in range(3, 5200):
            x[t] = float(np.dot(coeffs, x[t - 3:t][::-1])) + 0.1 * rng.standard_normal()
        model = ar_fit(x[200:], 3)
        assert np.max(np.abs(model.coefficients - coeffs)) < 0.05


def test_criterion_05_synthetic_improvement(synth_splits, bank_config, trained_bank):
    with criterion(5, "bank MAE <= 0.8x persistence on held-out range", 900):
        _, _, test_panel = synth_splits
        bank, train_seconds = trained_bank
        persistence = evaluate(persistence_forecaster(bank_config.h), test_panel,
                               bank_config)
        report = evaluate(bank_forecaster(bank), test_panel, bank_config)
        ratio = report.mean_mae / persistence.mean_mae
        print(f"  bank MAE {report.mean_mae:.4f} vs persistence "
              f"{persistence.mean_mae:.4f} (ratio {ratio:.3f}, "
              f"training {train_seconds:.0f}s)", flush=True)
        assert ratio <= 0.8
        assert train_seconds < 850


def test_criterion_06_spatio_temporal_advantage(synth_splits, bank_config,
                                                trained_bank, solo_bank):
    with criterion(6, "all-station bank beats single-station bank on the target", 1800):
        _, _, test_panel = synth_splits
        bank, all_seconds = trained_bank
        single, solo_cfg, solo_test, solo_seconds = solo_bank
        report_all = evaluate(bank_forecaster(bank), test_panel, bank_config)
        mae_all = report_all.mae[report_all.station_ids.index(TARGET_STATION)]
        report_solo = evaluate(bank_forecaster(single), solo_test, solo_cfg)
        mae_solo = report_solo.mae[report_solo.station_ids.index(TARGET_STATION)]
        print(f"  target {TARGET_STATION}: all-station MAE {mae_all:.4f} vs "
              f"single-station {mae_solo:.4f} "
              f"(training {all_seconds:.0f}s + {solo_seconds:.0f}s)", flush=True)
        assert mae_all < mae_solo
        assert all_seconds + solo_seconds < 1750


@pytest.mark.skipif(METAR_ENV not in os.environ,
                    reason="real measurement CSV not available "
                           f"(set {METAR_ENV}); criteria 4-6 stand in")
def test_criterion_07_real_data_baselines():
    with criterion(7, "persistence and AR(3) on ACK within 5% of reference", 600):
        panel = ingest_csv(os.environ[METAR_ENV])
        panel, _ = fill_missing(panel, max_gap=6)
        test_start = parse_timestamp("2014-01-06T00:00:00Z")
        test_end = parse_timestamp("2014-02-20T23:00:00Z")
        hi = int(np.searchsorted(panel.timestamps, test_end, side="right"))
        sliced = panel.slice_rows(0, hi)
        first = sliced.index_of(test_start)
        cfg = HorizonConfig.default(n=panel.n_stations, h=6, ell=12)

        persistence = evaluate(persistence_forecaster(6), sliced, cfg,
                               first_block_index=first)
        ack = persistence.station_ids.index("ACK")
        p_mae, p_rmse = persistence.mae[ack], persistence.rmse[ack]
        print(f"  persistence ACK: MAE {p_mae:.3f} RMSE {p_rmse:.3f}", flush=True)
        assert abs(p_mae - 2.14) / 2.14 < 0.05
        assert abs(p_rmse - 2.83) / 2.83 < 0.05

        fit_panel = sliced.slice_rows(0, first)
        models = fit_ar_models(fit_panel, 3)
        ar = evaluate(ar_forecaster(models, 6), sliced, cfg, first_block_index=first)
        a_mae, a_rmse = ar.mae[ack], ar.rmse[ack]
        print(f"  AR(3) ACK: MAE {a_mae:.3f} RMSE {a_rmse:.3f}", flush=True)
        assert abs(a_mae - 2.07) / 2.07 < 0.05
        assert abs(a_rmse - 2.76) / 2.76 < 0.05


@pytest.mark.skipif(METAR_ENV not in os.environ or
                    os.environ.get("DLSTF_RUN_STRETCH") != "1",
                    reason="stretch goal (non-blocking): needs the real CSV and "
                           "DLSTF_RUN_STRETCH=1; full reference error values are "
                           "not expected to be reproducible at desk scale")
def test_criterion_08_real_data_stretch():
    with criterion(8, "stretch: bank beats AR(3) MAE by 10% on real data", 4 * 3600):
        panel = ingest_csv(os.environ[METAR_ENV])
        panel, _ = fill_missing(panel, max_gap=6)
        test_start = parse_timestamp("2014-01-06T00:00:00Z")
        test_end = parse_timestamp("2014-02-20T23:00:00Z")
        hi = int(np.searchsorted(panel.timestamps, test_end, side="right"))
        sliced = panel.slice_rows(0, hi)
        first = sliced.index_of(test_start)
        n = panel.n_stations

        val_hours = 30 * 24
        train_panel = sliced.slice_rows(0, first - val_hours)
        val_panel = sliced.slice_rows(first - val_hours, first)
        cfg = HorizonConfig.default(n=n)
        train = TrainConfig(seed=BANK_SEED, max_epochs=20, patience=5)
        bank = train_bank(train_panel, val_panel, cfg, train)
        report = evaluate(bank_forecaster(bank), sliced, cfg, first_block_index=first)

        models = fit_ar_models(sliced.slice_rows(0, first), 3)
        ar = evaluate(ar_forecaster(models, 6), sliced, cfg, first_block_index=first)
        print(f"  bank mean MAE {report.mean_mae:.3f} vs AR(3) {ar.mean_mae:.3f}",
              flush=True)
        assert report.mean_mae <= 0.9 * ar.mean_mae


def test_criterion_09_cli_determinism(tmp_path):
    with criterion(9, "train+evaluate reruns byte-identical", 1800):
        data = tmp_path / "panel.csv"
        assert run_cli(["synth", "--n", "6", "--T", "1500", "--seed", "5",
                        "--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = 6\nell = 12\nm1_layers = 16\nmi_layers = 24 24\n"
                       "max_epochs = 3\npatience = 3\nseed = 13\n")
        artifacts = []
        for tag in ("first", "second"):
            bank = tmp_path / f"{tag}.bank"
            report = tmp_path / f"{tag}.csv"
            assert run_cli(["train", "--data", str(data), "--config", str(cfg),
                            "--out", str(bank)]) == 0
            assert run_cli(["evaluate", "--model", str(bank), "--data", str(data),
                            "--report", str(report)]) == 0
            artifacts.append((bank.read_bytes(), report.read_bytes()))
        assert artifacts[0][0] == artifacts[1][0], "bank files differ between runs"
        assert artifacts[0][1] == artifacts[1][1], "report CSVs differ between runs"


def test_criterion_10_serialization(tmp_path):
    with criterion(10, "bit-exact round-trip; corruptions rejected distinctly", 1):
        rng = seeded_rng(606)
        panel = TimeSeriesPanel(
            tuple(f"S{k:02d}" for k in range(4)),
            parse_timestamp("2001-01-01T00:00:00Z") + np.arange(60)
            * np.timedelta64(3600, "s"),
            rng.uniform(0.0, 12.0, (60, 4)))
        cfg = HorizonConfig.default(n=4, h=6, ell=5, first_widths=(6,), later_widths=(7, 5))
        models = [init_params(list(cfg.widths[i]), 4, seed=3 + i) for i in range(6)]
        bank = ModelBank(config=cfg, models=models, normalizer=fit_normalizer(panel))

        path = tmp_path / "roundtrip.bank"
        save_bank(bank, path)
        loaded = load_bank(path)
        for m1, m2 in zip(bank.models, loaded.models):
            for a, b in zip(m1.param_arrays(), m2.param_arrays()):
                assert np.array_equal(a, b)
        assert np.array_equal(bank.normalizer.mins, loaded.normalizer.mins)
        assert np.array_equal(bank.normalizer.maxs, loaded.normalizer.maxs)
        block_a = forecast_block(bank, panel, panel.timestamps[30])
        block_b = forecast_block(loaded, panel, panel.timestamps[30])
        assert np.array_equal(block_a.predictions, block_b.predictions)

        base = path.read_bytes()
        corrupted = tmp_path / "corrupted.bank"
        corrupted.write_bytes(b"XXSTF\x00" + base[6:])
        with pytest.raises(DataError, match="magic"):
            load_bank(corrupted)
        bumped = bytearray(base)
        bumped[len(BANK_MAGIC)] = 9
        corrupted.write_bytes(bytes(bumped))
        with pytest.raises(DataError, match="version: found 9"):
            load_bank(corrupted)
        corrupted.write_bytes(base[:-11])
        with pytest.raises(DataError, match="truncated"):
            load_bank(corrupted)
        mangled = bytearray(base)
        mangled[-2] ^= 0xFF
        corrupted.write_bytes(bytes(mangled))
        with pytest.raises(DataError, match="count mismatch"):
            load_bank(corrupted)
