import math

import numpy as np
import pytest

from dlstf.bank import HorizonConfig, ModelBank
from dlstf.dataset import HOUR, TimeSeriesPanel, parse_timestamp
from dlstf.errors import DataError
from dlstf.dataset import Normalizer
from dlstf.evaluation import (ArModel, ar_fit, ar_forecast, ar_forecaster, bank_forecaster,
                              block_walk, compute_metrics, evaluate, fit_ar_models,
                              persistence_forecast, persistence_forecaster)
from dlstf import lstm
from dlstf.lstm import init_params, net_forward
from conftest import seeded_rng


def panel_from(values, ids=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[1]
    ids = ids or tuple(f"S{k:02d}" for k in range(n))
    t0 = parse_timestamp("2020-01-01T00:00:00Z")
    return TimeSeriesPanel(ids, t0 + np.arange(values.shape[0]) * HOUR, values)


def schedule_cfg(n, h, ell):
    return HorizonConfig.default(n=n, h=h, ell=ell)


class TestPersistence:
    def test_definition(self):
        hist = np.array([[1.0, 9.0], [4.2, 8.0]])
        out = persistence_forecast(hist, 2, 5)
        assert out.shape == (5, 2)
        assert np.all(out[:, 0] == 4.2)
        assert np.all(out[:, 1] == 8.0)

    def test_skips_trailing_missing(self):
        hist = np.array([[3.0], [np.nan]])
        out = persistence_forecast(hist, 2, 3)
        assert np.all(out == 3.0)

    def test_empty_history_rejected(self):
        with pytest.raises(DataError):
            persistence_forecast(np.full((2, 1), np.nan), 2, 3)

    def test_constant_series_zero_error(self):
        panel = panel_from(np.full(40, 6.5))
        cfg = schedule_cfg(1, h=4, ell=6)
        report = evaluate(persistence_forecaster(4), panel, cfg)
        assert report.mean_mae == 0.0
        assert report.mean_rmse == 0.0


def gen_ar(coeffs, sigma, T, seed, intercept=0.0):
    rng = seeded_rng(seed)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    p = len(coeffs)
    x = np.zeros(T + 200)
    for t in range(p, len(x)):
        lags = x[t - p:t][::-1]  # lag 1 first
        x[t] = intercept + float(np.dot(coeffs, lags)) + sigma * rng.standard_normal()
    return x[200:]


class TestArFit:
    def test_recovers_ar1(self):
        x = gen_ar([0.8], sigma=0.1, T=5000, seed=1)
        m = ar_fit(x, 1)
        assert abs(m.coefficients[0] - 0.8) < 0.05

    def test_white_noise_coefficients_near_zero(self):
        rng = seeded_rng(2)
        x = rng.standard_normal(5000)
        m = ar_fit(x, 3)
        assert np.all(np.abs(m.coefficients) < 0.05)

    def test_near_exact_recovery_with_vanishing_noise(self):
        # noiseless AR(3) with persistent roots (0.9 and 0.95 e^{+-0.7i}), so
        # the lag space stays excited; a stable process with shrinking noise
        # would collapse to its fixed point and lose identifiability
        r, omega = 0.95, 0.7
        coeffs = np.array([0.9 + 2 * r * np.cos(omega),
                           -(r * r + 0.9 * 2 * r * np.cos(omega)),
                           0.9 * r * r])
        rng = seeded_rng(3)
        x = np.zeros(150)
        x[:3] = rng.uniform(-1, 1, 3)
        for t in range(3, 150):
            x[t] = float(np.dot(coeffs, x[t - 3:t][::-1]))
        m = ar_fit(x, 3)
        assert np.max(np.abs(m.coefficients - coeffs)) < 1e-6
        assert abs(m.intercept) < 1e-6

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            ar_fit(np.arange(100.0), 0)

    def test_too_short_range_rejected(self):
        with pytest.raises(ValueError):
            ar_fit(np.arange(4.0), 3)


class TestArForecast:
    def test_hand_recursion(self):
        m = ArModel("X", 1, 0.0, np.array([0.5]))
        out = ar_forecast(m, np.array([[7.0, 2.0]]), 3)
        assert np.array_equal(out, np.array([[1.0], [0.5], [0.25]]))

    def test_zero_history_zero_forecasts(self):
        m = ArModel("X", 2, 0.0, np.array([0.4, 0.3]))
        out = ar_forecast(m, np.zeros((1, 5)), 4)
        assert np.array_equal(out, np.zeros((4, 1)))

    def test_lag_order_convention(self):
        # x_next = 2.0 + 0.5*x[t-1] + 0.25*x[t-2], history [.., 4, 8]
        m = ArModel("X", 2, 2.0, np.array([0.5, 0.25]))
        out = ar_forecast(m, np.array([[4.0, 8.0]]), 1)
        assert out[0, 0] == 2.0 + 0.5 * 8.0 + 0.25 * 4.0

    def test_insufficient_history(self):
        m = ArModel("X", 3, 0.0, np.array([0.1, 0.1, 0.1]))
        with pytest.raises(ValueError):
            ar_forecast(m, np.array([[1.0, 2.0]]), 2)
        with pytest.raises(ValueError):  # a lone (t,) history is no (B, t) batch
            ar_forecast(m, np.array([1.0, 2.0, 3.0]), 2)


class TestArForecaster:
    def test_uses_the_last_order_rows(self):
        m = ArModel("X", 2, 2.0, np.array([0.5, 0.25]))
        history = np.array([[np.nan], [1.0], [4.0], [8.0]])
        out = ar_forecaster([m], 1)(history)
        assert out[0, 0] == 2.0 + 0.5 * 8.0 + 0.25 * 4.0

    def test_missing_lag_rejected(self):
        # AR(2) on [.., 2, NaN, NaN, 9] must not fall back to lags 9 and 2
        m = ArModel("X", 2, 0.0, np.array([0.5, 0.25]))
        history = np.array([[1.0], [2.0], [np.nan], [np.nan], [9.0]])
        with pytest.raises(DataError, match="last 2 history rows"):
            ar_forecaster([m], 3)(history)

    def test_history_shorter_than_order_rejected(self):
        # the lag rows before row 0 must not wrap around to the panel's end
        m = ArModel("X", 3, 0.0, np.array([0.1, 0.1, 0.1]))
        with pytest.raises(DataError, match="last 3 history rows"):
            ar_forecaster([m], 2)(np.ones((2, 1)))


class TestComputeMetrics:
    def test_perfect(self):
        assert compute_metrics(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == (0.0, 0.0, 0.0)

    def test_hand_computed(self):
        mae, rmse, nrmse = compute_metrics(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert abs(mae - 3.5) < 1e-12
        assert abs(rmse - math.sqrt(12.5)) < 1e-12
        assert abs(nrmse - 100.0 * math.sqrt(12.5) / 1.0) < 1e-9

    def test_degenerate_range_is_nan(self):
        _, _, nrmse = compute_metrics(np.array([1.0, 2.0]), np.array([5.0, 5.0]))
        assert math.isnan(nrmse)

    def test_mae_never_exceeds_rmse(self):
        rng = seeded_rng(5)
        for _ in range(25):
            pred = rng.uniform(-5, 5, 30)
            actual = rng.uniform(-5, 5, 30)
            mae, rmse, _ = compute_metrics(pred, actual)
            assert mae <= rmse + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(0), np.zeros(0))


class TestEvaluate:
    def test_perfect_oracle_zero_report(self):
        rng = seeded_rng(6)
        panel = panel_from(rng.uniform(0, 10, (60, 3)))
        h = 4

        def oracle(values, starts):
            return np.stack([panel.values[b:b + h] for b in starts], axis=1)

        report = evaluate(oracle, panel, schedule_cfg(3, h=h, ell=6))
        assert report.mean_mae == 0.0
        assert report.mean_rmse == 0.0
        assert len(report.station_ids) == 3

    def test_persistence_on_linear_ramp_closed_form(self):
        h = 4
        panel = panel_from(np.arange(50, dtype=float))
        report = evaluate(persistence_forecaster(h), panel, schedule_cfg(1, h=h, ell=6))
        # per-step error equals the offset: block MAE = (1 + ... + h) / h
        expected = sum(range(1, h + 1)) / h
        assert abs(report.mean_mae - expected) < 1e-12

    def test_schedule_is_forecaster_agnostic(self):
        rng = seeded_rng(7)
        panel = panel_from(rng.uniform(0, 10, (70, 2)))
        cfg = schedule_cfg(2, h=5, ell=8)
        _, starts_a = block_walk(persistence_forecaster(5), panel, cfg)
        _, starts_b = block_walk(lambda values, starts: np.zeros((5, len(starts), 2)),
                                 panel, cfg)
        assert starts_a == starts_b
        assert starts_a[0] == 8
        assert all(b - a == 5 for a, b in zip(starts_a, starts_a[1:]))

    def test_first_block_index_override(self):
        rng = seeded_rng(8)
        panel = panel_from(rng.uniform(0, 10, (60, 2)))
        cfg = schedule_cfg(2, h=4, ell=6)
        _, starts = block_walk(persistence_forecaster(4), panel, cfg, first_block_index=20)
        assert starts[0] == 20

    def test_too_short_panel_rejected(self):
        panel = panel_from(np.arange(8.0))
        with pytest.raises(DataError):
            evaluate(persistence_forecaster(4), panel, schedule_cfg(1, h=4, ell=6))

    def test_missing_actuals_excluded_from_errors(self):
        vals = np.arange(40, dtype=float)[:, None].repeat(2, axis=1)
        vals[25, 0] = np.nan  # one missing actual inside a block
        panel = panel_from(vals)
        cfg = schedule_cfg(2, h=4, ell=6)
        report = evaluate(persistence_forecaster(4), panel, cfg)
        assert np.isfinite(report.mae).all()
        # station 1 evaluates one more position than station 0
        assert report.sample_count % 2 == 1

    def test_csv_shape(self, tmp_path):
        rng = seeded_rng(9)
        panel = panel_from(rng.uniform(0, 10, (40, 2)), ids=("AAA", "BBB"))
        report = evaluate(persistence_forecaster(3), panel, schedule_cfg(2, h=3, ell=5))
        out = tmp_path / "report.csv"
        report.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "station,mae,rmse,nrmse"
        assert lines[1].startswith("AAA,")
        assert lines[2].startswith("BBB,")
        assert lines[3].startswith("MEAN,")
        mean_mae = float(lines[3].split(",")[1])
        assert abs(mean_mae - report.mean_mae) < 1e-15

    def test_mean_is_arithmetic_mean_of_stations(self):
        rng = seeded_rng(10)
        panel = panel_from(rng.uniform(0, 10, (60, 3)))
        report = evaluate(persistence_forecaster(4), panel, schedule_cfg(3, h=4, ell=6))
        assert report.mean_mae == pytest.approx(float(np.mean(report.mae)), abs=1e-15)
        assert report.mean_rmse == pytest.approx(float(np.mean(report.rmse)), abs=1e-15)

    def test_constant_station_makes_the_mean_nrmse_nan(self):
        # a station whose actual range is zero has NaN NRMSE, and the station
        # mean keeps that NaN, while the mean MAE and RMSE stay finite
        values = seeded_rng(11).uniform(0, 10, (60, 3))
        values[:, 1] = 6.5
        report = evaluate(persistence_forecaster(4), panel_from(values),
                          schedule_cfg(3, h=4, ell=6))
        assert math.isnan(report.nrmse[1]) and np.isfinite(report.nrmse[[0, 2]]).all()
        assert math.isnan(report.mean_nrmse)
        assert math.isfinite(report.mean_mae) and math.isfinite(report.mean_rmse)


def gappy_values(seed, T=160, n=3, gaps=6, max_len=4):
    """Seeded AR-like panel with `gaps` NaN runs of 1..max_len rows after row 40."""
    rng = seeded_rng(seed)
    values = 5.0 + np.cumsum(rng.normal(0.0, 0.3, (T, n)), axis=0)
    for _ in range(gaps):
        start = int(rng.integers(40, T - max_len))
        values[start:start + int(rng.integers(1, max_len + 1)), int(rng.integers(n))] = np.nan
    return values


def reference_walk(forecast_one, values, start, h, ell):
    """The per-block walk: one forecast per complete-window start, history values[:b]."""
    T, n = values.shape
    preds = np.full((T, n), np.nan)
    starts = []
    for b in range(start, T - h + 1, h):
        if not np.all(np.isfinite(values[b - ell:b])):
            continue
        preds[b:b + h] = forecast_one(values[:b])
        starts.append(b)
    if not starts:
        raise DataError("test panel is too short or too gappy for a single complete block")
    return preds, starts


def batch_forecasters(values, h, ell):
    """Persistence, AR(ell) fit on the gap-free head, and a small untrained bank."""
    n = values.shape[1]
    models = fit_ar_models(panel_from(values[:40]), ell)
    cfg = HorizonConfig.default(n=n, h=h, ell=ell, first_widths=(4,), later_widths=(5, 3))
    bank = ModelBank(config=cfg,
                     models=[init_params(list(w), n, 20 + i) for i, w in enumerate(cfg.widths)],
                     normalizer=Normalizer(tuple(f"S{k:02d}" for k in range(n)),
                                           np.zeros(n), np.full(n, 12.0)))
    return {"persistence": persistence_forecaster(h), "ar": ar_forecaster(models, h),
            "bank": bank_forecaster(bank)}


class TestBatchForecasters:
    H, ELL = 3, 4

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("kind", ["persistence", "ar", "bank"])
    def test_each_block_matches_its_lone_forecast(self, seed, kind):
        values = gappy_values(seed)
        forecast = batch_forecasters(values, self.H, self.ELL)[kind]
        _, starts = block_walk(forecast, panel_from(values), schedule_cfg(3, self.H, self.ELL))
        full = forecast(values, starts)
        assert full.shape == (self.H, len(starts), 3)
        for j, b in enumerate(starts):
            for lone in (forecast(values[:b], [b])[:, 0], forecast(values[:b])):
                if kind == "bank":
                    # the bank runs its walk in chunks of 32 blocks, and a
                    # chunk's matrix products round apart from a lone block's
                    assert np.allclose(full[:, j], lone, rtol=1e-12, atol=1e-15)
                else:
                    assert full[:, j].tobytes() == lone.tobytes()

    @pytest.mark.parametrize("poison", [np.nan, 1e300])
    @pytest.mark.parametrize("kind", ["persistence", "ar", "bank"])
    def test_rows_at_or_after_a_start_are_never_read(self, kind, poison):
        values = gappy_values(13)
        forecast = batch_forecasters(values, self.H, self.ELL)[kind]
        _, starts = block_walk(forecast, panel_from(values), schedule_cfg(3, self.H, self.ELL))
        for j in range(0, len(starts), 5):
            poisoned = values.copy()
            poisoned[starts[j]:] = poison
            got = forecast(poisoned, starts[:j + 1])
            assert got.tobytes() == forecast(values, starts[:j + 1]).tobytes()

    @pytest.mark.parametrize("lone", [False, True])
    def test_bank_refuses_a_short_or_gappy_window(self, lone):
        values = gappy_values(15)[:60]
        forecast = batch_forecasters(values, self.H, self.ELL)["bank"]

        def call(b):
            return forecast(values[:b]) if lone else forecast(values, [self.ELL, 20, b, 30])
        with pytest.raises(DataError, match=rf"need at least ell={self.ELL} history rows, got 3"):
            call(self.ELL - 1)
        values[24, 1] = np.nan
        with pytest.raises(DataError, match="the last ell history rows contain missing values"):
            call(25)

    @pytest.mark.parametrize("blocks", [1, 32, 33, 70])
    def test_bank_walk_runs_each_offset_once_per_chunk_of_32(self, blocks, monkeypatch):
        values = gappy_values(16, T=60 + blocks * self.H, gaps=0)
        forecast = batch_forecasters(values, self.H, self.ELL)["bank"]
        calls = []

        def counting(net, seq, keep_cache=True):
            calls.append(np.shape(seq)[1])
            return net_forward(net, seq, keep_cache)
        monkeypatch.setattr(lstm, "net_forward", counting)
        report = evaluate(forecast, panel_from(values), schedule_cfg(3, self.H, self.ELL),
                          first_block_index=60)
        assert report.sample_count == 3 * blocks * self.H
        assert len(calls) == self.H * math.ceil(blocks / 32)
        assert sorted(calls) == sorted([min(32, blocks - lo) for lo in range(0, blocks, 32)]
                                       * self.H)

    @pytest.mark.parametrize("kind", ["persistence", "ar", "bank"])
    def test_zero_blocks_give_an_empty_result(self, kind):
        values = gappy_values(17)
        got = batch_forecasters(values, self.H, self.ELL)[kind](values, [])
        assert got.shape == (self.H, 0, 3)

    def test_ar_forecast_is_the_single_block_case(self):
        rng = seeded_rng(14)
        m = ArModel("X", 5, 0.3, rng.uniform(-0.4, 0.4, 5))
        history = rng.uniform(0, 10, (40, 9))
        batch = ar_forecast(m, history, 6)
        assert batch.shape == (6, 40)
        for j in range(40):
            assert batch[:, j].tobytes() == ar_forecast(m, history[j:j + 1], 6)[:, 0].tobytes()

    def test_bad_starts_rejected(self):
        values = np.ones((10, 2))
        forecast = persistence_forecaster(2)
        for starts in ([0], [11], [[3]]):
            with pytest.raises(ValueError):
                forecast(values, starts)


class TestBlockWalkStarts:
    H, ELL = 4, 5

    def recording(self, calls):
        def forecast(values, starts):
            calls.append(list(starts))
            # block j, offset k holds 1000 j + k, so stitching errors show
            return (1000.0 * np.arange(len(starts))[None, :, None]
                    + np.arange(self.H)[:, None, None] + np.zeros((1, 1, values.shape[1])))
        return forecast

    def reference_stitch(self, values, start):
        count = [0]

        def one(history):
            j = count[0]
            count[0] += 1
            return 1000.0 * j + np.arange(self.H)[:, None] + np.zeros((1, values.shape[1]))
        return reference_walk(one, values, start, self.H, self.ELL)

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_matches_the_per_block_loop(self, seed):
        values = gappy_values(seed, T=120, gaps=12, max_len=6)
        T = values.shape[0]
        # NaN on both edges of some window: rows b - ell and b - 1
        values[60 - self.ELL, 0] = np.nan
        values[80 - 1, 2] = np.nan
        panel = panel_from(values)
        cfg = schedule_cfg(3, self.H, self.ELL)
        for first in (self.ELL, T // 2, T // 2 + 1, T - self.H):
            calls = []
            try:
                expected = self.reference_stitch(values, first)
            except DataError as exc:
                with pytest.raises(DataError, match=str(exc)):
                    block_walk(self.recording(calls), panel, cfg, first_block_index=first)
                assert calls == []
                continue
            preds, starts = block_walk(self.recording(calls), panel, cfg,
                                       first_block_index=first)
            assert starts == expected[1]
            assert all(type(b) is int for b in starts)
            assert calls == [starts]
            assert preds.tobytes() == expected[0].tobytes()

    def test_window_edges(self):
        values = np.ones((40, 2))
        values[10 - self.ELL, 1] = np.nan  # first row of block 10's window
        values[18 - 1, 0] = np.nan  # last row of block 18's window
        _, starts = block_walk(self.recording([]), panel_from(values),
                               schedule_cfg(2, self.H, self.ELL), first_block_index=6)
        assert starts == [b for b in range(6, 37, 4) if b not in (6, 10, 18, 22)]

    def test_no_complete_window_same_error(self):
        values = np.ones((30, 1))
        values[::3] = np.nan
        with pytest.raises(DataError) as ref:
            reference_walk(lambda hist: None, values, self.ELL, self.H, self.ELL)
        calls = []
        with pytest.raises(DataError) as got:
            block_walk(self.recording(calls), panel_from(values),
                       schedule_cfg(1, self.H, self.ELL))
        assert str(got.value) == str(ref.value)
        assert calls == []

    @pytest.mark.parametrize("seed", [31, 32, 33, 34, 35])
    def test_ar_missing_lag_names_the_first_failing_station_in_walk_order(self, seed):
        # order > ell, so the AR lags reach past the complete ell-row window
        h, ell, order = 3, 2, 6
        values = gappy_values(seed, T=150, n=4, gaps=10, max_len=2)
        models = fit_ar_models(panel_from(values[:40]), order)
        forecast = ar_forecaster(models, h)
        expected = None
        for b in reference_walk(lambda hist: np.zeros((h, 4)), values, 40, h, ell)[1]:
            bad = [s for s in range(4) if not np.all(np.isfinite(values[b - order:b, s]))]
            if bad:
                expected = models[bad[0]].station_id
                break
        assert expected is not None
        with pytest.raises(DataError, match=f"station {expected!r}: the last {order}"):
            block_walk(forecast, panel_from(values), schedule_cfg(4, h, ell),
                       first_block_index=40)

    def test_persistence_names_the_first_station_without_history(self):
        values = np.ones((20, 3))
        values[:12, 2] = np.nan
        values[:10, 1] = np.nan
        # block 10 lacks stations 1 and 2, block 11 only station 2
        with pytest.raises(DataError, match="station column 1 has"):
            persistence_forecast(values, 10, 2)
        with pytest.raises(DataError, match="station column 1 has"):
            persistence_forecaster(2)(values, [14, 10, 11])
        with pytest.raises(DataError, match="station column 2 has"):
            persistence_forecaster(2)(values, [14, 11, 10])
        assert persistence_forecaster(2)(values, [13, 16]).tobytes() == np.stack(
            [persistence_forecast(values, b, 2) for b in (13, 16)], axis=1).tobytes()
