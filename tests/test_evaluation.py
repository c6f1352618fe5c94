import math

import numpy as np
import pytest

from dlstf.bank import HorizonConfig
from dlstf.dataset import HOUR, TimeSeriesPanel, parse_timestamp
from dlstf.errors import DataError
from dlstf.evaluation import (ArModel, ar_fit, ar_forecast, ar_forecaster, block_walk,
                              compute_metrics, evaluate, persistence_forecast,
                              persistence_forecaster)
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
        out = ar_forecast(m, np.array([7.0, 2.0]), 3)
        assert np.array_equal(out, np.array([1.0, 0.5, 0.25]))

    def test_zero_history_zero_forecasts(self):
        m = ArModel("X", 2, 0.0, np.array([0.4, 0.3]))
        out = ar_forecast(m, np.zeros(5), 4)
        assert np.array_equal(out, np.zeros(4))

    def test_lag_order_convention(self):
        # x_next = 2.0 + 0.5*x[t-1] + 0.25*x[t-2], history [.., 4, 8]
        m = ArModel("X", 2, 2.0, np.array([0.5, 0.25]))
        out = ar_forecast(m, np.array([4.0, 8.0]), 1)
        assert out[0] == 2.0 + 0.5 * 8.0 + 0.25 * 4.0

    def test_insufficient_history(self):
        m = ArModel("X", 3, 0.0, np.array([0.1, 0.1, 0.1]))
        with pytest.raises(ValueError):
            ar_forecast(m, np.array([1.0, 2.0]), 2)


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

        def oracle(history):
            b = history.shape[0]
            return panel.values[b:b + h]

        report = evaluate(oracle, panel, schedule_cfg(3, h=h, ell=6))
        assert report.mean_mae == 0.0
        assert report.mean_rmse == 0.0
        assert report.station_count == 3

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
        _, starts_b = block_walk(lambda hist: np.zeros((5, 2)), panel, cfg)
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
