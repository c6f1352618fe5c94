import struct

import numpy as np
import pytest

from dlstf.bank import (BANK_MAGIC, HorizonConfig, ModelBank, assemble_input,
                        forecast_block, load_bank, model_index, save_bank, train_bank)
from dlstf.dataset import HOUR, TimeSeriesPanel, fraction_split, make_samples, split
from dlstf.errors import DataError
from dlstf.lstm import net_forward
from dlstf.synth import synth_generate
from dlstf.training import TrainConfig
from conftest import seeded_rng


class TestModelIndex:
    def test_nonzero_branch(self):
        assert model_index(7, 6) == 1

    def test_zero_branch(self):
        assert model_index(12, 6) == 6

    def test_single_model(self):
        for t in (1, 2, 17, 999):
            assert model_index(t, 1) == 1

    def test_exhaustive_cyclicity(self):
        for h in range(1, 9):
            for t in range(1, 1001):
                i = model_index(t, h)
                assert 1 <= i <= h
                assert model_index(t + h, h) == i
                t_hat = t % h
                assert i == (t_hat if t_hat != 0 else h)

    def test_invalid(self):
        with pytest.raises(ValueError):
            model_index(0, 6)


def tiny_cfg(n, h=6, ell=12, **kw):
    return HorizonConfig.default(n=n, h=h, ell=ell, **kw)


class TestAssembleInput:
    def test_offset_one_is_all_real(self):
        cfg = tiny_cfg(2, h=6, ell=4)
        t = 13  # 13 mod 6 = 1
        real = {p: np.array([p, -p], dtype=float) for p in range(t - 4, t)}
        seq = assemble_input(real, {}, t, cfg)
        assert seq.shape == (4, 2)
        for row, p in enumerate(range(t - 4, t)):
            assert np.array_equal(seq[row], real[p])

    def test_mixed_composition_counts(self):
        cfg = tiny_cfg(1, h=6, ell=12)
        t = 15  # 15 mod 6 = 3 -> 10 real + 2 forecast
        real = {p: np.array([float(p)]) for p in range(t - 12, t - 2)}
        fc = {p: np.array([100.0 + p]) for p in (t - 2, t - 1)}
        seq = assemble_input(real, fc, t, cfg)
        assert seq.shape == (12, 1)
        assert np.array_equal(seq[:10, 0], np.arange(t - 12, t - 2, dtype=float))
        assert np.array_equal(seq[10:, 0], [100.0 + t - 2, 100.0 + t - 1])

    def test_edge_rule_all_forecast(self):
        cfg = tiny_cfg(1, h=6, ell=3)
        t = 5  # i = 5 > ell -> last 3 forecasts only
        fc = {p: np.array([float(10 * p)]) for p in range(t - 4, t)}
        seq = assemble_input({}, fc, t, cfg)
        assert np.array_equal(seq[:, 0], [20.0, 30.0, 40.0])

    def test_missing_real_coverage_names_first_hour(self):
        cfg = tiny_cfg(1, h=6, ell=4)
        t = 13
        real = {p: np.array([0.0]) for p in range(t - 3, t)}  # missing t-4
        with pytest.raises(DataError, match=r"no real coverage at hour 9"):
            assemble_input(real, {}, t, cfg)

    def test_missing_forecast_coverage_named(self):
        cfg = tiny_cfg(1, h=6, ell=4)
        t = 15  # i = 3, forecasts needed at 13, 14
        real = {p: np.array([0.0]) for p in range(t - 4, t)}
        with pytest.raises(DataError, match=r"no forecast coverage at hour 13"):
            assemble_input(real, {}, t, cfg)

    def test_matches_make_samples_recipe(self):
        # the dict-based assembler and the array-based sampler implement the
        # same mixing rule; cross-validate them on a random case
        rng = seeded_rng(77)
        T, n, ell, h = 40, 3, 5, 6
        vals = rng.uniform(0, 1, (T, n))
        t0 = np.datetime64("2020-01-01T00:00:00", "s")
        panel = TimeSeriesPanel(("A", "B", "C"), t0 + np.arange(T) * HOUR, vals)
        overlay = rng.uniform(0, 1, (h - 1, T, n))
        cfg = tiny_cfg(n, h=h, ell=ell)
        for i in (2, 3, 6):
            out = make_samples(panel, overlay, ell, i)
            for (seq, _), t in list(zip(out, out.target_indices))[:5]:
                if model_index(t, h) != i:
                    continue
                real = {p: vals[p] for p in range(t - ell, t - i + 1)}
                fc = {p: overlay[p - t + i - 1, p] for p in range(max(t - ell, t - i + 1), t)}
                assert np.array_equal(assemble_input(real, fc, t, cfg), seq)


@pytest.fixture(scope="module")
def small_bank_setup():
    panel = synth_generate(3, 320, seed=404, coupling=0.7, noise=0.2)
    train, val, test = split(panel, fraction_split(panel, 0.6, 0.2))
    cfg = HorizonConfig.default(n=3, h=2, ell=6, seed=5,
                                first_widths=(4,), later_widths=(4,),
                                max_epochs=2, batch_size=16, patience=2)
    bank = train_bank(train, val, cfg)
    return panel, train, val, test, cfg, bank


class TestTrainBank:
    def test_structure(self, small_bank_setup):
        _, _, _, _, cfg, bank = small_bank_setup
        assert len(bank.models) == cfg.h
        assert tuple(l.hidden_dim for l in bank.models[0].layers) == (4,)
        assert tuple(l.hidden_dim for l in bank.models[1].layers) == (4,)
        assert bank.models[0].input_dim == 3
        assert bank.models[0].output_dim == 3

    def test_deterministic(self, small_bank_setup):
        _, train, val, _, cfg, bank = small_bank_setup
        again = train_bank(train, val, cfg)
        for m1, m2 in zip(bank.models, again.models):
            for a, b in zip(m1.param_arrays(), m2.param_arrays()):
                assert np.array_equal(a, b)
        assert np.array_equal(bank.normalizer.mins, again.normalizer.mins)

    def test_insufficient_history_rejected(self, small_bank_setup):
        _, train, val, _, cfg, _ = small_bank_setup
        stub = train.slice_rows(0, cfg.ell + cfg.h)
        with pytest.raises(DataError, match="enough"):
            train_bank(stub, val, cfg)


class TestForecastBlock:
    def test_dimensions_and_finiteness(self, small_bank_setup):
        panel, _, _, test, cfg, bank = small_bank_setup
        block = forecast_block(bank, panel, test.timestamps[20])
        assert block.predictions.shape == (cfg.h, 3)
        assert np.all(np.isfinite(block.predictions))

    def test_offset_one_equals_model_one_on_reals(self, small_bank_setup):
        panel, _, _, test, cfg, bank = small_bank_setup
        ts = test.timestamps[20]
        idx = panel.index_of(ts)
        block = forecast_block(bank, panel, ts)
        nz = bank.normalizer
        window = (panel.values[idx - cfg.ell:idx] - nz.mins) / nz.spans
        pred, _ = net_forward(bank.models[0], window)
        manual = pred * nz.spans + nz.mins
        assert np.array_equal(block.predictions[0], manual)

    def test_full_block_matches_manual_unroll(self, small_bank_setup):
        panel, _, _, test, cfg, bank = small_bank_setup
        ts = test.timestamps[8]
        idx = panel.index_of(ts)
        block = forecast_block(bank, panel, ts)
        nz = bank.normalizer
        window = list((panel.values[idx - cfg.ell:idx] - nz.mins) / nz.spans)
        rows = []
        for i in range(1, cfg.h + 1):
            seq = np.stack(window[-cfg.ell:])
            pred, _ = net_forward(bank.models[i - 1], seq)
            window.append(pred)
            rows.append(pred * nz.spans + nz.mins)
        assert np.array_equal(block.predictions, np.stack(rows))

    def test_never_reads_data_at_or_after_block_start(self, small_bank_setup):
        panel, _, _, test, cfg, bank = small_bank_setup
        ts = test.timestamps[20]
        idx = panel.index_of(ts)
        corrupted = panel.values.copy()
        corrupted[idx:] = 1e9
        panel_b = TimeSeriesPanel(panel.station_ids, panel.timestamps, corrupted)
        a = forecast_block(bank, panel, ts)
        b = forecast_block(bank, panel_b, ts)
        assert np.array_equal(a.predictions, b.predictions)

    def test_block_start_just_after_panel_end(self, small_bank_setup):
        panel, _, _, _, cfg, bank = small_bank_setup
        ts = panel.timestamps[-1] + HOUR
        block = forecast_block(bank, panel, ts)
        assert block.predictions.shape == (cfg.h, 3)

    def test_insufficient_history_rejected(self, small_bank_setup):
        panel, _, _, _, cfg, bank = small_bank_setup
        with pytest.raises(DataError, match="history"):
            forecast_block(bank, panel, panel.timestamps[cfg.ell - 1])


class TestSerialization:
    def test_roundtrip_bit_exact(self, small_bank_setup, tmp_path):
        panel, _, _, test, cfg, bank = small_bank_setup
        path = tmp_path / "model.bank"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.config.h == cfg.h
        assert loaded.config.ell == cfg.ell
        assert loaded.config.n == cfg.n
        assert loaded.config.widths == cfg.widths
        for m1, m2 in zip(bank.models, loaded.models):
            for a, b in zip(m1.param_arrays(), m2.param_arrays()):
                assert np.array_equal(a, b)
        assert np.array_equal(bank.normalizer.mins, loaded.normalizer.mins)
        assert np.array_equal(bank.normalizer.maxs, loaded.normalizer.maxs)
        ts = test.timestamps[20]
        a = forecast_block(bank, panel, ts)
        b = forecast_block(loaded, panel, ts)
        assert np.array_equal(a.predictions, b.predictions)

    def test_resave_identical_bytes(self, small_bank_setup, tmp_path):
        _, _, _, _, _, bank = small_bank_setup
        p1, p2 = tmp_path / "a.bank", tmp_path / "b.bank"
        save_bank(bank, p1)
        save_bank(load_bank(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, small_bank_setup, tmp_path):
        _, _, _, _, _, bank = small_bank_setup
        path = tmp_path / "bad.bank"
        save_bank(bank, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="magic"):
            load_bank(path)

    def test_future_version_rejected(self, small_bank_setup, tmp_path):
        _, _, _, _, _, bank = small_bank_setup
        path = tmp_path / "v2.bank"
        save_bank(bank, path)
        data = bytearray(path.read_bytes())
        data[len(BANK_MAGIC)] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="version: found 2, supported 1"):
            load_bank(path)

    def test_truncated_rejected(self, small_bank_setup, tmp_path):
        _, _, _, _, _, bank = small_bank_setup
        path = tmp_path / "trunc.bank"
        save_bank(bank, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(DataError, match="truncated"):
            load_bank(path)

    def test_count_mismatch_rejected(self, small_bank_setup, tmp_path):
        _, _, _, _, _, bank = small_bank_setup
        path = tmp_path / "count.bank"
        save_bank(bank, path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # corrupt the trailing f64 counter
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="count mismatch"):
            load_bank(path)

    def test_trailing_garbage_rejected(self, small_bank_setup, tmp_path):
        _, _, _, _, _, bank = small_bank_setup
        path = tmp_path / "extra.bank"
        save_bank(bank, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataError, match="trailing"):
            load_bank(path)

    @pytest.mark.parametrize("case", ["min_above_max", "nan_normalizer", "inf_weight"])
    def test_invalid_values_rejected(self, small_bank_setup, tmp_path, case):
        _, _, _, _, cfg, bank = small_bank_setup
        path = tmp_path / f"{case}.bank"
        save_bank(bank, path)
        data = bytearray(path.read_bytes())
        norm = len(BANK_MAGIC) + 16  # station 0's min, then its max
        if case == "min_above_max":
            data[norm:norm + 16] = data[norm + 8:norm + 16] + data[norm:norm + 8]
            match = "min > max"
        elif case == "nan_normalizer":
            data[norm:norm + 8] = struct.pack("<d", float("nan"))
            match = "non-finite"
        else:
            first_weight = norm + 16 * cfg.n + 12  # past the layer count and dims
            data[first_weight:first_weight + 8] = struct.pack("<d", float("inf"))
            match = "non-finite"
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match=match):
            load_bank(path)

    def test_non_default_activation_rejected(self, small_bank_setup, tmp_path):
        from dlstf.linalg import ActivationKind
        _, _, _, _, _, bank = small_bank_setup
        clone = ModelBank(bank.config, [m.clone() for m in bank.models], bank.normalizer)
        clone.models[0].head_activation = ActivationKind.RELU
        with pytest.raises(ValueError, match="activation"):
            save_bank(clone, tmp_path / "nope.bank")
