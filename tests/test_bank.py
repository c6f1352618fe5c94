import hashlib
import re
import struct

import numpy as np
import pytest

import dlstf.bank as bank_module
from dlstf.bank import (BANK_MAGIC, HorizonConfig, ModelBank, forecast_block, load_bank,
                        save_bank, train_bank)
from dlstf.dataset import (HOUR, Normalizer, TimeSeriesPanel, assemble_input, denormalize,
                           fit_normalizer, format_timestamp, fraction_cuts, make_samples,
                           normalize)
from dlstf.errors import DataError
from dlstf.evaluation import bank_forecaster, block_walk
from dlstf.lstm import init_params, net_forward
from dlstf.synth import synth_generate
from dlstf.training import TrainConfig, train_model
from conftest import offset_stub_bank, seeded_rng, stub_panel, walk_schedule_errors


class TestModelIndex:
    """The model that serves each row of a walk: offset i serves row b + i - 1
    of the block that starts at row b, whatever the phase of b."""

    def test_exhaustive_cyclicity(self):
        ell = 3
        for h in range(1, 9):
            bank = offset_stub_bank(h, ell)
            for first in range(ell, ell + h):
                # three complete blocks and a partial one that stays NaN
                assert walk_schedule_errors(bank, first + 4 * h - 1, first) == []

    def test_single_model(self):
        bank = offset_stub_bank(1, 4)
        for first in (4, 5, 17):
            assert walk_schedule_errors(bank, 40, first) == []

    def test_block_off_the_grid(self):
        # a global clock that counts rows from 1 would serve offset 2 at row 13
        bank = offset_stub_bank(6, 12)
        preds, starts = block_walk(bank_forecaster(bank), stub_panel(32), bank.config,
                                   first_block_index=13)
        assert starts == [13, 19, 25]
        assert preds[13:20, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0]

    def test_first_block_before_ell_refused(self):
        bank = offset_stub_bank(6, 12)
        with pytest.raises(DataError, match="first block at index 11 leaves less than ell=12"):
            block_walk(bank_forecaster(bank), stub_panel(40), bank.config, first_block_index=11)

    def test_swapped_models_break_the_schedule(self):
        bank = offset_stub_bank(4, 3)
        bank.models[1], bank.models[2] = bank.models[2], bank.models[1]
        assert walk_schedule_errors(bank, 3 + 4 * 3, 3) == [4, 5, 8, 9, 12, 13]


class TestAssembleInput:
    # hours count from the block: hour 0 is the window's last real row
    def test_offset_one_is_all_real(self):
        window = np.array([[p, -p] for p in range(9, 13)], dtype=float)
        seq = assemble_input(window, {}, 1, 4)
        assert seq.shape == (4, 2)
        for row in range(4):
            assert np.array_equal(seq[row], window[row])

    def test_mixed_composition_counts(self):
        window = np.arange(12, dtype=float)[:, None]  # i = 3 -> 10 real + 2 forecast
        fc = {j: np.array([100.0 + j]) for j in (1, 2)}
        seq = assemble_input(window, fc, 3, 12)
        assert seq.shape == (12, 1)
        assert np.array_equal(seq[:10, 0], np.arange(2, 12, dtype=float))
        assert np.array_equal(seq[10:, 0], [101.0, 102.0])

    def test_edge_rule_all_forecast(self):
        fc = {j: np.array([float(10 * j)]) for j in range(1, 5)}
        seq = assemble_input(np.empty((0, 1)), fc, 5, 3)  # i = 5 > ell -> last 3 forecasts only
        assert np.array_equal(seq[:, 0], [20.0, 30.0, 40.0])

    def test_missing_real_coverage_names_first_hour(self):
        window = np.zeros((3, 1))  # ell = 4 needs hours -3 .. 0
        with pytest.raises(DataError, match=r"no real coverage at hour -3"):
            assemble_input(window, {}, 1, 4)

    def test_missing_forecast_coverage_named(self):
        window = np.zeros((4, 1))  # i = 3 needs forecasts for hours 1, 2
        with pytest.raises(DataError, match=r"no forecast coverage at hour 1"):
            assemble_input(window, {}, 3, 4)

    def test_matches_make_samples_recipe(self):
        # each sample of make_samples is offset i of the block that starts at
        # b = t-i+1; build that block's real window and forecasts by hand
        rng = seeded_rng(77)
        T, n, ell, h = 40, 3, 5, 6
        vals = rng.uniform(0, 1, (T, n))
        t0 = np.datetime64("2020-01-01T00:00:00", "s")
        panel = TimeSeriesPanel(("A", "B", "C"), t0 + np.arange(T) * HOUR, vals)
        overlay = rng.uniform(0, 1, (h - 1, T, n))
        for i in (1, 2, 3, 6):
            out = make_samples(panel.values, overlay, ell, i)
            ks = [k for k, t in enumerate(out.target_indices) if t - i + 1 >= ell][:5]
            blocks = [int(out.target_indices[k]) - i + 1 for k in ks]
            for k, b in zip(ks, blocks):
                fc = {j: overlay[j - 1, b + j - 1] for j in range(1, i)}
                assert np.array_equal(assemble_input(vals[b - ell:b], fc, i, ell), out.x[:, k])
            window = np.stack([vals[b - ell:b] for b in blocks], axis=1)
            fc = {j: np.stack([overlay[j - 1, b + j - 1] for b in blocks]) for j in range(1, i)}
            assert np.array_equal(assemble_input(window, fc, i, ell), out.x[:, ks])


SMALL_TRAIN = TrainConfig(seed=5, max_epochs=2, batch_size=16, patience=2)


@pytest.fixture(scope="module")
def small_bank_setup():
    panel = synth_generate(3, 320, seed=404, coupling=0.7, noise=0.2)
    a, b = fraction_cuts(panel.n_times, 0.6, 0.2)
    train, val, test = (panel.slice_rows(0, a), panel.slice_rows(a, b),
                        panel.slice_rows(b, panel.n_times))
    cfg = HorizonConfig.default(n=3, h=2, ell=6, first_widths=(4,), later_widths=(4,))
    bank = train_bank(train, val, cfg, SMALL_TRAIN)
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
        again = train_bank(train, val, cfg, SMALL_TRAIN)
        for m1, m2 in zip(bank.models, again.models):
            for a, b in zip(m1.param_arrays(), m2.param_arrays()):
                assert np.array_equal(a, b)
        assert np.array_equal(bank.normalizer.mins, again.normalizer.mins)

    def test_insufficient_history_rejected(self, small_bank_setup):
        _, train, val, _, cfg, _ = small_bank_setup
        stub = train.slice_rows(0, cfg.ell + cfg.h)
        with pytest.raises(DataError, match="enough"):
            train_bank(stub, val, cfg, SMALL_TRAIN)

    def test_validation_panel_shorter_than_ell_rejected(self, small_bank_setup):
        _, train, val, _, cfg, _ = small_bank_setup
        with pytest.raises(DataError, match="model 1: no usable validation samples"):
            train_bank(train, val.slice_rows(0, cfg.ell - 1), cfg, SMALL_TRAIN)

    def test_model_one_trains_with_the_given_seed(self, small_bank_setup):
        # model i trains with seed train.seed + i - 1, so model 1 is train_model
        # of the seed's initial weights under the unchanged TrainConfig
        _, train, val, _, cfg, bank = small_bank_setup
        nz = fit_normalizer(train)
        tr, va = (make_samples(normalize(p.values, nz), None, cfg.ell, 1) for p in (train, val))
        net = init_params(list(cfg.widths[0]), cfg.n, SMALL_TRAIN.seed)
        expected, _, _ = train_model(net, tr, va, SMALL_TRAIN)
        for a, b in zip(bank.models[0].param_arrays(), expected.param_arrays()):
            assert np.array_equal(a, b)


class TestTrainServeParity:
    @pytest.mark.parametrize("h, ell", [(3, 6), (4, 2)])
    def test_walk_matches_the_validation_overlays(self, monkeypatch, h, ell):
        # every complete validation block forecast by predict_blocks, offset i,
        # is the overlay row b + i - 1 that train_bank built from model i's
        # validation predictions; only the chunking differs, hence the rounding
        panel = synth_generate(3, 260, seed=405, coupling=0.7, noise=0.2)
        a, b = fraction_cuts(panel.n_times, 0.6, 0.2)
        train, val = panel.slice_rows(0, a), panel.slice_rows(a, b)
        assert np.isfinite(panel.values).all()
        cfg = HorizonConfig.default(n=3, h=h, ell=ell, first_widths=(4,), later_widths=(4,))
        overlays = []

        def capture(net, train_samples, val_samples, tc):
            result = train_model(net, train_samples, val_samples, tc)
            overlay = np.full(val.values.shape, np.nan)
            overlay[val_samples.target_indices] = result[2]
            overlays.append(overlay)
            return result

        monkeypatch.setattr(bank_module, "train_model", capture)
        bank = train_bank(train, val, cfg, SMALL_TRAIN)
        assert len(overlays) == h
        for b in range(ell, val.n_times - h + 1):
            rows = np.stack([overlays[i - 1][b + i - 1] for i in range(1, h + 1)])
            np.testing.assert_allclose(bank.predict_blocks(val.values, [b])[:, 0],
                                       denormalize(rows, bank.normalizer), rtol=1e-9, atol=0)


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
        pred, _ = net_forward(bank.models[0], window[:, None])
        manual = pred[0] * nz.spans + nz.mins
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
            pred = net_forward(bank.models[i - 1], seq[:, None])[0][0]
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

    def test_block_start_before_the_panel_counts_its_history(self, small_bank_setup):
        # an hour on the grid, 4 hours before the first row, is not in the panel
        panel, _, _, _, cfg, bank = small_bank_setup
        with pytest.raises(DataError, match=re.escape(
                f"timestamp {format_timestamp(panel.timestamps[0] - 4 * HOUR)} "
                "is not in the panel (")):
            forecast_block(bank, panel, panel.timestamps[0] - 4 * HOUR)


class TestSerialization:
    def test_roundtrip_bit_exact(self, small_bank_setup, tmp_path):
        panel, _, _, test, cfg, bank = small_bank_setup
        path = tmp_path / "model.bank"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.config == cfg
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

    def test_format_v1_bytes_pinned(self, tmp_path):
        # an untrained bank depends only on PCG64 draws and stored floats, so its
        # bytes are the same on every platform and must not change between versions
        cfg = HorizonConfig.default(n=3, h=4, ell=5, first_widths=(4,), later_widths=(5, 3))
        models = [init_params(list(w), 3, 10 + i) for i, w in enumerate(cfg.widths)]
        nz = Normalizer(("a", "b", "c"), np.zeros(3), np.full(3, 10.0))
        path = tmp_path / "pinned.bank"
        save_bank(ModelBank(cfg, models, nz), path)
        data = path.read_bytes()
        assert len(data) == 8494
        assert hashlib.sha256(data).hexdigest() == (
            "18283203170915e8a7981f58204a42e5ce282938f73e178cd0051208215f9956")

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
