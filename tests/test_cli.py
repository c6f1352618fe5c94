import numpy as np
import pytest

from dlstf.bank import BANK_MAGIC, HorizonConfig, load_bank
from dlstf.cli import run_cli
from dlstf.dataset import ingest_csv
from dlstf.evaluation import bank_forecaster, block_walk


def run(*argv):
    return run_cli(list(argv))


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "panel.csv"
    assert run("synth", "--n", "3", "--T", "400", "--seed", "12", "--out", str(data)) == 0
    cfg = root / "train.cfg"
    cfg.write_text(
        "# tiny smoke configuration\n"
        "h = 2\n"
        "ell = 6\n"
        "m1_layers = 4\n"
        "mi_layers = 4\n"
        "max_epochs = 2\n"
        "batch_size = 16\n"
        "seed = 9\n")
    bank = root / "model.bank"
    assert run("train", "--data", str(data), "--config", str(cfg), "--out", str(bank)) == 0
    return root, data, cfg, bank


class TestGradcheck:
    def test_passes_and_prints_error(self, capsys):
        assert run("gradcheck", "--seed", "7") == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "OK" in out

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("DLSTF_SEED", "31")
        assert run("gradcheck") == 0
        assert "seed = 31" in capsys.readouterr().err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DLSTF_SEED", "31")
        assert run("gradcheck", "--seed", "8") == 0
        assert "seed = 8" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_no_subcommand(self):
        assert run() == 1

    def test_missing_required_option(self):
        assert run("train", "--data", "nope.csv") == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert run("train", "--config", str(cfg), "--data", "x", "--out", "y") == 1

    def test_zero_horizon(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert run("train", "--data", str(data), "--out", str(tmp_path / "x.bank"),
                   "--h", "0") == 1
        assert "h, ell and n must all be >= 1" in capsys.readouterr().err

    def test_fractions_beyond_the_panel(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert run("train", "--data", str(data), "--out", str(tmp_path / "x.bank"),
                   "--train-frac", "0.8", "--val-frac", "0.5") == 1
        assert "sum to at most 1" in capsys.readouterr().err
        assert not (tmp_path / "x.bank").exists()


class TestSynth:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("synth", "--n", "2", "--T", "120", "--seed", "5", "--out", str(out)) == 0
        panel = ingest_csv(out)
        assert panel.n_stations == 2 and panel.n_times == 120
        manifest = (tmp_path / "s.csv.run.txt").read_text()
        assert "command = synth" in manifest
        assert "seed = 5" in manifest
        assert "sha256.s.csv = " in manifest

    def test_roundtrip_values_bit_exact(self, tmp_path):
        from dlstf.synth import synth_generate
        out = tmp_path / "s.csv"
        assert run("synth", "--n", "3", "--T", "150", "--seed", "77", "--out", str(out)) == 0
        panel = ingest_csv(out)
        direct = synth_generate(3, 150, 77)
        assert np.array_equal(panel.values, direct.values)

    def test_invalid_sizes_exit_1(self):
        assert run("synth", "--n", "1", "--T", "120", "--out", "x.csv") == 1


class TestTrainEvaluate:
    def test_bank_loads_and_has_config(self, tiny_data):
        _, _, _, bank_path = tiny_data
        bank = load_bank(bank_path)
        assert bank.config.h == 2
        assert bank.config.ell == 6
        assert bank.config.n == 3

    def test_train_writes_manifest(self, tiny_data):
        root, _, _, bank_path = tiny_data
        manifest = (root / "model.bank.run.txt").read_text()
        assert "command = train" in manifest
        assert "config_digest = " in manifest

    def test_evaluate_writes_report_with_mean_row(self, tiny_data, tmp_path):
        _, data, _, bank_path = tiny_data
        report = tmp_path / "report.csv"
        assert run("evaluate", "--model", str(bank_path), "--data", str(data),
                   "--report", str(report)) == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "station,mae,rmse,nrmse"
        assert lines[-1].startswith("MEAN,")
        assert len(lines) == 1 + 3 + 1

    def test_missing_model_file_exit_2(self, tiny_data, tmp_path):
        _, data, _, _ = tiny_data
        assert run("evaluate", "--model", str(tmp_path / "missing.bank"),
                   "--data", str(data), "--report", str(tmp_path / "r.csv")) == 2

    def test_invalid_normalizer_exit_2(self, tiny_data, tmp_path):
        _, data, _, bank_path = tiny_data
        raw = bytearray(bank_path.read_bytes())
        norm = len(BANK_MAGIC) + 16  # station 0's min, then its max
        raw[norm:norm + 16] = raw[norm + 8:norm + 16] + raw[norm:norm + 8]
        bad = tmp_path / "swapped.bank"
        bad.write_bytes(bytes(raw))
        assert run("evaluate", "--model", str(bad), "--data", str(data),
                   "--report", str(tmp_path / "r.csv")) == 2

    def test_corrupt_data_exit_2(self, tiny_data, tmp_path):
        _, _, _, bank_path = tiny_data
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,panel\n")
        assert run("evaluate", "--model", str(bank_path), "--data", str(bad),
                   "--report", str(tmp_path / "r.csv")) == 2

    def test_numerical_failure_exit_3(self, tiny_data, tmp_path):
        _, data, _, _ = tiny_data
        cfg = tmp_path / "explode.cfg"
        cfg.write_text("h = 2\nell = 6\nm1_layers = 4\nmi_layers = 4\n"
                       "max_epochs = 1\nlearning_rate = 1e308\n")
        with np.errstate(all="ignore"):
            code = run("train", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp_path / "x.bank"))
        assert code == 3

    def test_train_evaluate_byte_identical_reruns(self, tiny_data, tmp_path):
        _, data, cfg, _ = tiny_data
        outputs = []
        for tag in ("a", "b"):
            bank = tmp_path / f"{tag}.bank"
            report = tmp_path / f"{tag}.csv"
            assert run("train", "--data", str(data), "--config", str(cfg),
                       "--out", str(bank)) == 0
            assert run("evaluate", "--model", str(bank), "--data", str(data),
                       "--report", str(report)) == 0
            outputs.append((bank.read_bytes(), report.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]


class TestForecast:
    def test_prints_block(self, tiny_data, capsys):
        _, data, _, bank_path = tiny_data
        panel = ingest_csv(data)
        at = panel.timestamps[100]
        ts = str(np.datetime_as_string(at, unit="s")) + "Z"
        assert run("forecast", "--model", str(bank_path), "--data", str(data),
                   "--at", ts) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "timestamp,S00,S01,S02"
        assert len(out) == 1 + 2  # header + h rows
        assert out[1].startswith(ts)

    def test_bad_timestamp_grid_exit_2(self, tiny_data):
        _, data, _, bank_path = tiny_data
        assert run("forecast", "--model", str(bank_path), "--data", str(data),
                   "--at", "1999-01-01T00:00:00Z") == 2


class TestDumpConfig:
    def test_dump_parse_dump_stable(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("h = 3\nseed = 4\nmi_layers = 8 8\n")
        assert run("train", "--config", str(cfg), "--dump-config") == 0
        first = capsys.readouterr().out
        echo = tmp_path / "echo.cfg"
        echo.write_text(first)
        assert run("train", "--config", str(echo), "--dump-config") == 0
        second = capsys.readouterr().out
        assert first == second
        assert "h = 3" in first
        assert "mi_layers = 8 8" in first

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("h = 3\n")
        assert run("train", "--config", str(cfg), "--h", "5", "--dump-config") == 0
        assert "h = 5" in capsys.readouterr().out


@pytest.fixture(scope="module")
def wide_bank(tmp_path_factory):
    root = tmp_path_factory.mktemp("plot")
    data = root / "wide.csv"
    assert run("synth", "--n", "16", "--T", "280", "--seed", "3",
               "--out", str(data)) == 0
    cfg = root / "cfg"
    cfg.write_text("h = 2\nell = 4\nm1_layers = 4\nmi_layers = 4\n"
                   "max_epochs = 1\nbatch_size = 32\nseed = 2\n")
    bank = root / "wide.bank"
    assert run("train", "--data", str(data), "--config", str(cfg),
               "--out", str(bank)) == 0
    return root, data, bank


class TestPlot:

    def test_sixteen_stations_sixteen_files(self, wide_bank, tmp_path):
        root, data, bank = wide_bank
        out_dir = tmp_path / "plots"
        assert run("plot", "--model", str(bank), "--data", str(data),
                   "--stations", "all", "--out", str(out_dir)) == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert "index.csv" in files
        assert "run.txt" in files
        station_files = [f for f in files if f.startswith("S")]
        assert len(station_files) == 16
        index = (out_dir / "index.csv").read_text().strip().split("\n")
        assert index[0] == "station,file"
        assert len(index) == 17

    def test_actual_column_bit_exact_and_forecast_matches_evaluate(self, wide_bank, tmp_path):
        root, data, bank_path = wide_bank
        out_dir = tmp_path / "plots2"
        assert run("plot", "--model", str(bank_path), "--data", str(data),
                   "--stations", "S03", "--out", str(out_dir)) == 0
        panel = ingest_csv(data)
        bank = load_bank(bank_path)
        preds, _ = block_walk(bank_forecaster(bank), panel, bank.config)
        col = panel.station_index("S03")
        lines = (out_dir / "S03.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == int(np.isfinite(preds[:, col]).sum())
        for line in lines[:40]:
            t_str, actual_str, fc_str = line.split(",")
            t = int(t_str)
            assert float(actual_str) == panel.values[t, col]
            assert float(fc_str) == preds[t, col]

    def test_unknown_station_exit_2(self, wide_bank, tmp_path):
        root, data, bank = wide_bank
        assert run("plot", "--model", str(bank), "--data", str(data),
                   "--stations", "NOPE", "--out", str(tmp_path / "x")) == 2
