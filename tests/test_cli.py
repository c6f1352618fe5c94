import argparse
import hashlib
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dlstf.bank import BANK_MAGIC, BANK_VERSION, HorizonConfig, load_bank, save_bank
from dlstf import cli as cli_module
from dlstf import dataset as dataset_module
from dlstf import evaluation as evaluation_module
from dlstf.cli import RunConfig, UsageError, _cuts, run_cli
from dlstf.dataset import (HOUR, TimeSeriesPanel, fill_missing, format_timestamp, fraction_cuts,
                           ingest_csv, write_csv)
from dlstf.errors import DataError
from dlstf.evaluation import bank_forecaster, block_walk
from dlstf.synth import synth_generate
from dlstf.training import TrainConfig
from conftest import offset_stub_bank, stub_panel


def non_canonical_forms(ts):
    """Unpadded, Arabic-Indic year and one-digit hour forms of an hour before
    10:00 that datetime.strptime reads as that hour, though they are not the
    zero-padded ASCII YYYY-MM-DDTHH:00:00Z."""
    text, d = format_timestamp(ts), ts.astype("datetime64[s]").item()
    arabic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
    return [f"{d.year}-{d.month}-{d.day}T{d.hour}:00:00Z",
            text[:4].translate(arabic) + text[4:], text[:11] + str(d.hour) + text[13:]]


NON_CANONICAL_STAMPS = non_canonical_forms(np.datetime64("2014-01-01T01:00:00"))

# The `train --dump-config` bytes of a run without a config, and their sha256,
# which every manifest records as config_digest. Pinned as literals, so that the
# table of config keys is compared with fixed bytes and not with itself.
DEFAULT_DUMP = (
    "h = 6\nell = 12\nm1_layers = 32\nmi_layers = 64 64\nlearning_rate = 0.001\n"
    "rho = 0.9\nepsilon = 1e-08\nbatch_size = 32\nmax_epochs = 200\npatience = 10\n"
    "clip_norm = 5.0\nseed = 0\ntrain_frac = 0.7\nval_frac = 0.15\nmax_gap = 3\n"
    "train_end = \nval_end = \ntest_start = \ntest_end = \n")
DEFAULT_DIGEST = "4a41c6fffd80f00cde72b38710b8b9231b2de9cb33f8eb16a8ae87a5cc7a3e42"
DUMP_KEYS = tuple(line.split(" = ")[0] for line in DEFAULT_DUMP.splitlines())


def run(*argv):
    return run_cli(list(argv))


def raw_v1_bank(h, ell, n, models, pairs=None) -> bytes:
    """A v1 bank file whose models have the given (input_dim, hidden_dim) layers,
    every weight 0, pairs (default [0, 1] per station) as its normalizer, and the
    trailer's f64 count right, so that only its shape can be refused."""
    pairs = [0.0, 1.0] * n if pairs is None else pairs
    raw = BANK_MAGIC + struct.pack(f"<IIII{len(pairs)}d", BANK_VERSION, h, ell, n, *pairs)
    count = len(pairs)
    for layers in models:
        raw += struct.pack("<I", len(layers))
        width = n
        for d, width in layers:
            size = 4 * width * (d + width + 1)
            raw += struct.pack("<II", d, width) + bytes(8 * size)
            count += size
        raw += bytes(8 * n * (width + 1))  # head matrix and bias
        count += n * (width + 1)
    return raw + struct.pack("<Q", count)


def test_python_m_dlstf_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src")]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "dlstf", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


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

    def test_nan_gradient_exit_3(self, capsys, nan_gradient):
        assert run("gradcheck", "--seed", "7") == 3
        assert "FAIL" in capsys.readouterr().out


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
        assert "config key 'h' must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x.bank").exists()

    def test_fractions_beyond_the_panel(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert run("train", "--data", str(data), "--out", str(tmp_path / "x.bank"),
                   "--train-frac", "0.8", "--val-frac", "0.5") == 1
        assert "sum to at most 1" in capsys.readouterr().err
        assert not (tmp_path / "x.bank").exists()

    def test_negative_max_gap(self, tiny_data, tmp_path, capsys):
        _, data, cfg, _ = tiny_data
        bad = tmp_path / "gap.cfg"
        bad.write_text(cfg.read_text() + "max_gap = -1\n")
        assert run("train", "--data", str(data), "--config", str(bad),
                   "--out", str(tmp_path / "x.bank")) == 1
        assert "'max_gap' must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.bank").exists()

    def test_zero_ar_order(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert run("baseline", "--method", "ar", "--order", "0", "--data", str(data),
                   "--report", str(tmp_path / "r.csv")) == 1
        assert "--order must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_ar_order_beyond_the_fit_range_exit_2(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert run("baseline", "--method", "ar", "--order", "5000", "--data", str(data),
                   "--report", str(tmp_path / "r.csv")) == 2
        assert "cannot fit AR(5000)" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, reason", [
        ("gap", "AR fitting range contains missing values"),
        ("constant", "singular design matrix: series has no AR structure to fit")],
        ids=["gap", "constant"])
    def test_ar_fit_error_names_the_station_exit_2(self, tmp_path, capsys, fault, reason):
        panel = synth_generate(4, 1500, 5)
        values = panel.values.copy()
        if fault == "gap":  # 20 hours, longer than max_gap, inside the fit range
            values[400:420, 2] = np.nan
        else:
            values[:, 2] = 4.0
        data, report = tmp_path / "panel.csv", tmp_path / "r.csv"
        write_csv(replace(panel, values=values), data)
        assert run("baseline", "--method", "ar", "--data", str(data),
                   "--report", str(report)) == 2
        err = capsys.readouterr().err
        assert f"cannot fit AR(3): station 'S02': {reason}" in err
        assert not report.exists()

    @pytest.mark.parametrize("frac", ["1.5", "-0.5"])
    def test_baseline_train_frac_outside_unit_interval(self, tiny_data, tmp_path, capsys,
                                                       frac):
        _, data, _, _ = tiny_data
        assert run("baseline", "--method", "persistence", "--train-frac", frac,
                   "--data", str(data), "--report", str(tmp_path / "r.csv")) == 1
        assert ("train_frac and val_frac must be positive and sum to at most 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag", ["--h", "--ell"])
    def test_baseline_window_shape_below_one(self, tiny_data, tmp_path, capsys, flag):
        _, data, _, _ = tiny_data
        assert run("baseline", "--method", "persistence", flag, "0",
                   "--data", str(data), "--report", str(tmp_path / "r.csv")) == 1
        assert f"config key {flag[2:]!r} must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("method", ["persistence", "ar"])
    @pytest.mark.parametrize("line", ["m1_layers = x", "mi_layers = 0", "mi_layers = 1"])
    def test_baseline_reads_no_width_key(self, tiny_data, tmp_path, capsys, method, line):
        # the walk's shape takes the default widths, which no baseline uses; a width
        # list that does not parse or holds a width below 1 is still refused, as
        # every bad value is
        refusals = {"m1_layers = x": "config key 'm1_layers': 'x' is not a valid width list",
                    "mi_layers = 0": "config key 'mi_layers' must list at least one layer width"}
        _, data, _, _ = tiny_data
        plain, widths = tmp_path / "plain.cfg", tmp_path / "widths.cfg"
        plain.write_text("h = 2\nell = 6\n")
        widths.write_text(plain.read_text() + line + "\n")
        reports = []
        for cfg in (plain, widths):
            report = tmp_path / f"{cfg.stem}.csv"
            code = run("baseline", "--method", method, "--config", str(cfg),
                       "--data", str(data), "--report", str(report))
            if cfg is widths and line in refusals:
                assert code == 1
                assert refusals[line] in capsys.readouterr().err
                assert not report.exists()
                return
            assert code == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("given, missing", [("train-end", "val_end"),
                                                ("val-end", "train_end")])
    def test_lone_split_timestamp(self, tiny_data, tmp_path, capsys, given, missing):
        _, data, cfg, _ = tiny_data
        out = tmp_path / "x.bank"
        assert run("train", "--data", str(data), "--config", str(cfg), "--out", str(out),
                   f"--{given}", "2000-01-05T00:00:00Z") == 1
        assert f"needs {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_learning_rate(self, tiny_data, tmp_path, capsys):
        _, data, cfg, _ = tiny_data
        assert run("train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp_path / "x.bank"), "--learning-rate", "nan") == 1
        assert "learning_rate must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["clip_norm = nan", "epsilon = -1", "epsilon = inf"])
    def test_invalid_optimizer_setting_in_config(self, tiny_data, tmp_path, capsys, line):
        _, data, cfg, _ = tiny_data
        bad = tmp_path / "opt.cfg"
        bad.write_text(cfg.read_text() + line + "\n")
        assert run("train", "--data", str(data), "--config", str(bad),
                   "--out", str(tmp_path / "x.bank")) == 1
        assert f"{line.split()[0]} must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "x.bank").exists()

    # int() and float() read each of these; as in a CSV cell, a config value must be
    # ASCII with no _
    @pytest.mark.parametrize("key,text,kind", [
        ("h", "1_2", "integer"), ("h", "\u0661\u0662", "integer"), ("h", "\uff11\uff12", "integer"),
        ("batch_size", "1_6", "integer"), ("seed", "\u0663", "integer"),
        ("learning_rate", "1_0e-3", "number"), ("learning_rate", "\uff11e-3", "number"),
        ("m1_layers", "3_2", "width list"), ("mi_layers", "64 \uff16\uff14", "width list")])
    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_number_with_underscore_or_non_ascii_digit_exit_1(self, tiny_data, tmp_path, capsys,
                                                              source, key, text, kind):
        _, data, cfg, _ = tiny_data
        out = tmp_path / "x.bank"
        argv = ["train", "--data", str(data), "--config", str(cfg), "--out", str(out)]
        if source == "config":
            bad = tmp_path / "number.cfg"
            bad.write_text(cfg.read_text().replace(f"{key} =", f"# {key} =")
                           + f"{key} = {text}\n", encoding="utf-8")
            argv[4] = str(bad)
        else:
            argv += [f"--{key.replace('_', '-')}", text]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"dlstf: error: config key {key!r}: {text!r} is not a valid {kind}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_max_gap_with_non_ascii_digit_exit_1(self, tiny_data, tmp_path, capsys):
        _, data, cfg, _ = tiny_data
        bad = tmp_path / "gap.cfg"
        bad.write_text(cfg.read_text() + "max_gap = \u0663\n", encoding="utf-8")
        assert run("baseline", "--method", "persistence", "--data", str(data), "--config",
                   str(bad), "--report", str(tmp_path / "r.csv")) == 1
        assert "config key 'max_gap': '\u0663' is not a valid integer" in capsys.readouterr().err


class TestCsvExitCodes:
    """A malformed panel CSV exits 2 with one stderr line naming the fault, wherever
    a read block or a chunk of lines ends."""

    def write(self, path, lines, tail=b""):
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + tail)
        return path

    def train(self, data, tmp_path):
        return run("train", "--data", str(data), "--out", str(tmp_path / "x.bank"))

    def lines(self, T=60):
        panel = stub_panel(T, 2)
        stamps = np.datetime_as_string(panel.timestamps, unit="s")
        return ["timestamp," + ",".join(panel.station_ids)] + [
            f"{ts}Z," + ",".join(map(repr, row)) for ts, row in zip(stamps, panel.values.tolist())]

    def test_lone_cr_in_a_later_chunk_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dataset_module, "CSV_CHUNK_ROWS", 8)
        lines = self.lines()
        lines[40] = lines[40].rsplit(",", 1)[0] + ",2\r5"
        data = self.write(tmp_path / "cr.csv", lines)
        assert self.train(data, tmp_path) == 2
        sid = lines[0].rsplit(",", 1)[1]
        assert capsys.readouterr().err.endswith(
            f"dlstf: data error: {data}: line 41, column {sid!r}: non-numeric cell '2\\r5'\n")

    def test_non_utf8_byte_after_a_data_fault_exit_2(self, tmp_path, capsys):
        lines = self.lines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
        data = self.write(tmp_path / "bad.csv", lines, b"\xff\n")
        at = data.stat().st_size - 2
        assert self.train(data, tmp_path) == 2
        assert capsys.readouterr().err.endswith(
            f"dlstf: data error: {data}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            f"in position {at}: invalid start byte\n")

    def test_file_changed_while_read_exit_2(self, tmp_path, capsys, monkeypatch):
        lines = self.lines()
        data = self.write(tmp_path / "changing.csv", lines)
        line_blocks, passes = dataset_module._line_blocks, []

        def grow_after_the_count(path):
            passes.append(path)
            yield from line_blocks(path)
            if len(passes) == 1:
                self.write(data, lines + lines[-1:])

        monkeypatch.setattr(dataset_module, "_line_blocks", grow_after_the_count)
        assert self.train(data, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"dlstf: data error: {data}: file changed while it was read\n")
        assert "Traceback" not in err


COMMANDS = ["train", "forecast", "evaluate", "baseline", "gradcheck", "synth", "plot"]


def command_argv(command, tiny_data, out):
    """A valid argv of `command` on the tiny panel and bank, writing to `out`."""
    _, data, _, bank = tiny_data
    return {"train": ["train", "--data", str(data), "--out", str(out)],
            "forecast": ["forecast", "--model", str(bank), "--data", str(data),
                         "--at", format_timestamp(ingest_csv(data).timestamps[-1]),
                         "--out", str(out)],
            "evaluate": ["evaluate", "--model", str(bank), "--data", str(data),
                         "--report", str(out)],
            "baseline": ["baseline", "--method", "persistence", "--data", str(data),
                         "--report", str(out)],
            "gradcheck": ["gradcheck"],
            "synth": ["synth", "--n", "2", "--T", "120", "--out", str(out)],
            "plot": ["plot", "--model", str(bank), "--data", str(data), "--stations", "all",
                     "--out", str(out)]}[command]


class TestSeed:
    """The seed is a non-negative integer from the flag, the config file or DLSTF_SEED;
    anything else is a usage error naming the key, for every command."""

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("seed,reason", [("-3", "must be a non-negative integer"),
                                             ("1.5", "is not a valid integer"),
                                             ("abc", "is not a valid integer")])
    def test_invalid_seed_exit_1(self, tiny_data, tmp_path, capsys, monkeypatch,
                                 source, command, seed, reason):
        out = tmp_path / "out"
        argv = command_argv(command, tiny_data, out)
        if source == "flag":
            argv += ["--seed", seed]
        elif source == "config":
            cfg = tmp_path / "seed.cfg"
            cfg.write_text(f"seed = {seed}\n")
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv("DLSTF_SEED", seed)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "config key 'seed'" in err and reason in err
        assert "Traceback" not in err
        assert not out.exists()


class TestConfigValueSweep:
    """Every command refuses every bad config value, whether it reads the key or not,
    before it reads a file."""

    @staticmethod
    def refused(command, tiny_data, tmp_path, capsys, text) -> str:
        """The stderr of `command` with config `text`, after asserting that it
        exits 1 without a traceback and writes no file."""
        cfg, out = tmp_path / "x.cfg", tmp_path / "out"
        cfg.write_text(text)
        before = sorted(tmp_path.iterdir())
        assert run(*command_argv(command, tiny_data, out), "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before
        return err

    @pytest.mark.parametrize("key", list(cli_module.CONFIG_KEYS))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unparsable_value_exit_1(self, tiny_data, tmp_path, capsys, command, key):
        err = self.refused(command, tiny_data, tmp_path, capsys, f"{key} = x\n")
        assert f"dlstf: error: config key {key!r}" in err

    @pytest.mark.parametrize("key, value", [("h", "0"), ("ell", "0"), ("m1_layers", "0"),
                                            ("mi_layers", "64 0"), ("mi_layers", "")])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bank_shape_below_one_exit_1(self, tiny_data, tmp_path, capsys, command, key,
                                         value):
        err = self.refused(command, tiny_data, tmp_path, capsys, f"{key} = {value}\n")
        assert f"dlstf: error: config key {key!r} must" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_fractions_checked_with_split_times(self, tiny_data, tmp_path, capsys, command):
        # the fractions go unused when the split times are set, yet are checked
        err = self.refused(command, tiny_data, tmp_path, capsys,
                           "train_end = 2000-01-05T00:00:00Z\nval_end = 2000-01-06T00:00:00Z\n"
                           "train_frac = 5\n")
        assert "train_frac and val_frac must be positive and sum to at most 1" in err


class TestFlagWiring:
    def test_every_key_flag_overrides_its_key(self, tmp_path):
        # a valid value other than the default for each key flag; the config file sets
        # the split times, which go together, so that each may be set alone by its flag
        cfg = tmp_path / "ends.cfg"
        cfg.write_text("train_end = 2000-01-09T00:00:00Z\nval_end = 2000-01-10T00:00:00Z\n")
        values = {"h": "3", "ell": "5", "m1_layers": "8", "mi_layers": "8 8",
                  "learning_rate": "0.002", "batch_size": "16", "max_epochs": "7",
                  "patience": "4", "seed": "5", "train_frac": "0.6", "val_frac": "0.2",
                  "train_end": "2000-01-11T00:00:00Z", "val_end": "2000-01-12T00:00:00Z",
                  "test_start": "2000-01-13T00:00:00Z", "test_end": "2000-01-14T00:00:00Z"}
        defaults = dict(line.split(" = ") for line in DEFAULT_DUMP.splitlines())
        parser = cli_module._build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        wired = set()
        for name, sub in commands.items():
            required = [arg for a in sub._actions if a.required
                        for arg in (a.option_strings[0], a.choices[0])]
            for action in sub._actions:
                if action.dest not in DUMP_KEYS:
                    continue
                # a key flag is a plain string option named after its key
                assert action.option_strings == ["--" + action.dest.replace("_", "-")]
                assert action.default is None and action.type is None
                assert action.nargs is None and action.const is None
                value = values[action.dest]
                assert value != defaults[action.dest]
                args = parser.parse_args([name, "--config", str(cfg), action.option_strings[0],
                                          value, *required])
                assert cli_module._run_config(args).values[action.dest] == value
                wired.add(action.dest)
        assert wired == set(DUMP_KEYS) - {"rho", "epsilon", "clip_norm", "max_gap"}

    def test_each_command_accepts_exactly_its_pinned_flags(self):
        common = ["-h", "--help", "--config", "--seed"]
        pinned = {
            "train": ["--data", "--h", "--ell", "--max-epochs", "--learning-rate",
                      "--batch-size", "--patience", "--m1-layers", "--mi-layers", "--train-frac",
                      "--val-frac", "--train-end", "--val-end", "--out", "--dump-config"],
            "forecast": ["--model", "--data", "--out", "--at"],
            "evaluate": ["--model", "--data", "--report", "--test-start", "--test-end"],
            "baseline": ["--data", "--report", "--h", "--ell", "--train-frac", "--test-start",
                         "--test-end", "--method", "--order"],
            "gradcheck": [],
            "synth": ["--out", "--n", "--T", "--coupling", "--noise"],
            "plot": ["--model", "--data", "--test-start", "--test-end", "--stations", "--out"],
        }
        commands = next(a for a in cli_module._build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert list(commands) == list(pinned)
        for name, sub in commands.items():
            flags = [flag for action in sub._actions for flag in action.option_strings]
            assert flags == common + pinned[name], name


    def test_consecutive_calls_share_no_parsed_values(self, capsys):
        assert run("train", "--dump-config", "--h", "4") == 0
        assert "h = 4\n" in capsys.readouterr().out
        assert run("train", "--dump-config") == 0
        assert "h = 6\n" in capsys.readouterr().out
        assert cli_module._build_parser() is cli_module._build_parser()

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert run(*argv) == 0
        assert capsys.readouterr().out.startswith("usage: dlstf")


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

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exit_1(self, tmp_path, capsys, noise):
        out = tmp_path / "s.csv"
        assert run("synth", "--n", "2", "--T", "120", "--noise", noise,
                   "--out", str(out)) == 1
        assert "noise must be finite" in capsys.readouterr().err
        assert not out.exists()


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

    def test_validation_range_shorter_than_ell_exit_2(self, tiny_data, tmp_path, capsys):
        # 400 rows: the validation range is rows 360..363, shorter than ell = 6
        _, data, cfg, _ = tiny_data
        out = tmp_path / "x.bank"
        assert run("train", "--data", str(data), "--config", str(cfg), "--out", str(out),
                   "--train-frac", "0.9", "--val-frac", "0.01") == 2
        assert "model 1: no usable validation samples" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_width_layer_exit_2(self, tiny_data, tmp_path, capsys):
        # h = 1, ell = 2, n = 3; one model whose only layer has hidden width 0
        _, data, _, _ = tiny_data
        bad = tmp_path / "zero.bank"
        bad.write_bytes(raw_v1_bank(1, 2, 3, [[(3, 0)]]))
        assert run("forecast", "--model", str(bad), "--data", str(data),
                   "--at", "2000-01-03T00:00:00Z") == 2
        assert "model 1 needs layer widths, each >= 1, got [0]" in capsys.readouterr().err

    @pytest.mark.parametrize("h, ell, n, models, pairs", [
        (0, 2, 3, [], None),
        (1, 0, 3, [[(3, 2)]], None),
        (1, 2, 0, [[(0, 2)]], None),
        (1, 2, 3, [[]], None),
        (1, 2, 3, [[(3, 0)]], None),
        (1, 2, 3, [[(3, 2), (3, 2)]], None),
        (1, 2, 3, [[(2, 2)]], None),
        (1, 2, 3, [[(3, 2)]], [1.0, 0.0] + [0.0, 1.0] * 2),
    ], ids=["h0", "ell0", "n0", "no_layers", "width0", "broken_chain", "first_input_not_n",
            "min_above_max"])
    def test_bank_shape_refused_exit_2(self, tiny_data, tmp_path, capsys, h, ell, n, models,
                                       pairs):
        _, data, _, _ = tiny_data
        bad = tmp_path / "shape.bank"
        bad.write_bytes(raw_v1_bank(h, ell, n, models, pairs))
        assert run("forecast", "--model", str(bad), "--data", str(data),
                   "--at", "2000-01-03T00:00:00Z") == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and "Traceback" not in err

    def test_non_utf8_data_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"timestamp,A,B\n2000-01-01T00:00:00Z,1.0,\xff\n")
        assert run("baseline", "--method", "persistence", "--data", str(bad),
                   "--report", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "UTF-8" in err

    @pytest.mark.parametrize("cell", ["1_0", "١٢"])
    @pytest.mark.parametrize("lineno", [2, 3])
    def test_underscore_or_non_ascii_cell_exit_2(self, tmp_path, capsys, cell, lineno):
        rows = ["1.0,2.0", "3.0,4.0"]
        rows[lineno - 2] = f"1.0,{cell}"
        data = tmp_path / "cell.csv"
        data.write_bytes(("timestamp,A,B\n"
                          f"2000-01-01T00:00:00Z,{rows[0]}\n"
                          f"2000-01-01T01:00:00Z,{rows[1]}\n").encode("utf-8"))
        report = tmp_path / "r.csv"
        assert run("baseline", "--method", "persistence", "--data", str(data),
                   "--report", str(report)) == 2
        assert f"line {lineno}, column 'B': non-numeric cell {cell!r}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("fault", ["unpadded", "arabic_year", "one_digit_hour", "inner_cr"])
    @pytest.mark.parametrize("row", [0, 1, 7, 8])
    def test_non_canonical_stamp_or_inner_cr_exit_2(self, tmp_path, capsys, monkeypatch,
                                                    fault, row):
        # rows 0 to 7 are the first chunk: line 2, a line inside it, and both
        # sides of the boundary with the second; each stamp names the row's own
        # hour, and a CR is only read right before an LF
        monkeypatch.setattr(dataset_module, "CSV_CHUNK_ROWS", 8)
        synth = synth_generate(2, 100, seed=5)
        panel = TimeSeriesPanel(synth.station_ids, np.datetime64("2014-01-01T00:00:00")
                                + np.arange(100) * HOUR, synth.values)
        data = tmp_path / "panel.csv"
        write_csv(panel, data)
        lines = data.read_text().split("\n")
        fields = lines[row + 1].split(",")
        if fault == "inner_cr":
            fields[1] = "\r2.5"
        else:
            fields[0] = non_canonical_forms(panel.timestamps[row])[
                ["unpadded", "arabic_year", "one_digit_hour"].index(fault)]
        lines[row + 1] = ",".join(fields)
        data.write_bytes("\n".join(lines).encode("utf-8"))
        report = tmp_path / "r.csv"
        assert run("baseline", "--method", "persistence", "--data", str(data),
                   "--report", str(report)) == 2
        assert f"{data}: line {row + 2}" in capsys.readouterr().err
        assert not report.exists()

    def test_non_utf8_config_exit_2(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"# caf\xe9\nh = 2\n")
        assert run("train", "--data", str(data), "--config", str(bad),
                   "--out", str(tmp_path / "x.bank")) == 2
        assert f"cannot read config file {bad}" in capsys.readouterr().err
        assert not (tmp_path / "x.bank").exists()

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


class TestMissingDataLine:
    """Each command that reads a panel counts its repaired and unrepaired gaps in one
    stderr line, and a panel with no gap prints none."""

    def test_train_evaluate_baseline_print_the_counts(self, tiny_data, tmp_path, capsys):
        _, data, cfg, _ = tiny_data
        panel = ingest_csv(data)
        values = panel.values.copy()
        values[0, 0] = np.nan          # touches the first row: left missing
        values[50, 0] = np.nan         # one row: filled
        values[80:83, 1] = np.nan      # max_gap = 3 rows: filled
        values[120:124, 2] = np.nan    # max_gap + 1 rows: left missing
        gappy = tmp_path / "gappy.csv"
        write_csv(TimeSeriesPanel(panel.station_ids, panel.timestamps, values), gappy)
        bank = tmp_path / "gappy.bank"
        for argv in (["train", "--config", str(cfg), "--out", str(bank)],
                     ["evaluate", "--model", str(bank), "--report", str(tmp_path / "e.csv")],
                     ["baseline", "--method", "persistence",
                      "--report", str(tmp_path / "b.csv")]):
            assert run(*argv, "--data", str(gappy)) == 0
            lines = capsys.readouterr().err.splitlines()
            assert [line for line in lines if line.startswith("missing data")] == [
                "missing data: filled 2 runs, left 2 unfilled"], argv[0]

    def test_no_gap_no_line(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert run("baseline", "--method", "persistence", "--data", str(data),
                   "--report", str(tmp_path / "b.csv")) == 0
        assert "missing data" not in capsys.readouterr().err


class TestOutOfMemory:
    """A size beyond a 47-bit address space fails its first allocation at once, so
    nothing is committed; the command exits 1 with numpy's text, not a traceback."""

    def assert_one_line(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            "dlstf: error: not enough memory: Unable to allocate")

    def test_train_width_exit_1(self, tiny_data, tmp_path, capsys):
        _, data, cfg, _ = tiny_data
        huge = tmp_path / "huge.cfg"
        huge.write_text(cfg.read_text().replace("m1_layers = 4", f"m1_layers = {10**15}"))
        out = tmp_path / "x.bank"
        assert run("train", "--data", str(data), "--config", str(huge), "--out", str(out)) == 1
        self.assert_one_line(capsys)
        assert not out.exists()

    def test_synth_length_exit_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("synth", "--n", "2", "--T", str(10**15), "--out", str(out)) == 1
        self.assert_one_line(capsys)
        assert not out.exists()


class TestTestWindow:
    @pytest.mark.parametrize("command", ["baseline", "evaluate"])
    def test_start_after_end_exit_2(self, tiny_data, tmp_path, capsys, command):
        _, data, _, bank = tiny_data
        ts = ingest_csv(data).timestamps
        start, end = (format_timestamp(ts[k]) for k in (300, 250))
        argv = (["baseline", "--method", "persistence"] if command == "baseline"
                else ["evaluate", "--model", str(bank)])
        report = tmp_path / "r.csv"
        assert run(*argv, "--data", str(data), "--report", str(report),
                   "--test-start", start, "--test-end", end) == 2
        err = capsys.readouterr().err
        assert f"test_start {start} falls after test_end {end}" in err
        assert "is not in the panel" not in err
        assert not report.exists()


class TestOneRowRule:
    """Every timestamp flag maps to a row by index_of, and without --test-start
    every scoring command walks from the held-out cut max(ell, b)."""

    def test_default_scoring_commands_walk_the_same_rows(self, tiny_data, tmp_path,
                                                          monkeypatch):
        _, data, _, bank = tiny_data
        firsts, counts = [], []
        walk, score = evaluation_module.block_walk, cli_module.evaluate

        def recording_walk(forecaster, panel, cfg, first_block_index=None):
            firsts.append(first_block_index)
            return walk(forecaster, panel, cfg, first_block_index)

        def recording_evaluate(*args, **kwargs):
            report = score(*args, **kwargs)
            counts.append(report.sample_count)
            return report

        monkeypatch.setattr(evaluation_module, "block_walk", recording_walk)
        monkeypatch.setattr(cli_module, "block_walk", recording_walk)
        monkeypatch.setattr(cli_module, "evaluate", recording_evaluate)
        assert run("evaluate", "--model", str(bank), "--data", str(data),
                   "--report", str(tmp_path / "e.csv")) == 0
        assert run("plot", "--model", str(bank), "--data", str(data), "--stations", "all",
                   "--out", str(tmp_path / "p")) == 0
        for method in ("persistence", "ar"):
            assert run("baseline", "--method", method, "--h", "2", "--ell", "6",
                       "--data", str(data), "--report", str(tmp_path / f"{method}.csv")) == 0
        assert firsts == [fraction_cuts(400, 0.7, 0.15)[1]] * 4
        assert len(counts) == 3 and counts[0] > 0 and len(set(counts)) == 1

    @pytest.mark.parametrize("hours", [-1, 1], ids=["before", "after"])
    @pytest.mark.parametrize("flag", ["train-end", "val-end", "test-start", "test-end", "at"])
    def test_time_outside_the_panel_exit_2(self, tiny_data, tmp_path, capsys, flag, hours):
        # --at may name the hour after the last row, so its "after" is one hour later
        _, data, cfg, bank = tiny_data
        ts = ingest_csv(data).timestamps
        edge = ts[0] if hours < 0 else ts[-1] + (flag == "at") * HOUR
        stamp = format_timestamp(edge + hours * HOUR)
        out = tmp_path / "out"
        if flag in ("train-end", "val-end"):
            cuts = {"train-end": format_timestamp(ts[280]), "val-end": format_timestamp(ts[340])}
            cuts[flag] = stamp
            argvs = [["train", "--config", str(cfg), "--out", str(out),
                      "--train-end", cuts["train-end"], "--val-end", cuts["val-end"]]]
        elif flag == "at":
            argvs = [["forecast", "--model", str(bank), "--out", str(out), "--at", stamp]]
        else:
            argvs = [["evaluate", "--model", str(bank), "--report", str(out), f"--{flag}", stamp],
                     ["baseline", "--method", "persistence", "--report", str(out),
                      f"--{flag}", stamp]]
        for argv in argvs:
            assert run(*argv, "--data", str(data)) == 2
            assert (f"data error: timestamp {stamp} is not in the panel "
                    f"({format_timestamp(ts[0])} .. {format_timestamp(ts[-1])})"
                    in capsys.readouterr().err)
            assert not out.exists()

    def test_at_the_hour_after_the_last_row_forecasts(self, tiny_data, capsys):
        _, data, _, bank = tiny_data
        at = format_timestamp(ingest_csv(data).timestamps[-1] + HOUR)
        assert run("forecast", "--model", str(bank), "--data", str(data), "--at", at) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 2 and lines[1].startswith(at + ",")

    def test_station_id_with_surrounding_space_exit_2(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        rest = data.read_text().split("\n", 1)[1]
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("timestamp,S00, S01,S02\n" + rest)
        report = tmp_path / "r.csv"
        assert run("baseline", "--method", "persistence", "--data", str(spaced),
                   "--report", str(report)) == 2
        assert "station id ' S01' has leading or trailing whitespace" in capsys.readouterr().err
        assert not report.exists()


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

    def test_each_row_is_served_by_its_offset(self, tmp_path, capsys):
        # model i of the stub bank forecasts exactly i, so row k of a block
        # must read k + 1 wherever the block starts
        h, ell = 4, 3
        model = tmp_path / "stub.bank"
        save_bank(offset_stub_bank(h, ell), model)
        panel = stub_panel(ell + 2 * h)
        data = tmp_path / "stub.csv"
        write_csv(panel, data)
        for b in range(ell, ell + h):
            assert run("forecast", "--model", str(model), "--data", str(data),
                       "--at", format_timestamp(panel.timestamps[b])) == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert lines[0] == "timestamp,S00,S01"
            assert [ln.split(",")[1:] for ln in lines[1:]] == [
                [f"{k + 1.0!r}"] * 2 for k in range(h)]

    def test_bad_timestamp_grid_exit_2(self, tiny_data):
        _, data, _, bank_path = tiny_data
        assert run("forecast", "--model", str(bank_path), "--data", str(data),
                   "--at", "1999-01-01T00:00:00Z") == 2

    def test_malformed_time_exit_1(self, tiny_data, capsys):
        _, data, _, bank_path = tiny_data
        assert run("forecast", "--model", str(bank_path), "--data", str(data),
                   "--at", "garbage") == 1
        assert "--at 'garbage' is not a valid timestamp" in capsys.readouterr().err

    # the 2014 stamps lie outside the panel; the others name its row 49
    @pytest.mark.parametrize("stamp", NON_CANONICAL_STAMPS + non_canonical_forms(
        np.datetime64("2000-01-03T01:00:00")))
    def test_non_canonical_time_exit_1(self, tiny_data, tmp_path, capsys, stamp):
        _, data, _, bank_path = tiny_data
        assert run("forecast", "--model", str(bank_path), "--data", str(data),
                   "--at", stamp) == 1
        assert f"--at {stamp!r} is not a valid timestamp" in capsys.readouterr().err
        report = tmp_path / "r.csv"
        assert run("baseline", "--method", "persistence", "--data", str(data),
                   "--report", str(report), "--test-start", stamp) == 1
        assert f"config key 'test_start': {stamp!r} is not a valid timestamp" in (
            capsys.readouterr().err)
        assert not report.exists()


class TestNonFiniteForecast:
    """A bank file whose values are all finite can still forecast inf: its
    denormalized forecasts overflow. Every command that forecasts exits 3."""

    @pytest.fixture(scope="class")
    def overflow_bank(self, tiny_data, tmp_path_factory):
        _, _, _, bank_path = tiny_data
        bank = load_bank(bank_path)
        for m in bank.models:
            m.head_b[:] = 1e308
        path = tmp_path_factory.mktemp("overflow") / "overflow.bank"
        save_bank(bank, path)
        return path

    @staticmethod
    def run_strict(*argv):
        """run_cli with numpy's floating-point warnings raised as errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run(*argv)

    def assert_offset_named(self, capsys, offset):
        err = capsys.readouterr().err
        failures = [line for line in err.splitlines()
                    if line.startswith("dlstf: numerical failure:")]
        assert len(failures) == 1, err
        assert f"offset {offset}: non-finite forecast" in failures[0]
        assert "Traceback" not in err
        return failures[0]

    def test_forecast_exit_3(self, tiny_data, overflow_bank, tmp_path, capsys):
        _, data, _, _ = tiny_data
        out = tmp_path / "f.csv"
        assert self.run_strict("forecast", "--model", str(overflow_bank), "--data", str(data),
                               "--at", format_timestamp(ingest_csv(data).timestamps[100]),
                               "--out", str(out)) == 3
        assert "in 1 of 1 blocks" in self.assert_offset_named(capsys, 1)
        assert not out.exists()

    def test_evaluate_exit_3(self, tiny_data, overflow_bank, tmp_path, capsys):
        _, data, _, _ = tiny_data
        report = tmp_path / "r.csv"
        assert self.run_strict("evaluate", "--model", str(overflow_bank), "--data", str(data),
                               "--report", str(report)) == 3
        self.assert_offset_named(capsys, 1)
        assert not report.exists()

    def test_plot_exit_3(self, tiny_data, overflow_bank, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert self.run_strict("plot", "--model", str(overflow_bank), "--data", str(data),
                               "--stations", "all", "--out", str(tmp_path / "p")) == 3
        self.assert_offset_named(capsys, 1)
        assert not (tmp_path / "p").exists()

    def test_evaluate_exit_3_when_some_blocks_overflow(self, tiny_data, tmp_path, capsys):
        # scale model 1's station-0 head so that its forecast overflows exactly
        # on the blocks whose head output exceeds the median in magnitude
        _, data, _, bank_path = tiny_data
        bank = load_bank(bank_path)
        panel, _ = fill_missing(ingest_csv(data), 3)
        # the default walk starts at the held-out cut
        first = max(bank.config.ell, fraction_cuts(panel.n_times, 0.7, 0.15)[1])
        starts = np.arange(first, panel.n_times - bank.config.h + 1, bank.config.h)
        nz = bank.normalizer
        head = (bank.predict_blocks(panel.values, starts)[0, :, 0] - nz.mins[0]) / nz.spans[0]
        scale = np.finfo(np.float64).max / (nz.spans[0] * np.median(np.abs(head)))
        bank.models[0].head_w[0] *= scale
        bank.models[0].head_b[0] *= scale
        path = tmp_path / "partial.bank"
        save_bank(bank, path)
        assert self.run_strict("evaluate", "--model", str(path), "--data", str(data),
                               "--report", str(tmp_path / "r.csv")) == 3
        counts = re.search(r"in (\d+) of (\d+) blocks", self.assert_offset_named(capsys, 1))
        assert 0 < int(counts[1]) < int(counts[2]) == starts.size


class TestOverflowingNormalizer:
    """Finite min and max whose span max - min overflows: a data error naming
    the station, raised before any warning is printed."""

    def test_train_exit_2(self, tiny_data, tmp_path, capsys):
        _, data, cfg, _ = tiny_data
        lines = data.read_text().splitlines()
        for row, cell in ((5, "1e308"), (9, "-1e308")):
            fields = lines[row].split(",")
            fields[1] = cell
            lines[row] = ",".join(fields)
        wide = tmp_path / "wide.csv"
        wide.write_text("\n".join(lines) + "\n")
        out = tmp_path / "wide.bank"
        assert TestNonFiniteForecast.run_strict("train", "--data", str(wide), "--config",
                                                str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "station 'S00': normalizer span max - min is not finite" in err
        assert not out.exists()

    def test_patched_bank_exit_2(self, tiny_data, tmp_path, capsys):
        _, data, _, bank_path = tiny_data
        raw = bytearray(bank_path.read_bytes())
        norm = len(BANK_MAGIC) + 16  # station 0's min, then its max
        raw[norm:norm + 16] = struct.pack("<dd", -1e308, 1e308)
        bad = tmp_path / "wide.bank"
        bad.write_bytes(bytes(raw))
        report = tmp_path / "r.csv"
        assert TestNonFiniteForecast.run_strict("evaluate", "--model", str(bad), "--data",
                                                str(data), "--report", str(report)) == 2
        err = capsys.readouterr().err
        assert "station '0': normalizer span max - min is not finite" in err
        assert not report.exists()


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


    @pytest.mark.parametrize("has_seed", [True, False])
    def test_config_file_parsed_once_with_env_seed(self, tmp_path, monkeypatch, has_seed):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("h = 3\n" + ("seed = 9\n" if has_seed else ""))
        monkeypatch.setenv("DLSTF_SEED", "4")
        calls = []
        parse = cli_module.parse_config_file
        monkeypatch.setattr(cli_module, "parse_config_file",
                            lambda path: calls.append(path) or parse(path))
        built = RunConfig.build(str(cfg), {"seed": None, "h": None})
        assert len(calls) == 1
        assert built.values["seed"] == ("9" if has_seed else "4")
        assert built.values["h"] == "3"
        assert RunConfig.build(str(cfg), {"seed": "7"}).values["seed"] == "7"

    def test_readme_keys_and_defaults_block(self, tmp_path, capsys):
        # the block holds inline comments, and `train_end =` has only a comment
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        assert "max_gap = 3            # longest missing run" in block
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        assert run("train", "--config", str(cfg), "--dump-config") == 0
        out = capsys.readouterr().out
        assert out == DEFAULT_DUMP
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_DIGEST
        assert RunConfig.build(str(cfg), {}).digest() == DEFAULT_DIGEST

    def test_every_key_set_dumps_in_key_order(self, tmp_path, capsys):
        # the file lists the keys out of order; the dump keeps each value's text
        cfg = tmp_path / "every.cfg"
        cfg.write_text(
            "test_end = 2000-01-15T00:00:00Z\nseed = 42\nh = 4\nclip_norm = 2.5\n"
            "m1_layers = 16, 8\nell = 8\nmi_layers = 24 12\nlearning_rate = 0.002\n"
            "rho = 0.95\nepsilon = 1e-7\nbatch_size = 16\nmax_epochs = 50\npatience = 5\n"
            "train_frac = 0.6\nval_frac = 0.2\nmax_gap = 5\n"
            "train_end = 2000-01-10T00:00:00Z\nval_end = 2000-01-12T00:00:00Z\n"
            "test_start = 2000-01-13T00:00:00Z\n")
        assert run("train", "--config", str(cfg), "--dump-config") == 0
        out = capsys.readouterr().out
        assert out == (
            "h = 4\nell = 8\nm1_layers = 16, 8\nmi_layers = 24 12\nlearning_rate = 0.002\n"
            "rho = 0.95\nepsilon = 1e-7\nbatch_size = 16\nmax_epochs = 50\npatience = 5\n"
            "clip_norm = 2.5\nseed = 42\ntrain_frac = 0.6\nval_frac = 0.2\nmax_gap = 5\n"
            "train_end = 2000-01-10T00:00:00Z\nval_end = 2000-01-12T00:00:00Z\n"
            "test_start = 2000-01-13T00:00:00Z\ntest_end = 2000-01-15T00:00:00Z\n")
        digest = "8202f4be6c5a3401c35ac563b115e9f5d2ad5281df9636dab787f1ab4f813054"
        assert RunConfig.build(str(cfg), {}).digest() == digest

    def test_digest_hashes_each_value_as_given(self, monkeypatch):
        # four spellings of h = 6 parse alike; " 6" is stripped to "6", and the other
        # three dump and hash as three texts
        monkeypatch.delenv("DLSTF_SEED", raising=False)
        configs = [RunConfig.build(None, {"h": text}) for text in ("6", "+6", " 6", "06")]
        assert [cfg.get("h") for cfg in configs] == [6] * 4
        digests = [cfg.digest() for cfg in configs]
        assert digests[0] == digests[2] == DEFAULT_DIGEST and len(set(digests)) == 3

    def test_flag_and_env_values_stripped(self, tmp_path, capsys, monkeypatch):
        # a value from a flag or DLSTF_SEED dumps as a config file gives it, so the dump
        # of any run reads back to its own digest
        monkeypatch.setenv("DLSTF_SEED", " 4 ")
        assert run("train", "--dump-config", "--h", " 6", "--ell", "8\t") == 0
        dump = capsys.readouterr().out
        assert dump == DEFAULT_DUMP.replace("ell = 12", "ell = 8").replace("seed = 0", "seed = 4")
        echo = tmp_path / "echo.cfg"
        echo.write_text(dump)
        assert RunConfig.build(str(echo), {}).digest() == hashlib.sha256(
            dump.encode("utf-8")).hexdigest()

    def test_unparsable_flag_value_exit_1(self, capsys):
        assert run("train", "--dump-config", "--h", "x") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dlstf: error: config key 'h': 'x' is not a valid integer" in captured.err

    def test_defaults_match_the_library_defaults(self, monkeypatch):
        monkeypatch.delenv("DLSTF_SEED", raising=False)
        defaults = RunConfig.build(None, {})
        assert defaults.dump() == DEFAULT_DUMP
        assert defaults.train == TrainConfig()
        assert defaults.horizon_config(6) == HorizonConfig.default(6)

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text("h = 3\nseed = 4\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert RunConfig.build(str(bom), {}).digest() == RunConfig.build(str(plain), {}).digest()

    def test_comment_runs_to_end_of_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("h = 3# three\n  # indented comment\nmi_layers = 8 8 # two layers\n")
        assert run("train", "--config", str(cfg), "--dump-config") == 0
        out = capsys.readouterr().out
        assert "h = 3\n" in out and "mi_layers = 8 8\n" in out

    def test_key_set_twice_exit_1(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        cfg = tmp_path / "c.cfg"
        cfg.write_text("h = 6\n# comment\nell = 4\nh = 3\n")
        out = tmp_path / "x.bank"
        assert run("train", "--data", str(data), "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "config key 'h' is set twice, on lines 1 and 4" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestHugeHorizon:
    """A horizon longer than the panel is a data error found before the bank shape
    (h widths) is built."""

    @pytest.fixture(autouse=True)
    def no_horizon_config(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("HorizonConfig.default called")
        monkeypatch.setattr(HorizonConfig, "default", refuse)

    @pytest.mark.parametrize("window", [[], ["--test-start", "2000-01-15T00:00:00Z"]])
    def test_baseline_exit_2(self, tiny_data, tmp_path, capsys, window):
        _, data, _, _ = tiny_data
        assert run("baseline", "--method", "ar", "--order", "3", "--h", "100000000",
                   "--data", str(data), "--report", str(tmp_path / "r.csv"), *window) == 2
        err = capsys.readouterr().err
        assert "test window is too short for a single block" in err
        assert not (tmp_path / "r.csv").exists()

    def test_train_exit_2(self, tiny_data, tmp_path, capsys):
        _, data, _, _ = tiny_data
        assert run("train", "--data", str(data), "--out", str(tmp_path / "x.bank"),
                   "--h", "100000000") == 2
        assert "not enough training history: T=280 must exceed" in capsys.readouterr().err
        assert not (tmp_path / "x.bank").exists()

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
        first = max(bank.config.ell, fraction_cuts(panel.n_times, 0.7, 0.15)[1])
        preds, _ = block_walk(bank_forecaster(bank), panel, bank.config, first_block_index=first)
        col = panel.station_index("S03")
        lines = (out_dir / "S03.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == int(np.isfinite(preds[:, col]).sum())
        for line in lines[:40]:
            t_str, actual_str, fc_str = line.split(",")
            t = int(t_str)
            assert float(actual_str) == panel.values[t, col]
            assert float(fc_str) == preds[t, col]

    def test_repeated_station_written_once(self, wide_bank, tmp_path):
        root, data, bank = wide_bank
        out_dir = tmp_path / "plots3"
        assert run("plot", "--model", str(bank), "--data", str(data),
                   "--stations", "S03,S01,S03", "--out", str(out_dir)) == 0
        index = (out_dir / "index.csv").read_text().strip().split("\n")
        assert index == ["station,file", "S03,S03.csv", "S01,S01.csv"]
        manifest = (out_dir / "run.txt").read_text().split("\n")
        assert [ln.split(" = ")[0] for ln in manifest if ln.startswith("sha256.")] == [
            "sha256.S03.csv", "sha256.S01.csv", "sha256.index.csv"]

    def test_unknown_station_exit_2(self, wide_bank, tmp_path):
        root, data, bank = wide_bank
        assert run("plot", "--model", str(bank), "--data", str(data),
                   "--stations", "NOPE", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("sid", ["../esc/evil", "/abs/evil", "esc\\evil", ".", "..", "index"])
    def test_station_id_that_leaves_out_exit_2(self, tiny_data, tmp_path, capsys, sid):
        # every command matches CSV columns to the bank by position, so a
        # renamed header column still fits the tiny bank; a station named
        # index would be overwritten by the index.csv listing
        _, data, _, bank = tiny_data
        header, rest = data.read_text().split("\n", 1)
        ids = header.split(",")
        ids[2] = sid
        evil = tmp_path / "evil.csv"
        evil.write_text(",".join(ids) + "\n" + rest)
        work = tmp_path / "work"
        work.mkdir()
        assert run("plot", "--model", str(bank), "--data", str(evil),
                   "--stations", "all", "--out", str(work / "plotout")) == 2
        assert f"station id {sid!r} cannot name a file" in capsys.readouterr().err
        assert run("evaluate", "--model", str(bank), "--data", str(evil),
                   "--report", str(work / "r.csv")) == 2
        assert f"station id {sid!r} cannot name a file" in capsys.readouterr().err
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["evil.csv", "work"]

    @pytest.mark.parametrize("stations", [",", "", " , ,"])
    def test_no_station_ids_exit_1(self, wide_bank, tmp_path, capsys, stations):
        root, data, bank = wide_bank
        assert run("plot", "--model", str(bank), "--data", str(data),
                   "--stations", stations, "--out", str(tmp_path / "x")) == 1
        assert "lists no station ids" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestSplitRule:
    def test_train_val_match_fraction_split(self):
        # the CLI cuts at fraction_cuts' rows, and refuses exactly when the
        # fractions sum past 1 or a cut leaves the train or validation range empty
        fracs = [0.05, 0.1, 0.15, 0.3, 1 / 3, 0.45, 0.5, 0.6, 0.7, 0.85, 0.9]
        full = synth_generate(2, 400, seed=3)
        compared = 0
        for T in (2, 3, 7, 10, 19, 40, 101, 400):
            panel = full.slice_rows(0, T)
            for train_frac in fracs:
                for val_frac in fracs:
                    fracs_given = {"train_frac": train_frac, "val_frac": val_frac}
                    if train_frac + val_frac > 1:
                        with pytest.raises(UsageError, match="sum to at most 1"):
                            RunConfig.build(None, fracs_given)
                        continue
                    cfg = RunConfig.build(None, fracs_given)
                    a, b = fraction_cuts(T, train_frac, val_frac)
                    if not 0 < a < b:
                        with pytest.raises(DataError):
                            _cuts(panel, cfg)
                    else:
                        assert _cuts(panel, cfg) == (a, b)
                        compared += 1
        assert compared > 300
