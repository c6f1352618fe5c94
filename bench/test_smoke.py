"""Smoke tests of the benchmark; no timing is asserted.

Every workload runs in quick mode, traced and untraced, under two workload
seeds, and must pass every correctness check. Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import spec  # noqa: E402
from dlstf import bank as dlstf_bank  # noqa: E402
from dlstf import HorizonConfig, ModelBank, Normalizer, init_params  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("seed", ["1", "29"])
@pytest.mark.parametrize("workload", ["train", "baseline"])
def test_quick_mode_passes_every_check(workload, seed, trace):
    proc = run_bench("--workload", workload, "--seed", seed, "--seconds", "1",
                     "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    expected = spec.per_layer() if trace == "1" else spec.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == \
        [(e[0], e[1]) for e in expected]


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def small_bank():
    cfg = HorizonConfig.default(n=3, h=4, ell=5, first_widths=(4,), later_widths=(5, 3))
    models = [init_params(list(w), 3, 10 + i) for i, w in enumerate(cfg.widths)]
    nz = Normalizer(("a", "b", "c"), np.zeros(3), np.full(3, 10.0))
    values = np.random.default_rng(3).uniform(0.0, 10.0, size=(40, 3))
    return ModelBank(config=cfg, models=models, normalizer=nz), values


def _program_blocks(model_bank, values, starts):
    return np.stack([model_bank.predict_block(values[:b]) for b in starts])


def test_reference_tolerates_rounding_but_not_a_wrong_offset_rule(small_bank, monkeypatch):
    model_bank, values = small_bank
    starts = [5, 11, 20, 34]
    expected = ref.bank_blocks(model_bank, values, starts)
    got = _program_blocks(model_bank, values, starts)
    assert ref.close(got, expected)
    assert ref.close(got * (1.0 + 4 * np.finfo(float).eps), expected)

    orig = dlstf_bank.assemble_input

    def one_step_stale(real, forecasts, t, cfg):
        # feeds the forecast made two steps back instead of one
        shifted = {p + 1: v for p, v in forecasts.items()}
        return orig(real, {**forecasts, **shifted} if forecasts else forecasts, t, cfg)

    monkeypatch.setattr(dlstf_bank, "assemble_input", one_step_stale)
    assert not ref.close(_program_blocks(model_bank, values, starts), expected)
