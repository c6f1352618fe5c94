"""The benchmark's metric definitions; `python3 bench/spec.py` prints BENCHMARK.json.

Every workload reports every end-to-end metric. The workload decides what a
work item, a block forecast and an error report are (see `ALIASES`), so a
metric compares like with like across two commits on one workload.
"""

from __future__ import annotations

import json

from spans import SPAN_NAMES, TARGETS, WIDTH_KEYS

RUN_SECONDS = 55

WORKLOADS = (
    ("train", "cascade training of a default 6-offset bank then its evaluation: lstm forward/"
              "backward, training and the bank cascade do almost all the work"),
    ("baseline", "ingest plus persistence and AR(3) walks over a 12k-row gappy CSV: dataset and "
                 "evaluation do all the work and lstm none, so LSTM changes must not move it"),
)

# name, unit, better, bound. Timings vary most: the machine's speed changes
# by up to 2x over seconds to minutes as other tenants load it, and the
# bounds are set from the spread measured under that noise.
END_TO_END = (
    ("throughput_per_s", "1/s", "higher", 0.24),
    ("test_mae_ms", "m/s", "lower", 0.24),
    ("ingest_rows_per_s", "1/s", "higher", 0.24),
    ("forecast_p90_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# what each end-to-end metric measures on each workload, printed beside it
ALIASES = {
    "throughput_per_s": {"train": "train_samples_per_s", "baseline": "baseline_blocks_per_s"},
    "test_mae_ms": {"train": "test_mae_ms (trained bank, held-out range)",
                    "baseline": "test_mae_ms (mean of persistence and AR(3))"},
    "forecast_p90_ms": {"train": "forecast_block p90", "baseline": "persistence_forecast p90"},
}


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for name in ("lstm.net_forward", "lstm.net_backward"):
        out += [(f"{name}.us_per_call.{k}", "us", "lower") for k in WIDTH_KEYS]
        out.append((f"{name}.gflop_s", "GFLOP/s", "higher"))
    out += [(f"{m}.self_frac", "frac", "lower") for m in TARGETS]
    out += [
        ("bank.overlay_fill_s", "s", "lower"),
        ("training.clipped_frac", "frac", "lower"),
        ("dataset.samples_built", "count", "higher"),
        ("dataset.samples_skipped", "count", "lower"),
        ("dataset.gap_runs_filled", "count", "higher"),
        ("dataset.gap_runs_unfilled", "count", "lower"),
        ("evaluation.blocks_evaluated_frac", "frac", "higher"),
        ("trace.covered_frac", "frac", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
