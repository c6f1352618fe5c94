"""Benchmark of the dlstf package: train and baseline workloads.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload train --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --workload baseline --seed 1 --seconds 5 --trace 0 --quick

The inputs come from --seed alone. With --trace 0 the workload is timed with
tracing off and the end-to-end metrics are reported; with --trace 1 a fixed
unit of work runs alternately untraced and traced, and the per-layer metrics
of the traced runs are reported. --quick runs every phase and every check
once at tiny sizes, with no timing of interest.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print every metric with
its unit. The full record (provenance, input sizes, timing samples, checks,
per-layer table and, for train, the arithmetic record) is written to
.bench_out/<workload>-seed<N>-trace<T>.json, the spans of a traced run to
the matching .spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# share of each timed round given to each phase
MAIN_SHARE, INGEST_SHARE, REQUEST_SHARE = 0.6, 0.2, 0.2
# setup is repeated at the start of rounds while it has taken less than this
# share of the run, and at least SETUP_MIN_REPEATS times
SETUP_SHARE, SETUP_MIN_REPEATS = 0.1, 5
# requests in one traced unit of work
TRACED_REQUESTS = 200
QUICK_REQUESTS = 10
# request outputs kept and compared with the reference
CHECKED = 24
MAX_ERRORS_KEPT = 20
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy loads. Returns the core count.

    On a shared 2-core machine a second BLAS thread makes each call wait for
    a free core: with the other core busy, the 50k-element dot product in
    clip_global_norm took 24 ms on two threads and 27 us on one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


class Tally:
    """Attempted and failed operations; an exception or a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: list[dict] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(what)

    def run(self, what: str, fn, *args):
        """Call fn(*args); returns (seconds, result), or (None, None) if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any failure of the program under test is counted
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        return perf_counter() - start, result

    def run_checks(self, checks) -> None:
        try:
            for name, passed, detail in checks:
                self.attempted += 1
                self.checks.append({"name": name, "passed": bool(passed), "detail": detail})
                if not passed:
                    self._fail(f"check {name} failed {detail}")
        except Exception as exc:
            self.attempted += 1
            self._fail(f"checks: {type(exc).__name__}: {exc}")


def timed_run(wl, args, tally: Tally, record: dict, setup_again) -> tuple[dict, list]:
    """Time the workload with tracing off, in rounds that interleave its phases.

    Each round repeats the setup while setup has used less than SETUP_SHARE
    of the run, runs the main operation once, then ingests and requests for
    times in proportion to it (MAIN_SHARE : INGEST_SHARE : REQUEST_SHARE).
    Rounds repeat until --seconds have passed, so every phase samples the
    whole run. The first round warms up and is not counted. Every timing
    is the p90 of its repetitions in the run (see `p90`).
    """
    begin = perf_counter()
    rounds: list[dict] = []
    outputs: list = []
    items = rows = 0
    starts: list[int] | None = None
    while True:
        while not args.quick and (len(record["setup_s"]) < SETUP_MIN_REPEATS or sum(
                record["setup_s"]) < SETUP_SHARE * (perf_counter() - begin)):
            record["setup_s"].append(setup_again())
        rnd = {"main_s": None, "ingest_s": [], "latency_ms": []}
        dt, n = tally.run("main", wl.main_op)
        if dt is not None:
            rnd["main_s"], items = dt, n
        if not rounds:
            tally.run("after_main", wl.after_main)
        pace = dt if dt is not None else 1.0
        phase_end = perf_counter() + pace * INGEST_SHARE / MAIN_SHARE
        while True:
            dt, n = tally.run("ingest", wl.ingest_op)
            if dt is not None:
                rnd["ingest_s"].append(dt)
                rows = n
            if args.quick or perf_counter() >= phase_end:
                break
        if starts is None:
            _, starts = tally.run("prepare_requests", wl.prepare_requests)
            starts = itertools.cycle(starts or [])
        phase_end = perf_counter() + pace * REQUEST_SHARE / MAIN_SHARE
        for b in starts:
            dt, out = tally.run("request", wl.request, b)
            if dt is not None:
                rnd["latency_ms"].append(1e3 * dt)
                if len(outputs) < CHECKED:
                    outputs.append((b, out))
            if (len(rnd["latency_ms"]) >= QUICK_REQUESTS if args.quick
                    else perf_counter() >= phase_end):
                break
        rounds.append(rnd)
        if args.quick or (len(rounds) > 1 and perf_counter() - begin >= args.seconds):
            break

    counted = rounds if args.quick else rounds[1:]
    main_s = [r["main_s"] for r in counted if r["main_s"] is not None]
    ingest_s = [t for r in counted for t in r["ingest_s"]]
    latency = [t for r in counted for t in r["latency_ms"]]
    if not (main_s and ingest_s and latency):
        raise RuntimeError("a phase produced no successful measurement: "
                           + "; ".join(tally.errors[:3]))
    p99 = statistics.quantiles(latency, n=100)[98] if len(latency) > 1 else latency[0]
    record["samples"] = {
        "rounds": len(rounds), "main_s": main_s, "work_items": items, "ingest_s": ingest_s,
        "ingest_rows": rows, "requests": len(latency),
        # recorded, not reported: the median moves with the share of the run
        # the machine was busy, and p99 with the other tenants' bursts
        "latency_p50_ms": statistics.median(latency), "latency_mean_ms": statistics.mean(latency),
        "latency_p99_ms": p99, "latency_beyond_p99": sum(v > p99 for v in latency)}
    metrics = {
        "throughput_per_s": items / p90(main_s),
        "test_mae_ms": wl.report_mae,
        "ingest_rows_per_s": rows / p90(ingest_s),
        "forecast_p90_ms": p90(latency),
    }
    return metrics, outputs


def p90(values: list[float]) -> float:
    """The time within which nine in ten repetitions finished.

    On a shared machine the speed switches between a quiet and a busy level
    as other tenants come and go, and the share of a run spent at each level
    changes from run to run over minutes. The median and the mean follow
    that share; the p90 sits at the busy level in every run that was busy
    for a tenth of its time. On a shared 2-core x86_64 VM, over six sets of
    5 to 10 seeds, the spread of the main command's and the ingest's time
    was 0.07 to 0.11 of their median on average with p90, 0.12 to 0.15 with
    the mean, 0.15 to 0.18 with the median and up to 0.25 with the fastest
    repetition.
    """
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 \
        else values[0]


def traced_run(wl, args, tally: Tally, record: dict) -> tuple[dict, list]:
    """Alternate untraced and traced runs of one fixed unit of work."""
    from spans import Tracer, layer_metrics, write_spans

    begin = perf_counter()
    # warm-up, which also leaves the files and panel that requests need
    tally.run("main", wl.main_op)
    tally.run("ingest", wl.ingest_op)
    _, starts = tally.run("prepare_requests", wl.prepare_requests)
    starts = (starts or [])[:QUICK_REQUESTS if args.quick else TRACED_REQUESTS]
    outputs: list = []

    def unit():
        tally.run("main", wl.main_op)
        tally.run("after_main", wl.after_main)
        tally.run("ingest", wl.ingest_op)
        for b in starts:
            _, out = tally.run("request", wl.request, b)
            if out is not None and len(outputs) < CHECKED:
                outputs.append((b, out))

    tracer = Tracer()
    plain_s: list[float] = []
    traced_s: list[float] = []
    per_unit: list[dict] = []
    all_spans: list = []
    while True:
        start = perf_counter()
        unit()
        plain_s.append(perf_counter() - start)
        tracer.reset()
        restore = tracer.patch()
        try:
            start = perf_counter()
            unit()
            traced_s.append(perf_counter() - start)
        finally:
            restore()
        per_unit.append(layer_metrics(tracer.spans, tracer.counters, traced_s[-1]))
        all_spans.append(tracer.spans)
        if args.quick or perf_counter() - begin >= args.seconds:
            break

    metrics = {}
    for name in per_unit[0]:
        values = [u[name] for u in per_unit]
        # counts stay whole numbers; they repeat exactly from unit to unit
        metrics[name] = (statistics.median_low(values) if all(isinstance(v, int) for v in values)
                         else statistics.median(values))
    # the p90 unit of each kind, as for the timed run's operations
    metrics["trace.overhead_frac"] = p90(traced_s) / p90(plain_s) - 1
    record["absent_functions"] = tracer.absent
    record["samples"] = {"untraced_unit_s": plain_s, "traced_unit_s": traced_s,
                         "requests_per_unit": len(starts)}
    spans_path = OUT_DIR / f"{stem(args)}.spans.jsonl"
    write_spans(spans_path, all_spans)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, outputs


def print_layer_table(metrics: dict, wall_s: float) -> None:
    """Calls, self time and share of the traced unit's wall time per function and module."""
    from spans import TARGETS, span_name

    print(f"traced unit of work: {wall_s:.4f} s (median)")
    print(f"{'function':36s} {'calls':>8s} {'self_s':>12s} {'share':>8s}")
    for module, targets in TARGETS.items():
        for target in targets:
            name = span_name(module, target)
            self_s = metrics[f"{name}.self_s"]
            print(f"{name:36s} {metrics[f'{name}.calls']:>8d} {self_s:>12.6f} "
                  f"{self_s / wall_s:>8.2%}")
        print(f"{module + ' (all)':36s} {'':>8s} {'':>12s} {metrics[f'{module}.self_frac']:>8.2%}")


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")


def provenance(args, nproc: int) -> dict:
    import numpy as np

    git = {"sha": "unavailable (not a git checkout)", "dirty": None}
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=60, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=60,
                                    check=True).stdout
            git = {"sha": sha, "dirty": bool(status.strip())}
        except (OSError, subprocess.SubprocessError) as exc:
            git = {"sha": f"unavailable ({exc})", "dirty": None}
    digest = hashlib.sha256()
    for path in sorted((SRC / "dlstf").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"git_sha": git["sha"], "git_dirty": git["dirty"],
            "src_sha256": digest.hexdigest(), "numpy": np.__version__, "blas": blas_name,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": nproc,
            "python": platform.python_version(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "baseline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, one pass of every phase and check")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not (SRC / "dlstf" / "__init__.py").is_file():
        print(f"bench: no dlstf package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dlstf
    if Path(dlstf.__file__).resolve().parent != SRC / "dlstf":
        print(f"bench: imported dlstf from {dlstf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from spans import capture
    from spec import ALIASES, END_TO_END, per_layer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    record: dict = {"provenance": provenance(args, nproc)}
    wl = WORKLOADS[args.workload](args.seed, args.quick)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    tally = Tally()
    undo_capture = capture("training", "train_model", wl.on_train_model)

    def setup_again() -> float:
        """Repeat the setup in a scratch directory; returns its duration."""
        again = work / "again"
        again.mkdir(exist_ok=True)
        shadow = WORKLOADS[args.workload](args.seed, args.quick)
        start = perf_counter()
        shadow.setup(again)
        return perf_counter() - start

    try:
        start = perf_counter()
        record["inputs"] = wl.setup(work)
        record["setup_s"] = [perf_counter() - start]
        if args.trace:
            metrics, outputs = traced_run(wl, args, tally, record)
        else:
            metrics, outputs = timed_run(wl, args, tally, record, setup_again)
        tally.run_checks(wl.checks(outputs))
    finally:
        undo_capture()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        specs = per_layer()
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = p90(record["setup_s"])
        specs = [(n, u, b) for n, u, b, _ in END_TO_END]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u, _ in specs}}
    record.update(checks=tally.checks, errors=tally.errors, result=result,
                  arithmetic=wl.record)
    out_path = OUT_DIR / f"{stem(args)}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    if args.trace:
        print_layer_table(metrics, statistics.median(record["samples"]["traced_unit_s"]))
    for n, u, _ in specs:
        if not n.endswith((".calls", ".self_s")):
            alias = ALIASES.get(n, {}).get(args.workload)
            print(f"{n:42s} {metrics[n]:>14.6g} {u:8s}" + (f"  {alias}" if alias else ""))
    for err in tally.errors:
        print(f"FAILED {err}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
