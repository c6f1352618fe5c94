"""Run-to-run spread of the end-to-end metrics over several workload seeds.

    python3 bench/spread.py --workloads train baseline --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one process at a time, with
tracing off and BENCHMARK.json's run_seconds. For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to a third of the metric's bound, the level a
steady benchmark stays under. --out writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=["train", "baseline"])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])

    summary: dict = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                                   "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            rows[metric["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                    "spread": spread, "bound": metric["bound"],
                                    "unit": metric["unit"], "values": values}
            flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
            if metric["name"] != "setup_s" and flag:
                steady = False
            print(f"  {metric['name']:20s} median {statistics.median(values):12.6g} "
                  f"{metric['unit']:5s} spread {spread:7.4f} (bound/3 "
                  f"{metric['bound'] / 3:.4f}){flag}", flush=True)
        first = json.loads((ROOT / ".bench_out" / f"{workload}-seed{args.seeds[0]}-trace0.json")
                           .read_text())["provenance"]
        summary[workload] = {"provenance": first, "seeds": args.seeds, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
