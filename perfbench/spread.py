"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads certify sweep] [--baseline]

Runs ``run.py`` once per workload and seed, one process at a time, and
prints for every end-to-end metric its median and the distance between
the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  ``--baseline`` also makes one traced run per workload at
the default seed and writes medians, quartiles, error rate, search gap,
per-layer metrics and the run record to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS


def one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    baseline = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        failed = attempted = 0
        gaps = []
        for seed in seed_range(args.seeds):
            result, record = one(workload, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            if record["search_gap"] is not None:
                gaps.append(record["search_gap"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:<13} {name:<12} median {median:<12.6g} spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}{'  OVER' if spread > bounds[name] / 3 else ''}", flush=True)
        print(f"{workload:<13} failed {failed} of {attempted}"
              + (f", search_gap median {statistics.median(gaps):.3g}" if gaps else ""), flush=True)
        entry = {"end_to_end": summary, "error_rate": failed / attempted}
        if gaps:
            entry["search_gap"] = {"median": statistics.median(gaps), "max": max(gaps)}
        if args.baseline:
            traced, record = one(workload, run.DEFAULT_SEED, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["record"] = record["record"]
        baseline["workloads"][workload] = entry
    if args.baseline:
        (run.ROOT / "perfbench" / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
