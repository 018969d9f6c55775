"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, runs with no failed
call at the default seed; that every end-to-end metric is above zero on
every workload and every per-layer metric is non-zero on some workload
(so each name in BENCHMARK.json is computed); that the layer self times
plus the benchmark's own measured time account for the traced round
time; that injected faults raise the error rate above zero
(a critical radius shifted by 1e-6, a search objective shifted below the
proven optimum); and that a directory without the bohrlab sources makes
the benchmark exit non-zero.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from workloads import WORKLOADS


def tiny(workload: str, trace: int = 0) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seconds", "1", "--trace", str(trace), "--size", "tiny"])
    if code != 0:
        raise AssertionError(f"{workload}: exit {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def fault(patch):
    """Apply `patch` to every freshly imported bohrlab during setup."""
    original = run.load_bohrlab

    def faulty():
        bl = original()
        patch(bl)
        return bl

    run.load_bohrlab = faulty
    try:
        yield
    finally:
        run.load_bohrlab = original


def shift_radius(bl):
    radius = bl.cli.critical_radius
    bl.cli.critical_radius = lambda *a, **k: radius(*a, **k) + 1e-6


def undercut_objective(bl):
    objective = bl.search.objective
    bl.search.objective = lambda n, v: objective(n, v) - 0.05


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    layer_seen = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = tiny(workload, trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} calls failed")
            values = {name: entry["value"] for name, entry in result["metrics"].items()}
            if trace:
                layer_seen |= {name for name, value in values.items() if value != 0.0}
                if not 0.9 <= values["trace.accounted_share"] <= 1.0 + 1e-9:
                    problems.append(f"{workload}: layers and benchmark account for"
                                    f" {values['trace.accounted_share']:.3f} of the traced round")
            else:
                problems += [f"{workload}: {name} = {value}" for name, value in values.items() if not value > 0.0]
    problems += [f"per-layer metric {m['name']} is 0 on every workload"
                 for m in spec["per_layer"] if m["name"] not in layer_seen]

    for workload, patch in (("certify", shift_radius), ("sweep", shift_radius), ("search-small", undercut_objective)):
        with fault(patch):
            result = tiny(workload)
        if result["correct"] or not result["failed"]:
            problems.append(f"{workload}: the injected {patch.__name__} fault went unnoticed")

    saved = run.SRC
    run.SRC = run.OUT / "no-sources"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "certify", "--seconds", "1", "--size", "tiny"])
    finally:
        run.SRC = saved
    if code == 0:
        problems.append("the benchmark ran without bohrlab sources")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
