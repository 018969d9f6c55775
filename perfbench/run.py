"""bohrlab benchmark: CLI calls made in-process and checked against closed forms.

    python3 perfbench/run.py --workload certify --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; bohrlab is imported from its
``src`` directory and from nowhere else.  Every call goes through
``bohrlab.cli.main`` in this process with stdout captured.  A round is
the workload's fixed list of calls; rounds repeat closed-loop until
``--seconds`` have passed.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` pairs each untraced round with a traced one and reports the
per-layer metrics.  Calls of the millisecond commands and set-up are
timed at a reference machine speed (README, "Machine speed").
``--workload all`` runs every workload in a fresh process and prints one
table.  The last stdout line is one JSON object:
correct, attempted, failed and metrics.  Records and spans are written
to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
from workloads import COLD, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = (5, 60)
SETUP_BUDGET_S = 4.0
# Millisecond commands are timed against the interpreter-speed kernel run
# right before and after each call (see README, "Machine speed").
SCALED_COMMANDS = ("verify", "scalar", "witness")
REFERENCE_KERNEL_S = 0.0025
DEFAULT_SEED = 7

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
EIG_BUCKETS = (("n4", 4), ("n8", 8), ("n16", 16), ("n32", None))
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_bohrlab():
    """Import bohrlab afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "bohrlab" or m.startswith("bohrlab.")]:
        del sys.modules[name]
    mods = {short: importlib.import_module(f"bohrlab.{short}") for short in tracing.MODULES}
    return types.SimpleNamespace(**mods, modules=mods)


_KERNEL_INPUT = (np.arange(36).reshape(6, 6) % 7 - 3.0) * (1.0 + 0.5j)


def kernel_seconds() -> float:
    """Time of a fixed loop of unitary column rotations on a 6x6 complex
    matrix: Python-driven small numpy operations, the kind of work that
    dominates the millisecond commands.  No bohrlab code runs in it."""
    a = _KERNEL_INPUT.copy()
    t0 = perf_counter()
    for i in range(300):
        p, q = i % 6, (i + 1) % 6
        cp, cq = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.6 * cp - 0.8j * cq
        a[:, q] = -0.8j * cp + 0.6 * cq
    return perf_counter() - t0


def at_reference_speed(timed):
    """Run timed() -> (seconds, ...) between two kernel timings; returns
    (timed()'s result, its seconds scaled to reference speed, kernel seconds)."""
    before = kernel_seconds()
    result = timed()
    after = kernel_seconds()
    return result, result[0] * 2.0 * REFERENCE_KERNEL_S / (before + after), before + after


class ReferenceClock:
    """Times a stretch of work at reference speed, lap by lap.

    Each lap() runs the kernel and scales the time since the previous lap
    by the mean of the kernel times at its two ends; kernel time is not
    counted.  Set-up laps after every input it writes, because the
    machine's speed can change within a second.
    """

    def __init__(self):
        self.raw = self.scaled = 0.0
        self._kernel = kernel_seconds()
        self._last = perf_counter()

    def lap(self) -> None:
        elapsed = perf_counter() - self._last
        kernel = kernel_seconds()
        self.raw += elapsed
        self.scaled += elapsed * 2.0 * REFERENCE_KERNEL_S / (self._kernel + kernel)
        self._kernel = kernel
        self._last = perf_counter()


def execute(bl, call):
    """Run one CLI call in-process.

    Returns (seconds in cli.main, error or None, seconds of the benchmark's
    own work around the call: output capture and the oracle check).
    """
    start = perf_counter()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = bl.cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a call that raises is a failed call, not a benchmark crash
            error = f"raised {exc!r}"
        t1 = perf_counter()
    if error is None:
        try:
            error = call.check(code, out.getvalue())
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            error = f"unreadable output ({exc!r}): {out.getvalue()[:200]!r} {err.getvalue()[:200]!r}"
    return t1 - t0, error, perf_counter() - start - (t1 - t0)


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool, workdir: Path):
        self.workload, self.seed, self.tiny, self.workdir = workload, seed, tiny, workdir
        self.calls = []  # (argv, seconds, raw seconds, error, info) for every measured call
        self.driver_s = 0.0  # the benchmark's own timed work in rounds: checks and kernels

    def cold(self) -> list[float]:
        """The workload's cold calls, made after set-up and before any round,
        timed raw."""
        times = []
        for call in COLD.get(self.workload, lambda seed, tiny: [])(self.seed, self.tiny):
            seconds, error, _ = execute(self.bl, call)
            # kept out of the round figures: t = 0 marks a call timed elsewhere
            self.calls.append((call.argv, 0.0, 0.0, error and f"cold: {error}", call.info))
            times.append(seconds)
        return times

    def setup(self, repeats: tuple[int, int]) -> list[float]:
        """Import, input generation and one untimed warm-up, timed at
        reference speed.

        Repeats at least repeats[0] times, and up to repeats[1] times
        while the set-ups so far took under SETUP_BUDGET_S.
        """
        raw, times = [], []
        low, high = repeats
        while len(times) < low or (len(times) < high and sum(raw) < SETUP_BUDGET_S):
            clock = ReferenceClock()
            self.bl = load_bohrlab()
            clock.lap()
            self.plan = WORKLOADS[self.workload](self.seed, str(self.workdir), self.bl, self.tiny, clock.lap)
            for call in self.plan.warmup:
                _, error, _ = execute(self.bl, call)
                clock.lap()
                if error is not None:
                    self.calls.append((call.argv, 0.0, 0.0, f"warm-up: {error}", call.info))
            raw.append(clock.raw)
            times.append(clock.scaled)
        return times

    def round(self, k: int) -> tuple[float, float]:
        """One pass over the round's calls; returns its summed call time,
        raw and with millisecond commands at reference speed."""
        raw_total = total = 0.0
        for call in self.plan.round(k):
            if call.argv[0] in SCALED_COMMANDS:
                (raw, error, own), seconds, kernels = at_reference_speed(lambda: execute(self.bl, call))
                own += kernels
            else:
                raw, error, own = execute(self.bl, call)
                seconds = raw
            self.calls.append((call.argv, seconds, raw, error, call.info))
            self.driver_s += own
            raw_total += raw
            total += seconds
        return raw_total, total


def tail(times_ms: list[float]):
    """Highest ladder percentile with at least ten samples beyond it."""
    xs = sorted(times_ms)
    for p in TAIL_LADDER:
        if len(xs) * (1.0 - p / 100.0) >= 10.0:
            rank = min(len(xs) - 1, int(np.ceil(p / 100.0 * len(xs))) - 1)
            return {"value_ms": xs[rank], "percentile": p, "samples": len(xs)}
    return None


def layer_metrics(traced_rounds, cold: list[float]) -> dict:
    """Per-layer metrics: counts and times are means per traced round."""
    acc = {name: 0.0 for name in PER_LAYER}
    eig_sum = {b: 0.0 for b, _ in EIG_BUCKETS}
    eig_n = {b: 0 for b, _ in EIG_BUCKETS}
    gaps, search_wall = [], 0.0
    for t0, t1, spans, round_gaps, driver in traced_rounds:
        gaps += round_gaps
        own, incl, parent = tracing.self_times(spans)
        for i, rec in enumerate(spans):
            name = rec[tracing.NAME]
            layer = name.split(".", 1)[0]
            pname = spans[parent[i]][tracing.NAME] if parent[i] >= 0 else ""
            top = not pname.startswith(layer + ".")  # entered from another layer
            if layer in ("cli", "hypotheses"):
                acc[f"{layer}.self_ms"] += own[i] * 1e3
            if name == "cli.main":
                acc["cli.calls"] += 1
            elif name == "cli.load_instance":
                acc["cli.doc_load_ms"] += incl[i] * 1e3
                acc["cli.doc_bytes"] += rec[tracing.ATTR]
            elif layer == "hypotheses" and top:
                acc["hypotheses.calls"] += 1
            elif name in ("linalg.hermitian_eigenvalues", "linalg.hermitian_eigensystem"):
                acc["linalg.eig_calls"] += 1
                bucket = next(b for b, hi in EIG_BUCKETS if hi is None or rec[tracing.ATTR] <= hi)
                eig_sum[bucket] += incl[i]
                eig_n[bucket] += 1
            elif name == "linalg.svd":
                acc["linalg.svd_calls"] += 1
                acc["linalg.svd_ms"] += incl[i] * 1e3
            elif name == "linalg.as_complex_matrix":
                acc["linalg.validate_ms"] += incl[i] * 1e3
                acc["linalg.validate_bytes"] += rec[tracing.ATTR]
            elif layer == "witnesses" and top:
                acc["witnesses.build_calls"] += 1
                acc["witnesses.build_ms"] += incl[i] * 1e3
                acc["witnesses.bytes"] += rec[tracing.ATTR]
            elif name == "series.alpha_series":
                acc["series.alpha_ms"] += incl[i] * 1e3
            elif name == "series.critical_radius":
                acc["series.radius_calls"] += 1
                acc["series.radius_ms"] += incl[i] * 1e3
            elif name == "series.bohr_sum" and pname == "series.critical_radius":
                acc["series.sum_per_radius"] += 1
            elif name == "scalar.scalar_bohr_sum":
                acc["scalar.sum_calls"] += 1
            elif name == "scalar.sup_norm_estimate":
                acc["scalar.sup_norm_ms"] += incl[i] * 1e3
            elif name == "search.objective":
                acc["search.evals"] += 1
                acc["search.objective_us"] += incl[i] * 1e6
            elif name == "search.restart":
                acc["search.nm_self_ms"] += own[i] * 1e3
            elif name == "search.materialize":
                acc["search.materialize_ms"] += incl[i] * 1e3
            elif name == "search.search":
                search_wall += rec[tracing.END] - rec[tracing.START]
        acc["trace.bench_ms"] += driver * 1e3
        acc["trace.accounted_share"] += (sum(own) + driver) / (t1 - t0)
    n = len(traced_rounds)
    out = {name: value / n for name, value in acc.items()}
    # ratios over the whole traced run, not per round
    evals = acc["search.evals"]
    out["search.objective_us"] = acc["search.objective_us"] / evals if evals else 0.0
    out["search.evals_per_s"] = evals / search_wall if search_wall else 0.0
    radius = acc["series.radius_calls"]
    out["series.sum_per_radius"] = acc["series.sum_per_radius"] / radius if radius else 0.0
    for b, _ in EIG_BUCKETS:
        out[f"linalg.eig_us.{b}"] = eig_sum[b] / eig_n[b] * 1e6 if eig_n[b] else 0.0
    out["search.gap"] = max(gaps) if gaps else 0.0
    out["trace.wall_s"] = statistics.median(t1 - t0 for t0, t1, *_ in traced_rounds)
    out["cold.table_s"] = sum(cold)
    return out


def measure(runner: Runner, seconds: float, trace: bool):
    """Closed-loop rounds until `seconds` pass.

    A traced run follows each untraced round with the same round traced,
    so the pair gives the tracing overhead on identical inputs.
    """
    rounds, raw_rounds, traced, overhead = [], [], [], []
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        raw, scaled = runner.round(k)
        rounds.append(scaled)
        raw_rounds.append(raw)
        if trace:
            first, driver = len(runner.calls), runner.driver_s
            tracer = tracing.Tracer()
            tracer.install(runner.bl.modules)
            t0 = perf_counter()
            try:
                traced_raw, _ = runner.round(k)
            finally:
                t1 = perf_counter()
                tracer.uninstall()
            gaps = [info["gap"] for *_, info in runner.calls[first:] if "gap" in info]
            traced.append((t0, t1, tracer.spans, gaps, runner.driver_s - driver))
            overhead.append(100.0 * (traced_raw / raw - 1.0))
        k += 1
    return rounds, raw_rounds, traced, overhead


def machine_record(workload: str, seed: int, seconds: int, trace: int, calls_per_round: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "search_threads": os.cpu_count() or 1,  # the CLI's default --threads
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "calls_per_round": calls_per_round,
    }


def run_one(args) -> int:
    if not (SRC / "bohrlab" / "__init__.py").is_file():
        print(f"error: no bohrlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, args.size == "tiny", workdir)
        setup = runner.setup((1, 1) if args.trace else SETUP_REPEATS)
        cold = runner.cold()
        rounds, raw_rounds, traced, overhead = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = runner.calls
    failures = [(argv, error) for argv, _, _, error, _ in calls if error is not None]
    gaps = [info["gap"] for *_, info in calls if "gap" in info]
    timed = [(t, raw) for _, t, raw, _, _ in calls if t > 0.0]  # cold calls and warm-up failures carry t = 0
    times_ms = [t * 1e3 for t, _ in timed]
    raw_p50_ms = statistics.median(raw for _, raw in timed) * 1e3
    if args.trace:
        metrics = layer_metrics(traced, cold)
        metrics["trace.overhead_pct"] = statistics.median(overhead)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(rounds),
            "op_p50_ms": statistics.median(times_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    calls_per_round = len(timed) // max(1, len(rounds) + len(traced))
    record = {
        "record": machine_record(args.workload, args.seed, args.seconds, args.trace, calls_per_round),
        "result": result,
        "rounds": len(rounds),
        "round_s": rounds,
        "round_raw_s": raw_rounds,
        "op_p50_raw_ms": raw_p50_ms,
        "setup_s": setup,
        "cold_s": cold,
        "error_rate": len(failures) / max(1, len(calls)),
        "op_tail_ms": None if args.trace else tail(times_ms),
        "search_gap": max(gaps) if gaps else None,
        "failures": [[" ".join(argv), error] for argv, error in failures[:20]],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with gzip.open(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump([{"t0": t0, "t1": t1, "spans": tracing.table(spans)} for t0, t1, spans, *_ in traced], fh)

    for argv, error in failures[:5]:
        print(f"FAILED {' '.join(argv)}: {error}")
    print(f"{args.workload}: {len(calls)} calls in {len(rounds)} rounds, {len(failures)} failed,"
          f" error_rate={record['error_rate']:.3g}, search_gap={record['search_gap']},"
          f" op_tail={record['op_tail_ms']}, op_p50_raw_ms={raw_p50_ms:.6g}"
          + (f", cold_s={cold}" if cold else ""))
    for name, entry in result["metrics"].items():
        print(f"  {name:<24} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is its own), one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':<24}" + "".join(f"{w:>16}" for w in results) + "  unit")
    for metric, unit in units.items():
        print(f"{metric:<24}" + "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values()) + f"  {unit}")
    print(f"{'error_rate':<24}" + "".join(f"{r['failed'] / r['attempted']:>16.3g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cheap calls, for the self-test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
