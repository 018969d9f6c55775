"""The four workloads: seeded inputs, CLI calls and independent oracles.

Every expected answer is computed here from the generating data with
plain numpy and closed forms, never by the bohrlab function under test:

- a materialized instance (P, M) has critical radius D/(D + |alpha|),
  D = Tr(P), alpha = Tr(A M*) with A = triu(-2P, 1);
- a finite-list sequence gives the polynomial alpha_0 + sum |alpha_m| r^m,
  evaluated directly and solved with ``numpy.roots``;
- ``remark_two_witness`` crosses at 1/(1 + 2 theta);
- the staircase family crosses at n/(3n - 2), the order-3 witness at
  sqrt(2) - 1, and the Moebius map (a - z)/(1 - az) holds iff
  r <= 1/(1 + 2a);
- the order-n search optimum is 1/(1 + 2 cos(pi/(n+1))) (Haagerup and
  de la Harpe, Proc. AMS 115 (1992)), so no search may return less.

A check returns an error string, or None when the call is right.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

EXIT_OK, EXIT_VIOLATED, EXIT_HYPOTHESES = 0, 2, 3
ORACLE_TOL = 1e-9
SEARCH_SLACK = 1e-12  # r_star may sit this far below the proven optimum
GAP_FLOOR = 1e-9


@dataclass
class Call:
    argv: list[str]
    check: object  # (exit code, stdout) -> error string or None
    info: dict = field(default_factory=dict)  # filled by the check (search gap)


# A plan builder (seed, workdir, bohrlab modules, tiny, lap) -> Plan calls lap()
# after each input it writes, so set-up is timed piece by piece.


@dataclass
class Plan:
    warmup: list[Call]
    round: object  # round index -> list[Call]


def search_optimum(n: int) -> float:
    return 1.0 / (1.0 + 2.0 * math.cos(math.pi / (n + 1)))


def _close(got, want, tol=ORACLE_TOL) -> bool:
    return got is not None and abs(got - want) <= tol * max(1.0, abs(want))


def _lit(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _unlit(node) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in node])


def _round_rng(seed: int, k: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, k])


# ---------------------------------------------------------------- search


def _search_call(workdir: str, n: int, restarts: int, max_iters: int | None, seed: int, tag: str):
    out = os.path.join(workdir, f"search-{tag}.json")
    argv = ["radius-search", "--n", str(n), "--restarts", str(restarts), "--seed", str(seed),
            "--format", "json", "--output", out]
    if max_iters is not None:
        argv += ["--max-iters", str(max_iters)]
    call = Call(argv, None)

    def check(code, stdout):
        if code != EXIT_OK:
            return f"exit {code}, expected 0"
        payload = json.loads(stdout)
        r_star = payload["r_star"]
        if len(payload["per_restart_best"]) != restarts or min(payload["per_restart_best"]) != r_star:
            return "per-restart values disagree with r_star"
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        a, s = _unlit(doc["A"]), _unlit(doc["S"])
        m = _unlit(doc["sequence"]["matrix"])
        d = float(np.trace(s).real - np.trace(a).real)
        r_doc = d / (d + abs(np.sum(a * m.conj())))
        if not _close(r_doc, r_star):
            return f"saved instance has radius {r_doc!r}, search reported {r_star!r}"
        gap = r_star - search_optimum(n)
        call.info["gap"] = max(gap, GAP_FLOOR)
        if gap < -SEARCH_SLACK:
            return f"r_star {r_star!r} lies below the proven optimum {search_optimum(n)!r}"
        return None

    call.check = check
    return call


def plan_search_n8(seed: int, workdir: str, bl, tiny: bool, lap) -> Plan:
    """One n=8 call per round, two restarts, every restart stops at max_iters."""
    max_iters = 300 if tiny else 30000

    def make(k):
        s = int(_round_rng(seed, k, 8).integers(1, 2**31))
        return [_search_call(workdir, 8, 2, max_iters, s, f"n8-{k}")]

    warm = _search_call(workdir, 8, 2, 50, seed, "n8-warm")
    return Plan([warm], make)


def plan_search_small(seed: int, workdir: str, bl, tiny: bool, lap) -> Plan:
    """Two n=2 calls (32 restarts) and one n=3 call (12 restarts) per round,
    default max_iters; the n=2 calls are the median call."""
    n2, n3 = (4, 4) if tiny else (32, 12)
    max_iters = 200 if tiny else None

    def make(k):
        s = _round_rng(seed, k, 23).integers(1, 2**31, size=3)
        return [
            _search_call(workdir, 2, n2, max_iters, int(s[0]), f"n2a-{k}"),
            _search_call(workdir, 3, n3, max_iters, int(s[1]), f"n3-{k}"),
            _search_call(workdir, 2, n2, max_iters, int(s[2]), f"n2b-{k}"),
        ]

    warm = _search_call(workdir, 2, 2, 50, seed, "small-warm")
    return Plan([warm], make)


# ---------------------------------------------------------------- certify


def _contraction(rng, n: int, norm: float) -> np.ndarray:
    m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return m * (norm / np.linalg.svd(m, compute_uv=False)[0])


def _gram(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


def _clear_radius(rng, r_crit: float) -> float:
    """A radius 5-40% away from r_crit, on a random side, inside (0, 0.99)."""
    delta = rng.uniform(0.05, 0.4)
    above = r_crit * (1.0 + delta)
    if rng.random() < 0.5 and above < 0.99:
        return above
    return r_crit * (1.0 - delta)


def _verify_call(path: str, r: float, *, exit_code: int, r_crit: float, lhs, failing: str | None):
    """verify --format json against expected exit code, radius and majorant sum."""

    def check(code, stdout):
        if code != exit_code:
            return f"exit {code}, expected {exit_code}"
        payload = json.loads(stdout)
        hyp = payload["hypotheses"]
        if failing is None and not hyp["overall"]:
            return "hypotheses fail on a valid instance"
        if failing is not None and [c["name"] for c in hyp["conditions"] if not c["pass"]] != [failing]:
            return f"expected exactly {failing} to fail"
        if not _close(payload["critical_radius"], r_crit):
            return f"critical radius {payload['critical_radius']!r}, oracle {r_crit!r}"
        got = payload["check"]
        if not _close(got["lhs"], lhs(r)):
            return f"majorant sum {got['lhs']!r} at r={r!r}, oracle {lhs(r)!r}"
        if got["holds"] != (r <= r_crit):
            return f"verdict {got['holds']} at r={r!r}, critical radius {r_crit!r}"
        return None

    return Call(["verify", path, "--r", repr(float(r)), "--format", "json"], check)


def _theorem_doc(rng, bl, n: int, path: str, fault: str | None = None):
    """Document from materialize(n, LL*, M); returns (radius, majorant) oracles.

    fault "norm" stores M with operator norm 1.25 instead; fault "gap"
    lowers S_11 below the gap's own diagonal entry, so S - Re(A) is not PSD.
    """
    p = _gram(rng, n)
    norm = 1.25 if fault == "norm" else rng.uniform(0.5, 1.0)
    m = _contraction(rng, n, norm)
    doc = bl.cli.instance_to_document(bl.search.materialize(n, p, m / max(1.0, norm)))
    s = p.diagonal().real.copy()
    if fault == "norm":
        doc["sequence"]["matrix"] = _lit(m)
    elif fault == "gap":
        s[0] -= 1.01 * s[0]
        doc["S"] = _lit(np.diag(s).astype(complex))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    d = float(s.sum())
    alpha = abs(np.sum(np.triu(-2.0 * p, 1) * m.conj()))
    return d / (d + alpha), lambda r: alpha * r / (1.0 - r)


def _list_doc(rng, n: int, path: str):
    """Theorem instance with alpha_0 > 0 and an explicit finite sequence."""
    p = _gram(rng, n)
    a0 = rng.uniform(0.0, 1.0, n)
    a = np.diag(a0) + np.triu(-2.0 * p, 1)
    s = np.diag(p.diagonal().real + a0)
    mats = [_contraction(rng, n, rng.uniform(0.3, 1.0)) for _ in range(int(rng.integers(1, 5)))]
    doc = {"n": n, "mode": "theorem", "A": _lit(a), "S": _lit(s.astype(complex)),
           "sequence": {"type": "list", "matrices": [_lit(m) for m in mats]}}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    budget = float(np.trace(s).real)
    coeffs = np.array([a0.sum()] + [abs(np.sum(a * m.conj())) for m in mats])
    poly = lambda r: float(np.polyval(coeffs[::-1], r))
    shifted = coeffs.copy()
    shifted[0] -= budget  # increasing on r >= 0 with one positive root
    roots = np.roots(shifted[::-1])
    r_crit = min(z.real for z in roots if z.real > 0.0 and abs(z.imag) <= 1e-9)
    for _ in range(3):  # polish on the polynomial itself
        r_crit -= (poly(r_crit) - budget) / float(np.polyval(np.polyder(coeffs[::-1]), r_crit))
    return min(r_crit, 1.0), poly


def _remark_doc(rng, bl, path: str):
    r_target = float(rng.uniform(0.34, 0.9))
    bl.cli.save_instance(bl.witnesses.remark_two_witness(r_target), path)
    theta = 0.5 * ((1.0 - r_target) / (2.0 * r_target) + 1.0)
    return r_target, 1.0 / (1.0 + 2.0 * theta), lambda r: 1.0 + 2.0 * theta * r / (1.0 - r)


def _log_spaced_orders(count: int, lo: int, hi: int) -> list[int]:
    """Orders spaced evenly in log between lo and hi, the same for every seed:
    set-up and round cost grow steeply with n, so seeds vary only the entries."""
    return [int(round(x)) for x in np.geomspace(lo, hi, count)]


def plan_certify(seed: int, workdir: str, bl, tiny: bool, lap) -> Plan:
    """verify on documents written here: 72 materialized theorem instances,
    13 finite lists, 8 relaxed remark witnesses, 4 failing a hypothesis."""
    rng = np.random.default_rng([seed, 5])
    n_theorem, n_list, n_remark, n_failing = (9, 2, 2, 2) if tiny else (72, 13, 8, 4)
    max_n = 24 if tiny else 32  # tiny still fills every eigen order bucket
    calls = []

    def path(i):
        return os.path.join(workdir, f"doc-{i:03d}.json")

    for n in _log_spaced_orders(n_theorem, 2, max_n):
        r_crit, lhs = _theorem_doc(rng, bl, n, path(len(calls)))
        r = _clear_radius(rng, r_crit)
        code = EXIT_OK if r <= r_crit else EXIT_VIOLATED
        calls.append(_verify_call(path(len(calls)), r, exit_code=code, r_crit=r_crit, lhs=lhs, failing=None))
        lap()
    for n in _log_spaced_orders(n_list, 2, max_n):
        r_crit, lhs = _list_doc(rng, n, path(len(calls)))
        r = _clear_radius(rng, r_crit) if r_crit < 1.0 else float(rng.uniform(0.1, 0.9))
        code = EXIT_OK if r <= r_crit else EXIT_VIOLATED
        calls.append(_verify_call(path(len(calls)), r, exit_code=code, r_crit=r_crit, lhs=lhs, failing=None))
        lap()
    for i in range(n_remark):
        r_target, r_crit, lhs = _remark_doc(rng, bl, path(len(calls)))
        r = r_target if i % 2 == 0 else r_crit * (1.0 - rng.uniform(0.05, 0.4))
        code = EXIT_VIOLATED if r > r_crit else EXIT_OK
        calls.append(_verify_call(path(len(calls)), r, exit_code=code, r_crit=r_crit, lhs=lhs, failing=None))
        lap()
    for i in range(n_failing):
        n = int(rng.integers(2, 9))
        fault, failing = (("norm", "sequence_norm"), ("gap", "gap_psd"))[i % 2]
        r_crit, lhs = _theorem_doc(rng, bl, n, path(len(calls)), fault)
        r = _clear_radius(rng, r_crit)
        calls.append(_verify_call(path(len(calls)), r, exit_code=EXIT_HYPOTHESES, r_crit=r_crit,
                                  lhs=lhs, failing=failing))
        lap()
    order = rng.permutation(len(calls))
    calls = [calls[i] for i in order]
    return Plan([calls[0]], lambda k: calls)


# ---------------------------------------------------------------- sweep


def _table_call(max_n: int) -> Call:
    def check(code, stdout):
        if code != EXIT_OK:
            return f"exit {code}, expected 0"
        lines = stdout.split()
        if lines[0] != "n,formula,bisection,abs_diff" or len(lines) != max_n:
            return "table has the wrong header or row count"
        for n, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            want = n / (3.0 * n - 2.0)
            if int(fields[0]) != n or not (_close(float(fields[1]), want) and _close(float(fields[2]), want)):
                return f"row {n}: {line}, oracle {want!r}"
        return None

    return Call(["table", "--max-n", str(max_n), "--format", "csv"], check)


def _scalar_call(a: float, r: float) -> Call:
    crossing = 1.0 / (1.0 + 2.0 * a)

    def check(code, stdout):
        holds = r <= crossing
        if code != (EXIT_OK if holds else EXIT_VIOLATED):
            return f"exit {code} at a={a!r} r={r!r}, crossing {crossing!r}"
        payload = json.loads(stdout)
        bohr = a + (1.0 - a * a) * r / (1.0 - a * r)
        if not _close(payload["bohr_sum"], bohr) or not _close(payload["sup_norm_estimate"], 1.0):
            return f"scalar payload {payload}, oracle sum {bohr!r}, sup norm 1"
        return None

    return Call(["scalar", "--moebius", repr(a), "--r", repr(r), "--format", "json"], check)


def _witness_call(argv: list[str], r_crit: float, extra: dict | None = None) -> Call:
    def check(code, stdout):
        if code != EXIT_OK:
            return f"exit {code}, expected 0"
        payload = json.loads(stdout)
        if not payload["hypotheses"]["overall"]:
            return "witness fails its own hypotheses"
        if not _close(payload["critical_radius"], r_crit):
            return f"critical radius {payload['critical_radius']!r}, oracle {r_crit!r}"
        for key, want in (extra or {}).items():
            if not _close(payload[key], want):
                return f"{key} = {payload[key]!r}, oracle {want!r}"
        return None

    return Call(["witness", *argv, "--format", "json"], check)


def _remark_witness(r_target: float) -> Call:
    theta = 0.5 * ((1.0 - r_target) / (2.0 * r_target) + 1.0)
    k = math.floor(theta / (2.0 * (1.0 - theta))) + 1
    return _witness_call(["--family", "remark-n2", "--r-target", repr(r_target)],
                         1.0 / (1.0 + 2.0 * theta), {"theta": theta, "k": k})


def _sweep_order(seed: int, tiny: bool) -> int:
    lo, hi = (30, 41) if tiny else (995, 1001)
    return int(np.random.default_rng([seed, 13]).integers(lo, hi))


def plan_sweep(seed: int, workdir: str, bl, tiny: bool, lap) -> Plan:
    """table --max-n near 1000, a Moebius grid through scalar, every witness family."""
    rng = np.random.default_rng([seed, 12])
    calls = [_table_call(_sweep_order(seed, tiny))]
    grid = 4 if tiny else 24
    for a in 0.05 + 0.9 * (np.arange(grid) + rng.random(grid)) / grid:
        crossing = 1.0 / (1.0 + 2.0 * a)
        below = crossing * (1.0 - rng.uniform(0.02, 0.3))
        above = crossing + (1.0 - crossing) * rng.uniform(0.02, 0.3)
        calls += [_scalar_call(float(a), float(below)), _scalar_call(float(a), float(above))]
    for n in rng.integers(2, 17, size=2 if tiny else 6):
        calls.append(_witness_call(["--family", "general-n", "--n", str(n)], n / (3.0 * n - 2.0)))
    calls.append(_witness_call(["--family", "n3"], math.sqrt(2.0) - 1.0))
    for r_target in rng.uniform(0.34, 0.9, size=1 if tiny else 3):
        calls.append(_remark_witness(float(r_target)))
    warm = [_table_call(10), _witness_call(["--family", "n3"], math.sqrt(2.0) - 1.0)]
    return Plan(warm, lambda k: calls)


def cold_sweep(seed: int, tiny: bool) -> list[Call]:
    """The round's table call, made first after set-up in a fresh process.

    An order-1000 table frees matrices above glibc's initial mmap threshold,
    which lifts the threshold; until then every such matrix is a fresh
    mapping and pays its page faults.  So the first table call of a process,
    which is what every user's ``bohrlab table`` is, takes about 1.7 times as
    long as later ones.  Its time is reported on its own, apart from rounds.
    """
    return [_table_call(_sweep_order(seed, tiny))]


WORKLOADS = {
    "search-n8": plan_search_n8,
    "search-small": plan_search_small,
    "certify": plan_certify,
    "sweep": plan_sweep,
}

# calls made once per run, after set-up and before the first round; set-up
# allocates nothing large, so they run as in a process that has only imported
COLD = {"sweep": cold_sweep}
