"""Golden outputs of the command line: the cases, their inputs, and the
writer of ``golden.json``.

    PYTHONPATH=src python3 tests/golden.py

rewrites ``tests/golden.json`` from the code in ``src``.  Each entry holds
an argv, its exit code, and digests of stdout, stderr and the ``--output``
file (``null`` when no file is written).  ``test_golden.py`` replays every
entry in-process through ``bohrlab.cli.main`` and compares.

A stream is either exact or tolerant.  An exact stream must match its
sha256.  A tolerant stream carries numbers whose last bits depend on the
platform's LAPACK, BLAS, FFT or libm (hypothesis slacks from ``eigvalsh``,
operator norms from ``svd``, alpha values from BLAS dot products, search
results, sup-norm estimates, the sine family's cosines).  It matches when
its sha256 does; otherwise its text with every float replaced by ``#``
must match exactly, and each float must lie within ``ULPS`` units in the
last place of max(1, |a|, |b|) of the stored one.  The bound covers one
flipped comparison in the last steps of a 1e-12 radius bisection (at most
about 2300 ulps of 1); perturbing every ``eigh``, ``svd`` and ``solve``
result by one ulp moved the search cases here by at most 86 ulps.

Inputs are built by ``build_inputs`` in pure Python from a seeded
``random.Random``, so they are the same bytes on every platform and do
not depend on the code under test.  A regenerated manifest changes the
reference: list every changed entry and its reason when committing one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import sys

ULPS = 4096
MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
OUTPUT = "out.dat"

# a float as repr() or json spells it; integers stay part of the text
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:e[+-]?\d+)?|\d+e[+-]?\d+|inf|nan|Infinity|NaN)(?![\w.])")


# --- inputs -----------------------------------------------------------------


def _literal(rows):
    return [[[z.real + 0.0, z.imag + 0.0] for z in row] for row in rows]


def _document(a, s, seq, mode="theorem"):
    n = len(a)
    if len(seq) == 1:
        sequence = {"type": "constant", "matrix": _literal(seq[0])}
    else:
        sequence = {"type": "list", "matrices": [_literal(m) for m in seq]}
    return {"n": n, "mode": mode, "A": _literal(a), "S": _literal(s), "sequence": sequence}


def _random_document(rng, n, terms, budget_scale=1.0, mode="theorem"):
    """Upper triangular A with real diagonal, a diagonal S that dominates
    Re(A) by Gershgorin's bound times budget_scale, and strictly upper
    contractions (scaled by their entry sums)."""
    a = [[0j] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = complex(rng.uniform(0.1, 1.0), 0.0)
        for j in range(i + 1, n):
            a[i][j] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    s = [[0j] * n for _ in range(n)]
    for i in range(n):
        off = sum(abs(a[i][j] if j > i else a[j][i]) / 2.0 for j in range(n) if j != i)
        s[i][i] = complex(budget_scale * (a[i][i].real + off), 0.0)
    seq = []
    for _ in range(terms):
        m = [[0j] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        total = sum(abs(z) for row in m for z in row)
        seq.append([[z * (0.9 / total) for z in row] for row in m])
    return _document(a, s, seq, mode)


def _staircase(n):
    a = [[1 + 0j if i == j else (-2 + 0j if j > i else 0j) for j in range(n)] for i in range(n)]
    s = [[2 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    shift = [[1 + 0j if j == i + 1 else 0j for j in range(n)] for i in range(n)]
    return _document(a, s, [shift])


def _remark(r_target):
    theta = 0.5 * ((1.0 - r_target) / (2.0 * r_target) + 1.0)
    k = math.floor(theta / (2.0 * (1.0 - theta))) + 1
    a = [[complex(0.5, k), 0.5 + 0j], [0.5 + 0j, complex(0.5, -k)]]
    m = [[complex(-theta / (2.0 * k), 0.0), 1j * theta], [1j * theta, complex(theta / (2.0 * k), 0.0)]]
    return _document(a, [[1 + 0j, 0j], [0j, 1 + 0j]], [m], "relaxed")


def _faulty_documents() -> dict[str, dict]:
    """Documents that reach the reader's and verify's error paths, built
    without the seeded draws so that the other inputs keep their bytes."""
    docs = {}
    for name, field, fault in (
        ("bool-leaf.json", "A", lambda m: m[0].__setitem__(1, [True, 0.0])),
        ("short-row.json", "S", lambda m: m[1].pop()),
        ("nan-entry.json", "A", lambda m: m[1].__setitem__(1, [math.nan, 0.0])),
    ):
        doc = _staircase(2)
        fault(doc[field])
        docs[name] = doc
    doc = _staircase(2)
    doc["sequence"]["matrix"][0][1] = [10**400, 0]
    docs["huge-int.json"] = doc
    shift = [[0j, 1 + 0j], [0j, 0j]]
    doc = _document([[1 + 0j, 0j], [0j, 1 + 0j]], [[2 + 0j, 0j], [0j, 2 + 0j]], [shift, shift])
    doc["sequence"]["matrices"][1][0][1] = ["1", 0.0]
    docs["string-leaf.json"] = doc
    # the gap S - Re A is not PSD, and Tr(S) = 1 is below alpha0 = 2
    docs["budget-below.json"] = _document(
        [[1 + 0j, 0j], [0j, 1 + 0j]], [[0.5 + 0j, 0j], [0j, 0.5 + 0j]], [shift]
    )
    # finite products whose pairing Tr(A M*) overflows to nan-infj
    a = [[1 + 0j, 1e308 + 0j], [0j, 1 + 0j]]
    m = [[0j, complex(1e308, 1e308)], [0j, 0j]]
    three = [[3 + 0j, 0j], [0j, 3 + 0j]]
    docs["pairing-overflow.json"] = _document(a, three, [m])
    doc = _document(a, three, [m])
    doc["sequence"] = {"type": "list", "matrices": [_literal(m)]}
    docs["pairing-overflow-list.json"] = doc
    return docs


def _inputs() -> dict[str, str]:
    rng = random.Random(20211)
    docs = {
        "stair2.json": _staircase(2),
        "stair6.json": _staircase(6),
        "remark.json": _remark(0.4),
    }
    for n, terms in ((2, 1), (3, 1), (5, 3), (8, 1)):
        docs[f"rand{n}.json"] = _random_document(rng, n, terms)
    docs["rand4-relaxed.json"] = _random_document(rng, 4, 2, mode="relaxed")
    docs["rand4-tight.json"] = _random_document(rng, 4, 1, budget_scale=0.5)  # gap not PSD
    negative = _random_document(rng, 3, 1)
    for i, row in enumerate(negative["A"]):
        row[i] = [-1.0, 0.0]
    docs["negative-trace.json"] = negative
    docs.update(_faulty_documents())
    texts = {name: json.dumps(doc, indent=2) + "\n" for name, doc in docs.items()}
    texts["malformed.json"] = texts["rand2.json"].replace('"S"', '"T"', 1)
    return texts


def build_inputs(directory: str) -> dict[str, str]:
    """Write every input document into directory; returns name -> sha256."""
    digests = {}
    for name, text in _inputs().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


# --- cases ------------------------------------------------------------------


def _coeffs(rng, count):
    return ",".join(
        repr(complex(round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6))) for _ in range(count)
    )


def _cases() -> list[tuple[list[str], bool]]:
    """(argv, tolerant) pairs; --output always names OUTPUT."""
    out = ["--output", OUTPUT]
    cases: list[tuple[list[str], bool]] = []

    def add(argv, tolerant=True):
        cases.append((argv, tolerant))

    # verify: every document, both formats, with and without --output
    for name in ("stair2.json", "stair6.json"):
        for r in ("0.0", "0.3", "0.55"):
            add(["verify", name, "--r", r])
        add(["verify", name, "--r", "0.3", "--format", "json", *out])
    for name in ("rand2.json", "rand3.json", "rand5.json", "rand8.json", "rand4-relaxed.json", "remark.json"):
        for r in ("0.2", "0.3333333333333333", "0.6"):
            add(["verify", name, "--r", r])
        add(["verify", name, "--r", "0.25", "--format", "json"])
        add(["verify", name, "--r", "0.25", *out])
    add(["verify", "rand3.json", "--r", "0.3", "--tol", "0"])
    add(["verify", "rand4-tight.json", "--r", "0.3"])
    add(["verify", "rand4-tight.json", "--r", "0.3", "--format", "json", *out])
    add(["verify", "negative-trace.json", "--r", "0.3"])
    add(["verify", "negative-trace.json", "--r", "0.3", "--format", "json", *out])

    # witness: every family
    for n in ("2", "5", "1000"):
        add(["witness", "--family", "general-n", "--n", n], tolerant=False)
    add(["witness", "--family", "general-n", "--n", "8", *out], tolerant=False)
    add(["witness", "--family", "general-n", "--n", "4", "--format", "json", *out])
    for n in ("2", "3", "6", "16"):
        add(["witness", "--family", "sine", "--n", n])
    add(["witness", "--family", "sine", "--n", "5", "--format", "json", *out])
    add(["witness", "--family", "n3"])
    add(["witness", "--family", "n3", "--format", "json", *out])
    for r in ("0.35", "0.9"):
        add(["witness", "--family", "remark-n2", "--r-target", r])
    add(["witness", "--family", "remark-n2", "--r-target", "0.4", "--format", "json"])
    add(["witness", "--family", "remark-n2", "--r-target", "0.5", "--tol", "0", *out])

    # radius-search: converged restarts, and restarts stopped at max_iters
    add(["radius-search", "--n", "2", "--restarts", "3", "--seed", "1"])
    add(["radius-search", "--n", "2", "--restarts", "3", "--seed", "1", "--format", "json", *out])
    add(["radius-search", "--n", "3", "--restarts", "4", "--seed", "7", "--format", "json"])
    add(["radius-search", "--n", "4", "--restarts", "2", "--max-iters", "30", "--seed", "2", *out])

    # table: every format, with and without --output
    for fmt in ("text", "json", "csv"):
        add(["table", "--max-n", "2", "--format", fmt], tolerant=False)
        add(["table", "--max-n", "40", "--format", fmt, *out], tolerant=False)

    # scalar: Moebius series and random polynomials, with and without a tail
    for a, r in (("0.3", "0.2"), ("0.5", "0.34"), ("0.9", "0.4"), ("0.7", "0.3333333333333333")):
        add(["scalar", "--moebius", a, "--r", r])
    add(["scalar", "--moebius", "0.6", "--r", "0.3", "--format", "json", *out])
    add(["scalar", "--moebius", "0.6", "--r", "0.3", *out])
    add(["scalar", "--moebius", "0.6", "--r", "0.3", "--gridpoints", "1000"])
    rng = random.Random(1908)
    for count, r in ((3, "0.3"), (12, "0.9"), (40, "0.95")):
        add(["scalar", "--coeffs", _coeffs(rng, count), "--r", r])
    add(["scalar", "--coeffs", _coeffs(rng, 5), "--tail", "0.5", "-0.4", "--r", "0.3", "--format", "json"])
    add(["scalar", "--coeffs", _coeffs(rng, 7), "--tail", "0.25", "0.6", "--r", "0.25", "--gridpoints", "64", *out])
    # one listed coefficient and a tail: a power-of-two grid and one that is not
    for grid in ((), ("--gridpoints", "1000")):
        add(["scalar", "--coeffs", "0.3", "--tail", "0.5", "-0.4", "--r", "0.3", *grid])

    # input errors: each handler's own checks, a document error, a search config error
    for argv in (
        ["verify", "stair2.json", "--r", "1.5"],
        ["verify", "malformed.json", "--r", "0.3"],
        ["witness", "--family", "n3", "--n", "3"],
        ["witness", "--family", "sine", "--r-target", "0.4", "--n", "3"],
        ["witness", "--family", "general-n"],
        ["witness", "--family", "remark-n2"],
        ["witness", "--family", "remark-n2", "--r-target", "0.2"],
        ["radius-search", "--n", "1"],
        ["table", "--max-n", "1"],
        ["scalar", "--moebius", "0.5", "--r", "1.0"],
        ["scalar", "--r", "0.3"],
        ["scalar", "--moebius", "0.5", "--coeffs", "1", "--r", "0.3"],
        ["scalar", "--moebius", "0.5", "--tail", "1", "0.5", "--r", "0.3"],
        ["scalar", "--coeffs", "1,,2", "--r", "0.3"],
        ["scalar", "--moebius", "-0.7", "--r", "0.3"],
    ):
        add(argv, tolerant=False)

    # the document reader's error paths, and pairings that overflow
    for name in (
        "bool-leaf.json",
        "short-row.json",
        "huge-int.json",
        "string-leaf.json",
        "nan-entry.json",
        "pairing-overflow.json",
        "pairing-overflow-list.json",
    ):
        add(["verify", name, "--r", "0.3"], tolerant=False)
    # hypotheses fail and the budget is below alpha0: critical radius 0.0
    add(["verify", "budget-below.json", "--r", "0.3"])
    add(["verify", "budget-below.json", "--r", "0.3", "--format", "json"])
    return cases


# --- running and digesting --------------------------------------------------


def run(argv: list[str]) -> tuple[int, str, str, str | None]:
    """main(argv) in the current directory: (exit code, stdout, stderr,
    the text of the --output file or None when none was written)."""
    from bohrlab import cli

    if os.path.exists(OUTPUT):
        os.remove(OUTPUT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if os.path.exists(OUTPUT):
        with open(OUTPUT, encoding="utf-8", newline="") as fh:
            written = fh.read()
    return code, out.getvalue(), err.getvalue(), written


def digest(text: str | None, tolerant: bool) -> dict | None:
    if text is None:
        return None
    entry = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if tolerant:
        entry["skeleton"] = hashlib.sha256(FLOAT.sub("#", text).encode()).hexdigest()
        entry["floats"] = FLOAT.findall(text)
    return entry


def mismatch(text: str | None, expected: dict | None) -> str | None:
    """None when text matches its manifest digest, else the reason."""
    if text is None or expected is None:
        return None if text is None and expected is None else f"expected {expected!r}, got {text!r:.200}"
    if hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]:
        return None
    if "skeleton" not in expected:
        return f"exact stream differs: {text!r:.500}"
    if hashlib.sha256(FLOAT.sub("#", text).encode()).hexdigest() != expected["skeleton"]:
        return f"text outside the floats differs: {text!r:.500}"
    for i, (got, want) in enumerate(zip(FLOAT.findall(text), expected["floats"])):
        a, b = float(got), float(want)
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if not abs(a - b) <= ULPS * math.ulp(max(1.0, abs(a), abs(b))):
            return f"float {i} is {got}, expected {want} within {ULPS} ulps"
    return None


def record(argv: list[str], tolerant: bool) -> dict:
    code, out, err, written = run(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": digest(out, tolerant),
        "stderr": digest(err, False),
        "output": digest(written, tolerant),
    }


def main() -> None:
    import tempfile

    import numpy as np

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            inputs = build_inputs(tmp)
            entries = [record(argv, tolerant) for argv, tolerant in _cases()]
        finally:
            os.chdir(here)
    manifest = {
        "generated_with": {"python": sys.version.split()[0], "numpy": np.__version__},
        "ulps": ULPS,
        "inputs": inputs,
        "entries": entries,
    }
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    print(f"{len(entries)} entries written to {MANIFEST}")


if __name__ == "__main__":
    main()
