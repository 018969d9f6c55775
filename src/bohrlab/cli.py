"""Command-line front end: verify instances, build witnesses, search,
tabulate the n/(3n-2) law, and check scalar series.

Exit codes are part of the interface: 0 success, 1 input error, 2
inequality violated, 3 hypotheses fail.  Instance files are JSON with
every complex entry spelled as an [re, im] pair.

The fixed cost of a call is paid once per process: ``main`` builds the
argparse tree on its first call and reuses it, and looks up the
``cmd_*`` handler by name at each call.  Documents are converted in
bulk: each matrix is one exact type scan per nesting level and one
``np.array`` call, and the entry-by-entry walk runs only to name the
field of a node that the scan refuses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain

import numpy as np

from .hypotheses import check_hypotheses
from .linalg import DEFAULT_TOL
from .scalar import CoeffSeries, classical_verify, moebius_series
from .search import SearchConfig, search
from .series import (
    AlphaSeries,
    BohrInstance,
    BudgetBelowAlpha0Error,
    SequenceSpec,
    alpha_series,
    check_inequality,
    critical_radius,
)
from .witnesses import general_witness, remark_parameters, remark_two_witness, sine_witness

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATED = 2
EXIT_HYPOTHESES = 3


class DocumentError(ValueError):
    """Malformed instance document; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _matrix_to_literal(a: np.ndarray) -> list:
    n = len(a)
    return np.ascontiguousarray(a).view(np.float64).reshape(n, n, 2).tolist()


# exact types: numpy alone would read True as 1.0 and "1" as 1.0
_NUMBERS = frozenset({int, float})


def _bulk_values(node, n: int) -> np.ndarray | None:
    """The 2 n^2 floats, row by row and re before im, of a node of n
    lists of n [re, im] lists of ints and floats in float range, or None
    for any other node.

    Every test is a C-speed pass over one level of the node; the leaves
    go to numpy as one flat list, which converts them faster than the
    nested node would.
    """
    if type(node) is not list or len(node) != n:
        return None
    if {*map(type, node)} != {list} or {*map(len, node)} != {n}:
        return None
    entries = list(chain.from_iterable(node))
    if {*map(type, entries)} != {list} or {*map(len, entries)} != {2}:
        return None
    leaves = list(chain.from_iterable(entries))
    if not _NUMBERS.issuperset(map(type, leaves)):
        return None
    try:
        return np.array(leaves, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None


def _check_literal(node, n: int, path: str) -> None:
    """Raise the DocumentError naming the first malformed field of node."""
    if not isinstance(node, list) or len(node) != n:
        raise DocumentError(path, f"expected an array of {n} rows")
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"{path}[{i}]", f"expected an array of {n} entries")
        for j, entry in enumerate(row):
            ok = (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            )
            if not ok:
                raise DocumentError(f"{path}[{i}][{j}]", "expected a two-number array [re, im]")
            try:
                complex(entry[0], entry[1])
            except OverflowError:
                raise DocumentError(f"{path}[{i}][{j}]", "number too large for a float") from None


def _matrix_from_literal(node, n: int, path: str) -> np.ndarray:
    values = _bulk_values(node, n)
    if values is None:
        _check_literal(node, n, path)
        # well formed after all: subclasses of list, int or float, which
        # the exact scan refuses and numpy converts like the classes
        values = np.array(node, dtype=np.float64)
    return values.view(np.complex128).reshape(n, n)


def instance_to_document(inst: BohrInstance) -> dict:
    if inst.seq.kind == "constant":
        seq = {"type": "constant", "matrix": _matrix_to_literal(inst.seq.matrices[0])}
    else:
        seq = {"type": "list", "matrices": [_matrix_to_literal(m) for m in inst.seq.matrices]}
    return {
        "n": inst.order,
        "mode": inst.mode,
        "A": _matrix_to_literal(inst.A),
        "S": _matrix_to_literal(inst.S),
        "sequence": seq,
    }


def document_to_instance(doc) -> BohrInstance:
    if not isinstance(doc, dict):
        raise DocumentError("document", "expected a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError("n", f"expected a positive integer, got {n!r}")
    mode = doc.get("mode", "theorem")
    if mode not in ("theorem", "relaxed"):
        raise DocumentError("mode", f"expected 'theorem' or 'relaxed', got {mode!r}")
    for key in ("A", "S", "sequence"):
        if key not in doc:
            raise DocumentError(key, "missing field")
    a = _matrix_from_literal(doc["A"], n, "A")
    s = _matrix_from_literal(doc["S"], n, "S")
    node = doc["sequence"]
    if not isinstance(node, dict):
        raise DocumentError("sequence", "expected an object")
    kind = node.get("type")
    if kind == "constant":
        if "matrix" not in node:
            raise DocumentError("sequence.matrix", "missing field")
        seq = SequenceSpec.constant(_matrix_from_literal(node["matrix"], n, "sequence.matrix"))
    elif kind == "list":
        mats = node.get("matrices")
        if not isinstance(mats, list):
            raise DocumentError("sequence.matrices", "expected an array of matrices")
        seq = SequenceSpec.finite(
            _matrix_from_literal(m, n, f"sequence.matrices[{i}]") for i, m in enumerate(mats)
        )
    else:
        raise DocumentError("sequence.type", f"expected 'constant' or 'list', got {kind!r}")
    return BohrInstance(a, s, seq, mode)


def load_instance(path: str) -> BohrInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError(path, f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return document_to_instance(doc)


def save_instance(inst: BohrInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_document(inst), fh, indent=2)
        fh.write("\n")


def _write_output(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _fmt(x: float) -> str:
    return repr(float(x) + 0.0)


def _series_summary(series: AlphaSeries) -> dict:
    return {
        "alpha0": series.alpha0,
        "magnitudes": list(series.magnitudes),
        "tail": series.tail,
        "tail_start": len(series.magnitudes) + 1,
    }


def _report_lines(report) -> list[str]:
    lines = [f"hypotheses ({report.mode}):"]
    for c in report.conditions:
        verdict = "pass" if c.passed else "FAIL"
        lines.append(f"  [{verdict}] {c.name:<24} slack={_fmt(c.slack)}")
    lines.append(f"  overall: {'pass' if report.overall else 'FAIL'}")
    return lines


def _report_json(report) -> dict:
    return {
        "mode": report.mode,
        "overall": report.overall,
        "conditions": [
            {"name": c.name, "pass": c.passed, "slack": c.slack} for c in report.conditions
        ],
    }


def cmd_verify(args) -> int:
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    if not (0.0 <= args.r < 1.0):
        print(f"error: r must lie in [0, 1), got {args.r}", file=sys.stderr)
        return EXIT_INPUT
    inst = load_instance(args.input)
    report = check_hypotheses(inst, tol=tol)

    series = None
    radius = None
    check = None
    if report.condition("nonnegative_trace_a").passed:
        series = alpha_series(inst, tol=tol)
        check = check_inequality(inst, args.r, tol=tol)
        try:
            radius = critical_radius(series, check.rhs)
        except BudgetBelowAlpha0Error:
            radius = 0.0

    payload = {
        "hypotheses": _report_json(report),
        "alpha_series": _series_summary(series) if series is not None else None,
        "check": None
        if check is None
        else {"r": args.r, "lhs": check.lhs, "rhs": check.rhs, "slack": check.slack, "holds": check.holds},
        "critical_radius": radius,
    }

    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        lines = [f"instance: n={inst.order} mode={inst.mode}"]
        lines += _report_lines(report)
        if series is not None:
            lines.append(
                f"alpha series: alpha0={_fmt(series.alpha0)}"
                + "".join(f" |alpha_{i+1}|={_fmt(m)}" for i, m in enumerate(series.magnitudes))
                + f" tail={_fmt(series.tail)} from m={len(series.magnitudes) + 1}"
            )
            lines.append(
                f"check at r={_fmt(args.r)}: lhs={_fmt(check.lhs)} rhs={_fmt(check.rhs)}"
                f" slack={_fmt(check.slack)} holds={'yes' if check.holds else 'no'}"
            )
            lines.append(f"critical radius: {_fmt(radius)}")
        text = "\n".join(lines)
    print(text)
    if args.output:
        _write_output(args.output, text if args.format == "json" else json.dumps(payload, indent=2))

    if not report.overall:
        return EXIT_HYPOTHESES
    if check is not None and not check.holds:
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_witness(args) -> int:
    for flag, value, families in (
        ("--n", args.n, ("general-n", "sine")),
        ("--r-target", args.r_target, ("remark-n2",)),
    ):
        if value is not None and args.family not in families:
            print(f"error: {flag} applies only to --family {' or '.join(families)}", file=sys.stderr)
            return EXIT_INPUT
    extra: list[str] = []
    params: dict = {}
    if args.family in ("general-n", "sine"):
        if args.n is None:
            print(f"error: --family {args.family} requires --n", file=sys.stderr)
            return EXIT_INPUT
        inst = general_witness(args.n) if args.family == "general-n" else sine_witness(args.n)
    elif args.family == "n3":
        inst = sine_witness(3)
    else:
        if args.r_target is None:
            print("error: --family remark-n2 requires --r-target", file=sys.stderr)
            return EXIT_INPUT
        theta, k = remark_parameters(args.r_target)
        inst = remark_two_witness(args.r_target)
        extra = [f"theta: {_fmt(theta)}", f"k: {k}", f"violated at r: {_fmt(args.r_target)}"]
        params = {"theta": theta, "k": k, "violated_at": args.r_target}

    tol = args.tol if args.tol is not None else DEFAULT_TOL
    report = check_hypotheses(inst, tol=tol)
    series = alpha_series(inst, tol=tol)
    radius = critical_radius(series, float(np.trace(inst.S).real))

    if args.output:
        save_instance(inst, args.output)

    payload = {
        "family": args.family,
        "n": inst.order,
        "critical_radius": radius,
        "hypotheses": _report_json(report),
        **params,
    }

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        lines = [f"family: {args.family}", f"n: {inst.order}"] + extra
        lines.append(f"critical radius: {_fmt(radius)}")
        lines.append(f"hypotheses ({report.mode}): {'pass' if report.overall else 'FAIL'}")
        print("\n".join(lines))
    return EXIT_OK


def cmd_radius_search(args) -> int:
    cfg = SearchConfig(
        n=args.n,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        simplex_tol=args.simplex_tol,
    )
    estimate = search(cfg)
    if args.output:
        save_instance(estimate.instance, args.output)

    if args.format == "json":
        payload = {
            "n": cfg.n,
            "restarts": cfg.restarts,
            "max_iters": cfg.max_iters,
            "seed": cfg.seed,
            "r_star": estimate.r_star,
            "gap": estimate.gap,
            "evaluations": estimate.evaluations,
            "per_restart_best": list(estimate.per_restart_best),
            "per_restart": [
                {"iterations": rec.iterations, "evaluations": rec.evaluations, "stop": rec.stop}
                for rec in estimate.per_restart
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        lines = [
            f"n: {cfg.n}",
            f"restarts: {cfg.restarts}",
            f"max_iters: {cfg.max_iters}",
            f"seed: {cfg.seed}",
            f"r_star: {_fmt(estimate.r_star)}",
            f"gap: {_fmt(estimate.gap)}",
            f"evaluations: {estimate.evaluations}",
            "per-restart best, stop reason (iterations, evaluations):",
        ]
        lines += [
            f"  {i}: {_fmt(rec.best)}  {rec.stop} ({rec.iterations}, {rec.evaluations})"
            for i, rec in enumerate(estimate.per_restart)
        ]
        print("\n".join(lines))
    return EXIT_OK


def _table_row(n: int) -> tuple[int, float, float, float]:
    # one order-n instance lives only for the duration of this call
    inst = general_witness(n)
    series = alpha_series(inst)
    bisected = critical_radius(series, float(np.trace(inst.S).real))
    formula = n / (3.0 * n - 2.0)
    return n, formula, bisected, abs(formula - bisected)


def _table_rows(max_n: int) -> list[tuple[int, float, float, float]]:
    return [_table_row(n) for n in range(2, max_n + 1)]


def cmd_table(args) -> int:
    if args.max_n < 2:
        print(f"error: --max-n must be >= 2, got {args.max_n}", file=sys.stderr)
        return EXIT_INPUT
    rows = _table_rows(args.max_n)
    if args.format == "json":
        text = json.dumps(
            [
                {"n": n, "formula": f, "bisection": b, "abs_diff": d}
                for n, f, b, d in rows
            ],
            indent=2,
        )
    elif args.format == "csv":
        lines = ["n,formula,bisection,abs_diff"]
        lines += [f"{n},{_fmt(f)},{_fmt(b)},{_fmt(d)}" for n, f, b, d in rows]
        text = "\n".join(lines)
    else:
        lines = [f"{'n':>5}  {'formula':<22} {'bisection':<22} abs_diff"]
        lines += [f"{n:>5}  {_fmt(f):<22} {_fmt(b):<22} {_fmt(d)}" for n, f, b, d in rows]
        text = "\n".join(lines)
    print(text)
    if args.output:
        _write_output(args.output, text)
    return EXIT_OK


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    out = []
    for i, token in enumerate(text.split(",")):
        token = token.strip()
        if not token:
            raise ValueError(f"coefficient {i} is empty")
        try:
            out.append(complex(token))
        except ValueError as exc:
            raise ValueError(f"coefficient {i}: cannot parse {token!r}") from exc
    return tuple(out)


def cmd_scalar(args) -> int:
    tol = args.tol if args.tol is not None else 1e-9
    if not (0.0 <= args.r < 1.0):
        print(f"error: r must lie in [0, 1), got {args.r}", file=sys.stderr)
        return EXIT_INPUT
    if (args.moebius is None) == (args.coeffs is None):
        print("error: give exactly one of --moebius or --coeffs", file=sys.stderr)
        return EXIT_INPUT
    if args.moebius is not None:
        if args.tail is not None:
            print("error: --tail applies only to --coeffs", file=sys.stderr)
            return EXIT_INPUT
        series = moebius_series(args.moebius)
    else:
        tail = None
        if args.tail is not None:
            tail = (args.tail[0], args.tail[1])
        series = CoeffSeries(_parse_coeffs(args.coeffs), tail)

    result = classical_verify(series, args.r, gridpoints=args.gridpoints, tol=tol)
    payload = {
        "r": args.r,
        "bohr_sum": result.lhs,
        "sup_norm_estimate": result.rhs,
        "holds": result.holds,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(
            "\n".join(
                [
                    f"bohr sum at r={_fmt(args.r)}: {_fmt(result.lhs)}",
                    f"sup norm estimate ({args.gridpoints} gridpoints): {_fmt(result.rhs)}",
                    f"holds: {'yes' if result.holds else 'no'}",
                ]
            )
        )
    if args.output:
        _write_output(args.output, json.dumps(payload, indent=2))
    return EXIT_OK if result.holds else EXIT_VIOLATED


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    # input errors must exit 1; argparse's default usage-error code is 2,
    # which this interface reserves for "inequality violated"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=None, help="numeric tolerance override")
    common.add_argument("--output", default=None, help="write the machine-readable result here")
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="stdout format"
    )
    common.add_argument("--seed", type=int, default=0, help="random seed (search)")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="ignored; search restarts run in lockstep in one thread"
        " (kept so old command lines work)",
    )

    # the docstring's last paragraph is about the code, not for --help
    parser = _Parser(prog="bohrlab", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="check an instance file at a radius")
    p.add_argument("input", help="instance document (JSON)")
    p.add_argument("--r", type=float, required=True, help="evaluation radius in [0, 1)")

    p = sub.add_parser("witness", parents=[common], help="build a canonical extremal instance")
    p.add_argument("--family", choices=("general-n", "sine", "n3", "remark-n2"), required=True)
    p.add_argument("--n", type=int, default=None, help="order for general-n and sine (n3 is sine at n=3)")
    p.add_argument("--r-target", type=float, default=None, help="violation radius for remark-n2")

    p = sub.add_parser("radius-search", parents=[common], help="search for the extremal radius")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument(
        "--simplex-tol",
        type=float,
        default=1e-9,
        help="stop a restart when the plain ADMM step from its current point (without "
        "Anderson mixing) would move M by less than this (Frobenius norm)",
    )

    p = sub.add_parser("table", parents=[common], help="tabulate n/(3n-2) against bisection")
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("scalar", parents=[common], help="classical power-series check")
    p.add_argument("--moebius", type=float, default=None, help="parameter a of (a-z)/(1-az)")
    p.add_argument("--coeffs", default=None, help="comma-separated coefficients")
    p.add_argument("--tail", nargs=2, type=float, default=None, metavar=("C", "RHO"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--gridpoints", type=int, default=4096)
    return parser


# built on the first call of main: parse_args keeps no state between
# calls (no option appends to a shared default), so one tree serves all
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up at each call, so a handler replaced after the parser was
    # built (a tracer's wrapper, say) is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    # a DocumentError or NonFiniteError is a ValueError; OverflowError
    # stays a backstop for a float conversion that no check names
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
