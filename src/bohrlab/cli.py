"""Command-line front end: verify instances, build witnesses, search,
tabulate the n/(3n-2) law, and check scalar series.

Exit codes are part of the interface: 0 success, 1 input error, 2
inequality violated, 3 hypotheses fail.  Instance files are JSON with
every complex entry spelled as an [re, im] pair.

The fixed cost of a call is paid once per process: ``main`` builds the
argparse tree on its first call and reuses it, and looks up the
``cmd_*`` handler by name at each call.  Each line takes one argparse
pass, by the parser of the subcommand it names; the full tree parses
again only a line that this pass does not accept, so help and usage
errors are the tree's own.  A handler prints and writes
nothing: it returns an ``Outcome``, and ``main`` alone renders it,
writes ``--output`` (before printing, so a failed write prints only its
``error:`` line) and prints; a handler's input error is a ValueError,
which ``main`` reports.  A document matrix, as ``json.load`` makes it,
takes one exact type scan per nesting level and one ``np.array`` call;
the entry-by-entry walk only names the field of a node the scan refuses.
One writer, ``_encode``, writes every JSON text (the ``--format json``
payload, an ``--output`` document, ``save_instance``) with the bytes of
``json.dumps(obj, indent=2)``: it takes exact builtin types and finite
matrices only, and fills one ``%``-format template per matrix order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

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
    critical_radii,
    critical_radius,
    gap_blocks,
)
from .witnesses import general_witness, remark_parameters, remark_two_witness, sine_witness, staircase_gap

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATED = 2
EXIT_HYPOTHESES = 3


class Outcome(NamedTuple):
    """What a handler returns for ``main`` to print and write: the exit
    code, the ``--format json`` payload (None when a handler builds it
    only for that format), a function building the lines of the other
    formats, and the document ``--output`` receives as JSON (None: the
    printed text)."""

    code: int
    payload: object
    lines: Callable[[], list[str]]
    document: object = None


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
    """Raise the DocumentError naming the first malformed field of node:
    with _bulk_values's exact types, for every node that scan refuses."""
    if type(node) is not list or len(node) != n:
        raise DocumentError(path, f"expected an array of {n} rows")
    for i, row in enumerate(node):
        if type(row) is not list or len(row) != n:
            raise DocumentError(f"{path}[{i}]", f"expected an array of {n} entries")
        for j, entry in enumerate(row):
            if not (type(entry) is list and len(entry) == 2 and _NUMBERS.issuperset(map(type, entry))):
                raise DocumentError(f"{path}[{i}][{j}]", "expected a two-number array [re, im]")
            try:
                complex(entry[0], entry[1])
            except OverflowError:
                raise DocumentError(f"{path}[{i}][{j}]", "number too large for a float") from None


def _matrix_from_literal(node, n: int, path: str) -> np.ndarray:
    """The matrix of a literal as json.load makes it, by the bulk scan
    alone; any other node, a subclass of list, int or float included,
    raises the DocumentError naming its malformed field."""
    values = _bulk_values(node, n)
    if values is None:
        _check_literal(node, n, path)
    return values.view(np.complex128).reshape(n, n)


def _document(inst: BohrInstance, literal: Callable = np.asarray) -> dict:
    """The instance document with each matrix m as literal(m); by default
    the array m itself, which _encode writes as its literal."""
    if inst.seq.kind == "constant":
        seq = {"type": "constant", "matrix": literal(inst.seq.matrices[0])}
    else:
        seq = {"type": "list", "matrices": [literal(m) for m in inst.seq.matrices]}
    return {"n": inst.order, "mode": inst.mode, "A": literal(inst.A), "S": literal(inst.S), "sequence": seq}


def instance_to_document(inst: BohrInstance) -> dict:
    return _document(inst, _matrix_to_literal)


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
    # json's decoder recurses once per nesting level
    except RecursionError:
        raise DocumentError(path, "arrays or objects nested too deeply") from None
    return document_to_instance(doc)


@functools.lru_cache(maxsize=4)
def _literal_template(n: int, indent: str) -> str:
    """The %-format template of an order-n matrix literal as _encode
    lays it out at indent, one %r per float."""
    row_indent, entry_indent, leaf_indent = indent + "  ", indent + "    ", indent + "      "
    entry = f"[{leaf_indent}%r,{leaf_indent}%r{entry_indent}]"
    row = f"[{entry_indent}" + f",{entry_indent}".join([entry] * n) + f"{row_indent}]"
    return f"[{row_indent}" + f",{row_indent}".join([row] * n) + f"{indent}]"


# the exact scalar types, each with json's spelling
_CONSTANTS = {True: "true", False: "false", None: "null"}.__getitem__
_SCALARS = {
    str: encode_basestring_ascii, float: float.__repr__, int: int.__repr__, bool: _CONSTANTS, type(None): _CONSTANTS
}


def _encode(obj, write, indent: str = "\n") -> None:
    """Pass the text of json.dumps(obj, indent=2) to write, piece by piece.

    obj holds what the package writes: dict with str keys, list, str,
    int, finite float, bool and None, each of exactly that type, and a
    _document's finite complex matrices.  Each is spelled as json spells
    it, a matrix in one piece: the template of its order and indent,
    filled by float.__repr__.  Any other type raises TypeError.
    """
    kind = type(obj)
    spell = _SCALARS.get(kind)
    if spell is not None:
        return write(spell(obj))
    if kind is np.ndarray:
        return write(_literal_template(len(obj), indent) % tuple(obj.ravel().view(np.float64).tolist()))
    inner = indent + "  "
    if kind is list:
        if not obj:
            return write("[]")
        sep = "[" + inner
        for x in obj:
            write(sep)
            _encode(x, write, inner)
            sep = "," + inner
        return write(indent + "]")
    if kind is dict:
        if not obj:
            return write("{}")
        sep = "{" + inner
        for k, v in obj.items():
            write(f"{sep}{encode_basestring_ascii(k)}: ")
            _encode(v, write, inner)
            sep = "," + inner
        return write(indent + "}")
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2): the one JSON writer's text as one string."""
    parts: list[str] = []
    _encode(obj, parts.append)
    return "".join(parts)


def save_instance(inst: BohrInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _encode(_document(inst), fh.write)
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


def cmd_verify(args) -> Outcome:
    if not (0.0 <= args.r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {args.r}")
    inst = load_instance(args.input)
    report = check_hypotheses(inst, tol=args.tol)

    series = None
    radius = None
    check = None
    if report.condition("nonnegative_trace_a").passed:
        series = alpha_series(inst, tol=args.tol)
        check = check_inequality(inst, args.r, tol=args.tol, series=series)
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

    def lines():
        out = [f"instance: n={inst.order} mode={inst.mode}", *_report_lines(report)]
        if series is not None:
            out.append(
                f"alpha series: alpha0={_fmt(series.alpha0)}"
                + "".join(f" |alpha_{i+1}|={_fmt(m)}" for i, m in enumerate(series.magnitudes))
                + f" tail={_fmt(series.tail)} from m={len(series.magnitudes) + 1}"
            )
            out.append(
                f"check at r={_fmt(args.r)}: lhs={_fmt(check.lhs)} rhs={_fmt(check.rhs)}"
                f" slack={_fmt(check.slack)} holds={'yes' if check.holds else 'no'}"
            )
            out.append(f"critical radius: {_fmt(radius)}")
        return out

    if not report.overall:
        code = EXIT_HYPOTHESES
    elif check is not None and not check.holds:
        code = EXIT_VIOLATED
    else:
        code = EXIT_OK
    return Outcome(code, payload, lines, payload)


def cmd_witness(args) -> Outcome:
    for flag, value, families in (
        ("--n", args.n, ("general-n", "sine")),
        ("--r-target", args.r_target, ("remark-n2",)),
    ):
        if value is not None and args.family not in families:
            raise ValueError(f"{flag} applies only to --family {' or '.join(families)}")
    extra: list[str] = []
    params: dict = {}
    if args.family in ("general-n", "sine"):
        if args.n is None:
            raise ValueError(f"--family {args.family} requires --n")
        inst = general_witness(args.n) if args.family == "general-n" else sine_witness(args.n)
    elif args.family == "n3":
        inst = sine_witness(3)
    else:
        if args.r_target is None:
            raise ValueError("--family remark-n2 requires --r-target")
        theta, k = remark_parameters(args.r_target)
        inst = remark_two_witness(args.r_target)
        extra = [f"theta: {_fmt(theta)}", f"k: {k}", f"violated at r: {_fmt(args.r_target)}"]
        params = {"theta": theta, "k": k, "violated_at": args.r_target}

    report = check_hypotheses(inst, tol=args.tol)
    series = alpha_series(inst, tol=args.tol)
    radius = critical_radius(series, float(np.trace(inst.S).real))

    payload = {
        "family": args.family,
        "n": inst.order,
        "critical_radius": radius,
        "hypotheses": _report_json(report),
        **params,
    }

    def lines():
        return [
            f"family: {args.family}",
            f"n: {inst.order}",
            *extra,
            f"critical radius: {_fmt(radius)}",
            f"hypotheses ({report.mode}): {'pass' if report.overall else 'FAIL'}",
        ]

    return Outcome(EXIT_OK, payload, lines, _document(inst) if args.output else None)


def cmd_radius_search(args) -> Outcome:
    cfg = SearchConfig(
        n=args.n,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    estimate = search(cfg)
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

    def lines():
        return [
            f"n: {cfg.n}",
            f"restarts: {cfg.restarts}",
            f"max_iters: {cfg.max_iters}",
            f"seed: {cfg.seed}",
            f"r_star: {_fmt(estimate.r_star)}",
            f"gap: {_fmt(estimate.gap)}",
            f"evaluations: {estimate.evaluations}",
            "per-restart best, stop reason (iterations, evaluations):",
            *(
                f"  {i}: {_fmt(rec.best)}  {rec.stop} ({rec.iterations}, {rec.evaluations})"
                for i, rec in enumerate(estimate.per_restart)
            ),
        ]

    document = _document(estimate.instance) if args.output else None
    return Outcome(EXIT_OK, payload, lines, document)


def _table_rows(max_n: int) -> list[tuple[int, float, float, float]]:
    # the order-n staircase is the leading n x n block of the order-max_n
    # one, so one pass over its gap and one lockstep bisection serve every row
    alpha0, tail, budget = gap_blocks(*staircase_gap(max_n))
    radii = critical_radii(alpha0[1:], tail[1:], budget[1:])
    rows = []
    for n, bisected in enumerate(radii.tolist(), start=2):
        formula = n / (3.0 * n - 2.0)
        rows.append((n, formula, bisected, abs(formula - bisected)))
    return rows


def cmd_table(args) -> Outcome:
    if args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    rows = _table_rows(args.max_n)
    # only the json format reads the payload
    payload = None
    if args.format == "json":
        payload = [{"n": n, "formula": f, "bisection": b, "abs_diff": d} for n, f, b, d in rows]

    def lines():
        if args.format == "csv":
            return ["n,formula,bisection,abs_diff"] + [
                f"{n},{_fmt(f)},{_fmt(b)},{_fmt(d)}" for n, f, b, d in rows
            ]
        return [f"{'n':>5}  {'formula':<22} {'bisection':<22} abs_diff"] + [
            f"{n:>5}  {_fmt(f):<22} {_fmt(b):<22} {_fmt(d)}" for n, f, b, d in rows
        ]

    # --output receives the printed text, in the chosen format
    return Outcome(EXIT_OK, payload, lines)


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    # complex() strips only whitespace that str.strip() strips too, so
    # a text it parses the walk below parses to the same values.  After
    # an error the walk decides: it names the first empty or unparsable
    # token, and it accepts tokens such as "\x1c4" whose ASCII separator
    # characters only str.strip() removes
    try:
        return tuple(map(complex, text.split(",")))
    except ValueError:
        pass
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


def cmd_scalar(args) -> Outcome:
    if not (0.0 <= args.r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {args.r}")
    if (args.moebius is None) == (args.coeffs is None):
        raise ValueError("give exactly one of --moebius or --coeffs")
    if args.moebius is not None:
        if args.tail is not None:
            raise ValueError("--tail applies only to --coeffs")
        series = moebius_series(args.moebius)
    else:
        series = CoeffSeries(_parse_coeffs(args.coeffs), args.tail)

    result = classical_verify(series, args.r, gridpoints=args.gridpoints, tol=args.tol)
    payload = {
        "r": args.r,
        "bohr_sum": result.lhs,
        "sup_norm_estimate": result.rhs,
        "holds": result.holds,
    }

    def lines():
        return [
            f"bohr sum at r={_fmt(args.r)}: {_fmt(result.lhs)}",
            f"sup norm estimate ({args.gridpoints} gridpoints): {_fmt(result.rhs)}",
            f"holds: {'yes' if result.holds else 'no'}",
        ]

    return Outcome(EXIT_OK if result.holds else EXIT_VIOLATED, payload, lines, payload)


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
    # the docstring's last paragraph is about the code, not for --help
    parser = _Parser(prog="bohrlab", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, output, formats=("text", "json"), tol=None):
        # every subcommand takes --output and --format; --tol only where
        # the handler reads a tolerance
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", default=None, help=output)
        p.add_argument("--format", choices=formats, default="text", help="stdout format")
        if tol is not None:
            p.add_argument(
                "--tol", type=_tolerance, default=tol, help="numeric tolerance (default %(default)s)"
            )
        return p

    json_result = "write the JSON result here (the --format json payload)"
    instance = "write the instance document here (the input verify reads)"
    p = command("verify", "check an instance file at a radius", json_result, tol=DEFAULT_TOL)
    p.add_argument("input", help="instance document (JSON)")
    p.add_argument("--r", type=float, required=True, help="evaluation radius in [0, 1)")

    p = command("witness", "build a canonical extremal instance", instance, tol=DEFAULT_TOL)
    p.add_argument("--family", choices=("general-n", "sine", "n3", "remark-n2"), required=True)
    p.add_argument("--n", type=int, default=None, help="order for general-n and sine (n3 is sine at n=3)")
    p.add_argument("--r-target", type=float, default=None, help="violation radius for remark-n2")

    p = command("radius-search", "search for the extremal radius", instance)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument(
        "--max-iters",
        type=int,
        default=10000,
        help="ADMM steps per restart at most (the default lets orders n <= 16 converge)",
    )
    p.add_argument("--seed", type=int, default=0, help="random seed of the restarts' starts")

    p = command(
        "table",
        "tabulate n/(3n-2) against bisection",
        "write the printed table here, in --format",
        formats=("text", "json", "csv"),
    )
    p.add_argument("--max-n", type=int, required=True)

    p = command("scalar", "classical power-series check", json_result, tol=1e-9)
    p.add_argument("--moebius", type=float, default=None, help="parameter a of (a-z)/(1-az)")
    p.add_argument("--coeffs", default=None, help="comma-separated coefficients")
    p.add_argument("--tail", nargs=2, type=float, default=None, metavar=("C", "RHO"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--gridpoints", type=int, default=4096)
    # each subcommand's parser by name, kept with the tree for _parse
    parser.commands = sub.choices
    return parser


# built on the first call of main: parse_args keeps no state between
# calls (no option appends to a shared default), so one tree serves all
_parser: argparse.ArgumentParser | None = None


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace _parser.parse_args(argv) returns, in one pass.

    A line that names a command goes straight to that command's parser,
    which is what the tree's subcommand action runs on the rest of the
    line.  The tree itself parses only a line that names no command or
    leaves arguments over, so help and usage errors are its own.
    """
    command = _parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _parser.parse_args(argv)


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # looked up at each call, so a handler replaced after the parser was
    # built (a tracer's wrapper, say) is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        outcome = handler(args)
        if args.format == "json":
            text = _dumps(outcome.payload)
        else:
            text = "\n".join(outcome.lines())
        # written before anything is printed, so a failed write leaves
        # stdout empty
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                if outcome.document is None:
                    fh.write(text)
                else:
                    _encode(outcome.document, fh.write)
                fh.write("\n")
        print(text)
        return outcome.code
    # a DocumentError or NonFiniteError is a ValueError; OverflowError
    # stays a backstop for a float conversion that no check names
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # an order too large to allocate is an input error, not a crash
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
