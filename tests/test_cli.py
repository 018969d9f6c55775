"""Command-line interface: documents, exit codes, output formats."""

import argparse
import ast
import enum
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from bohrlab import cli
from bohrlab.cli import (
    EXIT_HYPOTHESES,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATED,
    DocumentError,
    document_to_instance,
    instance_to_document,
    load_instance,
    main,
    save_instance,
)
from bohrlab import series as series_module
from bohrlab.search import SearchConfig, search
from bohrlab.series import BohrInstance, SequenceSpec, alpha_series, critical_radius
from bohrlab.witnesses import general_witness, remark_two_witness, sine_witness

SQRT2 = math.sqrt(2.0)

# sha256 of outputs whose bytes do not depend on the platform; the CI
# workflow looks these up by name to check the installed script
ORDER_300_DOCUMENT_SHA256 = "24e85666d86fa696323eb1a38cbed6182b5441b69de22563c64c4d601993e249"
TABLE_1000_CSV_SHA256 = "334c5167d8c722789a95c9989e9bd3f118ad270464dfd765e97ec7bae3a13ed3"
TABLE_20000_CSV_SHA256 = "40c9600562d89bdac0d477619a299d104109d988f886f435eb8b5dbc3524d24b"


def write_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    save_instance(inst, str(path))
    return str(path)


def overflow_instance(scale, mode="theorem"):
    """A = [[0, s], [0, 0]], S = diag(s, s) and the shift: every entry
    finite, but at s = 1e308 Tr(S) and the gap overflow."""
    a = np.array([[0.0, scale], [0.0, 0.0]])
    return BohrInstance(a, np.diag([scale, scale]), SequenceSpec.constant(np.eye(2, k=1)), mode)


# finite, with a modulus beyond the float range
HUGE = 1.5e308 + 1.5e308j
OVERFLOW_TAIL = "is not finite: the input overflows float arithmetic"
SHIFT = np.eye(2, k=1)
# Tr(A M*) = 1e308 - 1e308j sums to inf and takes a nan on the way
OVERFLOWING_PAIRING_A = np.array([[1.0, 1e308], [0.0, 1.0]])
OVERFLOWING_PAIRING_M = np.array([[0.0, 1e308 + 1e308j], [0.0, 0.0]])


def run_strict(argv, capsys):
    """main(argv) with every RuntimeWarning an error; returns (code, out, err)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestDocuments:
    def test_round_trip_is_exact(self, tmp_path):
        for inst in (general_witness(4), sine_witness(3), remark_two_witness(0.4)):
            path = write_instance(tmp_path, inst)
            back = load_instance(path)
            assert back.mode == inst.mode
            assert np.array_equal(back.A, inst.A)
            assert np.array_equal(back.S, inst.S)
            assert back.seq.kind == inst.seq.kind
            for m1, m2 in zip(back.seq.matrices, inst.seq.matrices):
                assert np.array_equal(m1, m2)

    def test_round_trip_finite_list(self, tmp_path):
        inst = BohrInstance(
            np.eye(2), 2.0 * np.eye(2), SequenceSpec.finite([np.eye(2, k=1), np.zeros((2, 2))])
        )
        back = load_instance(write_instance(tmp_path, inst))
        assert back.seq.kind == "finite-list"
        assert len(back.seq.matrices) == 2

    def test_document_shape(self):
        doc = instance_to_document(general_witness(2))
        assert doc["n"] == 2
        assert doc["mode"] == "theorem"
        assert doc["A"][0][1] == [-2.0, 0.0]
        assert doc["sequence"]["type"] == "constant"

    def test_missing_field_is_named(self):
        with pytest.raises(DocumentError) as err:
            document_to_instance({"n": 2, "A": [], "S": []})
        assert "sequence" in str(err.value)

    def test_bad_entry_path_reported(self):
        doc = instance_to_document(general_witness(2))
        doc["A"][0][1] = [1.0]
        with pytest.raises(DocumentError) as err:
            document_to_instance(doc)
        assert "A[0][1]" in str(err.value)

    def test_bad_mode_rejected(self):
        doc = instance_to_document(general_witness(2))
        doc["mode"] = "loose"
        with pytest.raises(DocumentError):
            document_to_instance(doc)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"n\": 2,,}")
        with pytest.raises(DocumentError) as err:
            load_instance(str(path))
        assert "line 1" in str(err.value)

    def test_deep_nesting_is_a_document_error(self, tmp_path):
        # json's decoder recurses once per level and gives up long before
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(DocumentError) as err:
            load_instance(str(path))
        assert err.value.path == str(path)
        assert str(err.value) == f"{path}: arrays or objects nested too deeply"


def reference_matrix_from_literal(node, n, path):
    """The entry-by-entry conversion that the bulk loader replaced: the
    oracle for its values and for its error paths and messages."""
    if not isinstance(node, list) or len(node) != n:
        raise DocumentError(path, f"expected an array of {n} rows")
    out = np.zeros((n, n), dtype=np.complex128)
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
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise DocumentError(f"{path}[{i}][{j}]", "number too large for a float") from None
    return out


def reference_matrix_to_literal(a):
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def reference_document(inst):
    seq = inst.seq
    if seq.kind == "constant":
        node = {"type": "constant", "matrix": reference_matrix_to_literal(seq.matrices[0])}
    else:
        node = {"type": "list", "matrices": [reference_matrix_to_literal(m) for m in seq.matrices]}
    return {
        "n": inst.order,
        "mode": inst.mode,
        "A": reference_matrix_to_literal(inst.A),
        "S": reference_matrix_to_literal(inst.S),
        "sequence": node,
    }


# floats at the ends of the range and ints that are not exact floats
EDGE_VALUES = [
    0, 0.0, -0.0, 1, -1, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
    1.7976931348623157e308, -1.7976931348623157e308, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1,
    -(2**63) - 1, 10**20, -(10**20), 0.1, 1 / 3,
]


def random_literal(rng, n):
    """An order-n matrix literal of floats spread over the exponent range,
    with some ints, as json.load would return it."""
    node = []
    for _ in range(n):
        row = []
        for _ in range(n):
            entry = []
            for _ in range(2):
                kind = rng.integers(4)
                if kind == 0:
                    entry.append(int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 8)))
                elif kind == 1:
                    entry.append(EDGE_VALUES[rng.integers(len(EDGE_VALUES))])
                else:
                    entry.append(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
            row.append(entry)
        node.append(row)
    return json.loads(json.dumps(node))


def matrix_bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).tobytes()


def assert_same_conversion(node, n, path="A"):
    """The bulk loader gives the reference's bits, or its DocumentError."""
    try:
        want = reference_matrix_from_literal(node, n, path)
    except DocumentError as ref:
        with pytest.raises(DocumentError) as got:
            cli._matrix_from_literal(node, n, path)
        assert (got.value.path, str(got.value)) == (ref.path, str(ref))
        return
    assert matrix_bits(cli._matrix_from_literal(node, n, path)) == matrix_bits(want)


GOOD = [[[1.0, 0.0], [2.0, -1.0]], [[0.0, 0.5], [3, 4]]]


def malformed(edit):
    node = json.loads(json.dumps(GOOD))
    edit(node)
    return node


MALFORMED = {
    "bool re": malformed(lambda m: m[0].__setitem__(1, [True, 0.0])),
    "bool im": malformed(lambda m: m[1].__setitem__(0, [0.0, False])),
    "numeric string": malformed(lambda m: m[1].__setitem__(1, ["1", 0.0])),
    "None leaf": malformed(lambda m: m[0].__setitem__(0, [None, 0.0])),
    "None entry": malformed(lambda m: m[0].__setitem__(0, None)),
    "None row": malformed(lambda m: m.__setitem__(1, None)),
    "dict row": malformed(lambda m: m.__setitem__(0, {"0": [1.0, 0.0], "1": [2.0, 0.0]})),
    "dict entry": malformed(lambda m: m[0].__setitem__(1, {"re": 1.0, "im": 0.0})),
    "number row": malformed(lambda m: m.__setitem__(1, 7.0)),
    "number entry": malformed(lambda m: m[1].__setitem__(1, 7.0)),
    "string row": malformed(lambda m: m.__setitem__(0, "ab")),
    "short row": malformed(lambda m: m[1].pop()),
    "long row": malformed(lambda m: m[0].append([0.0, 0.0])),
    "short entry": malformed(lambda m: m[0].__setitem__(1, [1.0])),
    "long entry": malformed(lambda m: m[1].__setitem__(0, [1.0, 2.0, 3.0])),
    "empty entry": malformed(lambda m: m[0].__setitem__(0, [])),
    "nested entry": malformed(lambda m: m[0].__setitem__(0, [[1.0], [2.0]])),
    "missing row": malformed(lambda m: m.pop()),
    "extra row": malformed(lambda m: m.append([[0.0, 0.0], [0.0, 0.0]])),
    "int beyond float range": malformed(lambda m: m[1].__setitem__(1, [0.0, 10**400])),
    "negative int beyond float range": malformed(lambda m: m[0].__setitem__(0, [-(10**309), 0])),
    "int rounding up to 2**1024": malformed(lambda m: m[0].__setitem__(1, [2**1024 - 2**970, 0])),
    "tuple entry": malformed(lambda m: m[0].__setitem__(0, (1.0, 0.0))),
    "tuple row": malformed(lambda m: m.__setitem__(1, tuple(m[1]))),
    "second fault named first": malformed(
        lambda m: (m[0].__setitem__(1, ["x", 0.0]), m[1].__setitem__(0, [True, 0.0]))
    ),
}


def with_sequence(node):
    """A well-formed order-2 document whose sequence is node."""
    doc = instance_to_document(general_witness(2))
    doc["sequence"] = node
    return doc


class TestDocumentErrors:
    """Each malformed field exits 1 through verify, naming the field."""

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("document", [1, 2]),
            ("document", "instance"),
            ("n", {"mode": "theorem"}),
            ("n", {"n": True}),
            ("n", {"n": 0}),
            ("n", {"n": 2.0}),
            ("n", {"n": "2"}),
            ("sequence", with_sequence([[0, 0]])),
            ("sequence.matrix", with_sequence({"type": "constant"})),
            ("sequence.matrices", with_sequence({"type": "list", "matrices": {}})),
            ("sequence.matrices", with_sequence({"type": "list"})),
            ("sequence.type", with_sequence({"type": "diagonal", "matrix": []})),
            ("sequence.type", with_sequence({})),
        ],
    )
    def test_bad_field_exits_one(self, tmp_path, capsys, field, doc):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_strict(["verify", str(path), "--r", "0.3"], capsys)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("matrix", ["A", "S", "sequence.matrix", "sequence.matrices[1]"])
    def test_non_finite_entry_is_named(self, tmp_path, capsys, matrix, literal):
        # json.load alone would read these literals as floats; the reader
        # names the entry that holds one, like any other malformed entry
        doc = instance_to_document(general_witness(2))
        bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.5, "@"], [1.0, 0.0]]]
        if matrix == "sequence.matrix":
            doc["sequence"]["matrix"] = bad
        elif matrix == "sequence.matrices[1]":
            doc["sequence"] = {"type": "list", "matrices": [doc["sequence"]["matrix"], bad]}
        else:
            doc[matrix] = bad
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(DocumentError) as got:
            load_instance(str(path))
        assert got.value.path == f"{matrix}[1][0]"
        assert str(got.value) == f"{matrix}[1][0]: {literal} is not a finite number"
        code, out, err = run_strict(["verify", str(path), "--r", "0.3"], capsys)
        assert_one_error_line(code, out, err)
        assert err == f"error: {matrix}[1][0]: {literal} is not a finite number\n"


class TestBulkConversion:
    """The bulk document loader and writer against the per-entry reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 32])
    def test_random_documents_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            assert_same_conversion(random_literal(rng, n), n)

    def test_edge_values_bit_for_bit(self):
        values = EDGE_VALUES
        node = [[[values[i], values[-1 - i]] for i in range(len(values))] for _ in values]
        assert_same_conversion(node, len(values))
        got = cli._matrix_from_literal(node, len(values), "A")
        assert math.copysign(1.0, got[0, 2].real) == -1.0  # -0.0 kept
        assert got[0, 5].real == 5e-324
        assert got[0, 15].real == float(2**63 + 1)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_matrix_same_error(self, case):
        assert_same_conversion(MALFORMED[case], 2)

    @pytest.mark.parametrize("node", [None, 3.0, "ab", {"0": []}, [], (GOOD[0], GOOD[1])])
    def test_malformed_node_same_error(self, node):
        assert_same_conversion(node, 2, "sequence.matrices[1]")

    def test_subclasses_are_refused_naming_the_field(self):
        # json.load never makes them; a Python caller that passes one
        # learns which field holds it
        class Row(list):
            pass

        for key, fault, message in (
            ("A", lambda m: m.__setitem__(1, Row(m[1])), "A[1]: expected an array of 2 entries"),
            ("S", lambda m: m[0].__setitem__(1, [np.float64(1.5), 0.0]), "S[0][1]: expected a two-number array"),
            ("A", lambda m: m[1][1].__setitem__(0, np.float64(1.0)), "A[1][1]: expected a two-number array"),
        ):
            doc = instance_to_document(general_witness(2))
            fault(doc[key])
            with pytest.raises(DocumentError, match="^" + re.escape(message)):
                document_to_instance(doc)
        doc = instance_to_document(general_witness(2))
        doc["sequence"]["matrix"] = Row(doc["sequence"]["matrix"])
        with pytest.raises(DocumentError, match=r"^sequence\.matrix: expected an array of 2 rows"):
            document_to_instance(doc)

    def test_document_errors_name_the_field(self):
        for key, where in (("A", "A"), ("S", "S")):
            for case in ("bool re", "int beyond float range", "short row"):
                doc = instance_to_document(general_witness(2))
                doc[key] = MALFORMED[case]
                with pytest.raises(DocumentError) as got:
                    document_to_instance(doc)
                with pytest.raises(DocumentError) as ref:
                    reference_matrix_from_literal(MALFORMED[case], 2, where)
                assert str(got.value) == str(ref.value)
        inst = BohrInstance(np.eye(2), 2.0 * np.eye(2), SequenceSpec.finite([np.eye(2, k=1)] * 3))
        doc = instance_to_document(inst)
        doc["sequence"]["matrices"][2][1][0] = ["1", 0]
        field = r"^sequence\.matrices\[2\]\[1\]\[0\]: expected a two-number array"
        with pytest.raises(DocumentError, match=field):
            document_to_instance(doc)

    def test_loaded_matrices_are_frozen_and_owned(self, tmp_path):
        inst = load_instance(write_instance(tmp_path, sine_witness(4)))
        for m in (inst.A, inst.S, *inst.seq.matrices):
            assert m.base is None
            assert not m.flags.writeable

    @pytest.mark.parametrize(
        "inst",
        [
            general_witness(5),
            sine_witness(4),
            remark_two_witness(0.4),
            BohrInstance(
                # -0.0, subnormal and huge parts; a transposed (Fortran-order) A
                (np.array([[-0.0, 5e-324], [1e308, -1e-308j]]) + 0.25j).T,
                np.diag([2.0, -0.0]),
                SequenceSpec.finite([np.eye(2, k=1), np.zeros((2, 2)), np.full((2, 2), 1 / 3)]),
            ),
        ],
        ids=["general", "sine", "remark", "edge"],
    )
    def test_documents_are_byte_identical(self, inst, tmp_path):
        want = json.dumps(reference_document(inst), indent=2)
        assert json.dumps(instance_to_document(inst), indent=2) == want
        path = write_instance(tmp_path, inst)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == want + "\n"


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    pass


class Real(float):
    pass


class Items(list):
    pass


class Table(dict):
    pass


# each exact float is finite: the writer spells floats by float.__repr__,
# and the package hands it no other; numpy scalars, subclasses and tuples
# are types it refuses
WRITER_SCALARS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 1e16, 1e-7, 0.1, 1 / 3,
    np.float64(1.5), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf), Real(2.5),
    0, 1, -1, 2**53 + 1, 2**64, -(2**100), 10**40, Level.LOW, True, False, None,
    "", "a", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600", "\x00\x1f\n\t\"\\/\x7f", "\u2028", Text("x\u00ff"),
]

# each shape carries its own id, so deleting one relabels no other case;
# a new shape takes a new id
WRITER_SHAPES = {
    "0": [], "1": (), "2": {}, "3": [[]], "4": [{}], "5": {"a": {}}, "6": {"a": []},
    "7": ([1, (2.0,)], ()), "8": Items([1.5, Items()]), "9": Table(b=Table(), a=[None]),
    "10": {"": 0, "\u00e9\n": 1, Text("k"): Level.LOW},
    # matrix literals as lists, and nodes shaped almost like them
    "11": [[[1.0, 2.0]]],
    "12": [[[1.0, -0.0], [5e-324, 1e308]], [[0.5, 0.25], [-1.5, 3.0]]],
    "13": [[[1, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, True]]],
    "14": [[[np.float64(1.0), 2.0]]],
    "15": [[(1.0, 2.0)]],
    "16": [([1.0, 2.0],)],
    "17": [[[1.0, 2.0, 3.0]]],
    "18": [[[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
    "19": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]],
}


def package_writes(obj):
    """Whether the writer takes obj: dicts with str keys, lists and
    scalars, each of exactly its builtin type."""
    if type(obj) is list:
        return all(map(package_writes, obj))
    if type(obj) is dict:
        return all(isinstance(k, str) and package_writes(v) for k, v in obj.items())
    return type(obj) in (str, int, float, bool, type(None))


WRITTEN_SCALARS = [x for x in WRITER_SCALARS if package_writes(x)]


def random_json(rng, depth=0):
    """A seeded nested value of every kind the writer takes, with finite floats."""
    kind = rng.integers(5 if depth < 4 else 2)
    if kind == 0:
        return WRITTEN_SCALARS[rng.integers(len(WRITTEN_SCALARS))]
    if kind == 1:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-320, 308))
    if kind == 2:
        return [random_json(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    if kind == 3:
        return {f"k{i}\u00e9": random_json(rng, depth + 1) for i in range(rng.integers(0, 4))}
    n = int(rng.integers(1, 4))
    return random_literal(rng, n) if rng.random() < 0.5 else np.asarray(random_literal(rng, n), float).tolist()


class TestWriter:
    """cli's one JSON writer writes the bytes of json.dumps(obj, indent=2)
    for what the package writes, and refuses every other type."""

    @staticmethod
    def assert_writes_like_json(obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    @classmethod
    def assert_written_or_refused(cls, obj):
        if package_writes(obj):
            cls.assert_writes_like_json(obj)
        else:
            with pytest.raises(TypeError):
                cli._dumps(obj)

    @pytest.mark.parametrize("obj", WRITER_SCALARS, ids=repr)
    def test_scalars(self, obj):
        self.assert_written_or_refused(obj)
        self.assert_written_or_refused([obj, {"v": obj}])

    @pytest.mark.parametrize("obj", WRITER_SHAPES.values(), ids=WRITER_SHAPES.keys())
    def test_containers_and_literals(self, obj):
        self.assert_written_or_refused(obj)
        self.assert_written_or_refused({"deep": [obj, {"deeper": obj}]})

    def test_seeded_corpus(self):
        rng = np.random.default_rng(2026)
        for _ in range(400):
            self.assert_writes_like_json(random_json(rng))

    def test_every_document_the_tests_build(self):
        found = search(SearchConfig(n=2, restarts=4, max_iters=300, seed=3)).instance
        finite = BohrInstance(np.eye(3), 2.0 * np.eye(3), SequenceSpec.finite([np.eye(3, k=1), np.eye(3, k=2)]))
        empty = BohrInstance(np.eye(2), np.eye(2), SequenceSpec.finite([]))
        edge = BohrInstance(
            np.array([[-0.0, 5e-324], [1e308, -1e-308j]]) + 0.25j, np.diag([2.0, -0.0]), SequenceSpec.constant(np.eye(2))
        )
        for inst in (general_witness(7), sine_witness(5), remark_two_witness(0.4), found, finite, empty, edge):
            # the writer's document keeps the arrays, which it spells as their literals
            want = json.dumps(instance_to_document(inst), indent=2)
            assert cli._dumps(cli._document(inst)) == want
            self.assert_writes_like_json(instance_to_document(inst))

    def test_printed_payloads(self, tmp_path, capsys):
        path = write_instance(tmp_path, remark_two_witness(0.5))
        for argv in (
            ["verify", path, "--r", "0.3"],
            ["witness", "--family", "remark-n2", "--r-target", "0.6"],
            ["scalar", "--coeffs", "1,-0.5j,1e-320", "--r", "0.2"],
            ["table", "--max-n", "4"],
            TestRadiusSearchCommand.ARGS,
        ):
            main([*argv, "--format", "json"])
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_refuses_what_json_refuses(self):
        for obj in (object(), np.int64(1), {(1, 2): 0}, [1, {"a": np.bool_(True)}]):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2)
            with pytest.raises(TypeError):
                cli._dumps(obj)

    def test_no_other_writer_in_the_package(self):
        src = os.path.dirname(cli.__file__)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                calls = [
                    node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                ]
                assert calls == [], name


class TestVerifyCommand:
    def test_holds_exits_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, general_witness(3))
        code = main(["verify", path, "--r", "0.3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "overall: pass" in out
        assert "holds=yes" in out
        assert "critical radius" in out

    def test_violation_exits_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, general_witness(2))
        code = main(["verify", path, "--r", "0.6"])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATED
        assert "holds=no" in out

    def test_hypothesis_failure_exits_three(self, tmp_path, capsys):
        inst = BohrInstance(
            np.eye(2), 2.0 * np.eye(2), SequenceSpec.constant(2.0 * np.eye(2, k=1))
        )
        path = write_instance(tmp_path, inst)
        code = main(["verify", path, "--r", "0.1"])
        out = capsys.readouterr().out
        assert code == EXIT_HYPOTHESES
        assert "[FAIL] sequence_norm" in out

    def test_hypothesis_failure_beats_violation(self, tmp_path, capsys):
        # both wrong: big sequence norm and a violated inequality
        inst = BohrInstance(
            np.eye(2), np.zeros((2, 2)), SequenceSpec.constant(2.0 * np.eye(2, k=1))
        )
        path = write_instance(tmp_path, inst)
        assert main(["verify", path, "--r", "0.2"]) == EXIT_HYPOTHESES
        capsys.readouterr()

    @pytest.mark.parametrize(
        "inst",
        [
            general_witness(4),
            remark_two_witness(0.5),
            # 2 + 2r + r^2 against the budget 4: the radius is sqrt(3) - 1
            BohrInstance(
                np.array([[1.0, -2.0], [0.0, 1.0]]),
                2.0 * np.eye(2),
                SequenceSpec.finite([np.eye(2, k=1), 0.5 * np.eye(2, k=1)]),
            ),
        ],
        ids=["constant", "relaxed", "finite"],
    )
    def test_one_series_and_42_sums(self, inst, tmp_path, capsys, monkeypatch):
        # the check and the radius share one alpha series; the check makes
        # one bohr_sum call, the bisected radius 41
        calls = {"alpha_series": 0, "bohr_sum": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        alpha = counted("alpha_series", series_module.alpha_series)
        monkeypatch.setattr(cli, "alpha_series", alpha)
        monkeypatch.setattr(series_module, "alpha_series", alpha)
        monkeypatch.setattr(series_module, "bohr_sum", counted("bohr_sum", series_module.bohr_sum))
        path = write_instance(tmp_path, inst)
        assert main(["verify", path, "--r", "0.1"]) == EXIT_OK
        assert calls == {"alpha_series": 1, "bohr_sum": 42}

    def test_json_payload(self, tmp_path, capsys):
        path = write_instance(tmp_path, sine_witness(3))
        code = main(["verify", path, "--r", "0.41", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["hypotheses"]["overall"] is True
        assert payload["check"]["holds"] is True
        assert abs(payload["critical_radius"] - (SQRT2 - 1.0)) <= 1e-9
        assert payload["alpha_series"]["alpha0"] == 6.0

    def test_output_file_carries_json(self, tmp_path, capsys):
        path = write_instance(tmp_path, general_witness(2))
        sink = tmp_path / "result.json"
        main(["verify", path, "--r", "0.25", "--output", str(sink)])
        capsys.readouterr()
        payload = json.loads(sink.read_text())
        assert abs(payload["critical_radius"] - 0.5) <= 1e-9

    def test_bad_radius_exits_one(self, tmp_path, capsys):
        path = write_instance(tmp_path, general_witness(2))
        assert main(["verify", path, "--r", "1.5"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.json"), "--r", "0.2"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2")
        assert main(["verify", str(path), "--r", "0.2"]) == EXIT_INPUT
        assert "line 1" in capsys.readouterr().err

    def test_deeply_nested_file_exits_one_without_traceback(self, tmp_path):
        # a fresh process, as a user meets it: the recursion limit is the
        # interpreter's own and nothing above main catches the error
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-m", "bohrlab.cli", "verify", str(path), "--r", "0.3"]
        fresh = subprocess.run(command, capture_output=True, text=True, env=env)
        assert_one_error_line(fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.stderr == f"error: {path}: arrays or objects nested too deeply\n"

    def test_integer_beyond_float_range_exits_one(self, tmp_path, capsys):
        doc = instance_to_document(general_witness(2))
        doc["S"][0][0] = [10**400, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--r", "0.2"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "S[0][0]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "inst",
        [
            overflow_instance(1e308),
            overflow_instance(1e308, "relaxed"),
            # a finite gap, but Tr(S) = 2.4e308
            BohrInstance(
                np.zeros((3, 3)), np.diag([8e307] * 3), SequenceSpec.constant(np.eye(3, k=1))
            ),
            # three pairings of 1e308: the Bohr sum overflows at r = 0.9
            BohrInstance(
                np.eye(2, k=1) * 1e308,
                np.diag([1e307, 1e307]),
                SequenceSpec.finite([np.eye(2, k=1)] * 3),
            ),
            # a pairing whose modulus is beyond the float range
            BohrInstance(
                np.eye(2, k=1) * (1.5e308 + 1.5e308j),
                np.eye(2),
                SequenceSpec.constant(np.eye(2, k=1)),
            ),
        ],
        ids=["gap", "relaxed-gap", "trace-s", "bohr-sum", "pairing-modulus"],
    )
    def test_overflowing_document_exits_one(self, tmp_path, capsys, inst):
        path = write_instance(tmp_path, inst)
        for fmt in ("text", "json"):
            code, out, err = run_strict(["verify", path, "--r", "0.9", "--format", fmt], capsys)
            assert_one_error_line(code, out, err)

    @pytest.mark.parametrize(
        "inst, quantity",
        [
            (
                BohrInstance(np.eye(2, k=1) * HUGE, np.eye(2), SequenceSpec.constant(SHIFT)),
                "|alpha_1| = |Tr(A A_1*)|",
            ),
            (
                BohrInstance(
                    np.eye(2, k=1) * HUGE,
                    np.eye(2),
                    SequenceSpec.finite([np.zeros((2, 2)), np.eye(2, k=1)]),
                ),
                "|alpha_2| = |Tr(A A_2*)|",
            ),
            (
                BohrInstance(np.diag([HUGE, 0.0]), np.eye(2), SequenceSpec.constant(SHIFT)),
                "|Tr(A)|",
            ),
            (
                # |S_01| = 1.1e308 keeps the gap finite, Tr(S A_1) = 2 S_01 does not
                BohrInstance(
                    np.zeros((2, 2)),
                    np.array([[0.0, 0.8e308 * (1 + 1j)], [0.8e308 * (1 - 1j), 0.0]]),
                    SequenceSpec.constant(2.0 * np.eye(2, k=-1)),
                    "relaxed",
                ),
                "|Tr(S A_1)|",
            ),
            # every product is finite, but the pairing itself overflows
            # to nan-infj, whose abs is inf without an OverflowError
            (
                BohrInstance(OVERFLOWING_PAIRING_A, 3.0 * np.eye(2), SequenceSpec.constant(OVERFLOWING_PAIRING_M)),
                "|alpha_1| = |Tr(A A_1*)|",
            ),
            (
                BohrInstance(OVERFLOWING_PAIRING_A, 3.0 * np.eye(2), SequenceSpec.finite([OVERFLOWING_PAIRING_M])),
                "|alpha_1| = |Tr(A A_1*)|",
            ),
        ],
        ids=[
            "pairing",
            "second-pairing",
            "trace-a",
            "relaxed-trace-s",
            "overflowing-pairing",
            "overflowing-list-pairing",
        ],
    )
    def test_overflowing_modulus_is_named(self, tmp_path, capsys, inst, quantity):
        path = write_instance(tmp_path, inst)
        for fmt in ("text", "json"):
            code, out, err = run_strict(["verify", path, "--r", "0.5", "--format", fmt], capsys)
            assert_one_error_line(code, out, err)
            assert err == f"error: {quantity} {OVERFLOW_TAIL}\n"

    def test_trace_whose_imaginary_sum_is_nan_is_an_error(self, tmp_path, capsys, nan_trace_instance):
        # the imaginary parts sum to nan, which is no real trace
        path = write_instance(tmp_path, nan_trace_instance)
        for fmt in ("text", "json"):
            code, out, err = run_strict(["verify", path, "--r", "0.3", "--format", fmt], capsys)
            assert_one_error_line(code, out, err)
            assert err == f"error: the nonnegative_trace_a slack {OVERFLOW_TAIL}\n"

    def test_scaled_overflow_document_is_decided(self, tmp_path, capsys):
        # the same shape at 1e8 is violated at 0.9, with radius 2/3
        path = write_instance(tmp_path, overflow_instance(1e8))
        code, out, err = run_strict(["verify", path, "--r", "0.9", "--format", "json"], capsys)
        assert code == EXIT_VIOLATED
        assert err == ""
        payload = json.loads(out)
        assert payload["hypotheses"]["overall"]
        assert payload["critical_radius"] == 0.666666666666758
        assert all(math.isfinite(payload["check"][k]) for k in ("lhs", "rhs", "slack"))

    def test_near_limit_gap_is_decided(self, tmp_path, capsys):
        # Re(A) and the gap diag(1e307, 1) are finite and PSD; halving
        # before adding keeps the symmetrized forms finite too
        inst = BohrInstance(
            np.diag([1.5e308, 0.0]),
            np.diag([1.6e308, 1.0]),
            SequenceSpec.constant(np.zeros((2, 2))),
        )
        path = write_instance(tmp_path, inst)
        code, out, err = run_strict(["verify", path, "--r", "0.3", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert err == ""
        payload = json.loads(out)
        assert payload["hypotheses"]["overall"]
        assert payload["check"]["holds"]
        assert payload["check"]["slack"] == pytest.approx(1e307, rel=1e-12)
        assert payload["critical_radius"] == 1.0

    def test_orthogonality_bound_that_overflows_fails(self, tmp_path, capsys):
        # tol ||S||_F ||A_1||_F overflows; an infinite bound would pass
        # any |Tr(S A_1)|, here 1.35e308
        inst = BohrInstance(
            np.zeros((2, 2)),
            np.diag([1.5e308, 0.0]),
            SequenceSpec.constant(np.diag([0.9, 0.9])),
            "relaxed",
        )
        path = write_instance(tmp_path, inst)
        code, out, err = run_strict(["verify", path, "--r", "0.3"], capsys)
        assert code == EXIT_HYPOTHESES
        assert err == ""
        assert "  [FAIL] orthogonal_to_s          slack=-1.35e+308\n" in out
        assert out.count("[FAIL]") == 1
        assert "overall: FAIL" in out

    def test_triangle_scale_that_overflows_still_bounds(self, tmp_path, capsys):
        # max|A| is inf; an infinite bound would pass the lower entry 1e300
        inst = BohrInstance(
            np.array([[HUGE, 0.0], [1e300, -HUGE]]),
            np.diag([1.6e308, -1.4e308]),
            SequenceSpec.constant(SHIFT),
        )
        path = write_instance(tmp_path, inst)
        code, out, err = run_strict(["verify", path, "--r", "0.3"], capsys)
        assert code == EXIT_HYPOTHESES
        assert err == ""
        assert "  [FAIL] upper_triangular_a       slack=-1e+300\n" in out
        assert out.count("[FAIL]") == 1

    @pytest.mark.parametrize("n", [3, 4, 8, 100])
    def test_zero_tolerance_passes_rank_one_gap_witnesses(self, tmp_path, capsys, n):
        # LAPACK returns the zero eigenvalues of a rank-one gap slightly
        # negative (about -2e-11 for the order-100 sine gap, whose largest
        # is 5e4); --tol 0 must not fail them
        sine = 1.0 / (1.0 + 2.0 * math.cos(math.pi / (n + 1)))
        for inst, radius in ((general_witness(n), n / (3.0 * n - 2.0)), (sine_witness(n), sine)):
            path = write_instance(tmp_path, inst)
            argv = ["verify", path, "--r", repr(0.9 * radius), "--tol", "0", "--format", "json"]
            assert main(argv) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            assert payload["hypotheses"]["overall"]
            assert payload["check"]["holds"]


class TestWitnessCommand:
    def test_general_family(self, capsys):
        code = main(["witness", "--family", "general-n", "--n", "5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["n"] == 5
        assert abs(payload["critical_radius"] - 5.0 / 13.0) <= 1e-9
        assert payload["hypotheses"]["overall"] is True

    def test_general_family_requires_n(self, capsys):
        assert main(["witness", "--family", "general-n"]) == EXIT_INPUT
        assert "requires --n" in capsys.readouterr().err

    def test_bad_order_exits_one(self, capsys):
        assert main(["witness", "--family", "general-n", "--n", "1"]) == EXIT_INPUT
        capsys.readouterr()

    def test_n3_family(self, capsys):
        code = main(["witness", "--family", "n3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["n"] == 3
        assert abs(payload["critical_radius"] - (SQRT2 - 1.0)) <= 1e-9

    def test_sine_family_reaches_the_order_n_optimum(self, capsys):
        code = main(["witness", "--family", "sine", "--n", "8", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["family"] == "sine"
        assert payload["n"] == 8
        assert abs(payload["critical_radius"] - 1.0 / (1.0 + 2.0 * math.cos(math.pi / 9))) <= 1e-9
        assert payload["hypotheses"]["overall"] is True

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_n3_is_an_alias_of_sine_order_three(self, capsys, fmt):
        assert main(["witness", "--family", "n3", "--format", fmt]) == EXIT_OK
        alias = capsys.readouterr().out
        assert main(["witness", "--family", "sine", "--n", "3", "--format", fmt]) == EXIT_OK
        sine = capsys.readouterr().out
        assert alias != sine
        assert alias.replace("n3", "sine", 1) == sine

    @pytest.mark.parametrize("extra", [[], ["--n", "1"], ["--n", "-4"]])
    def test_sine_family_needs_a_valid_order(self, capsys, extra):
        assert main(["witness", "--family", "sine", *extra]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_sine_order_too_large_to_allocate_fails_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["witness", "--family", "sine", "--n", "10000000"])
        elapsed = time.perf_counter() - start
        assert_one_error_line(code, *capsys.readouterr())
        assert elapsed < 1.0

    def test_remark_family_reports_parameters(self, capsys):
        code = main(["witness", "--family", "remark-n2", "--r-target", "0.35", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert abs(payload["theta"] - 27.0 / 28.0) <= 1e-12
        assert payload["k"] == 14
        assert payload["violated_at"] == 0.35
        assert abs(payload["critical_radius"] - 0.3414634146341463) <= 1e-9

    def test_remark_family_text_lines(self, capsys):
        code = main(["witness", "--family", "remark-n2", "--r-target", "0.35"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "theta:" in out
        assert "k: 14" in out
        assert "violated at r:" in out

    def test_remark_family_requires_target(self, capsys):
        assert main(["witness", "--family", "remark-n2"]) == EXIT_INPUT
        assert "requires --r-target" in capsys.readouterr().err

    def test_remark_target_within_rounding_of_one_third(self, capsys):
        # above 1/3, but theta rounds to 1, where k has no value
        argv = ["witness", "--family", "remark-n2", "--r-target", repr(math.nextafter(1.0 / 3.0, 1.0))]
        assert_one_error_line(*run_strict(argv, capsys))

    def test_output_file_round_trips(self, tmp_path, capsys):
        sink = tmp_path / "witness.json"
        main(["witness", "--family", "remark-n2", "--r-target", "0.4", "--output", str(sink)])
        capsys.readouterr()
        inst = load_instance(str(sink))
        assert inst.mode == "relaxed"
        assert inst.order == 2


    def test_order_300_document_digest(self, tmp_path, capsys):
        # every entry of the order-300 staircase is exact, so the bytes do
        # not depend on the platform
        sink = tmp_path / "w300.json"
        argv = ["witness", "--family", "general-n", "--n", "300", "--output", str(sink)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        data = sink.read_bytes()
        assert len(data) == 12_116_978
        assert hashlib.sha256(data).hexdigest() == ORDER_300_DOCUMENT_SHA256


class TestRadiusSearchCommand:
    ARGS = [
        "radius-search",
        "--n", "2",
        "--restarts", "4",
        "--max-iters", "300",
        "--seed", "3",
    ]

    def test_json_payload(self, capsys):
        code = main(self.ARGS + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["n"] == 2
        assert payload["seed"] == 3
        assert len(payload["per_restart_best"]) == 4
        assert payload["r_star"] >= 0.5 - 1e-9
        assert payload["evaluations"] > 0
        assert len(payload["per_restart"]) == 4
        assert sum(rec["evaluations"] for rec in payload["per_restart"]) == payload["evaluations"]
        for rec in payload["per_restart"]:
            assert rec["stop"] in ("converged", "max_iters")
            assert 0 < rec["iterations"] <= 300

    def test_gap_to_the_optimum(self, capsys):
        main(self.ARGS + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] == payload["r_star"] - 1.0 / (1.0 + 2.0 * math.cos(math.pi / 3))
        assert abs(payload["gap"]) <= 1e-6
        keys = ["n", "restarts", "max_iters", "seed", "r_star", "gap", "evaluations"]
        assert list(payload) == keys + ["per_restart_best", "per_restart"]
        main(self.ARGS)
        lines = capsys.readouterr().out.splitlines()
        assert lines[4].startswith("r_star: ")
        assert lines[5] == f"gap: {payload['gap']!r}"

    def test_stdout_reproducible(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        second = capsys.readouterr().out
        assert first == second
        assert "r_star:" in first

    def test_default_cap_lets_order_twelve_converge(self, capsys):
        code = main(["radius-search", "--n", "12", "--restarts", "2", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["max_iters"] == 10000
        assert [rec["stop"] for rec in payload["per_restart"]] == ["converged"] * 2
        assert abs(payload["gap"]) <= 1e-9

    def test_saves_instance(self, tmp_path, capsys):
        sink = tmp_path / "found.json"
        main(self.ARGS + ["--output", str(sink)])
        capsys.readouterr()
        inst = load_instance(str(sink))
        assert inst.order == 2
        assert inst.mode == "theorem"


class TestTableCommand:
    def test_csv_shape_and_values(self, capsys):
        code = main(["table", "--max-n", "6", "--format", "csv"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == EXIT_OK
        assert out[0] == "n,formula,bisection,abs_diff"
        assert len(out) == 6
        for line in out[1:]:
            n_s, formula_s, bisection_s, diff_s = line.split(",")
            n = int(n_s)
            assert float(formula_s) == n / (3.0 * n - 2.0)
            assert abs(float(bisection_s) - float(formula_s)) <= 1e-9
            assert float(diff_s) <= 1e-9

    def test_text_format_has_header(self, capsys):
        main(["table", "--max-n", "3"])
        out = capsys.readouterr().out
        assert "formula" in out and "bisection" in out

    def test_builds_no_order_max_n_matrix(self, capsys):
        # one pass over the gap's diagonal and superdiagonal: O(max_n)
        for max_n in (400, 1000):
            tracemalloc.start()
            try:
                assert main(["table", "--max-n", str(max_n), "--format", "csv"]) == EXIT_OK
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert peak < 2e6, max_n

    def test_an_order_a_dense_build_could_not_hold(self, capsys):
        # the order-20000 staircase's three dense matrices take 19 GB
        assert main(["table", "--max-n", "20000", "--format", "csv"]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert last[0] == "20000"
        assert abs(float(last[2]) - 20000 / 59998) <= 1e-9

    def test_rows_match_a_build_per_order(self):
        # the route that builds each order's staircase on its own
        expected = []
        for n in range(2, 151):
            inst = general_witness(n)
            bisected = critical_radius(alpha_series(inst), float(np.trace(inst.S).real))
            formula = n / (3.0 * n - 2.0)
            expected.append((n, formula, bisected, abs(formula - bisected)))
        assert cli._table_rows(150) == expected

    def test_order_thousand_csv_digest(self, capsys):
        for max_n, digest in ((1000, TABLE_1000_CSV_SHA256), (20000, TABLE_20000_CSV_SHA256)):
            assert main(["table", "--max-n", str(max_n), "--format", "csv"]) == EXIT_OK
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_payload_built_only_for_json(self):
        for fmt in ("text", "csv"):
            assert cli.cmd_table(argparse.Namespace(max_n=4, format=fmt)).payload is None
        payload = cli.cmd_table(argparse.Namespace(max_n=4, format="json")).payload
        assert [row["n"] for row in payload] == [2, 3, 4]

    def test_rejects_small_max_n(self, capsys):
        assert main(["table", "--max-n", "1"]) == EXIT_INPUT
        capsys.readouterr()

    def test_output_file(self, tmp_path, capsys):
        sink = tmp_path / "table.csv"
        main(["table", "--max-n", "4", "--format", "csv", "--output", str(sink)])
        capsys.readouterr()
        assert sink.read_text().startswith("n,formula,bisection,abs_diff\n")


class TestScalarCommand:
    def test_moebius_holds(self, capsys):
        code = main(["scalar", "--moebius", "0.9", "--r", "0.3333333333333333"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "holds: yes" in out

    def test_moebius_fails_beyond_third(self, capsys):
        code = main(["scalar", "--moebius", "0.9", "--r", "0.4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATED
        assert payload["holds"] is False
        assert abs(payload["bohr_sum"] - 1.01875) <= 1e-9

    def test_explicit_coefficients(self, capsys):
        code = main(["scalar", "--coeffs", "1,0.5j", "--r", "0.5"])
        assert code == EXIT_OK
        capsys.readouterr()

    def test_coeffs_with_tail(self, capsys):
        code = main(
            ["scalar", "--coeffs", "0.5", "--tail", "0.25", "0.5", "--r", "0.2", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        expected = 0.5 + 0.25 * 0.2 / (1.0 - 0.5 * 0.2)
        assert abs(payload["bohr_sum"] - expected) <= 1e-12

    @pytest.mark.parametrize("gridpoints", ["4096", "1000"])
    @pytest.mark.parametrize("coeffs", ["0.5", "1,0.5j,-0.25", "0.7-0.1j," + "0," * 40 + "0.2"])
    def test_zero_tail_prints_what_no_tail_prints(self, capsys, gridpoints, coeffs):
        # a zero tail adds nothing to the sum and a signed zero at every
        # grid point; 4096 takes the power-of-two route for one coefficient
        for fmt in ("text", "json"):
            argv = ["scalar", "--coeffs", coeffs, "--r", "0.3", "--gridpoints", gridpoints, "--format", fmt]
            bare = run_strict(argv, capsys)
            for rho in ("0.5", "-0.9", "0"):
                assert run_strict([*argv, "--tail", "0", rho], capsys) == bare
                assert run_strict([*argv, "--tail", "-0", rho], capsys) == bare

    def test_requires_exactly_one_source(self, capsys):
        assert main(["scalar", "--r", "0.2"]) == EXIT_INPUT
        assert main(["scalar", "--moebius", "0.5", "--coeffs", "1", "--r", "0.2"]) == EXIT_INPUT
        capsys.readouterr()

    def test_unparseable_coefficient(self, capsys):
        assert main(["scalar", "--coeffs", "1,,2", "--r", "0.2"]) == EXIT_INPUT
        assert "coefficient 1" in capsys.readouterr().err

    def test_coefficient_parsing_matches_the_token_walk(self):
        def walk(text):
            # one stripped token at a time, naming the first bad one
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

        def outcome(parse, text):
            try:
                return repr(parse(text))
            except ValueError as exc:
                return f"ValueError: {exc}"

        # "\x1c4\x1f" is rejected by complex() and parsed after str.strip()
        tokens = [" 1 ", "\t2\n", " 1", "", " ", "1 + 2j", "1+2j", "( -0.5j )", "\xa03\u2003", "\x1c4\x1f",
                  "-0", "nan", "-inf", "1e400", "1_000", "\u0661\u0662", "0x10", "j", "1e", "\x00", "1.5e308-2j"]
        texts = tokens + [f"{a},{b}" for a in tokens for b in tokens] + [",".join(tokens)]
        for text in texts:
            assert outcome(cli._parse_coeffs, text) == outcome(walk, text), repr(text)

    def test_bad_radius(self, capsys):
        assert main(["scalar", "--moebius", "0.5", "--r", "1.0"]) == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--coeffs", "1e308,1e308", "--r", "0.99"],  # the Bohr sum
            ["--coeffs", "1,1", "--tail", "1e308", "0.5", "--r", "0.5"],  # the FFT estimate
            ["--coeffs", "1.5e308+1.5e308j", "--r", "0.5"],  # a modulus
        ],
    )
    def test_overflow_exits_one(self, capsys, extra):
        for fmt in ("text", "json"):
            code, out, err = run_strict(["scalar", *extra, "--format", fmt], capsys)
            assert_one_error_line(code, out, err)

    @pytest.mark.parametrize(
        "coeffs, quantity",
        [
            ("1.5e308+1.5e308j", "the modulus |a_0| of coefficient 0"),
            ("1,0.5,1.5e308-1.5e308j", "the modulus |a_2| of coefficient 2"),
        ],
    )
    def test_overflowing_modulus_is_named(self, capsys, coeffs, quantity):
        for fmt in ("text", "json"):
            argv = ["scalar", "--coeffs", coeffs, "--r", "0.5", "--format", fmt]
            code, out, err = run_strict(argv, capsys)
            assert_one_error_line(code, out, err)
            assert err == f"error: {quantity} {OVERFLOW_TAIL}\n"


# a valid command line of each subcommand
VALID = {
    "verify": ["verify", "instance.json", "--r", "0.3"],
    "witness": ["witness", "--family", "n3"],
    "radius-search": ["radius-search", "--n", "2", "--restarts", "1"],
    "table": ["table", "--max-n", "3"],
    "scalar": ["scalar", "--moebius", "0.5", "--r", "0.3"],
}


class TestArgumentErrors:
    def test_usage_errors_exit_one(self, capsys):
        for argv in ([], ["verify"], ["nonsense"], ["radius-search"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_INPUT
            capsys.readouterr()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-0.5", "abc"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol):
        path = write_instance(tmp_path, general_witness(3))
        for argv in (
            ["verify", path, "--r", "0.3"],
            ["scalar", "--moebius", "0.5", "--r", "0.3"],
            ["witness", "--family", "n3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tol", tol])
            assert exc.value.code == EXIT_INPUT
            assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [(command, ["--threads", "1"]) for command in VALID]
        + [(command, ["--seed", "0"]) for command in ("verify", "witness", "table", "scalar")]
        + [(command, ["--tol", "0"]) for command in ("radius-search", "table")]
        + [(command, ["--format", "csv"]) for command in ("verify", "witness", "radius-search", "scalar")]
        + [("radius-search", ["--simplex-tol", "1e-9"])],
    )
    def test_removed_option_is_a_usage_error(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main(VALID[command] + option)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT
        assert captured.out == ""
        # argparse's usage error: a usage line, then one error line naming the option
        assert captured.err.startswith("usage: bohrlab")
        last = captured.err.splitlines()[-1]
        assert ": error: " in last and option[0] in last
        assert "Traceback" not in captured.err

    def test_each_subcommand_takes_only_the_options_it_reads(self):
        commands = cli.build_parser().commands
        shared = {"-h", "--help", "--output", "--format"}
        expected = {
            "verify": shared | {"--tol", "--r"},
            "witness": shared | {"--tol", "--family", "--n", "--r-target"},
            "radius-search": shared | {"--n", "--restarts", "--max-iters", "--seed"},
            "table": shared | {"--max-n"},
            "scalar": shared | {"--tol", "--moebius", "--coeffs", "--tail", "--r", "--gridpoints"},
        }
        options = {name: p._option_string_actions for name, p in commands.items()}
        assert {name: set(opts) for name, opts in options.items()} == expected
        for name, opts in options.items():
            formats = ("text", "json", "csv") if name == "table" else ("text", "json")
            assert tuple(opts["--format"].choices) == formats

    def test_output_help_names_what_each_subcommand_writes(self):
        commands = cli.build_parser().commands
        helps = {name: p._option_string_actions["--output"].help for name, p in commands.items()}
        written = {
            "verify": "JSON result",
            "scalar": "JSON result",
            "witness": "instance document",
            "radius-search": "instance document",
            "table": "printed table",
        }
        assert set(helps) == set(written)
        for name, what in written.items():
            assert what in helps[name], name

    def test_zero_tolerance_is_the_strict_setting(self, tmp_path, capsys):
        path = write_instance(tmp_path, general_witness(3))
        assert main(["verify", path, "--r", "0.3", "--tol", "0"]) != EXIT_INPUT
        assert main(["scalar", "--moebius", "0.5", "--r", "0.3", "--tol", "0"]) == EXIT_OK
        assert main(["witness", "--family", "n3", "--tol", "0"]) == EXIT_OK
        capsys.readouterr()

    def test_order_flag_rejected_for_order_three_family(self, capsys):
        assert main(["witness", "--family", "n3", "--n", "7"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--n" in captured.err
        assert captured.out == ""

    def test_order_flag_rejected_for_remark_family(self, capsys):
        argv = ["witness", "--family", "remark-n2", "--r-target", "0.4", "--n", "2"]
        assert main(argv) == EXIT_INPUT
        assert "--n" in capsys.readouterr().err

    def test_target_flag_rejected_outside_remark_family(self, capsys):
        for argv in (
            ["witness", "--family", "general-n", "--n", "3", "--r-target", "0.4"],
            ["witness", "--family", "n3", "--r-target", "0.4"],
        ):
            assert main(argv) == EXIT_INPUT
            assert "--r-target" in capsys.readouterr().err

    def test_an_order_too_large_to_allocate_exits_one(self, capsys, monkeypatch):
        # raised by stand-ins: a real huge allocation may succeed lazily
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 TiB for an array")

        monkeypatch.setattr(cli, "gap_blocks", refuse)
        monkeypatch.setattr(cli, "general_witness", refuse)
        monkeypatch.setattr(cli, "search", refuse)
        for argv in (
            ["table", "--max-n", "1000000"],
            ["witness", "--family", "general-n", "--n", "200000"],
            ["radius-search", "--n", "100000"],
        ):
            assert main(argv) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: Unable to allocate 14.9 TiB for an array\n"

    def test_a_bare_memory_error_is_named(self, capsys, monkeypatch):
        def refuse(P, c):
            raise MemoryError

        monkeypatch.setattr(cli, "gap_blocks", refuse)
        assert main(["table", "--max-n", "5"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{doc}", "--r", "0.3"],
            ["witness", "--family", "n3"],
            ["radius-search", "--n", "2", "--restarts", "2"],
            ["table", "--max-n", "3"],
            ["scalar", "--moebius", "0.5", "--r", "0.3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_failed_output_write_prints_nothing(self, tmp_path, capsys, argv):
        doc = write_instance(tmp_path, general_witness(2))
        target = tmp_path / "missing" / "out.json"
        code = main([a.format(doc=doc) for a in argv] + ["--output", str(target)])
        out, err = capsys.readouterr()
        assert_one_error_line(code, out, err)
        assert "No such file or directory" in err
        assert not target.parent.exists()

    def test_tail_flag_rejected_with_moebius(self, capsys):
        argv = ["scalar", "--moebius", "0.5", "--tail", "1", "0.5", "--r", "0.2"]
        assert main(argv) == EXIT_INPUT
        assert "--tail" in capsys.readouterr().err


class TestFixedCost:
    """The argparse tree is built once per process, and reusing it changes
    no output."""

    @staticmethod
    def call(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_built_once_for_a_mixed_sequence(self, tmp_path, capsys, monkeypatch):
        # argparse wraps usage lines at the terminal width: pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        builds = []
        real = cli.build_parser

        def counting_build():
            builds.append(None)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        monkeypatch.setattr(cli, "_parser", None)
        path = write_instance(tmp_path, sine_witness(3))
        sequence = [
            ["verify", path, "--r", "0.3", "--format", "json"],
            ["witness", "--family", "remark-n2", "--r-target", "0.4"],
            ["verify", path, "--r", "0.6"],
            ["scalar", "--moebius", "0.9", "--r", "0.4", "--format", "json"],
            ["table", "--max-n", "5", "--format", "csv"],
            ["witness", "--family", "bogus"],  # a usage error
            ["scalar", "--moebius", "0.5", "--r", "0.3", "--tol", "nan"],
            ["verify", path, "--r", "0.3"],
        ]
        results = [self.call(argv, capsys) for argv in sequence]
        assert len(builds) == 1
        assert [code for code, _, _ in results] == [
            EXIT_OK, EXIT_OK, EXIT_VIOLATED, EXIT_VIOLATED, EXIT_OK, EXIT_INPUT, EXIT_INPUT, EXIT_OK
        ]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
        for argv, got in zip(sequence, results):
            command = [sys.executable, "-m", "bohrlab.cli", *argv]
            fresh = subprocess.run(command, capture_output=True, text=True, env=env)
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == got, argv

    def test_handler_looked_up_at_each_call(self, capsys, monkeypatch):
        # a wrapper installed after the parser exists still runs, as the
        # benchmark's tracer needs
        assert main(["scalar", "--moebius", "0.5", "--r", "0.3"]) == EXIT_OK
        seen = []
        real = cli.cmd_scalar
        monkeypatch.setattr(cli, "cmd_scalar", lambda args: seen.append(args.r) or real(args))
        assert main(["scalar", "--moebius", "0.5", "--r", "0.25"]) == EXIT_OK
        assert seen == [0.25]
        capsys.readouterr()

    def test_output_file_written_only_when_asked(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, general_witness(2))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_document", lambda inst, literal=None: pytest.fail("built a document"))
        for argv in (
            ["verify", path, "--r", "0.25"],
            ["scalar", "--moebius", "0.5", "--r", "0.3"],
            ["table", "--max-n", "3"],
            ["witness", "--family", "general-n", "--n", "3"],
            ["radius-search", "--n", "2", "--restarts", "2"],
        ):
            assert main(argv) == EXIT_OK
        assert os.listdir(tmp_path) == ["instance.json"]
        capsys.readouterr()


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def golden_argvs():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [entry["argv"] for entry in json.load(fh)["entries"]]


# the lines that exercise argparse itself: help, usage errors, an
# abbreviated option and the -- separator
ARGPARSE_LINES = [
    [],
    ["bogus"],
    ["-h"],
    ["verify", "-h"],
    ["verify", "doc.json", "--r", "0.3", "extra"],
    ["scalar", "--r"],
    ["witness", "--family", "bogus"],
    ["radius-search", "--n", "x"],
    ["scalar", "--moebius", "0.5", "--r", "0.3", "--tol", "nan"],
    ["scalar", "--moeb", "0.5", "--r", "0.3"],
    ["verify", "--r", "0.3", "--", "doc.json"],
    ["--", "verify", "doc.json", "--r", "0.3"],
    ["scalar", "--moebius", "0.5", "--r", "0.3", "--bogus"],
]


class TestDispatch:
    """main parses a line once, with its subcommand's parser, and gets
    what the full tree's parse_args gets: the same namespace, or the
    same exit code and the same text."""

    @staticmethod
    def parse(parse, argv, capsys):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", golden_argvs() + ARGPARSE_LINES, ids=lambda argv: " ".join(argv)[:80])
    def test_same_parse_as_the_full_tree(self, argv, capsys, monkeypatch):
        # argparse wraps usage lines at the terminal width: pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        expected = self.parse(cli._parser.parse_args, argv, capsys)
        assert self.parse(cli._parse, argv, capsys) == expected

    def test_a_valid_line_never_runs_the_full_tree(self, tmp_path, capsys, monkeypatch):
        write_instance(tmp_path, general_witness(2))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        full = []
        real = cli._parser.parse_args
        monkeypatch.setattr(cli._parser, "parse_args", lambda argv: full.append(argv) or real(argv))
        for argv in VALID.values():
            assert main(argv) == EXIT_OK
        assert full == []
        # a line with an argument left over goes to the full tree, once
        with pytest.raises(SystemExit):
            main(VALID["scalar"] + ["--bogus"])
        assert full == [VALID["scalar"] + ["--bogus"]]
        capsys.readouterr()


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_sessions():
    """The README's shell sessions: per fenced block that opens with `$ `,
    each `$ bohrlab ...` command with the stdout printed under it, and
    each `$ echo $?` with the exit code of the command before it."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(\$ .*?)^```$", fh.read(), re.M | re.S)
    sessions = []
    for block in blocks:
        steps = []
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            printed = printed.rstrip("\n")
            steps.append((command, printed + "\n" if printed else ""))
        sessions.append(steps)
    return sessions


class TestReadme:
    """Every README example prints what the README shows."""

    def test_every_example_is_checked(self):
        commands = [c for steps in readme_sessions() for c, _ in steps if c.startswith("bohrlab ")]
        assert len(commands) == 7

    @pytest.mark.parametrize("steps", readme_sessions(), ids=lambda steps: steps[0][0])
    def test_session(self, steps, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = None
        for command, printed in steps:
            if command == "echo $?":
                assert code == int(printed), command
                continue
            argv = shlex.split(command)
            assert argv[0] == "bohrlab"
            code = main(argv[1:])
            assert capsys.readouterr().out == printed, command
