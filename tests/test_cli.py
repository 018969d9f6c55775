"""Command-line interface: documents, exit codes, output formats."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

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
from bohrlab.series import BohrInstance, SequenceSpec
from bohrlab.witnesses import general_witness, remark_two_witness, sine_witness

SQRT2 = math.sqrt(2.0)


def write_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    save_instance(inst, str(path))
    return str(path)


def overflow_instance(scale, mode="theorem"):
    """A = [[0, s], [0, 0]], S = diag(s, s) and the shift: every entry
    finite, but at s = 1e308 Tr(S) and the gap overflow."""
    a = np.array([[0.0, scale], [0.0, 0.0]])
    return BohrInstance(a, np.diag([scale, scale]), SequenceSpec.constant(np.eye(2, k=1)), mode)


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

    def test_output_file_round_trips(self, tmp_path, capsys):
        sink = tmp_path / "witness.json"
        main(["witness", "--family", "remark-n2", "--r-target", "0.4", "--output", str(sink)])
        capsys.readouterr()
        inst = load_instance(str(sink))
        assert inst.mode == "relaxed"
        assert inst.order == 2


class TestRadiusSearchCommand:
    ARGS = [
        "radius-search",
        "--n", "2",
        "--restarts", "4",
        "--max-iters", "300",
        "--seed", "3",
        "--threads", "1",
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

    def test_thread_count_does_not_change_result(self, capsys):
        main(self.ARGS + ["--format", "json"])
        serial = json.loads(capsys.readouterr().out)
        main(self.ARGS[:-2] + ["--threads", "4", "--format", "json"])
        pooled = json.loads(capsys.readouterr().out)
        assert serial["per_restart_best"] == pooled["per_restart_best"]

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

    def test_holds_one_instance_at_a_time(self, capsys):
        # three order-n complex matrices make one instance (48 n^2 bytes);
        # building a row must not keep the last one or float copies alive
        n = 400
        tracemalloc.start()
        try:
            assert main(["table", "--max-n", str(n), "--format", "csv"]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 4 * 16 * n * n

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

    def test_requires_exactly_one_source(self, capsys):
        assert main(["scalar", "--r", "0.2"]) == EXIT_INPUT
        assert main(["scalar", "--moebius", "0.5", "--coeffs", "1", "--r", "0.2"]) == EXIT_INPUT
        capsys.readouterr()

    def test_unparseable_coefficient(self, capsys):
        assert main(["scalar", "--coeffs", "1,,2", "--r", "0.2"]) == EXIT_INPUT
        assert "coefficient 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    def test_simplex_tolerance_must_be_finite_and_positive(self, capsys, tol):
        argv = ["radius-search", "--n", "2", "--restarts", "2", f"--simplex-tol={tol}"]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "simplex_tol" in captured.err
        assert captured.out == ""

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

    def test_tail_flag_rejected_with_moebius(self, capsys):
        argv = ["scalar", "--moebius", "0.5", "--tail", "1", "0.5", "--r", "0.2"]
        assert main(argv) == EXIT_INPUT
        assert "--tail" in capsys.readouterr().err
