"""Hypothesis reporting for both condition sets, plus the trace lemma."""

import math

import numpy as np
import pytest

from bohrlab.hypotheses import (
    RELAXED_CONDITIONS,
    THEOREM_CONDITIONS,
    ConditionReport,
    PreconditionViolatedError,
    check_hypotheses,
    check_relaxed_hypotheses,
    check_theorem_hypotheses,
    orthogonality_check,
)
from bohrlab.linalg import NonFiniteError
from bohrlab.series import BohrInstance, SequenceSpec
from bohrlab.witnesses import general_witness, remark_two_witness, sine_witness


def random_upper(rng, n, strict=False):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.triu(a, 1 if strict else 0)


def diagonal_budget(a):
    """Real diagonal budget comfortably dominating Re(a)."""
    h = 0.5 * (a + a.conj().T)
    bound = float(np.max(np.abs(h))) * a.shape[0] + 1.0
    return np.diag(np.full(a.shape[0], bound))


def random_contraction(rng, n):
    m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    norm = np.linalg.norm(m, 2)
    return m / max(1.0, norm * (1.0 + 1e-12))


class TestConditionNames:
    def test_theorem_names_pinned(self):
        assert THEOREM_CONDITIONS == (
            "upper_triangular_a",
            "nonnegative_trace_a",
            "real_diagonal_s",
            "gap_psd",
            "strictly_upper_sequence",
            "sequence_norm",
        )

    def test_relaxed_names_pinned(self):
        assert RELAXED_CONDITIONS == (
            "nonnegative_trace_a",
            "hermitian_s",
            "gap_psd",
            "orthogonal_to_s",
            "orthogonal_to_a",
            "sequence_norm",
        )

    def test_reports_follow_declared_order(self):
        inst = general_witness(3)
        report = check_theorem_hypotheses(inst)
        assert tuple(c.name for c in report.conditions) == THEOREM_CONDITIONS
        relaxed = check_relaxed_hypotheses(inst)
        assert tuple(c.name for c in relaxed.conditions) == RELAXED_CONDITIONS

    def test_unknown_condition_lookup(self):
        report = check_theorem_hypotheses(general_witness(2))
        with pytest.raises(KeyError):
            report.condition("no_such_condition")


class TestTheoremMode:
    def test_staircase_witnesses_pass(self):
        for n in (2, 3, 7, 12):
            report = check_theorem_hypotheses(general_witness(n))
            assert report.overall
            assert all(c.slack >= -1e-12 for c in report.conditions)

    def test_order_three_witness_passes(self):
        report = check_theorem_hypotheses(sine_witness(3))
        assert report.overall
        assert report.condition("gap_psd").slack >= -1e-12

    def test_full_sequence_matrix_fails_triangularity(self):
        inst = remark_two_witness(0.35)
        report = check_theorem_hypotheses(inst)
        assert not report.overall
        assert not report.condition("upper_triangular_a").passed
        assert not report.condition("strictly_upper_sequence").passed

    def test_each_sequence_matrix_scaled_by_its_own_size(self):
        # the 1e-6 lower entry of the small matrix fails against its own
        # scale 1, though the large matrix's scale 1e6 would forgive it
        big, small = 1e6 * np.eye(2, k=1), 1e-6 * np.eye(2, k=-1)
        for mats, passed in (([big, small], False), ([small, big], False), ([big, big], True)):
            inst = BohrInstance(np.eye(2), 2.0 * np.eye(2), SequenceSpec.finite(mats))
            cond = check_theorem_hypotheses(inst).condition("strictly_upper_sequence")
            assert cond.passed is passed
            assert cond.slack == (0.0 if passed else -1e-6)

    def test_oversized_sequence_norm_fails(self):
        inst = BohrInstance(
            np.eye(2), 2.0 * np.eye(2), SequenceSpec.constant(2.0 * np.eye(2, k=1))
        )
        report = check_theorem_hypotheses(inst)
        cond = report.condition("sequence_norm")
        assert not cond.passed
        assert abs(cond.slack + 1.0) <= 1e-12

    def test_negative_gap_reported_with_magnitude(self):
        inst = BohrInstance(3.0 * np.eye(2), np.eye(2), SequenceSpec.finite([]))
        report = check_theorem_hypotheses(inst)
        cond = report.condition("gap_psd")
        assert not cond.passed
        assert abs(cond.slack + 2.0) <= 1e-12

    def test_zero_tolerance_fails_a_small_real_negative_eigenvalue(self):
        # the LAPACK rounding floor, n eps times the scale, is far below
        # a true eigenvalue of -1e-12 times the scale
        n = 8
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = np.zeros(n)
        values[0], values[-1] = float(n), -1e-12 * n
        gap = (q * values) @ q.T
        inst = BohrInstance.from_gap(gap, np.eye(n, k=1), 1.0)
        cond = check_theorem_hypotheses(inst, tol=0.0).condition("gap_psd")
        assert not cond.passed
        assert abs(cond.slack + 1e-12 * n) <= 1e-13 * n

    def test_nonreal_trace_fails(self):
        a = np.array([[2j, 0.0], [0.0, 0.0]])
        inst = BohrInstance(a, np.eye(2), SequenceSpec.finite([]))
        report = check_theorem_hypotheses(inst)
        cond = report.condition("nonnegative_trace_a")
        assert not cond.passed
        assert cond.slack < 0.0

    def test_mode_tag_is_advisory(self):
        # reports run on any instance regardless of its declared mode
        inst = remark_two_witness(0.35)
        assert inst.mode == "relaxed"
        assert not check_theorem_hypotheses(inst).overall
        assert check_relaxed_hypotheses(inst).overall
        assert check_hypotheses(inst).mode == "relaxed"


class TestRelaxedMode:
    def test_remark_witness_passes(self):
        report = check_relaxed_hypotheses(remark_two_witness(0.35))
        assert report.overall
        assert all(c.slack >= -1e-12 for c in report.conditions)

    def test_theorem_pass_with_diagonal_budget_implies_relaxed_pass(self):
        # diagonal S traces against strictly upper sequences, so the
        # orthogonality conditions come for free
        rng = np.random.default_rng(16)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            a = random_upper(rng, n)
            a = a - np.diag(np.diag(a).imag * 1j)
            tr = np.trace(a).real
            if tr < 0:
                a = a - 2.0 * np.diag(np.full(n, tr / n))
            seq = SequenceSpec.constant(random_contraction(rng, n))
            inst = BohrInstance(a, diagonal_budget(a), seq)
            theorem = check_theorem_hypotheses(inst)
            if theorem.overall:
                assert check_relaxed_hypotheses(inst).overall

    def test_non_hermitian_budget_flagged(self):
        s = np.array([[1.0, 1.0], [0.0, 1.0]])
        inst = BohrInstance(np.zeros((2, 2)), s, SequenceSpec.finite([]))
        report = check_relaxed_hypotheses(inst)
        assert not report.condition("hermitian_s").passed

    def test_nonorthogonal_sequence_flagged(self):
        a = np.eye(2)
        seq = SequenceSpec.constant(np.eye(2))
        inst = BohrInstance(a, 2.0 * np.eye(2), seq, mode="relaxed")
        report = check_relaxed_hypotheses(inst)
        assert not report.condition("orthogonal_to_s").passed
        assert not report.condition("orthogonal_to_a").passed


class TestOrthogonalityLemma:
    def test_vanishes_for_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            x = random_upper(rng, n) * rng.uniform(0.1, 10.0)
            a = random_upper(rng, n, strict=True) * rng.uniform(0.1, 10.0)
            assert orthogonality_check(x, a)
            # the product trace is a sum of structural zeros, so it is exact
            assert abs(np.trace(x @ a)) == 0.0

    def test_identity_against_strict_upper(self):
        assert orthogonality_check(np.eye(4), np.eye(4, k=1))

    def test_zero_matrices(self):
        assert orthogonality_check(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PreconditionViolatedError):
            orthogonality_check(np.eye(2), np.eye(3, k=1))

    def test_rejects_non_upper_x(self):
        x = np.ones((2, 2))
        with pytest.raises(PreconditionViolatedError):
            orthogonality_check(x, np.eye(2, k=1))

    def test_rejects_non_strict_a(self):
        with pytest.raises(PreconditionViolatedError):
            orthogonality_check(np.eye(2), np.eye(2))


class TestNonFinite:
    """Finite entries whose arithmetic overflows: an error, never a verdict."""

    @staticmethod
    def check_both_modes(inst, match):
        for check in (check_theorem_hypotheses, check_relaxed_hypotheses):
            with pytest.raises(NonFiniteError, match=match):
                check(inst)

    def test_slack_must_be_finite(self):
        for slack in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteError, match="gap_psd"):
                ConditionReport("gap_psd", True, slack)
        assert ConditionReport("gap_psd", False, -1e308).slack == -1e308

    def test_gap_that_overflows(self):
        # Re(A) and S are finite, the off-diagonal gap -1.7e308 - 0.85e308 is not
        a = np.array([[0.0, 1.7e308], [0.0, 0.0]])
        s = np.array([[0.0, -1.7e308], [-1.7e308, 0.0]])
        inst = BohrInstance(a, s, SequenceSpec.constant(np.eye(2, k=1)))
        self.check_both_modes(inst, "the gap S - Re[(]A[)] is not finite")

    def test_gap_near_the_float_limit_is_decided(self):
        # the gap [[1e308, -5e307], [-5e307, 1e308]] is finite, and so is
        # its Hermitian part when it is halved before adding
        a = np.array([[0.0, 1e308], [0.0, 0.0]])
        inst = BohrInstance(a, np.diag([1e308, 1e308]), SequenceSpec.constant(np.eye(2, k=1)))
        for check in (check_theorem_hypotheses, check_relaxed_hypotheses):
            gap = check(inst).condition("gap_psd")
            assert gap.passed
            assert gap.slack == pytest.approx(5e307, rel=1e-12)

    def test_gap_eigenvalue_that_overflows(self):
        # the gap 8e307 J has the eigenvalue 2.4e308 = inf in float
        inst = BohrInstance.from_gap(np.full((3, 3), 8e307), np.eye(3, k=1), 0.0)
        self.check_both_modes(inst, "an eigenvalue of the gap")

    def test_trace_that_overflows(self):
        a = np.diag([1e308, 1e308])
        inst = BohrInstance(a, a, SequenceSpec.constant(np.eye(2, k=1)))
        self.check_both_modes(inst, "nonnegative_trace_a slack")

    def test_trace_whose_imaginary_sum_is_nan_fails(self, nan_trace_instance):
        # the exact trace 5+1j is not real; a nan deviation must not pass
        self.check_both_modes(nan_trace_instance, "nonnegative_trace_a slack")

    def test_sequence_norm_that_overflows(self):
        m = np.full((2, 2), 1e308)
        inst = BohrInstance(np.eye(2), 2.0 * np.eye(2), SequenceSpec.constant(m))
        with pytest.raises(NonFiniteError, match="sequence_norm slack"):
            check_theorem_hypotheses(inst)
        # the relaxed set meets the overflow first in Tr(S M)
        with pytest.raises(NonFiniteError, match="orthogonal_to_s slack"):
            check_relaxed_hypotheses(inst)

    def test_large_finite_instance_still_decides(self):
        # the same shape at 1e8 overflows nothing
        a = np.array([[0.0, 1e8], [0.0, 0.0]])
        inst = BohrInstance(a, np.diag([1e8, 1e8]), SequenceSpec.constant(np.eye(2, k=1)))
        assert check_theorem_hypotheses(inst).overall
