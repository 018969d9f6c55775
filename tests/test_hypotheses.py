"""Hypothesis reporting for both condition sets, plus the trace lemma."""

import math
import struct

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
from bohrlab.linalg import (
    DEFAULT_TOL,
    NonFiniteError,
    NotHermitianError,
    entries_within_tol,
    frobenius_norm,
    hermitian_deviation,
    hermitian_eigenvalues,
    is_strictly_upper,
    is_upper,
    max_abs,
    modulus,
    operator_norm,
    re_part,
    require_finite,
    within_tol,
)
from bohrlab.series import BohrInstance, SequenceSpec, trace_is_real
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


class TestRuleAgreement:
    """The linalg predicates and the hypothesis conditions share one
    relative-tolerance rule, so seeded matrices placed just inside
    (factor 0.99) and just outside (1.01) it get the same verdict."""

    FACTORS = (0.99, 1.01)

    @staticmethod
    def near_rule(rng, base, mask, factor):
        """base plus a random part on mask whose largest entry is factor *
        DEFAULT_TOL * max|base|; max|base| >= 1, so that is the rule's
        bound to within the part's own size."""
        part = (rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)) * mask
        return base + part * (factor * DEFAULT_TOL * max_abs(base) / max_abs(part))

    @staticmethod
    def scaled(rng, m):
        return m * 10.0 ** rng.integers(1, 9)

    def test_is_upper_and_upper_triangular_a(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            for factor in self.FACTORS:
                x = self.near_rule(rng, self.scaled(rng, random_upper(rng, n)), np.tri(n, k=-1), factor)
                inst = BohrInstance(x, np.zeros((n, n)), SequenceSpec.finite([]))
                verdict = check_theorem_hypotheses(inst).condition("upper_triangular_a").passed
                assert is_upper(x) is verdict is (factor < 1.0)

    def test_is_strictly_upper_and_strictly_upper_sequence(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            for factor in self.FACTORS:
                base = self.scaled(rng, random_upper(rng, n, strict=True))
                m = self.near_rule(rng, base, np.tri(n), factor)
                inst = BohrInstance(np.zeros((n, n)), np.zeros((n, n)), SequenceSpec.finite([m]))
                verdict = check_theorem_hypotheses(inst).condition("strictly_upper_sequence").passed
                assert is_strictly_upper(m) is verdict is (factor < 1.0)

    def test_orthogonality_check_and_orthogonal_to_a(self):
        # Tr(U V) is exactly 0 for upper U and strictly upper V, so Tr(x a)
        # is that of the lower part of x against V; each lower entry is
        # phase-aligned with its V entry, and U's one dominant entry keeps
        # the lower part within is_upper's rule while |Tr(x a)| sits at
        # factor * DEFAULT_TOL * ||x||_F ||a||_F
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            u = random_upper(rng, n)
            u[0, n - 1] = 10.0 * n
            v = self.scaled(rng, random_upper(rng, n, strict=True))
            aligned = np.conj(v.T) / np.where(v.T == 0, 1.0, np.abs(v.T))
            pairing = abs(np.sum(aligned * v.T))
            for factor in self.FACTORS:
                bound = DEFAULT_TOL * np.linalg.norm(u) * np.linalg.norm(v)
                x = u + aligned * (factor * bound / pairing)
                inst = BohrInstance(x, np.zeros((n, n)), SequenceSpec.finite([v]), "relaxed")
                verdict = check_relaxed_hypotheses(inst).condition("orthogonal_to_a").passed
                assert orthogonality_check(x, v) is verdict is (factor < 1.0)

    def test_hermitian_eigenvalues_and_hermitian_s(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = self.scaled(rng, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for factor in self.FACTORS:
                # a strictly upper part p makes s - s* = p - p*, whose
                # largest entry is max|p|
                s = self.near_rule(rng, g + g.conj().T, np.triu(np.ones((n, n)), 1), factor)
                inst = BohrInstance(np.zeros((n, n)), s, SequenceSpec.finite([]), "relaxed")
                verdict = check_relaxed_hypotheses(inst).condition("hermitian_s").passed
                try:
                    hermitian_eigenvalues(s)
                    raised = False
                except NotHermitianError:
                    raised = True
                assert verdict is (not raised) is (factor < 1.0)


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

    def test_orthogonality_bound_that_overflows_fails(self):
        # tol ||S||_F ||A_1||_F overflows; an infinite bound would pass
        # any |Tr(S A_1)|, here 1.35e308
        s = np.diag([1.5e308, 0.0])
        inst = BohrInstance(np.zeros((2, 2)), s, SequenceSpec.constant(np.diag([0.9, 0.9])), "relaxed")
        report = check_relaxed_hypotheses(inst)
        cond = report.condition("orthogonal_to_s")
        assert not cond.passed
        assert cond.slack == -1.35e308
        assert [c.name for c in report.conditions if not c.passed] == ["orthogonal_to_s"]

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "nan"])
    def test_orthogonality_trace_that_overflows(self, sign):
        # Tr(S A_1) = 2e308 + 2e308 sign: inf for diag(2, 2), and inf - inf
        # = nan for diag(2, -2); neither is a slack
        s = np.diag([1e308, 1e308])
        seq = SequenceSpec.constant(np.diag([2.0, 2.0 * sign]))
        inst = BohrInstance(np.zeros((2, 2)), s, seq, "relaxed")
        with pytest.raises(NonFiniteError, match="the orthogonal_to_s slack is not finite"):
            check_relaxed_hypotheses(inst)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_triangle_scale_that_overflows_still_bounds(self):
        # max|A| = |1.5e308 + 1.5e308j| is inf, and the lower entry 1e300
        # exceeds tol max|A| = 2.1e298; the other conditions hold
        huge = 1.5e308 + 1.5e308j
        a = np.array([[huge, 0.0], [1e300, -huge]])
        inst = BohrInstance(a, np.diag([1.6e308, -1.4e308]), SequenceSpec.constant(np.eye(2, k=1)))
        report = check_theorem_hypotheses(inst)
        cond = report.condition("upper_triangular_a")
        assert not cond.passed
        assert cond.slack == -1e300
        assert [c.name for c in report.conditions if not c.passed] == ["upper_triangular_a"]
        # the same matrix without the lower entry passes
        a[1, 0] = 0.0
        inst = BohrInstance(a, np.diag([1.6e308, -1.4e308]), SequenceSpec.constant(np.eye(2, k=1)))
        assert check_theorem_hypotheses(inst).overall

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_frobenius_norm_that_overflows_fails(self):
        # ||S||_F = 2.1e308 = inf against A_1 = 0: inf * 0 is nan, and the
        # bound tol * max(1, nan) would read tol, since max(1.0, nan) is 1.0
        s = np.diag([1.5e308, 1.5e308])
        inst = BohrInstance(np.zeros((2, 2)), s, SequenceSpec.finite([np.zeros((2, 2))]), "relaxed")
        assert not check_relaxed_hypotheses(inst).condition("orthogonal_to_s").passed
        assert not orthogonality_check(s, np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_bound_near_the_float_limit_still_decides(self):
        # numpy's sum of squares overflows here, the norms 1.5e308 and 0.9
        # and their product do not: Tr(S A_1) = 0 passes, 1.5e298 fails
        s = np.diag([1.5e308, 0.0])
        for m, passes in ((np.diag([0.0, 0.9]), True), (np.diag([1e-10, 0.9]), False)):
            inst = BohrInstance(np.zeros((2, 2)), s, SequenceSpec.constant(m), "relaxed")
            assert check_relaxed_hypotheses(inst).condition("orthogonal_to_s").passed is passes

    def test_large_finite_instance_still_decides(self):
        # the same shape at 1e8 overflows nothing
        a = np.array([[0.0, 1e8], [0.0, 0.0]])
        inst = BohrInstance(a, np.diag([1e8, 1e8]), SequenceSpec.constant(np.eye(2, k=1)))
        assert check_theorem_hypotheses(inst).overall


# ---------------------------------------------------------------- reference
# The condition sets as they were written before each matrix got one
# np.abs pass, kept as the oracle of TestReference: every max|.| taken
# afresh, the triangles and off-diagonal parts built by np.tril and
# np.diag, the gap's eigenvalues behind hermitian_eigenvalues' own
# Hermitian test, and the Frobenius norms formed per trace.


def reference_trace(a, tol):
    tr = complex(np.trace(a))
    if not trace_is_real(tr, tol):
        return ConditionReport("nonnegative_trace_a", False, -abs(tr.imag))
    return ConditionReport("nonnegative_trace_a", bool(tr.real >= -tol), tr.real)


def reference_gap(a, s, tol):
    gap = require_finite(re_part(s - re_part(a)), "the gap S - Re(A)")
    values = require_finite(hermitian_eigenvalues(gap), "an eigenvalue of the gap S - Re(A)")
    lam_min = float(values[-1])
    scale = max(1.0, float(np.max(np.abs(values))))
    floor = (tol + values.size * np.finfo(np.float64).eps) * scale
    return ConditionReport("gap_psd", bool(lam_min >= -floor), lam_min)


def reference_norm(mats, tol):
    worst = max((operator_norm(m) for m in mats), default=0.0)
    return ConditionReport("sequence_norm", bool(worst <= 1.0 + tol), 1.0 - worst)


@np.errstate(over="ignore", invalid="ignore")
def reference_theorem(inst, tol=DEFAULT_TOL):
    a, s = inst.A, inst.S
    mats = inst.seq.matrices
    low_dev = max_abs(np.tril(a, -1))
    conds = [ConditionReport("upper_triangular_a", entries_within_tol(low_dev, a, tol), -low_dev)]
    conds.append(reference_trace(a, tol))
    diag_s = np.diagonal(s)
    s_dev = max(max_abs(s - np.diag(diag_s)), max_abs(np.imag(diag_s)))
    conds.append(ConditionReport("real_diagonal_s", entries_within_tol(s_dev, s, tol), -s_dev))
    conds.append(reference_gap(a, s, tol))
    low = [max_abs(np.tril(m)) for m in mats]
    up_ok = all(entries_within_tol(dev, m, tol) for dev, m in zip(low, mats))
    conds.append(ConditionReport("strictly_upper_sequence", bool(up_ok), -max(low, default=0.0)))
    conds.append(reference_norm(mats, tol))
    return conds


@np.errstate(over="ignore", invalid="ignore")
def reference_relaxed(inst, tol=DEFAULT_TOL):
    a, s = inst.A, inst.S
    mats = inst.seq.matrices
    conds = [reference_trace(a, tol)]
    herm_dev = hermitian_deviation(s)
    conds.append(ConditionReport("hermitian_s", entries_within_tol(herm_dev, s, tol), -herm_dev))
    conds.append(reference_gap(a, s, tol))
    for name, left, what in (("orthogonal_to_s", s, "S"), ("orthogonal_to_a", a, "A")):
        devs = [0.0]
        ok = True
        for i, m in enumerate(mats, 1):
            t = modulus(complex(np.einsum("ij,ji->", left, m)), f"|Tr({what} A_{i})|")
            scale = frobenius_norm(left) * frobenius_norm(m)
            devs.append(t)
            ok = ok and math.isfinite(scale) and within_tol(t, scale, tol)
        conds.append(ConditionReport(name, ok, -float(np.max(devs))))
    conds.append(reference_norm(mats, tol))
    return conds


def outcome(check, inst):
    """(name, verdict, slack bits) per condition, or the error raised."""
    try:
        conds = check(inst)
    except NonFiniteError as exc:
        return ("NonFiniteError", str(exc))
    conds = getattr(conds, "conditions", conds)
    return [(c.name, c.passed, struct.pack("<d", c.slack)) for c in conds]


SCALES = (1.0, 1e-8, 1e8, 1e-310, 5e-324, 1e-300, 1e154, 1e300, 1e308, 1.7e308)


def corpus(seed, count):
    """Seeded instances of orders 1 to 9: upper, nearly upper and full A;
    real diagonal, complex diagonal, Hermitian and non-Hermitian S; a
    constant sequence or a finite list of 0 to 3 matrices; entries scaled
    from the subnormal range to near the float limit."""
    rng = np.random.default_rng(seed)
    out = []
    with np.errstate(all="ignore"):
        while len(out) < count:
            out += draw_instance(rng)
    return out


def draw_instance(rng):
    """One instance of the corpus, or none when an entry overflowed."""
    n = int(rng.choice([1, 1, 2, 2, 3, 4, 5, 9]))

    def draw(shape=(n, n)):
        z = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) * (rng.random() < 0.7)
        return z * float(rng.choice(SCALES))

    a = draw()
    kind = rng.integers(3)
    if kind < 2:
        a = np.triu(a) + (kind == 1) * np.tril(draw(), -1) * 1e-11
    s = (
        lambda: np.diag(draw((n,)).real),
        lambda: np.diag(draw((n,))),
        lambda: re_part(draw()),
        draw,
        lambda: np.diag(np.abs(re_part(a)).sum(axis=1) + 1.0),  # a PSD gap
    )[rng.integers(5)]()
    mats = [draw() for _ in range(int(rng.integers(0, 4)))]
    mats = [np.triu(m, int(rng.integers(0, 2))) if rng.random() < 0.7 else m for m in mats]
    seq = SequenceSpec.constant(mats[0]) if mats and rng.random() < 0.5 else SequenceSpec.finite(mats)
    try:
        return [BohrInstance(a, s, seq)]
    except ValueError:  # an entry that overflowed while drawn
        return []


class TestReference:
    """The single-pass checks report the names, verdicts and slacks, bit
    for bit, and raise the errors, of the reference above."""

    SPECIAL = (
        BohrInstance(np.eye(1), np.eye(1), SequenceSpec.finite([])),
        BohrInstance(np.array([[2.0 + 1e-300j]]), np.array([[1.0 + 1j]]), SequenceSpec.constant(np.ones((1, 1)))),
        BohrInstance(np.diag([5e-324, 1e-310]), np.diag([5e-324, 3e-323]), SequenceSpec.finite([])),
        BohrInstance(
            np.array([[1e-310, 7e-322], [5e-324, 3e-320]]),
            np.array([[1e-309, 5e-324 + 5e-324j], [3e-323, 2e-308]]),
            SequenceSpec.constant(np.array([[0.0, 9e-321], [5e-324, 0.0]])),
        ),
        BohrInstance(
            np.array([[1.5e308 + 1.5e308j, 1e308], [1e300, -1.5e308]]),
            np.diag([1.6e308, 1.4e308 + 1e307j]),
            SequenceSpec.finite([np.full((2, 2), 1e308), np.eye(2, k=1)]),
        ),
        general_witness(6),
        sine_witness(5),
        remark_two_witness(0.5),
    )

    @pytest.mark.parametrize("check, reference", [
        (check_theorem_hypotheses, reference_theorem),
        (check_relaxed_hypotheses, reference_relaxed),
    ], ids=["theorem", "relaxed"])
    def test_seeded_corpus(self, check, reference):
        instances = [*self.SPECIAL, *corpus(2022, 600)]
        outcomes = [outcome(check, inst) for inst in instances]
        assert outcomes == [outcome(reference, inst) for inst in instances]
        # the corpus reaches every kind of outcome
        errors = sum(isinstance(o, tuple) for o in outcomes)
        verdicts = {v for o in outcomes if not isinstance(o, tuple) for _, v, _ in o}
        assert 0 < errors < len(instances) / 2 and verdicts == {True, False}

    def test_gap_eigenvalues_need_no_hermitian_test(self):
        # a re_part is Hermitian bit for bit, so the test never fails
        for inst in [*self.SPECIAL, *corpus(7, 300)]:
            with np.errstate(over="ignore", invalid="ignore"):
                gap = re_part(inst.S - re_part(inst.A))
            if np.isfinite(gap).all():
                assert hermitian_deviation(gap) == 0.0
