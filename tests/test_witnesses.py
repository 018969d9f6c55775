"""Witness families: sharpness values, violation targets, embedding."""

import math
import time

import numpy as np
import pytest

from bohrlab.hypotheses import check_relaxed_hypotheses, check_theorem_hypotheses
from bohrlab.linalg import hermitian_eigenvalues, operator_norm, re_part
from bohrlab.search import materialize
from bohrlab.series import BohrInstance, alpha_series, bohr_sum, check_inequality, critical_radius
from bohrlab.witnesses import (
    InvalidOrderError,
    RadiusNotAboveOneThirdError,
    ShrinkNotAllowedError,
    embed,
    general_witness,
    remark_parameters,
    remark_two_witness,
    sine_witness,
)

SQRT2 = math.sqrt(2.0)


def instance_radius(inst):
    series = alpha_series(inst)
    return critical_radius(series, float(np.trace(inst.S).real))


def sine_radius(n):
    return 1.0 / (1.0 + 2.0 * math.cos(math.pi / (n + 1)))


class TestGeneralFamily:
    def test_structure_order_two(self):
        inst = general_witness(2)
        assert np.array_equal(inst.A, np.array([[1.0, -2.0], [0.0, 1.0]]))
        assert np.array_equal(inst.S, 2.0 * np.eye(2))
        assert np.array_equal(inst.seq.matrices[0], np.eye(2, k=1))
        assert inst.mode == "theorem"

    def test_radius_formula(self):
        for n in range(2, 21):
            inst = general_witness(n)
            assert abs(instance_radius(inst) - n / (3.0 * n - 2.0)) <= 1e-9

    def test_hypotheses_pass(self):
        for n in (2, 5, 16):
            assert check_theorem_hypotheses(general_witness(n)).overall

    def test_gap_is_rank_one(self):
        inst = general_witness(6)
        gap = inst.S - re_part(inst.A)
        values = hermitian_eigenvalues(gap)
        assert abs(values[0] - 6.0) <= 1e-12
        assert np.max(np.abs(values[1:])) <= 1e-12

    def test_sharp_at_own_radius(self):
        inst = general_witness(4)
        r_star = 4.0 / 10.0
        at = check_inequality(inst, r_star)
        assert at.holds and abs(at.slack) <= 1e-9
        assert not check_inequality(inst, r_star + 1e-6).holds

    def test_is_the_leading_block_of_a_larger_order(self):
        big = general_witness(64)
        for n in range(2, 65):
            inst = general_witness(n)
            assert np.array_equal(inst.A, big.A[:n, :n])
            assert np.array_equal(inst.S, big.S[:n, :n])
            assert np.array_equal(inst.seq.matrices[0], big.seq.matrices[0][:n, :n])

    def test_rejects_bad_orders(self):
        for build in (general_witness, sine_witness):
            for bad in (1, 0, -3, 2.0, True):
                with pytest.raises(InvalidOrderError):
                    build(bad)


class TestOrderThreeFamily:
    def test_radius_is_sqrt2_minus_1(self):
        assert abs(instance_radius(sine_witness(3)) - (SQRT2 - 1.0)) <= 1e-9

    def test_gap_spectrum(self):
        inst = sine_witness(3)
        gap = inst.S - re_part(inst.A)
        values = hermitian_eigenvalues(gap)
        assert abs(values[0] - 4.0) <= 1e-12
        assert abs(values[1]) <= 1e-9
        assert abs(values[2]) <= 1e-9

    def test_hypotheses_pass(self):
        assert check_theorem_hypotheses(sine_witness(3)).overall

    def test_beats_general_order_three(self):
        # 3/7 from the staircase vs the smaller sqrt(2)-1 here
        assert instance_radius(sine_witness(3)) < instance_radius(general_witness(3))


class TestSineFamily:
    def test_radius_closed_form(self):
        for n in list(range(2, 21)) + [100]:
            inst = sine_witness(n)
            assert abs(instance_radius(inst) - sine_radius(n)) <= 1e-12
            assert check_theorem_hypotheses(inst).overall

    def test_order_three_is_the_literal_witness(self):
        # the hand-typed order-3 instance it replaces, gap (1, sqrt2, 1)(1, sqrt2, 1)^T
        a = np.array(
            [
                [2.0, -2.0 * SQRT2, -2.0],
                [0.0, 2.0, -2.0 * SQRT2],
                [0.0, 0.0, 2.0],
            ],
            dtype=np.complex128,
        )
        s = np.diag([3.0, 4.0, 3.0]).astype(np.complex128)
        inst = sine_witness(3)
        assert inst.A.tobytes() == a.tobytes()
        assert inst.S.tobytes() == s.tobytes()
        assert np.array_equal(inst.seq.matrices[0], np.eye(3, k=1))
        assert inst.mode == "theorem"

    def test_below_staircase_from_order_three(self):
        assert abs(instance_radius(sine_witness(2)) - instance_radius(general_witness(2))) <= 1e-12
        for n in range(3, 13):
            assert instance_radius(sine_witness(n)) < instance_radius(general_witness(n))

    def test_order_too_large_to_allocate_fails_at_once(self):
        # the shift is built before the O(n) recurrence, which at this
        # order took seconds and hundreds of MB before the MemoryError
        start = time.perf_counter()
        with pytest.raises(MemoryError):
            sine_witness(10**7)
        assert time.perf_counter() - start < 0.5


class TestRemarkFamily:
    def test_frozen_parameters_at_035(self):
        theta, k = remark_parameters(0.35)
        assert abs(theta - 27.0 / 28.0) <= 1e-15
        assert k == 14

    def test_sequence_norm_at_035(self):
        inst = remark_two_witness(0.35)
        theta, k = remark_parameters(0.35)
        norm = operator_norm(inst.seq.matrices[0])
        assert abs(norm - theta * (1.0 + 1.0 / (2.0 * k))) <= 1e-12
        assert abs(norm - 783.0 / 784.0) <= 1e-12
        assert norm <= 1.0

    def test_majorant_value_at_035(self):
        series = alpha_series(remark_two_witness(0.35))
        assert abs(bohr_sum(series, 0.35) - 2.0384615384615383) <= 1e-12

    def test_violation_below_target(self):
        rng = np.random.default_rng(18)
        for r_target in rng.uniform(1.0 / 3.0 + 1e-6, 0.9, size=50):
            r_target = float(r_target)
            inst = remark_two_witness(r_target)
            assert check_relaxed_hypotheses(inst).overall
            assert not check_inequality(inst, r_target).holds
            assert check_inequality(inst, 1.0 / 3.0).holds
            theta, _ = remark_parameters(r_target)
            crossing = 1.0 / (1.0 + 2.0 * theta)
            assert 1.0 / 3.0 < crossing < r_target
            series = alpha_series(inst)
            assert abs(critical_radius(series, 2.0) - crossing) <= 1e-9

    def test_crossing_at_035_frozen(self):
        series = alpha_series(remark_two_witness(0.35))
        assert abs(critical_radius(series, 2.0) - 0.3414634146341463) <= 1e-9

    def test_sequence_contracts_for_all_targets(self):
        for r_target in np.linspace(0.3334, 0.999, 40):
            inst = remark_two_witness(float(r_target))
            assert operator_norm(inst.seq.matrices[0]) <= 1.0 + 1e-12

    def test_targets_just_above_the_refused_one_build(self):
        r_target = math.nextafter(1.0 / 3.0, 1.0)
        for _ in range(3):
            r_target = math.nextafter(r_target, 1.0)
            theta, k = remark_parameters(r_target)
            assert theta < 1.0 and k > 0
            assert remark_two_witness(r_target).order == 2

    def test_rejects_out_of_range_targets(self):
        # the last is above 1/3, but its theta rounds to 1
        for bad in (1.0 / 3.0, 0.2, 1.0, 1.5, -0.1, math.nextafter(1.0 / 3.0, 1.0)):
            with pytest.raises(RadiusNotAboveOneThirdError):
                remark_parameters(bad)


class TestEmbedding:
    def test_identity_when_order_matches(self):
        inst = general_witness(3)
        assert embed(inst, 3) is inst

    def test_preserves_series_and_radius(self):
        inst = sine_witness(3)
        big = embed(inst, 7)
        assert big.order == 7
        assert alpha_series(big) == alpha_series(inst)
        assert abs(np.trace(big.S) - np.trace(inst.S)) == 0.0
        assert abs(instance_radius(big) - instance_radius(inst)) <= 1e-12

    def test_preserves_hypothesis_verdict(self):
        inst = general_witness(2)
        assert check_theorem_hypotheses(embed(inst, 5)).overall
        bad = remark_two_witness(0.4)
        padded = embed(bad, 6)
        assert not check_theorem_hypotheses(padded).overall
        assert check_relaxed_hypotheses(padded).overall

    def test_padded_staircase_keeps_small_radius(self):
        # padding order 2 to order 3 does not move the radius to 3/7
        inst = embed(general_witness(2), 3)
        assert abs(instance_radius(inst) - 0.5) <= 1e-9

    def test_rejects_shrinking(self):
        with pytest.raises(ShrinkNotAllowedError):
            embed(general_witness(4), 3)
        with pytest.raises(ShrinkNotAllowedError):
            embed(general_witness(2), 2.5)


def reference_from_gap(P, M, c):
    """Reference construction: triu(-2P) and np.diag in P's own dtype,
    then a cast of A, S and M to complex128."""
    P = np.asarray(P)
    a = np.triu(-2.0 * P, 1)
    a.flat[:: len(a) + 1] = c
    s = np.diag(P.diagonal().real + c)
    return tuple(np.array(x, dtype=np.complex128) for x in (a, s, M))


def assert_same_bytes(inst, expected):
    for got, want in zip((inst.A, inst.S, inst.seq.matrices[0]), expected):
        assert got.dtype == want.dtype == np.complex128
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def recorded_gaps(monkeypatch):
    """Keep the (P, M, c) that the latest from_gap call received."""
    calls = []
    build = BohrInstance.from_gap

    def recorder(cls, P, M, c):
        calls[:] = [(P, M, c)]
        return build(P, M, c)

    monkeypatch.setattr(BohrInstance, "from_gap", classmethod(recorder))
    return calls


CONSTRUCTION_ORDERS = (*range(2, 41), 1000)


class TestConstructionBytes:
    """A, S and M match the float-staged reference byte for byte."""

    def test_from_gap_real_complex_and_integer(self):
        for n in CONSTRUCTION_ORDERS:
            rng = np.random.default_rng(n)
            real = rng.standard_normal((n, n))
            real[rng.random((n, n)) < 0.2] = 0.0  # -2 * 0.0 is -0.0
            cplx = real + 1j * rng.standard_normal((n, n))
            cplx.imag[rng.random((n, n)) < 0.2] = -0.0
            integer = rng.integers(-5, 6, size=(n, n))
            M = np.triu(rng.standard_normal((n, n)), 1) / n
            for P, c in ((real, 1.0), (-np.abs(real), 0.0), (cplx, 2.0), (integer, -1.5)):
                inst = BohrInstance.from_gap(P, M, c)
                assert_same_bytes(inst, reference_from_gap(P, M, c))
                assert not any(x.flags.writeable for x in (inst.A, inst.S))

    def test_witness_families(self, monkeypatch):
        calls = recorded_gaps(monkeypatch)
        for n in CONSTRUCTION_ORDERS:
            shift = np.eye(n, k=1)
            inst = general_witness(n)
            assert_same_bytes(inst, reference_from_gap(np.ones((n, n)), shift, 1.0))
            inst = sine_witness(n)
            P, M, c = calls[-1]
            assert np.array_equal(M, shift) and c == 2.0
            assert_same_bytes(inst, reference_from_gap(P, shift, c))

    def test_broadcast_gap(self):
        for n in (2, 7, 1000):
            gap = np.broadcast_to(-0.5, (n, n))
            assert_same_bytes(
                BohrInstance.from_gap(gap, np.eye(n, k=1), 3.0),
                reference_from_gap(np.full((n, n), -0.5), np.eye(n, k=1), 3.0),
            )

    def test_materialize_and_embed(self):
        for n in (*range(2, 41, 3), 1000):
            rng = np.random.default_rng(1000 + n)
            for complex_entries in (False, True):
                L = np.tril(rng.standard_normal((n, n)))
                if complex_entries:
                    L = L + 1j * np.tril(rng.standard_normal((n, n)))
                P = L @ L.conj().T
                M = np.eye(n, k=1) * (0.5 + 0.25j * complex_entries)
                inst = materialize(n, P, M)
                assert_same_bytes(inst, reference_from_gap(np.asarray(P, np.complex128), M, 0.0))
                big = n + 3
                padded = tuple(np.pad(x, (0, big - n)) for x in (inst.A, inst.S, inst.seq.matrices[0]))
                assert_same_bytes(embed(inst, big), padded)
