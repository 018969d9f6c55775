"""Alpha series extraction, majorant sums, and critical radii."""

import math

import numpy as np
import pytest

from bohrlab import series as series_module
from bohrlab.linalg import NonFiniteError
from bohrlab.series import (
    AlphaSeries,
    InequalityCheck,
    BohrInstance,
    BudgetBelowAlpha0Error,
    NegativeTraceError,
    NonrealTraceError,
    RadiusOutOfRangeError,
    SequenceSpec,
    alpha_series,
    bohr_sum,
    check_inequality,
    critical_radii,
    critical_radius,
    gap_blocks,
)
from bohrlab.witnesses import staircase_gap

SQRT2 = math.sqrt(2.0)


def direct_sum(series, r, terms=200):
    """Term-by-term evaluation, the brute-force route around the closed form."""
    total = series.alpha0
    for m in range(1, terms + 1):
        k = m - 1
        mag = series.magnitudes[k] if k < len(series.magnitudes) else series.tail
        total += mag * r**m
    return total


class TestSequenceSpec:
    def test_constant_takes_one_matrix(self):
        spec = SequenceSpec.constant(np.eye(2, k=1))
        assert spec.kind == "constant"
        assert spec.order == 2
        with pytest.raises(ValueError):
            SequenceSpec("constant", (np.eye(2), np.eye(2)))

    def test_finite_list_keeps_order(self):
        spec = SequenceSpec.finite([np.eye(3, k=1), np.eye(3, k=2)])
        assert spec.kind == "finite-list"
        assert len(spec.matrices) == 2
        assert spec.order == 3

    def test_empty_finite_list_has_no_order(self):
        assert SequenceSpec.finite([]).order is None

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SequenceSpec("periodic", (np.eye(2),))

    def test_rejects_mixed_orders(self):
        with pytest.raises(ValueError):
            SequenceSpec.finite([np.eye(2), np.eye(3)])


class TestAlphaSeries:
    def test_negative_alpha0_rejected(self):
        with pytest.raises(NegativeTraceError):
            AlphaSeries(-0.1)

    def test_nonfinite_rejected(self):
        mags = [0.5] * 3000
        for bad in (math.nan, math.inf, -0.25):
            for at in (0, 1500, 2999):
                with pytest.raises(ValueError, match="magnitudes must be finite and >= 0"):
                    AlphaSeries(1.0, tuple(mags[:at] + [bad] + mags[at + 1 :]))
        for field in ("alpha0", "tail"):
            for bad in (math.nan, math.inf, np.float64(math.nan)):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    AlphaSeries(**{"alpha0": 1.0, field: bad})

    def test_ratio_outside_unit_interval_rejected(self):
        for bad in (-0.5, -1e-300, 1.0 + 1e-15, 2.0, math.nan):
            with pytest.raises(ValueError, match="ratio must lie in"):
                AlphaSeries(1.0, (), 1.0, bad)
        assert AlphaSeries(1.0, (), 1.0, 0.0).ratio == 0.0

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            AlphaSeries(1.0, (-1.0,))
        with pytest.raises(ValueError):
            AlphaSeries(1.0, (), -2.0)


class TestAlphaExtraction:
    def test_zero_matrix(self):
        inst = BohrInstance(np.zeros((2, 2)), np.eye(2), SequenceSpec.constant(np.eye(2, k=1)))
        series = alpha_series(inst)
        assert series.alpha0 == 0.0
        assert series.magnitudes == ()
        assert series.tail == 0.0

    def test_staircase_family_order_three(self):
        n = 3
        a = np.eye(n) - 2.0 * np.triu(np.ones((n, n)), 1)
        inst = BohrInstance(a, 2.0 * np.eye(n), SequenceSpec.constant(np.eye(n, k=1)))
        series = alpha_series(inst)
        assert series.alpha0 == 3.0
        assert series.magnitudes == ()
        assert abs(series.tail - 4.0) <= 1e-14

    def test_finite_list_gives_explicit_magnitudes(self):
        n = 3
        a = np.eye(n) - 2.0 * np.triu(np.ones((n, n)), 1)
        mats = [np.eye(n, k=1), np.eye(n, k=2)]
        inst = BohrInstance(a, 2.0 * np.eye(n), SequenceSpec.finite(mats))
        series = alpha_series(inst)
        assert series.magnitudes == (4.0, 2.0)
        assert series.tail == 0.0

    def test_nonreal_trace_raises(self):
        a = np.array([[1j, 0.0], [0.0, 0.0]])
        inst = BohrInstance(a, np.eye(2), SequenceSpec.finite([]))
        with pytest.raises(NonrealTraceError):
            alpha_series(inst)

    def test_trace_whose_imaginary_sum_is_nan_raises(self, nan_trace_instance):
        with pytest.raises(NonrealTraceError, match="nan"):
            alpha_series(nan_trace_instance)

    def test_negative_trace_raises(self):
        a = -np.eye(2)
        inst = BohrInstance(a, np.eye(2), SequenceSpec.finite([]))
        with pytest.raises(NegativeTraceError):
            alpha_series(inst)

    def test_tiny_negative_trace_clamps_to_zero(self):
        a = np.diag([-1e-13, 0.0])
        inst = BohrInstance(a, np.eye(2), SequenceSpec.finite([]))
        assert alpha_series(inst).alpha0 == 0.0


def dense_blocks(P, c):
    """The leading k x k blocks, k = 1..n, of the order-n instance
    from_gap(P, shift, c), built densely."""
    n = len(P)
    inst = BohrInstance.from_gap(P, np.eye(n, k=1), c)
    for k in range(1, n + 1):
        m = inst.seq.matrices[0][:k, :k]
        yield BohrInstance(inst.A[:k, :k], inst.S[:k, :k], SequenceSpec.constant(m))


def witness_gaps(rng):
    """(P, exact) for seeded real positive semidefinite gaps of orders
    1-40: X X^T, the sine family's x x^T, the staircase's all-ones
    matrix and an integer X X^T; exact where every partial sum is."""
    for n in range(1, 41):
        x = rng.standard_normal((n, 3))
        yield x @ x.T, False
        s = np.sin(np.arange(1, n + 1) * np.pi / (n + 1))
        yield np.outer(s, s), False
        yield staircase_gap(n)[0] if n > 1 else np.ones((1, 1)), True
        x = rng.integers(-3, 4, (n, 3))
        yield x @ x.T, True


class TestGapBlocks:
    def assert_bit_for_bit(self, P, c):
        alpha0, tail, budget = (x.tolist() for x in gap_blocks(P, c))
        assert len(alpha0) == len(tail) == len(budget) == len(P)
        for k, sub in enumerate(dense_blocks(P, c)):
            assert AlphaSeries(alpha0[k], (), tail[k]) == alpha_series(sub)
            assert budget[k] == float(np.trace(sub.S).real)

    def test_staircase_matches_its_dense_blocks_bit_for_bit(self):
        for n in (1, 2, 3, 17):
            self.assert_bit_for_bit(np.broadcast_to(1.0, (n, n)), 1.0)
        gap, c = staircase_gap(17)
        assert [x.tolist() for x in gap_blocks(gap, c)] == [x.tolist() for x in gap_blocks(np.ones((17, 17)), 1)]

    def test_integer_gap_matches_its_dense_blocks_bit_for_bit(self):
        x = np.random.default_rng(5).integers(-4, 5, (12, 12))
        self.assert_bit_for_bit(x @ x.T, 3.0)

    def test_sine_gap_matches_its_dense_blocks_to_rounding(self):
        n = 30
        x = np.sin(np.arange(1, n + 1) * np.pi / (n + 1)) / np.sin(np.pi / (n + 1))
        P = np.outer(x, x)
        alpha0, tail, budget = gap_blocks(P, 2.0)
        for k, sub in enumerate(dense_blocks(P, 2.0)):
            ref = alpha_series(sub)
            assert alpha0[k] == pytest.approx(ref.alpha0, rel=1e-13)
            assert tail[k] == pytest.approx(ref.tail, rel=1e-13, abs=1e-13)
            assert budget[k] == pytest.approx(float(np.trace(sub.S).real), rel=1e-13)

    def test_reads_only_the_diagonal_and_superdiagonal(self):
        P = np.triu(np.tril(np.full((6, 6), 2.0), 1), -1)
        noise = np.random.default_rng(7).standard_normal((6, 6))
        noisy = P + np.triu(noise, 2) + np.tril(noise, -2)
        for ours, theirs in zip(gap_blocks(P, 1.0), gap_blocks(noisy, 1.0)):
            assert ours.tolist() == theirs.tolist()

    def test_witness_gaps_match_their_dense_blocks(self):
        # the narrowed contract: real gaps with a nonnegative diagonal, c >= 0
        for P, exact in witness_gaps(np.random.default_rng(31)):
            for c in (0.0, 1.0, 2.5):
                alpha0, tail, budget = gap_blocks(P, c)
                # so critical_radii has no row to refuse
                assert (budget >= alpha0).all()
                if exact:
                    self.assert_bit_for_bit(P, c)
                    continue
                for k, sub in enumerate(dense_blocks(P, c)):
                    ref = alpha_series(sub)
                    assert alpha0[k] == pytest.approx(ref.alpha0, rel=1e-13)
                    assert tail[k] == pytest.approx(ref.tail, rel=1e-12, abs=1e-12)
                    assert budget[k] == pytest.approx(float(np.trace(sub.S).real), rel=1e-13)


class TestBohrSum:
    def test_r_zero_gives_alpha0(self):
        series = AlphaSeries(4.0, (1.0, 2.0), 3.0)
        assert bohr_sum(series, 0.0) == 4.0

    def test_constant_tail_closed_form(self):
        series = AlphaSeries(6.0, (), 4.0 * SQRT2)
        value = bohr_sum(series, SQRT2 - 1.0)
        assert abs(value - 10.0) <= 1e-12

    def test_matches_direct_summation(self):
        series = AlphaSeries(4.0, (), 6.0)
        r = 1.0 / 3.0
        assert abs(bohr_sum(series, r) - 7.0) <= 1e-12
        assert abs(bohr_sum(series, r) - direct_sum(series, r)) <= 1e-12

    def test_mixed_series_matches_direct_summation(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            series = AlphaSeries(
                float(rng.uniform(0, 5)),
                tuple(rng.uniform(0, 3, size=rng.integers(0, 6))),
                float(rng.uniform(0, 2)),
            )
            r = float(rng.uniform(0.0, 0.8))
            assert abs(bohr_sum(series, r) - direct_sum(series, r, terms=400)) <= 1e-10

    def test_radius_domain(self):
        series = AlphaSeries(1.0)
        with pytest.raises(RadiusOutOfRangeError):
            bohr_sum(series, 1.0)
        with pytest.raises(RadiusOutOfRangeError):
            bohr_sum(series, -0.25)

    def test_nondecreasing_in_radius(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            series = AlphaSeries(
                float(rng.uniform(0, 2)),
                tuple(rng.uniform(0, 2, size=3)),
                float(rng.uniform(0, 1)),
            )
            radii = np.sort(rng.uniform(0, 0.99, size=8))
            values = [bohr_sum(series, float(r)) for r in radii]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_scale_equivariance(self):
        series = AlphaSeries(2.0, (1.0, 0.5), 0.25)
        scaled = AlphaSeries(6.0, (3.0, 1.5), 0.75)
        for r in (0.0, 0.2, 0.7):
            assert abs(bohr_sum(scaled, r) - 3.0 * bohr_sum(series, r)) <= 1e-12


class TestCriticalRadius:
    def test_staircase_budgets(self):
        for n in (2, 3, 5):
            series = AlphaSeries(float(n), (), 2.0 * (n - 1))
            r = critical_radius(series, 2.0 * n)
            assert abs(r - n / (3.0 * n - 2.0)) <= 1e-9

    def test_order_three_sharp_value(self):
        series = AlphaSeries(6.0, (), 4.0 * SQRT2)
        assert abs(critical_radius(series, 10.0) - (SQRT2 - 1.0)) <= 1e-9

    def test_zero_series_never_crosses(self):
        assert critical_radius(AlphaSeries(0.0), 1.0) == 1.0

    def test_terminating_series_below_budget(self):
        series = AlphaSeries(1.0, (0.5,), 0.0)
        assert critical_radius(series, 2.0) == 1.0

    def test_budget_below_alpha0(self):
        with pytest.raises(BudgetBelowAlpha0Error):
            critical_radius(AlphaSeries(3.0, (), 1.0), 2.5)

    def test_threshold_consistency(self):
        rng = np.random.default_rng(15)
        bracket = 1e-12  # the bisection's fixed bracket width
        for _ in range(25):
            series = AlphaSeries(
                float(rng.uniform(0, 2)),
                tuple(rng.uniform(0.1, 2, size=2)),
                float(rng.uniform(0.5, 2)),
            )
            budget = series.alpha0 + float(rng.uniform(0.1, 3))
            r = critical_radius(series, budget)
            if r == 1.0:
                continue
            assert bohr_sum(series, r - 2 * bracket) <= budget + 1e-11
            assert bohr_sum(series, r + 2 * bracket) >= budget - 1e-11

    def test_budget_scaling_leaves_radius_fixed(self):
        series = AlphaSeries(2.0, (1.0,), 3.0)
        scaled = AlphaSeries(14.0, (7.0,), 21.0)
        r1 = critical_radius(series, 5.0)
        r2 = critical_radius(scaled, 35.0)
        assert abs(r1 - r2) <= 1e-11


class TestHalvings:
    """Every bisected radius takes exactly 40 halvings: one bohr_sum at the
    upper end, then one per midpoint."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(series, r, real=bohr_sum):
            calls.append(r)
            return real(series, r)

        monkeypatch.setattr(series_module, "bohr_sum", counted)
        return calls

    def bisected_calls(self, calls, series, budget):
        """bohr_sum calls of one solve, or None when it returns 1.0."""
        calls.clear()
        radius = critical_radius(series, budget)
        return None if radius == 1.0 else len(calls)

    def test_random_series(self, calls):
        rng = np.random.default_rng(31)
        counts = []
        for _ in range(400):
            scale = 10.0 ** rng.uniform(-300, 300)
            series = AlphaSeries(
                float(rng.uniform(0, 3) * scale),
                tuple((rng.uniform(0, 3, int(rng.integers(0, 4))) * scale).tolist()),
                float(rng.uniform(0, 3) * scale) if rng.random() < 0.8 else 0.0,
                float(rng.uniform(0, 1)) if rng.random() < 0.5 else 1.0,
            )
            budget = series.alpha0 + float(rng.uniform(0, 5) * scale)
            counts.append(self.bisected_calls(calls, series, budget))
        bisected = [c for c in counts if c is not None]
        assert len(bisected) > 100
        assert set(bisected) == {41}

    def test_special_rows(self, calls):
        counts = []
        for alpha0, tail, budget in zip(*TestCriticalRadii.special_rows()):
            series = AlphaSeries(float(alpha0), (), float(tail))
            if budget >= alpha0:
                counts.append(self.bisected_calls(calls, series, float(budget)))
        bisected = [c for c in counts if c is not None]
        assert len(bisected) == 10
        assert set(bisected) == {41}


def one_row(alpha0, tail, budget):
    """The scalar route: critical_radius of one constant-tail series."""
    return critical_radius(AlphaSeries(float(alpha0), (), float(tail)), float(budget))


def bits(values):
    return [float(v).hex() for v in values]


class TestCriticalRadii:
    """The lockstep solver against critical_radius, row by row."""

    @staticmethod
    def rows(rng, count):
        alpha0 = rng.uniform(0.0, 5.0, count)
        tail = rng.uniform(0.0, 3.0, count)
        return alpha0, tail, alpha0 + rng.uniform(0.0, 4.0, count)

    @staticmethod
    def special_rows():
        rows = [
            (2.0, 0.0, 3.0),  # tail 0: fits on [0, 1)
            (0.0, 0.0, 0.0),
            (2.0, 1.0, 2.0),  # budget equal to alpha0
            (1e-300, 1e-300, 2e-300),  # tiny magnitudes
            (1e-300, 3e-301, 1e-300),
            (1e300, 1e300, 3e300),  # huge ones: the sum overflows near r = 1
            (1.0, 1e300, 2.0),
            (1e-300, 1e300, 1e300),
        ]
        rows += [(float(n), 2.0 * (n - 1), 2.0 * n) for n in (2, 3, 10, 1000)]
        return tuple(np.array(col) for col in zip(*rows))

    def test_rows_match_critical_radius_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for alpha0, tail, budget in (self.rows(rng, 300), self.special_rows()):
            expected = [one_row(*row) for row in zip(alpha0, tail, budget)]
            assert bits(critical_radii(alpha0, tail, budget)) == bits(expected)

    def test_budgets_on_the_bisection_path(self):
        # a budget equal to the sum at the first upper end or midpoint
        # decides that comparison by equality, so any other rounding of
        # the sum sends the row another way
        rng = np.random.default_rng(25)
        alpha0, tail, _ = self.rows(rng, 200)
        first_mid = 0.5 * (0.0 + (1.0 - 1e-12))
        for r in (1.0 - 1e-12, first_mid):
            budget = np.array([bohr_sum(AlphaSeries(a, (), t), r) for a, t in zip(alpha0.tolist(), tail.tolist())])
            expected = [one_row(*row) for row in zip(alpha0, tail, budget)]
            assert bits(critical_radii(alpha0, tail, budget)) == bits(expected)

    def test_fitting_row_is_one(self):
        radii = critical_radii(np.array([2.0, 2.0]), np.array([0.0, 1.0]), np.array([3.0, 3.0]))
        assert radii[0] == 1.0
        assert radii[1] < 1.0

    def test_row_does_not_depend_on_its_neighbours(self):
        rng = np.random.default_rng(23)
        alpha0, tail, budget = self.rows(rng, 50)
        alone = critical_radii(alpha0[17:18], tail[17:18], budget[17:18])
        assert bits(alone) == bits(critical_radii(alpha0, tail, budget)[17:18])

    def test_no_rows(self):
        assert critical_radii(np.empty(0), np.empty(0), np.empty(0)).shape == (0,)


class TestInstanceChecks:
    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BohrInstance(np.eye(2), np.eye(3), SequenceSpec.finite([]))
        with pytest.raises(ValueError):
            BohrInstance(np.eye(2), np.eye(2), SequenceSpec.constant(np.eye(3)))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            BohrInstance(np.eye(2), np.eye(2), SequenceSpec.finite([]), mode="loose")

    def test_from_gap_rejects_a_gap_that_is_not_square(self):
        # a (3, 1) column would otherwise broadcast into a 3x3 gap
        for gap in (np.ones((3, 1)), np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                BohrInstance.from_gap(gap, np.eye(3, k=1), 1.0)

    def test_check_inequality_at_threshold(self):
        n = 4
        a = np.eye(n) - 2.0 * np.triu(np.ones((n, n)), 1)
        inst = BohrInstance(a, 2.0 * np.eye(n), SequenceSpec.constant(np.eye(n, k=1)))
        at_star = check_inequality(inst, n / (3.0 * n - 2.0))
        assert at_star.holds
        assert abs(at_star.lhs - at_star.rhs) <= 1e-9
        assert at_star.slack == at_star.rhs - at_star.lhs
        beyond = check_inequality(inst, n / (3.0 * n - 2.0) + 1e-3)
        assert not beyond.holds
        assert beyond.slack < 0.0

    def test_check_inequality_reports_values(self):
        inst = BohrInstance(
            np.zeros((2, 2)), np.eye(2), SequenceSpec.constant(np.eye(2, k=1))
        )
        report = check_inequality(inst, 0.5)
        assert report.holds
        assert report.lhs == 0.0
        assert report.rhs == 2.0

    def test_check_inequality_rejects_an_overflowing_budget(self):
        # every entry finite, Tr(S) = 2.4e308 is not
        inst = BohrInstance(
            np.zeros((3, 3)), np.diag([8e307] * 3), SequenceSpec.constant(np.eye(3, k=1))
        )
        with pytest.raises(NonFiniteError, match=r"Tr\(S\) - Bohr sum = inf - 0.0 "):
            check_inequality(inst, 0.5)

    def test_check_inequality_rejects_an_overflowing_bohr_sum(self):
        # three pairings of 1e308: the sum overflows at r = 0.9
        a = np.array([[0.0, 1e308], [0.0, 0.0]])
        seq = SequenceSpec.finite([np.eye(2, k=1)] * 3)
        inst = BohrInstance(a, np.diag([1e307, 1e307]), seq)
        with pytest.raises(NonFiniteError, match=r"Tr\(S\) - Bohr sum = 2e\+307 - inf "):
            check_inequality(inst, 0.9)
        assert check_inequality(inst, 0.1).holds  # 1.11e307 against 2e307

    def test_inequality_check_values_must_be_finite(self):
        for lhs, rhs in ((math.inf, 1.0), (1.0, math.nan), (1e308, -1e308)):
            with pytest.raises(NonFiniteError, match="Bohr sum"):
                InequalityCheck(False, lhs, rhs)

    def test_alpha_series_rejects_an_overflowing_trace(self):
        a = np.diag([1e308, 1e308])
        inst = BohrInstance(a, a, SequenceSpec.constant(np.eye(2, k=1)))
        with pytest.raises(ValueError, match="alpha0 must be finite"):
            alpha_series(inst)

    def test_alpha_series_names_an_overflowing_modulus(self):
        # finite pairings and trace whose moduli are beyond the float range
        huge = complex(1.5e308, 1.5e308)
        shift = np.eye(2, k=1)
        seq = SequenceSpec.finite([np.zeros((2, 2)), np.zeros((2, 2)), shift])
        inst = BohrInstance(shift * huge, np.eye(2), seq)
        with pytest.raises(NonFiniteError, match=r"^\|alpha_3\| = \|Tr\(A A_3\*\)\| is not finite"):
            alpha_series(inst)
        inst = BohrInstance(np.diag([huge, 0.0]), np.eye(2), SequenceSpec.constant(shift))
        with pytest.raises(NonFiniteError, match=r"^\|Tr\(A\)\| is not finite"):
            alpha_series(inst)
