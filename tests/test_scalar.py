"""Scalar coefficient series: sums, sup norms, crossing radii."""

import math

import numpy as np
import pytest

from bohrlab import scalar
from bohrlab.scalar import (
    ClassicalCheck,
    CoeffSeries,
    classical_verify,
    crossing_radius,
    moebius_series,
    scalar_bohr_sum,
    sup_norm_estimate,
)
from bohrlab.linalg import NonFiniteError
from bohrlab.series import RadiusOutOfRangeError


def brute_moebius_sum(a, r, terms=600):
    return a + sum((1.0 - a * a) * a ** (k - 1) * r**k for k in range(1, terms))


@np.errstate(over="ignore", invalid="ignore")
def direct_estimate(s, gridpoints):
    """The grid estimate with a fresh grid, the power z ** m0 and a
    per-coefficient fold: the reference the cached-grid evaluation must
    match bit for bit where the tail starts at index 0 or 1."""
    buckets = np.zeros(gridpoints, dtype=np.complex128)
    for k, c in enumerate(s.coeffs):
        buckets[k % gridpoints] += c
    values = np.fft.ifft(buckets) * gridpoints
    if s.tail is not None and s.tail[0] != 0:
        c, rho = s.tail
        z = np.exp(2j * np.pi * np.arange(gridpoints) / gridpoints)
        values = values + c * z ** len(s.coeffs) / (1.0 - rho * z)
    return float(np.max(np.abs(values)))


GRIDS = (8, 100, 1000, 4096, 8192)

# max over the 100-point grid of |0.3 + (0.5+0.2j) z^5001 / (1 - (0.9-0.1j) z)|,
# from 40-digit arithmetic
LONG_TAIL_REFERENCE = 5.8786867817575145707


class TestCoeffSeries:
    def test_coefficients_coerced_to_complex(self):
        s = CoeffSeries((1, 2.0, 1j))
        assert s.coeffs == (1 + 0j, 2 + 0j, 1j)

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)):
            for at in (0, 1500, 2999):
                coeffs = [0.5] * 3000
                coeffs[at] = bad
                with pytest.raises(ValueError, match="coefficients must be finite"):
                    CoeffSeries(tuple(coeffs))
            with pytest.raises(ValueError, match="tail parameters must be finite"):
                CoeffSeries((), (0.5, bad))
            with pytest.raises(ValueError, match="tail parameters must be finite"):
                CoeffSeries((), (bad, 0.5))

    def test_rejects_expanding_tail(self):
        with pytest.raises(ValueError):
            CoeffSeries((1.0,), (1.0, 1.0))
        with pytest.raises(ValueError):
            CoeffSeries((1.0,), (1.0, -1.5))

    def test_moebius_parameter_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                moebius_series(bad)


class TestScalarSum:
    def test_matches_brute_force_expansion(self):
        for a in (0.5, 0.9, 0.99):
            s = moebius_series(a)
            for r in (0.2, 1.0 / 3.0, 0.5):
                assert abs(scalar_bohr_sum(s, r) - brute_moebius_sum(a, r)) <= 1e-12

    def test_frozen_values_at_09(self):
        s = moebius_series(0.9)
        assert abs(scalar_bohr_sum(s, 1.0 / 3.0) - 0.9904761904761905) <= 1e-12
        assert abs(scalar_bohr_sum(s, 0.4) - 1.01875) <= 1e-12

    def test_r_zero_gives_leading_magnitude(self):
        s = CoeffSeries((-2.0, 1.0), (3.0, 0.5))
        assert scalar_bohr_sum(s, 0.0) == 2.0

    def test_domain_errors(self):
        s = CoeffSeries((1.0,))
        with pytest.raises(RadiusOutOfRangeError):
            scalar_bohr_sum(s, 1.0)
        with pytest.raises(RadiusOutOfRangeError):
            scalar_bohr_sum(s, -0.1)

    def test_bare_tail_starts_at_index_zero(self):
        # no listed coefficients: a_k = c rho^k from k = 0, sum |c|/(1 - |rho| r)
        s = CoeffSeries((), (-0.6, 0.5j))
        for r in (0.0, 0.2, 0.5, 0.9):
            assert abs(scalar_bohr_sum(s, r) - 0.6 / (1.0 - 0.5 * r)) <= 1e-15

    def test_polynomial_has_no_tail_contribution(self):
        s = CoeffSeries((1.0, 0.5, 0.25))
        r = 0.9
        assert abs(scalar_bohr_sum(s, r) - (1.0 + 0.5 * r + 0.25 * r * r)) <= 1e-15


class TestSupNorm:
    def test_monomial(self):
        assert abs(sup_norm_estimate(CoeffSeries((0.0, 1.0))) - 1.0) <= 1e-12

    def test_binomial_peaks_at_two(self):
        assert abs(sup_norm_estimate(CoeffSeries((1.0, 1.0))) - 2.0) <= 1e-12

    def test_moebius_is_unimodular(self):
        for a in (0.3, 0.9):
            assert abs(sup_norm_estimate(moebius_series(a)) - 1.0) <= 1e-12

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            sup_norm_estimate(CoeffSeries((1.0,)), gridpoints=7)

    def test_nondecreasing_under_grid_doubling(self):
        # doubling keeps every old angle, and grid evaluation is exact,
        # so the estimate can only grow
        rng = np.random.default_rng(26)
        for _ in range(60):
            deg = int(rng.integers(1, 40))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            tail = (
                complex(rng.standard_normal(), rng.standard_normal()),
                complex(rng.uniform(0.0, 0.9)),
            )
            s = CoeffSeries(tuple(c), tail)
            prev = -np.inf
            for grid in (8, 16, 32, 64, 128, 256):
                est = sup_norm_estimate(s, grid)
                assert est >= prev - 1e-11 * max(1.0, abs(prev))
                prev = est

    def test_tail_from_index_zero_or_one_matches_direct_evaluation(self):
        # z[(k m0) mod M] is z ** m0 bit for bit for m0 in {0, 1}: every
        # Moebius series and every bare tail
        rng = np.random.default_rng(41)
        series = [moebius_series(float(a)) for a in rng.uniform(0.01, 0.99, 6)]
        series += [moebius_series(a) for a in (0.3, 0.9, 0.99)]
        for _ in range(6):
            c = complex(rng.standard_normal(), rng.standard_normal())
            rho = complex(*rng.uniform(-0.6, 0.6, 2))
            series += [CoeffSeries((), (c, rho)), CoeffSeries((complex(rng.standard_normal()),), (c, rho))]
        for grid in GRIDS:
            for s in series:
                assert sup_norm_estimate(s, grid) == direct_estimate(s, grid)

    def test_polynomial_fold_matches_per_coefficient_sums(self):
        # np.add.at is unbuffered: each bucket sums its coefficients in
        # index order, as one at a time would, with or without wrapping
        rng = np.random.default_rng(42)
        for grid in (8, 100):
            for count in (1, 7, 8, 9, 100, 101, 350):
                c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
                c[::5] = -0.0
                s = CoeffSeries(tuple(c))
                assert sup_norm_estimate(s, grid) == direct_estimate(s, grid)

    def test_tail_start_is_periodic_in_the_grid_size(self):
        # z^M = 1 on the grid, so a tail starting at m0 and at m0 + M gives
        # the same values; reading the power by index keeps that exact
        tail = (0.5 + 0.2j, 0.9 - 0.1j)
        for grid in (8, 100, 1000):
            for m0 in (2, 7, 33, 250):
                near, far = (CoeffSeries((0.3,) + (0.0,) * (m - 1), tail) for m in (m0, m0 + grid))
                assert sup_norm_estimate(near, grid) == sup_norm_estimate(far, grid)

    def test_long_tail_start_against_high_precision_reference(self):
        s = CoeffSeries((0.3,) + (0.0,) * 5000, (0.5 + 0.2j, 0.9 - 0.1j))
        assert sup_norm_estimate(s, 100) == pytest.approx(LONG_TAIL_REFERENCE, rel=1e-15, abs=0.0)

    def test_cached_grid_is_read_only(self):
        z = scalar._unit_circle(64)
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 0.0
        assert np.array_equal(z, np.exp(2j * np.pi * np.arange(64) / 64))
        assert scalar._unit_circle.cache_info().maxsize == 1

    def test_estimates_do_not_depend_on_grid_order(self):
        series = [moebius_series(0.7), CoeffSeries((0.3, 0.0, 0.0), (0.5 + 0.2j, 0.9 - 0.1j))]
        cases = [(s, grid) for grid in (8, 100, 4096, 100, 8) for s in series]
        scalar._unit_circle.cache_clear()
        forward = [sup_norm_estimate(s, grid) for s, grid in cases]
        scalar._unit_circle.cache_clear()
        backward = [sup_norm_estimate(s, grid) for s, grid in reversed(cases)]
        assert forward == backward[::-1]

    def test_folding_handles_degree_above_grid(self):
        # degree 9 on an 8-point grid: z^8 = 1 on the grid, so folding
        # must reproduce the exact values
        coeffs = np.zeros(10)
        coeffs[9] = 1.0
        coeffs[0] = 0.5
        s = CoeffSeries(tuple(coeffs))
        grid8 = sup_norm_estimate(s, 8)
        assert abs(grid8 - 1.5) <= 1e-12


class TestClassicalVerify:
    def test_moebius_at_one_third_holds(self):
        chk = classical_verify(moebius_series(0.9), 1.0 / 3.0)
        assert isinstance(chk, ClassicalCheck)
        assert chk.holds
        assert abs(chk.rhs - 1.0) <= 1e-12

    def test_moebius_beyond_one_third_fails(self):
        chk = classical_verify(moebius_series(0.9), 0.4)
        assert not chk.holds
        assert chk.lhs > chk.rhs

    def test_random_unit_ball_polynomials_hold(self):
        rng = np.random.default_rng(27)
        for _ in range(500):
            deg = int(rng.integers(1, 31))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            c = c / np.sum(np.abs(c)) * rng.uniform(0.2, 1.0)
            r = float(rng.uniform(0.0, 1.0 / 3.0))
            assert classical_verify(CoeffSeries(tuple(c)), r).holds


    def test_overflowing_sum_is_an_error(self):
        with pytest.raises(NonFiniteError, match="the Bohr sum"):
            classical_verify(CoeffSeries((1e308, 1e308)), 0.99)

    def test_overflowing_sup_norm_is_an_error(self):
        # the sum 2 + 1e308 r / (1 - r/2) stays finite at r = 0.5, the FFT does not
        with pytest.raises(NonFiniteError, match="the sup-norm estimate"):
            classical_verify(CoeffSeries((1.0, 1.0), (1e308, 0.5)), 0.5)

    def test_overflowing_modulus_is_named(self):
        huge = complex(1.5e308, -1.5e308)
        with pytest.raises(NonFiniteError, match=r"^the modulus \|a_1\| of coefficient 1 is not"):
            scalar_bohr_sum(CoeffSeries((0.5, huge)), 0.5)
        with pytest.raises(NonFiniteError, match=r"^the tail coefficient \|c\| is not finite"):
            scalar_bohr_sum(CoeffSeries((), (huge, 0.5)), 0.5)
        with pytest.raises(NonFiniteError, match=r"^the tail ratio \|rho\| is not finite"):
            CoeffSeries((1.0,), (1.0, huge))

    def test_results_must_be_finite(self):
        with pytest.raises(NonFiniteError):
            ClassicalCheck(True, math.inf, 1.0)
        with pytest.raises(NonFiniteError):
            ClassicalCheck(True, 1.0, math.nan)


class TestCrossingRadius:
    def test_moebius_crossings_match_formula(self):
        previous = 1.0
        for a in (0.5, 0.7, 0.9, 0.99):
            r = crossing_radius(moebius_series(a), 1.0)
            assert abs(r - 1.0 / (1.0 + 2.0 * a)) <= 1e-9
            assert 1.0 / 3.0 < r < previous
            previous = r

    def test_frozen_crossing_at_09(self):
        r = crossing_radius(moebius_series(0.9), 1.0)
        assert abs(r - 0.35714285714285715) <= 1e-9

    def test_bare_tail_crossing(self):
        # 0.6/(1 - 0.5 r) = 1 at r = 0.8
        assert abs(crossing_radius(CoeffSeries((), (0.6, -0.5)), 1.0) - 0.8) <= 1e-11

    def test_never_crossing_returns_one(self):
        assert crossing_radius(CoeffSeries((0.25, 0.25)), 1.0) == 1.0

    def test_budget_exceeded_at_zero(self):
        with pytest.raises(ValueError):
            crossing_radius(CoeffSeries((2.0,)), 1.0)
