"""Scalar coefficient series: sums, sup norms, crossing radii."""

import math

import numpy as np
import pytest

from bohrlab.scalar import (
    ClassicalCheck,
    CoeffSeries,
    classical_verify,
    crossing_radius,
    moebius_series,
    scalar_bohr_sum,
    sup_norm_estimate,
)
from bohrlab.series import RadiusOutOfRangeError


def brute_moebius_sum(a, r, terms=600):
    return a + sum((1.0 - a * a) * a ** (k - 1) * r**k for k in range(1, terms))


class TestCoeffSeries:
    def test_coefficients_coerced_to_complex(self):
        s = CoeffSeries((1, 2.0, 1j))
        assert s.coeffs == (1 + 0j, 2 + 0j, 1j)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CoeffSeries((float("nan"),))
        with pytest.raises(ValueError):
            CoeffSeries((1.0,), (float("inf"), 0.5))

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

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            crossing_radius(CoeffSeries((1.0,)), 2.0, tol=-1.0)
