"""Parameterization, the radius objective, and the multistart descent."""

import math

import numpy as np
import pytest

from bohrlab.search import (
    BadLengthError,
    NotContractionError,
    NotPSDError,
    SearchConfig,
    calculus_claim_oracle,
    dimension,
    materialize,
    objective,
    parameterize,
    search,
)
from bohrlab.series import alpha_series, critical_radius
from bohrlab.witnesses import general_witness, sine_witness

SQRT2 = math.sqrt(2.0)


def materialized_radius(n, v):
    pm = parameterize(n, v)
    inst = materialize(n, pm.P, pm.M)
    return critical_radius(alpha_series(inst), float(np.trace(inst.S).real))


def rank_one_vector():
    """n = 3 encoding of P = vv* for v = (1, sqrt(2), 1), M = shift."""
    x = np.zeros(dimension(3))
    x[0] = 1.0
    x[3], x[5] = SQRT2, 1.0
    x[9], x[13] = 1.0, 1.0
    return x


class TestParameterize:
    def test_dimension_formula(self):
        assert dimension(2) == 6
        assert dimension(3) == 15
        assert dimension(8) == 120

    def test_zero_vector(self):
        pm = parameterize(3, np.zeros(15))
        assert np.array_equal(pm.P, np.zeros((3, 3)))
        assert np.array_equal(pm.M, np.zeros((3, 3)))

    def test_identity_factor(self):
        v = np.zeros(6)
        v[0] = v[1] = 1.0
        pm = parameterize(2, v)
        assert np.array_equal(pm.P, np.eye(2))

    def test_rank_one_reconstruction(self):
        pm = parameterize(3, rank_one_vector())
        target = np.outer([1.0, SQRT2, 1.0], [1.0, SQRT2, 1.0])
        assert np.max(np.abs(pm.P - target)) <= 1e-15
        assert np.array_equal(pm.M, np.eye(3, k=1))

    def test_odd_length_rejected(self):
        with pytest.raises(BadLengthError):
            parameterize(2, np.zeros(5))
        with pytest.raises(BadLengthError):
            parameterize(3, np.zeros((3, 5)))

    def test_m_always_contracts(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pm = parameterize(n, 10.0 * rng.standard_normal(dimension(n)))
            assert np.linalg.norm(pm.M, 2) <= 1.0 + 1e-12

    def test_p_always_psd(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pm = parameterize(n, 5.0 * rng.standard_normal(dimension(n)))
            eigs = np.linalg.eigvalsh(pm.P)
            assert eigs[0] >= -1e-10 * max(1.0, abs(eigs[-1]))


class TestObjective:
    def test_all_ones_gap_order_two(self):
        assert abs(objective(2, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]) - 0.5) <= 1e-15

    def test_rank_one_gap_order_three(self):
        assert abs(objective(3, rank_one_vector()) - (SQRT2 - 1.0)) <= 1e-15

    def test_degenerate_pairing_returns_one(self):
        v = np.zeros(6)
        v[0] = v[1] = 1.0
        assert objective(2, v) == 1.0

    def test_length_check(self):
        with pytest.raises(BadLengthError):
            objective(2, np.zeros(7))

    def test_agrees_with_materialized_bisection(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            v = rng.standard_normal(dimension(n)) * rng.uniform(0.3, 3.0)
            fast = objective(n, v)
            if fast == 1.0:
                continue
            assert abs(fast - materialized_radius(n, v)) <= 1e-8

    def test_invariant_under_factor_scaling(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            v = rng.standard_normal(dimension(n))
            w = v.copy()
            w[: n * n] *= 7.5
            assert abs(objective(n, v) - objective(n, w)) <= 1e-10

    def test_per_evaluation_floors(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            v = rng.standard_normal(6) * rng.uniform(0.1, 5.0)
            assert objective(2, v) >= 0.5 - 1e-9
        for _ in range(400):
            v = rng.standard_normal(15) * rng.uniform(0.1, 5.0)
            assert objective(3, v) >= SQRT2 - 1.0 - 1e-9


class TestMaterialize:
    def test_reproduces_staircase_radius(self):
        n = 4
        P = np.ones((n, n), dtype=complex)
        M = np.eye(n, k=1)
        inst = materialize(n, P, M)
        ref = general_witness(n)
        assert np.array_equal(np.triu(inst.A, 1), np.triu(ref.A, 1))
        assert np.array_equal(inst.S, np.eye(n))
        r_here = critical_radius(alpha_series(inst), float(np.trace(inst.S).real))
        r_ref = critical_radius(alpha_series(ref), float(np.trace(ref.S).real))
        assert abs(r_here - r_ref) <= 1e-9

    def test_reproduces_order_three_radius(self):
        v = np.array([1.0, SQRT2, 1.0])
        inst = materialize(3, np.outer(v, v), np.eye(3, k=1))
        ref = sine_witness(3)
        assert np.array_equal(np.triu(inst.A, 1), np.triu(ref.A, 1))
        assert np.array_equal(inst.S + 2.0 * np.eye(3), ref.S)
        r = critical_radius(alpha_series(inst), float(np.trace(inst.S).real))
        assert abs(r - (SQRT2 - 1.0)) <= 1e-9

    def test_gap_matches_p_exactly(self):
        rng = np.random.default_rng(24)
        L = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = L @ L.conj().T
        inst = materialize(4, P, np.zeros((4, 4)))
        gap = inst.S - 0.5 * (inst.A + inst.A.conj().T)
        assert np.max(np.abs(gap - P)) <= 1e-14 * max(1.0, np.max(np.abs(P)))

    def test_zero_pair(self):
        inst = materialize(2, np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(inst.A, np.zeros((2, 2)))
        assert np.array_equal(inst.S, np.zeros((2, 2)))

    def test_rejects_non_hermitian_p(self):
        with pytest.raises(NotPSDError):
            materialize(2, np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)))

    def test_rejects_indefinite_p(self):
        with pytest.raises(NotPSDError):
            materialize(2, np.diag([1.0, -1.0]), np.zeros((2, 2)))

    def test_rejects_non_strictly_upper_m(self):
        with pytest.raises(NotContractionError):
            materialize(2, np.eye(2), np.eye(2))

    def test_rejects_expanding_m(self):
        with pytest.raises(NotContractionError):
            materialize(2, np.eye(2), 1.5 * np.eye(2, k=1))

    def test_rejects_wrong_order(self):
        with pytest.raises(BadLengthError):
            materialize(3, np.eye(2), np.zeros((2, 2)))


class TestSearch:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=1)
        with pytest.raises(ValueError):
            SearchConfig(n=2, restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(n=2, max_iters=0)
        with pytest.raises(ValueError):
            SearchConfig(n=2, simplex_tol=0.0)

    def test_deterministic_across_runs(self):
        cfg = SearchConfig(n=2, restarts=6, max_iters=400, seed=11)
        est1 = search(cfg)
        est2 = search(cfg)
        assert est1.r_star == est2.r_star
        assert est1.per_restart_best == est2.per_restart_best
        assert est1.evaluations == est2.evaluations
        assert np.array_equal(est1.instance.A, est2.instance.A)

    def test_seed_changes_trajectories(self):
        a = search(SearchConfig(n=2, restarts=2, max_iters=200, seed=0))
        b = search(SearchConfig(n=2, restarts=2, max_iters=200, seed=1))
        assert a.per_restart_best != b.per_restart_best

    def test_estimate_bookkeeping(self):
        cfg = SearchConfig(n=2, restarts=4, max_iters=300, seed=3)
        seen = []
        est = search(cfg, eval_hook=seen.append)
        assert len(est.per_restart_best) == 4
        assert est.r_star == min(est.per_restart_best)
        assert est.evaluations == len(seen)
        assert min(seen) >= 0.5 - 1e-9
        assert est.instance.order == 2

    def test_finds_order_two_constant(self):
        est = search(SearchConfig(n=2, restarts=8, max_iters=2000, seed=7))
        assert 0.5 - 1e-6 <= est.r_star <= 0.5 + 1e-3
        inst_r = critical_radius(
            alpha_series(est.instance), float(np.trace(est.instance.S).real)
        )
        assert abs(inst_r - est.r_star) <= 1e-8

    def test_never_beats_the_sine_family(self):
        # the sine witness radius 1/(1 + 2 cos(pi/(n+1))) is the order-n minimum
        for n in (2, 3, 4):
            est = search(SearchConfig(n=n, restarts=3, max_iters=500, seed=5))
            sine = sine_witness(n)
            floor = critical_radius(alpha_series(sine), float(np.trace(sine.S).real))
            assert abs(floor - 1.0 / (1.0 + 2.0 * math.cos(math.pi / (n + 1)))) <= 1e-12
            assert est.r_star >= floor - 1e-12


class TestCalculusOracle:
    def test_minimum_close_to_sqrt2(self):
        m = calculus_claim_oracle(50)
        assert SQRT2 - 1e-6 <= m <= SQRT2 + 1e-3

    def test_exact_u_maximum_is_at_most_the_u_grid_minimum(self):
        # reference: the same ratio with u on the grid too; maximizing
        # over u exactly can only lower the minimum ratio, and only by
        # the grid's resolution in u
        grid = 30
        ab = np.logspace(-2.0, 1.0, grid)
        uw = np.linspace(0.0, 1.0, grid)
        a, b, u, w = np.meshgrid(ab, ab, uw, uw, indexing="ij")
        den = a * u + a * b * np.sqrt((1.0 - u * u) * (1.0 - w * w)) + b * w
        num = (a * a + b * b + 1.0)[:, :, 0, 0]
        brute = float((num / den.max(axis=(2, 3))).min())
        exact = calculus_claim_oracle(grid)
        assert SQRT2 - 1e-12 <= exact <= brute
        assert brute - exact <= 1e-2

    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            calculus_claim_oracle(9)

    def test_planar_slice_stays_above_two(self):
        # u = w = 0 leaves (a^2+b^2+1)/(ab) = 2 + 1/(ab) at a = b, so the
        # slice minimum sits just above 2 (and near 2.01 with ab <= 100)
        ab = np.logspace(-2.0, 1.0, 50)
        a, b = np.meshgrid(ab, ab)
        ratio = (a * a + b * b + 1.0) / (a * b)
        assert float(ratio.min()) > 2.0
        assert abs(float(ratio.min()) - 2.01) <= 1e-2

    def test_edge_slice_stays_above_two(self):
        # u = 1, w = 0 gives (a^2+b^2+1)/a >= 2 sqrt(b^2+1) > 2 for b > 0
        ab = np.logspace(-2.0, 1.0, 50)
        a, b = np.meshgrid(ab, ab)
        ratio = (a * a + b * b + 1.0) / a
        assert float(ratio.min()) > 2.0
