"""Parameterization, the radius objective, and the lockstep ADMM search."""

import importlib
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
# the module itself: the package attribute `bohrlab.search` is the function
search_module = importlib.import_module("bohrlab.search")


def materialized_radius(n, v):
    pm = parameterize(n, v)
    inst = materialize(n, pm.P, pm.M)
    return critical_radius(alpha_series(inst), float(np.trace(inst.S).real))


def rank_one_vector():
    """n = 3 encoding of x = (1, sqrt(2), 1) and M = shift."""
    v = np.zeros(dimension(3))
    v[0:6:2] = 1.0, SQRT2, 1.0
    # strictly-upper entries (0,1), (0,2), (1,2) as (re, im) pairs
    v[6], v[10] = 1.0, 1.0
    return v


def optimum(n):
    return 1.0 / (1.0 + 2.0 * math.cos(math.pi / (n + 1)))


def serial_admm(n, seed, index, max_iters, simplex_tol):
    """One restart as a plain loop on 2-d arrays, scored one flat vector
    at a time: the reference that the lockstep search must match bit for
    bit.

    Returns (best value, iterations, evaluations, stop reason).
    """
    up, down = np.triu_indices(n, 1)
    M = np.zeros((n, n), dtype=np.complex128)
    M[up, down] = np.random.default_rng([seed, index]).standard_normal(n * (n - 1)).view(complex)
    M /= np.linalg.svd(M, compute_uv=False)[0]
    Y, Lam = M.copy(), np.zeros_like(M)
    best = math.inf
    for it in range(1, max_iters + 1):
        x = np.ascontiguousarray(np.linalg.eigh(M + M.conj().T)[1][:, -1])
        best = min(best, objective(n, np.concatenate([x, M[up, down]]).view(np.float64)))
        new = np.triu(Y - Lam + (x[:, None] @ x.conj()[None, :]) / n, 1)
        step = (new - M).ravel().view(np.float64)
        M = new
        Z = M + Lam
        U, s, Vh = np.linalg.svd(Z)
        Lam = (U * np.maximum(s - 1.0, 0.0)) @ Vh
        Y = Z - Lam
        if step @ step < simplex_tol**2:
            return best, it, it, "converged"
    return best, max_iters, max_iters, "max_iters"


class TestParameterize:
    def test_dimension_formula(self):
        assert dimension(2) == 6
        assert dimension(3) == 12
        assert dimension(8) == 72

    def test_zero_vector(self):
        pm = parameterize(3, np.zeros(12))
        assert np.array_equal(pm.P, np.zeros((3, 3)))
        assert np.array_equal(pm.M, np.zeros((3, 3)))

    def test_unit_vector_gives_a_projection(self):
        v = np.zeros(6)
        v[2] = 1.0
        v[4:] = 0.25, -0.5
        pm = parameterize(2, v)
        assert np.array_equal(pm.P, np.diag([0.0, 1.0]))
        assert np.array_equal(pm.M, np.array([[0.0, 0.25 - 0.5j], [0.0, 0.0]]))

    def test_rank_one_reconstruction(self):
        pm = parameterize(3, rank_one_vector())
        target = np.outer([1.0, SQRT2, 1.0], [1.0, SQRT2, 1.0])
        assert np.max(np.abs(pm.P - target)) <= 1e-15
        assert np.array_equal(pm.M, np.eye(3, k=1))

    def test_complex_entries_land_in_place(self):
        n = 4
        rng = np.random.default_rng(18)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        M = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) / 10.0
        v = np.concatenate([x, M[np.triu_indices(n, 1)]]).view(np.float64)
        pm = parameterize(n, v)
        assert np.array_equal(pm.P, np.outer(x, x.conj()))
        assert np.array_equal(pm.M, M)

    def test_odd_length_rejected(self):
        with pytest.raises(BadLengthError):
            parameterize(2, np.zeros(5))
        with pytest.raises(BadLengthError):
            parameterize(3, np.zeros((3, 5)))
        with pytest.raises(BadLengthError):
            parameterize(3, np.zeros(15))

    def test_m_always_contracts(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pm = parameterize(n, 10.0 * rng.standard_normal(dimension(n)))
            assert np.linalg.norm(pm.M, 2) <= 1.0 + 1e-12
            assert np.array_equal(pm.M, np.triu(pm.M, 1))

    def test_p_always_psd(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            v = 5.0 * rng.standard_normal(dimension(n))
            pm = parameterize(n, v)
            eigs = np.linalg.eigvalsh(pm.P)
            assert eigs[0] >= -1e-10 * max(1.0, abs(eigs[-1]))
            assert np.all(np.abs(eigs[:-1]) <= 1e-12 * eigs[-1])
            assert abs(np.trace(pm.P).real - v[: 2 * n] @ v[: 2 * n]) <= 1e-12 * eigs[-1]


class TestObjective:
    def test_all_ones_gap_order_two(self):
        assert abs(objective(2, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]) - 0.5) <= 1e-15

    def test_rank_one_gap_order_three(self):
        assert abs(objective(3, rank_one_vector()) - (SQRT2 - 1.0)) <= 1e-15

    def test_sine_vector_reaches_the_optimum(self):
        for n in (2, 4, 8, 16):
            x = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
            v = np.zeros(dimension(n))
            v[0 : 2 * n : 2] = x
            # the superdiagonal entries (k, k+1) of the row-major strictly-upper order
            first = np.cumsum([0] + [n - 1 - k for k in range(n - 2)])
            v[2 * n + 2 * first] = 1.0
            assert abs(objective(n, v) - optimum(n)) <= 1e-14

    def test_degenerate_pairing_returns_one(self):
        v = np.zeros(6)
        v[0] = 1.0
        v[4] = 0.5
        assert objective(2, v) == 1.0
        assert objective(2, np.zeros(6)) == 1.0
        assert np.array_equal(objective(2, np.array([v, np.zeros(6)])), [1.0, 1.0])

    def test_length_check(self):
        with pytest.raises(BadLengthError):
            objective(2, np.zeros(7))
        with pytest.raises(BadLengthError):
            objective(2, np.zeros((3, 7)))
        with pytest.raises(BadLengthError):
            objective(2, np.zeros((2, 3, 6)))

    def test_batch_matches_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(25)
        for n in (2, 3, 5, 8, 13):
            for k in (1, 2, 7, 40):
                rows = rng.standard_normal((k, dimension(n))) * rng.uniform(0.05, 3.0, (k, 1))
                rows[0, 2 * n :] *= 0.1  # a row whose Frobenius norm skips the SVD
                batch = objective(n, rows)
                assert batch.shape == (k,)
                singles = np.array([objective(n, row) for row in rows])
                assert np.array_equal(batch, singles)
                perm = rng.permutation(k)
                assert np.array_equal(objective(n, rows[perm]), batch[perm])

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
        # x is the factor of the gap P = x x*: its scale and phase drop out
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            v = rng.standard_normal(dimension(n))
            w = v.copy()
            w[: 2 * n] *= 7.5
            assert abs(objective(n, v) - objective(n, w)) <= 1e-10
            w[: 2 * n] = (v[: 2 * n].view(complex) * np.exp(1j * rng.uniform(0, 6.3))).view(float)
            assert abs(objective(n, v) - objective(n, w)) <= 1e-10

    def test_per_evaluation_floors(self):
        rng = np.random.default_rng(23)
        for n, floor in ((2, 0.5), (3, SQRT2 - 1.0), (8, optimum(8))):
            for _ in range(400):
                v = rng.standard_normal(dimension(n)) * rng.uniform(0.1, 5.0)
                assert objective(n, v) >= floor - 1e-9


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
        for tol in (0.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ValueError):
                SearchConfig(n=2, simplex_tol=tol)

    def test_deterministic_across_runs(self):
        cfg = SearchConfig(n=2, restarts=6, max_iters=400, seed=11)
        est1 = search(cfg)
        est2 = search(cfg)
        assert est1.r_star == est2.r_star
        assert est1.per_restart_best == est2.per_restart_best
        assert est1.evaluations == est2.evaluations
        assert np.array_equal(est1.instance.A, est2.instance.A)

    def test_seed_changes_trajectories(self):
        a = search(SearchConfig(n=3, restarts=2, max_iters=20, seed=0))
        b = search(SearchConfig(n=3, restarts=2, max_iters=20, seed=1))
        assert a.per_restart_best != b.per_restart_best

    def test_estimate_bookkeeping(self):
        cfg = SearchConfig(n=2, restarts=4, max_iters=300, seed=3)
        seen = []
        est = search(cfg, eval_hook=seen.append)
        assert len(est.per_restart_best) == 4
        assert est.r_star == min(est.per_restart_best)
        assert est.evaluations == len(seen)
        assert est.evaluations == sum(rec.evaluations for rec in est.per_restart)
        assert est.per_restart_best == tuple(rec.best for rec in est.per_restart)
        assert min(seen) >= 0.5 - 1e-9
        assert est.instance.order == 2

    def test_finds_order_two_constant(self):
        est = search(SearchConfig(n=2, restarts=8, max_iters=2000, seed=7))
        assert 0.5 - 1e-6 <= est.r_star <= 0.5 + 1e-3
        inst_r = critical_radius(
            alpha_series(est.instance), float(np.trace(est.instance.S).real)
        )
        assert abs(inst_r - est.r_star) <= 1e-8

    @pytest.mark.parametrize("n, max_iters", [(2, 2000), (3, 600)])
    def test_restarts_do_not_depend_on_the_restart_count(self, n, max_iters):
        few = search(SearchConfig(n=n, restarts=2, max_iters=max_iters, seed=13))
        many = search(SearchConfig(n=n, restarts=5, max_iters=max_iters, seed=13))
        assert many.per_restart[:2] == few.per_restart
        assert many.per_restart_best[:2] == few.per_restart_best

    @pytest.mark.parametrize(
        "n, restarts, max_iters", [(2, 3, 2000), (3, 2, 300), (3, 2, 40), (4, 3, 2000)]
    )
    def test_lockstep_matches_serial_restarts(self, n, restarts, max_iters):
        # every restart converges after its own step count, except at
        # max_iters=40, where n=3 stops at max_iters
        cfg = SearchConfig(n=n, restarts=restarts, max_iters=max_iters, seed=4)
        est = search(cfg)
        for i, rec in enumerate(est.per_restart):
            ref = serial_admm(n, cfg.seed, i, cfg.max_iters, cfg.simplex_tol)
            assert (rec.best, rec.iterations, rec.evaluations, rec.stop) == ref

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        cfg = SearchConfig(n=3, restarts=5, max_iters=400, seed=17)
        whole = search(cfg)
        state = 3 * 16 * 3 * 3  # M, Y and Lambda of one order-3 restart
        # chunks of one restart, then chunks of two
        for state_bytes in (1, 2 * state):
            monkeypatch.setattr(search_module, "_STATE_BYTES", state_bytes)
            chunked = search(cfg)
            assert chunked.per_restart == whole.per_restart
            assert np.array_equal(chunked.instance.A, whole.instance.A)

    def test_stop_reason_max_iters(self):
        est = search(SearchConfig(n=2, restarts=3, max_iters=1, seed=2))
        assert [rec.stop for rec in est.per_restart] == ["max_iters"] * 3
        assert [rec.iterations for rec in est.per_restart] == [1, 1, 1]

    def test_stop_reason_converged(self):
        cfg = SearchConfig(n=2, restarts=4, seed=7)
        est = search(cfg)
        assert all(rec.iterations < cfg.max_iters for rec in est.per_restart)
        assert [rec.stop for rec in est.per_restart] == ["converged"] * 4

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_reaches_the_closed_form_optimum(self, n):
        est = search(SearchConfig(n=n, restarts=2, max_iters=20000, seed=7))
        assert abs(est.r_star - optimum(n)) <= 1e-6
        assert est.gap == est.r_star - optimum(n)
        inst_r = critical_radius(alpha_series(est.instance), float(np.trace(est.instance.S).real))
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
