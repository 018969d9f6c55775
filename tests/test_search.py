"""The radius objective, materialized instances, and the lockstep ADMM search."""

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
    materialize,
    objective,
    search,
)
from bohrlab.series import alpha_series, critical_radius
from bohrlab.witnesses import general_witness, sine_witness

SQRT2 = math.sqrt(2.0)
# the module itself: the package attribute `bohrlab.search` is the function
search_module = importlib.import_module("bohrlab.search")


def materialized_radius(x, M):
    """Bisected radius of the instance (x x*, M / max(1, ||M||))."""
    inst = materialize(len(x), np.outer(x, x.conj()), M / max(1.0, np.linalg.norm(M, 2)))
    return critical_radius(alpha_series(inst), float(np.trace(inst.S).real))


def random_pairs(rng, k, n, scale=1.0):
    """k complex vectors x and k strictly upper complex matrices M."""
    x = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    M = np.triu(rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)), 1)
    return x, scale * M


def shift(n):
    return np.eye(n, k=1, dtype=complex)


def optimum(n):
    return 1.0 / (1.0 + 2.0 * math.cos(math.pi / (n + 1)))


def serial_anderson(n, seed, index, max_iters, simplex_tol):
    """One restart as a plain loop on 1-d and 2-d arrays: ADMM with
    safeguarded type-II Anderson mixing, each step scored and mixed as a
    batch of one.  The reference that the lockstep search must match bit
    for bit.

    Returns (best value, iterations, evaluations, stop reason, rejected
    Anderson points).
    """
    memory = 5
    up, down = np.triu_indices(n, 1)
    M = np.zeros((n, n), dtype=np.complex128)
    M[up, down] = np.random.default_rng([seed, index]).standard_normal(n * (n - 1)).view(complex)
    M /= np.linalg.svd(M, compute_uv=False)[0]
    u = np.concatenate((M, M, np.zeros_like(M))).ravel().view(np.float64)  # (M, Y, Lambda)
    dG = np.zeros((memory, u.size))  # differences of F(u), slot it % memory for step it
    H = np.zeros((memory + 1, u.size))  # differences of the residual, then the residual
    gram = np.zeros((memory, memory))
    best, ready, rejected = math.inf, 3, 0  # mix from step `ready` on
    for it in range(1, max_iters + 1):
        M, Y, Lam = u.view(np.complex128).reshape(3, n, n)
        x = np.ascontiguousarray(np.linalg.eigh(M + M.conj().T, UPLO="U")[1][:, -1])
        value = objective(x[None], M[None])[0]
        best = min(best, value)
        g_M = np.triu(Y - Lam + x[:, None] @ (x.conj() / n)[None, :], 1)
        Z = g_M + Lam
        W, s, Vh = np.linalg.svd(Z)
        g_Lam = (W * np.maximum(s - 1.0, 0.0)) @ Vh
        g = np.concatenate((g_M, Z - g_Lam, g_Lam)).ravel().view(np.float64)
        r = g - u
        step = r[: 2 * n * n]  # the plain step's move of M
        if step @ step < simplex_tol**2:
            return best, it, it, "converged", rejected
        slot = it % memory
        H[memory] = r
        if it > 1:
            dG[slot] = g - g_last
            H[slot] = r - r_last
        P = (H[None] @ H[None, [slot, memory]].transpose(0, 2, 1))[0]
        gram[slot] = gram[:, slot] = P[:memory, 0]
        rhs = P[:memory, 1:]
        if ready < it and (P[memory, 1] > rr_last or value > value_last):
            # u was an Anderson point and got worse: back to the plain
            # image it was mixed from, with no differences stored
            rejected += 1
            g, r = g_last, r_last
            dG[:] = H[:memory] = gram[:] = rhs[:] = 0.0
            ready = it + 2
        u = g
        if ready <= it:
            A = gram + (1e-10 * np.trace(gram) + np.finfo(float).tiny) * np.eye(memory)
            gamma = np.linalg.solve(A[None], rhs[None])
            u = g - (gamma.transpose(0, 2, 1) @ dG[None])[0, 0]
        g_last, r_last, value_last, rr_last = g, r.copy(), value, P[memory, 1]
    return best, max_iters, max_iters, "max_iters", rejected


class TestObjective:
    def test_all_ones_gap_order_two(self):
        assert abs(objective([[1.0, 1.0]], [shift(2)])[0] - 0.5) <= 1e-15

    def test_rank_one_gap_order_three(self):
        value = objective([[1.0, SQRT2, 1.0]], [shift(3)])
        assert value.shape == (1,)
        assert abs(value[0] - (SQRT2 - 1.0)) <= 1e-15

    def test_sine_vector_reaches_the_optimum(self):
        for n in (2, 4, 8, 16):
            x = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
            assert abs(objective([x], [shift(n)])[0] - optimum(n)) <= 1e-14

    def test_degenerate_pairing_returns_one(self):
        x = np.array([[1.0, 0.0]])
        M = np.array([[[0.0, 0.5], [0.0, 0.0]]])
        assert objective(x, M)[0] == 1.0
        assert objective(np.zeros((1, 2)), M)[0] == 1.0
        assert objective(x, np.zeros((1, 2, 2)))[0] == 1.0
        pairs = np.array([x[0], np.zeros(2)]), np.array([M[0], M[0]])
        assert np.array_equal(objective(*pairs), [1.0, 1.0])

    def test_length_check(self):
        # shapes that do not match one order n and one batch size k
        for x_shape, m_shape in (
            ((3,), (3, 3)),  # one pair without its batch axis
            ((1, 3), (3, 3)),
            ((2, 3), (2, 3, 4)),
            ((2, 3), (2, 4, 4)),
            ((2, 3), (3, 3, 3)),
            ((2, 3), (2, 3, 3, 1)),
            ((1, 2, 3), (1, 2, 3, 3)),
        ):
            with pytest.raises(BadLengthError):
                objective(np.ones(x_shape), np.zeros(m_shape))

    def test_batch_matches_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(25)
        for n in (2, 3, 5, 8, 13):
            for k in (1, 2, 7, 40):
                x, M = random_pairs(rng, k, n)
                x *= rng.uniform(0.05, 3.0, (k, 1))
                M *= rng.uniform(0.05, 3.0, (k, 1, 1))
                M[0] *= 0.1 / np.linalg.norm(M[0])  # a contraction: its scale is 1
                batch = objective(x, M)
                assert batch.shape == (k,)
                singles = np.array([objective(x[i : i + 1], M[i : i + 1])[0] for i in range(k)])
                assert np.array_equal(batch, singles)
                perm = rng.permutation(k)
                assert np.array_equal(objective(x[perm], M[perm]), batch[perm])

    def test_strided_views_give_the_same_values(self):
        rng = np.random.default_rng(26)
        x, M = random_pairs(rng, 6, 5)
        wide_x, wide_M = np.zeros((6, 10), complex), np.zeros((6, 5, 10), complex)
        wide_x[:, ::2], wide_M[:, :, ::2] = x, M
        assert np.array_equal(objective(wide_x[:, ::2], wide_M[:, :, ::2]), objective(x, M))
        assert np.array_equal(objective(x[::-1], M[::-1]), objective(x, M)[::-1])

    def test_agrees_with_materialized_bisection(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x, M = random_pairs(rng, 1, n, rng.uniform(0.3, 3.0))
            fast = objective(x, M)[0]
            if fast == 1.0:
                continue
            assert abs(fast - materialized_radius(x[0], M[0])) <= 1e-8

    def test_invariant_under_factor_scaling(self):
        # x is the factor of the gap P = x x*: its scale and phase drop out
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x, M = random_pairs(rng, 1, n)
            value = objective(x, M)[0]
            assert abs(objective(7.5 * x, M)[0] - value) <= 1e-10
            assert abs(objective(x * np.exp(1j * rng.uniform(0, 6.3)), M)[0] - value) <= 1e-10

    def test_per_evaluation_floors(self):
        rng = np.random.default_rng(23)
        for n, floor in ((2, 0.5), (3, SQRT2 - 1.0), (8, optimum(8))):
            x, M = random_pairs(rng, 400, n)
            x *= rng.uniform(0.1, 5.0, (400, 1))
            M *= rng.uniform(0.1, 5.0, (400, 1, 1))
            assert np.all(objective(x, M) >= floor - 1e-9)


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
        "n, restarts, max_iters",
        [(2, 3, 2000), (3, 2, 300), (3, 2, 40), (3, 2, 36), (4, 3, 2000), (5, 4, 2000)],
    )
    def test_lockstep_matches_serial_restarts(self, n, restarts, max_iters):
        # n=2 converges in three plain steps; at max_iters=36 one n=3
        # restart converges and the other stops at max_iters; every other
        # restart converges after its own step count, and from n=3 on the
        # safeguard rejects Anderson points at steps that differ between
        # the restarts of a batch
        cfg = SearchConfig(n=n, restarts=restarts, max_iters=max_iters, seed=4)
        est = search(cfg)
        for i, rec in enumerate(est.per_restart):
            ref = serial_anderson(n, cfg.seed, i, cfg.max_iters, cfg.simplex_tol)
            assert (rec.best, rec.iterations, rec.evaluations, rec.stop) == ref[:4]
        if max_iters == 36:
            assert [rec.stop for rec in est.per_restart] == ["max_iters", "converged"]

    def test_safeguard_fires_and_is_matched(self):
        # the restarts reject Anderson points at different steps, so their
        # rows leave and rejoin the mixing at different times
        cfg = SearchConfig(n=4, restarts=3, max_iters=2000, seed=4)
        est = search(cfg)
        refs = [serial_anderson(4, cfg.seed, i, cfg.max_iters, cfg.simplex_tol) for i in range(3)]
        assert [rec.stop for rec in est.per_restart] == ["converged"] * 3
        assert [(r.best, r.iterations, r.evaluations, r.stop) for r in est.per_restart] == [
            ref[:4] for ref in refs
        ]
        assert all(ref[4] > 0 for ref in refs)
        assert len({ref[1] for ref in refs}) > 1

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        cfg = SearchConfig(n=3, restarts=5, max_iters=400, seed=17)
        whole = search(cfg)
        # what one order-3 restart keeps, in order-3 complex matrices: M, Y
        # and Lambda; F(u) and the residual of the step before; five
        # differences of each; the current residual; the best M
        state = 16 * 3 * 3 * (3 + 6 + 6 * 5 + 3 + 1)
        run_restart, sizes = search_module._run_restart, []

        def counted(cfg, indices, eval_hook):
            sizes.append(len(indices))
            return run_restart(cfg, indices, eval_hook)

        monkeypatch.setattr(search_module, "_run_restart", counted)
        # chunks of one restart, then chunks of two (a byte short of three)
        for state_bytes, chunks in ((1, [1] * 5), (3 * state - 1, [2, 2, 1])):
            sizes.clear()
            monkeypatch.setattr(search_module, "_STATE_BYTES", state_bytes)
            chunked = search(cfg)
            assert sizes == chunks
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

    def test_order_sixteen_converges_to_the_optimum(self):
        # plain ADMM stops at max_iters here, 2e-4 above the optimum
        est = search(SearchConfig(n=16, restarts=2, max_iters=20000, seed=1))
        assert [rec.stop for rec in est.per_restart] == ["converged"] * 2
        assert 0.0 <= est.gap < 1e-6

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_restart_reaches_the_optimum(self, n, seed):
        # each restart, not only the winner: an Anderson point kept without
        # the safeguard stops restarts converged up to 0.1 above it
        est = search(SearchConfig(n=n, restarts=16, seed=seed))
        for rec in est.per_restart:
            assert rec.stop == "converged"
            assert abs(rec.best - optimum(n)) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_reaches_the_closed_form_optimum(self, n):
        est = search(SearchConfig(n=n, restarts=2, max_iters=20000, seed=7))
        assert abs(est.r_star - optimum(n)) <= 1e-6
        assert est.gap == est.r_star - optimum(n)
        inst_r = critical_radius(alpha_series(est.instance), float(np.trace(est.instance.S).real))
        assert abs(inst_r - est.r_star) <= 1e-8

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4)])
    def test_instance_m_always_contracts(self, n, seed):
        # the winner's M is rescaled by max(1, ||M||) before it is materialized
        est = search(SearchConfig(n=n, restarts=2, max_iters=60, seed=seed))
        M = est.instance.seq.matrices[0]
        assert np.array_equal(M, np.triu(M, 1))
        assert np.linalg.norm(M, 2) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4)])
    def test_instance_gap_always_rank_one_psd(self, n, seed):
        inst = search(SearchConfig(n=n, restarts=2, max_iters=60, seed=seed)).instance
        gap = inst.S - 0.5 * (inst.A + inst.A.conj().T)
        eigs = np.linalg.eigvalsh(gap)
        assert eigs[-1] > 0.0
        assert eigs[0] >= -1e-12 * eigs[-1]
        assert np.all(np.abs(eigs[:-1]) <= 1e-12 * eigs[-1])
        assert abs(np.trace(gap).real - eigs[-1]) <= 1e-12 * eigs[-1]

    @pytest.mark.parametrize(
        "n, seed, max_iters",
        [(3, 1, 20), (4, 3, 5), (5, 3, 20), (6, 7, 40), (3, 1, 12), (4, 5, 20), (5, 1, 8), (6, 7, 20)],
    )
    def test_instance_is_the_best_step(self, n, seed, max_iters):
        # in the last four cases the winner's last step is 4e-3 to 9e-2
        # worse than its best one
        est = search(SearchConfig(n=n, restarts=2, max_iters=max_iters, seed=seed))
        inst_r = critical_radius(alpha_series(est.instance), float(np.trace(est.instance.S).real))
        assert abs(inst_r - est.r_star) <= 1e-9

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
