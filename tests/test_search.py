"""Parameterization, the radius objective, and the multistart descent."""

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
    """n = 3 encoding of P = vv* for v = (1, sqrt(2), 1), M = shift."""
    x = np.zeros(dimension(3))
    x[0] = 1.0
    x[3], x[5] = SQRT2, 1.0
    x[9], x[13] = 1.0, 1.0
    return x


def serial_nelder_mead(n, x0, max_iters, simplex_tol):
    """One restart as a plain loop with one objective call per point:
    the reference that the lockstep search must match bit for bit.

    Returns (best value, iterations, evaluations, stop reason).
    """
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    simplex[1:] += 0.5 * np.eye(dim)
    fvals = np.array([objective(n, x) for x in simplex])
    evals = dim + 1
    vsum = simplex.sum(axis=0)
    best = int(np.argmin(fvals))
    diff = simplex - simplex[best]
    dist2 = np.einsum("ij,ij->i", diff, diff)

    def rebest():
        nonlocal best
        new_best = int(np.argmin(fvals))
        if new_best != best:
            best = new_best
            d = simplex - simplex[best]
            dist2[:] = np.einsum("ij,ij->i", d, d)

    def replace(w, x, f):
        vsum[:] += x - simplex[w]
        simplex[w] = x
        fvals[w] = f
        d = x - simplex[best]
        dist2[w] = d @ d
        rebest()

    for it in range(max_iters + 1):
        if float(np.max(dist2)) < simplex_tol**2:
            return float(fvals[best]), it, evals, "converged"
        if it == max_iters:
            return float(fvals[best]), it, evals, "max_iters"
        order = np.argsort(fvals, kind="stable")
        w = int(order[-1])
        f_best, f_second, f_worst = fvals[order[0]], fvals[order[-2]], fvals[w]
        centroid = (vsum - simplex[w]) / dim
        xr = 2.0 * centroid - simplex[w]
        fr = objective(n, xr)
        evals += 1
        if fr < f_best:
            xe = centroid + 2.0 * (centroid - simplex[w])
            fe = objective(n, xe)
            evals += 1
            if fe < fr:
                replace(w, xe, fe)
            else:
                replace(w, xr, fr)
        elif fr < f_second:
            replace(w, xr, fr)
        else:
            if fr < f_worst:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (simplex[w] - centroid)
            fc = objective(n, xc)
            evals += 1
            if fc < min(fr, f_worst):
                replace(w, xc, fc)
            else:
                keep = simplex[best].copy()
                simplex += keep
                simplex *= 0.5
                simplex[best] = keep
                for i in range(dim + 1):
                    if i != best:
                        fvals[i] = objective(n, simplex[i])
                evals += dim
                vsum[:] = simplex.sum(axis=0)
                dist2[:] *= 0.25
                rebest()


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
        with pytest.raises(BadLengthError):
            objective(2, np.zeros((3, 7)))
        with pytest.raises(BadLengthError):
            objective(2, np.zeros((2, 3, 6)))

    def test_batch_matches_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(25)
        for n in (2, 3, 5, 8):
            for k in (1, 2, 7, 40):
                rows = rng.standard_normal((k, dimension(n))) * rng.uniform(0.05, 3.0, (k, 1))
                rows[0, n * n :] *= 0.1  # a row whose Frobenius norm skips the SVD
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

    @pytest.mark.parametrize("n, restarts, max_iters", [(2, 3, 2000), (3, 2, 300)])
    def test_lockstep_matches_serial_restarts(self, n, restarts, max_iters):
        # n=2 converges and shrinks on the way; n=3 stops at max_iters
        cfg = SearchConfig(n=n, restarts=restarts, max_iters=max_iters, seed=4)
        est = search(cfg)
        for i, rec in enumerate(est.per_restart):
            x0 = np.random.default_rng([cfg.seed, i]).standard_normal(dimension(n))
            ref = serial_nelder_mead(n, x0, cfg.max_iters, cfg.simplex_tol)
            assert (rec.best, rec.iterations, rec.evaluations, rec.stop) == ref

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        cfg = SearchConfig(n=3, restarts=5, max_iters=400, seed=17)
        whole = search(cfg)
        simplex = (dimension(3) + 1) * dimension(3) * 8
        point = dimension(3) * 8
        # chunks of one restart and one point per objective call, then
        # chunks of two restarts and four points per call
        for simplex_bytes, call_bytes in ((1, 1), (2 * simplex, 4 * point)):
            monkeypatch.setattr(search_module, "_SIMPLEX_BYTES", simplex_bytes)
            monkeypatch.setattr(search_module, "_CALL_BYTES", call_bytes)
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
