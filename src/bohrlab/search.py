"""Lockstep ADMM search, with safeguarded Anderson mixing, for the
extremal critical radius.

The hypotheses leave exactly two degrees of freedom that matter: the
PSD gap matrix P = S - Re(A) and the strictly-upper contraction M that
pairs with A.  For the instance from_gap(P, M, 0) the critical radius
is D/(D + |alpha|) with D = Tr(P) and alpha the pairing of the induced
A with M.  Both D and alpha are linear in P, so by the triangle
inequality a rank-one gap P = x x* does as well as any, and the radius
becomes 1/(1 + 2|x*Mx|/|x|^2).  The search therefore solves the reduced
problem: maximize Re x*Mx over unit x and strictly-upper M with
||M|| <= 1 (the feasible set is invariant under M -> e^{it} M, so no
phase search is needed).  Its optimum gives the radius
1/(1 + 2 cos(pi/(n+1))) (Haagerup and de la Harpe, Proc. AMS 115 (1992)).

The solver is ADMM (Boyd et al., Found. Trends Mach. Learn. 3 (2011))
on the split M = Y, M strictly upper and Y in the unit ball of the
operator norm, with penalty rho = n.  One plain step F maps the state
u = (M, Y, Lambda) to

    x      <- top eigenvector of (M + M*)/2
    M      <- SU(Y - Lambda + x x*/rho)   (SU keeps the strictly-upper part)
    Y      <- M + Lambda with its singular values clipped at 1
    Lambda <- Lambda + M - Y

Before M moves, each step scores the stacked pairs (x, M) of the live
restarts with `objective`: the radius of the instance built from
(x x*, M / max(1, ||M||)), so every reported value belongs to a feasible
instance.  Each restart keeps the M of its best step; search() builds
the winner's instance from it and the x that scored it.

The iteration is F with type-II Anderson mixing (Walker and Ni, SIAM J.
Numer. Anal. 49 (2011)) and a safeguard, as Fu, Zhang and Boyd (SIAM J.
Sci. Comput. 42 (2020)) use it on Douglas-Rachford splitting.  Each
restart keeps the last five differences dG of F(u) and dR of the
residual r = F(u) - u between consecutive steps, and the Gram matrix
dR^T dR, updated one column per step.  Once two differences are stored
the next point is the Anderson point u <- F(u) - dG gamma, where gamma
solves (dR^T dR + 1e-10 tr(dR^T dR) I) gamma = dR^T r.  The safeguard
rejects an Anderson point whose residual norm |r| or whose value is
larger than at the step before: the restart goes back to the plain
image F(u) it was mixed from, clears its differences and mixes again
once two new ones are stored.  The value is the one every step scores,
so the safeguard costs no evaluation, and a rejected step counts as a
step and an evaluation like any other.  A restart stops once the plain
step from its current point would move M by less than _MIN_STEP = 1e-9
in Frobenius norm, or after max_iters steps.

Restarts run in lockstep: every live restart takes its step at once,
with one batched eigh, two batched SVDs (the projection and the honest
value's ||M||) and one objective call for all of them, and the mixing
adds one product of the residual differences with the new difference
and residual (the Gram column, dR^T r and |r|^2), one batched 5 x 5
solve and one product with dG: O(n^2) flops per restart beside the
O(n^3) of the decompositions.  A restart leaves the batch when it
stops.  Each row of a batch goes through the same per-row arithmetic
whatever else the batch holds, so a restart's trajectory, values and
counts do not depend on how many restarts run beside it.  Restarts are
taken in chunks of consecutive indices whose stacked state, the mixing
history included, fits a fixed memory bound (_STATE_BYTES).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import check_theorem_hypotheses
from .linalg import DEFAULT_TOL, as_complex_matrix, entries_within_tol, hermitian_deviation
from .series import BohrInstance


class BadLengthError(ValueError):
    """An array's shape does not match the order."""


class NotPSDError(ValueError):
    """Gap matrix fails the positive-semidefinite requirement."""


class NotContractionError(ValueError):
    """Sequence matrix is not a strictly upper contraction."""


@dataclass(frozen=True)
class SearchConfig:
    n: int
    restarts: int = 32
    max_iters: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


# bound on the bytes one chunk of restarts stacks (see _restart_bytes)
_STATE_BYTES = 8 << 20
# a restart converges once the plain step would move M by less than
# this in Frobenius norm
_MIN_STEP = 1e-9
# Anderson mixing: the differences kept per restart, the Tikhonov weight
# relative to the trace of their Gram matrix (tiny keeps an all-zero
# Gram matrix solvable), and the first step with two differences stored
# (step 1 has no step before it to differ from)
_MEMORY = 5
_REGULARIZATION = 1e-10
_TINY = np.finfo(np.float64).tiny
_EYE = np.eye(_MEMORY)
_FIRST_MIX = 3


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended: its best value, the ADMM steps and
    objective evaluations it used (one per step, rejected Anderson steps
    included), and why it stopped: "converged" when the plain step from
    its last point would move M by less than _MIN_STEP (1e-9), else
    "max_iters"."""

    best: float
    iterations: int
    evaluations: int
    stop: str


@dataclass(frozen=True)
class RadiusEstimate:
    r_star: float
    instance: BohrInstance
    per_restart: tuple[RestartRecord, ...]

    @property
    def evaluations(self) -> int:
        return sum(rec.evaluations for rec in self.per_restart)

    @property
    def per_restart_best(self) -> tuple[float, ...]:
        return tuple(rec.best for rec in self.per_restart)

    @property
    def gap(self) -> float:
        """r_star minus the order-n optimum 1/(1 + 2 cos(pi/(n+1)))."""
        n = self.instance.order
        return self.r_star - 1.0 / (1.0 + 2.0 * math.cos(math.pi / (n + 1)))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sum(a * b), each row through the BLAS dot that a 1-D
    `a @ b` calls.  Rows must be contiguous: the dot sums a strided
    vector in another order, so a row's value would depend on its batch."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _scales(M: np.ndarray) -> np.ndarray:
    """max(1, ||M||) for each matrix of a (k, n, n) stack."""
    return np.maximum(1.0, np.linalg.svd(M, compute_uv=False)[:, 0])


def objective(x, M) -> np.ndarray:
    """Critical radius of each instance built from (x x*, M / max(1, ||M||)).

    x is a (k, n) complex array and M a (k, n, n) stack of strictly upper
    matrices (not checked; only then is the value the radius of a
    feasible instance).  Row i gives |x|^2 / (|x|^2 + 2|x*Mx| / max(1, ||M||)),
    the closed form D/(D + |alpha|) with D = Tr(x x*) and alpha the
    pairing of the induced strictly-upper part of A with the rescaled M,
    or 1 when x*Mx vanishes (the majorant series degenerates to its
    constant term).  Each of the k values is bit for bit the value of its
    row alone: complex products go through BLAS only, since numpy's
    elementwise complex multiply rounds differently in its vector and
    scalar loops.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    M = np.ascontiguousarray(M, dtype=np.complex128)
    if x.ndim != 2 or M.shape != x.shape + x.shape[-1:]:
        raise BadLengthError(
            f"expected x of shape (k, n) and M of shape (k, n, n), got {x.shape} and {M.shape}"
        )
    q = (x.conj()[:, None, :] @ (M @ x[:, :, None]))[:, 0, 0]
    # hypot rounds as abs() of a Python complex does
    mag = 2.0 * np.hypot(q.real, q.imag) / _scales(M)
    D = _dots(x.view(np.float64), x.view(np.float64))
    return np.divide(D, D + mag, out=np.ones_like(D), where=mag != 0.0)


def materialize(n: int, P, M) -> BohrInstance:
    """Assemble the instance (A, S, constant M) realizing a pair (P, M).

    The instance is BohrInstance.from_gap(P, M, 0), so S - Re(A) = P and
    Tr(A) = 0.  The PSD and contraction requirements are the theorem
    hypotheses gap_psd, strictly_upper_sequence and sequence_norm of the
    assembled instance; only Hermitian symmetry of P is checked here,
    since S - Re(A) is rebuilt from the upper triangle alone.
    """
    P = as_complex_matrix(P, "P")
    M = as_complex_matrix(M, "M")
    if P.shape[0] != n or M.shape[0] != n:
        raise BadLengthError(f"P and M must be {n}x{n}")
    if not entries_within_tol(hermitian_deviation(P), P, DEFAULT_TOL):
        raise NotPSDError("P must be Hermitian")

    inst = BohrInstance.from_gap(P, M, 0.0)
    report = check_theorem_hypotheses(inst)
    gap = report.condition("gap_psd")
    if not gap.passed:
        raise NotPSDError(f"P has a negative eigenvalue {gap.slack}")
    if not report.condition("strictly_upper_sequence").passed:
        raise NotContractionError("M must be strictly upper triangular")
    norm = report.condition("sequence_norm")
    if not norm.passed:
        raise NotContractionError(f"M has operator norm {1.0 - norm.slack} > 1")
    return inst


def _restart_bytes(n: int) -> int:
    """Bytes of the state one restart keeps between steps: u = (M, Y,
    Lambda), the last F(u) and residual, MEMORY differences of each, the
    current residual and the best M."""
    return 16 * n * n * (3 + 6 + 6 * _MEMORY + 3 + 1)


def _run_restart(cfg: SearchConfig, indices: range, eval_hook):
    """Lockstep ADMM with safeguarded Anderson mixing over the restarts
    `indices`, with penalty rho = n.

    Restart i starts from M = Y = a strictly-upper complex Gaussian drawn
    from a generator seeded by (cfg.seed, i) and normalized to ||M|| = 1,
    with Lambda = 0.  Each row of U is one live restart's state u = (M,
    Y, Lambda) as 6 n^2 floats; a restart that stops is recorded and
    dropped.  Returns (best M, RestartRecord) per index, in order.
    """
    n = cfg.n
    k = len(indices)
    strict = np.triu(np.ones((n, n), dtype=bool), 1)
    starts = [np.random.default_rng([cfg.seed, i]).standard_normal(n * (n - 1)) for i in indices]
    M = np.zeros((k, n, n), dtype=np.complex128)
    M[:, strict] = np.array(starts).view(np.complex128)
    M /= np.linalg.svd(M, compute_uv=False)[:, :1, None]
    U = np.stack((M, M, np.zeros_like(M)), axis=1).reshape(k, -1).view(np.float64)
    best = np.full(k, np.inf)
    best_M = np.zeros_like(M)
    # dG holds the last MEMORY differences of F(u), slot it % MEMORY the
    # one from step it; H the matching differences of the residual
    # F(u) - u and, in its last row, the current residual
    dG = np.zeros((k, _MEMORY, U.shape[1]))
    H = np.zeros((k, _MEMORY + 1, U.shape[1]))
    gram = np.zeros((k, _MEMORY, _MEMORY))  # the differences' Gram matrix
    ready = np.full(k, _FIRST_MIX)  # the first step at which each restart mixes
    G_last = R_last = last_value = last_rr = None  # F(u), r, value, |r|^2 of the step before
    lanes = np.arange(k)  # chunk position of each live restart
    out: list = [None] * k

    for it in range(1, cfg.max_iters + 1):
        M, Y, Lam = U.view(np.complex128).reshape(len(U), 3, n, n).transpose(1, 0, 2, 3)
        # M + M* has M's upper triangle, the one eigh reads with UPLO="U"
        x = np.ascontiguousarray(np.linalg.eigh(M, UPLO="U")[1][:, :, -1])
        values = objective(x, M)
        if eval_hook is not None:
            for value in values:
                eval_hook(float(value))
        better = values < best
        np.copyto(best, values, where=better)
        np.copyto(best_M, M, where=better[:, None, None])

        # G = F(u), the plain ADMM step; x x* through BLAS, like every
        # complex product here (see objective)
        G = np.zeros(U.shape)
        GM, GY, GLam = G.view(np.complex128).reshape(len(G), 3, n, n).transpose(1, 0, 2, 3)
        np.copyto(GM, Y - Lam + x[:, :, None] @ (x.conj() / n)[:, None, :], where=strict)
        # Y is M + Lambda with its singular values clipped at 1, and the
        # updated Lambda = Lambda + M - Y is the part that was clipped off
        Z = GM + Lam
        W, s, Vh = np.linalg.svd(Z)
        np.matmul(W * np.maximum(s - 1.0, 0.0)[:, None, :], Vh, out=GLam)
        np.subtract(Z, GLam, out=GY)
        R = H[:, _MEMORY]
        np.subtract(G, U, out=R)
        step = R[:, : 2 * n * n]  # how far the plain step moves M

        converged = _dots(step, step) < _MIN_STEP * _MIN_STEP
        stopped = converged if it < cfg.max_iters else np.ones_like(converged)
        done = stopped.nonzero()[0]
        if done.size:
            for j in done:
                stop = "converged" if converged[j] else "max_iters"
                record = RestartRecord(float(best[j]), it, it, stop)
                out[lanes[j]] = (best_M[j].copy(), record)
            live = ~stopped
            if not live.any():
                break
            best, best_M, lanes, values, G, H, dG, gram, ready = (
                a[live] for a in (best, best_M, lanes, values, G, H, dG, gram, ready)
            )
            R = H[:, _MEMORY]
            if it > 1:
                G_last, R_last, last_value, last_rr = (
                    a[live] for a in (G_last, R_last, last_value, last_rr)
                )

        slot = it % _MEMORY
        if it > 1:
            np.subtract(G, G_last, out=dG[:, slot])
            np.subtract(R, R_last, out=H[:, slot])
        # one product with rows slot and MEMORY of H gives the new Gram
        # column, the right-hand side dR^T r and the residual norm |r|^2
        P = H @ H[:, slot :: _MEMORY - slot].transpose(0, 2, 1)
        gram[:, slot] = gram[:, :, slot] = P[:, :_MEMORY, 0]
        rr = P[:, _MEMORY, 1]
        if it > _FIRST_MIX:
            # the safeguard: an Anderson point whose residual norm or value
            # is worse than the step before's is dropped for the plain image
            # it was mixed from, and its restart's differences are cleared
            worse = (rr > last_rr) | (values > last_value)
            reject = (worse & (ready < it)).nonzero()[0]
            if reject.size:
                G[reject] = G_last[reject]
                R[reject] = R_last[reject]
                H[reject, :_MEMORY] = dG[reject] = gram[reject] = P[reject, :_MEMORY] = 0.0
                ready[reject] = it + 2  # after two new differences
        U = G
        if it >= _FIRST_MIX:
            # type II: gamma = argmin |r - dR gamma|, u <- F(u) - dG gamma
            shift = _REGULARIZATION * gram.trace(axis1=1, axis2=2) + _TINY
            gamma = np.linalg.solve(gram + np.multiply.outer(shift, _EYE), P[:, :_MEMORY, 1:])
            U = np.where((ready <= it)[:, None], G - (gamma.transpose(0, 2, 1) @ dG)[:, 0], G)
        G_last, R_last, last_value, last_rr = G, R.copy(), values, rr

    return out


def search(cfg: SearchConfig, eval_hook=None) -> RadiusEstimate:
    """Minimize the critical radius over cfg.restarts independent runs of
    ADMM with safeguarded Anderson mixing.

    Restarts run in lockstep, in chunks of consecutive indices.  Each
    draws its start from a generator seeded by (cfg.seed, restart
    index), and ties between restarts break toward the lowest index.
    eval_hook, when given, observes every objective value.  The instance
    is built from the winner's (x x*, M / max(1, ||M||)).
    """
    size = max(1, _STATE_BYTES // _restart_bytes(cfg.n))
    results = []
    for start in range(0, cfg.restarts, size):
        results += _run_restart(cfg, range(start, min(start + size, cfg.restarts)), eval_hook)

    records = tuple(rec for _, rec in results)
    winner = min(range(cfg.restarts), key=lambda i: (records[i].best, i))
    M = results[winner][0]
    # the x that scored M, as the step computes it
    x = np.ascontiguousarray(np.linalg.eigh(M, UPLO="U")[1][:, -1])
    instance = materialize(cfg.n, np.outer(x, x.conj()), M / _scales(M[None])[0])
    return RadiusEstimate(records[winner].best, instance, records)


def calculus_claim_oracle(grid: int) -> float:
    """Grid minimum of (a^2+b^2+1)/(a u + a b sqrt((1-u^2)(1-w^2)) + b w).

    a and b range over a log-spaced grid on [1e-2, 10] and w over a
    uniform grid on [0, 1]; u is maximized exactly over [0, 1], since
    max_u a u + c sqrt(1-u^2) = sqrt(a^2 + c^2) for c >= 0.  The exact
    maximum is at least any grid maximum over u, so this is the stricter
    check.  The denominator is positive everywhere on the grid, and the
    minimum stays above sqrt(2).
    """
    if grid < 10:
        raise ValueError(f"grid must be >= 10, got {grid}")
    ab = np.logspace(-2.0, 1.0, grid)
    a = ab[:, None, None]
    b = ab[None, :, None]
    w = np.linspace(0.0, 1.0, grid)[None, None, :]
    num = (a * a + b * b + 1.0)[:, :, 0]
    dmax = (np.sqrt(a * a + a * a * b * b * (1.0 - w * w)) + b * w).max(axis=2)
    return float((num / dmax).min())
