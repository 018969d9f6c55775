"""Lockstep ADMM search for the extremal critical radius.

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
operator norm, with penalty rho = n.  One step:

    x      <- top eigenvector of (M + M*)/2
    M      <- SU(Y - Lambda + x x*/rho)   (SU keeps the strictly-upper part)
    Y      <- M + Lambda with its singular values clipped at 1
    Lambda <- Lambda + M - Y

Before M moves, each step scores its pair (x, M) with `objective`: the
radius of the instance built from (x x*, M / max(1, ||M||)), so every
reported value belongs to a feasible instance.  A restart stops once a
step moves M by less than simplex_tol in Frobenius norm, or after
max_iters steps.

Restarts run in lockstep: every live restart takes its step at once,
with one batched eigh, two batched SVDs (the projection and the honest
value's ||M||) and one objective call for all of them.  A restart
leaves the batch when it stops.  Each row of a batch goes through the
same per-row arithmetic whatever else the batch holds, so a restart's
trajectory, values and counts do not depend on how many restarts run
beside it.  Restarts are taken in chunks of consecutive indices whose
stacked ADMM state fits a fixed memory bound (_STATE_BYTES).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import check_theorem_hypotheses
from .linalg import DEFAULT_TOL, as_complex_matrix, max_abs
from .series import BohrInstance


class BadLengthError(ValueError):
    """Parameter vector length does not match the order."""


class NotPSDError(ValueError):
    """Gap matrix fails the positive-semidefinite requirement."""


class NotContractionError(ValueError):
    """Sequence matrix is not a strictly upper contraction."""


@dataclass(frozen=True)
class SearchConfig:
    n: int
    restarts: int = 32
    max_iters: int = 2000
    seed: int = 0
    simplex_tol: float = 1e-9

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.simplex_tol) and self.simplex_tol > 0.0):
            raise ValueError(f"simplex_tol must be finite and > 0, got {self.simplex_tol}")


# bound on the bytes of the ADMM state (M, Y and Lambda) one chunk of restarts stacks
_STATE_BYTES = 8 << 20


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended: its best value, the ADMM steps and
    objective evaluations it used, and why it stopped: "converged" when
    a step moved M by less than simplex_tol, else "max_iters"."""

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


@dataclass(frozen=True)
class Parameterization:
    P: np.ndarray
    M: np.ndarray


def dimension(n: int) -> int:
    """Length of the parameter vector at order n: 2n reals for x plus
    n(n-1) for the strictly-upper complex entries of M.

    Layout: v[:2n] is x as (re, im) pairs; the rest is the strictly-upper
    entries of M as (re, im) pairs in row-major order.
    """
    return n * (n + 1)


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strictly-upper entries, row-major."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _rows(n: int, v, batch: bool) -> np.ndarray:
    """v as a (k, dimension(n)) float array: one row, or k rows if batch."""
    rows = np.ascontiguousarray(v, dtype=np.float64)
    if rows.ndim != 1 + batch or rows.shape[-1] != dimension(n):
        what = "rows" if batch else "a flat vector"
        raise BadLengthError(
            f"expected {what} of length {dimension(n)} for n = {n}, got shape {rows.shape}"
        )
    return rows.reshape(-1, dimension(n))


def _upper_matrices(n: int, m: np.ndarray) -> np.ndarray:
    M = np.zeros((m.shape[0], n, n), dtype=np.complex128)
    M[:, _upper(n)[0], _upper(n)[1]] = m
    return M


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sum(a * b), each row through the BLAS dot that a 1-D
    `a @ b` calls.  Rows must be contiguous: the dot sums a strided
    vector in another order, so a row's value would depend on its batch."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _scales(vm: np.ndarray, M: np.ndarray) -> np.ndarray:
    """max(1, ||M||) per row.  The singular value decomposition runs only
    on rows whose Frobenius norm does not already certify ||M|| <= 1."""
    scale = np.ones(len(M))
    big = (_dots(vm, vm) > 1.0).nonzero()[0]
    if big.size:
        scale[big] = np.maximum(1.0, np.linalg.svd(M[big], compute_uv=False)[:, 0])
    return scale


def parameterize(n: int, v) -> Parameterization:
    """Map a flat real vector (x, M) to the feasible pair (x x*, M / max(1, ||M||))."""
    row = _rows(n, v, batch=False)
    x = row[0, : 2 * n].view(np.complex128)
    M = _upper_matrices(n, row[:, 2 * n :].view(np.complex128))
    return Parameterization(np.outer(x, x.conj()), M[0] / _scales(row[:, 2 * n :], M)[0])


def objective(n: int, v):
    """Critical radius of the instance built from (x x*, M / max(1, ||M||)).

    That is |x|^2 / (|x|^2 + 2|x*Mx| / max(1, ||M||)), the closed form
    D/(D + |alpha|) with D = Tr(x x*) and alpha the pairing of the
    induced strictly-upper part of A with the rescaled M.  Returns 1 when
    x*Mx vanishes (the majorant series degenerates to its constant term).

    A flat vector gives a float; a (k, dimension(n)) array gives the k
    values, each bit for bit the value of its row alone.  Complex
    products go through BLAS only, since numpy's elementwise complex
    multiply rounds differently in its vector and scalar loops, which
    would make a row's value depend on its batch.
    """
    arr = np.asarray(v, dtype=np.float64)
    rows = _rows(n, arr, batch=arr.ndim == 2)
    vx, vm = rows[:, : 2 * n], rows[:, 2 * n :]
    x = np.ascontiguousarray(vx).view(np.complex128)
    M = _upper_matrices(n, np.ascontiguousarray(vm).view(np.complex128))
    q = _dots(x.conj(), (M @ x[:, :, None])[:, :, 0])
    # hypot rounds as abs() of a Python complex does
    mag = 2.0 * np.hypot(q.real, q.imag) / _scales(vm, M)
    D = _dots(vx, vx)
    values = np.divide(D, D + mag, out=np.ones_like(D), where=mag != 0.0)
    return values if arr.ndim == 2 else float(values[0])


def materialize(n: int, P, M, tol: float = DEFAULT_TOL) -> BohrInstance:
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
    if max_abs(P - P.conj().T) > tol * max(1.0, max_abs(P)):
        raise NotPSDError("P must be Hermitian")

    inst = BohrInstance.from_gap(P, M, 0.0)
    report = check_theorem_hypotheses(inst, tol=tol)
    gap = report.condition("gap_psd")
    if not gap.passed:
        raise NotPSDError(f"P has a negative eigenvalue {gap.slack}")
    if not report.condition("strictly_upper_sequence").passed:
        raise NotContractionError("M must be strictly upper triangular")
    norm = report.condition("sequence_norm")
    if not norm.passed:
        raise NotContractionError(f"M has operator norm {1.0 - norm.slack} > 1")
    return inst


def _run_restart(cfg: SearchConfig, indices: range, eval_hook):
    """Lockstep ADMM over the restarts `indices`, with penalty rho = n.

    Restart i starts from M = Y = a strictly-upper complex Gaussian drawn
    from a generator seeded by (cfg.seed, i) and normalized to ||M|| = 1,
    with Lambda = 0.  The arrays hold only the live restarts, one row
    each; a restart that stops is recorded and dropped.  Returns (best
    parameter vector, RestartRecord) per index, in order.
    """
    n = cfg.n
    up, down = _upper(n)
    strict = np.zeros((n, n), dtype=bool)
    strict[up, down] = True
    starts = [np.random.default_rng([cfg.seed, i]).standard_normal(n * (n - 1)) for i in indices]
    M = _upper_matrices(n, np.array(starts).view(np.complex128))
    M /= np.linalg.svd(M, compute_uv=False)[:, :1, None]
    Y = M.copy()
    Lam = np.zeros_like(M)
    best = np.full(len(indices), np.inf)
    best_rows = np.zeros((len(indices), dimension(n)))
    lanes = np.arange(len(indices))  # chunk position of each live restart
    tol2 = cfg.simplex_tol * cfg.simplex_tol
    out: list = [None] * len(indices)

    for it in range(1, cfg.max_iters + 1):
        x = np.ascontiguousarray(np.linalg.eigh(M + M.conj().transpose(0, 2, 1))[1][:, :, -1])
        rows = np.empty((lanes.size, dimension(n)))
        packed = rows.view(np.complex128)
        packed[:, :n] = x
        packed[:, n:] = M[:, up, down]
        values = objective(n, rows)
        if eval_hook is not None:
            for value in values:
                eval_hook(float(value))
        better = values < best
        best[better] = values[better]
        best_rows[better] = rows[better]

        # x x* through BLAS, like every complex product here (see objective)
        xx = x[:, :, None] @ x.conj()[:, None, :]
        new = np.where(strict, Y - Lam + xx / n, 0.0)
        step = (new - M).reshape(lanes.size, -1).view(np.float64)
        M = new
        # Y is M + Lambda with its singular values clipped at 1, and the
        # updated Lambda = Lambda + M - Y is the part that was clipped off
        Z = M + Lam
        U, s, Vh = np.linalg.svd(Z)
        Lam = (U * np.maximum(s - 1.0, 0.0)[:, None, :]) @ Vh
        Y = Z - Lam

        converged = _dots(step, step) < tol2
        stopped = converged if it < cfg.max_iters else np.ones_like(converged)
        done = stopped.nonzero()[0]
        if done.size:
            for j in done:
                stop = "converged" if converged[j] else "max_iters"
                out[lanes[j]] = (best_rows[j].copy(), RestartRecord(float(best[j]), it, it, stop))
            live = ~stopped
            M, Y, Lam, best, best_rows, lanes = (a[live] for a in (M, Y, Lam, best, best_rows, lanes))
            if not lanes.size:
                break

    return out


def search(cfg: SearchConfig, eval_hook=None) -> RadiusEstimate:
    """Minimize the critical radius over cfg.restarts independent ADMM runs.

    Restarts run in lockstep, in chunks of consecutive indices.  Each
    draws its start from a generator seeded by (cfg.seed, restart
    index), and ties between restarts break toward the lowest index.
    eval_hook, when given, observes every objective value.
    """
    size = max(1, _STATE_BYTES // (3 * 16 * cfg.n * cfg.n))
    results = []
    for start in range(0, cfg.restarts, size):
        results += _run_restart(cfg, range(start, min(start + size, cfg.restarts)), eval_hook)

    records = tuple(rec for _, rec in results)
    winner = min(range(cfg.restarts), key=lambda i: (records[i].best, i))
    pm = parameterize(cfg.n, results[winner][0])
    instance = materialize(cfg.n, pm.P, pm.M)
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
