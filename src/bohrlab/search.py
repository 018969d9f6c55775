"""Multistart Nelder-Mead search for the extremal critical radius.

The hypotheses leave exactly two degrees of freedom that matter: the
PSD gap matrix P = S - Re(A) and the strictly-upper contraction M that
pairs with A.  Parameterizing P through a complex Cholesky-style factor
L (PSD by construction) and rescaling M into the unit ball makes the
feasible set the whole parameter space, so plain unconstrained descent
applies.  For an instance materialized from (P, M) the critical radius
has the closed form D/(D + |alpha|) with D = Tr(P) and alpha the pairing
of the induced A with M, which is what the search minimizes.

Restarts run in lockstep: every live restart takes its Nelder-Mead step
at once, so one iteration makes one batched objective call for all the
reflection points, at most one more for the expansion and contraction
points, and one for the vertices of every simplex that shrinks.  A
restart leaves the batch when it converges or reaches max_iters.  Each
row of a batch goes through the same per-row arithmetic whatever else
the batch holds, so a restart's trajectory, values and counts do not
depend on how many restarts run beside it.  Restarts are taken in chunks
of consecutive indices whose stacked simplices fit a fixed memory bound
(_SIMPLEX_BYTES), so large orders never hold every simplex at once, and a
batch of points larger than _CALL_BYTES is evaluated in blocks of that
size, which bounds the objective's temporaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import check_theorem_hypotheses
from .linalg import DEFAULT_TOL, as_complex_matrix, max_abs, operator_norm
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


# bound on the bytes of the simplices one chunk of restarts stacks
_SIMPLEX_BYTES = 8 << 20
# bound on the bytes of the points one objective call evaluates
_CALL_BYTES = 1 << 16
# positions of the best, second-worst and worst vertex in a sorted simplex
_ENDS = np.array([0, -2, -1])


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended: its best value, the Nelder-Mead iterations
    and objective evaluations it used, and why it stopped: "converged"
    when every vertex lies within simplex_tol of the best one, else
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


@dataclass(frozen=True)
class Parameterization:
    P: np.ndarray
    M: np.ndarray


def dimension(n: int) -> int:
    """Length of the parameter vector at order n: n^2 reals for the
    factor L plus n(n-1) for the strictly-upper complex entries of M."""
    return n * n + n * (n - 1)


@functools.cache
def _layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the first n^2 entries of a parameter vector go among the
    interleaved (re, im) entries of L, row-major n x n, and the
    row-major flat positions of the strictly-upper entries.

    Layout: v[:n] is the real diagonal of L; v[n:n^2] the strictly-lower
    entries of L as (re, im) pairs in row-major order; the remaining
    n(n-1) reals the strictly-upper entries of M, same convention.
    """
    lower = np.flatnonzero(np.tri(n, k=-1))
    slots = np.empty(n * n, dtype=np.intp)
    slots[:n] = 2 * (n + 1) * np.arange(n)
    slots[n::2] = 2 * lower
    slots[n + 1 :: 2] = 2 * lower + 1
    upper = np.flatnonzero(np.tri(n, k=-1).T)
    slots.setflags(write=False)
    upper.setflags(write=False)
    return slots, upper


def _rows(n: int, v, batch: bool) -> np.ndarray:
    """v as a (k, dimension(n)) float array: one row, or k rows if batch."""
    rows = np.ascontiguousarray(v, dtype=np.float64)
    if rows.ndim != 1 + batch or rows.shape[-1] != dimension(n):
        what = "rows" if batch else "a flat vector"
        raise BadLengthError(
            f"expected {what} of length {dimension(n)} for n = {n}, got shape {rows.shape}"
        )
    return rows.reshape(-1, dimension(n))


def _split(n: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, m) for every row: the factors L as a (k, n, n) stack and the
    complex strictly-upper entries m of M (row-major, not yet rescaled)."""
    nn = n * n
    L = np.zeros((len(rows), 2 * nn))
    L[:, _layout(n)[0]] = rows[:, :nn]
    m = np.ascontiguousarray(rows[:, nn:]).view(np.complex128)
    return L.view(np.complex128).reshape(-1, n, n), m


def _upper_matrices(n: int, m: np.ndarray) -> np.ndarray:
    M = np.zeros((m.shape[0], n * n), dtype=np.complex128)
    M[:, _layout(n)[1]] = m
    return M.reshape(-1, n, n)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sum(a * b), each row through the BLAS dot that a 1-D
    `a @ b` calls.  Rows must be contiguous: the dot sums a strided
    vector in another order, so a row's value would depend on its batch."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def parameterize(n: int, v) -> Parameterization:
    """Map a flat real vector to a feasible pair (P, M).

    P = L L* is PSD for every input; M is rescaled by 1/max(1, ||M||)
    so it is always a contraction.
    """
    L, m = _split(n, _rows(n, v, batch=False))
    P = L[0] @ L[0].conj().T
    M = _upper_matrices(n, m)[0]
    M = M / max(1.0, operator_norm(M))
    return Parameterization(P, M)


def objective(n: int, v):
    """Critical radius D/(D + |alpha|) of the instance encoded by v.

    D = Tr(P) and alpha = sum_{i<j} (-2 P_ij) conj(M_ij), the pairing of
    the induced strictly-upper part of A with M.  Returns 1 when alpha
    vanishes (the majorant series degenerates to its constant term).
    A flat vector gives a float; a (k, dimension(n)) array gives the k
    values, each bit for bit the value of its row alone.

    Hot path of the search: D comes straight off the factor entries
    (Tr(L L*) is their squared length) and the rescale runs the singular
    value decomposition only on rows whose Frobenius norm does not
    already certify ||M|| <= 1.
    """
    arr = np.asarray(v, dtype=np.float64)
    rows = _rows(n, arr, batch=arr.ndim == 2)
    L, m = _split(n, rows)
    P = (L @ L.conj().transpose(0, 2, 1)).reshape(len(rows), -1)
    mc = m.conj()
    pairing = _dots(mc, np.take(P, _layout(n)[1], axis=1))
    # hypot rounds as abs() of a Python complex does; np.abs of a complex
    # array can differ in the last bit, which would change search results
    mag = 2.0 * np.hypot(pairing.real, pairing.imag)
    big = (_dots(mc, m).real > 1.0).nonzero()[0]
    if big.size:
        top = np.linalg.svd(_upper_matrices(n, m[big]), compute_uv=False)[:, 0]
        mag[big] /= np.maximum(1.0, top)
    vL = rows[:, : n * n]
    D = _dots(vL, vL)
    values = np.divide(D, D + mag, out=np.ones_like(D), where=mag != 0.0)
    return float(values[0]) if arr.ndim == 1 else values


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
    """Lockstep Nelder-Mead over the restarts `indices`: reflect 1, expand 2,
    contract 0.5, shrink 0.5.

    Restart i starts from a simplex at x0 ~ N(0, I) drawn from a
    generator seeded by (cfg.seed, i), with edge 0.5 along each axis, and
    stops once every vertex lies within simplex_tol of its best one, or
    after max_iters iterations.  Vertices stay in place; each vertex sum
    and the squared distances to each best vertex are kept up to date
    incrementally.  The arrays hold only the live restarts, one row
    each; a restart that stops is recorded and dropped.  Returns
    (best vertex, RestartRecord) per index, in order.
    """
    n, dim = cfg.n, dimension(cfg.n)
    block = max(1, _CALL_BYTES // (8 * dim))  # points per objective call

    def fn(X):
        if len(X) <= block:
            values = objective(n, X)
        else:
            parts = [objective(n, X[i : i + block]) for i in range(0, len(X), block)]
            values = np.concatenate(parts)
        if eval_hook is not None:
            for value in values:
                eval_hook(float(value))
        return values

    x0 = np.array([np.random.default_rng([cfg.seed, i]).standard_normal(dim) for i in indices])
    S = np.repeat(x0[:, None, :], dim + 1, axis=1)
    S[:, 1:] += 0.5 * np.eye(dim)
    F = fn(S.reshape(-1, dim)).reshape(len(indices), dim + 1)
    vsum = S.sum(axis=1)
    best = np.full(len(indices), -1)  # no vertex: the loop's first pass sets best and dist2
    dist2 = np.empty(F.shape)
    evals = np.full(len(indices), dim + 1)
    lanes = rows = np.arange(len(indices))  # lanes: chunk position of each live restart
    tol2 = cfg.simplex_tol * cfg.simplex_tol
    out: list = [None] * len(indices)

    for it in range(cfg.max_iters + 1):
        # a restart whose best vertex moved measures every distance again
        nb = F.argmin(axis=1)
        moved = (nb != best).nonzero()[0]
        if moved.size:
            best[moved] = nb[moved]
            d = S[moved] - S[moved, best[moved]][:, None]
            dist2[moved] = np.einsum("kij,kij->ki", d, d)

        converged = dist2.max(axis=1) < tol2
        stopped = converged if it < cfg.max_iters else np.ones_like(converged)
        done = stopped.nonzero()[0]
        if done.size:
            for j in done:
                stop = "converged" if converged[j] else "max_iters"
                rec = RestartRecord(float(F[j, best[j]]), it, int(evals[j]), stop)
                out[lanes[j]] = (S[j, best[j]].copy(), rec)
            live = ~stopped
            S, F, vsum, best, dist2, evals, lanes = (
                a[live] for a in (S, F, vsum, best, dist2, evals, lanes)
            )
            if not lanes.size:
                break
            rows = np.arange(lanes.size)

        order = F.argsort(axis=1, kind="stable")
        w = order[:, -1]
        f_best, f_second, f_worst = F[rows[:, None], order[:, _ENDS]].T
        Sw = S[rows, w]
        centroid = (vsum - Sw) / dim
        xr = 2.0 * centroid - Sw
        fr = fn(xr)
        evals += 1
        expand = fr < f_best
        # expansion lanes and contraction lanes need a second point
        second = (expand | ~(fr < f_second)).nonzero()[0]
        x_new, f_new, shrink = xr, fr, second[:0]
        if second.size:
            c, sw, ex = centroid[second], Sw[second], expand[second]
            inside = (fr[second] < f_worst[second])[:, None]
            x2 = np.where(
                ex[:, None],
                c + 2.0 * (c - sw),
                np.where(inside, c + 0.5 * (xr[second] - c), c + 0.5 * (sw - c)),
            )
            f2 = fn(x2)
            evals[second] += 1
            take = np.where(ex, f2 < fr[second], f2 < np.minimum(fr[second], f_worst[second]))
            shrink = second[~(ex | take)]
            # a shrinking lane puts its worst vertex back in place, so the
            # replacement below leaves its simplex as it was
            x_new, f_new = xr.copy(), fr.copy()
            x_new[second[take]], f_new[second[take]] = x2[take], f2[take]
            x_new[shrink], f_new[shrink] = Sw[shrink], f_worst[shrink]
            shrunk = 0.25 * dist2[shrink]

        vsum += x_new - Sw
        S[rows, w] = x_new
        F[rows, w] = f_new
        d = x_new - S[rows, best]
        dist2[rows, w] = _dots(d, d)

        if shrink.size:
            b = best[shrink]
            keep = S[shrink, b]
            Ss = S[shrink]
            Ss += keep[:, None]
            Ss *= 0.5
            Ss[np.arange(shrink.size), b] = keep
            others = np.ones(Ss.shape[:2], dtype=bool)
            others[np.arange(shrink.size), b] = False
            Fs = F[shrink]
            Fs[others] = fn(Ss[others])
            evals[shrink] += dim
            S[shrink], F[shrink] = Ss, Fs
            vsum[shrink] = Ss.sum(axis=1)
            dist2[shrink] = shrunk

    return out


def search(cfg: SearchConfig, eval_hook=None) -> RadiusEstimate:
    """Minimize the critical radius over cfg.restarts independent descents.

    Restarts run in lockstep, in chunks of consecutive indices.  Each
    draws its start from a generator seeded by (cfg.seed, restart
    index), and ties between restarts break toward the lowest index.
    eval_hook, when given, observes every objective value.
    """
    dim = dimension(cfg.n)
    size = max(1, _SIMPLEX_BYTES // ((dim + 1) * dim * 8))
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
