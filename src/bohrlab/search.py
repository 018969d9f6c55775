"""Multistart Nelder-Mead search for the extremal critical radius.

The hypotheses leave exactly two degrees of freedom that matter: the
PSD gap matrix P = S - Re(A) and the strictly-upper contraction M that
pairs with A.  Parameterizing P through a complex Cholesky-style factor
L (PSD by construction) and rescaling M into the unit ball makes the
feasible set the whole parameter space, so plain unconstrained descent
applies.  For an instance materialized from (P, M) the critical radius
has the closed form D/(D + |alpha|) with D = Tr(P) and alpha the pairing
of the induced A with M, which is what the search minimizes.  Restarts
run one after another in index order, each from its own seeded start.
"""

from __future__ import annotations

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
        if not (self.simplex_tol > 0.0):
            raise ValueError(f"simplex_tol must be > 0, got {self.simplex_tol}")


@dataclass(frozen=True)
class RadiusEstimate:
    r_star: float
    instance: BohrInstance
    evaluations: int
    per_restart_best: tuple[float, ...]


@dataclass(frozen=True)
class Parameterization:
    P: np.ndarray
    M: np.ndarray


def dimension(n: int) -> int:
    """Length of the parameter vector at order n: n^2 reals for the
    factor L plus n(n-1) for the strictly-upper complex entries of M."""
    return n * n + n * (n - 1)


_INDEX_CACHE: dict[int, tuple] = {}


def _indices(n: int):
    try:
        return _INDEX_CACHE[n]
    except KeyError:
        pass
    lower = np.tril_indices(n, -1)
    upper = np.triu_indices(n, 1)
    diag = np.diag_indices(n)
    _INDEX_CACHE[n] = (lower, upper, diag)
    return _INDEX_CACHE[n]


def _split(n: int, v) -> tuple[np.ndarray, np.ndarray]:
    """(L, m) from the flat real vector: the factor L and the complex
    strictly-upper entries m of M (row-major, not yet rescaled).

    Layout: v[:n] is the real diagonal of L; v[n:n^2] the strictly-lower
    entries of L as (re, im) pairs in row-major order; the remaining
    n(n-1) reals the strictly-upper entries of M, same convention.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != dimension(n):
        raise BadLengthError(
            f"expected a flat vector of length {dimension(n)} for n = {n}, got shape {v.shape}"
        )
    lower, _, diag = _indices(n)
    lo = v[n : n * n]
    mu = v[n * n :]
    L = np.zeros((n, n), dtype=np.complex128)
    L[diag] = v[:n]
    L[lower] = lo[0::2] + 1j * lo[1::2]
    return L, mu[0::2] + 1j * mu[1::2]


def _upper_matrix(n: int, m: np.ndarray) -> np.ndarray:
    M = np.zeros((n, n), dtype=np.complex128)
    M[_indices(n)[1]] = m
    return M


def parameterize(n: int, v) -> Parameterization:
    """Map a flat real vector to a feasible pair (P, M).

    P = L L* is PSD for every input; M is rescaled by 1/max(1, ||M||)
    so it is always a contraction.
    """
    L, m = _split(n, v)
    P = L @ L.conj().T
    M = _upper_matrix(n, m)
    M = M / max(1.0, operator_norm(M))
    return Parameterization(P, M)


def objective(n: int, v) -> float:
    """Critical radius D/(D + |alpha|) of the instance encoded by v.

    D = Tr(P) and alpha = sum_{i<j} (-2 P_ij) conj(M_ij), the pairing of
    the induced strictly-upper part of A with M.  Returns 1 when alpha
    vanishes (the majorant series degenerates to its constant term).

    Hot path of the search: D comes straight off the factor entries
    (Tr(L L*) is their squared length) and the rescale skips the
    singular value decomposition whenever the Frobenius norm already
    certifies ||M|| <= 1.
    """
    L, m = _split(n, v)
    fro2 = float(np.vdot(m, m).real)
    if fro2 > 1.0:
        scale = max(1.0, float(np.linalg.svd(_upper_matrix(n, m), compute_uv=False)[0]))
    else:
        scale = 1.0
    P = L @ L.conj().T
    mag = 2.0 * abs(np.vdot(m, P[_indices(n)[1]])) / scale
    if mag == 0.0:
        return 1.0
    vL = np.asarray(v, dtype=np.float64)[: n * n]
    D = float(vL @ vL)
    return D / (D + mag)


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


def _nelder_mead(fn, x0: np.ndarray, max_iters: int, simplex_tol: float):
    """Standard simplex descent: reflect 1, expand 2, contract 0.5, shrink 0.5.

    The initial simplex sits at x0 with edge 0.5 along each axis; the
    loop stops once every vertex lies within simplex_tol of the best
    one.  Vertices stay in place; the vertex sum and the squared
    distances to the best vertex are maintained incrementally so each
    iteration costs one or two objective calls plus O(dim) bookkeeping.
    """
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    simplex[1:] += 0.5 * np.eye(dim)
    fvals = np.array([fn(x) for x in simplex])
    vsum = simplex.sum(axis=0)
    best = int(np.argmin(fvals))
    diff = simplex - simplex[best]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    tol2 = simplex_tol * simplex_tol

    def replace(w: int, x: np.ndarray, f: float):
        nonlocal best
        vsum[:] += x - simplex[w]
        simplex[w] = x
        fvals[w] = f
        new_best = int(np.argmin(fvals))
        if new_best != best:
            best = new_best
            d = simplex - simplex[best]
            dist2[:] = np.einsum("ij,ij->i", d, d)
        else:
            d = x - simplex[best]
            dist2[w] = d @ d

    for _ in range(max_iters):
        if float(np.max(dist2)) < tol2:
            break
        order = np.argsort(fvals, kind="stable")
        w = int(order[-1])
        f_best, f_second, f_worst = fvals[order[0]], fvals[order[-2]], fvals[w]
        centroid = (vsum - simplex[w]) / dim
        xr = 2.0 * centroid - simplex[w]
        fr = fn(xr)
        if fr < f_best:
            xe = centroid + 2.0 * (centroid - simplex[w])
            fe = fn(xe)
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
            fc = fn(xc)
            if fc < min(fr, f_worst):
                replace(w, xc, fc)
            else:
                keep = simplex[best].copy()
                simplex += keep
                simplex *= 0.5
                simplex[best] = keep
                for i in range(dim + 1):
                    if i != best:
                        fvals[i] = fn(simplex[i])
                vsum[:] = simplex.sum(axis=0)
                dist2[:] *= 0.25
                new_best = int(np.argmin(fvals))
                if new_best != best:
                    best = new_best
                    d = simplex - simplex[best]
                    dist2[:] = np.einsum("ij,ij->i", d, d)

    return simplex[best].copy(), float(fvals[best])


def _run_restart(cfg: SearchConfig, index: int, eval_hook):
    rng = np.random.default_rng([cfg.seed, index])
    x0 = rng.standard_normal(dimension(cfg.n))
    count = 0

    def fn(x):
        nonlocal count
        count += 1
        value = objective(cfg.n, x)
        if eval_hook is not None:
            eval_hook(value)
        return value

    x, f = _nelder_mead(fn, x0, cfg.max_iters, cfg.simplex_tol)
    return x, f, count


def search(cfg: SearchConfig, eval_hook=None) -> RadiusEstimate:
    """Minimize the critical radius over cfg.restarts independent descents.

    Restarts run one after another in index order.  Each draws its start
    from a generator seeded by (cfg.seed, restart index), and ties
    between restarts break toward the lowest index.  eval_hook, when
    given, observes every objective value.
    """
    results = [_run_restart(cfg, i, eval_hook) for i in range(cfg.restarts)]

    per_best = tuple(float(f) for _, f, _ in results)
    evaluations = int(sum(c for _, _, c in results))
    winner = min(range(cfg.restarts), key=lambda i: (per_best[i], i))
    pm = parameterize(cfg.n, results[winner][0])
    instance = materialize(cfg.n, pm.P, pm.M)
    return RadiusEstimate(per_best[winner], instance, evaluations, per_best)


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
