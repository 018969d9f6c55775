"""Coefficient series of an instance and the majorant sum they generate.

A ``BohrInstance`` bundles a matrix ``A``, a self-adjoint budget matrix
``S``, and a sequence of contraction matrices.  Its alpha series collects
``alpha_0 = Re Tr(A)`` and the magnitudes ``|Tr(A adjoint(A_m))|``; the
majorant sum ``alpha_0 + sum |alpha_m| r^m`` is then compared against the
budget ``Tr(S)``, and the critical radius is the supremum of ``r`` at
which the sum still fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .linalg import DEFAULT_TOL, as_complex_matrix, modulus, require_finite, trace_pairing

Mode = Literal["theorem", "relaxed"]

_BISECT_UPPER = 1.0 - 1e-12
# the fewest halvings of [0, _BISECT_UPPER] that leave a bracket at most
# 1e-12 wide: the width is (1 - 1e-12) / 2^39, about 1.82e-12, after 39
# and about 9.09e-13 after 40.  Rounding a midpoint moves a width by
# about 1e-16 a step, far too little to cross either bound
_HALVINGS = 40


class NonrealTraceError(ValueError):
    """Tr(A) has an imaginary part beyond tolerance."""


class NegativeTraceError(ValueError):
    """Re Tr(A) is negative beyond tolerance."""


class RadiusOutOfRangeError(ValueError):
    """Evaluation radius outside [0, 1)."""


class BudgetBelowAlpha0Error(ValueError):
    """The budget is already exceeded at r = 0."""


@dataclass(frozen=True)
class SequenceSpec:
    """Sequence of matrices pairing with A: one repeated matrix ("constant")
    or an explicit finite list treated as zero beyond its length."""

    kind: Literal["constant", "finite-list"]
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_complex_matrix(m, f"sequence matrix {i}") for i, m in enumerate(self.matrices))
        object.__setattr__(self, "matrices", mats)
        if self.kind == "constant":
            if len(mats) != 1:
                raise ValueError("constant sequence takes exactly one matrix")
        elif self.kind != "finite-list":
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        orders = {m.shape[0] for m in mats}
        if len(orders) > 1:
            raise ValueError("sequence matrices must share one order")

    @classmethod
    def constant(cls, matrix) -> "SequenceSpec":
        return cls("constant", (matrix,))

    @classmethod
    def finite(cls, matrices) -> "SequenceSpec":
        return cls("finite-list", tuple(matrices))

    @property
    def order(self) -> int | None:
        return self.matrices[0].shape[0] if self.matrices else None


@dataclass(frozen=True)
class AlphaSeries:
    """alpha_0 plus the magnitude sequence |alpha_m|, m >= 1.

    ``magnitudes`` lists the leading terms explicitly; the terms after
    them form the geometric tail ``tail``, ``tail * ratio``, ...
    (``tail`` 0 for a series that terminates).  A matrix series has a
    constant tail, ratio 1; a scalar series with a geometric tail
    c, c rho, ... has ratio |rho|.
    """

    alpha0: float
    magnitudes: tuple[float, ...] = ()
    tail: float = 0.0
    ratio: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        if self.alpha0 < 0.0:
            raise NegativeTraceError(f"alpha0 must be >= 0, got {self.alpha0}")
        mags = tuple(float(m) for m in self.magnitudes)
        object.__setattr__(self, "magnitudes", mags)
        if not (all(map(math.isfinite, mags)) and min(mags, default=0.0) >= 0.0):
            raise ValueError("magnitudes must be finite and >= 0")
        if not math.isfinite(self.tail) or self.tail < 0.0:
            raise ValueError(f"tail must be finite and >= 0, got {self.tail}")
        if not (0.0 <= self.ratio <= 1.0):
            raise ValueError(f"ratio must lie in [0, 1], got {self.ratio}")


@dataclass(frozen=True, eq=False)
class BohrInstance:
    """One experiment: (A, S, sequence) plus the hypothesis mode it targets."""

    A: np.ndarray
    S: np.ndarray
    seq: SequenceSpec
    mode: Mode = "theorem"

    def __post_init__(self):
        object.__setattr__(self, "A", as_complex_matrix(self.A, "A"))
        object.__setattr__(self, "S", as_complex_matrix(self.S, "S"))
        if self.mode not in ("theorem", "relaxed"):
            raise ValueError(f"mode must be 'theorem' or 'relaxed', got {self.mode!r}")
        n = self.A.shape[0]
        if self.S.shape[0] != n:
            raise ValueError("A and S must have the same order")
        if self.seq.order is not None and self.seq.order != n:
            raise ValueError("sequence matrices must match the instance order")

    @classmethod
    def from_gap(cls, P, M, c: float) -> "BohrInstance":
        """Theorem-mode instance whose gap S - Re(A) is the Hermitian P.

        A = c I + (strictly upper part of -2P), S = c I + diag(Re P), and
        the sequence repeats M.  With P = x x^T and M the shift (ones on
        the superdiagonal) the critical radius is
        |x|^2 / (|x|^2 + 2 sum_k x_k x_{k+1}), whatever c is.

        A and S are written straight into zeroed complex128 buffers and
        frozen, so the instance adopts them without a copy; P may be any
        real, integer or complex array, a broadcast view included.  For
        a real P only the real parts are written, so every imaginary
        part is +0.0, as if the real matrix had been cast to complex.
        """
        P = np.asarray(P)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"P must be a square 2-d array, got shape {P.shape}")
        n = len(P)
        idx = np.arange(n)
        a = np.zeros((n, n), dtype=np.complex128)
        out = a if np.iscomplexobj(P) else a.real
        np.multiply(-2.0, P, out=out, where=idx[:, None] < idx)
        a.flat[:: n + 1] = c
        s = np.zeros((n, n), dtype=np.complex128)
        s.flat[:: n + 1] = P.diagonal().real + c
        a.setflags(write=False)
        s.setflags(write=False)
        return cls(a, s, SequenceSpec.constant(M), "theorem")

    @property
    def order(self) -> int:
        return self.A.shape[0]


def gap_blocks(P, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha_0, tail and budget Re Tr(S) of the leading k x k blocks of
    BohrInstance.from_gap(P, shift, c), the shift being the order-n
    matrix with ones on the superdiagonal, as three float arrays indexed
    by k - 1.

    P is a real square array with a nonnegative diagonal and c >= 0, as
    in every witness gap.  No order-n matrix is built.  Block k has
    Tr(A) = k c and Tr(S) = sum_{i<k} (P_ii + c), and the shift pairs
    only with A's superdiagonal, so Tr(A M*) = sum_{i<k-1} -2 P_{i,i+1}:
    only P's diagonal and superdiagonal are read, O(n) in all, and a
    broadcast P costs O(1).  Each sum is one np.cumsum, which adds in
    another order than alpha_series and agrees with it to rounding, bit
    for bit wherever every partial sum is an exact float, as for integer
    entries.  Nothing is checked: Tr(A) is real and nonnegative here,
    so alpha_series's trace checks cannot fail.
    """
    n = len(P)
    tr = np.cumsum(np.full(n, float(c)))
    budget = np.cumsum(P.diagonal() + float(c))
    pairing = np.cumsum(np.concatenate(([0.0], -2.0 * P.diagonal(1))))
    return tr, np.abs(pairing), budget


def trace_is_real(tr: complex, tol: float) -> bool:
    """Whether Tr(A) = tr is real within tol relative to max(1, |tr|); a
    nan imaginary part, from terms that overflowed with both signs, is not."""
    return abs(tr.imag) <= tol * max(1.0, modulus(tr, "|Tr(A)|"))


def _alpha0(tr: complex, tol: float) -> float:
    """alpha_0 = Re Tr(A) from Tr(A), clamped at 0 within tolerance.

    Raises NonrealTraceError or NegativeTraceError when Tr(A) is not
    real, or its real part not nonnegative, within tol.
    """
    if not trace_is_real(tr, tol):
        raise NonrealTraceError(f"Tr(A) = {tr} has a nonreal part beyond tolerance")
    if tr.real < -tol:
        raise NegativeTraceError(f"Re Tr(A) = {tr.real} is negative")
    return max(tr.real, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def alpha_series(inst: BohrInstance, tol: float = DEFAULT_TOL) -> AlphaSeries:
    """Alpha series of an instance.

    alpha_0 is Re Tr(A); term m is |Tr(A adjoint(A_m))|.  A constant
    sequence produces a constant tail starting at m = 1; a finite list
    produces explicit magnitudes and a zero tail.  A modulus beyond the
    float range, or of a pairing that overflows to inf or nan, raises
    NonFiniteError.
    """
    alpha0 = _alpha0(complex(np.trace(inst.A)), tol)
    mags = []
    for m, a_m in enumerate(inst.seq.matrices, 1):
        what = f"|alpha_{m}| = |Tr(A A_{m}*)|"
        mags.append(require_finite(modulus(trace_pairing(inst.A, a_m), what), what))
    if inst.seq.kind == "constant":
        return AlphaSeries(alpha0, (), mags[0])
    return AlphaSeries(alpha0, mags, 0.0)


def bohr_sum(series: AlphaSeries, r: float) -> float:
    """Majorant sum alpha_0 + sum_{m>=1} |alpha_m| r^m at radius r in [0, 1).

    The geometric tail is summed in closed form, c r^m0 / (1 - ratio r),
    with m0 its first index.
    """
    if not (0.0 <= r < 1.0):
        raise RadiusOutOfRangeError(f"r must lie in [0, 1), got {r}")
    total = series.alpha0
    for m, mag in enumerate(series.magnitudes, start=1):
        total += mag * r**m
    if series.tail > 0.0:
        m0 = len(series.magnitudes) + 1
        total += series.tail * r**m0 / (1.0 - series.ratio * r)
    return float(total)


def critical_radius(series: AlphaSeries, budget: float) -> float:
    """sup{ r in [0,1) : bohr_sum(series, r) <= budget }, by bisection.

    Returns 1.0 when the sum never exceeds the budget on [0, 1).
    Otherwise the bisection halves [0, 1 - 1e-12] exactly _HALVINGS = 40
    times, which leaves a bracket at most 1e-12 wide, and returns its
    midpoint, so the result is within 1e-12 of the true supremum
    (bohr_sum is nondecreasing in r).  That is 41 bohr_sum calls in all.
    """
    if budget < series.alpha0:
        raise BudgetBelowAlpha0Error(
            f"budget {budget} is below alpha0 {series.alpha0}; the sum fails at r = 0"
        )
    hi = _BISECT_UPPER
    if bohr_sum(series, hi) <= budget:
        return 1.0
    lo = 0.0
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        if bohr_sum(series, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@np.errstate(over="ignore", invalid="ignore")
def critical_radii(alpha0: np.ndarray, tail: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """critical_radius of stacked constant-tail series, one per row.

    Row i is the series alpha0[i], tail[i], tail[i], ... (ratio 1, tail
    from m = 1) against budget[i] >= alpha0[i], as gap_blocks returns
    them: each budget term P_ii + c rounds to at least c, and float
    addition is monotone, so no row is checked.
    Every row is halved in lockstep the same _HALVINGS times, with the
    IEEE operations of critical_radius and bohr_sum, so each radius is
    bit for bit critical_radius of that row alone, within 1e-12 of the
    supremum, and 1.0 where the sum never exceeds the budget on [0, 1).
    One series is faster through critical_radius: a numpy step costs
    more than a Python one on a single row.
    """
    lo = np.zeros(alpha0.shape)
    hi = np.full(alpha0.shape, _BISECT_UPPER)
    fits = alpha0 + tail * hi / (1.0 - hi) <= budget
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        inside = alpha0 + tail * mid / (1.0 - mid) <= budget
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.where(fits, 1.0, 0.5 * (lo + hi))


@dataclass(frozen=True)
class InequalityCheck:
    holds: bool
    lhs: float
    rhs: float
    slack: float = field(init=False)

    def __post_init__(self):
        # non-finite when either side is, or when the difference overflows
        slack = require_finite(self.rhs - self.lhs, f"Tr(S) - Bohr sum = {self.rhs} - {self.lhs}")
        object.__setattr__(self, "slack", slack)


@np.errstate(over="ignore", invalid="ignore")
def check_inequality(
    inst: BohrInstance, r: float, tol: float = DEFAULT_TOL, series: AlphaSeries | None = None
) -> InequalityCheck:
    """Evaluate the majorant sum at r against the budget Re Tr(S).

    series is the instance's alpha_series at tol, built here when the
    caller has none.  A Bohr sum, budget Tr(S) or slack that overflows
    raises NonFiniteError."""
    if series is None:
        series = alpha_series(inst, tol=tol)
    lhs = bohr_sum(series, r)
    rhs = float(np.trace(inst.S).real)
    return InequalityCheck(holds=bool(lhs <= rhs + tol), lhs=lhs, rhs=rhs)
