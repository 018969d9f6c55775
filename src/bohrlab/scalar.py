"""Classical Bohr machinery for scalar power series on the unit disk.

A series is a finite coefficient list plus an optional geometric tail
c, c*rho, c*rho^2, ... starting right after the list.  The Bohr sum
folds the tail in closed form; the sup norm is estimated by sampling
the boundary function on a uniform circle grid, also with the tail in
closed form, so the estimate is a lower bound on the true norm that
tightens as the grid refines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import AlphaSeries, bohr_sum, critical_radius


@dataclass(frozen=True)
class CoeffSeries:
    """Coefficients a_0..a_K and an optional geometric tail (c, rho).

    The tail contributes a_{K+1+j} = c rho^j for j >= 0; |rho| < 1.
    """

    coeffs: tuple[complex, ...]
    tail: tuple[complex, complex] | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not all(np.isfinite(c) for c in self.coeffs):
            raise ValueError("coefficients must be finite")
        if self.tail is not None:
            c, rho = complex(self.tail[0]), complex(self.tail[1])
            if not (np.isfinite(c) and np.isfinite(rho)):
                raise ValueError("tail parameters must be finite")
            if abs(rho) >= 1.0:
                raise ValueError(f"tail ratio must satisfy |rho| < 1, got {rho}")
            object.__setattr__(self, "tail", (c, rho))


def moebius_series(a: float) -> CoeffSeries:
    """Coefficient series of z -> (a - z)/(1 - a z) for 0 < a < 1.

    Expanding the quotient: a_0 = a and a_k = -(1 - a^2) a^(k-1) for
    k >= 1, a geometric tail with ratio a.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0, 1), got {a}")
    return CoeffSeries((a,), (-(1.0 - a * a), a))


def _majorant(s: CoeffSeries) -> AlphaSeries:
    """The magnitudes |a_k| as a majorant series with ratio |rho|.

    Without listed coefficients the tail itself starts at index 0, so
    its first term becomes alpha_0 and the rest a tail from index 1.
    """
    mags = [abs(c) for c in s.coeffs]
    tail, ratio = 0.0, 1.0
    if s.tail is not None:
        c, rho = s.tail
        tail, ratio = abs(c), abs(rho)
        if not mags:
            mags, tail = [tail], tail * ratio
    return AlphaSeries(mags[0] if mags else 0.0, tuple(mags[1:]), tail, ratio)


def scalar_bohr_sum(s: CoeffSeries, r: float) -> float:
    """Majorant sum sum_k |a_k| r^k at radius r in [0, 1).

    The geometric tail contributes |c| r^m0 / (1 - |rho| r) with m0 the
    first tail index.
    """
    return bohr_sum(_majorant(s), r)


def sup_norm_estimate(s: CoeffSeries, gridpoints: int = 4096) -> float:
    """max_j |f(e^{i theta_j})| over a uniform grid of gridpoints angles.

    The polynomial part is folded mod gridpoints and evaluated by FFT,
    which is exact on that grid; the geometric tail is evaluated in
    closed form c z^m0 / (1 - rho z), so no truncation error enters.
    The result underestimates the true sup norm by at most the modulus
    of continuity of f at the grid spacing.
    """
    if gridpoints < 8:
        raise ValueError(f"gridpoints must be >= 8, got {gridpoints}")
    buckets = np.zeros(gridpoints, dtype=np.complex128)
    for k, c in enumerate(s.coeffs):
        buckets[k % gridpoints] += c
    values = np.fft.ifft(buckets) * gridpoints
    if s.tail is not None:
        c, rho = s.tail
        if c != 0:
            z = np.exp(2j * np.pi * np.arange(gridpoints) / gridpoints)
            values = values + c * z ** len(s.coeffs) / (1.0 - rho * z)
    return float(np.max(np.abs(values)))


@dataclass(frozen=True)
class ClassicalCheck:
    holds: bool
    lhs: float
    rhs: float


def classical_verify(
    s: CoeffSeries, r: float, gridpoints: int = 4096, tol: float = 1e-9
) -> ClassicalCheck:
    """Compare the Bohr sum at r against the grid sup-norm estimate."""
    lhs = scalar_bohr_sum(s, r)
    rhs = sup_norm_estimate(s, gridpoints)
    return ClassicalCheck(holds=bool(lhs <= rhs + tol), lhs=lhs, rhs=rhs)


def crossing_radius(s: CoeffSeries, budget: float, tol: float = 1e-12) -> float:
    """sup{ r in [0,1) : scalar_bohr_sum(s, r) <= budget }, by bisection.

    Returns 1.0 when the sum never exceeds the budget on [0, 1); raises
    BudgetBelowAlpha0Error when it already does at r = 0.
    """
    return critical_radius(_majorant(s), budget, tol)
