"""Classical Bohr machinery for scalar power series on the unit disk.

A series is a finite coefficient list plus an optional geometric tail
c, c*rho, c*rho^2, ... starting right after the list.  The Bohr sum
folds the tail in closed form; the sup norm is estimated by sampling
the boundary function on a uniform circle grid, also with the tail in
closed form, so the estimate is a lower bound on the true norm that
tightens as the grid refines.  The polynomial part costs one FFT per
estimate, or none when it has at most one coefficient and the grid size
is a power of two (the Moebius series that makes r = 1/3 sharp).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .linalg import modulus, require_finite
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
        if not all(map(cmath.isfinite, self.coeffs)):
            raise ValueError("coefficients must be finite")
        if self.tail is not None:
            c, rho = complex(self.tail[0]), complex(self.tail[1])
            if not (cmath.isfinite(c) and cmath.isfinite(rho)):
                raise ValueError("tail parameters must be finite")
            if modulus(rho, "the tail ratio |rho|") >= 1.0:
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
    A modulus beyond the float range raises NonFiniteError.
    """
    try:
        mags = list(map(abs, s.coeffs))
    except OverflowError:
        # walk again with labels, so the error names the first such coefficient
        mags = [modulus(c, f"the modulus |a_{k}| of coefficient {k}") for k, c in enumerate(s.coeffs)]
    tail, ratio = 0.0, 1.0
    if s.tail is not None:
        c, rho = s.tail
        tail, ratio = modulus(c, "the tail coefficient |c|"), abs(rho)
        if not mags:
            mags, tail = [tail], tail * ratio
    return AlphaSeries(mags[0] if mags else 0.0, tuple(mags[1:]), tail, ratio)


def scalar_bohr_sum(s: CoeffSeries, r: float) -> float:
    """Majorant sum sum_k |a_k| r^k at radius r in [0, 1).

    The geometric tail contributes |c| r^m0 / (1 - |rho| r) with m0 the
    first tail index.
    """
    return bohr_sum(_majorant(s), r)


@functools.lru_cache(maxsize=1)
def _unit_circle(gridpoints: int) -> np.ndarray:
    """The grid z_k = exp(2 pi i k / gridpoints), k = 0..gridpoints-1,
    read-only.  Only the last grid size asked for is kept."""
    z = np.exp(2j * np.pi * np.arange(gridpoints) / gridpoints)
    z.setflags(write=False)
    return z


@np.errstate(over="ignore", invalid="ignore")
def sup_norm_estimate(s: CoeffSeries, gridpoints: int = 4096) -> float:
    """max_j |f(e^{i theta_j})| over a uniform grid of gridpoints angles.

    The polynomial part is folded mod gridpoints and evaluated by FFT,
    which is exact on that grid; the geometric tail is evaluated in
    closed form c z^m0 / (1 - rho z), so no truncation error enters.
    The result underestimates the true sup norm by at most the modulus
    of continuity of f at the grid spacing.

    The grid z is built once per grid size and cached, and since
    z^gridpoints = 1 the tail power z_k^m0 is the grid point
    z[(k m0) mod gridpoints] (z itself for m0 = 1): no transcendental
    function and no complex power is evaluated per call.  A call costs
    one FFT of gridpoints buckets plus a few elementwise operations on
    the cached grid.  With at most one coefficient and a power-of-two
    gridpoints it costs no FFT: the transform of one bucket is that
    bucket times 1/gridpoints at every point, a scaling that is exact at
    a power of two, so the polynomial part is a known constant, taken
    through the same two products to keep the FFT's bits.
    """
    if gridpoints < 8:
        raise ValueError(f"gridpoints must be >= 8, got {gridpoints}")
    count = len(s.coeffs)
    if count <= 1 and gridpoints & (gridpoints - 1) == 0:
        # exact products, except that 1/M rounds a subnormal part as the
        # FFT's scaling does
        values = (s.coeffs[0] if count else 0j) * (1.0 / gridpoints) * gridpoints
    else:
        buckets = np.zeros(gridpoints, dtype=np.complex128)
        # unbuffered, so each bucket sums its coefficients in index order
        np.add.at(buckets, np.arange(count) % gridpoints, s.coeffs)
        values = np.fft.ifft(buckets) * gridpoints
    if s.tail is not None:
        # a zero c adds a signed zero at every point, which no modulus sees
        c, rho = s.tail
        z = _unit_circle(gridpoints)
        m0 = count % gridpoints
        power = z if m0 == 1 else z[np.arange(gridpoints) * m0 % gridpoints]
        values = values + c * power / (1.0 - rho * z)
    return float(np.max(np.abs(values)))


@dataclass(frozen=True)
class ClassicalCheck:
    holds: bool
    lhs: float
    rhs: float

    def __post_init__(self):
        require_finite(self.lhs, "the Bohr sum")
        require_finite(self.rhs, "the sup-norm estimate")


def classical_verify(
    s: CoeffSeries, r: float, gridpoints: int = 4096, tol: float = 1e-9
) -> ClassicalCheck:
    """Compare the Bohr sum at r against the grid sup-norm estimate.

    A sum or estimate that overflows raises NonFiniteError."""
    lhs = scalar_bohr_sum(s, r)
    rhs = sup_norm_estimate(s, gridpoints)
    return ClassicalCheck(holds=bool(lhs <= rhs + tol), lhs=lhs, rhs=rhs)


def crossing_radius(s: CoeffSeries, budget: float) -> float:
    """sup{ r in [0,1) : scalar_bohr_sum(s, r) <= budget }, by bisection.

    critical_radius of the majorant series, so the result is within the
    same fixed 1e-12 bracket of the supremum.  Returns 1.0 when the sum
    never exceeds the budget on [0, 1); raises BudgetBelowAlpha0Error
    when it already does at r = 0.
    """
    return critical_radius(_majorant(s), budget)
