"""Dense complex matrix arithmetic and spectral quantities.

Everything downstream (hypothesis checks, witness families, extremal
search) works with plain square ``numpy`` arrays of ``complex128``.
Hermitian eigenvalues and singular values (operator and trace norms)
both go through LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-10


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within the requested tolerance."""


class NonFiniteError(ValueError):
    """A quantity computed from finite entries overflowed float arithmetic."""


def _overflow(what: str) -> NonFiniteError:
    return NonFiniteError(f"{what} is not finite: the input overflows float arithmetic")


def require_finite(value, what: str):
    """Return value, or raise NonFiniteError when any part of it is inf
    or nan.  Validated entries are finite, so such a value comes from an
    overflow, and a verdict built on it would mean nothing."""
    # math.isfinite first: np.isfinite costs microseconds on a lone float
    finite = math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()
    if not finite:
        raise _overflow(what)
    return value


def modulus(z: complex, what: str) -> float:
    """abs(z), or NonFiniteError naming `what` where Python's abs raises
    OverflowError: a finite z whose modulus is beyond the float range."""
    try:
        return abs(z)
    except OverflowError:
        raise _overflow(what) from None


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and freeze a square complex matrix.

    Returns a read-only ``complex128`` copy unless ``value`` is already
    a frozen owning ``complex128`` array (read-only, ``base is None``),
    which is returned itself: no view of another array can change it
    behind the caller's back, so it is shared instead of copied.
    Raises ``ValueError`` for non-square, empty, or non-finite input.
    """
    adopt = (
        type(value) is np.ndarray
        and value.dtype == np.complex128
        and value.base is None
        and not value.flags.writeable
    )
    arr = value if adopt else np.array(value, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must have order >= 1")
    # a finite sum proves every entry finite; only a sum that overflowed
    # or met an inf or nan needs the elementwise test
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    if not np.isfinite(total) and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    return arr


def re_part(a: np.ndarray) -> np.ndarray:
    """Hermitian real part (a + a*) / 2, formed as a/2 + a*/2.

    Halving before adding keeps entries near the float limit finite,
    where a + a* would overflow; away from subnormals halving is exact,
    so the two forms agree bit for bit.
    """
    a = np.asarray(a, dtype=np.complex128)
    return a / 2.0 + a.conj().T / 2.0


def trace_pairing(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a b*) as the Frobenius inner product sum_ij a_ij conj(b_ij)."""
    return complex(np.vdot(b, a))


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude (0 for an empty selection)."""
    return float(np.max(np.abs(a))) if a.size else 0.0


@np.errstate(over="ignore")
def frobenius_norm(a: np.ndarray) -> float:
    """sqrt(sum |a_ij|^2).  numpy's sum of squares overflows once an entry
    passes about 1.3e154; the norm is then taken of a / max|a| and scaled
    back, so it is inf only when the norm itself is beyond the float range."""
    norm = float(np.linalg.norm(a))
    if norm == math.inf:
        top = max_abs(a)  # inf too when an entry's modulus overflows
        if top < math.inf:
            norm = top * float(np.linalg.norm(a / top))
    return norm


def hermitian_deviation(a: np.ndarray) -> float:
    """max |a - a*|.  An inf entry gives nan and a huge one may overflow:
    a check written `not dev <= bound` fails both, so numpy need not warn."""
    with np.errstate(invalid="ignore", over="ignore"):
        return max_abs(a - a.conj().T)


def within_tol(dev: float, scale: float, tol: float) -> bool:
    """The package's relative-tolerance rule: dev <= tol * max(1, scale).

    A matrix condition (a triangle, a real diagonal, Hermitian symmetry)
    passes when its deviation is within tol of its largest entry, scale
    max|a| (entries_within_tol); a trace orthogonality Tr(x a) = 0
    takes scale ||x||_F ||a||_F.  Written so that a nan deviation fails.
    """
    return bool(dev <= tol * max(1.0, scale))


def entries_within_tol(dev: float, a: np.ndarray, tol: float, scale: float | None = None) -> bool:
    """within_tol with scale max|a|, the rule of every matrix condition;
    a caller that has max|a| already passes it as scale.

    A finite entry whose modulus is beyond the float range makes max|a|
    inf, and an infinite bound would pass any deviation; the bound
    tol max|a| is then formed as 2 (tol max|a/2|), halving before the
    modulus as re_part does.  Where max|a| is finite this is within_tol.
    """
    if scale is None:
        scale = max_abs(a)
    if scale < math.inf:
        return within_tol(dev, scale, tol)
    # |a/2| from the halved parts: complex division turns an inf entry into nan
    half = float(np.max(np.hypot(a.real / 2.0, a.imag / 2.0)))
    return bool(dev <= 2.0 * (tol * half))


def hermitian_eigenvalues(h: np.ndarray, check: bool = True) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted nonincreasing.

    Raises NotHermitianError when ||h - h*||_max exceeds
    DEFAULT_TOL * max(1, ||h||_max).  check=False skips that test, for
    an h that is Hermitian bit for bit by construction, as every
    re_part is: a/2 + a*/2 adds the same two halves in either order.
    """
    h = np.asarray(h, dtype=np.complex128)
    if check:
        dev = hermitian_deviation(h)
        if not entries_within_tol(dev, h, DEFAULT_TOL):
            raise NotHermitianError(f"h deviates from Hermitian by {dev:.3e}")
    # eigvalsh reads one triangle only, so it gets re_part(h)
    return np.linalg.eigvalsh(re_part(h))[::-1]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values in nonincreasing order."""
    return np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(a)))


def is_strictly_upper(a: np.ndarray) -> bool:
    """Entries on and below the diagonal vanish (relative to the largest entry)."""
    a = np.asarray(a, dtype=np.complex128)
    return entries_within_tol(max_abs(np.tril(a)), a, DEFAULT_TOL)


def is_upper(a: np.ndarray) -> bool:
    """Entries strictly below the diagonal vanish (relative to the largest entry)."""
    a = np.asarray(a, dtype=np.complex128)
    return entries_within_tol(max_abs(np.tril(a, -1)), a, DEFAULT_TOL)
