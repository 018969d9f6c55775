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


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


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


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitian_deviation(a: np.ndarray) -> float:
    """max |a - a*|.  An inf entry gives nan and a huge one may overflow:
    a check written `not dev <= bound` fails both, so numpy need not warn."""
    with np.errstate(invalid="ignore", over="ignore"):
        return max_abs(a - a.conj().T)


def _require_hermitian(a: np.ndarray, tol: float, name: str) -> None:
    dev = hermitian_deviation(a)
    # written so that a nan deviation fails too
    if not dev <= tol * max(1.0, max_abs(a)):
        raise NotHermitianError(f"{name} deviates from Hermitian by {dev:.3e}")


def hermitian_eigenvalues(h: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted nonincreasing.

    Raises NotHermitianError when ||h - h*||_max exceeds
    tol * max(1, ||h||_max).
    """
    h = np.asarray(h, dtype=np.complex128)
    _require_hermitian(h, tol, "h")
    # eigvalsh and eigh read one triangle only, so they get re_part(h)
    return np.linalg.eigvalsh(re_part(h))[::-1]


def hermitian_eigensystem(h: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigenvalues (nonincreasing) and matching orthonormal eigenvectors."""
    h = np.asarray(h, dtype=np.complex128)
    _require_hermitian(h, tol, "h")
    values, vectors = np.linalg.eigh(re_part(h))
    return values[::-1], vectors[:, ::-1]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values in nonincreasing order."""
    return np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(a)))


def loewner_leq(x: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Order test x <= y: the gap y - x must be PSD up to a relative slack.

    Both arguments must be Hermitian within tol.  The slack is one-sided,
    min eigenvalue >= -tol * max(1, ||y - x||), so exact rank-deficient
    gap matrices pass despite rounding.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    _require_hermitian(x, tol, "x")
    _require_hermitian(y, tol, "y")
    gap = y - x
    values = hermitian_eigenvalues(gap, tol=max(tol, DEFAULT_TOL))
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    return bool(values[-1] >= -tol * scale)


def is_strictly_upper(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Entries on and below the diagonal vanish (relative to the largest entry)."""
    a = np.asarray(a, dtype=np.complex128)
    return max_abs(np.tril(a)) <= tol * max(1.0, max_abs(a))


def is_upper(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Entries strictly below the diagonal vanish (relative to the largest entry)."""
    a = np.asarray(a, dtype=np.complex128)
    return max_abs(np.tril(a, -1)) <= tol * max(1.0, max_abs(a))
