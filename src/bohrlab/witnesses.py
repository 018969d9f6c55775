"""Canonical extremal instances and the zero-padding embedding.

Three families.  The general family pins the critical radius at
n/(3n-2) for every order n >= 2.  The sine family reaches the order-n
minimum 1/(1 + 2 cos(pi/(n+1))): 1/2 at n = 2 and sqrt(2)-1 at n = 3.
Both are BohrInstance.from_gap with a rank-one gap and the shift as the
sequence.  The remark family produces 2x2 relaxed-mode instances that
break the inequality at any requested radius above 1/3, showing 1/3
cannot be improved once triangularity is dropped.
"""

from __future__ import annotations

import math

import numpy as np

from .series import BohrInstance, SequenceSpec


class InvalidOrderError(ValueError):
    """Order outside the family's range."""


class RadiusNotAboveOneThirdError(ValueError):
    """Target radius must lie strictly between 1/3 and 1."""


class ShrinkNotAllowedError(ValueError):
    """Embedding must not reduce the order."""


def _check_order(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidOrderError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise InvalidOrderError(f"n must be >= 2, got {n}")
    return int(n)


def _frozen(a: np.ndarray) -> np.ndarray:
    # a read-only owning complex128 array is adopted by BohrInstance and
    # SequenceSpec as it is, without a copy
    a.setflags(write=False)
    return a


def _shift(n: int) -> np.ndarray:
    """Ones on the superdiagonal: the order-n shift, a strictly upper contraction."""
    return _frozen(np.eye(n, k=1, dtype=np.complex128))


def staircase_gap(n: int) -> tuple[np.ndarray, float]:
    """The staircase's gap P and constant c: the order-n all-ones matrix,
    as a read-only broadcast view that allocates nothing, and c = 1."""
    n = _check_order(n)
    return np.broadcast_to(1.0, (n, n)), 1.0


def general_witness(n: int) -> BohrInstance:
    """Order-n instance with critical radius exactly n/(3n-2).

    The gap is the all-ones matrix and c = 1 (staircase_gap), so A has 1
    on the diagonal and -2 strictly above, S = 2I, and the sequence
    repeats the shift.  Then Tr(S) = 2n and every |alpha_m| = 2(n-1).
    """
    gap, c = staircase_gap(n)
    return BohrInstance.from_gap(gap, _shift(len(gap)), c)


def sine_witness(n: int) -> BohrInstance:
    """Order-n instance with critical radius 1/(1 + 2 cos(pi/(n+1))).

    The gap is x x^T with x_k = sin(k pi/(n+1))/sin(pi/(n+1)), c = 2,
    and the sequence repeats the shift.  x is the top eigenvector of the
    shift's real part, so sum_k x_k x_{k+1} / |x|^2 = cos(pi/(n+1)), the
    largest numerical radius of a strictly upper contraction of order n
    (Haagerup and de la Harpe, Proc. AMS 115 (1992)).  The recurrence
    x_{k+1} = 2 cos(pi/(n+1)) x_k - x_{k-1} from x_0 = 0, x_1 = 1 fills
    the first half and the mirror x_{n+1-k} = x_k the rest, so n = 3
    gives exactly (1, sqrt(2), 1) and the radius sqrt(2)-1.
    """
    n = _check_order(n)
    # built first: an order too large to allocate fails here at once,
    # not after an O(n) Python recurrence
    shift = _shift(n)
    t = 2.0 * math.cos(math.pi / (n + 1))
    x = [0.0, 1.0]
    while len(x) <= (n + 1) // 2:
        x.append(t * x[-1] - x[-2])
    x = np.array(x[1:] + x[n // 2 : 0 : -1])
    return BohrInstance.from_gap(np.outer(x, x), shift, 2.0)


def remark_parameters(r_target: float) -> tuple[float, int]:
    """(theta, k) used by the remark family at a given target radius.

    theta is the midpoint of ((1-r)/(2r), 1), the interval on which the
    violation argument works; k is the smallest integer strictly above
    theta/(2(1-theta)), which keeps the sequence matrix a contraction.
    A target so close to 1/3 that theta rounds to 1 is refused too.
    """
    if not (1.0 / 3.0 < r_target < 1.0):
        raise RadiusNotAboveOneThirdError(
            f"r_target must lie in (1/3, 1), got {r_target}"
        )
    theta = 0.5 * ((1.0 - r_target) / (2.0 * r_target) + 1.0)
    if theta >= 1.0:
        raise RadiusNotAboveOneThirdError(f"r_target {r_target} is within rounding of 1/3: theta rounds to 1")
    k = math.floor(theta / (2.0 * (1.0 - theta))) + 1
    return theta, k


def remark_two_witness(r_target: float) -> BohrInstance:
    """2x2 relaxed-mode instance violating the inequality at r_target.

    A is a full (non-triangular) matrix with unit budget S = I, and the
    repeated sequence matrix pairs with A to give |alpha_m| = 2 theta, so
    the majorant sum 1 + 2 theta r/(1-r) crosses Tr(S) = 2 at
    r = 1/(1+2 theta) < r_target.
    """
    theta, k = remark_parameters(r_target)
    a = np.array(
        [
            [0.5 + 1j * k, 0.5],
            [0.5, 0.5 - 1j * k],
        ],
        dtype=np.complex128,
    )
    m = np.array(
        [
            [-theta / (2.0 * k), 1j * theta],
            [1j * theta, theta / (2.0 * k)],
        ],
        dtype=np.complex128,
    )
    s = np.eye(2, dtype=np.complex128)
    return BohrInstance(_frozen(a), _frozen(s), SequenceSpec.constant(_frozen(m)), "relaxed")


def _pad(a: np.ndarray, big: int) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((big, big), dtype=np.complex128)
    out[:n, :n] = a
    return _frozen(out)


def embed(inst: BohrInstance, big: int) -> BohrInstance:
    """Zero-pad every matrix of an instance to order big >= n.

    Padding adds zero rows and columns only, so traces, the alpha
    series, hypothesis verdicts, and the critical radius all survive
    unchanged.
    """
    n = inst.order
    if not isinstance(big, (int, np.integer)) or isinstance(big, bool):
        raise ShrinkNotAllowedError(f"target order must be an integer, got {big!r}")
    if big < n:
        raise ShrinkNotAllowedError(f"cannot shrink from order {n} to {big}")
    big = int(big)
    if big == n:
        return inst
    seq = SequenceSpec(inst.seq.kind, tuple(_pad(m, big) for m in inst.seq.matrices))
    return BohrInstance(_pad(inst.A, big), _pad(inst.S, big), seq, inst.mode)
