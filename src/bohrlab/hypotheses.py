"""Hypothesis checks for Bohr instances, with per-condition slacks.

Two condition sets are supported.  "theorem" mode asks for the
triangular picture: A upper triangular with nonnegative real trace, S a
real diagonal budget with S - Re(A) positive semidefinite, and every
sequence matrix a strictly upper contraction.  "relaxed" mode drops all
triangularity and instead demands the two trace orthogonalities
Tr(S A_m) = 0 and Tr(A A_m) = 0.

Failures are reported, never raised: each condition carries a signed
slack (positive = margin, negative = violation magnitude) so callers can
rank or penalize near-misses.  A slack or gap eigenvalue that overflows
float arithmetic is no verdict: it raises NonFiniteError instead, and
the checks silence numpy's overflow warnings for that reason.  A trace
orthogonality whose bound overflows fails its condition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    entries_within_tol,
    frobenius_norm,
    hermitian_deviation,
    hermitian_eigenvalues,
    is_strictly_upper,
    is_upper,
    modulus,
    operator_norm,
    re_part,
    require_finite,
    within_tol,
)
from .series import BohrInstance, Mode, trace_is_real

THEOREM_CONDITIONS = (
    "upper_triangular_a",
    "nonnegative_trace_a",
    "real_diagonal_s",
    "gap_psd",
    "strictly_upper_sequence",
    "sequence_norm",
)

RELAXED_CONDITIONS = (
    "nonnegative_trace_a",
    "hermitian_s",
    "gap_psd",
    "orthogonal_to_s",
    "orthogonal_to_a",
    "sequence_norm",
)


_EPS = float(np.finfo(np.float64).eps)


class PreconditionViolatedError(ValueError):
    """An input fails the structural precondition of a check."""


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    slack: float

    def __post_init__(self):
        require_finite(self.slack, f"the {self.name} slack")


@dataclass(frozen=True)
class HypothesisReport:
    mode: Mode
    conditions: tuple[ConditionReport, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _product_trace(a: np.ndarray, b: np.ndarray) -> complex:
    # Tr(a b) without forming the product
    return complex(np.einsum("ij,ji->", a, b))


def _trace_orthogonal(
    x: np.ndarray, a: np.ndarray, scale: float, tol: float, what: str
) -> tuple[float, bool]:
    """|Tr(x a)| and whether it vanishes: within_tol with scale the
    Cauchy-Schwarz bound ||x||_F ||a||_F on |Tr(x a)|.

    A scale that overflows, from a Frobenius norm beyond the float range
    or the product of two, decides nothing, so the test fails; a modulus
    that overflows raises NonFiniteError naming `what`.
    """
    t = modulus(_product_trace(x, a), f"|{what}|")
    return t, math.isfinite(scale) and within_tol(t, scale, tol)


@functools.lru_cache(maxsize=64)
def _masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean masks of the order-n entries below the diagonal, on or
    below it, and off it."""
    row, col = np.indices((n, n), sparse=True)
    masks = (row > col, row >= col, row != col)
    for m in masks:
        m.setflags(write=False)
    return masks


def _deviation(a: np.ndarray, mask: np.ndarray, tol: float, other: float = 0.0) -> tuple[float, bool]:
    """The deviation max(largest masked |a_ij|, other) and whether it is
    within tol of max|a|, both read off one pass of np.abs.  The masked
    maximum, 0 for an empty mask, is max_abs of the matrix with every
    other entry zeroed, as np.tril or np.diag would build it."""
    moduli = np.abs(a)
    dev = max(float(moduli.max(where=mask, initial=0.0)), other)
    return dev, entries_within_tol(dev, a, tol, float(moduli.max()))


def _trace_condition(a: np.ndarray, tol: float) -> ConditionReport:
    """Tr(A) real within tolerance and Re Tr(A) >= -tol.

    Slack is Re Tr(A) when the trace is real enough (margin above zero),
    otherwise minus the imaginary deviation.
    """
    tr = complex(np.trace(a))
    if not trace_is_real(tr, tol):
        return ConditionReport("nonnegative_trace_a", False, -abs(tr.imag))
    return ConditionReport("nonnegative_trace_a", bool(tr.real >= -tol), tr.real)


def _gap_psd_condition(a: np.ndarray, s: np.ndarray, tol: float) -> ConditionReport:
    """Smallest eigenvalue of the Hermitian part of S - Re(A), as slack.

    Symmetrizing keeps the check total: a non-Hermitian S is already
    flagged by its own condition, and the gap verdict stays meaningful.
    The test is lam_min >= -(tol + n eps) scale: LAPACK computes an exact
    zero eigenvalue of an order-n gap only to about n eps scale, so that
    rounding is allowed even at tol = 0.
    """
    gap = require_finite(re_part(s - re_part(a)), "the gap S - Re(A)")
    # a re_part is Hermitian bit for bit, so the Hermitian test is skipped
    values = require_finite(hermitian_eigenvalues(gap, check=False), "an eigenvalue of the gap S - Re(A)")
    lam_min = float(values[-1])
    # the values are sorted, so the largest modulus is at an end
    scale = max(1.0, abs(float(values[0])), abs(lam_min))
    floor = (tol + values.size * _EPS) * scale
    return ConditionReport("gap_psd", bool(lam_min >= -floor), lam_min)


def _sequence_norm_condition(mats: tuple[np.ndarray, ...], tol: float) -> ConditionReport:
    # vacuous for an empty list; slack 1 = norm margin of the zero matrix
    worst = max((operator_norm(m) for m in mats), default=0.0)
    return ConditionReport("sequence_norm", bool(worst <= 1.0 + tol), 1.0 - worst)


@np.errstate(over="ignore", invalid="ignore")
def check_theorem_hypotheses(inst: BohrInstance, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Report the six triangular-picture conditions for an instance.

    The instance's own mode tag is not consulted; the verdict says
    whether this condition set holds, whatever the instance intends.
    """
    a, s = inst.A, inst.S
    mats = inst.seq.matrices
    below, lower, off = _masks(len(a))
    conds = []

    low_dev, low_ok = _deviation(a, below, tol)
    conds.append(ConditionReport("upper_triangular_a", low_ok, -low_dev))
    conds.append(_trace_condition(a, tol))

    s_dev, s_ok = _deviation(s, off, tol, float(np.abs(s.diagonal().imag).max()))
    conds.append(ConditionReport("real_diagonal_s", s_ok, -s_dev))
    conds.append(_gap_psd_condition(a, s, tol))

    low = [_deviation(m, lower, tol) for m in mats]
    up_dev = max((dev for dev, _ in low), default=0.0)
    up_ok = all(ok for _, ok in low)
    conds.append(ConditionReport("strictly_upper_sequence", up_ok, -up_dev))
    conds.append(_sequence_norm_condition(mats, tol))
    return HypothesisReport("theorem", tuple(conds))


@np.errstate(over="ignore", invalid="ignore")
def check_relaxed_hypotheses(inst: BohrInstance, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Report the six trace-orthogonality conditions for an instance."""
    a, s = inst.A, inst.S
    mats = inst.seq.matrices
    conds = [_trace_condition(a, tol)]

    herm_dev = hermitian_deviation(s)
    conds.append(ConditionReport("hermitian_s", entries_within_tol(herm_dev, s, tol), -herm_dev))
    conds.append(_gap_psd_condition(a, s, tol))

    norms = [frobenius_norm(m) for m in mats]
    for name, left, what in (("orthogonal_to_s", s, "S"), ("orthogonal_to_a", a, "A")):
        devs = [0.0]
        ok = True
        left_norm = frobenius_norm(left)
        for i, (m, norm) in enumerate(zip(mats, norms), 1):
            t, orthogonal = _trace_orthogonal(left, m, left_norm * norm, tol, f"Tr({what} A_{i})")
            devs.append(t)
            ok = ok and orthogonal
        # np.max, unlike max, keeps the nan of a trace that overflowed as
        # inf - inf, so the slack raises as an inf one does
        conds.append(ConditionReport(name, ok, -float(np.max(devs))))

    conds.append(_sequence_norm_condition(mats, tol))
    return HypothesisReport("relaxed", tuple(conds))


def check_hypotheses(inst: BohrInstance, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Dispatch on the instance's mode tag."""
    if inst.mode == "theorem":
        return check_theorem_hypotheses(inst, tol=tol)
    return check_relaxed_hypotheses(inst, tol=tol)


def orthogonality_check(x, a) -> bool:
    """Whether Tr(x a) vanishes for upper x and strictly upper a.

    The product of an upper and a strictly upper triangular matrix is
    strictly upper, so a true result is guaranteed for valid inputs
    whose Frobenius norms and their product stay in the float range;
    exposing the test keeps that fact independently checkable.
    """
    x = as_complex_matrix(x, "x")
    a = as_complex_matrix(a, "a")
    if x.shape != a.shape:
        raise PreconditionViolatedError("x and a must have the same order")
    if not is_upper(x):
        raise PreconditionViolatedError("x must be upper triangular")
    if not is_strictly_upper(a):
        raise PreconditionViolatedError("a must be strictly upper triangular")
    return _trace_orthogonal(x, a, frobenius_norm(x) * frobenius_norm(a), DEFAULT_TOL, "Tr(x a)")[1]
