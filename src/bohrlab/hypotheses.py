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
the checks silence numpy's overflow warnings for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    adjoint,
    as_complex_matrix,
    frobenius_norm,
    hermitian_eigenvalues,
    is_strictly_upper,
    is_upper,
    max_abs,
    modulus,
    operator_norm,
    re_part,
    require_finite,
)
from .series import BohrInstance, Mode

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


def _trace_condition(a: np.ndarray, tol: float) -> ConditionReport:
    """Tr(A) real within tolerance and Re Tr(A) >= -tol.

    Slack is Re Tr(A) when the trace is real enough (margin above zero),
    otherwise minus the imaginary deviation.
    """
    tr = complex(np.trace(a))
    im_dev = abs(tr.imag)
    if im_dev > tol * max(1.0, modulus(tr, "|Tr(A)|")):
        return ConditionReport("nonnegative_trace_a", False, -im_dev)
    return ConditionReport("nonnegative_trace_a", bool(tr.real >= -tol), tr.real)


def _gap_psd_condition(a: np.ndarray, s: np.ndarray, tol: float) -> ConditionReport:
    """Smallest eigenvalue of the Hermitian part of S - Re(A), as slack.

    Symmetrizing keeps the check total: a non-Hermitian S is already
    flagged by its own condition, and the gap verdict stays meaningful.
    The test is lam_min >= -(tol + n eps) scale: LAPACK computes an exact
    zero eigenvalue of an order-n gap only to about n eps scale, so that
    rounding is allowed even at tol = 0.
    """
    gap = s - re_part(a)
    gap = require_finite(0.5 * (gap + adjoint(gap)), "the gap S - Re(A)")
    values = require_finite(hermitian_eigenvalues(gap), "an eigenvalue of the gap S - Re(A)")
    lam_min = float(values[-1]) if values.size else 0.0
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
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
    conds = []

    low_dev = max_abs(np.tril(a, -1))
    conds.append(
        ConditionReport("upper_triangular_a", bool(low_dev <= tol * max(1.0, max_abs(a))), -low_dev)
    )
    conds.append(_trace_condition(a, tol))

    diag_s = np.diagonal(s)
    s_dev = max(max_abs(s - np.diag(diag_s)), max_abs(np.imag(diag_s)))
    conds.append(
        ConditionReport("real_diagonal_s", bool(s_dev <= tol * max(1.0, max_abs(s))), -s_dev)
    )
    conds.append(_gap_psd_condition(a, s, tol))

    low = [max_abs(np.tril(m)) for m in mats]
    up_dev = max(low, default=0.0)
    up_ok = all(dev <= tol * max(1.0, max_abs(m)) for dev, m in zip(low, mats))
    conds.append(ConditionReport("strictly_upper_sequence", bool(up_ok), -up_dev))
    conds.append(_sequence_norm_condition(mats, tol))
    return HypothesisReport("theorem", tuple(conds))


@np.errstate(over="ignore", invalid="ignore")
def check_relaxed_hypotheses(inst: BohrInstance, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Report the six trace-orthogonality conditions for an instance."""
    a, s = inst.A, inst.S
    mats = inst.seq.matrices
    conds = [_trace_condition(a, tol)]

    herm_dev = max_abs(s - adjoint(s))
    conds.append(
        ConditionReport("hermitian_s", bool(herm_dev <= tol * max(1.0, max_abs(s))), -herm_dev)
    )
    conds.append(_gap_psd_condition(a, s, tol))

    for name, left, what in (("orthogonal_to_s", s, "S"), ("orthogonal_to_a", a, "A")):
        dev = 0.0
        ok = True
        for i, m in enumerate(mats, 1):
            t = modulus(_product_trace(left, m), f"|Tr({what} A_{i})|")
            dev = max(dev, t)
            ok = ok and t <= tol * max(1.0, frobenius_norm(left) * frobenius_norm(m))
        conds.append(ConditionReport(name, bool(ok), -dev))

    conds.append(_sequence_norm_condition(mats, tol))
    return HypothesisReport("relaxed", tuple(conds))


def check_hypotheses(inst: BohrInstance, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Dispatch on the instance's mode tag."""
    if inst.mode == "theorem":
        return check_theorem_hypotheses(inst, tol=tol)
    return check_relaxed_hypotheses(inst, tol=tol)


def orthogonality_check(x, a, tol: float = DEFAULT_TOL) -> bool:
    """Whether Tr(x a) vanishes for upper x and strictly upper a.

    The product of an upper and a strictly upper triangular matrix is
    strictly upper, so a true result is guaranteed for valid inputs;
    exposing the test keeps that fact independently checkable.
    """
    x = as_complex_matrix(x, "x")
    a = as_complex_matrix(a, "a")
    if x.shape != a.shape:
        raise PreconditionViolatedError("x and a must have the same order")
    if not is_upper(x, tol=tol):
        raise PreconditionViolatedError("x must be upper triangular")
    if not is_strictly_upper(a, tol=tol):
        raise PreconditionViolatedError("a must be strictly upper triangular")
    t = modulus(_product_trace(x, a), "|Tr(x a)|")
    return bool(t <= tol * max(1.0, frobenius_norm(x) * frobenius_norm(a)))
