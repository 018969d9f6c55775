"""Shared acceptance-report plumbing and shared instances.

The acceptance tests time themselves and register one verdict line
each; the terminal-summary hook replays those lines after pytest's
capture has ended, so they show up in any run mode.
"""

import time

import numpy as np
import pytest

from bohrlab.series import BohrInstance, SequenceSpec

_VERDICT_LINES = []


class CriterionTimer:
    """Context manager asserting a wall-time budget and recording a verdict."""

    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.budget
        line = (
            f"{'PASS' if ok else 'FAIL'} criterion {self.number:02d}: "
            f"{self.description} [{elapsed:.2f}s / {self.budget:.0f}s]"
        )
        _VERDICT_LINES.append((self.number, line))
        print(line)
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


@pytest.fixture
def criterion():
    return CriterionTimer


@pytest.fixture
def nan_trace_instance():
    """Order 16, diagonal A with Tr(A) = 5+1j exactly, S = 2I and the shift.

    Two +1.7e308j and two -1.7e308j entries meet in numpy's pairwise sum
    as inf - inf, so the computed trace is 5+nanj.
    """
    d = np.zeros(16, dtype=complex)
    d[[0, 8]] = 1 + 1.7e308j
    d[[1, 9]] = 1 - 1.7e308j
    d[2] = 1 + 1j
    a = np.diag(d)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.trace(a).imag)
    return BohrInstance(a, 2.0 * np.eye(16), SequenceSpec.constant(np.eye(16, k=1)))


def pytest_terminal_summary(terminalreporter):
    if _VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_VERDICT_LINES):
            terminalreporter.write_line(line)
