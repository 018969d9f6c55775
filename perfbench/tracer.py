"""Span tracer that wraps bohrlab's public functions from outside.

Every public function of the seven modules is replaced, at each module
attribute where a caller looks it up, by a wrapper that records a span:
name, start, end, parent span and thread id.  Two boundaries that are
not public functions are wrapped as well: ``bohrlab.search._run_restart``
(one Nelder-Mead restart, named ``search.restart``) and
``numpy.linalg.svd`` (named ``linalg.svd``), which ``search.objective``
calls directly.  Spans stay in memory until the run ends.

Self time is the span's duration minus the part covered by its children.
Search restarts run on worker threads whose spans interleave; there a
span counts as running while it is the innermost open span on its thread
and has no open child on another thread, and each instant is split
evenly among the spans running at that instant.  The split keeps the
per-span self times summing to the time any span was open.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
from time import perf_counter

import numpy as np

MODULES = ("cli", "linalg", "hypotheses", "series", "witnesses", "search", "scalar")

# span record fields
NAME, START, END, PARENT, TID, ATTR = range(6)


def _order(args, kwargs, result):
    return int(np.shape(args[0])[0]) if args else 0


def _result_nbytes(args, kwargs, result):
    return int(result.nbytes)


def _instance_nbytes(args, kwargs, result):
    return int(result.A.nbytes + result.S.nbytes + sum(m.nbytes for m in result.seq.matrices))


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# what a span's ATTR field holds, per span name
ANNOTATIONS = {
    "linalg.hermitian_eigenvalues": _order,
    "linalg.hermitian_eigensystem": _order,
    "linalg.as_complex_matrix": _result_nbytes,
    "witnesses.general_witness": _instance_nbytes,
    "witnesses.three_by_three_witness": _instance_nbytes,
    "witnesses.remark_two_witness": _instance_nbytes,
    "witnesses.embed": _instance_nbytes,
    "cli.load_instance": _file_size,
}


class Tracer:
    """Records spans between ``install`` (patch) and ``uninstall`` (restore)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        annotate = ANNOTATIONS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                if main:
                    parent = main[-1]  # a search worker thread: its caller waits in main
                elif name == "cli.main":
                    parent = None
                else:
                    return fn(*args, **kwargs)  # the benchmark's own numpy use, not a layer
            rec = [name, 0.0, 0.0, parent, tid, 0]
            tracer.spans.append(rec)
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                rec[ATTR] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every public bohrlab function at every module attribute naming it."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("bohrlab."):
                    continue
                key = id(obj)
                if key not in wrappers:
                    wrappers[key] = self._wrap(f"{home.split('.', 1)[1]}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[key])
        search = modules["search"]
        self._patch(search, "_run_restart", self._wrap("search.restart", search._run_restart))
        self._patch(np.linalg, "svd", self._wrap("linalg.svd", np.linalg.svd))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def parent_indices(spans: list[list]) -> list[int]:
    """Position of each span's parent in `spans`, -1 for a root."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    return [index[id(rec[PARENT])] if rec[PARENT] is not None else -1 for rec in spans]


def table(spans: list[list]) -> list[list]:
    """Spans as plain rows, the parent given by its position."""
    return [[*rec[:PARENT], p, *rec[PARENT + 1:]] for rec, p in zip(spans, parent_indices(spans))]


def self_times(spans: list[list]):
    """Per-span self time and inclusive time, and each span's parent index.

    Walks every span boundary in time order.  Between two boundaries, the
    running spans are the innermost open span of each thread that has no
    open child on another thread; the interval is split evenly among them.
    """
    parent = parent_indices(spans)
    events = []
    for i, rec in enumerate(spans):
        events.append((rec[START], 1, i))
        events.append((rec[END], 0, i))
    events.sort()

    own = [0.0] * len(spans)
    foreign_open = [0] * len(spans)  # open children on another thread
    stacks: dict[int, list] = {}
    last = events[0][0] if events else 0.0
    for t, is_start, i in events:
        dt = t - last
        if dt > 0.0:
            running = [s[-1] for s in stacks.values() if s and not foreign_open[s[-1]]]
            for j in running:
                own[j] += dt / len(running)
            last = t
        tid = spans[i][TID]
        p = parent[i]
        cross = p >= 0 and spans[p][TID] != tid
        if is_start:
            stacks.setdefault(tid, []).append(i)
            if cross:
                foreign_open[p] += 1
        else:
            stacks[tid].pop()
            if cross:
                foreign_open[p] -= 1

    inclusive = own[:]
    for i in range(len(spans) - 1, -1, -1):
        if parent[i] >= 0:
            inclusive[parent[i]] += inclusive[i]
    return own, inclusive, parent
