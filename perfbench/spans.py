"""Spans around the library's public functions, for the traced run.

`install` wraps each function in LAYER_FUNCTIONS and rebinds the wrapper
under every name that refers to the original in any loaded rbgroups
module, so calls between modules are recorded as well as the
benchmark's own.  Each call becomes a span (function, start, end,
parent span) kept in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs, named as the per-layer metrics name them.
LAYER_FUNCTIONS = (
    ("groups", "all_subgroups"),
    ("groups", "quotient"),
    ("groups", "isomorphisms_all"),
    ("groups", "exact_factorizations"),
    ("groups", "automorphisms"),
    ("groups", "from_cayley_table"),
    ("groups", "direct_power"),
    ("groups", "wreath_product"),
    ("enumeration", "graph_enumerate"),
    ("enumeration", "splitting_report"),
    ("enumeration", "classify"),
    ("operators", "is_splitting"),
    ("operators", "conjugate"),
    ("operators", "tilde"),
    ("operators", "verify"),
    ("extension", "extend_generators"),
    ("extension", "closure_group"),
    ("derived", "derived_group"),
    ("derived", "structure_report"),
    ("constructions", "power_product_rb"),
    ("constructions", "cascade_rb"),
    ("constructions", "wreath_rb"),
    ("constructions", "splitting_from_factorization"),
    ("constructions", "central_conjugation"),
    ("lie_ring", "graded_lie_ring"),
    ("lie_ring", "induced_rb"),
    ("lie_ring", "verify_lie_rb"),
)

NAMES = tuple(f"{m}.{f}" for m, f in LAYER_FUNCTIONS)


class Tracer:
    """Span store.  Spans are numbered in call order; parent -1 marks a
    call made directly by the benchmark."""

    def __init__(self):
        self.fid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.fid)

    def wrap(self, fid: int, fn):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def totals(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self time in seconds per function over spans lo..hi-1.

        Self time is a span's duration minus the durations of its direct
        children; calls do not overlap, so that is the time no traced
        callee accounts for.
        """
        def part(a):
            return np.frombuffer(a[lo:hi], dtype=np.int64)

        fid, parent = part(self.fid), part(self.parent)
        dur = part(self.end) - part(self.start)
        child = np.zeros(hi - lo, dtype=np.int64)
        inner = parent >= lo
        np.add.at(child, parent[inner] - lo, dur[inner])
        calls = np.bincount(fid, minlength=len(NAMES))
        self_s = np.bincount(fid, weights=dur - child, minlength=len(NAMES)) / 1e9
        return calls, self_s

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(NAMES),
            fid=np.frombuffer(self.fid, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def install() -> Tracer:
    """Wrap every listed function in every loaded rbgroups module."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "rbgroups" or name.startswith("rbgroups."))]
    for fid, (mod, fn_name) in enumerate(LAYER_FUNCTIONS):
        original = getattr(sys.modules[f"rbgroups.{mod}"], fn_name)
        wrapper = tracer.wrap(fid, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
    return tracer
