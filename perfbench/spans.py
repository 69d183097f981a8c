"""In-memory spans around the entry points of each demix layer.

The traced run wraps the public entry points of every `src/demix` module
from here, in every module namespace that holds a reference to them (the
package imports functions by name, so `_gradient_full` lives in
`objective`, `solver` and `verify` at once). The program itself carries no
tracing code. Spans are kept in a list and summarised when the job ends.

Spans are recorded on one stack, which is correct because every workload
runs single-threaded (`DEMIX_THREADS=1`, one job per CLI call).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (span name, defining module, function). The span name's prefix is the layer.
ENTRY_POINTS = (
    ("problem.make_instance", "problem", "make_instance"),
    ("problem.make_dft_rows", "problem", "make_dft_rows"),
    ("problem.sample_design", "problem", "sample_design"),
    ("problem.synthesize_measurements", "problem", "synthesize_measurements"),
    ("problem.forward_parts", "problem", "forward_parts"),
    ("problem.normal_pairs", "_rng", "normal_pairs"),
    ("problem.complex_standard_normal", "_rng", "complex_standard_normal"),
    ("objective.gradient", "objective", "_gradient_full"),
    ("solver.run", "solver", "run"),
    ("solver.spectral_init", "solver", "spectral_init"),
    ("solver.backprojection", "solver", "backprojection_matrices"),
    ("solver.leading_triple", "solver", "leading_triple"),
    ("solver.step", "solver", "step_arrays"),
    ("solver.record", "solver", "_record"),
    ("metrics.align_state", "metrics", "align_state"),
    ("metrics.align_source", "metrics", "align_source"),
    ("metrics.dist", "metrics", "dist"),
    ("metrics.relative_error", "metrics", "relative_error"),
    ("metrics.incoherence_measures", "metrics", "incoherence_measures"),
    ("metrics.incoherence_mu", "metrics", "incoherence_mu"),
    ("verify.spectral_concentration", "verify", "spectral_concentration"),
    ("verify.write_report", "verify", "write_report"),
    ("cli.main", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
)

LAYERS = ("problem", "objective", "solver", "metrics", "verify", "cli")


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


# Bytes each call reads and writes, computed from the array shapes of its
# arguments and results. Cache traffic is not modelled.
WORK = {
    "objective.gradient": lambda a, out: _nbytes(
        a["state"].h, a["state"].x, a["inst"].A, a["inst"].B, a["inst"].y, *out
    ),
    "problem.forward_parts": lambda a, out: _nbytes(a["H"], a["X"], a["A"], a["B"], *out),
    "solver.backprojection": lambda a, out: _nbytes(a["A"], a["B"], a["y"], out),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans; -1 at top level


class Recorder:
    """Collects spans and computed bytes for one traced job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if work is not None:
                self.bytes[name] += work(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced


def _demix_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "demix" or n.startswith("demix.")]


@contextmanager
def tracing(recorder: Recorder):
    """Replace every entry point in every demix namespace; restore on exit."""
    replaced = []
    try:
        for name, module, attr in ENTRY_POINTS:
            fn = getattr(importlib.import_module(f"demix.{module}"), attr)
            wrapper = recorder.wrap(name, fn)
            for mod in _demix_modules():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        replaced.append((mod, key, fn))
        yield recorder
    finally:
        for mod, key, fn in reversed(replaced):
            setattr(mod, key, fn)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for sp, kids in zip(spans, children):
        clipped = [(max(spans[k].start, sp.start), min(spans[k].end, sp.end)) for k in kids]
        out.append((sp.end - sp.start) - _covered(clipped))
    return out


def summarise(recorder: Recorder) -> dict[str, dict]:
    """Per entry point: calls, self seconds and computed bytes for one job."""
    out = {name: {"calls": 0, "self_s": 0.0, "bytes": 0} for name, _, _ in ENTRY_POINTS}
    for sp, own in zip(recorder.spans, self_times(recorder.spans)):
        out[sp.name]["calls"] += 1
        out[sp.name]["self_s"] += own
    for name, nbytes in recorder.bytes.items():
        out[name]["bytes"] = nbytes
    return out
