"""Spans around calls into pglatin's public functions, recorded from outside.

`install` wraps every public module-level function of the package's modules
and rebinds the wrapper under the same name in every pglatin namespace that
bound the original. The modules import each other with `from .x import y`,
so rebinding only the defining module would miss most calls; rebinding
everywhere turns nested calls into child spans (canonicalize -> plane_check,
reconstruct -> verify_mpls, max_zero_submatrix -> bipartite_matching).

A span is `[name, parent, start, end, text_bytes]`: `parent` is the index
of the enclosing span or -1, and `text_bytes` is the length of a str first
argument or str result, which is how text io sizes are counted.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import defaultdict
from time import perf_counter

MODULES = ("planes", "geometry", "binmat", "canonical", "latin", "matching", "cli")


class Recorder:
    """Keeps the spans of one process in memory until they are read."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if args and isinstance(args[0], str):
                span[4] = len(args[0])
            elif isinstance(result, str):
                span[4] = len(result)
            return result

        return traced


def install(recorder: Recorder):
    """Wrap every public function of every pglatin module; return the undo."""
    package = importlib.import_module("pglatin")
    modules = [importlib.import_module(f"pglatin.{m}") for m in MODULES]
    namespaces = [package, *modules]
    replaced: list[tuple[types.ModuleType, str, object]] = []
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            if fn.__module__ != module.__name__:
                continue
            wrapper = recorder.wrap(f"{short}.{name}", fn)
            for ns in namespaces:
                if vars(ns).get(name) is fn:
                    setattr(ns, name, wrapper)
                    replaced.append((ns, name, fn))

    def undo() -> None:
        for ns, name, fn in replaced:
            setattr(ns, name, fn)

    return undo


def summarize(span_lists: list[list[list]]) -> dict[str, list]:
    """Per span name: [calls, self seconds, text bytes], over one list per process.

    Self time is a span's duration minus the durations of its direct
    children; the wrappers nest strictly, so children never overlap.
    """
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, _, start, end, nbytes) in enumerate(spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - child_time[idx]
            entry[2] += nbytes
    return dict(totals)


def zero_block_matchings(span_lists: list[list[list]]) -> list[int]:
    """Matchings solved inside each max_zero_submatrix call, in call order.

    One matching means the call took the single-matching fast path; more
    means it fell back to the per-zero-cell search.
    """
    found: list[int] = []
    for spans in span_lists:
        counts: dict[int, int] = {}
        for idx, (name, parent, *_rest) in enumerate(spans):
            if name == "matching.max_zero_submatrix":
                counts[idx] = 0
            elif name == "matching.bipartite_matching" and parent in counts:
                counts[parent] += 1
        found.extend(counts.values())
    return found
