"""Span tracing of gridwatch from outside the package.

Inside a ``with Tracer():`` block every public function of the gridwatch
modules is replaced, in every gridwatch namespace that holds it, by a wrapper
that records one span per call: module, function, start, end and the span
that caused it.  Spans stay in memory.  A span's self time is its duration
minus the time its direct children cover, so the self times of all spans
under one root add up to the root's duration.  Methods and private helpers
are not wrapped; their time counts towards the public function that calls
them.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter

MODULES = ("cli", "textconf", "grid", "gaussmodel", "simgen", "detector",
           "localizer", "experiments")

# simgen.channel_id formats one column label and write_stream calls it once
# per stream row (480k times at 20k ticks on loop12): its span would time
# the wrapper, not the work, so it stays part of write_stream.
UNWRAPPED = {("simgen", "channel_id")}


class Span:
    __slots__ = ("module", "name", "parent", "start", "end", "outer")

    def __init__(self, module: str, name: str, parent: int | None, start: float,
                 end: float = 0.0, outer: bool = True):
        self.module = module
        self.name = name
        self.parent = parent      # index of the calling span, None for a root
        self.start = start
        self.end = end
        self.outer = outer        # False when the same function is already active

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per module: each span's duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    out: dict[str, float] = {}
    for k, span in enumerate(spans):
        out[span.module] = out.get(span.module, 0.0) + span.duration - covered[k]
    return out


def function_stats(spans: list[Span]) -> tuple[Counter, dict[str, float]]:
    """(calls, inclusive seconds) per "module.function"; a call made while the
    same function is already active adds a call but no time."""
    calls: Counter = Counter()
    seconds: dict[str, float] = {}
    for span in spans:
        key = f"{span.module}.{span.name}"
        calls[key] += 1
        if span.outer:
            seconds[key] = seconds.get(key, 0.0) + span.duration
    return calls, seconds


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _stream_bytes(result, args, kwargs) -> int:
    names = ("stream", "data_path", "meta_path", "scenario", "injections_path")
    bound = dict(zip(names, args), **kwargs)
    return sum(_file_size(bound.get(key))
               for key in ("data_path", "meta_path", "injections_path"))


# Counters read off return values (or written files) at a layer boundary.
OBSERVERS = {
    ("simgen", "write_stream"): ("simgen.stream_bytes", _stream_bytes),
    ("detector", "run_detector"): ("detector.steps",
                                   lambda result, a, k: len(result.step_ticks)),
    ("detector", "adaptive_log_odds"): ("detector.adaptive_steps",
                                        lambda result, a, k: len(result)),
    ("localizer", "scan_pairs"): ("localizer.degenerate_pairs",
                                  lambda result, a, k: len(result.skipped())),
    ("experiments", "run_experiment"): ("experiments.censored",
                                        lambda result, a, k: sum(r.censored
                                                                 for r in result.rows)),
}


class Tracer:
    """Records spans and boundary counters while active; see the module doc."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observer = OBSERVERS.get((module, name))
        depth = [0]     # active calls of fn, to flag re-entrant spans

        def traced(*args, **kwargs):
            span = Span(module, name, stack[-1] if stack else None, 0.0,
                        outer=not depth[0])
            stack.append(len(spans))
            spans.append(span)
            depth[0] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                depth[0] -= 1
                stack.pop()
            if observer is not None:
                self.counts[observer[0]] += observer[1](result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def __enter__(self) -> "Tracer":
        package = importlib.import_module("gridwatch")
        modules = {m: importlib.import_module(f"gridwatch.{m}") for m in MODULES}
        wrappers: dict[int, tuple[object, object]] = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__
                        and (short, name) not in UNWRAPPED):
                    wrappers[id(obj)] = (obj, self._wrap(short, name, obj))
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((namespace, name, obj))
                    setattr(namespace, name, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for namespace, name, obj in reversed(self._patches):
            setattr(namespace, name, obj)
        self._patches.clear()
