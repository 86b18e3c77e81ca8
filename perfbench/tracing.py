"""Span tracing from outside the program.

`Tracer.install` replaces the public functions of the mahler modules (every
module attribute bound to the same function object, so calls between modules
are caught too) and a few class methods with wrappers that record spans.  A
span has a name, start, end, parent and the id of the job it belongs to.
Spans of hot leaf operations (scalar arithmetic, Stirling look-ups) are only
counted and timed, because storing one record per call would hold millions
of them; every other span is kept in memory and written out at the end.

A layer's self time is the time inside its spans minus the part covered by
child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

MAX_STORED_SPANS = 200_000


class Tracer:
    """Per-layer self time and call counts, the spans of one run, and the
    refusal and restriction times behind measure.refused_s and
    measure.restrict_useful_ratio."""

    def __init__(self):
        self.stack = []          # open frames: [span_id, layer, start, child_time]
        self.spans = []          # (id, parent, name, start, end, job, error)
        self.dropped = 0
        self.next_id = 0
        self.job = 0
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.refused_time = 0.0
        self.restrict_time = 0.0
        self.restrict_useful_time = 0.0
        self.top_level_time = 0.0
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, keep: bool, nested_counts: bool):
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            count = nested_counts or parent is None or parent[1] != layer
            frame = [tracer.next_id, layer, clock(), 0.0]
            tracer.next_id += 1
            stack.append(frame)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                else:
                    tracer.top_level_time += duration
                tracer.self_time[layer] += duration - frame[3]
                if count:
                    tracer.calls[layer] += 1
                tracer._outcome(name, duration, error)
                if keep:
                    if len(tracer.spans) < MAX_STORED_SPANS:
                        tracer.spans.append((frame[0], parent[0] if parent else None,
                                             name, frame[2], end, tracer.job, error))
                    else:
                        tracer.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _outcome(self, name: str, duration: float, error):
        if name in ("measure.restrict_to_units", "measure.cell_mass"):
            if error == "PrecisionExhausted":
                self.refused_time += duration
            if name == "measure.restrict_to_units":
                self.restrict_time += duration
                if error is None:
                    self.restrict_useful_time += duration

    def counter(self, fn, layer: str):
        """A wrapper that only counts calls (no span, no timing)."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self, modules, functions, methods, counted=()):
        """Prepare the wrappers; `enable` puts them in place.

        functions: (module, attr, layer, keep); methods: (class, attr, layer,
        keep); counted: (class, attr, layer).  Every attribute of `modules`
        bound to a wrapped function object is replaced, so calls between
        modules (`from .padic import stirling_second`) are caught too."""
        by_id = {}
        for module, attr, layer, keep in functions:
            fn = getattr(module, attr)
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            by_id[id(fn)] = self._wrap(fn, name, layer, keep, nested_counts=True)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._patches.append((module, attr, value, by_id[id(value)]))
        for cls, attr, layer, keep in methods:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn, self._wrap(
                fn, f"{cls.__name__}.{attr}", layer, keep, nested_counts=False)))
        for cls, attr, layer in counted:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn, self.counter(fn, layer)))

    def enable(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: str, facts: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"facts": facts, "dropped_spans": self.dropped,
                       "fields": ["id", "parent", "name", "start", "end", "job", "error"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def import_ms(stderr: str) -> dict:
    """Import times (ms) from a `python -X importtime` report: `mahler` is the
    cumulative time of the mahler modules imported at the top level (a
    module's own imports are indented below it and included in its time),
    `sympy` and `numpy` the cumulative time of that module, 0 if it was not
    imported."""
    out = {"mahler": 0.0, "sympy": 0.0, "numpy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            ms = int(parts[1]) / 1000.0
        except (IndexError, ValueError):
            continue  # the header line
        name = parts[2].strip()
        top_level = not parts[2][1:].startswith(" ")
        if top_level and name.split(".")[0] == "mahler":
            out["mahler"] += ms
        elif name in ("sympy", "numpy"):
            out[name] = ms
    return out
