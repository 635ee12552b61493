"""Span tracing of the onticsim layers, done entirely from outside.

``Tracer.install`` wraps every function listed in the ``__all__`` of
each package module, at every ``onticsim.*`` module attribute that
refers to it (import sites such as ``harness.to_spherical`` included),
so functions added later are traced without edits here. The generator
that ``harness.case_rng`` returns is wrapped too, so its draw calls and
variate counts are recorded as the ``harness.rng`` layer.

Spans (name, start, end, parent) live in flat arrays while tracing runs;
``summary`` turns them into per-layer calls and self times, where a
span's self time is its duration minus the durations of its children.
Tracing is single-threaded: spans cannot cross worker processes, so a
traced pass must run with one worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "geometry", "cone", "icosa", "ndim", "dynamics", "reports")
CASE_RNG = "harness.case_rng"
RNG = "harness.rng"
# Layer keys that metrics are reported under, in report order.
LAYER_KEYS = LAYERS + (CASE_RNG, RNG)

_CASE_KINDS = ("exact-qubit", "mc-qubit", "exact-ndim", "mc-ndim")


def layer_of(span_name: str) -> str:
    if span_name in (CASE_RNG, RNG):
        return span_name
    return span_name.split(".", 1)[0]


class TracedGenerator:
    """Forwards to a numpy Generator, recording each draw as a span."""

    def __init__(self, generator, tracer: "Tracer") -> None:
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        traced = self._tracer.wrap(attr, RNG, observe=self._tracer.count_variates)
        setattr(self, name, traced)
        return traced


class Tracer:
    """In-memory span recorder plus counters observed at layer boundaries."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters = {"harness.cases": 0, "harness.draws": 0, "harness.rng.variates": 0,
                         "reports.bytes": 0}
        self._patched: list = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span_name: str, observe=None):
        """Return ``fn`` wrapped to record one span per call."""
        name_id = self._name_id(span_name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return functools.update_wrapper(traced, fn)

    def count_variates(self, result, args, kwargs) -> None:
        self.counters["harness.rng.variates"] += int(np.size(result))

    def _observe_experiment(self, report, args, kwargs) -> None:
        if report.config.kind in _CASE_KINDS:
            cases = len(report.records)
            self.counters["harness.cases"] += cases
            self.counters["harness.draws"] += cases + sum(r.rejections or 0 for r in report.records)

    def _observe_write(self, result, args, kwargs) -> None:
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.counters["reports.bytes"] += len(text.encode())

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        modules = [importlib.import_module(f"onticsim.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or id(fn) in wrappers:
                    continue
                home = fn.__module__.rsplit(".", 1)[-1]
                span = f"{home if home in LAYERS else layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrapper_for(fn, span))
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "onticsim" or n.startswith("onticsim."))]
        for module in package:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def _wrapper_for(self, fn, span: str):
        if span == CASE_RNG:
            inner = self.wrap(fn, CASE_RNG)

            def case_rng(*args, **kwargs):
                return TracedGenerator(inner(*args, **kwargs), self)

            return functools.update_wrapper(case_rng, fn)
        if span == "harness.run_experiment":
            return self.wrap(fn, span, observe=self._observe_experiment)
        if span == "reports.write_text_atomic":
            return self.wrap(fn, span, observe=self._observe_write)
        return self.wrap(fn, span)

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------

    def arrays(self):
        return (np.array(self.names, dtype=np.int32), np.array(self.parents, dtype=np.int32),
                np.array(self.starts, dtype=np.float64), np.array(self.ends, dtype=np.float64))

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        names, parents, starts, ends = self.arrays()
        duration = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        return duration - child

    def summary(self) -> dict:
        """``{layer key: (calls, self seconds)}`` for every layer key."""
        names, _, _, _ = self.arrays()
        self_s = self.self_times()
        key_of_name = np.array([LAYER_KEYS.index(layer_of(n)) for n in self.span_names] or [0],
                               dtype=np.int64)
        keys = key_of_name[names] if len(names) else np.zeros(0, np.int64)
        calls = np.bincount(keys, minlength=len(LAYER_KEYS))
        busy = np.bincount(keys, weights=self_s, minlength=len(LAYER_KEYS))
        return {key: (int(calls[i]), float(busy[i])) for i, key in enumerate(LAYER_KEYS)}

    def save(self, path) -> None:
        """Write the spans out: names table plus the four span arrays."""
        names, parents, starts, ends = self.arrays()
        np.savez(path, span_names=np.array(self.span_names), name=names, parent=parents,
                 start=starts, end=ends)
