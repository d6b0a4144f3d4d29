"""In-memory span recorder for the cavityqfc benchmark.

``Tracer.install()`` replaces every public function of the traced cavityqfc
modules with a wrapper that records one span per call into the module:
name, start, end, the index of the enclosing span and the operation it
belongs to.  A call from inside the same module (``render_csv`` calling
``fmt``, say) is part of that module's own time and records nothing.  The
wrappers are placed from outside, on the module attributes (and on every
other cavityqfc module attribute that refers to the same function), so the
package itself carries no timer.  ``uninstall()`` restores the originals.

Spans stay in memory; ``summarize()`` turns them into per-call durations,
per-layer self times and counters, and ``write()`` stores the summary and
the spans of the first operation as JSON at the end of a run.

Uses only the standard library, so a traced child process can import it
before anything else.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

# the modules whose public functions are timed, one layer each
LAYERS = ("cli", "photon_stats", "fitting", "noise", "snr", "conversion", "dataio")

# root span the benchmark opens around each operation
OP = "bench.op"


def _coincidence_counts(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return {"coincidences": int(result.counts.sum()), "bins": int(model.bins)}


# counters recorded at a function's boundary, from its arguments and result
COUNTERS = {
    "photon_stats.simulate_coincidences": _coincidence_counts,
    "fitting.fit_saturating_noise": lambda a, k, r: {"nfev": int(r.iterations)},
    "dataio.render_csv": lambda a, k, r: {"bytes": len(r.encode())},
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans ``[name, start, end, parent, op, counts]`` in a list."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self._layers.append(name.split(".", 1)[0])
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        layer = name.split(".", 1)[0]
        layers = self._layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cavityqfc.{layer}")
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "cavityqfc" or n.startswith("cavityqfc.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def extend(self, spans: list[list], op) -> None:
        """Append spans recorded elsewhere (a child process) as operation ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _, counts in spans:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, op, counts]
            )


def summarize(spans: list[list], first_op=0) -> dict:
    """Per-name call durations, per-layer self time and first-op counters.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, list[float]] = {}
    layer_self: dict[str, float] = {}
    counts: dict[str, int] = {}
    first_op_spans = 0
    for i, (name, start, end, _, op, record_counts) in enumerate(spans):
        duration = end - start
        calls.setdefault(name, []).append(duration)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + duration - child_time[i]
        if op == first_op:
            first_op_spans += 1
            for key, value in (record_counts or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    return {
        "median_s": {name: statistics.median(d) for name, d in calls.items()},
        "calls": {name: len(d) for name, d in calls.items()},
        "layer_self_s": layer_self,
        "first_op_counts": counts,
        "first_op_spans": first_op_spans,
    }


def write(path, spans: list[list], summary: dict, first_op=0) -> None:
    """Store the summary and the first operation's spans as JSON."""
    fields = ("name", "start", "end", "parent", "op", "counts")
    first = [dict(zip(fields, s), index=i) for i, s in enumerate(spans) if s[4] == first_op]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "first_op_spans": first}, handle, indent=1)
