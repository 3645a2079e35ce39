"""Attribution passes: where one pass's host time, calls and memory go.

Three tracers, each wrapped around one extra pass of the workload's spec
(never around a timed pass — end-to-end numbers come from untraced passes):

* :class:`Sampler` — a timer signal samples the Python stack; each sample is
  charged to the layer of the innermost ``src/repro`` frame, so time spent
  in C builtins lands on the caller (``cProfile`` inflates call-heavy Python
  code instead).  Samples are weighted by the time since the previous one,
  so a long C call that delays the handler is not undercounted.
* :class:`CallProfile` — one ``cProfile`` run of the run phase; exact call
  counts per layer and the layer->layer edge table.
* :class:`MemTrace` — ``tracemalloc`` over set-up and run; live bytes at the
  end of the run grouped by layer.

:class:`Spans` records the harness's own phases and writes them as Chrome
trace-event JSON.  Spans inside ``src/`` are not this package's job.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import signal
import time
import tracemalloc
import types
from collections import defaultdict
from fnmatch import fnmatchcase
from typing import Optional

from .layers import OUTSIDE, LayerMap

__all__ = ["Tracer", "Sampler", "CallProfile", "MemTrace", "Spans"]

#: 1 kHz.  ITIMER_PROF would be the natural timer but it is quantised to the
#: kernel tick (250 Hz on the reference box: a quarter of the samples); the
#: benchmark is single-threaded and CPU-bound, so real time is CPU time.
SAMPLE_INTERVAL_S = 0.001


class Tracer:
    """Hooks the pass protocol calls; the default tracer does nothing."""

    def before_setup(self) -> None:
        pass

    def before_run(self) -> None:
        pass

    def after_run(self) -> None:
        pass


class Sampler(Tracer):
    """Weighted stack sampling, split into the set-up and the run phase."""

    def __init__(self, layer_map: LayerMap):
        self._layer_of = layer_map.get
        self._weights = {"setup": defaultdict(float), "run": defaultdict(float)}
        self.samples = {"setup": 0, "run": 0}
        self._phase = "setup"
        self._last = 0.0
        self._previous_handler = None

    def _on_signal(self, _signum, frame) -> None:
        now = time.perf_counter()
        layer_of = self._layer_of
        layer = None
        while frame is not None:
            layer = layer_of(frame.f_code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        self._weights[self._phase][layer or OUTSIDE] += now - self._last
        self.samples[self._phase] += 1
        self._last = now

    def before_setup(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_signal)
        self._phase = "setup"
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def before_run(self) -> None:
        self._phase = "run"

    def after_run(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def shares(self, phase: str) -> dict:
        """layer -> fraction of the phase's sampled time (sums to 1)."""
        weights = self._weights[phase]
        total = sum(weights.values())
        if total <= 0.0:
            return {}
        return {layer: weight / total for layer, weight in weights.items()}


def _qualified_names(filename: str) -> dict:
    """(first line -> qualified name) of every function defined in a file.

    cProfile labels a function by file, first line and *bare* name, which
    cannot tell ``Table.get`` from ``Record.get``; the compiled source can.
    """
    names: dict = {}
    try:
        with open(filename, encoding="utf-8") as handle:
            pending = [compile(handle.read(), filename, "exec")]
    except (OSError, SyntaxError):
        return names
    while pending:
        code = pending.pop()
        names[code.co_firstlineno] = getattr(code, "co_qualname", code.co_name)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


class CallProfile(Tracer):
    """Exact call counts of the run phase, by layer and by layer->layer edge."""

    def __init__(self, layer_map: LayerMap):
        self._layer_map = layer_map
        self._profile = cProfile.Profile()
        self._enabled = False
        self.total_calls = 0
        #: layer -> calls of Python functions defined in the layer
        self.calls: dict = {}
        #: layer -> calls whose caller is in another layer (or outside)
        self.entries: dict = {}
        #: (caller layer, callee layer) -> [calls, cumulative seconds]
        self.edges: dict = {}
        #: (layer, qualified function name) -> calls
        self._functions: dict = {}

    def before_run(self) -> None:
        self._enabled = True
        self._profile.enable()

    def after_run(self) -> None:
        if not self._enabled:
            return
        self._profile.disable()
        stats = pstats.Stats(self._profile)
        self.total_calls = stats.total_calls
        layer_of = self._layer_map.get
        calls = defaultdict(int)
        entries = defaultdict(int)
        edges = defaultdict(lambda: [0, 0.0])
        functions = defaultdict(int)
        qualified: dict = {}
        for (filename, line, name), (_cc, ncalls, _tt, _ct, callers) in stats.stats.items():
            layer = layer_of(filename)
            if layer is None:
                continue
            if filename not in qualified:
                qualified[filename] = _qualified_names(filename)
            calls[layer] += ncalls
            functions[(layer, qualified[filename].get(line, name))] += ncalls
            for (caller_file, _l, _n), (edge_calls, _ecc, _ett, edge_ct) in callers.items():
                caller_layer = layer_of(caller_file) or OUTSIDE
                edge = edges[(caller_layer, layer)]
                edge[0] += edge_calls
                edge[1] += edge_ct
                if caller_layer != layer:
                    entries[layer] += edge_calls
        self.calls, self.entries = dict(calls), dict(entries)
        self.edges, self._functions = dict(edges), dict(functions)

    def function_calls(self, layer: str, pattern: str) -> Optional[int]:
        """Calls of the layer's functions whose qualified name matches
        ``pattern``: 0 when such a function exists but this workload never
        calls it, ``None`` when the layer defines none (it was renamed)."""
        found = [count for (where, name), count in self._functions.items()
                 if where == layer and fnmatchcase(name, pattern)]
        if found:
            return sum(found)
        for filename in self._layer_map.files(layer):
            if any(fnmatchcase(name, pattern)
                   for name in _qualified_names(filename).values()):
                return 0
        return None


class MemTrace(Tracer):
    """Live allocations at the end of the run, grouped by allocating layer."""

    def __init__(self, layer_map: LayerMap):
        self._layer_map = layer_map
        self.peak_mb = 0.0
        self.alloc_mb: dict = {}

    def before_setup(self) -> None:
        tracemalloc.start(1)

    def after_run(self) -> None:
        _current, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        self.peak_mb = peak / 2**20
        by_layer = defaultdict(int)
        for stat in snapshot.statistics("filename"):
            layer = self._layer_map.get(stat.traceback[0].filename) or OUTSIDE
            by_layer[layer] += stat.size
        self.alloc_mb = {layer: size / 2**20 for layer, size in by_layer.items()}


class Spans:
    """The harness's own phases: name, start, end, parent, shared pass id."""

    def __init__(self):
        self._origin = time.perf_counter()
        self.spans: list = []

    def add(self, name: str, start: float, end: float, pass_id: int,
            parent: str = "") -> None:
        self.spans.append({"name": name, "start": start, "end": end,
                           "pass_id": pass_id, "parent": parent})

    def write_chrome_trace(self, path, process_name: str) -> None:
        events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for span in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "cat": "perf",
                "name": span["name"],
                "ts": (span["start"] - self._origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"pass_id": span["pass_id"], "parent": span["parent"]},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
