"""Per-layer timing spans recorded from outside the program.

A :class:`Recorder` wraps the public per-call entry point of each
layer (``run_cell``, ``FvcSystem.simulate_batch``, ``trace_columns``,
...) with a span that records its name, start, end, parent span and,
for kernel dispatch, whether the kernel replayed or declined.  Nothing
under ``src/`` changes: the wrappers replace module and class
attributes at run time, so only a traced run pays for them.  Per-access
methods (``DirectMappedCache.access`` and friends) are never wrapped,
which keeps the tracing overhead small.

Spans stay in memory and are written out once, as JSON lines, when the
run ends (:meth:`Recorder.write`).  :func:`layer_metrics` turns the
span lines of one run into the named per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Sequence


def _kernel_outcome(result) -> str:
    from repro.kernels import dispatch

    if not dispatch.kernels_active():
        return "off"
    return "decline" if result is None or result is False else "replay"


#: (span name, module, attribute path, outcome classifier) for every
#: wrapped entry point.  Columnar targets are skipped without numpy.
TARGETS = (
    ("workloads.generate_trace", "repro.workloads.base", "Workload.generate_trace", None),
    ("workloads.execute", "repro.workloads.base", "Workload.execute", None),
    ("trace_cache.load", "repro.engine.trace_cache", "TraceCache.load", None),
    ("trace_cache.store", "repro.engine.trace_cache", "TraceCache.store", None),
    ("store.get", "repro.workloads.store", "TraceStore.get", None),
    ("columnar.trace_columns", "repro.kernels.columnar", "trace_columns", None),
    ("columnar.line_index", "repro.kernels.columnar", "line_index", None),
    ("columnar.freq_layer", "repro.kernels.columnar", "freq_layer", None),
    ("columnar.set_order", "repro.kernels.columnar", "set_order", None),
    ("columnar.ranked_value_counts", "repro.kernels.columnar", "ranked_value_counts", None),
    ("kernels.baseline", "repro.kernels.dispatch", "try_baseline_stats", _kernel_outcome),
    ("kernels.fvc", "repro.kernels.dispatch", "try_fvc_replay", _kernel_outcome),
    ("kernels.hierarchy", "repro.kernels.dispatch", "try_hierarchy_replay", _kernel_outcome),
    ("oracle.fvc", "repro.fvc.system", "FvcSystem.simulate_batch", None),
    ("oracle.dmc", "repro.cache.direct", "DirectMappedCache.simulate_batch", None),
    ("oracle.setassoc", "repro.cache.setassoc", "SetAssociativeCache.simulate_batch", None),
    ("oracle.classify", "repro.cache.classify", "classify_misses", None),
    ("engine.cell", "repro.engine.cells", "run_cell", None),
    ("profiling.occurrence", "repro.profiling.occurrence", "profile_occurring_values", None),
    ("profiling.stability", "repro.profiling.stability", "profile_stability", None),
    ("profiling.access", "repro.profiling.access", "profile_accessed_values", None),
    ("sweeps.expand", "repro.sweeps.expand", "expand", None),
    ("sweeps.report", "repro.sweeps.report", "build_report", None),
    ("render", "repro.experiments.render", "experiment_payload", None),
)

#: Modules imported before wrapping, so that every module-level
#: ``from x import f`` alias already exists and gets rebound too.
PRELOAD = (
    "repro.api",
    "repro.engine.runner",
    "repro.experiments.registry",
    "repro.service.server",
    "repro.sweeps.runner",
)


class Recorder:
    """In-memory span buffer plus the wrappers that fill it.

    One span is ``[name, start, end, parent index, outcome]`` with
    ``time.perf_counter`` times.  Thread-safe: the service process
    enters wrapped code from its HTTP threads.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack().pop()
        span[2] = time.perf_counter()

    def span(self, name: str, func: Callable, outcome=None) -> Callable:
        """``func`` wrapped in a span called ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if outcome is not None:
                span[4] = outcome(result)
            return result

        return traced

    @contextlib.contextmanager
    def timed(self, name: str):
        """One span around a block (the harness's own units of work)."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def install(self) -> int:
        """Wrap every available target; returns how many were wrapped."""
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        wrapped = 0
        for name, module_name, path, outcome in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:  # numpy-only layers on a numpy-less host
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            wrapper = self.span(name, original, outcome)
            setattr(owner, attr, wrapper)
            if not owner_name:
                _rebind_aliases(original, wrapper)
            wrapped += 1
        return wrapped

    def capture_children(self, directory: str) -> None:
        """Make forked service job children write their own spans.

        The service forks one child per job from a worker thread; the
        child inherits these wrappers but its spans would die with it.
        Wrapping ``execute_spec`` (what the child runs) lets each child
        start from an empty buffer and write its spans when the job ends.
        """
        import repro.service.api as service_api

        original = service_api.execute_spec

        @functools.wraps(original)
        def execute_spec(spec, progress=None):
            # Fresh state: the fork may have copied a lock held by
            # another thread and the parent's spans.
            self._lock = threading.Lock()
            self._local = threading.local()
            self.spans = []
            try:
                return original(spec, progress)
            finally:
                self.write(os.path.join(directory, f"child-{os.getpid()}.jsonl"))

        service_api.execute_spec = execute_spec
        _rebind_aliases(original, execute_spec)

    def write(self, path: str) -> None:
        """Write every closed span as one JSON line, in start order."""
        with self._lock:
            spans = list(self.spans)
        # Pids can repeat across the service's many short job children.
        proc = f"{os.getpid()}-{time.perf_counter_ns()}"
        with open(path, "a", encoding="utf-8") as handle:
            for index, (name, start, end, parent, outcome) in enumerate(spans):
                if end is None:
                    continue
                handle.write(json.dumps({
                    "proc": proc, "i": index, "name": name,
                    "start": start, "dur": end - start,
                    "parent": parent, "outcome": outcome,
                }) + "\n")


def _rebind_aliases(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


# Summary ----------------------------------------------------------------

#: Every per-layer metric this module reports, with its unit.  The
#: ``experiments.<id>_s`` and ``service.*`` rows are filled by the
#: caller (harness unit spans and the service's own numbers).
UNITS = {
    "workloads.synth_s": "s",
    "workloads.synth_calls": "count",
    "workloads.execute_s": "s",
    "trace_cache.load_s": "s",
    "trace_cache.loads": "count",
    "trace_cache.store_s": "s",
    "store.hit_ratio": "ratio",
    "columnar.trace_columns_s": "s",
    "columnar.decompose_s": "s",
    "columnar.ranked_counts_s": "s",
    "kernels.replay_s": "s",
    "kernels.replays": "count",
    "kernels.declines": "count",
    "kernels.engaged_ratio": "ratio",
    "oracle.fvc_s": "s",
    "oracle.baseline_s": "s",
    "oracle.classify_s": "s",
    "oracle.cells": "count",
    "engine.cells": "count",
    "engine.cell_p50_ms": "ms",
    "engine.cell_p90_ms": "ms",
    "profiling.occurrence_s": "s",
    "profiling.stability_s": "s",
    "profiling.access_s": "s",
    "sweeps.expand_s": "s",
    "sweeps.report_s": "s",
    "render_s": "s",
}

_ORACLE = ("oracle.fvc", "oracle.dmc", "oracle.setassoc", "oracle.classify")
_DECOMPOSE = ("columnar.line_index", "columnar.freq_layer", "columnar.set_order")
_KERNELS = ("kernels.baseline", "kernels.fvc", "kernels.hierarchy")


def read_spans(paths: Iterable[str]) -> List[Dict]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0.0 with no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: Sequence[Dict]) -> Dict[str, float]:
    """The per-layer metrics in :data:`UNITS` from one run's spans.

    Durations sum only the outermost span of a group (a ``line_index``
    called inside ``freq_layer`` is not counted twice), and
    ``workloads.execute_s`` leaves out the executions that synthesise
    a trace, so it is the occurrence-profiling share alone.
    """
    by_id = {(s["proc"], s["i"]): s for s in spans}

    def ancestors(span: Dict):
        parent = span["parent"]
        while parent is not None:
            node = by_id.get((span["proc"], parent))
            if node is None:
                return
            yield node
            parent = node["parent"]

    def outermost(names: Sequence[str]) -> List[Dict]:
        return [
            s for s in spans
            if s["name"] in names
            and not any(a["name"] in names for a in ancestors(s))
        ]

    def total(selected: Iterable[Dict]) -> float:
        return sum(s["dur"] for s in selected)

    def named(name: str) -> List[Dict]:
        return [s for s in spans if s["name"] == name]

    has_child = {(s["proc"], s["parent"]) for s in spans if s["parent"] is not None}
    gets = named("store.get")
    hits = [s for s in gets if (s["proc"], s["i"]) not in has_child]
    kernel = [s for s in spans if s["name"] in _KERNELS and s["outcome"] != "off"]
    replays = [s for s in kernel if s["outcome"] == "replay"]
    oracle = outermost(_ORACLE)
    cells_ms = [s["dur"] * 1000.0 for s in named("engine.cell")]
    synth = named("workloads.generate_trace")
    return {
        "workloads.synth_s": total(synth),
        "workloads.synth_calls": len(synth),
        "workloads.execute_s": total(
            s for s in named("workloads.execute")
            if not any(a["name"] == "workloads.generate_trace" for a in ancestors(s))
        ),
        "trace_cache.load_s": total(named("trace_cache.load")),
        "trace_cache.loads": len(named("trace_cache.load")),
        "trace_cache.store_s": total(named("trace_cache.store")),
        "store.hit_ratio": len(hits) / len(gets) if gets else 0.0,
        "columnar.trace_columns_s": total(outermost(("columnar.trace_columns",))),
        "columnar.decompose_s": total(outermost(_DECOMPOSE)),
        "columnar.ranked_counts_s": total(named("columnar.ranked_value_counts")),
        "kernels.replay_s": total(replays),
        "kernels.replays": len(replays),
        "kernels.declines": len(kernel) - len(replays),
        "kernels.engaged_ratio": len(replays) / len(kernel) if kernel else 0.0,
        "oracle.fvc_s": total(s for s in oracle if s["name"] == "oracle.fvc"),
        "oracle.baseline_s": total(
            s for s in oracle if s["name"] in ("oracle.dmc", "oracle.setassoc")
        ),
        "oracle.classify_s": total(s for s in oracle if s["name"] == "oracle.classify"),
        "oracle.cells": len(oracle),
        "engine.cells": len(cells_ms),
        "engine.cell_p50_ms": statistics.median(cells_ms) if cells_ms else 0.0,
        "engine.cell_p90_ms": percentile(cells_ms, 90),
        "profiling.occurrence_s": total(outermost(("profiling.occurrence",))),
        "profiling.stability_s": total(outermost(("profiling.stability",))),
        "profiling.access_s": total(outermost(("profiling.access",))),
        "sweeps.expand_s": total(outermost(("sweeps.expand",))),
        "sweeps.report_s": total(outermost(("sweeps.report",))),
        "render_s": total(outermost(("render",))),
    }

