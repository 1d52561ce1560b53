"""Simulation cells: picklable ``workload x cache-config`` work units.

A :class:`SimCell` describes one simulation the experiment suite needs —
a baseline cache, a DMC+FVC system, or a 3C classification, over one
workload trace — compactly enough to ship to a worker process.  The
worker regenerates nothing it can share: traces come through the
content-addressed trace cache, and the encoder is rebuilt from the
trace's (memoised) access profile, so two cells over the same workload
pay for the trace exactly once per process and once per machine.

:func:`run_cell` is the single execution path used both sequentially
(by the experiments' ``run``) and in parallel (by
:func:`repro.engine.runner.run_cells`), which is what makes the
parallel results bit-identical to the sequential ones.  It is also
where the runtime sanitizer (:mod:`repro.analysis.sanitize`, enabled
by ``REPRO_SANITIZE=1``) hooks in: because the checks live on the one
shared path, sanitized parallel runs exercise exactly the invariants
sanitized sequential runs do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class SimCell:
    """One simulation work unit.

    ``kind`` selects the simulator:

    * ``"baseline"`` — :class:`DirectMappedCache` /
      :class:`SetAssociativeCache` per ``ways``;
    * ``"fvc"`` — :class:`repro.fvc.system.FvcSystem` with
      ``fvc_entries`` entries exploiting the top ``top_values`` values;
    * ``"classify"`` — 3C miss classification
      (:func:`repro.cache.classify.classify_misses`).
    """

    workload: str
    input_name: str = "ref"
    kind: str = "baseline"
    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    ways: int = 1
    fvc_entries: int = 512
    top_values: int = 7

    def geometry(self) -> CacheGeometry:
        """The cache geometry this cell simulates."""
        return CacheGeometry(self.size_bytes, self.line_bytes, ways=self.ways)


@dataclass
class CellResult:
    """Picklable outcome of one cell.

    ``stats`` is the :meth:`repro.cache.stats.CacheStats.as_dict`
    snapshot; ``extras`` carries simulator-specific counters (FVC hit
    breakdown, 3C class counts).
    """

    cell: SimCell
    stats: Dict[str, int]
    extras: Dict[str, int] = field(default_factory=dict)

    def cache_stats(self) -> CacheStats:
        """Rebuild a :class:`CacheStats` from the snapshot."""
        stats = CacheStats()
        for name in CacheStats.__slots__:
            setattr(stats, name, self.stats[name])
        return stats


def _sanitize_check(cell: SimCell, check, *args) -> None:
    """Run one sanitizer check, prefixing violations with cell context."""
    from repro.analysis.sanitize import SanitizeViolation

    try:
        check(*args)
    except SanitizeViolation as exc:
        raise SanitizeViolation(
            f"{cell.kind} cell {cell.workload}/{cell.input_name}: {exc}"
        ) from exc


def cell_span_key(cell: SimCell) -> str:
    """The content-derived span key for a cell: every field that selects
    the simulation, so the same cell has the same span id in every run
    and every process (see :mod:`repro.obs.tracing`)."""
    return (
        f"{cell.kind}/{cell.workload}/{cell.input_name}/"
        f"{cell.size_bytes}/{cell.line_bytes}/{cell.ways}/"
        f"{cell.fvc_entries}/{cell.top_values}"
    )


def _record_cell_metrics(references: int, elapsed: float) -> None:
    """Feed the opt-in hot-loop accounting (no-op unless REPRO_OBS=1)."""
    from repro import obs

    if not obs.enabled():
        return
    registry = obs.registry()
    registry.counter("engine_cells_total").inc()
    registry.counter("engine_cell_references_total").inc(references)
    registry.histogram("engine_cell_seconds").observe(elapsed)


def run_cell(cell: SimCell, store=None) -> CellResult:
    """Execute one cell against the given trace store (defaults to the
    process-wide :data:`repro.workloads.store.shared_store`)."""
    # Imported lazily: cells are constructed in contexts (CLI parsing,
    # planning) that should not pay for the experiment stack.
    from repro.faults.sites import fault_point
    from repro.obs import tracing
    from repro.workloads.store import shared_store

    fault_point("engine.cell")
    if store is None:
        store = shared_store
    with tracing.span(
        "engine.cell",
        key=cell_span_key(cell),
        attrs={
            "workload": cell.workload,
            "input": cell.input_name,
            "kind": cell.kind,
        },
    ) as span:
        started = time.perf_counter()
        trace = store.get(cell.workload, cell.input_name)
        result = _simulate(cell, trace, span)
        _record_cell_metrics(len(trace), time.perf_counter() - started)
    return result


def _simulate(cell: SimCell, trace, span=None) -> CellResult:
    """Dispatch one cell to its simulator (the observable unit of
    :func:`run_cell`; callers go through ``run_cell``, never here).
    ``span`` is the cell's ``engine.cell`` span (``None`` when tracing
    is off); dispatch labels it with the replay path taken."""
    from repro.analysis import sanitize
    from repro.kernels import dispatch

    geometry = cell.geometry()
    sanitizing = sanitize.enabled()

    if cell.kind == "baseline":
        stats = dispatch.try_baseline_stats(trace, geometry, span)
        if stats is not None:
            return CellResult(cell=cell, stats=stats.as_dict())
        if geometry.ways == 1:
            simulator = DirectMappedCache(geometry)
        else:
            simulator = SetAssociativeCache(geometry)
        stats = simulator.simulate_batch(trace.records)
        if sanitizing:
            _sanitize_check(
                cell, sanitize.check_baseline, simulator, len(trace)
            )
        return CellResult(cell=cell, stats=stats.as_dict())

    if cell.kind == "fvc":
        from repro.experiments.common import encoder_for
        from repro.fvc.system import FvcSystem

        replayed = dispatch.try_fvc_replay(
            trace,
            geometry,
            cell.fvc_entries,
            encoder_for(trace, cell.top_values),
            span,
        )
        if replayed is not None:
            stats, extras = replayed
            return CellResult(cell=cell, stats=stats.as_dict(), extras=extras)
        system = FvcSystem(
            geometry,
            cell.fvc_entries,
            encoder_for(trace, cell.top_values),
            config=sanitize.sanitized_fvc_config() if sanitizing else None,
        )
        audit = sanitize.attach_fvc_system(system) if sanitizing else None
        stats = system.simulate_batch(trace.records)
        if sanitizing:
            _sanitize_check(
                cell, sanitize.check_fvc_system, system, len(trace), audit
            )
        return CellResult(
            cell=cell,
            stats=stats.as_dict(),
            extras={
                "main_hits": system.main_hits,
                "fvc_hits": system.fvc_hits,
                "fvc_read_hits": system.fvc_read_hits,
                "fvc_write_hits": system.fvc_write_hits,
            },
        )

    if cell.kind == "classify":
        from repro.cache.classify import classify_misses

        result = dispatch.try_classify(trace, geometry, span)
        if result is None:
            result = classify_misses(trace.records, geometry)
        if sanitizing:
            _sanitize_check(
                cell,
                sanitize.check_access_count,
                result.accesses,
                len(trace),
            )
        return CellResult(
            cell=cell,
            stats=CacheStats().as_dict(),
            extras={
                "accesses": result.accesses,
                "compulsory": result.compulsory,
                "capacity": result.capacity,
                "conflict": result.conflict,
            },
        )

    raise ConfigurationError(f"unknown cell kind {cell.kind!r}")
