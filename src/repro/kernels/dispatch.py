"""Backend dispatch: the one place oracle call sites try the fast path.

Baseline, FVC and 3C-classify cells replay on the compiled core
(:mod:`repro.kernels.native`) when every gate opens; each early return
below names the reason the oracle serves the cell instead:

====================== ==============================================
``sanitize``           ``REPRO_SANITIZE=1`` — its checks audit the
                       oracle's per-access behaviour, so it always
                       replays the oracle
``no_compiler``        no C compiler to build the core with
``build_failed``       the build, or loading its library, failed
``unsupported_config`` a configuration the core does not transliterate
                       (a non-power-of-two FVC, which the oracle
                       rejects too)
====================== ==============================================

``REPRO_BACKEND=python`` chooses the oracle outright; that is a choice,
not a decline, so it carries no reason.  The core transliterates the
oracle's record loops, so the backend switch changes time, never
numbers.  Dispatch outcomes feed the opt-in metrics registry
(``kernel_replays_total`` / ``kernel_declines_total`` /
``kernel_replay_seconds``), and a caller that passes its
``engine.cell`` span gets the attributes ``path`` (``native`` or
``oracle``) and ``decline_reason`` on it.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.cache.classify import MissClassification
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.fvc.encoding import FrequentValueEncoder
from repro.kernels.backend import backend_is_numpy
from repro.trace.trace import Trace


def kernels_active() -> bool:
    """Whether this process should attempt the fast path."""
    from repro.analysis import sanitize

    return backend_is_numpy() and not sanitize.enabled()


def _record(outcome: str, elapsed: Optional[float] = None) -> None:
    from repro import obs

    if not obs.enabled():
        return
    registry = obs.registry()
    if outcome == "replay":
        registry.counter("kernel_replays_total").inc()
        if elapsed is not None:
            registry.histogram("kernel_replay_seconds").observe(elapsed)
    else:
        registry.counter("kernel_declines_total").inc()


def _gate(supported: bool):
    """``(core, None)`` when the native core may replay the cell, else
    ``(None, decline reason)``; the reason is ``None`` when the backend
    chose the oracle outright."""
    from repro.analysis import sanitize
    from repro.kernels import native

    if not backend_is_numpy():
        return None, None
    if sanitize.enabled():
        return None, "sanitize"
    core, reason = native.load()
    if core is None:
        return None, reason
    if not supported:
        return None, "unsupported_config"
    return core, None


def _core(span, supported: bool = True):
    """The native core for a cell, or ``None``; either way labels
    ``span`` (an ``engine.cell`` span, or ``None``) with the path."""
    core, reason = _gate(supported)
    if core is None and reason not in (None, "sanitize"):
        _record("decline")
    if span is not None:
        span.attrs["path"] = "oracle" if core is None else "native"
        if reason is not None:
            span.attrs["decline_reason"] = reason
    return core


def try_baseline_stats(
    trace: Trace, geometry: CacheGeometry, span=None
) -> Optional[CacheStats]:
    """Native statistics for a conventional cache, or ``None``."""
    core = _core(span)
    if core is None:
        return None
    started = time.perf_counter()
    stats = core.baseline(trace, geometry)
    _record("replay", time.perf_counter() - started)
    return stats


def try_fvc_replay(
    trace: Trace,
    geometry: CacheGeometry,
    fvc_entries: int,
    encoder: FrequentValueEncoder,
    span=None,
) -> Optional[Tuple[CacheStats, dict]]:
    """Native statistics + extras for a DMC+FVC cell, or ``None``."""
    supported = fvc_entries >= 1 and not fvc_entries & (fvc_entries - 1)
    core = _core(span, supported)
    if core is None:
        return None
    started = time.perf_counter()
    result = core.fvc(trace, geometry, fvc_entries, encoder)
    _record("replay", time.perf_counter() - started)
    return result


def try_classify(
    trace: Trace, geometry: CacheGeometry, span=None
) -> Optional[MissClassification]:
    """Native 3C classification, or ``None``."""
    core = _core(span)
    if core is None:
        return None
    started = time.perf_counter()
    result = core.classify(trace, geometry)
    _record("replay", time.perf_counter() - started)
    return result


def try_hierarchy_replay(system, trace: Trace) -> bool:
    """Fast-forward a fresh two-level system; ``False`` = use oracle."""
    if not kernels_active():
        return False
    from repro.kernels.hierarchy import hierarchy_replay

    started = time.perf_counter()
    if not hierarchy_replay(system, trace):
        _record("decline")
        return False
    _record("replay", time.perf_counter() - started)
    return True
