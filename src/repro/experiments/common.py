"""Shared experiment plumbing: encoders, simulations, configuration
lists.

Centralising these keeps every experiment honest: all of them profile
values, build encoders, and replay caches exactly the same way.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem, FvcSystemConfig
from repro.kernels import dispatch
from repro.profiling.access import AccessProfile, profile_accessed_values
from repro.profiling.occurrence import OccurrenceProfile, profile_occurring_values
from repro.trace.trace import Trace
from repro.workloads.registry import get_workload
from repro.workloads.store import TraceStore

#: The six FVL benchmarks, paper presentation order.
FVL_NAMES: Tuple[str, ...] = ("go", "m88ksim", "gcc", "li", "perl", "vortex")
#: All eight SPECint95 analogs.
INT_NAMES: Tuple[str, ...] = FVL_NAMES + ("compress", "ijpeg")
#: The SPECfp95 analogs.
FP_NAMES: Tuple[str, ...] = ("swim", "tomcatv", "mgrid", "applu", "su2cor", "hydro2d")

#: Code widths and the value counts they exploit (paper: top 1 / 3 / 7).
CODE_BITS_BY_COUNT: Dict[int, int] = {1: 1, 3: 2, 7: 3}

#: DMC sizes (KB) and line sizes (bytes) swept in the evaluation.
DMC_SIZES_KB: Tuple[int, ...] = (4, 8, 16, 32, 64)
LINE_SIZES: Tuple[int, ...] = (16, 32, 64)

def access_profile(trace: Trace) -> AccessProfile:
    """Memoised access-value profile for a trace object.

    The memo lives on the trace itself (:meth:`repro.trace.trace.Trace
    .memo`), so it shares the trace's lifetime and invalidation — an
    external ``id()``-keyed table could serve another trace's profile
    once ids are recycled.
    """
    return trace.memo("access_profile", _profile)


def _profile(trace: Trace) -> AccessProfile:
    """Build the profile via whichever backend is active.

    Both paths rank by ``(-count, value)`` over identical counts, so the
    resulting profiles — and every encoder derived from them — are equal
    object-for-object regardless of backend.
    """
    if dispatch.kernels_active():
        from repro.kernels.columnar import KernelUnsupported, ranked_value_counts

        try:
            total, distinct, ranked = ranked_value_counts(trace, depth=32)
        except KernelUnsupported:
            pass
        else:
            return AccessProfile(
                total_accesses=total, distinct_values=distinct, ranked=ranked
            )
    return profile_accessed_values(trace)


def occurrence_profile(
    store: TraceStore, name: str, input_name: str, fast: bool
) -> OccurrenceProfile:
    """Memoised occurrence profile of one workload run.

    Sampling live memory re-executes the workload, so the profile is
    memoised on the store's trace of the same run (key
    ``occurrence@<interval>``): experiments sharing a store share one
    execution, and the entry leaves memory with the trace when the
    store's LRU evicts it.
    """
    interval = 10_000 if fast else 40_000
    return store.get(name, input_name).memo(
        f"occurrence@{interval}",
        lambda _trace: profile_occurring_values(
            get_workload(name), input_name, sample_interval=interval
        ),
    )


def encoder_for(trace: Trace, top_values: int) -> FrequentValueEncoder:
    """The paper's configuration flow: profile the run, take the top
    ``top_values`` accessed values, encode them in the matching width."""
    code_bits = CODE_BITS_BY_COUNT[top_values]
    profile = access_profile(trace)
    return FrequentValueEncoder.for_top_values(
        profile.top_values(top_values), code_bits
    )


def baseline_stats(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Miss statistics of the conventional cache alone."""
    stats = dispatch.try_baseline_stats(trace, geometry)
    if stats is not None:
        return stats
    if geometry.ways == 1:
        return DirectMappedCache(geometry).simulate_batch(trace.records)
    return SetAssociativeCache(geometry).simulate_batch(trace.records)


def fvc_stats(
    trace: Trace,
    geometry: CacheGeometry,
    fvc_entries: int,
    top_values: int,
    config: Optional[FvcSystemConfig] = None,
) -> Tuple[CacheStats, FvcSystem]:
    """Miss statistics of the cache + FVC system (and the system, for
    occupancy/breakdown inspection)."""
    system = FvcSystem(
        geometry, fvc_entries, encoder_for(trace, top_values), config=config
    )
    stats = system.simulate_batch(trace.records)
    return stats, system


def fvc_miss_stats(
    trace: Trace,
    geometry: CacheGeometry,
    fvc_entries: int,
    top_values: int,
    config: Optional[FvcSystemConfig] = None,
) -> CacheStats:
    """Miss statistics of the cache + FVC system when the simulated
    system itself is not needed afterwards — the kernel-eligible path.

    The native core transliterates the default configuration only; any
    custom ``config`` (and any decline) replays the oracle.
    """
    if config is None:
        replayed = dispatch.try_fvc_replay(
            trace, geometry, fvc_entries, encoder_for(trace, top_values)
        )
        if replayed is not None:
            return replayed[0]
    return fvc_stats(trace, geometry, fvc_entries, top_values, config=config)[0]


def reduction_percent(base: CacheStats, improved: CacheStats) -> float:
    """Percentage reduction in miss rate (the paper's headline metric)."""
    if base.miss_rate == 0:
        return 0.0
    return 100.0 * (base.miss_rate - improved.miss_rate) / base.miss_rate


def input_for(fast: bool) -> str:
    """Reference inputs for real runs, test inputs for the fast mode."""
    return "test" if fast else "ref"
