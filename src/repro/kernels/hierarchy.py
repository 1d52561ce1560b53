"""Fast-forward for the two-level hierarchy's direct-mapped L1.

The L2 only ever sees the L1's miss stream — one read per fill plus one
write per dirty victim — and for a direct-mapped L1 that stream is a
closed-form run reduction (:mod:`repro.kernels.dmc`).  So instead of
replaying every processor access through two Python simulators, the
kernel derives the L1's statistics from the stream in numpy and
replays only the (small) time-ordered miss stream through the system's own
:class:`~repro.cache.setassoc.SetAssociativeCache` L2 — the identical
object the oracle composition drives, so the L2 statistics are
byte-identical by construction.

The fast-forward applies to *fresh* systems only (no accesses at either
level): it merges the L1 statistics wholesale rather than diffing
against a warm state, and it does not maintain the L1's tag array —
callers that inspect residency afterwards must use the oracle path.
"""

from __future__ import annotations

from repro.cache.direct import DirectMappedCache
from repro.cache.stats import CacheStats
from repro.kernels.dmc import dmc_miss_stream
from repro.kernels.columnar import trace_columns
from repro.trace.trace import Trace


def hierarchy_replay(system, trace: Trace) -> bool:
    """Fast-forward a fresh ``TwoLevelSystem`` through ``trace``.

    Returns ``True`` when the system's statistics now equal a full
    oracle replay; ``False`` when the kernel declines (set-associative
    L1, warm state, no numpy, out-of-range trace) and the caller must
    simulate normally.
    """
    l1 = system._l1
    if not isinstance(l1, DirectMappedCache):
        return False
    if system.stats.accesses or system.l2_stats.accesses:
        return False
    geometry = system.l1_geometry
    stream = dmc_miss_stream(trace, geometry)
    if stream is None:
        return False
    miss_pos, victims = stream
    cols = trace_columns(trace)
    words = geometry.words_per_line
    stats = CacheStats()
    stats.read_misses = int((cols.ops[miss_pos] == 0).sum())
    stats.write_misses = len(miss_pos) - stats.read_misses
    stats.read_hits = cols.nloads - stats.read_misses
    stats.write_hits = (cols.n - cols.nloads) - stats.write_misses
    stats.fills = len(miss_pos)
    stats.fill_words = stats.fills * words
    stats.writebacks = int((victims >= 0).sum())
    stats.writeback_words = stats.writebacks * words
    addr_list = cols.addrs[miss_pos].tolist()
    victim_list = victims.tolist()
    l2_access = system._l2.access
    shift = geometry.line_shift
    for addr, victim in zip(addr_list, victim_list):  # repro: allow[PERF001] miss stream, |misses| not |records|
        l2_access(0, addr)
        if victim >= 0:
            l2_access(1, victim << shift)
    l1.stats.merge(stats)
    return True
