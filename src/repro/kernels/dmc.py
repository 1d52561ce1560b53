"""The direct-mapped miss stream as a closed-form run reduction.

A direct-mapped set holds exactly the line of the latest access, so in
the set-grouped (time-preserving) order every access hits unless it
starts a new same-line run; a run is dirty when it contains a store,
and a run start writes back exactly when the previous run in the same
segment was dirty.  The miss stream therefore reduces to run-level
array operations — no per-record Python loop at all.

The stream recovers, in time order, each miss's record position and
dirty victim line — what the two-level hierarchy needs to replay the
L1 filter's output through an L2.
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.kernels.columnar import (
    KernelUnsupported,
    require_numpy,
    set_order,
    trace_columns,
)
from repro.trace.trace import Trace


def dmc_miss_stream(trace: Trace, geometry: CacheGeometry):
    """Time-ordered ``(record_position, victim_line_or_-1)`` pairs for
    every miss of a direct-mapped cache, or ``None`` when the kernel
    declines (no numpy, non-direct-mapped).

    ``victim_line`` is set only for dirty evictions — the cases the
    oracle hierarchy forwards to the L2 as write-backs.
    """
    if geometry.ways != 1:
        return None
    try:
        np = require_numpy()
        cols = trace_columns(trace)
        so = set_order(trace, geometry.line_shift, geometry.num_sets)
    except KernelUnsupported:
        return None
    run_starts = so.run_start[:-1]
    miss_pos = so.sorder[run_starts]
    store_s = (cols.ops[so.sorder] == 1).astype(np.int64)
    spref = np.zeros(cols.n + 1, dtype=np.int64)
    np.cumsum(store_s, out=spref[1:])
    run_stores = spref[so.run_start[1:]] - spref[run_starts]
    victims = np.full(so.nruns, -1, dtype=np.int64)
    if so.nruns > 1:
        dirty_victim = (so.run_set[1:] == so.run_set[:-1]) & (run_stores[:-1] > 0)
        victims[1:][dirty_victim] = so.run_line[:-1][dirty_victim]
    torder = np.argsort(miss_pos)
    return miss_pos[torder], victims[torder]
