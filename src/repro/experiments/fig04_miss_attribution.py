"""Fig. 4 — cache misses attributable to frequent values.

Replays each FVL analog through a 16 KB direct-mapped cache with
16-byte lines and counts the misses whose involved value is one of the
top-10 occurring / top-10 accessed values.  Paper shape: slightly under
50% for occurring, slightly over 50% for accessed — the motivation for
a value-centric cache.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    FVL_NAMES,
    access_profile,
    input_for,
    occurrence_profile,
)
from repro.workloads.store import TraceStore


class Fig04MissAttribution(Experiment):
    """Share of DMC misses involving the top-10 values."""

    experiment_id = "fig4"
    title = "Misses attributable to the ten most frequent values"
    paper_reference = "Figure 4 (16KB DMC, 16-byte lines)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        geometry = CacheGeometry(16 * 1024, 16)
        headers = [
            "benchmark",
            "miss_rate_%",
            "miss_top10_accessed_%",
            "miss_top10_occurring_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            accessed = set(access_profile(trace).top_values(10))
            occurring = set(
                occurrence_profile(store, name, input_name, fast).top_values(10)
            )
            access = DirectMappedCache(geometry).access
            misses = miss_accessed = miss_occurring = 0
            for op, address, value in zip(trace.ops, trace.addrs, trace.values):
                if access(op, address):
                    continue
                misses += 1
                if value in accessed:
                    miss_accessed += 1
                if value in occurring:
                    miss_occurring += 1
            rows.append(
                {
                    "benchmark": name,
                    "miss_rate_%": round(100 * misses / len(trace), 3),
                    "miss_top10_accessed_%": round(
                        100 * miss_accessed / misses, 1
                    ) if misses else 0.0,
                    "miss_top10_occurring_%": round(
                        100 * miss_occurring / misses, 1
                    ) if misses else 0.0,
                }
            )
        return self._result(headers, rows)
