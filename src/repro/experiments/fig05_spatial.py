"""Fig. 5 — spatial distribution of frequent values (gcc analog).

Snapshot of referenced memory at mid-execution, broken into blocks of
800 consecutive referenced locations viewed as 100 lines of 8 words;
for each block, the average count of top-7 occurring values per line.
Paper shape: a roughly flat curve around four values per line —
frequent values are spread uniformly across memory.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import input_for, occurrence_profile
from repro.profiling.spatial import profile_spatial_distribution
from repro.workloads.registry import get_workload
from repro.workloads.store import TraceStore


class _MidpointSnapshot:
    """Sampler that keeps the first snapshot at/after the midpoint."""

    def __init__(self) -> None:
        self.items: Optional[List[Tuple[int, int]]] = None

    def __call__(self, memory) -> None:
        if self.items is None:
            self.items = list(memory.live_items())


class Fig05Spatial(Experiment):
    """Frequent-value density across memory blocks."""

    experiment_id = "fig5"
    title = "Frequent value density across memory blocks (gcc analog)"
    paper_reference = "Figure 5 (800-word blocks, 8-word lines, top 7)"

    def __init__(self, workload_name: str = "gcc") -> None:
        self.workload_name = workload_name

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        workload = get_workload(self.workload_name)
        trace = store.get(self.workload_name, input_name)

        frequent = occurrence_profile(
            store, self.workload_name, input_name, fast
        ).top_values(7)

        snapshot = _MidpointSnapshot()
        workload.execute(
            input_name,
            sample_interval=max(1, len(trace) // 2),
            sampler=snapshot,
        )
        profile = profile_spatial_distribution(
            snapshot.items or [], frequent, block_words=800, line_words=8
        )
        headers = ["block", "freq_per_line"]
        rows = [
            {"block": index, "freq_per_line": round(density, 2)}
            for index, density in enumerate(profile.per_block)
        ]
        result = self._result(headers, rows)
        result.notes.append(
            f"mean={profile.mean_density:.2f} per 8-word line, "
            f"stdev={profile.stdev_density:.2f}, "
            f"coefficient of variation={profile.uniformity:.2f} "
            "(flat curve = uniform spread)"
        )
        return result
