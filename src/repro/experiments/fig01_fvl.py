"""Fig. 1 — frequently encountered values in SPECint95.

For each integer analog, the fraction of live memory locations occupied
by the top 1/3/7/10 *occurring* values and the fraction of all accesses
involving the top 1/3/7/10 *accessed* values.  Paper shape: the first
six benchmarks exceed 50% location occupancy and ~50% access coverage
at depth 10; compress and ijpeg show very little of either.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    INT_NAMES,
    access_profile,
    input_for,
    occurrence_profile,
)
from repro.workloads.store import TraceStore

_DEPTHS = (1, 3, 7, 10)


class Fig01FrequentValues(Experiment):
    """Occurrence and access coverage for the SPECint95 analogs."""

    experiment_id = "fig1"
    title = "Frequently encountered values in SPECint95 analogs"
    paper_reference = "Figure 1"

    def __init__(self, names: Sequence[str] = INT_NAMES) -> None:
        self.names = tuple(names)

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        headers = ["benchmark"]
        headers += [f"occ_top{k}_%" for k in _DEPTHS]
        headers += [f"acc_top{k}_%" for k in _DEPTHS]
        rows = []
        for name in self.names:
            occurrence = occurrence_profile(store, name, input_name, fast)
            profile = access_profile(store.get(name, input_name))
            row = {"benchmark": name}
            for k in _DEPTHS:
                row[f"occ_top{k}_%"] = round(100 * occurrence.coverage(k), 1)
                row[f"acc_top{k}_%"] = round(100 * profile.coverage(k), 1)
            rows.append(row)
        result = self._result(headers, rows)
        result.notes.append(
            "occurrence = mean share of live locations holding the top-k "
            "values across periodic snapshots; access = share of all "
            "loads/stores involving the top-k accessed values"
        )
        return result
