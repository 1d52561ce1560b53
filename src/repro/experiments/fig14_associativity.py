"""Fig. 14 — the FVC under set-associative base caches.

16 KB cache, 8-word lines, 512-entry top-7 FVC, base associativity 1,
2 and 4.  Paper shape: m88ksim, perl and li lose almost all FVC benefit
once the base cache is 2-way (their removable misses were conflicts the
associativity absorbs); go, gcc and vortex keep significant reductions
(their removable misses are capacity misses).

The cell plan is derived from the ``fig14`` spec in
:mod:`repro.sweeps.catalog`: per workload, the baselines across
associativities, then the FVC cells across associativities, then one
3C classification — sweep expansion order (arms group, axes iterate
within an arm), fanned across ``--jobs`` and merged in plan order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.cells import CellResult, SimCell
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    FVL_NAMES,
    reduction_percent,
)


def _ways_list(fast: bool):
    from repro.sweeps.catalog import FIG14_FAST_WAYS, FIG14_WAYS

    return FIG14_FAST_WAYS if fast else FIG14_WAYS


class Fig14Associativity(Experiment):
    """FVC benefit vs base-cache associativity."""

    experiment_id = "fig14"
    title = "FVC with 1/2/4-way base caches (16KB, 8 words/line, top 7)"
    paper_reference = "Figure 14"

    def plan_cells(self, fast: bool = False) -> List[SimCell]:
        return self._plan_from_sweep(fast)

    def merge_cells(
        self,
        cells: Sequence[SimCell],
        results: Sequence[CellResult],
        fast: bool = False,
    ) -> ExperimentResult:
        ways_list = _ways_list(fast)
        headers = ["benchmark"]
        for ways in ways_list:
            headers += [f"{ways}w_base_%", f"{ways}w_red_%"]
        headers += ["dm_conflict_share_%"]
        rows = []
        cursor = 0
        for name in FVL_NAMES:
            row = {"benchmark": name}
            # Plan order per workload: baselines across `ways`, then the
            # FVC cells across `ways`, then the classification.
            bases = results[cursor : cursor + len(ways_list)]
            cursor += len(ways_list)
            fvcs = results[cursor : cursor + len(ways_list)]
            cursor += len(ways_list)
            for ways, base_result, fvc_result in zip(ways_list, bases, fvcs):
                base = base_result.cache_stats()
                stats = fvc_result.cache_stats()
                row[f"{ways}w_base_%"] = round(100 * base.miss_rate, 3)
                row[f"{ways}w_red_%"] = round(reduction_percent(base, stats), 1)
            classes = results[cursor].extras
            cursor += 1
            misses = (
                classes["compulsory"] + classes["capacity"] + classes["conflict"]
            )
            row["dm_conflict_share_%"] = round(
                100 * (classes["conflict"] / misses if misses else 0.0), 1
            )
            rows.append(row)
        result = self._result(headers, rows)
        result.notes.append(
            "dm_conflict_share = share of direct-mapped misses that are "
            "conflict misses (3C classification) — high values predict "
            "the benefit collapsing under associativity"
        )
        return result
