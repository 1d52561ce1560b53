"""Fig. 12 — miss-rate reductions: top 1 vs top 3 vs top 7 values.

A 512-entry FVC over the twelve DMC configurations whose access time is
no less than the FVC's (the Fig. 9 admissibility rule), exploiting 1, 3
or 7 frequent values.  Paper shape: going from 1 to 3 values often
helps substantially; 3 to 7 helps less; reductions span ~1-68%.

The cell plan is derived from the ``fig12`` spec in
:mod:`repro.sweeps.catalog`: per workload, per admissible geometry, a
baseline cell then one DMC+FVC cell per exploited-value count — so
``--jobs N`` fans the grid across cores while the sequential run
executes the identical cells in order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.geometry import CacheGeometry
from repro.engine.cells import CellResult, SimCell
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    DMC_SIZES_KB,
    FVL_NAMES,
    LINE_SIZES,
    reduction_percent,
)
from repro.timing.cacti import DEFAULT_MODEL

_TOPS = (1, 3, 7)


def admissible_configs() -> List[CacheGeometry]:
    """The DMC configurations a 512-entry top-7 FVC fits under."""
    configs = []
    for size_kb in DMC_SIZES_KB:
        for line_bytes in LINE_SIZES:
            geometry = CacheGeometry(size_kb * 1024, line_bytes)
            if DEFAULT_MODEL.fvc_fits_dmc(512, 3, geometry):
                configs.append(geometry)
    return configs


def _configs(fast: bool) -> List[CacheGeometry]:
    configs = admissible_configs()
    return configs[:3] if fast else configs


class Fig12ValueCount(Experiment):
    """Exploiting 1 vs 3 vs 7 frequently accessed values."""

    experiment_id = "fig12"
    title = "Reduction in miss rate: top 1 vs 3 vs 7 values (512-entry FVC)"
    paper_reference = "Figure 12"

    def plan_cells(self, fast: bool = False) -> List[SimCell]:
        return self._plan_from_sweep(fast)

    def merge_cells(
        self,
        cells: Sequence[SimCell],
        results: Sequence[CellResult],
        fast: bool = False,
    ) -> ExperimentResult:
        configs = _configs(fast)
        headers = ["benchmark", "dmc", "base_miss_%", "red_top1_%",
                   "red_top3_%", "red_top7_%"]
        rows = []
        cursor = 0
        for name in FVL_NAMES:
            for geometry in configs:
                base = results[cursor].cache_stats()
                cursor += 1
                row = {
                    "benchmark": name,
                    "dmc": geometry.describe(),
                    "base_miss_%": round(100 * base.miss_rate, 3),
                }
                for top in _TOPS:
                    stats = results[cursor].cache_stats()
                    cursor += 1
                    row[f"red_top{top}_%"] = round(
                        reduction_percent(base, stats), 1
                    )
                rows.append(row)
        result = self._result(headers, rows)
        result.notes.append(
            f"{len(configs)} admissible DMC configurations (access time >= "
            "512-entry FVC)"
        )
        return result
