"""Fig. 13 — a small FVC vs doubling the DMC.

For each line size the paper pairs a k-KB DMC augmented with a 512-entry
FVC against a 2k-KB DMC without one, for the two conflict-dominated
benchmarks (m88ksim, perl) and 1/3/7 exploited values.  Paper shape:
for these benchmarks the DMC+FVC configuration beats the doubled (and
even quadrupled) DMC, because the misses the FVC removes are conflict
misses between lines that alias at every tested size.

The cell plan is derived from the ``fig13`` spec in
:mod:`repro.sweeps.catalog` (doubled-DMC baseline + one DMC+FVC cell
per exploited-value count, per pair, per benchmark) for ``--jobs``
fan-out; the sequential run executes the identical cells in order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.cells import CellResult, SimCell
from repro.experiments.base import Experiment, ExperimentResult
from repro.sweeps.catalog import FIG13_BENCHMARKS, FIG13_PAIRS


def _fvc_data_kb(line_bytes: int, code_bits: int, entries: int = 512) -> float:
    """Data-array KB of the FVC (the paper's ".375Kb FVC" figures)."""
    words = line_bytes // 4
    return entries * words * code_bits / 8 / 1024


def _plan_shape(fast: bool):
    pairs = FIG13_PAIRS[:2] if fast else FIG13_PAIRS
    tops = (7,) if fast else (7, 3, 1)
    return pairs, tops


class Fig13DmcVsFvc(Experiment):
    """Small DMC + FVC against a doubled DMC."""

    experiment_id = "fig13"
    title = "DMC + FVC vs larger DMC (miss rates, m88ksim & perl analogs)"
    paper_reference = "Figure 13"

    def plan_cells(self, fast: bool = False) -> List[SimCell]:
        return self._plan_from_sweep(fast)

    def merge_cells(
        self,
        cells: Sequence[SimCell],
        results: Sequence[CellResult],
        fast: bool = False,
    ) -> ExperimentResult:
        pairs, tops = _plan_shape(fast)
        headers = [
            "benchmark",
            "line_B",
            "top_k",
            "fvc_data_KB",
            "small+FVC_miss_%",
            "small_KB",
            "double_miss_%",
            "double_KB",
            "fvc_wins",
        ]
        rows = []
        cursor = 0
        for name in FIG13_BENCHMARKS:
            for line_bytes, small_kb, double_kb in pairs:
                double_stats = results[cursor].cache_stats()
                cursor += 1
                for top in tops:
                    code_bits = {1: 1, 3: 2, 7: 3}[top]
                    stats = results[cursor].cache_stats()
                    cursor += 1
                    rows.append(
                        {
                            "benchmark": name,
                            "line_B": line_bytes,
                            "top_k": top,
                            "fvc_data_KB": round(
                                _fvc_data_kb(line_bytes, code_bits), 3
                            ),
                            "small+FVC_miss_%": round(100 * stats.miss_rate, 3),
                            "small_KB": small_kb,
                            "double_miss_%": round(
                                100 * double_stats.miss_rate, 3
                            ),
                            "double_KB": double_kb,
                            "fvc_wins": "yes"
                            if stats.miss_rate < double_stats.miss_rate
                            else "no",
                        }
                    )
        result = self._result(headers, rows)
        wins = sum(1 for row in rows if row["fvc_wins"] == "yes")
        result.notes.append(
            f"DMC+FVC beats the doubled DMC in {wins}/{len(rows)} pairings "
            "(paper: in all pairings for these two benchmarks)"
        )
        return result
