"""Summary statistics over a trace."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

from repro.trace.trace import Trace


@dataclass(frozen=True)
class TraceStats:
    """Summary of a trace.

    ``top_values`` holds the most frequently *accessed* values with their
    access counts, mirroring the headline measurement of the paper's §2.
    """

    accesses: int
    loads: int
    stores: int
    footprint_words: int
    footprint_bytes: int
    distinct_values: int
    top_values: Tuple[Tuple[int, int], ...]

    @property
    def load_fraction(self) -> float:
        """Fraction of accesses that are loads."""
        return self.loads / self.accesses if self.accesses else 0.0

    def top_value_access_fraction(self, k: int) -> float:
        """Fraction of all accesses involving the top ``k`` values."""
        if not self.accesses:
            return 0.0
        covered = sum(count for _, count in self.top_values[:k])
        return covered / self.accesses

    def format(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [
            f"accesses        : {self.accesses}",
            f"  loads         : {self.loads} ({100 * self.load_fraction:.1f}%)",
            f"  stores        : {self.stores}",
            f"footprint       : {self.footprint_words} words"
            f" ({self.footprint_bytes / 1024:.1f} KB)",
            f"distinct values : {self.distinct_values}",
            "top accessed values:",
        ]
        for rank, (value, count) in enumerate(self.top_values, start=1):
            share = 100 * count / self.accesses if self.accesses else 0.0
            lines.append(f"  {rank:2d}. {value:>10x}  {count:>9} ({share:.1f}%)")
        return "\n".join(lines)


def compute_stats(trace: Trace, top_k: int = 10) -> TraceStats:
    """Compute :class:`TraceStats` from the columns of ``trace``."""
    value_counts = Counter(trace.values)
    top: List[Tuple[int, int]] = value_counts.most_common(top_k)
    footprint = trace.footprint_words()
    return TraceStats(
        accesses=len(trace),
        loads=trace.load_count,
        stores=trace.store_count,
        footprint_words=footprint,
        footprint_bytes=footprint * 4,
        distinct_values=len(value_counts),
        top_values=tuple(top),
    )
