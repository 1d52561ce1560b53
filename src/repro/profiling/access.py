"""Frequently *accessed* values (paper §2, Fig. 1/2 and Table 1).

A value's access frequency is the number of load/store records carrying
it, accumulated over the entire execution — exactly the paper's
measurement, and the ranking that configures the FVC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.profiling.topk import ExactTopK
from repro.trace.trace import Trace


@dataclass(frozen=True)
class AccessProfile:
    """Ranked accessed values with coverage helpers.

    ``ranked`` holds ``(value, access count)`` pairs, most frequent
    first, truncated to the requested depth.
    """

    total_accesses: int
    distinct_values: int
    ranked: Tuple[Tuple[int, int], ...]

    def top_values(self, k: int) -> List[int]:
        """The ``k`` most frequently accessed values."""
        return [value for value, _ in self.ranked[:k]]

    def coverage(self, k: int) -> float:
        """Fraction of all accesses involving the top ``k`` values
        (the right-hand bars of Fig. 1)."""
        if not self.total_accesses:
            return 0.0
        covered = sum(count for _, count in self.ranked[:k])
        return covered / self.total_accesses

    def coverage_profile(self, ks: Sequence[int] = (1, 3, 7, 10)) -> List[float]:
        """Coverage at each requested depth."""
        return [self.coverage(k) for k in ks]


def profile_accessed_values(
    trace: Trace, depth: int = 32
) -> AccessProfile:
    """Rank the values involved in a trace's accesses.

    ``depth`` bounds how many ranked values are retained; 32 comfortably
    covers every study in the paper (which never looks past the top 10).
    """
    counter = ExactTopK()
    counter.add_many(trace.values)
    return AccessProfile(
        total_accesses=counter.total,
        distinct_values=counter.distinct,
        ranked=tuple(counter.top(depth)),
    )
