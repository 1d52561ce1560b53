"""Coverage over execution time (paper Fig. 3).

Combines two measurements at each point of execution:

* from the *trace*: cumulative accesses, cumulative accesses involving
  the top-1/3/7/10 accessed values, and distinct values accessed so far
  (the right-hand graph of Fig. 3);
* from *occurrence snapshots*: live locations, locations holding the
  top-1/3/7/10 occurring values, and distinct values in memory (the
  left-hand graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.profiling.access import profile_accessed_values
from repro.profiling.occurrence import OccurrenceProfile
from repro.trace.trace import Trace

_DEPTHS = (1, 3, 7, 10)


@dataclass(frozen=True)
class TimelinePoint:
    """One point on the Fig. 3 curves.

    ``covered_accesses[i]`` / ``covered_locations[i]`` give the counts
    for the top ``(1, 3, 7, 10)[i]`` values, so consecutive differences
    reproduce the bands between the paper's curves.
    """

    access_count: int
    cumulative_accesses: int
    covered_accesses: Tuple[int, int, int, int]
    distinct_values_accessed: int
    live_locations: int
    covered_locations: Tuple[int, int, int, int]
    distinct_values_in_memory: int


def profile_timeline(
    trace: Trace,
    occurrence: OccurrenceProfile,
    depths: Sequence[int] = _DEPTHS,
) -> List[TimelinePoint]:
    """Build the Fig. 3 curves, one point per occurrence snapshot.

    The value rankings are the full-run rankings (the paper plots the
    locations/accesses of the *final* top-10 values over time).
    """
    access_profile = profile_accessed_values(trace)
    accessed_sets = [set(access_profile.top_values(k)) for k in depths]
    occurring_sets = [set(occurrence.top_values(k)) for k in depths]

    checkpoints = sorted(s.access_count for s in occurrence.samples)
    by_count = {s.access_count: s for s in occurrence.samples}

    points: List[TimelinePoint] = []
    values = trace.values
    position = 0
    covered = [0] * len(depths)
    seen_values: set = set()
    for checkpoint in checkpoints:
        limit = min(checkpoint, len(values))
        while position < limit:
            value = values[position]
            seen_values.add(value)
            for index, wanted in enumerate(accessed_sets):
                if value in wanted:
                    covered[index] += 1
            position += 1
        sample = by_count[checkpoint]
        covered_locations = tuple(
            sum(sample.counts.get(v, 0) for v in wanted)
            for wanted in occurring_sets
        )
        points.append(
            TimelinePoint(
                access_count=checkpoint,
                cumulative_accesses=position,
                covered_accesses=tuple(covered),  # type: ignore[arg-type]
                distinct_values_accessed=len(seen_values),
                live_locations=sample.live_locations,
                covered_locations=covered_locations,  # type: ignore[arg-type]
                distinct_values_in_memory=len(sample.counts),
            )
        )
    return points
