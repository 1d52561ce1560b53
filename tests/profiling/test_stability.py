"""Tests for the top-k stabilisation analysis (Table 3)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.stability import StabilityResult, profile_stability
from repro.trace.trace import Trace


def _reference_stability(trace, ks=(1, 3, 7), checkpoints=200, membership_window=10):
    """The definition: re-rank every value seen so far at each
    checkpoint by ``(-count, value)``, then scan back for the last
    checkpoint whose top-``k`` differs from the final one."""
    records = trace.records
    ks = sorted(set(ks))
    deepest = max(max(ks), membership_window)
    step = max(1, len(records) // checkpoints)
    counts = Counter()
    snapshots = []
    positions = []
    for start in range(0, len(records), step):
        for record in records[start : start + step]:
            counts[record[2]] += 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        snapshots.append(tuple(value for value, _ in ranked[:deepest]))
        positions.append(min(start + step, len(records)))
    final = snapshots[-1]
    total = len(records)
    order_stable = {}
    membership_stable = {}
    for k in ks:
        order_from = 0
        membership_from = 0
        for index in range(len(snapshots) - 1, -1, -1):
            snapshot = snapshots[index]
            if order_from == 0 and snapshot[:k] != final[:k]:
                order_from = index + 1
            if membership_from == 0 and not set(final[:k]).issubset(
                set(snapshot[:membership_window])
            ):
                membership_from = index + 1
        order_stable[k] = positions[order_from - 1] / total if order_from else 0.0
        membership_stable[k] = (
            positions[membership_from - 1] / total if membership_from else 0.0
        )
    return StabilityResult(
        checkpoints=len(snapshots),
        order_stable_at=order_stable,
        membership_stable_at=membership_stable,
    )


def _trace_stable_early():
    """Value 9 dominates from the very start."""
    records = [(0, 0, 9)] * 50 + [(0, 4, 1), (0, 0, 9)] * 25
    return Trace(records)


def _trace_late_flip():
    """Value 2 overtakes value 1 only in the last quarter."""
    records = [(0, 0, 1)] * 60 + [(0, 4, 2)] * 100
    return Trace(records)


class TestStability:
    def test_early_dominance_stabilises_at_zero(self):
        result = profile_stability(_trace_stable_early(), ks=(1,), checkpoints=20)
        assert result.order_stable_at[1] == 0.0
        assert result.membership_stable_at[1] == 0.0

    def test_late_flip_detected(self):
        result = profile_stability(_trace_late_flip(), ks=(1,), checkpoints=20)
        # Value 2 passes value 1 at access 121 of 160 (~0.75).
        assert 0.5 < result.order_stable_at[1] <= 0.85

    def test_membership_never_later_than_order(self):
        result = profile_stability(_trace_late_flip(), ks=(1, 3), checkpoints=20)
        for k in (1, 3):
            assert result.membership_stable_at[k] <= result.order_stable_at[k]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            profile_stability(Trace())

    def test_bad_checkpoints_rejected(self):
        with pytest.raises(ValueError):
            profile_stability(_trace_stable_early(), checkpoints=0)

    def test_real_workload_mostly_early(self, gcc_trace):
        result = profile_stability(gcc_trace, ks=(1, 3, 7), checkpoints=50)
        # Paper Table 3: the top value is found essentially immediately.
        assert result.membership_stable_at[1] < 0.5


class TestIncrementalRankingMatchesFullSort:
    """The profiler keeps only a running top prefix; the reference
    re-sorts every counted value at each checkpoint."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=400),
        checkpoints=st.integers(min_value=1, max_value=450),
        ks=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=4),
        membership_window=st.integers(min_value=1, max_value=15),
    )
    def test_small_alphabets_with_ties(self, values, checkpoints, ks, membership_window):
        trace = Trace([(0, 4 * index, value) for index, value in enumerate(values)])
        assert profile_stability(
            trace, ks=ks, checkpoints=checkpoints, membership_window=membership_window
        ) == _reference_stability(
            trace, ks=ks, checkpoints=checkpoints, membership_window=membership_window
        )

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0, 1, 2, 0xFFFFFFFF, 0x80000000, 7]), min_size=1, max_size=2000
        ),
        checkpoints=st.integers(min_value=1, max_value=300),
    )
    def test_long_traces_default_depths(self, values, checkpoints):
        trace = Trace([(index & 1, 0, value) for index, value in enumerate(values)])
        assert profile_stability(
            trace, checkpoints=checkpoints
        ) == _reference_stability(trace, checkpoints=checkpoints)

    def test_real_workload_matches_reference(self, gcc_trace):
        assert profile_stability(gcc_trace, ks=(1, 3, 7), checkpoints=200) == (
            _reference_stability(gcc_trace, ks=(1, 3, 7), checkpoints=200)
        )
