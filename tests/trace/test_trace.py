"""Tests for the Trace container."""

from array import array

import pytest

from repro.common.errors import TraceFormatError
from repro.trace.record import Access
from repro.trace.trace import U32, Trace


def _sample() -> Trace:
    return Trace(
        [(0, 0x10, 1), (1, 0x20, 2), (0, 0x10, 1)],
        workload="demo",
        input_name="test",
    )


def _columns_only(records) -> Trace:
    """The same accesses as a trace built from columns (no tuples)."""
    return Trace.from_columns(
        array("B", [r[0] for r in records]),
        array(U32, [r[1] for r in records]),
        array(U32, [r[2] for r in records]),
        workload="demo",
        input_name="test",
    )


class TestContainer:
    def test_len_iter_getitem(self):
        trace = _sample()
        assert len(trace) == 3
        assert list(trace)[0] == (0, 0x10, 1)
        assert trace[1] == (1, 0x20, 2)
        assert _columns_only(trace.records)[1] == (1, 0x20, 2)

    def test_slice_returns_trace_with_metadata(self):
        trace = _sample()[0:2]
        assert isinstance(trace, Trace)
        assert len(trace) == 2
        assert trace.workload == "demo"
        # The slice is taken on the columns, not on the record tuples.
        assert trace._records is None
        assert trace.ops == array("B", [0, 1])
        assert trace.addrs == array(U32, [0x10, 0x20])
        assert trace.values == array(U32, [1, 2])
        assert trace.records == [(0, 0x10, 1), (1, 0x20, 2)]

    def test_equality_on_records(self):
        assert _sample() == _sample()
        assert _sample() != Trace([(0, 0, 0)])
        # Equality compares the columns: a trace that never built its
        # tuples equals one built from them.
        columns_only = _columns_only(_sample().records)
        assert columns_only == _sample()
        assert columns_only._records is None
        assert _sample() != _columns_only([(0, 0x10, 1), (1, 0x20, 2), (0, 0x10, 9)])

    def test_repr_mentions_source(self):
        assert "demo" in repr(_sample())


class TestBuilders:
    def test_instruction_count_defaults_to_length(self):
        assert _sample().instruction_count == 3
        assert Trace([(0, 0, 0)], instruction_count=50).instruction_count == 50

    def test_record_list_is_kept_as_the_record_cache(self):
        records = [(0, 4, 9), (1, 8, 10)]
        trace = Trace(records)
        assert trace.records == records
        assert trace.records is trace.records

    def test_records_are_built_lazily_from_columns(self):
        trace = _columns_only([(0, 4, 9), (1, 8, 0xFFFFFFFF)])
        assert trace._records is None
        assert len(trace) == 2
        assert trace.records == [(0, 4, 9), (1, 8, 0xFFFFFFFF)]
        assert trace.records is trace.records

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(TraceFormatError, match="length"):
            Trace.from_columns(array("B", [0]), array(U32, [0, 4]), array(U32, [0, 0]))


class TestAggregates:
    def test_load_store_counts(self):
        trace = _sample()
        assert trace.load_count == 2
        assert trace.store_count == 1

    def test_footprint_and_distinct_values(self):
        trace = _sample()
        assert trace.footprint_words() == 2
        assert trace.distinct_values() == 2

    def test_column_aggregates_match_the_tuples(self):
        records = [
            (int(index % 3 == 0), (index * 12) % 400, (index * 7) % 11)
            for index in range(500)
        ]
        trace = _columns_only(records)
        assert trace.load_count == sum(1 for op, _, _ in records if op == 0)
        assert trace.store_count == sum(1 for op, _, _ in records if op == 1)
        assert trace.footprint_words() == len({a for _, a, _ in records})
        assert trace.distinct_values() == len({v for _, _, v in records})
        assert trace._records is None

    def test_accesses_named_view(self):
        first = next(_sample().accesses())
        assert isinstance(first, Access)
        assert first.is_load and not first.is_store
        assert first == (0, 0x10, 1)


class TestAggregateMemoisation:
    def test_aggregates_computed_once(self):
        trace = _sample()
        assert trace.load_count == 2
        assert trace.footprint_words() == 2

        def recompute(_trace):
            raise AssertionError("aggregate recomputed")

        # Both aggregates now come from the trace's memo.
        assert trace.memo("loads", recompute) == 2
        assert trace.memo("footprint", recompute) == 2

    def test_memo_runs_compute_once(self):
        trace = _sample()
        calls = []

        def compute(t):
            calls.append(t)
            return len(t)

        assert trace.memo("len", compute) == 3
        assert trace.memo("len", compute) == 3
        assert calls == [trace]
