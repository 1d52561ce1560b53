"""Differential tests: the native replay core against the oracle.

Hypothesis draws traces and geometries at the edges of what the retired
numpy kernels accepted — FVCs from a quarter to eight times the
main-cache set count, 1/2/4/8-way main caches, 2 to 16 words per line,
value-inconsistent traces, empty and one-record traces, and conflict
pairs for the 3C classifier — and every counter the cells report must
equal the oracle's exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.classify import classify_misses
from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem
from repro.kernels import backend, native
from repro.trace.trace import Trace

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="the fast path needs numpy"
)

#: A few values, so frequent values recur and some words stay infrequent.
VALUES = (0, 1, 2, 3, 0xFFFFFFFF, 0x1234, 77)


@pytest.fixture(scope="module")
def core():
    loaded, reason = native.load()
    if loaded is None:
        pytest.skip(f"native replay core unavailable ({reason})")
    return loaded


@st.composite
def geometries(draw):
    words = draw(st.sampled_from((2, 4, 8, 16)))
    ways = draw(st.sampled_from((1, 2, 4, 8)))
    sets = draw(st.sampled_from((1, 2, 4, 8, 16)))
    return CacheGeometry(sets * ways * words * 4, words * 4, ways=ways)


@st.composite
def traces(draw, geometry, max_size=300):
    """Records over a handful of lines that collide in the cache, with
    values drawn independently of earlier stores (so loads routinely
    disagree with the last value stored to their word)."""
    span = geometry.size_bytes
    bases = draw(
        st.lists(st.integers(0, 6), min_size=1, max_size=6, unique=True)
    )
    records = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from(bases),
                st.integers(0, geometry.num_sets - 1),
                st.integers(0, geometry.words_per_line - 1),
                st.sampled_from(VALUES),
            ),
            min_size=0,
            max_size=max_size,
        )
    )
    return Trace(
        [
            (op, (base * span + (s * geometry.line_bytes)) + 4 * w, value)
            for op, base, s, w, value in records
        ],
        workload="syn",
    )


@st.composite
def fvc_cells(draw):
    geometry = draw(geometries())
    trace = draw(traces(geometry))
    scale = draw(st.sampled_from((0.25, 0.5, 1, 2, 4, 8)))
    entries = max(1, int(geometry.num_sets * scale))
    code_bits = draw(st.integers(1, 3))
    values = draw(
        st.lists(
            st.sampled_from(VALUES),
            unique=True,
            max_size=FrequentValueEncoder.capacity(code_bits),
        )
    )
    return trace, geometry, entries, FrequentValueEncoder(values, code_bits)


def _baseline_oracle(trace, geometry):
    cache = (
        DirectMappedCache(geometry)
        if geometry.ways == 1
        else SetAssociativeCache(geometry)
    )
    return cache.simulate_batch(trace.records).as_dict()


def _assert_fvc_exact(core, trace, geometry, entries, encoder):
    system = FvcSystem(geometry, entries, encoder)
    system.simulate_batch(trace.records)
    stats, extras = core.fvc(trace, geometry, entries, encoder)
    assert stats.as_dict() == system.stats.as_dict()
    assert extras == {
        "main_hits": system.main_hits,
        "fvc_hits": system.fvc_hits,
        "fvc_read_hits": system.fvc_read_hits,
        "fvc_write_hits": system.fvc_write_hits,
    }


class TestFvcDifferential:
    @settings(max_examples=200, deadline=None)
    @given(cell=fvc_cells())
    def test_stats_and_extras_exact(self, core, cell):
        _assert_fvc_exact(core, *cell)

    @pytest.mark.parametrize("records", [[], [(1, 64, 0)], [(0, 64, 9)]])
    @pytest.mark.parametrize("ways", [1, 4])
    def test_empty_and_single_record_traces(self, core, records, ways):
        geometry = CacheGeometry(1024, 32, ways=ways)
        encoder = FrequentValueEncoder((0, 1, 2), 2)
        trace = Trace(records, workload="syn")
        for entries in (8, 32, 256):
            _assert_fvc_exact(core, trace, geometry, entries, encoder)


class TestBaselineDifferential:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stats_exact(self, core, data):
        geometry = data.draw(geometries())
        trace = data.draw(traces(geometry))
        assert core.baseline(trace, geometry).as_dict() == _baseline_oracle(
            trace, geometry
        )

    @pytest.mark.parametrize("records", [[], [(1, 64, 0)]])
    def test_empty_and_single_record_traces(self, core, records):
        trace = Trace(records, workload="syn")
        for ways in (1, 2, 8):
            geometry = CacheGeometry(1024, 16, ways=ways)
            assert core.baseline(trace, geometry).as_dict() == _baseline_oracle(
                trace, geometry
            )


class TestClassifyDifferential:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_counts_exact(self, core, data):
        geometry = data.draw(geometries())
        trace = data.draw(traces(geometry))
        assert core.classify(trace, geometry) == classify_misses(
            trace.records, geometry
        )

    @settings(max_examples=60, deadline=None)
    @given(
        ways=st.sampled_from((1, 2, 4)),
        pairs=st.integers(1, 6),
        rounds=st.integers(1, 8),
    )
    def test_conflict_pairs(self, core, ways, pairs, rounds):
        # Lines exactly one cache size apart alternate in the same set:
        # conflict misses for a direct-mapped cache, hits for the
        # fully-associative reference while the pairs fit.
        geometry = CacheGeometry(2048, 32, ways=ways)
        records = []
        for _ in range(rounds):
            for pair in range(pairs):
                base = pair * geometry.line_bytes
                records.append((0, base, 0))
                records.append((1, base + geometry.size_bytes, 1))
        trace = Trace(records, workload="syn")
        result = core.classify(trace, geometry)
        assert result == classify_misses(trace.records, geometry)
        if ways == 1 and rounds > 1:
            assert result.conflict > 0

    @pytest.mark.parametrize("records", [[], [(0, 64, 0)]])
    def test_empty_and_single_record_traces(self, core, records):
        trace = Trace(records, workload="syn")
        geometry = CacheGeometry(1024, 16, ways=2)
        assert core.classify(trace, geometry) == classify_misses(
            trace.records, geometry
        )
