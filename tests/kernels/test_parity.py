"""Fast-path-vs-oracle parity: the exactness contract of repro.kernels.

The native replay core must reproduce its pure-Python oracle's
statistics to the last counter on every trace it accepts, and dispatch
must decline (``None`` / ``False``) only with a named reason, so the
caller falls back to the oracle.
"""

from __future__ import annotations

import pytest

from repro.cache.classify import classify_misses
from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import TwoLevelSystem
from repro.cache.setassoc import SetAssociativeCache
from repro.common.errors import TraceFormatError
from repro.experiments.common import encoder_for
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem
from repro.kernels import backend, dispatch, native
from repro.kernels.hierarchy import hierarchy_replay
from repro.profiling.access import profile_accessed_values
from repro.trace.trace import Trace

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="the fast path needs numpy"
)


@pytest.fixture(scope="module")
def core():
    loaded, reason = native.load()
    if loaded is None:
        pytest.skip(f"native replay core unavailable ({reason})")
    return loaded


@pytest.fixture
def numpy_backend(monkeypatch):
    monkeypatch.setenv(backend.ENV_VAR, "numpy")
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


def _fvc_oracle(trace, geometry, entries, encoder):
    system = FvcSystem(geometry, entries, encoder)
    system.simulate_batch(trace.records)
    extras = {
        "main_hits": system.main_hits,
        "fvc_hits": system.fvc_hits,
        "fvc_read_hits": system.fvc_read_hits,
        "fvc_write_hits": system.fvc_write_hits,
    }
    return system.stats.as_dict(), extras


def _assert_fvc_parity(core, trace, geometry, entries, encoder):
    stats, extras = core.fvc(trace, geometry, entries, encoder)
    oracle_stats, oracle_extras = _fvc_oracle(trace, geometry, entries, encoder)
    assert stats.as_dict() == oracle_stats
    assert extras == oracle_extras


class TestBaselineParity:
    @pytest.mark.parametrize(
        "size_kb, line_bytes", [(4, 16), (16, 32), (64, 64)]
    )
    def test_dmc(self, core, gcc_trace, size_kb, line_bytes):
        geometry = CacheGeometry(size_kb * 1024, line_bytes, ways=1)
        stats = core.baseline(gcc_trace, geometry)
        oracle = DirectMappedCache(geometry).simulate_batch(gcc_trace.records)
        assert stats.as_dict() == oracle.as_dict()

    @pytest.mark.parametrize("ways", [2, 4])
    def test_setassoc(self, core, gcc_trace, ways):
        geometry = CacheGeometry(16 * 1024, 32, ways=ways)
        stats = core.baseline(gcc_trace, geometry)
        oracle = SetAssociativeCache(geometry).simulate_batch(
            gcc_trace.records
        )
        assert stats.as_dict() == oracle.as_dict()


class TestFvcParity:
    def test_small_geometry(self, core, gcc_trace):
        geometry = CacheGeometry(4 * 1024, 16, ways=1)
        _assert_fvc_parity(
            core, gcc_trace, geometry, 128, encoder_for(gcc_trace, 3)
        )

    def test_pending_install_flushed_at_end_of_trace(self, core, store):
        # compress/test at this geometry ends with 76 displacements of
        # dirty FVC entries whose victims are never touched again; each
        # must still be flushed, exactly as the oracle does eagerly.
        trace = store.get("compress", "test")
        geometry = CacheGeometry(16 * 1024, 32, ways=1)
        _assert_fvc_parity(core, trace, geometry, 512, encoder_for(trace, 7))

    @pytest.mark.parametrize("ways", [2, 4])
    def test_set_associative_main_cache(self, core, gcc_trace, ways):
        geometry = CacheGeometry(16 * 1024, 32, ways=ways)
        _assert_fvc_parity(
            core, gcc_trace, geometry, 512, encoder_for(gcc_trace, 7)
        )

    def test_fvc_larger_than_the_main_cache(self, core, gcc_trace):
        # More FVC entries than main-cache sets: the paper's 4096-entry
        # end of the Fig. 10 sweep.
        geometry = CacheGeometry(4 * 1024, 32, ways=1)
        _assert_fvc_parity(
            core, gcc_trace, geometry, 4096, encoder_for(gcc_trace, 7)
        )

    def test_value_inconsistent_trace(self, core):
        # A load observing a value other than the word's last store:
        # the core keeps the stored codes and memory words the oracle
        # does, so it replays such traces exactly too.
        trace = Trace(
            [(1, 0, 5), (0, 0, 7), (1, 4096, 1), (0, 0, 5), (0, 4100, 2)],
            workload="syn",
        )
        geometry = CacheGeometry(4096, 16, ways=1)
        encoder = FrequentValueEncoder((0, 1, 5), 2)
        _assert_fvc_parity(core, trace, geometry, 64, encoder)


class TestClassifyParity:
    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_matches_oracle(self, core, m88ksim_trace, ways):
        geometry = CacheGeometry(8 * 1024, 32, ways=ways)
        assert core.classify(m88ksim_trace, geometry) == classify_misses(
            m88ksim_trace.records, geometry
        )


class TestHierarchyParity:
    def test_fresh_system_fast_forward(self, gcc_trace):
        l1 = CacheGeometry(8 * 1024, 32, ways=1)
        l2 = CacheGeometry(64 * 1024, 32, ways=4)
        fast = TwoLevelSystem(l1, l2)
        assert hierarchy_replay(fast, gcc_trace)
        oracle = TwoLevelSystem(l1, l2)
        oracle.simulate(gcc_trace.records)
        assert fast.stats.as_dict() == oracle.stats.as_dict()
        assert fast.l2_stats.as_dict() == oracle.l2_stats.as_dict()

    def test_declines_warm_system(self, gcc_trace):
        system = TwoLevelSystem(
            CacheGeometry(8 * 1024, 32, ways=1),
            CacheGeometry(64 * 1024, 32, ways=4),
        )
        system.simulate(gcc_trace.records[:64])
        assert hierarchy_replay(system, gcc_trace) is False

    def test_declines_setassoc_l1(self, gcc_trace):
        system = TwoLevelSystem(
            CacheGeometry(8 * 1024, 32, ways=2),
            CacheGeometry(64 * 1024, 32, ways=4),
        )
        assert hierarchy_replay(system, gcc_trace) is False


class TestDeclines:
    def test_out_of_range_value(self, core, numpy_backend):
        # Records outside the 32-bit domain never reach dispatch: the
        # trace refuses them at construction.
        for records in ([(0, 0, 2**33)], [(0, 2**33, 1)], [(2, 0, 0)]):
            with pytest.raises(TraceFormatError):
                Trace(records, workload="syn")

    def test_non_power_of_two_fvc(self, core, numpy_backend, gcc_trace):
        geometry = CacheGeometry(4096, 16, ways=1)
        encoder = encoder_for(gcc_trace, 3)
        assert dispatch.try_fvc_replay(gcc_trace, geometry, 96, encoder) is None


class TestProfileParity:
    def test_ranked_value_counts_match_oracle(self, gcc_trace):
        from repro.kernels.columnar import ranked_value_counts

        total, distinct, ranked = ranked_value_counts(gcc_trace, depth=32)
        oracle = profile_accessed_values(gcc_trace)
        assert total == oracle.total_accesses
        assert distinct == oracle.distinct_values
        assert tuple(ranked) == oracle.ranked
