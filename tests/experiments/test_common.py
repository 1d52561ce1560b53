"""Tests for the shared experiment plumbing."""

from collections import Counter

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.experiments.common import (
    CODE_BITS_BY_COUNT,
    FVL_NAMES,
    INT_NAMES,
    access_profile,
    baseline_stats,
    encoder_for,
    fvc_stats,
    input_for,
    occurrence_profile,
    reduction_percent,
)
from repro.experiments.registry import get_experiment
from repro.trace.synth import zipf_value_trace
from repro.workloads.base import Workload
from repro.workloads.store import TraceStore


@pytest.fixture
def execute_runs(monkeypatch):
    """Counts ``Workload.execute`` calls by workload name."""
    runs = Counter()
    execute = Workload.execute

    def counting_execute(workload, *args, **kwargs):
        runs[workload.name] += 1
        return execute(workload, *args, **kwargs)

    monkeypatch.setattr(Workload, "execute", counting_execute)
    return runs


class TestConstants:
    def test_name_groups(self):
        assert len(FVL_NAMES) == 6
        assert set(INT_NAMES) - set(FVL_NAMES) == {"compress", "ijpeg"}

    def test_code_bits_match_paper(self):
        assert CODE_BITS_BY_COUNT == {1: 1, 3: 2, 7: 3}

    def test_input_for(self):
        assert input_for(True) == "test"
        assert input_for(False) == "ref"


class TestProfiles:
    def test_access_profile_memoised(self):
        trace = zipf_value_trace(2000, seed=5)
        first = access_profile(trace)
        assert access_profile(trace) is first

    def test_encoder_for_uses_top_values(self):
        trace = zipf_value_trace(
            4000, values=(7, 8, 9), frequent_fraction=0.95, seed=1
        )
        encoder = encoder_for(trace, 3)
        assert encoder.code_bits == 2
        assert {7, 8, 9} & set(encoder.values)

    def test_occurrence_profile_memoised_on_the_trace(self, execute_runs):
        store = TraceStore()
        trace = store.get("go", "test")
        execute_runs.clear()
        first = occurrence_profile(store, "go", "test", fast=True)
        assert occurrence_profile(store, "go", "test", fast=True) is first
        assert trace.memo("occurrence@10000", lambda _trace: None) is first
        assert execute_runs == Counter({"go": 1})

    def test_fig4_then_table1_execute_each_workload_once(self, execute_runs):
        store = TraceStore()
        for name in FVL_NAMES:
            store.get(name, "test")
        execute_runs.clear()
        get_experiment("fig4").run(store, fast=True)
        get_experiment("table1").run(store, fast=True)
        assert execute_runs == Counter({name: 1 for name in FVL_NAMES})

    def test_encoder_width_by_count(self):
        trace = zipf_value_trace(1000, seed=2)
        assert encoder_for(trace, 1).code_bits == 1
        assert encoder_for(trace, 7).code_bits == 3


class TestSimulationHelpers:
    def test_baseline_dispatches_on_ways(self):
        trace = zipf_value_trace(2000, seed=3)
        direct = baseline_stats(trace, CacheGeometry(4096, 32))
        assoc = baseline_stats(trace, CacheGeometry(4096, 32, ways=2))
        assert direct.accesses == assoc.accesses == len(trace)

    def test_fvc_stats_returns_system(self):
        trace = zipf_value_trace(2000, seed=4)
        stats, system = fvc_stats(trace, CacheGeometry(4096, 32), 64, 7)
        assert stats is system.stats
        assert system.check_exclusive()

    def test_reduction_percent(self):
        base = CacheStats()
        base.read_misses = 10
        base.read_hits = 90
        improved = CacheStats()
        improved.read_misses = 5
        improved.read_hits = 95
        assert reduction_percent(base, improved) == pytest.approx(50.0)
        assert reduction_percent(CacheStats(), CacheStats()) == 0.0
