"""Fault-plan grammar and deterministic clause matching."""

import pytest

from repro.faults.plan import FaultPlan, FaultSpecError, Injection


class TestParsing:
    def test_single_clause_defaults_to_first_call(self):
        plan = FaultPlan.parse("trace_cache.read:io_error")
        [clause] = plan.clauses
        assert clause.site == "trace_cache.read"
        assert clause.action == "io_error"
        assert clause.arg is None
        assert clause.when.kind == "ordinals"
        assert (clause.when.first, clause.when.last) == (1, 1)

    def test_arg_and_ordinal(self):
        plan = FaultPlan.parse("server.request:delay(0.25)@3")
        [clause] = plan.clauses
        assert clause.arg == 0.25
        assert clause.when.first == clause.when.last == 3

    def test_range_every_prob_and_seed(self):
        plan = FaultPlan.parse(
            "worker.child:slow(0.05)@2-4;"
            "server.request:delay@every=3;"
            "client.request:io_error@p=0.5;"
            "seed=7"
        )
        assert plan.seed == 7
        assert [c.when.kind for c in plan.clauses] == [
            "ordinals", "every", "prob",
        ]

    def test_whitespace_and_empty_clauses_tolerated(self):
        plan = FaultPlan.parse(" trace_cache.read:io_error@1 ; ;")
        assert len(plan.clauses) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "nonsense",
            "trace_cache.read:",
            "no.such.site:io_error",
            # The sites of the deleted cell-lease fabric are unknown now.
            *(
                f"cluster.{leg}:io_error@1"
                for leg in ("lease", "heartbeat", "result")
            ),
            "trace_cache.read:no_such_action",
            "engine.cell:bitflip",  # data action at a data-free site
            "trace_cache.read:io_error@0",  # ordinals are 1-based
            "trace_cache.read:io_error@5-2",
            "trace_cache.read:io_error@every=0",
            "trace_cache.read:io_error@p=1.5",
            "seed=banana",
        ],
    )
    def test_rejects(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "engine.cell:raise@2")
        plan = FaultPlan.from_env()
        assert plan is not None
        assert plan.clauses[0].site == "engine.cell"


class TestMatching:
    def test_ordinal_fires_exactly_once(self):
        plan = FaultPlan.parse("engine.cell:raise@2")
        decisions = [plan.decide("engine.cell") for _ in range(4)]
        fired = [d for d in decisions if d is not None]
        assert len(fired) == 1
        _, ordinal = fired[0]
        assert ordinal == 2
        assert plan.counters() == {"engine.cell": 4}
        assert plan.injections == [Injection("engine.cell", 2, "raise")]

    def test_range_and_every(self):
        plan = FaultPlan.parse(
            "engine.cell:raise@2-3;server.request:raise@every=2"
        )
        hits = [i for i in range(1, 6) if plan.decide("engine.cell")]
        assert hits == [2, 3]
        hits = [i for i in range(1, 7) if plan.decide("server.request")]
        assert hits == [2, 4, 6]

    def test_sites_count_independently(self):
        plan = FaultPlan.parse("engine.cell:raise@1")
        assert plan.decide("server.request") is None
        assert plan.decide("engine.cell") is not None

    def test_first_matching_clause_wins(self):
        plan = FaultPlan.parse("engine.cell:raise@1;engine.cell:io_error@1")
        clause, _ = plan.decide("engine.cell")
        assert clause.action == "raise"

    def test_probabilistic_matching_replays_exactly(self):
        spec = "engine.cell:raise@p=0.3;seed=11"

        def sequence():
            plan = FaultPlan.parse(spec)
            return [
                plan.decide("engine.cell") is not None for _ in range(64)
            ]

        first, second = sequence(), sequence()
        assert first == second
        assert any(first) and not all(first)

    def test_seed_changes_probabilistic_sequence(self):
        def sequence(seed):
            plan = FaultPlan.parse(f"engine.cell:raise@p=0.5;seed={seed}")
            return [
                plan.decide("engine.cell") is not None for _ in range(64)
            ]

        assert sequence(1) != sequence(2)


class TestDescribe:
    def test_round_trip(self):
        spec = "worker.child:crash@1;worker.child:slow(0.05)@2-3;seed=7"
        plan = FaultPlan.parse(spec)
        assert plan.describe() == spec
        assert FaultPlan.parse(plan.describe()).describe() == spec
