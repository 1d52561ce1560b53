"""The stable facade (``repro.api``) and the retired top-level shims."""

from __future__ import annotations

import pytest

from repro import api


class TestCatalogs:
    def test_list_experiments(self):
        experiments = api.list_experiments()
        assert "fig13" in experiments
        assert experiments == api.list_experiments()  # stable order

    def test_list_workloads(self):
        workloads = api.list_workloads()
        assert "gcc" in workloads
        assert "m88ksim" in workloads


class TestSimulate:
    def test_deterministic_outcome(self, store):
        first = api.simulate(
            "gcc", input_name="test", kind="fvc", size_bytes=8 * 1024,
            fvc_entries=256, store=store,
        )
        second = api.simulate(
            "gcc", input_name="test", kind="fvc", size_bytes=8 * 1024,
            fvc_entries=256, store=store,
        )
        assert first == second
        assert first.accesses > 0
        assert 0.0 < first.miss_rate < 1.0
        assert first.extras["fvc_hits"] > 0

    def test_baseline_stats_shape(self, store):
        outcome = api.simulate("li", input_name="test", store=store)
        assert outcome.kind == "baseline"
        assert outcome.misses == (
            outcome.stats["read_misses"] + outcome.stats["write_misses"]
        )

    def test_classify_uses_extras_accesses(self, store):
        outcome = api.simulate(
            "go", input_name="test", kind="classify", store=store
        )
        assert outcome.accesses == outcome.extras["accesses"]


class TestRunExperiment:
    def test_returns_payload_dict(self, store):
        payload = api.run_experiment("fig9", fast=True, store=store)
        assert isinstance(payload, dict)
        assert payload["schema"] == "repro.experiment/1"
        assert payload["experiment_id"] == "fig9"
        assert payload["rows"]


class TestProfileTrace:
    def test_top_values(self, store):
        profile = api.profile_trace("gcc", input_name="test", store=store)
        top = profile.top_values(7)
        assert len(top) == 7


class TestFacadeContract:
    def test_all_is_explicit_and_sorted(self):
        assert api.__all__ == sorted(api.__all__)
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_lazy_submodule_access(self):
        import repro

        assert repro.api is api
        assert repro.obs.ENV_VAR == "REPRO_OBS"


class TestRetiredTopLevelExports:
    """The PR-5 deprecation shims completed their one release and are
    gone; the error still points at the stable replacement."""

    def test_experiments_removed_with_pointer(self):
        import repro

        with pytest.raises(AttributeError, match="list_experiments"):
            repro.EXPERIMENTS
        assert "EXPERIMENTS" not in repro.__all__

    def test_get_experiment_removed_with_pointer(self):
        import repro

        with pytest.raises(AttributeError, match="repro.api"):
            repro.get_experiment
        assert "get_experiment" not in repro.__all__

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing


class TestSweepFacade:
    def test_list_sweeps_is_the_cell_grids(self):
        names = api.list_sweeps()
        assert names == ["fig10", "fig12", "fig13", "fig14", "l1_size_study"]

    def test_run_sweep_of_an_experiment_names_replacement(self):
        from repro.sweeps.spec import SweepSpecError

        with pytest.raises(SweepSpecError, match="run fig1"):
            api.run_sweep("fig1", fast=True)

    def test_describe_sweep_by_name(self):
        description = api.describe_sweep("l1_size_study", fast=True)
        assert description["schema"] == "sweep/v1"
        assert description["points"] > 0
        assert description["distinct_cells"] > 0

    def test_run_sweep_by_spec_dict(self, store):
        spec = {
            "schema": "sweep/v1",
            "name": "tiny",
            "axes": {"size_bytes": [1024, 2048]},
            "arms": [{"name": "base", "kind": "baseline",
                      "cell": {"workload": "go", "input_name": "test"}}],
            "report": {"fields": ["miss_rate_percent"],
                       "aggregates": ["mean"]},
        }
        result = api.run_sweep(spec, store=store)
        assert isinstance(result, api.SweepResult)
        assert result.points == 2
        assert result.distinct_cells == 2
        assert result.headers[0] == "arm"
        assert "miss_rate_percent_mean" in result.headers
        assert result.payload["schema"] == "sweep.result/1"
        assert result.to_csv().splitlines()[0].startswith("arm,")
        assert "<table>" in result.to_html()

    def test_run_sweep_rejects_bad_spec(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="sweep/v1"):
            api.run_sweep({"schema": "sweep/v2"})
