"""The built-in sweep catalog against the experiment registry.

The catalog holds exactly the paper's cell grids: every registered
experiment that plans cells must have a catalogued sweep whose
expansion is exactly its plan, and every other experiment is run
through the registry, never as a sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.registry import experiment_ids, get_experiment
from repro.sweeps.catalog import get_sweep, sweep_names
from repro.sweeps.expand import expand_cells
from repro.sweeps.spec import SweepSpecError

CELL_SWEEPS = ("fig10", "fig12", "fig13", "fig14", "l1_size_study")
#: Registered experiments with a cell plan, from the registry itself.
CELL_EXPERIMENTS = [
    experiment_id
    for experiment_id in experiment_ids()
    if get_experiment(experiment_id).plan_cells(fast=True) is not None
]


class TestCoverage:
    def test_catalog_is_exactly_the_cell_sweeps(self):
        assert sweep_names() == sorted(CELL_SWEEPS)

    def test_report_fields_always_non_empty(self):
        for name in sweep_names():
            fields = get_sweep(name, fast=True)["report"]["fields"]
            assert fields, f"sweep {name!r} declares no fields"

    def test_unknown_name_rejected_with_catalog(self):
        with pytest.raises(SweepSpecError, match="l1_size_study"):
            get_sweep("fig99")

    def test_experiment_id_rejected_with_replacement(self):
        with pytest.raises(SweepSpecError, match="run fig1") as err:
            get_sweep("fig1")
        assert "POST /v1/jobs" in str(err.value)

    def test_specs_are_normalised_and_json_clean(self):
        for name in sweep_names():
            for fast in (False, True):
                spec = get_sweep(name, fast=fast)
                assert spec["schema"] == "sweep/v1"
                assert spec["name"] == name
                # Canonical specs survive a JSON round trip unchanged.
                assert json.loads(json.dumps(spec)) == spec


class TestCellSweepsMatchExperiments:
    def test_cell_experiments_found(self):
        # The parametrization below must not silently shrink to nothing.
        assert {"fig10", "fig12", "fig13", "fig14"} <= set(CELL_EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id", CELL_EXPERIMENTS)
    @pytest.mark.parametrize("fast", (True, False))
    def test_expansion_equals_experiment_plan(self, experiment_id, fast):
        # A new cell experiment without a catalogued sweep fails here.
        spec = get_sweep(experiment_id, fast=fast)
        planned = get_experiment(experiment_id).plan_cells(fast=fast)
        assert expand_cells(spec) == planned

    def test_experiment_sweep_backing_accessor(self):
        experiment = get_experiment("fig10")
        assert experiment.sweep_backing(fast=True) == get_sweep(
            "fig10", fast=True
        )
