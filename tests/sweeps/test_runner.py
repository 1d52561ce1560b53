"""Local sweep execution: payload shape, jobs-identity."""

from __future__ import annotations

import pytest

from repro.experiments.render import dumps_canonical
from repro.sweeps.catalog import get_sweep
from repro.sweeps.runner import describe_sweep, run_sweep
from repro.sweeps.spec import normalise_sweep, sweep_id, sweep_result_key


def tiny_spec():
    return normalise_sweep(
        {
            "schema": "sweep/v1",
            "name": "tiny",
            "axes": {
                "workload": ["go", "li"],
                "input": ["test"],
                "size_bytes": [1024, 4096],
            },
            "arms": [
                {
                    "name": "base",
                    "kind": "baseline",
                    "cell": {"line_bytes": 32},
                },
                {
                    "name": "fvc",
                    "kind": "fvc",
                    "cell": {
                        "line_bytes": 32,
                        "fvc_entries": 128,
                        "top_values": 7,
                    },
                },
            ],
            "report": {
                "fields": ["miss_rate_percent", "reduction_percent"],
                "aggregates": ["mean"],
            },
        }
    )


class TestRunSweep:
    def test_payload_shape_and_identity(self, store):
        spec = tiny_spec()
        payload = run_sweep(spec, store=store)
        assert payload["schema"] == "sweep.result/1"
        assert payload["sweep"] == spec
        assert payload["sweep_id"] == sweep_id(spec)
        assert payload["result_key"] == sweep_result_key(spec)
        assert payload["points"] == 8
        assert payload["distinct_cells"] == 8
        assert payload["headers"][0] == "arm"
        assert len(payload["rows"]) == 8  # single input: no collapsing
        # Reductions are computed against the same-coordinate baseline.
        fvc_rows = [row for row in payload["rows"] if row["arm"] == "fvc"]
        assert all(
            isinstance(row["reduction_percent_mean"], float)
            for row in fvc_rows
        )

    def test_jobs_value_never_changes_bytes(self, store):
        spec = tiny_spec()
        sequential = dumps_canonical(run_sweep(spec, store=store, jobs=1))
        fanned = dumps_canonical(run_sweep(spec, store=store, jobs=4))
        assert sequential == fanned


class TestDescribeSweep:
    def test_cell_sweep_description(self):
        description = describe_sweep(tiny_spec())
        assert description["name"] == "tiny"
        assert description["points"] == 8
        assert description["distinct_cells"] == 8
        assert description["axes"] == {
            "input": 1,
            "size_bytes": 2,
            "workload": 2,
        }
        assert description["arms"] == ["base", "fvc"]


class TestL1SizeStudy:
    """The ISSUE's acceptance study: a genuinely multi-axis sweep."""

    @pytest.mark.slow
    def test_fast_study_runs_and_reports(self, store):
        payload = run_sweep(get_sweep("l1_size_study", fast=True), store=store)
        assert payload["points"] == 12
        assert payload["distinct_cells"] == 12
        headers = payload["headers"]
        for column in (
            "workload",
            "size_bytes",
            "top_values",
            "miss_rate_percent_mean",
            "reduction_percent_mean",
            "traffic_words_mean",
        ):
            assert column in headers
        # Larger caches must not miss more on the same workload/arm.
        rates = {
            (row["arm"], row["workload"], row["size_bytes"]): row[
                "miss_rate_percent_mean"
            ]
            for row in payload["rows"]
            if row["arm"] == "base"
        }
        for workload in ("m88ksim", "perl"):
            small = rates[("base", workload, 4096)]
            large = rates[("base", workload, 16384)]
            assert large <= small
