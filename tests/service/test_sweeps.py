"""End-to-end ``/v1/sweeps``: fan-out, assembly, byte identity.

The acceptance property: a sweep served through ``POST /v1/sweeps``
assembles the exact bytes a local :func:`repro.sweeps.runner.run_sweep`
produces for the same spec, and the assembled payload is memoised in
the result store under the sweep's result key.
"""

from __future__ import annotations

import pytest

from repro.experiments.render import dumps_canonical
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ReproService, ServiceConfig
from repro.sweeps.catalog import get_sweep
from repro.sweeps.runner import run_sweep


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = ServiceConfig(
        port=0,
        workers=2,
        job_timeout=120.0,
        retry_backoff=0.05,
        store_dir=tmp_path_factory.mktemp("sweep-store"),
    )
    service = ReproService(config).start()
    yield service
    service.stop(drain=False)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


class TestSweepEndpoints:
    def test_malformed_spec_400_names_contract(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_sweep({"schema": "sweep/v2"})
        assert err.value.status == 400
        assert "sweep/v1" in str(err.value)

    def test_experiment_arm_400_names_replacement(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_sweep(
                {
                    "schema": "sweep/v1",
                    "name": "fig9",
                    "arms": [
                        {
                            "name": "experiment",
                            "kind": "experiment",
                            "experiment_id": "fig9",
                            "fast": True,
                        }
                    ],
                    "report": {"fields": ["structure"]},
                }
            )
        assert err.value.status == 400
        assert "sweep/v1" in str(err.value)
        assert "POST /v1/jobs" in str(err.value)

    def test_unknown_sweep_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.sweep("0" * 24)
        assert err.value.status == 404

    def test_served_bytes_identical_to_local_run(self, service, client):
        spec = get_sweep("l1_size_study", fast=True)
        local = dumps_canonical(run_sweep(spec))

        view = client.submit_sweep(spec)
        assert view["schema"] == "sweep.view/1"
        assert view["state"] in ("running", "done")
        assert view["points"] == 12
        assert view["distinct_cells"] == 12

        done = client.wait_sweep(view["sweep_id"], timeout=180)
        assert done["state"] == "done"
        served = dumps_canonical(done["result"])
        assert served == local

        # The assembled payload is memoised under the sweep result key.
        assert client.result_bytes(done["result_key"]).decode() == local

        # Idempotent re-post: answered 200 from the tracked record, no
        # new submission counted.
        before = client.metrics()["metrics"]["sweeps_submitted_total"]["value"]
        again = client.submit_sweep(spec)
        assert again["sweep_id"] == view["sweep_id"]
        after = client.metrics()["metrics"]["sweeps_submitted_total"]["value"]
        assert after == before

    def test_sweep_cells_reuse_the_result_store(self, client):
        # Same cells as l1_size_study fast under a different sweep name:
        # every cell is answered from the store or deduplicated, so the
        # reuse counter moves and the sweep finishes immediately.
        spec = dict(get_sweep("l1_size_study", fast=True))
        spec = {key: value for key, value in spec.items()}
        spec["name"] = "l1-size-study-copy"
        before = client.metrics()["metrics"]
        view = client.submit_sweep(spec)
        done = client.wait_sweep(view["sweep_id"], timeout=60)
        after = client.metrics()["metrics"]
        reused = after.get("sweep_cells_reused_total", {"value": 0})["value"]
        reused_before = before.get(
            "sweep_cells_reused_total", {"value": 0}
        )["value"]
        assert reused - reused_before == 12
        # Same cell results, different sweep identity.
        assert done["result"]["sweep"]["name"] == "l1-size-study-copy"

    def test_listing_and_metrics(self, client):
        listing = client.sweeps()
        assert isinstance(listing["sweeps"], list)
        assert len(listing["sweeps"]) >= 2
        assert all("result" not in view for view in listing["sweeps"])
        metrics = client.metrics()["metrics"]
        for name in (
            "sweeps_submitted_total",
            "sweeps_completed_total",
            "sweep_cells_expanded_total",
            "sweeps_tracked",
        ):
            assert name in metrics
        assert metrics["sweeps_tracked"]["value"] == len(listing["sweeps"])

    def test_repost_after_restart_recovers_from_store(
        self, service, client, tmp_path_factory
    ):
        # A fresh board (new service sharing the store directory) has
        # no tracked record, but the assembled payload is resident:
        # the re-POST answers 200 done without queueing any job.
        spec = get_sweep("l1_size_study", fast=True)
        local = dumps_canonical(run_sweep(spec))
        config = ServiceConfig(
            port=0,
            workers=1,
            store_dir=service.config.store_dir,
        )
        fresh = ReproService(config).start()
        try:
            fresh_client = ServiceClient(fresh.url)
            view = fresh_client.submit_sweep(spec)
            assert view["state"] == "done"
            assert view["jobs"] == {}
            assert view["points"] == 12
            assert view["distinct_cells"] == 12
            done = fresh_client.sweep(view["sweep_id"])
            assert dumps_canonical(done["result"]) == local
        finally:
            fresh.stop(drain=False)

    def test_wait_sweep_timeout_is_a_service_error(self, client):
        with pytest.raises(ServiceError):
            # Unknown id: the first poll raises 404 as ServiceError.
            client.wait_sweep("f" * 24, timeout=0.5, poll=0.1)
