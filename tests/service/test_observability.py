"""Service observability: versioned metrics payload, prom exposition,
job/v1-tagged job views — with the legacy flat keys gone for good."""

import pytest

from repro.service.client import ServiceClient
from repro.service.jobs import JOB_SCHEMA
from repro.service.server import ReproService, ServiceConfig


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = ServiceConfig(
        port=0,
        workers=1,
        job_timeout=120.0,
        retry_backoff=0.05,
        store_dir=tmp_path_factory.mktemp("result-store"),
    )
    service = ReproService(config).start()
    yield service
    service.stop(drain=False)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


@pytest.fixture(scope="module")
def finished_job(client):
    job = client.submit_cell(
        "go", input_name="test", kind="baseline", size_bytes=4 * 1024
    )
    return client.wait(job["id"], timeout=120)


class TestMetricsV1:
    def test_payload_is_versioned(self, client, finished_job):
        metrics = client.metrics()
        assert metrics["schema"] == "metrics/v1"
        structured = metrics["metrics"]
        assert structured["jobs_submitted_total"]["type"] == "counter"
        assert structured["jobs_submitted_total"]["value"] >= 1
        assert structured["jobs_completed_total"]["value"] >= 1
        assert structured["server_requests_total"]["type"] == "counter"
        assert structured["result_store_size_bytes"]["type"] == "gauge"
        assert structured["result_store_size_bytes"]["value"] > 0
        histogram = structured["server_request_seconds"]
        assert histogram["type"] == "histogram"
        assert histogram["count"] >= 1
        assert histogram["buckets"][-1]["le"] == "+Inf"

    def test_legacy_flat_keys_are_retired(self, client, finished_job):
        """The pre-metrics/v1 flat spellings were aliased for exactly
        one release; the payload now carries only the envelope and the
        structured entries."""
        metrics = client.metrics()
        assert sorted(metrics) == ["metrics", "schema", "version"]
        for legacy in (
            "jobs_submitted",
            "jobs_completed",
            "jobs_failed",
            "result_store_hits",
            "queue_depth",
            "uptime_seconds",
        ):
            assert legacy not in metrics

    def test_prometheus_exposition(self, client, finished_job):
        body = client._request("GET", "/v1/metrics?format=prom").decode()
        lines = body.splitlines()
        assert "# TYPE repro_jobs_submitted_total counter" in lines
        assert "# TYPE repro_jobs_queued gauge" in lines
        assert "# TYPE repro_server_request_seconds histogram" in lines
        assert any(
            line.startswith('repro_server_request_seconds_bucket{le="')
            for line in lines
        )
        assert any(
            line.startswith("repro_server_request_seconds_count ")
            for line in lines
        )
        assert body.endswith("\n")

    def test_json_remains_the_default(self, client):
        assert client.metrics()["schema"] == "metrics/v1"


class TestJobSchema:
    def test_job_views_are_tagged(self, client, finished_job):
        assert finished_job["schema"] == JOB_SCHEMA == "job/v1"
        fetched = client.status(finished_job["id"])
        assert fetched["schema"] == "job/v1"

    def test_jobs_listing_is_tagged(self, client, finished_job):
        listing = client.jobs()
        assert len(listing["jobs"]) >= 1
        assert all(job["schema"] == "job/v1" for job in listing["jobs"])
