"""Crash recovery: rebuilding the control plane from journal +
snapshot — queue order determinism, attempt counts, done-from-store
rehydration, cancel propagation, and shedding under storage pressure."""

import json
import time

import pytest

from repro.common.errors import StorageExhausted
from repro.service.jobs import JobQueue
from repro.service.journal import Journal, recover
from repro.service.result_store import ResultStore
from repro.service.server import ReproService, ServiceConfig


def make_journal(path) -> Journal:
    return Journal(path, fsync=False)


@pytest.fixture()
def journal(tmp_path):
    return make_journal(tmp_path / "state")


class TestQueueJournalling:
    def test_lifecycle_is_recorded(self, journal):
        queue = JobQueue(journal=journal)
        job, deduplicated = queue.submit({"n": 1}, "key-1")
        assert not deduplicated
        claimed = queue.next_job(timeout=0.01)
        assert claimed is job
        queue.note_attempt(job, 1)
        queue.note_progress(job, 3, 9)
        queue.finish(job, "done", stored=True)
        _, tail, _ = make_journal(journal.directory).replay()
        assert [record["k"] for record in tail] == [
            "job.submit", "job.claim", "job.attempt", "job.progress",
            "job.finish",
        ]
        assert not any("lane" in record for record in tail)

    def test_storage_exhausted_submission_rolls_back(self, tmp_path):
        exhausted = Journal(tmp_path / "state", fsync=False, quota_bytes=1)
        queue = JobQueue(journal=exhausted)
        with pytest.raises(StorageExhausted):
            queue.submit({"n": 1}, "key-1")
        # The write-ahead contract: unrecordable means never accepted.
        assert queue.jobs() == []
        assert queue.next_job(timeout=0.01) is None
        assert queue.stats()["shed"] == 1
        assert queue.stats()["submitted"] == 0

    def test_note_attempt_is_monotonic(self, journal):
        queue = JobQueue(journal=journal)
        job, _ = queue.submit({"n": 1}, "key-1")
        queue.note_attempt(job, 3)
        queue.note_attempt(job, 1)  # a restarted executor's local loop
        assert job.attempts == 3


class TestQueueRestore:
    def drive(self, journal):
        queue = JobQueue(journal=journal)
        first, _ = queue.submit({"n": 1}, "key-1")
        second, _ = queue.submit({"n": 2}, "key-2")
        third, _ = queue.submit({"n": 3}, "key-3")
        claimed = queue.next_job(timeout=0.01)
        assert claimed is first
        queue.note_attempt(first, 2)
        queue.finish(first, "done", stored=False)
        claimed = queue.next_job(timeout=0.01)
        assert claimed is second
        queue.note_attempt(second, 1)
        return queue, (first, second, third)

    def test_replay_rebuilds_queue_order_and_attempts(self, journal):
        _, (first, second, third) = self.drive(journal)

        recovered = recover(make_journal(journal.directory))
        rebuilt = JobQueue(journal=None)
        rebuilt.restore(recovered, payloads={})

        ids = [job.id for job in rebuilt.jobs()]
        assert ids == [first.id, second.id, third.id]
        assert rebuilt.get(first.id).state == "done"
        # Jobs that were running at the crash re-enter the queue at
        # their recorded attempt count, pending jobs behind them.
        assert rebuilt.get(second.id).state == "queued"
        assert rebuilt.get(second.id).attempts == 1
        assert rebuilt.get(third.id).state == "queued"
        assert [
            rebuilt.next_job(timeout=0.01).id for _ in range(2)
        ] == [second.id, third.id]
        assert rebuilt.next_job(timeout=0.01) is None

    def test_replay_is_deterministic(self, journal):
        self.drive(journal)

        def fingerprint():
            recovered = recover(make_journal(journal.directory))
            queue = JobQueue(journal=None)
            queue.restore(recovered, payloads={})
            return [
                (job.id, job.state, job.attempts)
                for job in queue.jobs()
            ], queue.stats()

        assert fingerprint() == fingerprint()

    def test_counters_are_restored(self, journal):
        queue, _ = self.drive(journal)
        before = queue.stats()

        recovered = recover(make_journal(journal.directory))
        rebuilt = JobQueue(journal=None)
        rebuilt.restore(recovered, payloads={})
        after = rebuilt.stats()
        for name in ("submitted", "completed", "failed", "cancelled"):
            assert after[name] == before[name]

    def test_new_ids_never_collide_with_recovered(self, journal):
        _, (first, _, _) = self.drive(journal)
        recovered = recover(make_journal(journal.directory))
        rebuilt = JobQueue(journal=None)
        rebuilt.restore(recovered, payloads={})
        fresh, _ = rebuilt.submit({"n": 99}, "key-99")
        serials = {job.id.split("-")[1] for job in rebuilt.jobs()}
        assert len(serials) == 4  # three recovered + one fresh, distinct

    def test_cancel_requested_resolves_after_restart(self, journal):
        queue = JobQueue(journal=journal)
        job, _ = queue.submit({"n": 1}, "key-1")
        queue.cancel(job.id)

        recovered = recover(make_journal(journal.directory))
        rebuilt = JobQueue(journal=None)
        rebuilt.restore(recovered, payloads={})
        assert rebuilt.get(job.id).cancel_event.is_set()
        # The claim path resolves it, exactly like a pre-crash cancel.
        assert rebuilt.next_job(timeout=0.01) is None
        assert rebuilt.get(job.id).state == "cancelled"


class TestStorePeek:
    def test_peek_has_no_observability_side_effects(self, tmp_path):
        store = ResultStore(tmp_path / "store", capacity=4)
        store.put("a" * 24, b'{"x": 1}')
        baseline = store.stats()
        assert store.peek("a" * 24) == b'{"x": 1}'
        assert store.peek("b" * 24) is None
        after = store.stats()
        assert after["hits"] == baseline["hits"]
        assert after["misses"] == baseline["misses"]

    def test_peek_quarantines_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "store", capacity=4)
        store.put("a" * 24, b'{"x": 1}')
        path = tmp_path / "store" / ("a" * 24 + ".json")
        path.write_bytes(b"rotten")
        assert store.peek("a" * 24) is None
        assert path.with_name(path.name + ".corrupt").exists()


class TestServiceRecovery:
    def config(self, base, **overrides):
        settings = dict(
            port=0,
            workers=1,
            job_timeout=60.0,
            store_dir=base / "store",
            state_dir=base / "state",
            journal_fsync=False,
        )
        settings.update(overrides)
        return ServiceConfig(**settings)

    def test_done_jobs_recover_from_store_without_recompute(self, tmp_path):
        config = self.config(tmp_path)
        service = ReproService(config).start()
        try:
            body, status = service.submit(
                {"type": "experiment", "experiment_id": "fig9", "fast": True}
            )
            assert status == 202
            job_id = body["id"]
            end = time.time() + 120
            while time.time() < end:
                if service.jobs.get(job_id).state == "done":
                    break
                time.sleep(0.1)
            finished = service.jobs.get(job_id)
            assert finished.state == "done"
            payload = json.dumps(finished.payload, sort_keys=True)
        finally:
            service.stop(drain=True)

        resurrected = ReproService(config)
        try:
            assert resurrected.recovery["jobs"] == 1
            job = resurrected.jobs.get(job_id)
            assert job is not None and job.state == "done"
            # Zero recomputation: the payload came from the store.
            assert json.dumps(job.payload, sort_keys=True) == payload
            assert resurrected.jobs.stats()["completed"] == 1
            samples = resurrected.metric_samples()
            assert samples["journal_recovered_jobs_total"]["value"] == 1
            assert samples["storage_exhausted"]["value"] == 0
        finally:
            resurrected.stop(drain=False)

    def test_quota_breach_sheds_503_and_keeps_reads(self, tmp_path):
        from repro.service.client import ServiceClient, ServiceError

        config = self.config(tmp_path, state_quota_bytes=1)
        service = ReproService(config).start()
        client = ServiceClient(service.url)
        try:
            with pytest.raises(ServiceError) as err:
                client.submit(
                    {"type": "experiment", "experiment_id": "fig9",
                     "fast": True}
                )
            assert err.value.status == 503
            # Degradation is typed and visible, reads keep working.
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["storage_exhausted"] is True
            metrics = client.metrics()["metrics"]
            assert metrics["storage_exhausted"]["value"] == 1
            assert metrics["journal_append_failures_total"]["value"] >= 1
            assert service.jobs.stats()["shed"] == 1
        finally:
            service.stop(drain=False)

    def test_older_state_dir_with_scheduler_records_recovers(
        self, tmp_path, capsys
    ):
        """A state dir written while the service still ran a cell-leasing
        scheduler beside the worker pool: ``sched`` records, a
        ``"sched"`` snapshot section and a ``lane: "cluster"`` job.  The
        scheduler parts are ignored, the job runs on the worker pool,
        and its payload bytes match a local run."""
        from repro.cli import main
        from repro.service.api import (
            execute_spec,
            normalise_spec,
            payload_bytes,
            result_key,
        )

        spec = normalise_spec(
            {"type": "experiment", "experiment_id": "fig9", "fast": True}
        )
        key = result_key(spec)
        job_id = "job-00001-0123abcd"
        old = make_journal(tmp_path / "state")
        old.append("sched", ev="register", worker="w-0001", t=0.5)
        old.snapshot(
            lambda: {
                "queue": {"jobs": [], "serial": 0, "counters": {}},
                "sched": {
                    "worker_serial": 1,
                    "lease_serial": 0,
                    "epoch": 0.5,
                    "counters": {},
                },
            }
        )
        old.append(
            "job.submit", id=job_id, spec=spec, result_key=key,
            lane="cluster", created=1.0,
        )
        old.append("job.claim", id=job_id)
        old.append("job.attempt", id=job_id, n=1)
        old.append(
            "sched", ev="issue", worker="w-0001", lease="lease-000001",
            t=1.5,
        )
        old.close()

        state_dir = str(old.directory)
        assert main(["journal", "fsck", "--state-dir", state_dir]) == 0
        assert main(["journal", "info", "--state-dir", state_dir]) == 0
        info = capsys.readouterr().out
        assert "jobs: 1 (1 running)" in info
        assert "scheduler" not in info

        service = ReproService(self.config(tmp_path)).start()
        try:
            assert service.recovery["jobs"] == 1
            end = time.time() + 120
            while time.time() < end:
                if service.jobs.get(job_id).state == "done":
                    break
                time.sleep(0.1)
            job = service.jobs.get(job_id)
            assert job.state == "done"
            assert job.as_dict()["lane"] == "local"
            assert payload_bytes(job.payload) == payload_bytes(
                execute_spec(spec)
            )
        finally:
            service.stop(drain=True)
