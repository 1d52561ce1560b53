"""Tests for the process-isolated worker pool: success, deterministic
failure, crash retries with backoff, timeouts, cancellation, drain.

The pool is exercised with injected spec runners (the ``run_spec``
seam), so these tests cover the execution machinery without paying for
real simulations.
"""

import json
import os
import time

import pytest

from repro.service import jobs as jobstates
from repro.service.jobs import JobQueue
from repro.service.workers import WorkerPool


# Spec runners executed in child processes --------------------------------
def _ok_runner(spec, progress):
    progress(1, 2)
    progress(2, 2)
    return {"echo": spec.get("tag", "")}


def _error_runner(spec, progress):
    raise ValueError("deterministic failure")


def _crashy_runner(spec, progress):
    """Simulates a crashing worker: hard-exits until the attempt file
    says the configured number of crashes has happened."""
    path = spec["counter"]
    attempt = int(open(path).read()) if os.path.exists(path) else 0
    with open(path, "w") as handle:
        handle.write(str(attempt + 1))
    if attempt < spec["crashes"]:
        os._exit(3)
    return {"survived_after": attempt}


def _sleepy_runner(spec, progress):
    progress(0, 1)
    time.sleep(spec.get("seconds", 30))
    return {"woke": True}


def _wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(interval)


@pytest.fixture()
def queue():
    return JobQueue()


def _run_pool(queue, runner, **kwargs):
    pool = WorkerPool(queue, run_spec=runner, workers=1, **kwargs)
    pool.start()
    return pool


class TestExecution:
    def test_success_delivers_payload_and_progress(self, queue):
        pool = _run_pool(queue, _ok_runner)
        try:
            job, _ = queue.submit({"tag": "hello"}, "k1")
            _wait_for(lambda: job.state == jobstates.DONE)
            assert job.payload == {"echo": "hello"}
            assert job.progress == (2, 2)
            assert job.attempts == 1
        finally:
            pool.stop(drain=False)

    def test_on_done_hook_records_admission(self, queue):
        seen = {}

        def on_done(job, payload):
            seen["payload"] = payload
            return False  # pretend the store rejected it

        pool = WorkerPool(
            queue, run_spec=_ok_runner, workers=1, on_done=on_done
        ).start()
        try:
            job, _ = queue.submit({"tag": "x"}, "k")
            _wait_for(lambda: job.state == jobstates.DONE)
            assert seen["payload"] == {"echo": "x"}
            assert job.stored is False
        finally:
            pool.stop(drain=False)

    def test_exception_fails_without_retry(self, queue):
        pool = _run_pool(queue, _error_runner)
        try:
            job, _ = queue.submit({}, "k")
            _wait_for(lambda: job.state == jobstates.FAILED)
            assert "ValueError: deterministic failure" in job.error
            assert job.attempts == 1
            assert queue.stats()["retries"] == 0
        finally:
            pool.stop(drain=False)


class TestCrashes:
    def test_crash_retries_then_succeeds(self, queue, tmp_path):
        pool = _run_pool(queue, _crashy_runner, retry_backoff=0.01)
        try:
            spec = {"counter": str(tmp_path / "attempts"), "crashes": 2}
            job, _ = queue.submit(spec, "k")
            _wait_for(lambda: job.state == jobstates.DONE)
            assert job.payload == {"survived_after": 2}
            assert job.attempts == 3
            assert queue.stats()["retries"] == 2
        finally:
            pool.stop(drain=False)

    def test_crash_budget_exhausted_fails(self, queue, tmp_path):
        pool = _run_pool(
            queue, _crashy_runner, max_retries=1, retry_backoff=0.01
        )
        try:
            spec = {"counter": str(tmp_path / "attempts"), "crashes": 99}
            job, _ = queue.submit(spec, "k")
            _wait_for(lambda: job.state == jobstates.FAILED)
            assert "exit code 3" in job.error
            assert "gave up after 2 attempts" in job.error
        finally:
            pool.stop(drain=False)

    def test_backoff_time_is_bounded_by_the_job_timeout(
        self, queue, tmp_path
    ):
        # Generous attempt count but a bounded budget: cumulative backoff
        # may not exceed the job's own timeout, so the pool gives up on
        # the crash-looping job long before 50 retries.  The timeout is
        # kept large relative to child-spawn latency so no single
        # (instantly crashing) attempt can itself hit the deadline.
        pool = _run_pool(
            queue,
            _crashy_runner,
            max_retries=50,
            retry_backoff=2.5,
            job_timeout=3.0,
        )
        try:
            spec = {"counter": str(tmp_path / "attempts"), "crashes": 99}
            job, _ = queue.submit(spec, "k")
            _wait_for(lambda: job.state == jobstates.FAILED, timeout=30.0)
            assert "retry budget" in job.error
            # 2.5s + 0.5s exhausts the 3.0s budget: attempt 3 fails.
            assert job.attempts == 3
        finally:
            pool.stop(drain=False)


class TestInjectedFaults:
    def test_injected_child_crash_is_retried_transparently(self, queue):
        from repro.faults import install, reset
        from repro.faults.plan import FaultPlan

        install(FaultPlan.parse("worker.child:crash@1"))
        try:
            pool = _run_pool(queue, _ok_runner, retry_backoff=0.01)
            try:
                job, _ = queue.submit({"tag": "x"}, "k")
                _wait_for(lambda: job.state == jobstates.DONE)
                assert job.payload == {"echo": "x"}
                assert job.attempts == 2
                assert queue.stats()["retries"] == 1
            finally:
                pool.stop(drain=False)
        finally:
            reset()


class TestTimeoutsAndCancellation:
    def test_timeout_kills_and_fails(self, queue):
        pool = _run_pool(queue, _sleepy_runner, job_timeout=0.3)
        try:
            job, _ = queue.submit({"seconds": 30}, "k")
            _wait_for(lambda: job.state == jobstates.FAILED)
            assert "timed out" in job.error
        finally:
            pool.stop(drain=False)

    def test_cancel_running_job(self, queue):
        pool = _run_pool(queue, _sleepy_runner)
        try:
            job, _ = queue.submit({"seconds": 30}, "k")
            _wait_for(lambda: job.state == jobstates.RUNNING)
            _wait_for(lambda: job.progress == (0, 1))  # child really up
            queue.cancel(job.id)
            _wait_for(lambda: job.state == jobstates.CANCELLED)
            assert queue.stats()["cancelled"] == 1
        finally:
            pool.stop(drain=False)


class TestDrain:
    def test_drain_finishes_queued_work(self, queue):
        pool = _run_pool(queue, _ok_runner)
        submitted = [queue.submit({"tag": str(i)}, f"k{i}")[0] for i in range(4)]
        pool.stop(drain=True)
        for job in submitted:
            assert job.state == jobstates.DONE

    def test_stop_without_drain_cancels_queue(self, queue):
        # Workers never start, so everything is still queued.
        pool = WorkerPool(queue, run_spec=_ok_runner, workers=1)
        submitted = [queue.submit({}, f"k{i}")[0] for i in range(3)]
        pool.stop(drain=False)
        for job in submitted:
            assert job.state == jobstates.CANCELLED

    def test_rejects_zero_workers(self, queue):
        with pytest.raises(ValueError):
            WorkerPool(queue, run_spec=_ok_runner, workers=0)


class TestChildSpans:
    def test_served_cell_spans_reach_the_trace_file(
        self, queue, tmp_path, monkeypatch
    ):
        # A job child inherits the worker thread's open ``worker.job``
        # span: its own spans must nest under that attempt's span, be
        # flushed by the child, and never repeat a parent line.
        from repro.obs import tracing
        from repro.service.api import execute_spec, normalise_spec

        trace_file = tmp_path / "spans.jsonl"
        monkeypatch.setenv(tracing.ENV_VAR, str(trace_file))
        tracing.reset()
        try:
            pool = _run_pool(queue, execute_spec)
            try:
                spec = normalise_spec(
                    {"type": "cell", "workload": "go", "input_name": "test"}
                )
                job, _ = queue.submit(spec, "cell-key")
                _wait_for(lambda: job.state == jobstates.DONE, timeout=60)
            finally:
                pool.stop(drain=False)
            tracing.active().flush()
        finally:
            tracing.reset()
        lines = trace_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(set(lines))
        spans = [json.loads(line) for line in lines]
        jobs = [span for span in spans if span["name"] == "worker.job"]
        cells = [span for span in spans if span["name"] == "engine.cell"]
        assert len(jobs) == 1 and len(cells) == 1
        assert cells[0]["parent_id"] == jobs[0]["span_id"]
        assert len({span["span_id"] for span in spans}) == len(spans)
