"""The worker pool: process-isolated job execution.

Each worker is a thread that claims jobs from the
:class:`~repro.service.jobs.JobQueue` and runs every attempt in a fresh
child **process**.  Process isolation is what buys the service its
hard guarantees:

* **timeouts** — a runaway simulation is ``terminate()``-d at the
  deadline instead of wedging a thread forever;
* **cancellation** — ``DELETE /v1/jobs/<id>`` kills the child
  mid-simulation; the parent's state stays consistent;
* **crash containment** — a segfaulting or ``os._exit``-ing workload
  takes down only its child; the worker retries with exponential
  backoff, up to a bound, before declaring the job failed.

The child streams ``("progress", done, total)`` messages over a pipe —
fed by the engine's cell-boundary progress hook — and ends with exactly
one ``("done", payload)`` or ``("error", message)`` verdict.  A pipe
that closes without a verdict *is* the crash signal.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.service import jobs as jobstates
from repro.service.jobs import Job, JobQueue

#: ``run_spec(spec, progress)`` → payload dict; executed in the child.
SpecRunner = Callable[[Dict, Callable[[int, int], None]], Dict]

#: ``on_done(job, payload)`` → whether the result store admitted it.
DoneHook = Callable[[Job, Dict], Optional[bool]]


def _mp_context():
    # Fork keeps worker start cheap and lets tests inject local
    # runners; fall back to the platform default where unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _child_entry(conn, run_spec: SpecRunner, spec: Dict, fault=None) -> None:
    """Child-process main: run the spec, stream progress, send the
    verdict, close the pipe.

    ``fault`` is a parent-decided ``(clause, ordinal)`` pair from the
    ``worker.child`` injection site (see
    :func:`repro.faults.sites.decide_child_fault`); ``crash`` clauses
    hard-exit here, exercising the pool's crash-containment path.

    Under ``REPRO_OBS_TRACE`` the child's spans (``engine.cell``,
    ``trace_cache.load``, ...) nest under the parent's open
    ``worker.job`` span, so no root span closes to flush them: the
    child flushes its own buffer before it exits.
    """
    from repro.obs import tracing

    tracer = tracing.active()
    if tracer is not None:
        tracer.after_fork()
    try:
        if fault is not None:
            from repro.faults.sites import apply_child_fault

            apply_child_fault(fault)

        def report(done: int, total: int) -> None:
            conn.send(("progress", done, total))

        payload = run_spec(spec, report)
        conn.send(("done", payload))
    except BaseException as exc:  # noqa: BLE001 - verdict, not handling
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        if tracer is not None:
            tracer.flush()
        conn.close()


class WorkerPool:
    """``workers`` threads executing queue jobs in child processes."""

    def __init__(
        self,
        queue: JobQueue,
        run_spec: SpecRunner,
        workers: int = 2,
        job_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        on_done: Optional[DoneHook] = None,
        registry=None,
    ) -> None:
        if workers <= 0:
            raise ValueError("worker pool needs at least one worker")
        self.queue = queue
        self.run_spec = run_spec
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.on_done = on_done
        #: Optional :class:`repro.obs.MetricsRegistry` the pool reports
        #: attempt counts into (the owning service passes its own).
        self.registry = registry
        self._ctx = _mp_context()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = threading.Event()

    # Lifecycle ---------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return self
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool.

        ``drain=True`` (the SIGTERM path) lets workers finish every job
        already accepted — running *and* queued — before exiting;
        ``drain=False`` abandons the queue and cancels running jobs.
        """
        if drain:
            self._draining.set()
        else:
            for job in self.queue.jobs():
                if job.state in (jobstates.QUEUED, jobstates.RUNNING):
                    job.cancel_event.set()
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        if not drain:
            # Resolve the abandoned queue: every remaining pending job
            # carries a set cancel_event, so claiming it marks it
            # cancelled rather than running (next_job returns None for
            # each, hence the depth-based loop condition).
            while self.queue.queue_depth():
                self.queue.next_job(timeout=0.01)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the queue to empty and every worker to go idle."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.queue.queue_depth() or self.queue.running_count():
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.02)
        return True

    # Worker loop -------------------------------------------------------
    def _loop(self) -> None:
        while True:
            if self._stop.is_set():
                if not self._draining.is_set():
                    return
                if not self.queue.queue_depth():
                    return
            job = self.queue.next_job(timeout=0.1)
            if job is not None:
                self._execute(job)

    def _execute(self, job: Job) -> None:
        attempt = 0
        # Crash retries must not multiply a job's latency unboundedly:
        # the cumulative backoff a job may spend between attempts is
        # capped by its own timeout, so worst case (every attempt runs
        # to the deadline and crashes) total time stays within
        # (max_retries + 1) * job_timeout + job_timeout of backoff.
        backoff_budget = self.job_timeout
        backoff_spent = 0.0
        from repro.obs import tracing

        while True:
            attempt += 1
            self.queue.note_attempt(job, attempt)
            if self.registry is not None:
                self.registry.counter("worker_attempts_total").inc()
            with tracing.span(
                "worker.job",
                key=f"{job.result_key}#{attempt}",
                attrs={"job_id": job.id, "attempt": attempt},
            ) as span:
                kind, value = self._attempt(job)
                if span is not None:
                    span.attrs["outcome"] = kind
            if kind == "done":
                stored = None
                if self.on_done is not None:
                    stored = self.on_done(job, value)
                self.queue.finish(
                    job, jobstates.DONE, payload=value, stored=stored
                )
                return
            if kind == "cancelled":
                self.queue.finish(job, jobstates.CANCELLED)
                return
            if kind == "error" or kind == "timeout":
                # Deterministic failures don't improve on retry.
                self.queue.finish(job, jobstates.FAILED, error=value)
                return
            # Crash: retry with exponential backoff, bounded in both
            # attempt count and total backoff time.
            if attempt > self.max_retries:
                self.queue.finish(
                    job,
                    jobstates.FAILED,
                    error=f"{value} (gave up after {attempt} attempts)",
                )
                return
            backoff = self.retry_backoff * (2 ** (attempt - 1))
            if backoff_budget is not None:
                remaining = backoff_budget - backoff_spent
                if remaining <= 0:
                    self.queue.finish(
                        job,
                        jobstates.FAILED,
                        error=(
                            f"{value} (retry budget of "
                            f"{backoff_budget:.1f}s exhausted after "
                            f"{attempt} attempts)"
                        ),
                    )
                    return
                backoff = min(backoff, remaining)
            backoff_spent += backoff
            self.queue.note_retry()
            # An event wait, so cancellation interrupts the backoff.
            if job.cancel_event.wait(backoff):
                self.queue.finish(job, jobstates.CANCELLED)
                return

    # One attempt -------------------------------------------------------
    def _kill(self, process) -> None:
        process.terminate()
        process.join(1.0)
        if process.is_alive():  # pragma: no cover - terminate sufficed
            process.kill()
            process.join(1.0)

    def _attempt(self, job: Job) -> Tuple[str, Optional[object]]:
        """Run one child process to a verdict.

        Returns one of ``("done", payload)``, ``("error", message)``,
        ``("timeout", message)``, ``("cancelled", None)`` or
        ``("crash", message)`` — only the last is retryable.
        """
        from repro.faults.sites import decide_child_fault

        # The parent decides whether this attempt is faulted, so the
        # ``worker.child`` ordinal counts *attempts* across all jobs —
        # ``@1`` faults the first attempt and lets the retry succeed.
        fault = decide_child_fault()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_entry,
            args=(writer, self.run_spec, job.spec, fault),
            daemon=True,
        )
        started = time.monotonic()
        process.start()
        writer.close()
        deadline = (
            None if self.job_timeout is None else started + self.job_timeout
        )
        verdict: Optional[Tuple[str, Optional[object]]] = None
        try:
            while verdict is None:
                if job.cancel_event.is_set():
                    self._kill(process)
                    return ("cancelled", None)
                if deadline is not None and time.monotonic() > deadline:
                    self._kill(process)
                    return (
                        "timeout",
                        f"timed out after {self.job_timeout:.1f}s",
                    )
                if reader.poll(0.05):
                    try:
                        message = reader.recv()
                    except (EOFError, OSError):
                        break
                    if message[0] == "progress":
                        self.queue.note_progress(job, message[1], message[2])
                    else:
                        verdict = (message[0], message[1])
                elif not process.is_alive():
                    # Dead child; drain any verdict raced into the pipe.
                    if not reader.poll(0.01):
                        break
        finally:
            reader.close()
            if verdict is not None or not process.is_alive():
                process.join(1.0)
            else:  # pragma: no cover - belt and braces
                self._kill(process)
        if verdict is not None:
            return verdict
        code = process.exitcode
        return ("crash", f"worker process died (exit code {code})")
