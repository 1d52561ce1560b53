"""The stdlib HTTP JSON API server: simulation as a service.

Endpoints (all JSON, all under ``/v1``):

================================  ============================================
``POST /v1/jobs``                 submit a job spec; answered from the result
                                  store when the key is resident, deduplicated
                                  against in-flight jobs otherwise
``GET /v1/jobs/<id>``             job status, progress, and (when done) the
                                  result
``DELETE /v1/jobs/<id>``          request cancellation
``GET /v1/jobs``                  every known job, submission order
``GET /v1/results/<key>``         the stored canonical payload bytes
``GET /v1/metrics``               versioned ``metrics/v1`` snapshot only (the
                                  pre-catalog flat keys are retired);
                                  ``?format=prom`` renders Prometheus text
``GET /v1/healthz``               liveness probe + degradation state
``POST /v1/sweeps``               submit a ``sweep/v1`` spec; expands into
                                  cell jobs through the queue (idempotent by
                                  content address)
``GET /v1/sweeps``                every tracked sweep, submission order
``GET /v1/sweeps/<id>``           one sweep's fan-out state and, when done,
                                  its assembled ``sweep.result/1`` payload
================================  ============================================

The server is a :class:`http.server.ThreadingHTTPServer` — requests are
cheap bookkeeping; all simulation happens in the worker pool's child
processes.  ``repro-fvc serve`` wires
SIGTERM/SIGINT to a graceful drain: stop accepting, finish every
accepted job, exit.

**Overload contract**: the pending queue is bounded
(``max_queue_depth``).  A submission that would grow the backlog past
the bound is answered ``503`` with a ``Retry-After`` header — new work
is rejected loudly; work already accepted is never dropped.  While the
queue sits at its bound, ``/v1/healthz`` reports ``"degraded"`` (still
HTTP 200 — the process is alive) and ``/v1/metrics`` exposes the shed
count, so load balancers and clients can back off before the cliff.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common.errors import FaultInjected, ReproError, StorageExhausted
from repro.experiments.render import dumps_line
from repro.obs import (
    METRICS_SCHEMA,
    MetricsRegistry,
    prometheus_text,
    tracing,
)
from repro.service.api import (
    execute_spec,
    normalise_spec,
    payload_bytes,
    result_key,
)
from repro.service.jobs import JobQueue, QueueFullError
from repro.service.result_store import (
    DEFAULT_CAPACITY,
    ResultStore,
    default_store_dir,
)
from repro.service.workers import WorkerPool


@dataclass
class ServiceConfig:
    """Everything ``repro-fvc serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8031
    workers: int = 2
    job_timeout: Optional[float] = 600.0
    max_retries: int = 2
    retry_backoff: float = 0.5
    store_dir: Optional[Path] = None
    store_capacity: int = DEFAULT_CAPACITY
    quiet: bool = True
    #: Pending-queue bound; submissions beyond it are shed with 503.
    #: ``None`` = unbounded (the pre-degradation behaviour).
    max_queue_depth: Optional[int] = 256
    #: Floor for the 503 ``Retry-After`` hint, seconds.
    retry_after_floor: float = 1.0
    #: Control-plane durability: directory for the write-ahead journal
    #: and its snapshots (``--state-dir``).  ``None`` disables the
    #: journal — the pre-durability behaviour, and what embedded test
    #: services get by default.
    state_dir: Optional[Path] = None
    #: Byte budget over journal + snapshot (``--state-quota-bytes``).
    #: Appends past it shed new submissions with ``503`` instead of
    #: filling the disk.  ``None`` = unbounded.
    state_quota_bytes: Optional[int] = None
    #: Records between automatic snapshot+compaction passes.
    journal_snapshot_every: int = 512
    #: fsync journal appends (disable only in tests).
    journal_fsync: bool = True


class ReproService:
    """The assembled service: result store + job queue + worker pool +
    HTTP front end.  ``start()``/``stop()`` make it embeddable (tests
    run it in-process on an ephemeral port); :func:`serve` is the
    blocking CLI entry."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        store_dir = self.config.store_dir or default_store_dir()
        self.store = ResultStore(
            store_dir, capacity=self.config.store_capacity
        )
        #: Optional write-ahead journal (``--state-dir``): the durable
        #: record every lifecycle transition lands in before the
        #: operation is acknowledged, and what :meth:`_recover` rebuilds
        #: the control plane from after a crash (docs/ROBUSTNESS.md).
        self.journal = None
        if self.config.state_dir is not None:
            from repro.service.journal import Journal

            self.journal = Journal(
                self.config.state_dir,
                quota_bytes=self.config.state_quota_bytes,
                fsync=self.config.journal_fsync,
                snapshot_every=self.config.journal_snapshot_every,
            )
        self.jobs = JobQueue(
            max_queue_depth=self.config.max_queue_depth,
            journal=self.journal,
        )
        #: Per-service registry (request counters/latency, worker
        #: attempts) — per-instance so embedded test services never
        #: share metric state.
        self.registry = MetricsRegistry()
        self.pool = WorkerPool(
            self.jobs,
            run_spec=execute_spec,
            workers=self.config.workers,
            job_timeout=self.config.job_timeout,
            max_retries=self.config.max_retries,
            retry_backoff=self.config.retry_backoff,
            on_done=self._store_result,
            registry=self.registry,
        )
        from repro.service.sweeps import SweepBoard

        #: Sweep fan-out/assembly over the job queue (``/v1/sweeps``).
        self.sweeps = SweepBoard(self)
        self.started_at = time.time()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._maint_stop = threading.Event()
        self._maint_thread: Optional[threading.Thread] = None
        #: Recovery report from the last startup replay (diagnostics).
        self.recovery: Optional[Dict] = None
        self._recover()

    # Durability --------------------------------------------------------
    def _gather_state(self) -> Dict:
        """Everything a journal snapshot captures (the job queue);
        called by the journal with no locks held."""
        return {"queue": self.jobs.snapshot_state()}

    def _recover(self) -> None:
        """Rebuild the control plane from journal + snapshot (startup).

        Runs before any worker thread or HTTP socket exists, so no
        locks are contended.  Done jobs are rehydrated from the result
        store (zero recomputation); jobs that were queued or running
        re-enter the queue at their recorded attempt count.
        """
        if self.journal is None:
            return
        from repro.service.journal import recover

        with tracing.span("service.recover"):
            sweep = self.journal.sweep()
            recovered = recover(self.journal)
            # Store reads block (disk + fault point), so done payloads
            # are prefetched here and handed to restore() — never read
            # under the queue lock.
            payloads: Dict[str, Dict] = {}
            for rec in recovered.jobs:
                if rec.state != "done" or rec.result_key in payloads:
                    continue
                blob = self.store.peek(rec.result_key)
                if blob is not None:
                    payloads[rec.result_key] = json.loads(blob)
            restored = self.jobs.restore(recovered, payloads)
            self.journal.append_safe(
                "recovered",
                jobs=restored,
                replayed=recovered.replayed,
                torn=1 if recovered.torn else 0,
            )
            # Fold the tail into a fresh snapshot so the next crash
            # replays from here, and the swept log stays compact.
            self.journal.snapshot(self._gather_state)
            self.recovery = {
                "jobs": restored,
                "replayed": recovered.replayed,
                "torn": recovered.torn,
                "sweep": sweep,
            }

    def _maintenance_loop(self) -> None:
        while not self._maint_stop.wait(0.5):
            if self.journal is not None and self.journal.snapshot_due():
                self.journal.snapshot(self._gather_state)

    # Wiring ------------------------------------------------------------
    def _store_result(self, job, payload: Dict) -> bool:
        """Worker-pool completion hook: offer the payload for
        result-store residency."""
        return self.store.put(job.result_key, payload_bytes(payload))

    def submit(self, raw_spec: object) -> Tuple[Dict, int]:
        """Handle one submission; returns ``(body, http_status)``."""
        spec = normalise_spec(raw_spec)
        key = result_key(spec)
        stored = self.store.get(key)
        if stored is not None:
            job = self.jobs.add_cached(spec, key, json.loads(stored))
            body = job.as_dict()
            body["deduplicated"] = False
            return body, 200
        job, deduplicated = self.jobs.submit(spec, key)
        body = job.as_dict()
        body["deduplicated"] = deduplicated
        return body, 200 if deduplicated else 202

    def degraded(self) -> bool:
        """Whether the service is shedding: the pending queue sits at
        its depth bound, or the journal cannot durably record new
        work (disk quota / ``ENOSPC``)."""
        if self.journal is not None and self.journal.exhausted:
            return True
        limit = self.jobs.max_queue_depth
        return limit is not None and self.jobs.queue_depth() >= limit

    def retry_after(self) -> int:
        """The ``Retry-After`` hint (whole seconds) for shed
        submissions: how long one queue-slot's worth of work is
        expected to take, given the backlog and worker count, floored
        by the configured minimum."""
        depth = self.jobs.queue_depth()
        workers = max(self.pool.workers, 1)
        estimate = max(self.config.retry_after_floor, depth / workers * 0.1)
        return max(1, int(round(estimate)))

    def healthz(self) -> Dict:
        """The ``/v1/healthz`` body: liveness plus degradation state.

        Always HTTP 200 while the process serves — ``"degraded"`` means
        "alive but shedding new submissions", which load balancers
        should read as *back off*, not *restart me*.
        """
        return {
            "status": "degraded" if self.degraded() else "ok",
            "queue_depth": self.jobs.queue_depth(),
            "max_queue_depth": self.jobs.max_queue_depth,
            "storage_exhausted": bool(
                self.journal is not None and self.journal.exhausted
            ),
        }

    #: Raw stats key → registered counter name (the catalogued
    #: spellings are the only ones ``/v1/metrics`` serves — the old
    #: flat aliases are retired, see ``docs/OBSERVABILITY.md``).
    _JOB_COUNTERS = {
        "submitted": "jobs_submitted_total",
        "completed": "jobs_completed_total",
        "failed": "jobs_failed_total",
        "cancelled": "jobs_cancelled_total",
        "retries": "jobs_retried_total",
        "shed": "jobs_shed_total",
    }
    _STORE_COUNTERS = {
        "hits": "result_store_hits_total",
        "misses": "result_store_misses_total",
        "stores": "result_store_stores_total",
        "admission_rejects": "result_store_admission_rejects_total",
        "evictions": "result_store_evictions_total",
        "corrupt_quarantined": "result_store_corrupt_quarantined_total",
    }
    _JOURNAL_COUNTERS = {
        "records": "journal_records_total",
        "append_failures": "journal_append_failures_total",
        "snapshots": "journal_snapshots_total",
        "compactions": "journal_compactions_total",
        "replayed": "journal_replayed_records_total",
        "torn_truncated": "journal_torn_tail_truncated_total",
        "recovered_jobs": "journal_recovered_jobs_total",
    }

    def metric_samples(self) -> Dict[str, Dict[str, object]]:
        """Every metric as its ``metrics/v1`` entry, under registered
        names: counters end in ``_total``, sizes are bytes
        (``_bytes``), durations are seconds (``_seconds``)."""
        from repro import obs

        jobs = self.jobs.stats()
        store = self.store.stats()
        samples: Dict[str, Dict[str, object]] = {}
        for raw, name in self._JOB_COUNTERS.items():
            samples[name] = {"type": "counter", "value": jobs[raw]}
        for raw, name in self._STORE_COUNTERS.items():
            samples[name] = {"type": "counter", "value": store[raw]}
        limit = self.jobs.max_queue_depth
        gauges = {
            "jobs_queued": jobs["queued"],
            "jobs_running": jobs["running"],
            "queue_depth": jobs["queued"],
            "max_queue_depth": 0 if limit is None else limit,
            "result_store_entries": store["entries"],
            "result_store_capacity": store["capacity"],
            "result_store_size_bytes": store["size_bytes"],
            "workers": self.pool.workers,
            "degraded": 1 if self.degraded() else 0,
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }
        if self.journal is not None:
            journal = self.journal.stats()
            for raw, name in self._JOURNAL_COUNTERS.items():
                samples[name] = {"type": "counter", "value": journal[raw]}
            gauges["journal_size_bytes"] = journal["size_bytes"]
            gauges["journal_quota_bytes"] = journal["quota_bytes"]
            gauges["storage_exhausted"] = journal["exhausted"]
        for name, value in gauges.items():
            samples[name] = {"type": "gauge", "value": value}
        # Sweep board state (tracked sweeps).
        samples.update(self.sweeps.metric_samples())
        # Request counters/latency and worker attempts live in the
        # per-service registry; engine metrics (REPRO_OBS=1 in-process
        # runs) in the process-global one.
        samples.update(self.registry.samples())
        samples.update(obs.registry().samples())
        return {name: samples[name] for name in sorted(samples)}

    def metrics(self) -> Dict:
        """The ``/v1/metrics`` body: the versioned ``metrics/v1``
        object, nothing else.  The pre-catalog flat keys
        (``jobs_completed`` and friends) were aliased for exactly one
        release and are retired — consumers read
        ``metrics["<registered name>"]["value"]``."""
        from repro import __version__

        return {
            "schema": METRICS_SCHEMA,
            "version": __version__,
            "metrics": self.metric_samples(),
        }

    # Lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._httpd is None:
            return self.config.port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ReproService":
        """Bind the socket, start workers and the HTTP thread."""
        handler = _make_handler(self, quiet=self.config.quiet)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self.pool.start()
        if self.journal is not None and self._maint_thread is None:
            self._maint_stop.clear()
            self._maint_thread = threading.Thread(
                target=self._maintenance_loop,
                name="repro-service-journal",
                daemon=True,
            )
            self._maint_thread.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests, then stop the pool.

        ``drain=True`` finishes every accepted job first — the SIGTERM
        behaviour; ``drain=False`` cancels whatever is in flight.
        """
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self.pool.stop(drain=drain, timeout=timeout)
        if self._maint_thread is not None:
            self._maint_stop.set()
            self._maint_thread.join(timeout=5.0)
            self._maint_thread = None
        if self.journal is not None:
            # A parting snapshot makes the next startup's replay a
            # no-op tail; crashes skip this and replay instead.
            self.journal.snapshot(self._gather_state)
            self.journal.close()


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Run a service until SIGTERM/SIGINT, then drain gracefully.

    The blocking entry point behind ``repro-fvc serve``.
    """
    service = ReproService(config)
    stop_requested = threading.Event()

    def _on_signal(signum, _frame):  # pragma: no cover - signal path
        stop_requested.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)
    service.start()
    print(
        f"repro-fvc service on {service.url} "
        f"({service.pool.workers} workers, store at {service.store.directory})",
        flush=True,
    )
    if service.journal is not None and service.recovery is not None:
        print(
            f"journal at {service.journal.directory}: recovered "
            f"{service.recovery['jobs']} job(s), replayed "
            f"{service.recovery['replayed']} record(s)",
            flush=True,
        )
    try:
        while not stop_requested.wait(0.2):
            pass
    finally:
        print("draining: finishing accepted jobs ...", flush=True)
        service.stop(drain=True)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("stopped.", flush=True)
    return 0


# HTTP plumbing ---------------------------------------------------------
def _make_handler(service: ReproService, quiet: bool = True):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-fvc-service"

        # Responses ----------------------------------------------------
        def _send(
            self,
            status: int,
            body: bytes,
            content_type: str,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _json(
            self,
            status: int,
            payload: object,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            body = dumps_line(payload).encode()
            self._send(status, body, "application/json", headers=headers)

        def _error(
            self,
            status: int,
            message: str,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            self._json(status, {"error": message}, headers=headers)

        def _guard(self) -> bool:
            """The ``server.request`` fault point: every handler entry
            consults it; an injected failure answers 500 instead of
            touching any service state."""
            from repro.faults.sites import fault_point

            try:
                fault_point("server.request")
            except (FaultInjected, OSError) as exc:
                self._error(500, f"injected server fault: {exc}")
                return False
            return True

        # Routing ------------------------------------------------------
        def _route(self) -> Tuple[str, ...]:
            path = urlsplit(self.path).path
            return tuple(part for part in path.split("/") if part)

        def _query(self) -> Dict[str, str]:
            parsed = parse_qs(urlsplit(self.path).query)
            return {name: values[-1] for name, values in parsed.items()}

        def _dispatch(self, method: str, handler) -> None:
            """Every request: count it, time it, span it, handle it."""
            started = time.perf_counter()
            service.registry.counter("server_requests_total").inc()
            with tracing.span(
                "server.request",
                attrs={"method": method, "path": self.path},
            ):
                try:
                    handler()
                finally:
                    service.registry.histogram(
                        "server_request_seconds"
                    ).observe(time.perf_counter() - started)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("GET", self._handle_get)

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("POST", self._handle_post)

        def do_DELETE(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("DELETE", self._handle_delete)

        def _handle_get(self) -> None:
            if not self._guard():
                return
            route = self._route()
            if route == ("v1", "healthz"):
                self._json(200, service.healthz())
            elif route == ("v1", "metrics"):
                if self._query().get("format") == "prom":
                    body = prometheus_text(service.metric_samples())
                    self._send(
                        200, body.encode(), "text/plain; version=0.0.4"
                    )
                else:
                    self._json(200, service.metrics())
            elif route == ("v1", "jobs"):
                self._json(
                    200,
                    {
                        "jobs": [
                            job.as_dict(include_result=False)
                            for job in service.jobs.jobs()
                        ]
                    },
                )
            elif len(route) == 3 and route[:2] == ("v1", "jobs"):
                job = service.jobs.get(route[2])
                if job is None:
                    self._error(404, f"no such job: {route[2]}")
                else:
                    self._json(200, job.as_dict())
            elif len(route) == 3 and route[:2] == ("v1", "results"):
                payload = service.store.get(route[2])
                if payload is None:
                    self._error(404, f"no such result: {route[2]}")
                else:
                    self._send(200, payload, "application/json")
            elif route == ("v1", "sweeps"):
                self._json(200, {"sweeps": service.sweeps.views()})
            elif len(route) == 3 and route[:2] == ("v1", "sweeps"):
                view = service.sweeps.view(route[2], include_result=True)
                if view is None:
                    self._error(404, f"no such sweep: {route[2]}")
                else:
                    self._json(200, view)
            else:
                self._error(404, f"no such endpoint: {self.path}")

        def _read_json(self):
            """The request body as JSON, or ``None`` after answering
            400 (callers just return)."""
            try:
                length = int(self.headers.get("Content-Length", "0"))
                return json.loads(self.rfile.read(length) or b"null")
            except (ValueError, json.JSONDecodeError):
                self._error(400, "request body must be valid JSON")
                return None

        def _handle_post(self) -> None:
            if not self._guard():
                return
            route = self._route()
            if route == ("v1", "jobs"):
                raw = self._read_json()
                if raw is None:
                    return
                try:
                    body, status = service.submit(raw)
                except (QueueFullError, StorageExhausted) as exc:
                    # Both are the same overload contract: new work is
                    # rejected loudly with a back-off hint; accepted
                    # work and reads keep being served.
                    self._error(
                        503,
                        str(exc),
                        headers={"Retry-After": str(service.retry_after())},
                    )
                    return
                except ReproError as exc:
                    # SpecError, unknown experiments/workloads, bad
                    # geometry — all client mistakes.
                    self._error(400, str(exc))
                    return
                self._json(status, body)
            elif route == ("v1", "sweeps"):
                raw = self._read_json()
                if raw is None:
                    return
                try:
                    body, status = service.sweeps.submit(raw)
                except (QueueFullError, StorageExhausted) as exc:
                    # Same overload contract as /v1/jobs: the sweep's
                    # remaining cells are rejected loudly; re-POST the
                    # spec after backing off (idempotent).
                    self._error(
                        503,
                        str(exc),
                        headers={"Retry-After": str(service.retry_after())},
                    )
                    return
                except ReproError as exc:
                    # SweepSpecError and friends — client mistakes;
                    # the message names the sweep/v1 schema.
                    self._error(400, str(exc))
                    return
                self._json(status, body)
            else:
                self._error(404, f"no such endpoint: {self.path}")

        def _handle_delete(self) -> None:
            if not self._guard():
                return
            route = self._route()
            if len(route) == 3 and route[:2] == ("v1", "jobs"):
                job = service.jobs.cancel(route[2])
                if job is None:
                    self._error(404, f"no such job: {route[2]}")
                else:
                    self._json(202, job.as_dict(include_result=False))
            else:
                self._error(404, f"no such endpoint: {self.path}")

        def log_message(self, fmt: str, *args) -> None:
            if not quiet:  # pragma: no cover - debug aid
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

    return Handler
