"""Service-side sweeps: ``/v1/sweeps`` fan-out and assembly.

A posted ``sweep/v1`` spec expands server-side into its distinct
simulation cells, and every cell enters the service as an ordinary
job through :meth:`ReproService.submit` — so each cell gets the full
job contract for free: the result-store memo (a cell shared by two
sweeps, or already computed by a plain ``POST /v1/jobs``, is never
simulated twice), in-flight deduplication, the journaled queue and
crash recovery, and the worker pool's retry/timeout handling.

The sweep itself is *assembly state, not queue state*: the board
tracks which jobs make up each sweep and, once all of them are done,
assembles the ``sweep.result/1`` payload through the exact pure
function the local runner uses (:func:`repro.sweeps.runner
.sweep_payload`) and offers it to the result store under the sweep's
result key.  A served sweep's bytes are therefore identical to a
local ``run_sweep``'s, and a re-posted sweep whose payload is still
resident is answered without touching the queue at all.  After a
service crash the sweep *jobs* recover from the journal; the
board's mapping does not — re-POST the spec (idempotent, content
addressed) to resume tracking, and every finished cell is answered
from the store.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.service.api import payload_bytes
from repro.service.jobs import CANCELLED, DONE, FAILED
from repro.sweeps.expand import SweepPoint, expand, unique_cells
from repro.sweeps.runner import snapshots_for, sweep_payload
from repro.sweeps.spec import normalise_sweep, sweep_id, sweep_result_key

#: Cell-spec fields, SimCell order (mirrors repro.service.api).
_CELL_FIELDS = (
    "workload",
    "input_name",
    "kind",
    "size_bytes",
    "line_bytes",
    "ways",
    "fvc_entries",
    "top_values",
)


class _SweepRecord:
    """Book-keeping for one tracked sweep (immutable after creation
    except for the assembly fields, which the board lock guards)."""

    def __init__(
        self,
        spec: Dict[str, object],
        points: List[SweepPoint],
        job_ids: List[str],
        job_keys: List[str],
    ) -> None:
        self.spec = spec
        self.sweep_id = sweep_id(spec)
        self.result_key = sweep_result_key(spec)
        self.points = points
        #: Distinct-cell job ids / result keys, expansion first-use
        #: order.
        self.job_ids = job_ids
        self.job_keys = job_keys
        #: Assembled payload, set exactly once (board lock).
        self.payload: Optional[Dict[str, object]] = None
        #: Whether the assembled payload won result-store admission.
        self.stored: Optional[bool] = None
        self.counted_done = False


class SweepBoard:
    """Tracks posted sweeps and assembles their results.

    Thread-safe; HTTP threads share one instance.  The lock guards
    only the record table and assembly publication — job submission
    and store IO happen outside it.
    """

    def __init__(self, service) -> None:
        self._service = service
        self._lock = threading.Lock()
        self._records: Dict[str, _SweepRecord] = {}
        self._order: List[str] = []

    # Submission --------------------------------------------------------
    def _cell_spec(self, cell) -> Dict[str, object]:
        spec: Dict[str, object] = {"type": "cell"}
        spec.update((name, getattr(cell, name)) for name in _CELL_FIELDS)
        return spec

    def _submit_jobs(
        self, points: List[SweepPoint]
    ) -> Tuple[List[str], List[str]]:
        """Enqueue the sweep's distinct cells as ordinary jobs; returns
        their ids and result keys in expansion first-use order."""
        registry = self._service.registry
        job_ids: List[str] = []
        job_keys: List[str] = []
        distinct = unique_cells(points)
        registry.counter("sweep_cells_expanded_total").inc(len(distinct))
        for cell in distinct:
            body, _status = self._service.submit(self._cell_spec(cell))
            if body.get("cached") or body.get("deduplicated"):
                registry.counter("sweep_cells_reused_total").inc()
            job_ids.append(body["id"])
            job_keys.append(body["result_key"])
        return job_ids, job_keys

    def submit(self, raw: object) -> Tuple[Dict[str, object], int]:
        """Handle ``POST /v1/sweeps``; returns ``(body, status)``.

        Idempotent by content address: re-posting a known sweep (or
        one whose assembled payload is resident in the result store)
        answers 200 with its current view; a new sweep fans out and
        answers 202.  Raises the queue's overload errors unchanged so
        the HTTP layer applies the one 503 + ``Retry-After`` contract.
        """
        spec = normalise_sweep(raw)
        sid = sweep_id(spec)
        with self._lock:
            existing = self._records.get(sid)
        if existing is not None:
            return self.view(sid), 200
        self._service.registry.counter("sweeps_submitted_total").inc()
        stored = self._service.store.get(sweep_result_key(spec))
        if stored is not None:
            record = _SweepRecord(spec, [], [], [])
            record.payload = json.loads(stored)
            record.counted_done = True
            self._publish(sid, record)
            return self.view(sid), 200
        points = expand(spec)
        job_ids, job_keys = self._submit_jobs(points)
        record = _SweepRecord(spec, points, job_ids, job_keys)
        self._publish(sid, record)
        return self.view(sid), 202

    def _publish(self, sid: str, record: _SweepRecord) -> None:
        """First writer wins; a concurrent duplicate submission left
        only idempotent job submissions behind."""
        with self._lock:
            if sid not in self._records:
                self._records[sid] = record
                self._order.append(sid)

    # Views -------------------------------------------------------------
    def _job_states(self, record: _SweepRecord) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job_id in record.job_ids:
            job = self._service.jobs.get(job_id)
            state = job.state if job is not None else "unknown"
            counts[state] = counts.get(state, 0) + 1
        return {state: counts[state] for state in sorted(counts)}

    def _job_payload(
        self, job_id: str, job_key: str
    ) -> Optional[Dict[str, object]]:
        job = self._service.jobs.get(job_id)
        if job is not None and job.state == DONE and job.payload is not None:
            return job.payload
        blob = self._service.store.peek(job_key)
        if blob is not None:
            return json.loads(blob)
        return None

    def _assemble(self, record: _SweepRecord) -> Optional[Dict[str, object]]:
        """Build the sweep payload once every job is done; ``None``
        while work is still outstanding."""
        payloads = []
        for job_id, job_key in zip(record.job_ids, record.job_keys):
            payload = self._job_payload(job_id, job_key)
            if payload is None:
                return None
            payloads.append(payload)
        by_cell = {}
        distinct = unique_cells(record.points)
        for cell, payload in zip(distinct, payloads):
            by_cell[cell] = (payload["stats"], payload["extras"])
        return sweep_payload(
            record.spec,
            record.points,
            snapshots_for(record.points, by_cell),
            len(distinct),
        )

    def _state(self, record: _SweepRecord, states: Dict[str, int]) -> str:
        if record.payload is not None:
            return DONE
        if states.get(FAILED):
            return FAILED
        if states.get(CANCELLED):
            return CANCELLED
        return "running"

    def view(
        self, sid: str, include_result: bool = False
    ) -> Optional[Dict[str, object]]:
        """The ``sweep.view/1`` body for one sweep, or ``None``."""
        with self._lock:
            record = self._records.get(sid)
        if record is None:
            return None
        states = self._job_states(record)
        if record.payload is None and not (
            states.get(FAILED) or states.get(CANCELLED)
        ):
            done = states.get(DONE, 0)
            if record.job_ids and done == len(record.job_ids):
                assembled = self._assemble(record)
                if assembled is not None:
                    stored = self._service.store.put(
                        record.result_key,
                        payload_bytes(assembled),
                    )
                    with self._lock:
                        if record.payload is None:
                            record.payload = assembled
                            record.stored = stored
                        if not record.counted_done:
                            record.counted_done = True
                            self._service.registry.counter(
                                "sweeps_completed_total"
                            ).inc()
        state = self._state(record, states)
        if state == FAILED:
            with self._lock:
                if not record.counted_done:
                    record.counted_done = True
                    self._service.registry.counter(
                        "sweeps_failed_total"
                    ).inc()
        body: Dict[str, object] = {
            "schema": "sweep.view/1",
            "sweep_id": record.sweep_id,
            "name": record.spec["name"],
            "result_key": record.result_key,
            "state": state,
            "points": len(record.points)
            if record.points
            else (record.payload or {}).get("points", 0),
            "distinct_cells": len(record.job_ids)
            if record.job_ids
            else (record.payload or {}).get("distinct_cells", 0),
            "jobs": states,
        }
        if include_result and record.payload is not None:
            body["result"] = record.payload
        return body

    def views(self) -> List[Dict[str, object]]:
        """Every tracked sweep, submission order (``GET /v1/sweeps``)."""
        with self._lock:
            order = list(self._order)
        views = []
        for sid in order:
            view = self.view(sid)
            if view is not None:
                views.append(view)
        return views

    def metric_samples(self) -> Dict[str, Dict[str, object]]:
        """Gauge snapshot for ``/v1/metrics``."""
        with self._lock:
            tracked = len(self._records)
        return {"sweeps_tracked": {"type": "gauge", "value": tracked}}
