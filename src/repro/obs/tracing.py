"""Structured tracing: lightweight, deterministic, DET003-safe spans.

A span covers one unit of observable work — an engine cell, a
trace-cache resolution, a checkpoint record write, a worker job
attempt, a served HTTP request — and records its parentage, timing and
attributes as one line of canonical JSONL.

Design constraints, in order:

* **Determinism of identity.**  Span ids are sha256 digests over
  ``(parent id, span name, span key)`` — no wall clock, no ``uuid``, no
  process ids.  A span given a content-derived key (a cell's field
  tuple, a job's result key) therefore has the *same id in every run
  and every process*, which is what lets the test suite compare the
  span set of a ``--jobs 4`` run against a ``--jobs 1`` run.  Unkeyed
  spans fall back to an arrival ordinal, deterministic within one
  process.
* **Monotonic clocks only.**  Timing fields come from
  ``time.perf_counter`` relative to the tracer's epoch; DET003 (no wall
  clock in sim code) holds with tracing enabled.
* **Zero cost when off.**  :func:`span` resolves the active tracer the
  same way the fault plan resolves (:mod:`repro.faults.sites`): a
  module global, lazily read from ``REPRO_OBS_TRACE`` so pool workers
  and service children inherit enablement from the environment.  With
  no tracer installed the context manager is a shared no-op singleton.
* **Multi-process safe output.**  Spans buffer per process and flush
  whenever a root span closes, as one ``write()`` of whole lines to the
  file opened in append mode — concurrent writers interleave at line
  granularity, never inside a line.

The JSONL spelling is the repo's canonical single-line form
(:func:`repro.experiments.render.dumps_line`): sorted keys, one span
per line.  Identity fields (``span_id``, ``parent_id``, ``name``,
``key``) are deterministic; timing fields (``start_us``,
``duration_us``) are measurements and vary run to run.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Dict, List, Optional

#: Environment variable naming the JSONL file spans are appended to.
#: Setting it (``run --trace-out`` does) enables tracing in this
#: process and every child it spawns.
ENV_VAR = "REPRO_OBS_TRACE"

#: Schema tag stamped on every span line.
SPAN_SCHEMA = "repro.span/1"


def span_id(name: str, key: str, parent_id: Optional[str]) -> str:
    """Deterministic span identity: sha256 over parentage, name, key."""
    material = f"span|{parent_id or ''}|{name}|{key}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class Span:
    """One open (then closed) span.  Mutate ``attrs`` freely while the
    span is open; add point-in-time events with :meth:`add_event`."""

    __slots__ = (
        "name", "key", "span_id", "parent_id", "attrs", "events",
        "start_us", "duration_us", "_children",
    )

    def __init__(
        self,
        name: str,
        key: str,
        parent_id: Optional[str],
        start_us: int,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.key = key
        self.span_id = span_id(name, key, parent_id)
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.events: List[Dict[str, object]] = []
        self.start_us = start_us
        self.duration_us = 0
        self._children = 0

    def add_event(self, name: str, **fields: object) -> None:
        """Attach a point-in-time event to this span."""
        event: Dict[str, object] = {"name": name}
        event.update(fields)
        self.events.append(event)

    def record(self) -> Dict[str, object]:
        """The span's JSONL record (plain JSON types only)."""
        return {
            "schema": SPAN_SCHEMA,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "key": self.key,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "attrs": self.attrs,
            "events": self.events,
        }


class _NullSpanContext:
    """The shared do-nothing context :func:`span` returns when tracing
    is off; yields ``None`` so call sites can guard attr updates."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager binding one span to the tracer's thread stack."""

    __slots__ = ("_tracer", "_span", "_started")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._started = 0.0

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._started = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._started
        self._span.duration_us = int(elapsed * 1_000_000)
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Per-process span collector appending canonical JSONL to one file.

    Thread-safe: each thread keeps its own span stack (nesting is a
    per-thread notion); the output buffer is shared and flushed under a
    lock whenever a thread's root span closes.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._root_ordinal = 0
        self._epoch = time.perf_counter()
        self.spans_recorded = 0

    # Stack plumbing ----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _now_us(self) -> int:
        return int((time.perf_counter() - self._epoch) * 1_000_000)

    def span(
        self,
        name: str,
        key: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> _SpanContext:
        """Open a child of the current span (or a root span).

        ``key`` should be content-derived (cell fields, result keys)
        wherever the span must carry the same id across runs and
        processes; unkeyed spans get an arrival ordinal.
        """
        parent = self.current()
        parent_id = parent.span_id if parent is not None else None
        if key is None:
            if parent is not None:
                parent._children += 1
                key = f"#{parent._children}"
            else:
                with self._lock:
                    self._root_ordinal += 1
                    key = f"#{self._root_ordinal}"
        span = Span(name, key, parent_id, self._now_us(), attrs)
        return _SpanContext(self, span)

    def event(self, name: str, **fields: object) -> None:
        """Attach an event to the innermost open span (no-op when no
        span is open on this thread)."""
        current = self.current()
        if current is not None:
            current.add_event(name, **fields)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        line = _render_line(span.record())
        with self._lock:
            self._buffer.append(line)
            self.spans_recorded += 1
        if not stack:
            self.flush()

    def after_fork(self) -> None:
        """Make a forked child's copy of this tracer its own.

        The child keeps its thread's open span stack — so its spans stay
        parented to the span that forked it — but drops the buffer,
        whose lines belong to the parent and would be written twice,
        and replaces the lock, which another parent thread may have
        held at the fork.  The child's spans close under an inherited
        open span, so it must :meth:`flush` before it exits.
        """
        self._lock = threading.Lock()
        self._buffer = []

    # Output ------------------------------------------------------------
    def flush(self) -> None:
        """Append every buffered span line to the file in one write."""
        with self._lock:
            if not self._buffer:
                return
            chunk = "".join(self._buffer)
            self._buffer = []
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(chunk)


def _render_line(record: Dict[str, object]) -> str:
    # Imported lazily: render pulls in the experiment stack, which the
    # rare flush path may pay for but module import must not.
    from repro.experiments.render import dumps_line

    return dumps_line(record)


# The active tracer -----------------------------------------------------
_UNRESOLVED = object()
_active = _UNRESOLVED


def install(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` (or ``None``) as this process's tracer."""
    global _active
    _active = tracer


def reset() -> None:
    """Forget the active tracer; the next :func:`active` re-reads
    ``REPRO_OBS_TRACE``.  Test plumbing."""
    global _active
    _active = _UNRESOLVED


def active() -> Optional[Tracer]:
    """The process-wide tracer, resolved lazily from ``REPRO_OBS_TRACE``
    on first use (child processes therefore inherit enablement)."""
    global _active
    if _active is _UNRESOLVED:
        path = os.environ.get(ENV_VAR, "").strip()
        _active = Tracer(path) if path else None
    return _active


def span(
    name: str,
    key: Optional[str] = None,
    attrs: Optional[Dict[str, object]] = None,
):
    """Open a span on the active tracer; a shared no-op context (which
    yields ``None``) when tracing is off."""
    tracer = active()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, key, attrs)


def event(name: str, **fields: object) -> None:
    """Attach an event to the current span of the active tracer, if
    any.  Free when tracing is off."""
    tracer = active()
    if tracer is not None:
        tracer.event(name, **fields)
