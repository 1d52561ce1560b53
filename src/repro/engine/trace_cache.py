"""Content-addressed, disk-persistent trace cache.

Workload traces are pure functions of ``(workload, input, data seed)``,
so they can be persisted once per machine and shared by every
experiment, benchmark and worker process.  Entries are trace file
bytes (:func:`repro.trace.io.trace_to_bytes`), zlib-
compressed and wrapped in a sha256 integrity envelope
(:mod:`repro.common.integrity`), under a directory resolved as:

1. ``$REPRO_TRACE_CACHE_DIR`` when set;
2. ``$XDG_CACHE_HOME/repro-fvc/traces`` when ``XDG_CACHE_HOME`` is set;
3. ``~/.cache/repro-fvc/traces`` otherwise.

``REPRO_TRACE_CACHE=off`` (also ``0``/``no``/``false``) disables disk
persistence entirely — :func:`default_trace_cache` then returns ``None``
and the in-process LRU (:class:`repro.workloads.store.TraceStore`) is
the only caching layer.

The file name is content-addressed: a SHA-256 digest over the workload
name, input name, the input's data seed, and
:data:`TRACE_CACHE_VERSION`.  Bump the version constant whenever
workload generation or the entry layout changes semantically — stale
entries then simply stop being addressed and can be removed with
``repro-fvc cache clear``.

Corrupt entries (failed envelope check, undecodable payload) are never
served and never silently swallowed: :meth:`TraceCache.load`
quarantines them as ``<name>.corrupt`` for post-mortem inspection and
reports a miss, so the caller regenerates and re-persists a good entry
— the cache self-heals.  ``repro-fvc cache verify`` runs the same
check over every entry without serving any.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.common.errors import IntegrityError, TraceFormatError
from repro.common.integrity import (
    CORRUPT_SUFFIX,
    quarantine,
    read_enveloped,
    write_enveloped,
)
from repro.trace.io import (
    trace_from_bytes,
    trace_header_from_bytes,
    trace_to_bytes,
)
from repro.trace.trace import Trace

#: Bump to invalidate every persisted trace (e.g. after changing
#: workload generation semantically).  Part of every entry's content
#: address.
TRACE_CACHE_VERSION = 2

#: Entry file suffix.
ENTRY_SUFFIX = ".trcbe"

#: Suffixes of entries in the row formats of earlier releases.  They are
#: never read (the content address then just regenerates); ``clear``
#: still removes them.
_RETIRED_SUFFIXES = (".trc2e", ".trc2.gz")

_DISABLE_VALUES = ("off", "0", "no", "false")


def default_cache_dir() -> Path:
    """The trace-cache directory the environment selects."""
    env = os.environ.get("REPRO_TRACE_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-fvc" / "traces"


def default_trace_cache() -> Optional["TraceCache"]:
    """A :class:`TraceCache` over the default directory, or ``None``
    when ``REPRO_TRACE_CACHE`` disables persistence."""
    if os.environ.get("REPRO_TRACE_CACHE", "").lower() in _DISABLE_VALUES:
        return None
    return TraceCache(default_cache_dir())


class TraceCache:
    """Disk-persistent store of generated traces.

    :meth:`load_or_generate` resolves a trace through two layers: the
    on-disk entry, then workload synthesis (which persists the result
    for every later process on the machine).  The in-process layer is
    :class:`repro.workloads.store.TraceStore`.  The counters
    ``disk_hits`` / ``synthesised`` / ``stores`` /
    ``corrupt_quarantined`` make each layer's contribution observable.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.disk_hits = 0
        self.synthesised = 0
        self.stores = 0
        self.corrupt_quarantined = 0

    # Content addressing ----------------------------------------------
    def _data_seed(self, workload_name: str, input_name: str) -> int:
        from repro.workloads.registry import get_workload

        return get_workload(workload_name).input_named(input_name).data_seed

    def key(self, workload_name: str, input_name: str = "ref") -> str:
        """The content hash addressing one ``(workload, input)`` trace."""
        seed = self._data_seed(workload_name, input_name)
        material = (
            f"fvtr|v{TRACE_CACHE_VERSION}|{workload_name}|{input_name}|"
            f"seed={seed}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:20]

    def path_for(self, workload_name: str, input_name: str = "ref") -> Path:
        """On-disk location of one entry (may not exist yet)."""
        digest = self.key(workload_name, input_name)
        return (
            self.directory
            / f"{workload_name}-{input_name}-{digest}{ENTRY_SUFFIX}"
        )

    # Individual layers ------------------------------------------------
    def _quarantine(self, path: Path) -> None:
        quarantine(path)
        self.corrupt_quarantined += 1
        if obs.enabled():
            obs.registry().counter(
                "trace_cache_corrupt_quarantined_total"
            ).inc()

    def load(self, workload_name: str, input_name: str = "ref") -> Optional[Trace]:
        """Read one entry from disk, or ``None`` when absent/corrupt.

        A corrupt entry (truncated write that escaped the rename
        discipline, bit rot, tampering) is quarantined as
        ``<name>.corrupt`` — not unlinked, not served — and reported as
        a miss so the caller regenerates it.
        """
        path = self.path_for(workload_name, input_name)
        if not path.exists():
            return None
        try:
            payload = read_enveloped(path, site="trace_cache.read")
            trace = trace_from_bytes(zlib.decompress(payload), source=str(path))
        except (IntegrityError, TraceFormatError, zlib.error, EOFError):
            self._quarantine(path)
            return None
        except OSError:
            return None
        self.disk_hits += 1
        if obs.enabled():
            obs.registry().counter("trace_cache_disk_hits_total").inc()
        return trace

    def store(self, trace: Trace) -> Path:
        """Persist ``trace`` (enveloped; atomic temp + fsync + rename)."""
        from repro.obs import tracing

        path = self.path_for(trace.workload, trace.input_name)
        with tracing.span(
            "trace_cache.store",
            key=f"{trace.workload}/{trace.input_name}",
        ):
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = zlib.compress(trace_to_bytes(trace), 6)
            write_enveloped(path, payload, site="trace_cache.write")
        self.stores += 1
        if obs.enabled():
            obs.registry().counter("trace_cache_stores_total").inc()
        return path

    def load_or_generate(
        self, workload_name: str, input_name: str = "ref"
    ) -> Trace:
        """Read the entry, synthesising and persisting it on a miss."""
        from repro.obs import tracing

        with tracing.span(
            "trace_cache.load",
            key=f"{workload_name}/{input_name}",
        ) as span:
            trace = self.load(workload_name, input_name)
            if trace is not None:
                if span is not None:
                    span.attrs["outcome"] = "disk_hit"
                return trace
            from repro.workloads.registry import get_workload

            trace = get_workload(workload_name).generate_trace(input_name)
            self.synthesised += 1
            if obs.enabled():
                obs.registry().counter("trace_cache_synthesised_total").inc()
            if span is not None:
                span.attrs["outcome"] = "synthesised"
            try:
                self.store(trace)
            except OSError:
                pass  # read-only cache dir: serve the trace uncached
        return trace

    def ensure(self, workload_name: str, input_name: str = "ref") -> Path:
        """Guarantee the on-disk entry exists (parallel-run pre-warm)."""
        path = self.path_for(workload_name, input_name)
        if not path.exists():
            self.load_or_generate(workload_name, input_name)
        return path

    # Introspection / maintenance --------------------------------------
    def entries(self) -> List[Tuple[Path, str, str, int]]:
        """All valid entries as ``(path, workload, input, records)``."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self._entry_paths():
            try:
                payload = read_enveloped(path)
                _, workload, input_name, count, _ = trace_header_from_bytes(
                    zlib.decompress(payload), source=str(path)
                )
            except (IntegrityError, TraceFormatError, zlib.error, OSError, EOFError):
                continue
            found.append((path, workload, input_name, count))
        return found

    def _entry_paths(self):
        return sorted(self.directory.glob(f"*{ENTRY_SUFFIX}"))

    def verify(self) -> Dict[str, int]:
        """Check every entry's envelope and payload without serving any.

        Corrupt entries are quarantined as ``<name>.corrupt``; stale
        ``*.tmp`` droppings from killed writers are swept.  Returns
        ``{"checked", "ok", "quarantined", "tmp_removed"}``.
        """
        checked = ok = quarantined = tmp_removed = 0
        if not self.directory.is_dir():
            return {
                "checked": 0, "ok": 0, "quarantined": 0, "tmp_removed": 0,
            }
        for path in self._entry_paths():
            checked += 1
            try:
                payload = read_enveloped(path)
                trace_header_from_bytes(
                    zlib.decompress(payload), source=str(path)
                )
            except (IntegrityError, TraceFormatError, zlib.error, EOFError):
                self._quarantine(path)
                quarantined += 1
            except OSError:
                continue
            else:
                ok += 1
        for stale in sorted(self.directory.glob("*.tmp")):
            try:
                stale.unlink()
                tmp_removed += 1
            except OSError:
                pass
        return {
            "checked": checked,
            "ok": ok,
            "quarantined": quarantined,
            "tmp_removed": tmp_removed,
        }

    def clear(self) -> int:
        """Delete every entry (including quarantined ones and those of
        earlier releases); returns the number removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for suffix in (ENTRY_SUFFIX, CORRUPT_SUFFIX, *_RETIRED_SUFFIXES):
            for path in self.directory.glob(f"*{suffix}"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, int]:
        """Layer-by-layer resolution counters."""
        return {
            "disk_hits": self.disk_hits,
            "synthesised": self.synthesised,
            "stores": self.stores,
            "corrupt_quarantined": self.corrupt_quarantined,
        }

    def __repr__(self) -> str:
        return (
            f"TraceCache({self.directory}, "
            f"disk={self.disk_hits}, synth={self.synthesised})"
        )
