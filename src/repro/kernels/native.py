"""The compiled replay core: built on first use, loaded through ctypes.

``replay.c`` transliterates the oracle's record loops —
``DirectMappedCache``/``SetAssociativeCache.simulate_batch``,
``FvcSystem.simulate_batch`` with the default configuration, and
``classify_misses`` — so its counters equal the oracle's by
construction, for every trace and every geometry.  This module compiles
it the first time a cell replays (never at import), caches the shared
library, and wraps the three entry points in typed calls over the
columnar layers of :mod:`repro.kernels.columnar`.

Build and cache:

* the compiler is the first of ``cc``/``gcc`` on ``PATH``, run as
  ``cc -O2 -shared -fPIC``;
* the library is named by the sha256 of the source, the flags and the
  platform tag, and lives beside the default trace cache:
  ``$XDG_CACHE_HOME/repro-fvc/native/`` (``~/.cache/repro-fvc/native/``
  without ``XDG_CACHE_HOME``), next to a ``.sha256`` file holding the
  digest of the library's bytes;
* a build compiles into an ``mkstemp`` name and renames it into place,
  so concurrent builders (service job children, pool workers) each
  publish a complete file;
* a cached library whose bytes do not match its digest is rebuilt and
  never loaded;
* when the cache directory is unwritable, the build goes to a
  per-process temporary directory, removed once the library is loaded.

With no compiler, or a failed build, :func:`load` reports the reason
(``no_compiler`` / ``build_failed``) and every cell replays the Python
oracle — exactly as it does without numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cache.classify import MissClassification
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.fvc.encoding import FrequentValueEncoder
from repro.kernels.columnar import line_index, require_numpy, trace_columns
from repro.trace.trace import Trace

#: The C source of the replay core.
SOURCE = Path(__file__).with_name("replay.c")
#: Compiler flags; part of the library's content address.
CFLAGS = ("-O2", "-shared", "-fPIC")
#: Compilers tried, in order, on ``PATH``.
COMPILERS = ("cc", "gcc")
#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT = 120


class NativeUnavailable(Exception):
    """The core cannot be built or loaded; ``reason`` says why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def find_compiler() -> Optional[str]:
    """Path of the C compiler builds use, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    """Where built libraries are cached (beside the default trace cache)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-fvc" / "native"


def library_name(source: bytes) -> str:
    """Content-addressed file name of the library built from ``source``."""
    digest = hashlib.sha256()
    for part in (source, " ".join(CFLAGS).encode(), sysconfig.get_platform().encode()):
        digest.update(part)
        digest.update(b"\0")
    return f"replay-{digest.hexdigest()[:16]}.so"


def _digest_path(library: Path) -> Path:
    return library.with_suffix(".sha256")


def _verified(library: Path) -> bool:
    """Whether ``library`` exists and matches its recorded digest."""
    try:
        recorded = _digest_path(library).read_text(encoding="ascii").strip()
        data = library.read_bytes()
    except OSError:
        return False
    return hashlib.sha256(data).hexdigest() == recorded


def _publish(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _build(library: Path) -> None:
    """Compile :data:`SOURCE` and publish it as ``library`` plus digest.

    Raises :class:`NativeUnavailable` for a missing compiler or a failed
    compile, and ``OSError`` when the directory cannot be written.
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable("no_compiler")
    library.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(library.parent), prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        try:
            result = subprocess.run(
                [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True,
                timeout=BUILD_TIMEOUT,
            )
        except (OSError, subprocess.TimeoutExpired):
            raise NativeUnavailable("build_failed") from None
        if result.returncode != 0:
            raise NativeUnavailable("build_failed")
        with open(tmp, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        os.replace(tmp, library)
        _publish(_digest_path(library), digest.encode("ascii") + b"\n")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(library: Path) -> "NativeCore":
    try:
        return NativeCore(ctypes.CDLL(str(library)))
    except OSError:
        raise NativeUnavailable("build_failed") from None


def _load() -> "NativeCore":
    try:
        name = library_name(SOURCE.read_bytes())
    except OSError:
        raise NativeUnavailable("build_failed") from None
    library = cache_dir() / name
    if _verified(library):
        return _open(library)
    try:
        _build(library)
    except OSError:
        # Unwritable cache: build privately; a loaded library outlives
        # its file, so the directory goes right away.
        scratch = Path(tempfile.mkdtemp(prefix="repro-fvc-native-"))
        try:
            _build(scratch / name)
            return _open(scratch / name)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return _open(library)


#: ``None`` until the first :func:`load`, then ``(core, reason)``.
_loaded: Optional[Tuple[Optional["NativeCore"], Optional[str]]] = None


def load() -> Tuple[Optional["NativeCore"], Optional[str]]:
    """``(core, None)``, or ``(None, reason)`` when the core is
    unavailable in this process.

    The outcome is remembered for the life of the process.  No lock is
    held across the build: two threads racing the first load may both
    build, and since each publishes by an atomic rename, either core
    serves.
    """
    global _loaded
    if _loaded is None:
        try:
            _loaded = (_load(), None)
        except NativeUnavailable as exc:
            _loaded = (None, exc.reason)
    return _loaded


def reset() -> None:
    """Forget the loaded core; the next :func:`load` looks again.
    Test plumbing."""
    global _loaded
    _loaded = None


def _pointer(np, array, dtype, length: int) -> int:
    """The address of ``array`` after checking what C will read."""
    if array.dtype != dtype or not array.flags.c_contiguous or len(array) != length:
        raise ValueError(
            f"native replay needs {length} contiguous {np.dtype(dtype)}, got "
            f"{len(array)} {array.dtype}"
        )
    return array.ctypes.data


class NativeCore:
    """Typed calls into a loaded replay library.

    Every call takes any trace (its type guarantees the 32-bit domain);
    the caller checks the configuration first.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        ptr, i64, u32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint32
        lib.repro_lru.argtypes = (i64, ptr, ptr, ptr, u32, u32, u32, ptr)
        lib.repro_classify.argtypes = (i64, ptr, ptr, ptr, i64, u32, u32, u32, ptr)
        lib.repro_fvc.argtypes = (
            i64, ptr, ptr, ptr, ptr, i64, ptr, u32, u32, u32, u32, ptr, u32, u32, ptr,
        )
        for function in (lib.repro_lru, lib.repro_classify, lib.repro_fvc):
            function.restype = ctypes.c_int
        self._lib = lib

    def _columns(self, trace: Trace, geometry: CacheGeometry):
        np = require_numpy()
        cols = trace_columns(trace)
        li = line_index(trace, geometry.line_shift)
        n = cols.n
        return np, cols, li, (
            _pointer(np, cols.ops, np.uint8, n),
            _pointer(np, cols.addrs, np.uint32, n),
            _pointer(np, li.lid, np.uint32, n),
        )

    @staticmethod
    def _check(rc: int) -> None:
        if rc != 0:
            raise MemoryError("native replay could not allocate its state")

    def baseline(self, trace: Trace, geometry: CacheGeometry) -> CacheStats:
        """Statistics of a direct-mapped or set-associative LRU cache."""
        np, cols, _, (ops, addrs, lid) = self._columns(trace, geometry)
        out = np.zeros(len(CacheStats.__slots__), dtype=np.int64)
        self._check(self._lib.repro_lru(
            cols.n, ops, addrs, lid, geometry.line_shift, geometry.num_sets,
            geometry.ways, out.ctypes.data,
        ))
        return _stats(out)

    def fvc(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        fvc_entries: int,
        encoder: FrequentValueEncoder,
    ) -> Tuple[CacheStats, Dict[str, int]]:
        """Statistics and hit breakdown of a cache + direct-mapped FVC."""
        np, cols, li, (ops, addrs, lid) = self._columns(trace, geometry)
        nlines = len(li.luniq)
        lines = _pointer(np, li.luniq, np.uint32, nlines)
        freq = np.asarray(encoder.values, dtype=np.uint32)
        out = np.zeros(len(CacheStats.__slots__) + 3, dtype=np.int64)
        self._check(self._lib.repro_fvc(
            cols.n, ops, addrs, _pointer(np, cols.values, np.uint32, cols.n), lid,
            nlines, lines, geometry.line_shift, geometry.num_sets, geometry.ways,
            fvc_entries, freq.ctypes.data, len(freq), encoder.code_bits,
            out.ctypes.data,
        ))
        main_hits, read_hits, write_hits = out[-3:].tolist()
        extras = {
            "main_hits": main_hits,
            "fvc_hits": read_hits + write_hits,
            "fvc_read_hits": read_hits,
            "fvc_write_hits": write_hits,
        }
        return _stats(out), extras

    def classify(self, trace: Trace, geometry: CacheGeometry) -> MissClassification:
        """3C classification against a same-size fully-associative LRU."""
        np, cols, li, (ops, addrs, lid) = self._columns(trace, geometry)
        out = np.zeros(4, dtype=np.int64)
        self._check(self._lib.repro_classify(
            cols.n, ops, addrs, lid, len(li.luniq), geometry.line_shift,
            geometry.num_sets, geometry.ways, out.ctypes.data,
        ))
        accesses, compulsory, capacity, conflict = out.tolist()
        return MissClassification(
            accesses=accesses,
            compulsory=compulsory,
            capacity=capacity,
            conflict=conflict,
        )


def _stats(out) -> CacheStats:
    """The first eight output slots, in the order ``replay.c`` writes."""
    stats = CacheStats()
    (
        stats.read_hits,
        stats.read_misses,
        stats.write_hits,
        stats.write_misses,
        stats.fills,
        stats.writebacks,
        stats.fill_words,
        stats.writeback_words,
    ) = out[:8].tolist()
    return stats
