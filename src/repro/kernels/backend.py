"""``REPRO_BACKEND`` resolution: which replay path a process uses.

The switch travels through the environment — like ``REPRO_SANITIZE``
and ``REPRO_FAULTS`` — so pool workers and service children spawned by
``run --jobs N`` resolve the same backend as their parent without any
extra plumbing.  Resolution is re-evaluated on every call (it is two
dict lookups), so tests can flip the variable per case.

Values:

======== =======================================================
python   always the pure-Python oracle simulators
numpy    the fast path (error when numpy is not importable)
auto     the fast path when numpy imports, oracle otherwise (default)
======== =======================================================
"""

from __future__ import annotations

import os
from typing import Optional

from repro.common.errors import ConfigurationError

#: Environment variable naming the replay backend.
ENV_VAR = "REPRO_BACKEND"

_VALID = ("auto", "python", "numpy")

#: Cached numpy probe: ``None`` until first use, then the module or
#: ``False``.  The probe is an import, so caching it matters; the
#: *choice* between backends stays per-call.
_numpy_probe = None


def numpy_or_none():
    """The numpy module when importable, else ``None`` (cached)."""
    global _numpy_probe
    if _numpy_probe is None:
        try:
            import numpy
        except ImportError:
            _numpy_probe = False
        else:
            _numpy_probe = numpy
    return _numpy_probe if _numpy_probe is not False else None


def numpy_available() -> bool:
    """Whether the vectorized backend can run in this process."""
    return numpy_or_none() is not None


def resolve_backend(value: Optional[str] = None) -> str:
    """Resolve a backend name to ``"python"`` or ``"numpy"``.

    ``value`` defaults to ``$REPRO_BACKEND`` (itself defaulting to
    ``auto``).  Raises :class:`ConfigurationError` for an unknown name
    or for ``numpy`` requested without numpy installed — a misspelt
    backend must never silently fall back to a different replay path.
    """
    if value is None:
        value = os.environ.get(ENV_VAR, "") or "auto"
    value = value.strip().lower()
    if value not in _VALID:
        raise ConfigurationError(
            f"{ENV_VAR}={value!r} is not one of {', '.join(_VALID)}"
        )
    if value == "auto":
        return "numpy" if numpy_available() else "python"
    if value == "numpy" and not numpy_available():
        raise ConfigurationError(
            f"{ENV_VAR}=numpy requested but numpy is not importable; "
            "install the optional extra (pip install .[fast]) or use "
            f"{ENV_VAR}=python"
        )
    return value


def active_backend() -> str:
    """The backend this process replays with (``python``/``numpy``)."""
    return resolve_backend()


def backend_is_numpy() -> bool:
    """Whether the fast path should be attempted."""
    return active_backend() == "numpy"
