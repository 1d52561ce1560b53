"""The fast replay path behind the ``REPRO_BACKEND`` switch.

The pure-Python simulators in :mod:`repro.cache` and :mod:`repro.fvc`
are the *oracle*: they define the semantics, record by record.  This
package replays the hot models faster with **identical statistics**:

* :mod:`repro.kernels.native` — a small compiled C core
  (``replay.c``, built on first use) that transliterates the oracle's
  record loops for the direct-mapped and set-associative baselines,
  the DMC+FVC system and 3C miss classification;
* :mod:`repro.kernels.hierarchy` — the two-level hierarchy's L1
  filter as a numpy miss stream;
* :mod:`repro.kernels.columnar` — the shared per-trace numpy columns
  the others read, and value profiling.

Backend selection (:mod:`repro.kernels.backend`):

* ``REPRO_BACKEND=python`` — always the oracle;
* ``REPRO_BACKEND=numpy`` — the fast path where supported (error if
  numpy is not importable);
* ``REPRO_BACKEND=auto`` / unset — the fast path when numpy is
  importable, oracle otherwise.

The fast path never changes results: each cell either replays on it
with the oracle's counters, or declines with a named reason
(:mod:`repro.kernels.dispatch`) and the caller replays the oracle.
The dual-run regression suite (``tests/kernels/``) holds that contract
for every experiment payload; ``docs/PERFORMANCE.md`` documents it.
"""

from __future__ import annotations

from repro.kernels.backend import (
    active_backend,
    backend_is_numpy,
    numpy_available,
    numpy_or_none,
    resolve_backend,
)

__all__ = [
    "active_backend",
    "backend_is_numpy",
    "numpy_available",
    "numpy_or_none",
    "resolve_backend",
]
