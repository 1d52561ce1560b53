"""Shared columnar decomposition of a trace, memoised on ``Trace.memo``.

The replay core and the profiler work from the same derived arrays
instead of re-walking the record tuples per model:

* :func:`trace_columns` — the trace's ``op``/``address``/``value``
  columns as ``uint8``/``uint32``/``uint32`` arrays, without a copy;
* :func:`line_index` — per ``line_shift``: the distinct line addresses
  and the dense line ids the native replay core indexes by, from one
  ``np.unique``;
* :func:`freq_layer` — per ``(line_shift, encoder)``: frequent-value
  flags and per-line frequent-access counts;
* :func:`set_order` — per ``(line_shift, num_sets)``: the stable
  set-grouped order and its run-length structure (the direct-mapped
  miss stream of :mod:`repro.kernels.dmc`);
* :func:`ranked_value_counts` — the access-value ranking (Fig. 1)
  straight from the columns.

All entries live on ``trace.memo`` so cells sharing a geometry (or just
a line size) pay for each decomposition once.

Layout invariants (those of the oracle simulators): line = address >>
line_shift, set = line & (num_sets - 1), word offset = (address >> 2) &
(words_per_line - 1).
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels.backend import numpy_or_none
from repro.trace.trace import Trace


class KernelUnsupported(Exception):
    """Raised internally when the decompositions are unavailable (no
    numpy); kernels catch it and decline to the oracle."""


def require_numpy():
    """The numpy module, or :class:`KernelUnsupported` when absent."""
    np = numpy_or_none()
    if np is None:
        raise KernelUnsupported("numpy is not importable")
    return np


class TraceColumns:
    """Read-only numpy views of a trace's columns (``uint8`` ops,
    ``uint32`` addresses and values).  :class:`Trace` checks the domain
    at construction, so every kernel can take them as they are."""

    __slots__ = ("n", "ops", "addrs", "values", "nloads")

    def __init__(self, np, trace: Trace) -> None:
        self.n = len(trace)
        self.ops = _view(np, trace.ops, np.uint8)
        self.addrs = _view(np, trace.addrs, np.uint32)
        self.values = _view(np, trace.values, np.uint32)
        self.nloads = trace.load_count


def _view(np, column, dtype):
    view = np.frombuffer(column, dtype=dtype)
    view.flags.writeable = False
    return view


def trace_columns(trace: Trace) -> TraceColumns:
    """Columnar view of ``trace`` (memoised)."""
    np = require_numpy()
    return trace.memo("kernel:columns", lambda t: TraceColumns(np, t))


class LineIndex:
    """Per-``line_shift`` dense line ids.

    ``luniq`` holds the distinct line addresses in ascending order and
    ``lid[i]`` the position of record ``i``'s line in it, so two
    records touch the same line exactly when their ids are equal.
    """

    __slots__ = ("luniq", "lid")

    def __init__(self, np, cols: TraceColumns, shift: int) -> None:
        self.luniq, inverse = np.unique(cols.addrs >> shift, return_inverse=True)
        self.lid = inverse.astype(np.uint32)


def line_index(trace: Trace, line_shift: int) -> LineIndex:
    """Line decomposition for one line size (memoised)."""
    np = require_numpy()
    return trace.memo(
        f"kernel:lines:{line_shift}",
        lambda t: LineIndex(np, trace_columns(t), line_shift),
    )


class FreqLayer:
    """Per-``(line_shift, encoder)`` frequent-value derivations:
    ``frequent[i]`` says whether record ``i``'s value is one of the
    encoder's values, and ``line_frequent[l]`` counts such accesses to
    the line with dense id ``l``."""

    __slots__ = ("frequent", "line_frequent")

    def __init__(
        self, np, cols: TraceColumns, li: LineIndex, values: Tuple[int, ...]
    ) -> None:
        freq = np.asarray(sorted(set(int(v) for v in values)), dtype=np.int64)
        self.frequent = np.isin(cols.values, freq)
        self.line_frequent = np.bincount(
            li.lid[self.frequent], minlength=len(li.luniq)
        )


def freq_layer(
    trace: Trace, line_shift: int, values: Tuple[int, ...]
) -> FreqLayer:
    """Frequent-value layer for one (line size, encoder) pair (memoised)."""
    np = require_numpy()
    key = f"kernel:freq:{line_shift}:" + ",".join(str(int(v)) for v in values)
    return trace.memo(
        key,
        lambda t: FreqLayer(
            np, trace_columns(t), line_index(t, line_shift), values
        ),
    )


class SetOrder:
    """Per-``(line_shift, num_sets)`` set-grouped order and run structure.

    Records sorted stably by set index preserve time order within each
    set; maximal same-line runs inside a set segment are the unit of
    replacement activity (a direct-mapped set hits on everything except
    run starts).
    """

    __slots__ = ("sorder", "run_start", "run_line", "run_set", "nruns")

    def __init__(self, np, cols: TraceColumns, shift: int, num_sets: int) -> None:
        n = cols.n
        lines = cols.addrs >> shift
        sets = (lines & (num_sets - 1)).astype(
            np.uint16 if num_sets <= 1 << 16 else np.int64
        )
        self.sorder = np.argsort(sets, kind="stable")
        if n == 0:
            self.run_start = np.zeros(1, dtype=np.int64)
            self.run_line = np.zeros(0, dtype=np.int64)
            self.run_set = np.zeros(0, dtype=np.int64)
            self.nruns = 0
            return
        line_s = lines[self.sorder]
        new = np.empty(n, dtype=bool)
        new[0] = True
        # Lines determine sets, so a line change is exactly a run
        # boundary (equal adjacent lines are necessarily the same set).
        new[1:] = line_s[1:] != line_s[:-1]
        starts = np.flatnonzero(new)
        self.nruns = len(starts)
        self.run_start = np.empty(self.nruns + 1, dtype=np.int64)
        self.run_start[:-1] = starts
        self.run_start[-1] = n
        self.run_line = line_s[starts].astype(np.int64)
        self.run_set = self.run_line & (num_sets - 1)


def set_order(trace: Trace, line_shift: int, num_sets: int) -> SetOrder:
    """Set-grouped order for one geometry family (memoised)."""
    np = require_numpy()
    return trace.memo(
        f"kernel:sets:{line_shift}:{num_sets}",
        lambda t: SetOrder(np, trace_columns(t), line_shift, num_sets),
    )


def ranked_value_counts(trace: Trace, depth: int):
    """``(total, distinct, ranked)`` matching ``ExactTopK`` semantics:
    ranked ``(value, count)`` pairs sorted by (-count, value), truncated
    to ``depth``, as plain Python ints."""
    np = require_numpy()
    cols = trace_columns(trace)
    if cols.n == 0:
        return 0, 0, ()
    uniq, counts = np.unique(cols.values, return_counts=True)
    order = np.lexsort((uniq, -counts))[:depth]
    ranked = tuple(
        (int(uniq[i]), int(counts[i])) for i in order.tolist()
    )
    return cols.n, len(uniq), ranked
