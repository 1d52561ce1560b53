"""The :class:`Trace` container."""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import TraceFormatError
from repro.mem.memory import LOAD, STORE
from repro.trace.record import Access

Record = Tuple[int, int, int]

#: Typecode of the unsigned 32-bit address and value columns.
U32 = next(code for code in "IL" if array(code).itemsize == 4)

_OP, _ADDRESS, _VALUE = itemgetter(0), itemgetter(1), itemgetter(2)


class Trace:
    """An ordered sequence of memory accesses plus provenance metadata.

    The accesses live in three typed columns — :attr:`ops`
    (``array('B')``), :attr:`addrs` and :attr:`values` (unsigned 32-bit
    ``array``\\ s) — the layout of the columnar trace file and what the
    native replay core reads.  Construction checks the domain (op 0 or
    1, address and value in 32 bits) once, so no consumer re-checks it.

    :attr:`records` is the same data as ``(op, address, value)`` tuples
    for the oracle simulators that walk records (the profilers read the
    columns); it is built on first use and cached.  A trace built from
    a record list keeps that list as the cache.  Traces are never
    mutated after construction.
    """

    __slots__ = (
        "ops",
        "addrs",
        "values",
        "workload",
        "input_name",
        "instruction_count",
        "_records",
        "_aggregates",
    )

    def __init__(
        self,
        records: Optional[Sequence[Record]] = None,
        workload: str = "",
        input_name: str = "",
        instruction_count: int = 0,
    ) -> None:
        records = list(records) if records is not None else []
        try:
            ops = array("B", map(_OP, records))
            addrs = array(U32, map(_ADDRESS, records))
            values = array(U32, map(_VALUE, records))
        except (OverflowError, TypeError, IndexError) as exc:
            raise TraceFormatError(
                "trace records outside the domain "
                f"(op 0/1, address and value u32): {exc}"
            ) from None
        self._init(ops, addrs, values, workload, input_name, instruction_count)
        self._records: Optional[List[Record]] = records

    @classmethod
    def from_columns(
        cls,
        ops: array,
        addrs: array,
        values: array,
        workload: str = "",
        input_name: str = "",
        instruction_count: int = 0,
    ) -> "Trace":
        """A trace over existing columns (``array('B')`` ops, unsigned
        32-bit addresses and values), taken without a copy."""
        trace = cls.__new__(cls)
        trace._init(ops, addrs, values, workload, input_name, instruction_count)
        trace._records = None
        return trace

    def _init(self, ops, addrs, values, workload, input_name, instruction_count):
        if not len(ops) == len(addrs) == len(values):
            raise TraceFormatError("trace columns differ in length")
        if ops.count(LOAD) + ops.count(STORE) != len(ops):
            raise TraceFormatError("trace op column holds a value other than 0/1")
        self.ops = ops
        self.addrs = addrs
        self.values = values
        self.workload = workload
        self.input_name = input_name
        # Workloads report a nominal instruction count (>= access count);
        # the stability study (Table 3) reports percentages of it.
        self.instruction_count = instruction_count or len(ops)
        # Derived values (aggregates, kernel decompositions), see memo().
        self._aggregates: dict = {}

    @property
    def records(self) -> List[Record]:
        """The accesses as ``(op, address, value)`` tuples (built once,
        on first use)."""
        if self._records is None:
            self._records = list(zip(self.ops, self.addrs, self.values))
        return self._records

    # Container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace.from_columns(
                self.ops[index],
                self.addrs[index],
                self.values[index],
                workload=self.workload,
                input_name=self.input_name,
            )
        return self.ops[index], self.addrs[index], self.values[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Trace)
            and self.ops == other.ops
            and self.addrs == other.addrs
            and self.values == other.values
        )

    def __repr__(self) -> str:
        source = self.workload or "<anonymous>"
        return f"Trace({source}/{self.input_name or '-'}, {len(self)} accesses)"

    # Named access ---------------------------------------------------------
    def accesses(self) -> Iterator[Access]:
        """Iterate records as :class:`Access` named tuples."""
        return (Access(*record) for record in self.records)

    def memo(self, key: str, compute):
        """Memoise ``compute(self)`` on the trace, keyed by ``key``.

        For derived values that are pure functions of the accesses (e.g.
        access-value profiles), or of the deterministic workload run
        that recorded the trace (e.g. occurrence profiles, which sample
        live memory while re-executing that run).  The entry lives
        exactly as long as the trace — unlike an external
        ``id()``-keyed table, which can hand a recycled id another
        trace's result.
        """
        cached = self._aggregates.get(key)
        if cached is None:
            cached = compute(self)
            self._aggregates[key] = cached
        return cached

    # Simple aggregates (memoised; O(n) only on first read) ------------
    @property
    def load_count(self) -> int:
        """Number of load records."""
        return self.memo("loads", lambda t: t.ops.count(LOAD))

    @property
    def store_count(self) -> int:
        """Number of store records."""
        return self.memo("stores", lambda t: t.ops.count(STORE))

    def footprint_words(self) -> int:
        """Number of distinct word addresses referenced."""
        return self.memo("footprint", lambda t: len(set(t.addrs)))

    def distinct_values(self) -> int:
        """Number of distinct values read or written."""
        return self.memo("values", lambda t: len(set(t.values)))
