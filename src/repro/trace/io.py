"""The binary trace file format: packed little-endian column arrays.

The three fields of every access are stored as contiguous columns —
the layout :class:`~repro.trace.trace.Trace` holds in memory — with
fixed, computable section offsets (:func:`columnar_layout`):

====== ==========================================================
offset contents
====== ==========================================================
0      magic ``b"FVTC"``
4      u16 format version (3)
6      u16 workload-name length ``W``
8      u16 input-name length ``I``
10     u16 reserved (zero)
12     u64 record count ``N``
20     u64 nominal instruction count
28     u32 crc32 of the op column bytes
32     u32 crc32 of the address column bytes
36     u32 crc32 of the value column bytes
40     workload name, input name (UTF-8)
...    zero padding to the next 8-byte boundary
       op column: ``N x u8``, zero-padded to 8 bytes
       address column: ``N x u32``, zero-padded to 8 bytes
       value column: ``N x u32``
====== ==========================================================

Checksums are per column so corruption reports name the damaged
section.  Files ending in ``.gz`` are gzip-compressed transparently.
Row-format files (magic ``b"FVTR"``, versions 1 and 2) written by
earlier releases are rejected with their version named; regenerate
them with ``repro-fvc trace gen``.
"""

from __future__ import annotations

import gzip
import os
import struct
import sys
import zlib
from array import array
from typing import BinaryIO, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.trace.trace import U32, Trace

_MAGIC = b"FVTC"
_VERSION = 3
_HEADER = struct.Struct("<4sHHHHQQIII")
_VERSION_FIELD = struct.Struct("<4sH")
#: Magic of the retired row formats (versions 1 and 2).
_ROW_MAGIC = b"FVTR"

PathLike = Union[str, "os.PathLike[str]"]


def _open(path: PathLike, mode: str) -> BinaryIO:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def columnar_layout(
    record_count: int, workload_bytes: int, input_bytes: int
) -> Tuple[int, int, int, int]:
    """Column section offsets ``(ops, addrs, values, total)`` — fixed
    arithmetic over the header fields."""
    names_end = _HEADER.size + workload_bytes + input_bytes
    ops_offset = _align8(names_end)
    addrs_offset = _align8(ops_offset + record_count)
    values_offset = _align8(addrs_offset + 4 * record_count)
    return ops_offset, addrs_offset, values_offset, values_offset + 4 * record_count


def _little_endian(column: array) -> array:
    if sys.byteorder == "big" and column.itemsize > 1:
        column = array(column.typecode, column)
        column.byteswap()
    return column


def trace_to_bytes(trace: Trace) -> bytes:
    """The serialisation of ``trace`` as bytes."""
    workload = trace.workload.encode("utf-8")
    input_name = trace.input_name.encode("utf-8")
    if len(workload) > 0xFFFF or len(input_name) > 0xFFFF:
        raise TraceFormatError("trace metadata names too long to serialise")
    count = len(trace)
    ops, addrs, values = (
        memoryview(_little_endian(column)).cast("B")
        for column in (trace.ops, trace.addrs, trace.values)
    )
    ops_offset, addrs_offset, values_offset, total = columnar_layout(
        count, len(workload), len(input_name)
    )
    out = bytearray(total)
    _HEADER.pack_into(
        out,
        0,
        _MAGIC,
        _VERSION,
        len(workload),
        len(input_name),
        0,
        count,
        trace.instruction_count,
        zlib.crc32(ops),
        zlib.crc32(addrs),
        zlib.crc32(values),
    )
    names = workload + input_name
    out[_HEADER.size : _HEADER.size + len(names)] = names
    out[ops_offset : ops_offset + count] = ops
    out[addrs_offset : addrs_offset + 4 * count] = addrs
    out[values_offset : values_offset + 4 * count] = values
    return bytes(out)


def write_trace(trace: Trace, path: PathLike) -> None:
    """Serialise ``trace`` to ``path`` (gzip when the name ends in .gz)."""
    data = trace_to_bytes(trace)
    with _open(path, "wb") as stream:
        stream.write(data)


def _parse_header(data: bytes, source: str) -> tuple:
    """The unpacked header fields plus the decoded names, after the
    magic, version and length checks."""
    if len(data) < _VERSION_FIELD.size:
        raise TraceFormatError(f"{source}: truncated header")
    magic, version = _VERSION_FIELD.unpack_from(data)
    if magic not in (_MAGIC, _ROW_MAGIC):
        raise TraceFormatError(f"{source}: bad magic {magic!r}")
    if magic == _ROW_MAGIC or version != _VERSION:
        raise TraceFormatError(
            f"{source}: unsupported version {version} (only version "
            f"{_VERSION} is read; regenerate with 'repro-fvc trace gen')"
        )
    if len(data) < _HEADER.size:
        raise TraceFormatError(f"{source}: truncated header")
    fields = _HEADER.unpack_from(data)
    wlen, ilen = fields[2], fields[3]
    names = data[_HEADER.size : _HEADER.size + wlen + ilen]
    if len(names) < wlen + ilen:
        raise TraceFormatError(f"{source}: truncated metadata")
    return fields, bytes(names[:wlen]).decode("utf-8"), bytes(names[wlen:]).decode("utf-8")


def trace_header_from_bytes(
    data: bytes, source: str = "trace"
) -> Tuple[int, str, str, int, int]:
    """Parse just the header out of in-memory trace bytes.

    Returns ``(version, workload, input_name, record_count,
    instruction_count)`` — the bytes-level sibling of
    :func:`read_trace_header`.
    """
    fields, workload, input_name = _parse_header(data, source)
    return fields[1], workload, input_name, fields[5], fields[6]


def read_trace_header(path: PathLike) -> Tuple[int, str, str, int, int]:
    """Read just the header of a trace file, without the columns (see
    :func:`trace_header_from_bytes`)."""
    with _open(path, "rb") as stream:
        header = stream.read(_HEADER.size)
        if len(header) == _HEADER.size:
            wlen, ilen = struct.unpack_from("<HH", header, 6)
            header += stream.read(wlen + ilen)
    return trace_header_from_bytes(header, source=str(path))


def trace_from_bytes(data: bytes, source: str = "trace") -> Trace:
    """Materialise a trace from in-memory bytes: the columns are copied
    straight into the trace's arrays, no per-record work."""
    fields, workload, input_name = _parse_header(data, source)
    count, instructions = fields[5], fields[6]
    ops_offset, addrs_offset, values_offset, total = columnar_layout(
        count, fields[2], fields[3]
    )
    if len(data) != total:
        raise TraceFormatError(
            f"{source}: expected {total} bytes, found {len(data)}"
        )
    view = memoryview(data)
    columns = []
    for label, typecode, offset, width, expected in (
        ("op", "B", ops_offset, 1, fields[7]),
        ("address", U32, addrs_offset, 4, fields[8]),
        ("value", U32, values_offset, 4, fields[9]),
    ):
        section = view[offset : offset + width * count]
        if zlib.crc32(section) != expected:
            raise TraceFormatError(
                f"{source}: {label} column checksum mismatch"
            )
        column = array(typecode)
        column.frombytes(section)
        columns.append(_little_endian(column))
    try:
        return Trace.from_columns(
            *columns,
            workload=workload,
            input_name=input_name,
            instruction_count=instructions,
        )
    except TraceFormatError as exc:
        raise TraceFormatError(f"{source}: {exc}") from None


def read_trace(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`write_trace`."""
    with _open(path, "rb") as stream:
        data = stream.read()
    return trace_from_bytes(data, source=str(path))
