"""Binary trace file formats.

Version 1 layout (little-endian):

====== ===========================================
offset contents
====== ===========================================
0      magic ``b"FVTR"``
4      u16 format version (currently 1)
6      u16 workload-name length ``W``
8      u16 input-name length ``I``
10     u16 reserved (zero)
12     u64 record count ``N``
20     u64 nominal instruction count
28     workload name (UTF-8, ``W`` bytes)
28+W   input name (UTF-8, ``I`` bytes)
...    N records of ``<B I I``: op, byte address, value
====== ===========================================

Files ending in ``.gz`` are gzip-compressed transparently.  A compact
delta/varint format (version 2) is provided by
:func:`write_trace_compact`, and a columnar binary format (version 3,
``.trcb``) by :func:`write_trace_columnar`; :func:`read_trace_any`
reads all three.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from typing import BinaryIO, Iterator, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.trace.trace import Trace

_MAGIC = b"FVTR"
_VERSION = 1
_HEADER = struct.Struct("<4sHHHHQQ")
_RECORD = struct.Struct("<BII")
_CHUNK_RECORDS = 65536

PathLike = Union[str, "os.PathLike[str]"]


def _open(path: PathLike, mode: str) -> BinaryIO:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def write_trace(trace: Trace, path: PathLike) -> None:
    """Serialise ``trace`` to ``path`` (gzip when the name ends in .gz)."""
    workload = trace.workload.encode("utf-8")
    input_name = trace.input_name.encode("utf-8")
    if len(workload) > 0xFFFF or len(input_name) > 0xFFFF:
        raise TraceFormatError("trace metadata names too long to serialise")
    with _open(path, "wb") as stream:
        stream.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                len(workload),
                len(input_name),
                0,
                len(trace.records),
                trace.instruction_count,
            )
        )
        stream.write(workload)
        stream.write(input_name)
        pack = _RECORD.pack
        buffer = bytearray()
        for record in trace.records:
            buffer += pack(*record)
            if len(buffer) >= _CHUNK_RECORDS * _RECORD.size:
                stream.write(buffer)
                buffer.clear()
        if buffer:
            stream.write(buffer)


def read_trace_header(path: PathLike) -> Tuple[int, str, str, int, int]:
    """Read just the header of a trace file (either version).

    Returns ``(version, workload, input_name, record_count,
    instruction_count)`` without materialising the payload — used by the
    engine's trace cache to list entries cheaply.
    """
    with _open(path, "rb") as stream:
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        if header[:4] == _COLUMNAR_MAGIC:
            header += stream.read(_COLUMNAR_HEADER.size - len(header))
            if len(header) < _COLUMNAR_HEADER.size:
                raise TraceFormatError(f"{path}: truncated header")
            magic, version, wlen, ilen, _, count, instructions = (
                _COLUMNAR_HEADER.unpack(header)[:7]
            )
        else:
            magic, version, wlen, ilen, _, count, instructions = (
                _HEADER.unpack(header)
            )
            if magic != _MAGIC:
                raise TraceFormatError(f"{path}: bad magic {magic!r}")
        names = stream.read(wlen + ilen)
        if len(names) < wlen + ilen:
            raise TraceFormatError(f"{path}: truncated metadata")
        workload = names[:wlen].decode("utf-8")
        input_name = names[wlen:].decode("utf-8")
    return version, workload, input_name, count, instructions


def read_trace(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`write_trace`."""
    with _open(path, "rb") as stream:
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, version, wlen, ilen, _, count, instructions = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        workload = stream.read(wlen).decode("utf-8")
        input_name = stream.read(ilen).decode("utf-8")
        payload = stream.read()
    expected = count * _RECORD.size
    if len(payload) != expected:
        raise TraceFormatError(
            f"{path}: expected {expected} record bytes, found {len(payload)}"
        )
    records = [tuple(fields) for fields in _RECORD.iter_unpack(payload)]
    return Trace(
        records,  # type: ignore[arg-type]
        workload=workload,
        input_name=input_name,
        instruction_count=instructions,
    )


# ----------------------------------------------------------------------
# Compact format (version 2): zig-zag varint deltas
# ----------------------------------------------------------------------
#
# Trace addresses are overwhelmingly near their predecessors and values
# are overwhelmingly small, so delta/varint coding shrinks trace files
# by roughly 3-4x versus the fixed 9-byte records of version 1.  Each
# record is:
#
#   u8 op | varint zigzag(word_address - previous_word_address) | varint value
#
# preceded by the same header with version = 2.

_COMPACT_VERSION = 2


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if value & 1 == 0 else -((value + 1) >> 1)


def _write_varint(buffer: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buffer.append(byte | 0x80)
        else:
            buffer.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


#: Flush threshold for streamed writers — bounds writer memory at a
#: fixed block size regardless of trace length.
_CHUNK_BYTES = _CHUNK_RECORDS * _RECORD.size


def _compact_chunks(trace: Trace) -> Iterator[bytes]:
    """The delta/varint (version 2) serialisation as bounded chunks.

    One shared generator backs both the in-memory and the streamed
    writers, so the two can never drift: the file is the concatenation
    of these chunks either way.
    """
    workload = trace.workload.encode("utf-8")
    input_name = trace.input_name.encode("utf-8")
    if len(workload) > 0xFFFF or len(input_name) > 0xFFFF:
        raise TraceFormatError("trace metadata names too long to serialise")
    yield _HEADER.pack(
        _MAGIC,
        _COMPACT_VERSION,
        len(workload),
        len(input_name),
        0,
        len(trace.records),
        trace.instruction_count,
    ) + workload + input_name
    buffer = bytearray()
    previous_word = 0
    for op, address, value in trace.records:
        word = address >> 2
        buffer.append(op)
        _write_varint(buffer, _zigzag(word - previous_word))
        _write_varint(buffer, value)
        previous_word = word
        if len(buffer) >= _CHUNK_BYTES:
            yield bytes(buffer)
            buffer.clear()
    if buffer:
        yield bytes(buffer)


def trace_to_compact_bytes(trace: Trace) -> bytes:
    """The delta/varint (version 2) serialisation of ``trace`` as
    bytes — what the enveloped trace-cache entries embed."""
    return b"".join(_compact_chunks(trace))


def write_trace_compact(trace: Trace, path: PathLike) -> None:
    """Serialise ``trace`` in the delta/varint format (version 2),
    streaming fixed-size blocks so writer memory stays bounded for
    arbitrarily long traces (it previously materialised the whole
    serialisation before the first byte reached the file)."""
    with _open(path, "wb") as stream:
        for chunk in _compact_chunks(trace):
            stream.write(chunk)


# ----------------------------------------------------------------------
# Columnar format (version 3): packed little-endian column arrays
# ----------------------------------------------------------------------
#
# The row formats above serialise records interleaved, so every reader
# pays per-record dispatch to get them back.  The columnar format packs
# the three fields as contiguous little-endian arrays instead — the
# exact layout the fast path (:mod:`repro.kernels`) consumes —
# with fixed, computable section offsets so a reader can memory-map a
# column without touching the others:
#
# ====== ==========================================================
# offset contents
# ====== ==========================================================
# 0      magic ``b"FVTC"``
# 4      u16 format version (3)
# 6      u16 workload-name length ``W``
# 8      u16 input-name length ``I``
# 10     u16 reserved (zero)
# 12     u64 record count ``N``
# 20     u64 nominal instruction count
# 28     u32 crc32 of the op column bytes
# 32     u32 crc32 of the address column bytes
# 36     u32 crc32 of the value column bytes
# 40     workload name, input name (UTF-8)
# ...    zero padding to the next 8-byte boundary
#        op column: ``N x u8``, zero-padded to 8 bytes
#        address column: ``N x u32``, zero-padded to 8 bytes
#        value column: ``N x u32``
# ====== ==========================================================
#
# Checksums are per column so corruption reports name the damaged
# section.  Readers and writers use numpy when it is importable and
# fall back to the stdlib ``array``/``struct`` modules otherwise — the
# format carries no numpy dependency.

_COLUMNAR_MAGIC = b"FVTC"
_COLUMNAR_VERSION = 3
_COLUMNAR_HEADER = struct.Struct("<4sHHHHQQIII")

#: Conventional file suffix for columnar trace files.
COLUMNAR_SUFFIX = ".trcb"


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def columnar_layout(
    record_count: int, workload_bytes: int, input_bytes: int
) -> Tuple[int, int, int, int]:
    """Column section offsets ``(ops, addrs, values, total)`` for a
    columnar file — fixed arithmetic over the header fields, which is
    what makes the columns memory-mappable."""
    names_end = _COLUMNAR_HEADER.size + workload_bytes + input_bytes
    ops_offset = _align8(names_end)
    addrs_offset = _align8(ops_offset + record_count)
    values_offset = _align8(addrs_offset + 4 * record_count)
    return ops_offset, addrs_offset, values_offset, values_offset + 4 * record_count


def _columnar_column_bytes(trace: Trace) -> Tuple[bytes, bytes, bytes]:
    """The three packed column byte strings for ``trace``."""
    records = trace.records
    count = len(records)
    numpy = None
    try:
        import numpy
    except ImportError:
        pass
    if numpy is not None:
        try:
            flat = numpy.fromiter(
                (field for record in records for field in record),
                dtype=numpy.int64,
                count=3 * count,
            ).reshape(count, 3)
        except (OverflowError, ValueError) as exc:
            raise TraceFormatError(
                f"trace records outside the columnar domain: {exc}"
            ) from None
        ops = flat[:, 0]
        addrs = flat[:, 1]
        values = flat[:, 2]
        if count and (
            ops.min() < 0
            or ops.max() > 0xFF
            or addrs.min() < 0
            or addrs.max() > 0xFFFFFFFF
            or values.min() < 0
            or values.max() > 0xFFFFFFFF
        ):
            raise TraceFormatError(
                "trace records outside the columnar domain "
                "(op u8, address/value u32)"
            )
        return (
            ops.astype("<u1").tobytes(),
            addrs.astype("<u4").tobytes(),
            values.astype("<u4").tobytes(),
        )
    ops_buffer = bytearray()
    addrs_buffer = bytearray()
    values_buffer = bytearray()
    pack_u32 = struct.Struct("<I").pack
    try:
        for op, address, value in records:
            ops_buffer.append(op)
            addrs_buffer += pack_u32(address)
            values_buffer += pack_u32(value)
    except (ValueError, struct.error) as exc:
        raise TraceFormatError(
            f"trace records outside the columnar domain: {exc}"
        ) from None
    return bytes(ops_buffer), bytes(addrs_buffer), bytes(values_buffer)


def trace_to_columnar_bytes(trace: Trace) -> bytes:
    """The columnar (version 3) serialisation of ``trace`` as bytes."""
    workload = trace.workload.encode("utf-8")
    input_name = trace.input_name.encode("utf-8")
    if len(workload) > 0xFFFF or len(input_name) > 0xFFFF:
        raise TraceFormatError("trace metadata names too long to serialise")
    count = len(trace.records)
    ops, addrs, values = _columnar_column_bytes(trace)
    ops_offset, addrs_offset, values_offset, total = columnar_layout(
        count, len(workload), len(input_name)
    )
    out = bytearray(total)
    _COLUMNAR_HEADER.pack_into(
        out,
        0,
        _COLUMNAR_MAGIC,
        _COLUMNAR_VERSION,
        len(workload),
        len(input_name),
        0,
        count,
        trace.instruction_count,
        zlib.crc32(ops),
        zlib.crc32(addrs),
        zlib.crc32(values),
    )
    names_offset = _COLUMNAR_HEADER.size
    out[names_offset : names_offset + len(workload)] = workload
    input_offset = names_offset + len(workload)
    out[input_offset : input_offset + len(input_name)] = input_name
    out[ops_offset : ops_offset + count] = ops
    out[addrs_offset : addrs_offset + 4 * count] = addrs
    out[values_offset : values_offset + 4 * count] = values
    return bytes(out)


def write_trace_columnar(trace: Trace, path: PathLike) -> None:
    """Serialise ``trace`` in the columnar format (version 3,
    ``.trcb``), streaming the sections in fixed-size blocks."""
    data = trace_to_columnar_bytes(trace)
    with _open(path, "wb") as stream:
        view = memoryview(data)
        for start in range(0, len(view), _CHUNK_BYTES):
            stream.write(view[start : start + _CHUNK_BYTES])


def _records_from_columns(
    ops: bytes, addrs: bytes, values: bytes, count: int
):
    """Rebuild ``(op, address, value)`` tuples from packed columns."""
    numpy = None
    try:
        import numpy
    except ImportError:
        pass
    if numpy is not None:
        return list(
            zip(
                numpy.frombuffer(ops, dtype="<u1").tolist(),
                numpy.frombuffer(addrs, dtype="<u4").tolist(),
                numpy.frombuffer(values, dtype="<u4").tolist(),
            )
        )
    from array import array

    def _u32_list(data: bytes):
        typed = array("I")
        if typed.itemsize == 4:
            typed.frombytes(data)
            import sys

            if sys.byteorder == "big":
                typed.byteswap()
            return typed.tolist()
        return list(struct.unpack(f"<{count}I", data))

    return list(zip(ops, _u32_list(addrs), _u32_list(values)))


def _columnar_trace_from_bytes(data: bytes, source: str) -> Trace:
    """Materialise a trace from columnar (version 3) bytes."""
    (
        _magic,
        version,
        wlen,
        ilen,
        _,
        count,
        instructions,
        ops_crc,
        addrs_crc,
        values_crc,
    ) = _COLUMNAR_HEADER.unpack_from(data)
    if version != _COLUMNAR_VERSION:
        raise TraceFormatError(f"{source}: unsupported version {version}")
    ops_offset, addrs_offset, values_offset, total = columnar_layout(
        count, wlen, ilen
    )
    if len(data) != total:
        raise TraceFormatError(
            f"{source}: expected {total} bytes, found {len(data)}"
        )
    names = data[_COLUMNAR_HEADER.size : _COLUMNAR_HEADER.size + wlen + ilen]
    workload = names[:wlen].decode("utf-8")
    input_name = names[wlen:].decode("utf-8")
    ops = data[ops_offset : ops_offset + count]
    addrs = data[addrs_offset : addrs_offset + 4 * count]
    values = data[values_offset : values_offset + 4 * count]
    for label, column, expected in (
        ("op", ops, ops_crc),
        ("address", addrs, addrs_crc),
        ("value", values, values_crc),
    ):
        if zlib.crc32(column) != expected:
            raise TraceFormatError(
                f"{source}: {label} column checksum mismatch"
            )
    return Trace(
        _records_from_columns(ops, addrs, values, count),
        workload=workload,
        input_name=input_name,
        instruction_count=instructions,
    )


def read_trace_columnar(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`write_trace_columnar`."""
    with _open(path, "rb") as stream:
        data = stream.read()
    if data[:4] != _COLUMNAR_MAGIC:
        raise TraceFormatError(f"{path}: bad magic {data[:4]!r}")
    return _columnar_trace_from_bytes(data, source=str(path))


def trace_header_from_bytes(
    data: bytes, source: str = "trace"
) -> Tuple[int, str, str, int, int]:
    """Parse just the header out of in-memory trace bytes (row or
    columnar magic).

    Returns ``(version, workload, input_name, record_count,
    instruction_count)`` — the bytes-level sibling of
    :func:`read_trace_header`.
    """
    if len(data) < _HEADER.size:
        raise TraceFormatError(f"{source}: truncated header")
    if data[:4] == _COLUMNAR_MAGIC:
        if len(data) < _COLUMNAR_HEADER.size:
            raise TraceFormatError(f"{source}: truncated header")
        magic, version, wlen, ilen, _, count, instructions = (
            _COLUMNAR_HEADER.unpack_from(data)[:7]
        )
        names_offset = _COLUMNAR_HEADER.size
    else:
        magic, version, wlen, ilen, _, count, instructions = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise TraceFormatError(f"{source}: bad magic {magic!r}")
        names_offset = _HEADER.size
    names = data[names_offset : names_offset + wlen + ilen]
    if len(names) < wlen + ilen:
        raise TraceFormatError(f"{source}: truncated metadata")
    workload = names[:wlen].decode("utf-8")
    input_name = names[wlen:].decode("utf-8")
    return version, workload, input_name, count, instructions


def trace_from_bytes(data: bytes, source: str = "trace") -> Trace:
    """Materialise a trace from in-memory bytes in any format."""
    if data[:4] == _COLUMNAR_MAGIC:
        if len(data) < _COLUMNAR_HEADER.size:
            raise TraceFormatError(f"{source}: truncated header")
        return _columnar_trace_from_bytes(data, source)
    version, workload, input_name, count, instructions = trace_header_from_bytes(
        data, source
    )
    offset = (
        _HEADER.size
        + len(workload.encode("utf-8"))
        + len(input_name.encode("utf-8"))
    )
    payload = data[offset:]
    if version == _VERSION:
        expected = count * _RECORD.size
        if len(payload) != expected:
            raise TraceFormatError(
                f"{source}: expected {expected} record bytes, "
                f"found {len(payload)}"
            )
        records = [tuple(fields) for fields in _RECORD.iter_unpack(payload)]
    elif version == _COMPACT_VERSION:
        records = []
        cursor = 0
        previous_word = 0
        try:
            for _ in range(count):
                op = payload[cursor]
                cursor += 1
                delta, cursor = _read_varint(payload, cursor)
                value, cursor = _read_varint(payload, cursor)
                previous_word += _unzigzag(delta)
                records.append((op, previous_word << 2, value))
        except IndexError:
            raise TraceFormatError(
                f"{source}: truncated compact payload"
            ) from None
    else:
        raise TraceFormatError(f"{source}: unsupported version {version}")
    return Trace(
        records,  # type: ignore[arg-type]
        workload=workload,
        input_name=input_name,
        instruction_count=instructions,
    )


def read_trace_any(path: PathLike) -> Trace:
    """Load a trace in any format (dispatch on the header magic and
    version: v1 rows, v2 compact, v3 columnar)."""
    with _open(path, "rb") as stream:
        data = stream.read()
    return trace_from_bytes(data, source=str(path))
