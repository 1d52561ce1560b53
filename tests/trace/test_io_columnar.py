"""Tests for the bytes of the trace format (columnar, version 3)."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceFormatError
from repro.trace.io import (
    _HEADER,
    columnar_layout,
    read_trace,
    read_trace_header,
    trace_from_bytes,
    trace_to_bytes,
    write_trace,
)
from repro.trace.trace import Trace

_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=0xFFFFFFFC).map(lambda a: a & ~3),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    max_size=300,
)


def _sample_trace() -> Trace:
    return Trace(
        [(0, 16, 1), (1, 0xFFFFFFF0, 0xFFFFFFFF), (0, 16, 7), (1, 32, 0)],
        workload="gcc",
        input_name="ref",
        instruction_count=42,
    )


class TestColumnarRoundtrip:
    def test_simple_roundtrip(self):
        trace = _sample_trace()
        loaded = trace_from_bytes(trace_to_bytes(trace))
        assert loaded == trace
        assert loaded.workload == "gcc"
        assert loaded.input_name == "ref"
        assert loaded.instruction_count == 42

    def test_empty_trace(self):
        trace = Trace([], workload="w")
        assert trace_from_bytes(trace_to_bytes(trace)) == trace

    @settings(max_examples=25, deadline=None)
    @given(records=_records)
    def test_roundtrip_property(self, records):
        loaded = trace_from_bytes(trace_to_bytes(Trace(records, workload="p")))
        # Decoding fills the columns and builds no record tuples.
        assert loaded._records is None
        assert loaded.records == records

    def test_header_of_columnar_file(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "t.trcb"
        write_trace(trace, path)
        assert read_trace_header(path) == (3, "gcc", "ref", 4, 42)


class TestColumnarLayout:
    def test_sections_are_eight_aligned(self):
        for count in (0, 1, 7, 8, 9, 65536):
            ops, addrs, values, total = columnar_layout(count, 3, 4)
            assert ops % 8 == addrs % 8 == values % 8 == 0
            assert addrs >= ops + count
            assert values >= addrs + 4 * count
            assert total == values + 4 * count

    def test_layout_matches_real_bytes(self):
        trace = _sample_trace()
        data = trace_to_bytes(trace)
        _, _, _, total = columnar_layout(
            len(trace), len(b"gcc"), len(b"ref")
        )
        assert len(data) == total


class TestColumnarErrors:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.trcb"
        path.write_bytes(b"FVTC\x03\x00")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_column(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "t.trcb"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_corrupt_column_is_named_by_its_checksum(self):
        data = bytearray(trace_to_bytes(_sample_trace()))
        data[-1] ^= 0xFF  # last byte of the value column
        with pytest.raises(TraceFormatError, match="value"):
            trace_from_bytes(bytes(data))

    def test_unknown_version_rejected(self):
        data = bytearray(trace_to_bytes(_sample_trace()))
        struct.pack_into("<H", data, 4, 99)
        with pytest.raises(TraceFormatError, match="version"):
            trace_from_bytes(bytes(data))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.trcb"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_out_of_domain_record_rejected_at_write(self):
        # A trace outside the format's domain cannot even be built, so
        # it never reaches the writer.
        for records in (
            [(0, 2**33, 1)],
            [(2, 0, 0)],
            [(0, 0, 2**32)],
            [(0, -4, 0)],
            [(0, 4)],
        ):
            with pytest.raises(TraceFormatError):
                Trace(records, workload="syn")

    def test_out_of_domain_op_column_rejected_at_read(self):
        # An op column holding a 2 under valid checksums: decodes
        # structurally, but is not a trace.
        data = bytearray(trace_to_bytes(_sample_trace()))
        ops_offset, _, _, _ = columnar_layout(4, len(b"gcc"), len(b"ref"))
        data[ops_offset] = 2
        ops = bytes(data[ops_offset : ops_offset + 4])
        struct.pack_into("<I", data, 28, zlib.crc32(ops))
        with pytest.raises(TraceFormatError, match="op column"):
            trace_from_bytes(bytes(data))


class TestBackendByteIdentity:
    def test_fallback_writer_emits_identical_bytes(self, monkeypatch):
        # The format carries no numpy dependency: the writer emits the
        # same bytes whether or not numpy is importable.
        pytest.importorskip("numpy")
        import sys

        trace = _sample_trace()
        with_numpy = trace_to_bytes(trace)
        monkeypatch.setitem(sys.modules, "numpy", None)
        without_numpy = trace_to_bytes(trace)
        assert with_numpy == without_numpy

    def test_fallback_reader_round_trips(self, monkeypatch):
        import sys

        trace = _sample_trace()
        data = trace_to_bytes(trace)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert trace_from_bytes(data) == trace


class TestCompression:
    def test_columnar_compresses_no_worse_than_rows(self):
        trace = Trace(
            [(index & 1, 0x1000 + (index % 512) * 4, index % 8)
             for index in range(20000)],
            workload="syn",
        )
        columnar = zlib.compress(trace_to_bytes(trace), 6)
        # The envelope the trace cache persists: smaller than the 9
        # bytes per record of an uncompressed row.
        assert len(columnar) < len(trace) * 9
        assert _HEADER.size == 40
