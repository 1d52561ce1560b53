"""Tests for the trace file reader and writer."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceFormatError
from repro.trace.io import read_trace, read_trace_header, write_trace
from repro.trace.trace import Trace

_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=0xFFFFFFFC).map(lambda a: a & ~3),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    max_size=300,
)


class TestRoundtrip:
    def test_simple_roundtrip(self, tmp_path):
        trace = Trace(
            [(0, 16, 1), (1, 32, 0xFFFFFFFF)],
            workload="gcc",
            input_name="ref",
            instruction_count=99,
        )
        path = tmp_path / "t.trc"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded == trace
        assert loaded.workload == "gcc"
        assert loaded.input_name == "ref"
        assert loaded.instruction_count == 99

    def test_gzip_roundtrip(self, tmp_path):
        trace = Trace([(0, 16, 1)] * 100, workload="w")
        path = tmp_path / "t.trc.gz"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trc"
        write_trace(Trace(), path)
        assert len(read_trace(path)) == 0

    @settings(max_examples=25, deadline=None)
    @given(records=_records)
    def test_roundtrip_property(self, tmp_path_factory, records):
        trace = Trace(records, workload="p", input_name="q")
        path = tmp_path_factory.mktemp("traces") / "t.trc"
        write_trace(trace, path)
        assert read_trace(path).records == records


class TestErrorHandling:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.trc"
        path.write_bytes(b"FVTR")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_row_format_versions_rejected(self, tmp_path, version):
        # The header of the retired row formats: magic, version, name
        # lengths, reserved, record and instruction counts.
        path = tmp_path / f"v{version}.trc"
        path.write_bytes(
            struct.pack("<4sHHHHQQ", b"FVTR", version, 0, 0, 0, 1, 1)
            + b"\x00\x10\x00\x00\x00\x01\x00\x00\x00"
        )
        with pytest.raises(
            TraceFormatError, match=f"unsupported version {version}"
        ):
            read_trace(path)

    def test_truncated_payload(self, tmp_path):
        trace = Trace([(0, 16, 1)] * 10)
        path = tmp_path / "trunc.trc"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_gzip_roundtrip(self, tmp_path):
        trace = Trace([(0, 16, 1)] * 200)
        path = tmp_path / "t.trcb.gz"
        write_trace(trace, path)
        truncated = tmp_path / "cut.trcb.gz"
        truncated.write_bytes(path.read_bytes()[:-10])
        with pytest.raises((TraceFormatError, EOFError)):
            read_trace(truncated)


class TestHeader:
    def test_header_errors(self, tmp_path):
        short = tmp_path / "short.trcb"
        short.write_bytes(b"FVTC\x03\x00")
        with pytest.raises(TraceFormatError):
            read_trace_header(short)
        bad = tmp_path / "bad.trcb"
        bad.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(TraceFormatError):
            read_trace_header(bad)

    def test_header_truncated_metadata(self, tmp_path):
        trace = Trace([(0, 16, 1)], workload="a-long-workload-name")
        path = tmp_path / "t.trcb"
        write_trace(trace, path)
        cut = tmp_path / "cut.trcb"
        cut.write_bytes(path.read_bytes()[:50])  # header ok, names cut
        with pytest.raises(TraceFormatError):
            read_trace_header(cut)
