"""Tests for cache geometry and address decomposition."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigurationError


class TestDerivedShape:
    def test_paper_headline_config(self):
        geometry = CacheGeometry(16 * 1024, 32)
        assert geometry.num_lines == 512
        assert geometry.num_sets == 512
        assert geometry.words_per_line == 8
        assert geometry.line_shift == 5

    def test_set_associative_shape(self):
        geometry = CacheGeometry(16 * 1024, 32, ways=4)
        assert geometry.num_lines == 512
        assert geometry.num_sets == 128

    def test_describe(self):
        assert CacheGeometry(16 * 1024, 32).describe() == "16KB/32B/direct"
        assert CacheGeometry(16 * 1024, 32, 2).describe() == "16KB/32B/2-way"
        assert (
            CacheGeometry(4 * 32, 32, 4).describe() == "0KB/32B/fully-assoc"
        )


_SHAPES = [
    (size, line, ways)
    for size in (64, 1024, 16 * 1024, 64 * 1024)
    for line in (4, 16, 32, 64)
    for ways in (1, 2, 4, 8)
    if size >= line * ways
]


class TestDerivedConstants:
    """The shape constants are computed once at construction; they
    must equal their defining formulas and stay invisible to the
    dataclass machinery."""

    @pytest.mark.parametrize("size,line,ways", _SHAPES)
    def test_constants_equal_formulas(self, size, line, ways):
        geometry = CacheGeometry(size, line, ways)
        num_lines = size // line
        num_sets = num_lines // ways
        words_per_line = line // 4
        assert geometry.num_lines == num_lines
        assert geometry.num_sets == num_sets
        assert geometry.words_per_line == words_per_line
        assert 1 << geometry.line_shift == line
        assert 1 << geometry.set_shift == num_sets
        assert geometry.set_mask == num_sets - 1
        assert geometry.word_mask == words_per_line - 1

    @pytest.mark.parametrize("size,line,ways", _SHAPES)
    def test_dataclass_surface_unchanged(self, size, line, ways):
        geometry = CacheGeometry(size, line, ways)
        twin = CacheGeometry(size, line, ways)
        assert geometry == twin
        assert hash(geometry) == hash((size, line, ways))
        assert repr(geometry) == (
            f"CacheGeometry(size_bytes={size}, line_bytes={line}, ways={ways})"
        )
        assert dataclasses.asdict(geometry) == {
            "size_bytes": size,
            "line_bytes": line,
            "ways": ways,
        }
        assert [f.name for f in dataclasses.fields(geometry)] == [
            "size_bytes",
            "line_bytes",
            "ways",
        ]
        assert dataclasses.replace(geometry) == geometry

    def test_replace_rederives_constants(self):
        geometry = CacheGeometry(16 * 1024, 32)
        wider = dataclasses.replace(geometry, ways=4)
        assert wider.num_sets == 128
        assert wider.set_mask == 127
        assert wider.set_shift == 7
        assert geometry.num_sets == 512

    def test_constants_are_frozen(self):
        geometry = CacheGeometry(16 * 1024, 32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            geometry.set_mask = 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_bytes": 3000, "line_bytes": 32},
            {"size_bytes": 4096, "line_bytes": 24},
            {"size_bytes": 4096, "line_bytes": 32, "ways": 3},
            {"size_bytes": 4096, "line_bytes": 2},
            {"size_bytes": 32, "line_bytes": 32, "ways": 2},
        ],
    )
    def test_bad_shapes_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CacheGeometry(**kwargs)


class TestAddressDecomposition:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_decomposition_reassembles(self, address):
        geometry = CacheGeometry(8 * 1024, 16, ways=2)
        line_addr = geometry.line_address(address)
        assert line_addr == address >> geometry.line_shift
        assert geometry.set_index(address) == line_addr & geometry.set_mask
        assert geometry.tag(address) == line_addr >> geometry.set_shift
        reassembled = (
            (geometry.tag(address) << geometry.set_shift)
            | geometry.set_index(address)
        ) << geometry.line_shift
        assert reassembled <= address < reassembled + geometry.line_bytes

    def test_word_index(self):
        geometry = CacheGeometry(16 * 1024, 32)
        assert geometry.word_index(0x20) == 0
        assert geometry.word_index(0x24) == 1
        assert geometry.word_index(0x3C) == 7
