"""Cache geometry: sizes, line shapes, and address decomposition."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.words import WORD_BYTES, is_power_of_two, log2_int


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a cache: total size, line size, and associativity.

    All three quantities must be powers of two, matching the paper's
    configurations (DMC of 4–64 KB, lines of 16/32/64 bytes, 1/2/4 ways).

    The derived attributes give the address decomposition used by every
    simulator: a byte address ``a`` maps to line address ``a >>
    line_shift``, set index ``line_addr & (num_sets - 1)``, and tag
    ``line_addr >> set_shift``.

    Derived shape (set once at construction):

    * ``num_lines`` — total number of lines in the cache;
    * ``num_sets`` — number of sets (lines / ways);
    * ``words_per_line`` — words in one line;
    * ``line_shift`` — right shift turning a byte address into a line
      address;
    * ``set_shift`` — right shift turning a line address into a tag;
    * ``set_mask`` — mask selecting the set index from a line address;
    * ``word_mask`` — mask selecting the word-in-line index from a word
      address.
    """

    size_bytes: int
    line_bytes: int
    ways: int = 1

    def __post_init__(self) -> None:
        for name, value in (
            ("size_bytes", self.size_bytes),
            ("line_bytes", self.line_bytes),
            ("ways", self.ways),
        ):
            if not is_power_of_two(value):
                raise ConfigurationError(f"{name}={value} must be a power of two")
        if self.line_bytes < WORD_BYTES:
            raise ConfigurationError("line must hold at least one word")
        if self.size_bytes < self.line_bytes * self.ways:
            raise ConfigurationError(
                "cache must hold at least one full set "
                f"(size={self.size_bytes}, line={self.line_bytes}, ways={self.ways})"
            )
        # Derived shape, computed once: the simulators read these on
        # every access.  Plain attributes, not fields, so equality,
        # hashing, repr, asdict() and replace() see only the three
        # defining quantities.
        num_lines = self.size_bytes // self.line_bytes
        num_sets = num_lines // self.ways
        words_per_line = self.line_bytes // WORD_BYTES
        derived = {
            "num_lines": num_lines,
            "num_sets": num_sets,
            "words_per_line": words_per_line,
            "line_shift": log2_int(self.line_bytes),
            "set_shift": log2_int(num_sets),
            "set_mask": num_sets - 1,
            "word_mask": words_per_line - 1,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # Address helpers ------------------------------------------------------
    def line_address(self, byte_addr: int) -> int:
        """Line address containing ``byte_addr``."""
        return byte_addr >> self.line_shift

    def set_index(self, byte_addr: int) -> int:
        """Set index for ``byte_addr``."""
        return (byte_addr >> self.line_shift) & self.set_mask

    def tag(self, byte_addr: int) -> int:
        """Tag for ``byte_addr``."""
        return byte_addr >> (self.line_shift + self.set_shift)

    def word_index(self, byte_addr: int) -> int:
        """Word-within-line index for ``byte_addr``."""
        return (byte_addr >> 2) & self.word_mask

    def describe(self) -> str:
        """Short human-readable form, e.g. ``16KB/32B/direct``."""
        assoc = "direct" if self.ways == 1 else f"{self.ways}-way"
        if self.ways == self.num_lines:
            assoc = "fully-assoc"
        return f"{self.size_bytes // 1024}KB/{self.line_bytes}B/{assoc}"
