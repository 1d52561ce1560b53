"""Constant-address analysis (paper Table 4).

An address is *constant* when every access to it over the whole
execution observes the same value — the paper's bridge between frequent
value locality and classic load value locality.  The six FVL benchmarks
score high (61–99%, except li's heavily mutated cons cells at 29%);
compress and ijpeg score near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.trace.trace import Trace


@dataclass(frozen=True)
class ConstancyResult:
    """Counts of constant vs mutating referenced addresses."""

    referenced_addresses: int
    constant_addresses: int

    @property
    def constant_fraction(self) -> float:
        """Fraction of referenced addresses that stayed constant."""
        if not self.referenced_addresses:
            return 0.0
        return self.constant_addresses / self.referenced_addresses


def profile_constancy(trace: Trace) -> ConstancyResult:
    """Classify every referenced address as constant or mutating.

    The paper treats each allocation of a reused address separately; the
    trace does not carry allocation events, so reuse with a different
    value counts as mutation here — a strictly conservative
    approximation (it can only lower the constant fraction).
    """
    first_value: Dict[int, int] = {}
    mutated: set = set()
    for address, value in zip(trace.addrs, trace.values):
        known = first_value.get(address)
        if known is None:
            first_value[address] = value
        elif known != value:
            mutated.add(address)
    referenced = len(first_value)
    return ConstancyResult(
        referenced_addresses=referenced,
        constant_addresses=referenced - len(mutated),
    )
