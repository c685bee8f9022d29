"""Exact metric values stored as integer counts of quarter edge-lengths.

Every distance and every hyperbolicity constant handled by this package is a
non-negative multiple of 1/4, so a single integer field replaces floating
point throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class QDist:
    """A non-negative multiple of 1/4 edge-lengths, stored as `quarters`."""

    quarters: int

    def __post_init__(self):
        if not isinstance(self.quarters, int):  # a NumPy integer; a float raises TypeError
            object.__setattr__(self, "quarters", operator.index(self.quarters))
        if self.quarters < 0:
            raise ValueError(f"negative quarter count: {self.quarters}")

    @classmethod
    def from_edges(cls, edges: int) -> "QDist":
        """Whole number of unit edges."""
        return cls(4 * edges)

    @classmethod
    def from_hops(cls, hops: int, k: int) -> "QDist":
        """Hop count on an S_k subdivision grid (1 hop = 1/k edge-lengths)."""
        num = 4 * operator.index(hops)
        if num % k != 0:
            raise ValueError(f"{hops} hops on an S_{k} grid is not a quarter multiple")
        return cls(num // k)

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.quarters, 4)

    def __add__(self, other: "QDist") -> "QDist":
        return QDist(self.quarters + other.quarters)

    def __sub__(self, other: "QDist") -> "QDist":
        return QDist(self.quarters - other.quarters)

    def __str__(self) -> str:
        f = self.as_fraction
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"

    def __format__(self, spec: str) -> str:
        """Format specs apply to the rendered fraction, e.g. f"{q:>4}"."""
        return format(str(self), spec)

    def __repr__(self) -> str:
        return f"QDist({self.quarters})"


ZERO = QDist(0)
ONE = QDist(4)
FIVE_FOURTHS = QDist(5)
THREE_HALVES = QDist(6)
