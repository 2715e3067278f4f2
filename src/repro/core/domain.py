"""Discrete domain mapping and bit-level helpers (paper Sections 3.1 and 3.2).

HINT assumes interval endpoints drawn from a discrete domain ``[0, 2^m - 1]``.
HINT^m generalises to arbitrary domains by linearly rescaling each raw
endpoint ``x`` to ``f(x) = floor((x - min) / (max - min) * (2^m - 1))`` and
indexing the *m*-bit images.  The relevant partition at level ``l`` for a
value ``x`` is the ``l``-bit prefix of ``x``.

:class:`Domain` packages this mapping together with the prefix arithmetic so
the index code never manipulates raw bits directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.errors import DomainError

__all__ = ["Domain", "prefix", "bit_length_for", "partition_extent"]


def prefix(k: int, x: int, m: int) -> int:
    """Return the ``k``-bit prefix of the ``m``-bit integer ``x``.

    This is the partition offset at level ``k`` for a domain value ``x``
    (``prefix(k, x)`` in the paper's notation, Table 2).
    """
    return x >> (m - k)


def bit_length_for(domain_size: int) -> int:
    """Smallest ``m`` such that ``2^m`` covers ``domain_size`` distinct values."""
    if domain_size <= 0:
        raise DomainError(f"domain size must be positive, got {domain_size}")
    return max(1, int(domain_size - 1).bit_length())


def partition_extent(m: int, level: int) -> int:
    """Number of domain values covered by one partition at ``level`` of an m-level index."""
    if not 0 <= level <= m:
        raise DomainError(f"level {level} outside [0, {m}]")
    return 1 << (m - level)


@dataclass(frozen=True)
class Domain:
    """The discrete domain ``[0, 2^num_bits - 1]`` used by HINT/HINT^m.

    Attributes:
        num_bits: the ``m`` parameter -- the index has ``num_bits + 1`` levels.
        raw_min: smallest raw endpoint observed in the data (``min(x)``).
        raw_max: largest raw endpoint observed in the data (``max(x)``).

    When ``raw_min == 0`` and ``raw_max == 2^num_bits - 1`` the mapping is the
    identity (the comparison-free HINT case of Section 3.1).  Otherwise values
    are linearly rescaled as in Section 3.2.

    A raw domain so wide that ``raw_extent * max_value`` would leave int64
    (nanosecond timestamps at ``num_bits=16``) first drops the low bits of
    every raw offset that the product has no room for; the mapping stays
    monotone, sends ``raw_max`` to ``max_value`` and keeps at least
    ``63 - num_bits`` bits of resolution, far more than the ``num_bits`` the
    index uses.  A domain that cannot be scaled in int64 at all (extent
    ``>= 2^63`` or ``num_bits > 62``) raises :class:`DomainError` when built.
    """

    num_bits: int
    raw_min: int = 0
    raw_max: int | None = None  # None: 2^num_bits - 1
    #: number of distinct values in the discrete domain (``2^num_bits``)
    size: int = field(init=False, repr=False, compare=False)
    #: largest discrete value (``2^num_bits - 1``)
    max_value: int = field(init=False, repr=False, compare=False)
    #: length of the raw domain (Λ in the paper's model)
    raw_extent: int = field(init=False, repr=False, compare=False)
    #: True when mapping raw values to discrete values is the identity
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise DomainError(f"num_bits must be >= 1, got {self.num_bits}")
        if self.raw_max is None:
            object.__setattr__(self, "raw_max", (1 << self.num_bits) - 1)
        if self.raw_max < self.raw_min:
            raise DomainError(f"raw_max ({self.raw_max}) < raw_min ({self.raw_min})")
        # set once: read by :attr:`rescaling` and the partition arithmetic
        size = 1 << self.num_bits
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "max_value", size - 1)
        object.__setattr__(self, "raw_extent", self.raw_max - self.raw_min)
        object.__setattr__(self, "is_identity", self.raw_min == 0 and self.raw_max == size - 1)
        if not self.is_identity and (self.num_bits > 62 or self.raw_extent >= 1 << 63):
            raise DomainError(
                f"[{self.raw_min}, {self.raw_max}] cannot be rescaled to "
                f"{self.num_bits} bits in 64-bit arithmetic"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def for_collection(cls, starts: np.ndarray, ends: np.ndarray, num_bits: int) -> "Domain":
        """Build the domain for a dataset, as HINT^m does before indexing."""
        if len(starts) == 0:
            return cls(num_bits=num_bits, raw_min=0, raw_max=(1 << num_bits) - 1)
        return cls(num_bits=num_bits, raw_min=int(np.min(starts)), raw_max=int(np.max(ends)))

    @classmethod
    def identity(cls, num_bits: int) -> "Domain":
        """The identity domain ``[0, 2^num_bits - 1]`` (no rescaling)."""
        return cls(num_bits=num_bits)

    # ------------------------------------------------------------------ #
    # mapping raw <-> discrete
    # ------------------------------------------------------------------ #
    @cached_property
    def rescaling(self) -> tuple[int, int, int, int, int]:
        """``(low, high, shift, factor, divisor)`` of the one mapping formula
        ``((clamp(x, low, high) - low) >> shift) * factor // divisor``.

        The identity domain clamps only (``factor == divisor == 1``), and a
        one-value domain maps everything to 0 (``factor == 0``).  Otherwise
        it is the paper's ``f``, exactly, unless the product could reach
        ``2^63``: then ``shift`` is the number of bits by which it would, so
        scalar Python ints and int64 arrays compute the same value.  Plain
        ints, so a caller mapping many scalars can keep the tuple.
        """
        if self.is_identity:
            return 0, self.max_value, 0, 1, 1
        if self.raw_extent == 0:
            return self.raw_min, self.raw_max, 0, 0, 1
        shift = max(0, self.raw_extent.bit_length() + self.num_bits - 63)
        return self.raw_min, self.raw_max, shift, self.max_value, self.raw_extent >> shift

    def map_value(self, x: int | float) -> int:
        """Map a raw endpoint to the discrete domain (the ``f`` of Section 3.2).

        Values outside ``[raw_min, raw_max]`` are clamped; queries may extend
        beyond the data span, and clamping them to the domain boundary yields
        exactly the partitions the in-domain part of the query overlaps.
        """
        low, high, shift, factor, divisor = self.rescaling
        return ((int(low if x < low else high if x > high else x) - low) >> shift) * factor // divisor

    def map_values(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`map_value`: the same formula on an int64 array."""
        low, high, shift, factor, divisor = self.rescaling
        offsets = np.clip(np.asarray(values, dtype=np.int64), low, high) - low
        return (offsets >> shift) * factor // divisor

    # ------------------------------------------------------------------ #
    # partition arithmetic
    # ------------------------------------------------------------------ #
    def prefix(self, level: int, value: int) -> int:
        """Partition offset at ``level`` that contains the discrete ``value``."""
        return value >> (self.num_bits - level)

    def partitions_at(self, level: int) -> int:
        """Number of partitions at ``level`` (``2^level``)."""
        if not 0 <= level <= self.num_bits:
            raise DomainError(f"level {level} outside [0, {self.num_bits}]")
        return 1 << level

    def partition_bounds(self, level: int, offset: int) -> tuple[int, int]:
        """Discrete ``[first, last]`` values covered by partition ``P[level, offset]``."""
        width = 1 << (self.num_bits - level)
        first = offset * width
        return first, first + width - 1

    def relevant_range(self, level: int, q_start: int, q_end: int) -> tuple[int, int]:
        """Offsets ``(f, l)`` of the first and last partitions at ``level``
        overlapping the discrete query ``[q_start, q_end]``."""
        return self.prefix(level, q_start), self.prefix(level, q_end)
