"""Bit vectors on Python big integers.

The FPGA implementation of ROCoCo (section 4.2) manipulates W-bit
vectors and a W x W bit matrix in single cycles.  Python integers give
us the same bit-level parallelism semantically: AND/OR/shift act on
all bits at once, so the code below is a direct transcription of the
hardware datapath rather than a loop-per-bit emulation.

Bit *i* of a vector corresponds to slot *i* (a transaction slot in the
sliding window or an index into the committed prefix).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List


class BitVec:
    """A fixed-width little-endian bit vector."""

    __slots__ = ("width", "bits")

    def __init__(self, width: int, bits: int = 0):
        if width < 0:
            raise ValueError("width must be non-negative")
        self.width = width
        self.bits = bits & self.mask(width)

    @staticmethod
    def mask(width: int) -> int:
        return (1 << width) - 1

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            if not 0 <= i < width:
                raise IndexError(f"bit {i} out of range for width {width}")
            bits |= 1 << i
        return cls(width, bits)

    @classmethod
    def ones(cls, width: int) -> "BitVec":
        return cls(width, cls.mask(width))

    # ------------------------------------------------------------------
    # Single-bit access
    # ------------------------------------------------------------------
    def get(self, i: int) -> bool:
        self._check(i)
        return bool(self.bits >> i & 1)

    def set(self, i: int, value: bool = True) -> None:
        self._check(i)
        if value:
            self.bits |= 1 << i
        else:
            self.bits &= ~(1 << i)

    def _check(self, i: int) -> None:
        if not 0 <= i < self.width:
            raise IndexError(f"bit {i} out of range for width {self.width}")

    # ------------------------------------------------------------------
    # Whole-vector (single-cycle) operations
    # ------------------------------------------------------------------
    def __and__(self, other: "BitVec") -> "BitVec":
        self._match(other)
        return BitVec(self.width, self.bits & other.bits)

    def __or__(self, other: "BitVec") -> "BitVec":
        self._match(other)
        return BitVec(self.width, self.bits | other.bits)

    def __xor__(self, other: "BitVec") -> "BitVec":
        self._match(other)
        return BitVec(self.width, self.bits ^ other.bits)

    def __invert__(self) -> "BitVec":
        return BitVec(self.width, ~self.bits)

    def _match(self, other: "BitVec") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def any(self) -> bool:
        """The wide-OR reduction the hardware uses for cycle detection."""
        return self.bits != 0

    def popcount(self) -> int:
        return bin(self.bits).count("1")

    def shifted_in(self, value: bool) -> "BitVec":
        """Shift left by one slot and insert *value* at slot 0.

        Models the shift-register behaviour of the sliding window: the
        bit for the oldest slot (width-1) falls off.
        """
        return BitVec(self.width, (self.bits << 1) | int(value))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def indices(self) -> List[int]:
        out, bits, i = [], self.bits, 0
        while bits:
            if bits & 1:
                out.append(i)
            bits >>= 1
            i += 1
        return out

    def __iter__(self) -> Iterator[bool]:
        for i in range(self.width):
            yield bool(self.bits >> i & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVec):
            return NotImplemented
        return self.width == other.width and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.width, self.bits))

    def __len__(self) -> int:
        return self.width

    def __repr__(self) -> str:
        body = "".join("1" if b else "0" for b in self)
        return f"BitVec({self.width}, 0b{body[::-1] or '0'})"
