"""Approximately-universal multiply-shift hashing (§5.2).

ROCoCoTM computes bloom-filter signatures on both the FPGA (hardwired
multipliers in DSP blocks) and the CPU (a few AVX2 instructions), so
it uses the multiply-shift scheme of Dietzfelbinger et al.: for a
word size ``w`` and output size ``d`` bits,

    h_a(x) = ((a * x) mod 2^w) >> (w - d)

with ``a`` a random odd ``w``-bit constant.  The family is
2-approximately universal; one multiplier + one shift per lane, which
is exactly one DSP and no memory on the FPGA, and a vectorized
multiply on the CPU.
"""

from __future__ import annotations

import random
from typing import List

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


class MultiplyShiftHash:
    """One hash lane: 64-bit multiply-shift to ``out_bits`` bits."""

    __slots__ = ("multiplier", "out_bits", "_shift")

    def __init__(self, multiplier: int, out_bits: int):
        if out_bits < 1 or out_bits > WORD_BITS:
            raise ValueError(f"out_bits must be in [1, {WORD_BITS}]")
        if multiplier % 2 == 0:
            raise ValueError("multiplier must be odd")
        self.multiplier = multiplier & _WORD_MASK
        self.out_bits = out_bits
        self._shift = WORD_BITS - out_bits

    def __call__(self, x: int) -> int:
        return ((self.multiplier * x) & _WORD_MASK) >> self._shift

    def __repr__(self) -> str:
        return f"MultiplyShiftHash(0x{self.multiplier:x}, {self.out_bits})"


def hash_family(lanes: int, out_bits: int, seed: int = 0x5EED) -> List[MultiplyShiftHash]:
    """``lanes`` independent multiply-shift hashes (one per partition).

    Deterministic in *seed* so signatures are reproducible across the
    CPU- and FPGA-side models (they must agree bit-for-bit, like the
    AVX2 and hardwired implementations do).
    """
    rng = random.Random(seed)
    hashes = []
    for _ in range(lanes):
        multiplier = rng.getrandbits(WORD_BITS) | 1
        hashes.append(MultiplyShiftHash(multiplier, out_bits))
    return hashes
