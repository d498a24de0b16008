"""Parallel (partitioned) bloom-filter signatures (§5.2, Fig. 7(a)).

A signature summarizes an unbounded address set in ``m`` bits split
into ``k`` partitions of ``m/k`` bits; each partition has its own hash
lane and receives exactly one bit per inserted element.  Supported
operations — insertion, membership query, set union, set intersection
— are all bit-wise, which is what makes them single-cycle on the FPGA
and a handful of AVX2 instructions on the CPU.

ROCoCoTM's configuration is ``m = 512``: one CPU cacheline, so a
signature ships to the FPGA in a single CCI transfer, and
"coincidentally" also exactly eight 64-bit addresses.

**The address memo.**  Every operation on an element reduces to the
same k-bit *query mask* (one set bit per partition), and workloads
touch the same addresses over and over — every read re-inserts, every
commit re-hashes, every detector compare re-derives the very same
bits.  :class:`SignatureConfig` therefore memoizes each address once,
in one dict ``addr -> (mask, positions)``: the packed ``m``-bit mask
(a Python int) and the k global bit positions, computed by the scalar
multiply-shift lanes.  Signature insert/query use the mask; the
conflict detector uses the positions to pick the bit slices it ANDs.
The memo is exact (no eviction: an address's mask never changes), so
every consumer agrees bit-for-bit with the uncached computation — the
property test in ``tests/signatures`` pins it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .hashing import hash_family

DEFAULT_BITS = 512
DEFAULT_PARTITIONS = 4


class SignatureConfig:
    """Shared (m, k, hash family) configuration for compatible signatures.

    Also the home of the address memo shared by signature insert/query
    and the hardware model's conflict detector.
    """

    __slots__ = (
        "bits",
        "partitions",
        "partition_bits",
        "hashes",
        "_memo",
        "mask_cache_hits",
        "mask_cache_misses",
    )

    def __init__(
        self,
        bits: int = DEFAULT_BITS,
        partitions: int = DEFAULT_PARTITIONS,
        seed: int = 0x5EED,
    ):
        if bits < 1 or partitions < 1:
            raise ValueError("bits and partitions must be positive")
        if bits % partitions:
            raise ValueError("partitions must evenly divide bits")
        partition_bits = bits // partitions
        if partition_bits & (partition_bits - 1):
            raise ValueError("partition size must be a power of two (hash range)")
        self.bits = bits
        self.partitions = partitions
        self.partition_bits = partition_bits
        self.hashes = hash_family(partitions, partition_bits.bit_length() - 1, seed)
        self._memo: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0

    # ------------------------------------------------------------------
    # The address memo
    # ------------------------------------------------------------------
    @property
    def mask_cache_entries(self) -> int:
        return len(self._memo)

    def lookup(self, element: int) -> Tuple[int, Tuple[int, ...]]:
        """The memoized ``(query mask, bit positions)`` of *element*."""
        entry = self._memo.get(element)
        if entry is not None:
            self.mask_cache_hits += 1
            return entry
        width = self.partition_bits
        positions = tuple(
            lane * width + lane_hash(element)
            for lane, lane_hash in enumerate(self.hashes)
        )
        mask = 0
        for pos in positions:
            mask |= 1 << pos
        entry = self._memo[element] = (mask, positions)
        self.mask_cache_misses += 1
        return entry

    def intern_rows(self, elements: Sequence[int]) -> int:
        """Memoize *elements*; returns the memo size.  Kept, like
        :meth:`query_words`, because ``perfbench/tracer.py`` wraps it by
        name."""
        for element in elements:
            self.lookup(element)
        return len(self._memo)

    def query_mask(self, element: int) -> int:
        """The packed m-bit query mask of *element* (all k bits set)."""
        # The hit path is inlined: every signature insert and query of
        # every TM barrier comes through here.
        entry = self._memo.get(element)
        if entry is None:
            return self.lookup(element)[0]
        self.mask_cache_hits += 1
        return entry[0]

    def query_words(self, elements: Sequence[int]) -> int:
        """The union of the query masks of *elements*."""
        return self.raw_of(elements)

    # ------------------------------------------------------------------
    def bit_positions(self, element: int) -> List[int]:
        """The k global bit positions of *element* (one per partition)."""
        return list(self.lookup(element)[1])

    def new(self) -> "BloomSignature":
        return BloomSignature(self)

    def of(self, elements: Iterable[int]) -> "BloomSignature":
        sig = self.new()
        for element in elements:
            sig.insert(element)
        return sig

    def raw_of(self, elements: Sequence[int]) -> int:
        """The packed signature of an address batch, via the memo:
        a union of memoized masks instead of per-element hashing."""
        raw = 0
        lookup = self.lookup
        for element in elements:
            raw |= lookup(element)[0]
        return raw


class BloomSignature:
    """One m-bit signature; bits held in a single Python int."""

    __slots__ = ("config", "raw")

    def __init__(self, config: SignatureConfig, raw: int = 0):
        self.config = config
        self.raw = raw

    # ------------------------------------------------------------------
    def insert(self, element: int) -> None:
        self.raw |= self.config.query_mask(element)

    def query(self, element: int) -> bool:
        """Membership test: no false negatives, tunable false positives.

        One cached-mask AND-compare — the common miss costs a single
        big-int AND instead of k per-bit probes.
        """
        mask = self.config.query_mask(element)
        return self.raw & mask == mask

    def is_empty(self) -> bool:
        return self.raw == 0

    def clear(self) -> None:
        self.raw = 0

    # ------------------------------------------------------------------
    def union(self, other: "BloomSignature") -> "BloomSignature":
        self._compatible(other)
        return BloomSignature(self.config, self.raw | other.raw)

    def unite(self, other: "BloomSignature") -> None:
        """In-place union (the paper's ``TempSet.unite``)."""
        self._compatible(other)
        self.raw |= other.raw

    def intersect(self, other: "BloomSignature") -> "BloomSignature":
        self._compatible(other)
        return BloomSignature(self.config, self.raw & other.raw)

    def intersects(self, other: "BloomSignature") -> bool:
        """Set-overlap test — the operation whose false positivity
        Fig. 7(b) analyses.

        A shared element sets one bit per partition in *both*
        signatures, so the AND of the signatures must be non-zero in
        **every** partition; requiring all k partitions (rather than a
        bare non-zero AND) is what makes partitioned filters usable for
        intersection at all.  Sound: returns True for any real overlap;
        may return True spuriously.
        """
        self._compatible(other)
        both = self.raw & other.raw
        if both == 0:
            return False
        width = self.config.partition_bits
        mask = (1 << width) - 1
        for _ in range(self.config.partitions):
            if both & mask == 0:
                return False
            both >>= width
        return True

    def copy(self) -> "BloomSignature":
        return BloomSignature(self.config, self.raw)

    def _compatible(self, other: "BloomSignature") -> None:
        if self.config is not other.config:
            raise ValueError("signatures from different configurations")

    # ------------------------------------------------------------------
    def popcount(self) -> int:
        return self.raw.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomSignature):
            return NotImplemented
        return self.config is other.config and self.raw == other.raw

    def __hash__(self) -> int:
        return hash((id(self.config), self.raw))

    def __repr__(self) -> str:
        return (
            f"BloomSignature(m={self.config.bits}, k={self.config.partitions},"
            f" popcount={self.popcount()})"
        )
