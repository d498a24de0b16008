"""The conflict Detector (left half of Fig. 5).

The detector holds the bloom-filter bookkeeping ``h_0 .. h_{W-1}`` of
the W most recent committed writing transactions — one read-set and
one write-set signature each, "so that an upper bound of required
resources can be determined a priori" (§5.3) — and compares an
incoming transaction's read/write *addresses* against all W entries
in parallel.  Addresses (not signatures) travel from the CPU so the
detector can use the *query* operation, whose false positivity is
orders of magnitude below set-intersection's (Fig. 7).

Slot numbering matches :class:`repro.core.window.WindowMatrix`:
oldest first, so the produced forward/backward masks feed the matrix
directly.

The W-way, 8-address-per-cycle parallel compare of the hardware is
modelled with a **bit-sliced** store: ``m`` Python-int *slices* of 2W
bits each, the transpose of the W resident signature pairs.  Bit *s*
of slice *p* is bit *p* of ring slot *s*'s write signature, and bit
``W + s`` is bit *p* of that slot's read signature.  An address hits
a signature exactly when all k of its bit positions are set there, so
its hits against every slot and both halves at once are the AND of the
k slices at its positions — O(k·A) integer ops per request whatever W
is, the same dataflow as the RTL's W-way compare tree turned on its
side.  Vacant slots have no bits in any slice, so they never hit.

The W slots live in a **ring buffer** (head index + modular slot
math), so evicting ``h_{W-1}`` on commit reuses its slot: the slot's
bit is toggled in the slices named by ``old_raw ^ new_raw`` for each
half, evicting the old entry and inserting the new one in one pass.
Logical (oldest-first) slot *i* lives at physical slot
``(head + i) % W``; hits are computed in physical order and only the
final integer mask is rotated by ``head`` (two shifts and an OR) into
logical numbering.

Commit-time bookkeeping takes the transaction's *incremental*
signatures when the request carries them (the CPU built both during
execution — Algorithm 1), falling back to hashing the address sets
through the address memo otherwise.  Either way the recorded raws are
bit-identical, so verdicts cannot depend on which path ran.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..signatures import SignatureConfig


@dataclass(frozen=True)
class Bookkeeping:
    """One ``h_i`` entry: a committed transaction's two signatures."""

    label: Hashable
    commit_index: int
    read_raw: int
    write_raw: int


class ConflictDetector:
    """Bit-sliced signature store with W-way conflict detection."""

    def __init__(self, config: SignatureConfig, window: int):
        if window < 1:
            raise ValueError("window must hold at least one entry")
        self.config = config
        self.window = window
        #: one slice per signature bit position: bits ``[0, W)`` are
        #: the write signatures of physical slots ``0 .. W-1``, bits
        #: ``[W, 2W)`` their read signatures.
        self._slices: List[int] = [0] * config.bits
        #: resident entries, oldest first (logical slot order).
        self._entries: Deque[Bookkeeping] = deque()
        #: physical slot of logical slot 0.  Stays 0 until the first
        #: eviction (the window fills in place), then advances mod W.
        self._head = 0
        #: sticky: have the recorded commit indices been consecutive?
        #: The manager numbers commits 0, 1, 2, ... so the resident
        #: indices are always a contiguous run and the snapshot-
        #: observed set is a logical-order *prefix*, derived with
        #: integer ops alone.  Any out-of-sequence record (only
        #: reachable through direct detector use) clears the flag and
        #: a per-entry loop takes over; both paths are bit-identical.
        self._consecutive = True
        self._full_mask = (1 << window) - 1

    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        return len(self._entries)

    @property
    def oldest_commit_index(self) -> int:
        return self._entries[0].commit_index if self._entries else 0

    def entries(self) -> List[Bookkeeping]:
        return list(self._entries)

    # ------------------------------------------------------------------
    def _rotate(self, mask: int) -> int:
        """Rotate a *physical*-order slot bitmask into logical
        (oldest-first) numbering — logical slot i lives at physical
        slot ``(head + i) % W``."""
        head = self._head
        if head:
            mask = (
                (mask >> head) | (mask << (self.window - head))
            ) & self._full_mask
        return mask

    def edges(
        self,
        read_addrs: Sequence[int],
        write_addrs: Sequence[int],
        snapshot: int,
    ) -> Tuple[int, int]:
        """(forward, backward) slot bitmasks for a candidate.

        A read conflict against a slot the candidate *observed*
        (``commit_index < snapshot``) is a RAW backward edge; against
        an unobserved slot it is the stale-read forward edge.  Write
        conflicts (vs the slot's writes or reads) are always backward.

        Each address's 2W-bit hit vector is the AND of the slices at
        its k bit positions; ORed across addresses, a read's low
        (write-signature) half and both halves of a write, folded onto
        W bits, are the physical-order hit masks.
        """
        if not self._entries or not (read_addrs or write_addrs):
            return 0, 0
        read_hits = self._hits(read_addrs) & self._full_mask
        write_hits = self._hits(write_addrs)

        forward = 0
        backward = 0
        if read_hits:
            read_mask = self._rotate(read_hits)
            observed_mask = self._observed_prefix(snapshot)
            if observed_mask is None:
                # Non-consecutive history: per-entry compare, already
                # in logical order.
                observed_mask = 0
                for slot, entry in enumerate(self._entries):
                    if entry.commit_index < snapshot:
                        observed_mask |= 1 << slot
            forward = read_mask & ~observed_mask
            backward = read_mask & observed_mask
        if write_hits:
            backward |= self._rotate(
                (write_hits | write_hits >> self.window) & self._full_mask
            )
        return forward, backward

    def _hits(self, addrs: Sequence[int]) -> int:
        """Physical-order 2W-bit hit mask of *addrs*: the OR over the
        addresses of the AND of the slices at each one's k bit
        positions (bit s: slot s's write signature contains it; bit
        W + s: its read signature does)."""
        slices = self._slices
        lookup = self.config.lookup
        hits = 0
        for addr in addrs:
            hit = -1
            for pos in lookup(addr)[1]:
                hit &= slices[pos]
            hits |= hit
        return hits

    def _observed_prefix(self, snapshot: int) -> Optional[int]:
        """Logical-order bitmask of resident slots with
        ``commit_index < snapshot`` — ``(1 << t) - 1`` when the
        resident indices are one consecutive run, else None."""
        if not self._consecutive:
            return None
        t = snapshot - self._entries[0].commit_index
        n = len(self._entries)
        if t <= 0:
            return 0
        if t >= n:
            return (1 << n) - 1
        return (1 << t) - 1

    # ------------------------------------------------------------------
    def record_commit(
        self,
        label: Hashable,
        commit_index: int,
        read_addrs: Iterable[int],
        write_addrs: Iterable[int],
        read_raw: Optional[int] = None,
        write_raw: Optional[int] = None,
    ) -> bool:
        """Append bookkeeping ``h_{-1}``; evicts ``h_{W-1}`` when full.

        ``read_raw``/``write_raw`` are the transaction's incremental
        signatures when the CPU shipped them; omitted, the address
        sets are folded through the address memo (bit-identical result).
        Returns True when an eviction happened (the caller's matrix
        must shift in lock-step).
        """
        config = self.config
        if read_raw is None:
            read_raw = config.raw_of(read_addrs)
        if write_raw is None:
            write_raw = config.raw_of(write_addrs)
        entry = Bookkeeping(label, commit_index, read_raw, write_raw)

        if self._entries and commit_index != self._entries[-1].commit_index + 1:
            self._consecutive = False
        evicted = len(self._entries) == self.window
        if evicted:
            old = self._entries.popleft()
            old_read, old_write = old.read_raw, old.write_raw
            slot = self._head
            self._head = (self._head + 1) % self.window
        else:
            old_read = old_write = 0
            slot = len(self._entries)
        self._entries.append(entry)
        # The reused slot's bit flips in exactly the slices where the
        # old and new signatures differ: eviction and insertion at once.
        slices = self._slices
        for changed, bit in (
            (old_write ^ write_raw, 1 << slot),
            (old_read ^ read_raw, 1 << (self.window + slot)),
        ):
            while changed:
                pos = changed.bit_length() - 1
                slices[pos] ^= bit
                changed ^= 1 << pos
        return evicted
