"""The simulated flat heap.

One address = one cell holding an arbitrary Python value (a 64-bit
word in the real system; pointer-typed cells hold other addresses).
A bump allocator hands out fresh ranges; there is no free — STAMP's
transactional phases are allocation-monotone and the simulator's runs
are short-lived.

Cachelines group 8 consecutive cells (64-byte lines of 64-bit words),
which the TSX model uses for conflict granularity — false sharing
included, as in the real hardware.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NoReturn, Optional

CELLS_PER_CACHELINE = 8


class Memory:
    """Word-addressed heap with direct (non-transactional) access."""

    def __init__(self) -> None:
        self._cells: Dict[int, Any] = {}
        self._brk = 0
        #: store observers: ``fn(addr, value)`` after every store.
        #: Backends with value caches (SI-MVCC's version chains) and
        #: the sanitizer subscribe to see *direct* stores — workload
        #: phase code writing under a barrier — which would otherwise
        #: silently invalidate their bookkeeping.
        self._observers: List = []

    def alloc(self, cells: int, align_line: bool = False) -> int:
        """Reserve *cells* consecutive addresses; returns the base.

        ``align_line`` starts the block on a cacheline boundary, which
        data structures use to avoid gratuitous false sharing (as a
        cache-conscious C implementation would).
        """
        if cells < 1:
            raise ValueError("allocation must cover at least one cell")
        if align_line and self._brk % CELLS_PER_CACHELINE:
            self._brk += CELLS_PER_CACHELINE - self._brk % CELLS_PER_CACHELINE
        base = self._brk
        self._brk += cells
        return base

    def load(self, addr: int) -> Any:
        """Direct load; unwritten cells read as 0 (zeroed heap)."""
        if not 0 <= addr < self._brk:
            self._out_of_heap(addr)
        return self._cells.get(addr, 0)

    def subscribe(self, observer) -> None:
        """Register ``observer(addr, value)`` to run after each store."""
        if observer not in self._observers:
            self._observers.append(observer)

    def store(self, addr: int, value: Any) -> None:
        if not 0 <= addr < self._brk:
            self._out_of_heap(addr)
        self._cells[addr] = value
        for observer in self._observers:
            observer(addr, value)

    def store_many(self, base: int, values: Iterable[Any]) -> None:
        """Store *values* at consecutive addresses from *base* with one
        bounds check for the whole range.  As with one :meth:`store` per
        cell, the cells before the first address outside the heap are
        written before its ``IndexError``."""
        values = list(values)
        end = base + len(values)
        outside = self._first_outside(base, end)
        cells = self._cells
        observers = self._observers
        for addr, value in zip(range(base, end if outside is None else outside), values):
            cells[addr] = value
            for observer in observers:
                observer(addr, value)
        if outside is not None:
            self._out_of_heap(outside)

    def load_many(self, base: int, count: int) -> List[Any]:
        outside = self._first_outside(base, base + count)
        if outside is not None:
            self._out_of_heap(outside)
        get = self._cells.get
        return [get(addr, 0) for addr in range(base, base + count)]

    def _first_outside(self, base: int, end: int) -> Optional[int]:
        """The first address of ``[base, end)`` outside the heap, or
        None if the whole range is inside it."""
        if base >= end or 0 <= base and end <= self._brk:
            return None
        return base if not 0 <= base < self._brk else self._brk

    def _out_of_heap(self, addr: int) -> NoReturn:
        raise IndexError(f"address {addr} outside allocated heap [0, {self._brk})")

    @property
    def allocated(self) -> int:
        return self._brk

    @staticmethod
    def cacheline(addr: int) -> int:
        return addr // CELLS_PER_CACHELINE
