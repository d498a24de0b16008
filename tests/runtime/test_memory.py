"""Direct coverage for the simulated heap (bounds, bulk ops, alignment)."""

import pytest

from repro.runtime import CELLS_PER_CACHELINE, Memory


class TestBounds:
    def test_load_below_heap_raises(self):
        memory = Memory()
        memory.alloc(4)
        with pytest.raises(IndexError):
            memory.load(-1)

    def test_load_past_brk_raises(self):
        memory = Memory()
        base = memory.alloc(4)
        with pytest.raises(IndexError):
            memory.load(base + 4)

    def test_store_past_brk_raises(self):
        memory = Memory()
        base = memory.alloc(2)
        with pytest.raises(IndexError):
            memory.store(base + 2, 1)

    def test_empty_heap_rejects_address_zero(self):
        with pytest.raises(IndexError):
            Memory().load(0)

    def test_unwritten_cells_read_as_zero(self):
        memory = Memory()
        base = memory.alloc(3)
        assert memory.load_many(base, 3) == [0, 0, 0]


class TestBulkOps:
    def test_store_many_load_many_round_trip(self):
        memory = Memory()
        base = memory.alloc(5)
        memory.store_many(base, [10, 11, 12, 13, 14])
        assert memory.load_many(base, 5) == [10, 11, 12, 13, 14]

    def test_store_many_checks_every_cell(self):
        memory = Memory()
        base = memory.alloc(2)
        with pytest.raises(IndexError):
            memory.store_many(base, [1, 2, 3])  # third cell is off-heap
        # The in-bounds prefix landed before the bounds check fired.
        assert memory.load_many(base, 2) == [1, 2]

    def test_load_many_checks_every_cell(self):
        memory = Memory()
        base = memory.alloc(2)
        with pytest.raises(IndexError):
            memory.load_many(base, 3)

    def test_load_many_straddling_brk_raises(self):
        memory = Memory()
        memory.alloc(4)
        brk = memory.allocated
        assert memory.load_many(brk - 1, 1) == [0]
        with pytest.raises(IndexError, match=f"address {brk} outside"):
            memory.load_many(brk - 1, 2)

    def test_load_many_names_first_off_heap_cell(self):
        memory = Memory()
        memory.alloc(4)
        with pytest.raises(IndexError, match="address -1 outside"):
            memory.load_many(-1, 2)
        with pytest.raises(IndexError, match="address 6 outside"):
            memory.load_many(6, 2)
        assert memory.load_many(6, 0) == []

    def test_store_many_off_heap_start_stores_nothing(self):
        memory = Memory()
        base = memory.alloc(2)
        seen = []
        memory.subscribe(lambda addr, value: seen.append(addr))
        with pytest.raises(IndexError, match="address -1 outside"):
            memory.store_many(base - 1, [1, 2])
        assert seen == []
        assert memory.load_many(base, 2) == [0, 0]

    def test_store_many_accepts_any_iterable(self):
        memory = Memory()
        base = memory.alloc(4)
        memory.store_many(base, (i * i for i in range(4)))
        assert memory.load_many(base, 4) == [0, 1, 4, 9]

    def test_store_many_notifies_observers_per_cell(self):
        memory = Memory()
        base = memory.alloc(3)
        seen = []
        memory.subscribe(lambda addr, value: seen.append((addr, value)))
        memory.store_many(base, [7, 8, 9])
        assert seen == [(base, 7), (base + 1, 8), (base + 2, 9)]


class TestLineAlignment:
    def test_aligned_alloc_starts_on_a_line_boundary(self):
        memory = Memory()
        memory.alloc(3)  # leave the brk mid-line
        base = memory.alloc(4, align_line=True)
        assert base % CELLS_PER_CACHELINE == 0

    def test_alignment_padding_never_overlaps_prior_block(self):
        memory = Memory()
        first = memory.alloc(5)
        aligned = memory.alloc(2, align_line=True)
        assert aligned >= first + 5

    def test_already_aligned_brk_pays_no_padding(self):
        memory = Memory()
        first = memory.alloc(CELLS_PER_CACHELINE, align_line=True)
        second = memory.alloc(1, align_line=True)
        assert first == 0
        assert second == CELLS_PER_CACHELINE

    def test_aligned_block_spans_whole_lines_when_sized_so(self):
        memory = Memory()
        memory.alloc(1)
        base = memory.alloc(2 * CELLS_PER_CACHELINE, align_line=True)
        lines = {
            Memory.cacheline(base + i) for i in range(2 * CELLS_PER_CACHELINE)
        }
        assert len(lines) == 2  # exactly two lines, no straddling

    def test_padding_cells_stay_allocated_and_readable(self):
        memory = Memory()
        memory.alloc(3)
        base = memory.alloc(1, align_line=True)
        # The padded gap [3, 8) is inside the heap (brk moved past it).
        for addr in range(3, base):
            assert memory.load(addr) == 0

    def test_unaligned_alloc_packs_densely(self):
        memory = Memory()
        first = memory.alloc(3)
        second = memory.alloc(3)
        assert second == first + 3

    def test_zero_cell_alloc_rejected(self):
        with pytest.raises(ValueError):
            Memory().alloc(0)
