"""Ring-buffer detector vs an array-shift reference.

The bit-sliced :class:`ConflictDetector` stores its W slots in a ring
buffer (head index + modular slot math), keeps them transposed into
one 2W-bit slice per signature bit, and computes edge masks in
physical order, rotating only the final integer.  These tests drive
several full wraparounds against an independent array-shift model
that keeps slots physically oldest-first and queries each address
with *uncached* bit positions, asserting that ``edges()`` masks,
``oldest_commit_index``, and the resident entries agree bit-for-bit
at every step, across window widths and partition counts.  A second
check pins the slice store itself to the transpose of the resident
entries' signatures after every commit and eviction.
"""

import random

import pytest

from repro.hw import ConflictDetector
from repro.signatures import SignatureConfig


# ----------------------------------------------------------------------
# Reference model: physical oldest-first slots, per-address queries.
# ----------------------------------------------------------------------


class ArrayShiftDetector:
    """The pre-PR10 semantics: shift-down eviction, big-int queries."""

    def __init__(self, config, window):
        self.config = config
        self.window = window
        self.entries = []  # (commit_index, read_raw, write_raw), oldest first

    def _bit_positions(self, element):
        width = self.config.partition_bits
        return [i * width + h(element) for i, h in enumerate(self.config.hashes)]

    def _raw_of(self, addrs):
        raw = 0
        for addr in addrs:
            for pos in self._bit_positions(addr):
                raw |= 1 << pos
        return raw

    @property
    def oldest_commit_index(self):
        return self.entries[0][0] if self.entries else 0

    def record_commit(self, commit_index, read_addrs, write_addrs):
        if len(self.entries) == self.window:
            del self.entries[0]
        self.entries.append(
            (commit_index, self._raw_of(read_addrs), self._raw_of(write_addrs))
        )

    def edges(self, read_addrs, write_addrs, snapshot):
        read_masks = [self._raw_of([a]) for a in read_addrs]
        write_masks = [self._raw_of([a]) for a in write_addrs]
        forward = 0
        backward = 0
        for slot, (commit_index, read_raw, write_raw) in enumerate(self.entries):
            bit = 1 << slot
            if any(write_raw & m == m for m in read_masks):
                if commit_index < snapshot:
                    backward |= bit
                else:
                    forward |= bit
            if any(write_raw & m == m for m in write_masks) or any(
                read_raw & m == m for m in write_masks
            ):
                backward |= bit
        return forward, backward


def _stream(rng, txns, space=4096, n_reads=3, n_writes=2):
    out = []
    for _ in range(txns):
        addrs = rng.sample(range(space), n_reads + n_writes)
        out.append((tuple(addrs[:n_reads]), tuple(addrs[n_reads:])))
    return out


# ----------------------------------------------------------------------


def _drive_against_reference(config, window, commits, seed, space=4096):
    """Commit *commits* transactions with a probe before each; returns
    how many probes produced a non-empty edge mask."""
    live = ConflictDetector(config, window)
    ref = ArrayShiftDetector(config, window)
    rng = random.Random(seed)
    nonempty = 0

    for commit_index, (reads, writes) in enumerate(
        _stream(rng, commits, space=space)
    ):
        probe_reads, probe_writes = _stream(rng, 1, space=space)[0]
        snapshot = rng.randint(max(0, commit_index - window), commit_index)
        got = live.edges(probe_reads, probe_writes, snapshot)
        assert got == ref.edges(probe_reads, probe_writes, snapshot), (
            window,
            commit_index,
        )
        nonempty += got != (0, 0)

        live.record_commit(commit_index, commit_index, reads, writes)
        ref.record_commit(commit_index, reads, writes)
        assert live.oldest_commit_index == ref.oldest_commit_index
        assert live.resident == len(ref.entries)
        assert [e.commit_index for e in live.entries()] == [
            e[0] for e in ref.entries
        ]
    return nonempty


@pytest.mark.parametrize("window", [3, 8, 64, 100])
def test_wraparound_matches_array_shift_reference(window):
    """Several wraparounds with a probe after each commit."""
    _drive_against_reference(
        SignatureConfig(), window, 3 * window + 7, seed=1234 + window
    )


@pytest.mark.parametrize("partitions", [1, 2, 4, 8])
@pytest.mark.parametrize("window", [1, 7, 64, 256])
def test_wraparound_across_geometries(window, partitions):
    """W in {1, 7, 64, 256} x k in {1, 2, 4, 8}; a small address space
    keeps real conflicts frequent so the masks are not all empty."""
    config = SignatureConfig(512, partitions)
    nonempty = _drive_against_reference(
        config, window, 2 * window + 40, seed=window * 10 + partitions, space=64
    )
    assert nonempty > 0


def _expected_slices(detector):
    """The transpose of the resident entries' raws, in physical slots."""
    window = detector.window
    expected = [0] * detector.config.bits
    for logical, entry in enumerate(detector.entries()):
        slot = (detector._head + logical) % window
        for pos in range(detector.config.bits):
            if entry.write_raw >> pos & 1:
                expected[pos] |= 1 << slot
            if entry.read_raw >> pos & 1:
                expected[pos] |= 1 << (window + slot)
    return expected


@pytest.mark.parametrize("partitions", [1, 4, 8])
@pytest.mark.parametrize("window", [1, 7, 64])
def test_slices_are_transpose_of_resident_raws(window, partitions):
    """After every commit and eviction no stale slot bit survives:
    the slice store is exactly the transpose of the resident raws."""
    config = SignatureConfig(512, partitions)
    detector = ConflictDetector(config, window)
    rng = random.Random(window + partitions)
    commit_index = 0
    for step, (reads, writes) in enumerate(_stream(rng, 3 * window + 5, space=512)):
        # Gapped indices every other window exercise the sticky
        # fallback; the store must not care.
        commit_index += 1 if step < 2 * window else rng.randint(1, 3)
        detector.record_commit(step, commit_index, reads, writes)
        assert detector._slices == _expected_slices(detector), (window, step)


@pytest.mark.parametrize("window", [4, 16])
def test_non_consecutive_commit_indices_fall_back(window):
    """Gapped commit indices (direct detector use) must disable the
    prefix fast path and still agree with the reference."""
    config = SignatureConfig()
    live = ConflictDetector(config, window)
    ref = ArrayShiftDetector(config, window)
    rng = random.Random(99)

    commit_index = 0
    for step, (reads, writes) in enumerate(_stream(rng, 3 * window)):
        commit_index += rng.randint(1, 3)  # gaps -> non-consecutive
        live.record_commit(step, commit_index, reads, writes)
        ref.record_commit(commit_index, reads, writes)

        probe_reads, probe_writes = _stream(rng, 1)[0]
        snapshot = rng.randint(0, commit_index + 1)
        assert live.edges(probe_reads, probe_writes, snapshot) == ref.edges(
            probe_reads, probe_writes, snapshot
        ), (window, step)
    assert not live._consecutive


def test_shipped_signatures_equal_rehash():
    """record_commit with incremental raws is bit-identical to the
    address-set fallback (the ValidationRequest.read_raw contract)."""
    config = SignatureConfig()
    with_sigs = ConflictDetector(config, 8)
    without = ConflictDetector(config, 8)
    rng = random.Random(7)
    for commit_index, (reads, writes) in enumerate(_stream(rng, 20)):
        read_raw = config.of(reads).raw
        write_raw = config.of(writes).raw
        with_sigs.record_commit(
            commit_index, commit_index, reads, writes,
            read_raw=read_raw, write_raw=write_raw,
        )
        without.record_commit(commit_index, commit_index, reads, writes)
        probe_reads, probe_writes = _stream(rng, 1)[0]
        snapshot = rng.randint(0, commit_index + 1)
        assert with_sigs.edges(
            probe_reads, probe_writes, snapshot
        ) == without.edges(probe_reads, probe_writes, snapshot)
