"""Algorithm 1's read-barrier branches in ROCoCoTM, driven by hand.

Each test steps the backend through one branch of the CPU-side
protocol (§5.3, Fig. 8) and checks the outcome the paper prescribes:
snapshot extension, freezing on a sub-signature overlap, the fast
``cpu-miss`` fail path, the update-set barrier, and the exact
simulated cost of the per-subset re-intersection.
"""

import pytest

from repro.runtime import RococoTMBackend, TransactionAborted
from repro.runtime.driver import ManualDriver
from repro.runtime.rococotm import (
    INTERSECT_NS,
    READ_BASE_NS,
    SUBSET_SIZE,
    TEMPSET_PER_ENTRY_NS,
    WRITEBACK_PER_WORD_NS,
)

LATER = 1_000_000.0  # far past every write-back of these tests


def manual_backend(**kwargs):
    backend = RococoTMBackend(**kwargs)
    sim = ManualDriver(n_threads=4)
    backend.attach(sim)
    return backend, sim


def addresses(sim, n):
    base = sim.memory.alloc(n)
    return [base + i for i in range(n)]


def disjoint(backend, *groups):
    """Assert the signatures of the address *groups* pairwise share no
    element, so no branch below fires on a bloom alias."""
    config = backend.config
    sigs = [config.of(group) for group in groups]
    for i, a in enumerate(sigs):
        for b in sigs[i + 1:]:
            assert not a.intersects(b)
    for sig, group in zip(sigs, groups):
        for other in groups:
            if other is not group:
                assert not any(sig.query(addr) for addr in other)


def commit_write(backend, tid, addr, now):
    """One committed single-word writer; returns its write-back end."""
    backend.begin(tid, now)
    backend.write(tid, addr, tid, now)
    ready = backend.commit(tid, now)
    return ready + backend.scaled(WRITEBACK_PER_WORD_NS)


class TestSnapshotExtension:
    def test_disjoint_commit_extends_valid_ts(self):
        backend, sim = manual_backend()
        a, b, c = addresses(sim, 3)
        disjoint(backend, [a], [b], [c])
        backend.begin(0, 0.0)
        backend.read(0, a, 1.0)
        commit_write(backend, 1, b, 2.0)
        assert backend.global_ts == 1

        _, at = backend.read(0, c, LATER)
        txn = backend._txns[0]
        # Fig. 8(b): the missed commit is disjoint from the read set,
        # so the snapshot moves forward instead of freezing.
        assert txn.local_ts == txn.valid_ts == 1
        assert not txn.frozen
        assert at == LATER + backend.scaled(
            READ_BASE_NS + TEMPSET_PER_ENTRY_NS + INTERSECT_NS
        )

    def test_no_missed_commit_charges_only_the_base_read(self):
        backend, sim = manual_backend()
        a, b = addresses(sim, 2)
        backend.begin(0, 0.0)
        backend.read(0, a, 1.0)
        _, at = backend.read(0, b, 10.0)
        assert at == 10.0 + backend.scaled(READ_BASE_NS)
        assert backend._txns[0].valid_ts == 0


class TestFreeze:
    def _frozen_reader(self):
        """Thread 0 reads *a*, thread 1 commits a write of *a*, then
        thread 0 reads the unrelated *c*: Fig. 8(c)'s freeze."""
        backend, sim = manual_backend()
        a, c, d = addresses(sim, 3)
        disjoint(backend, [a], [c], [d])
        backend.begin(0, 0.0)
        backend.read(0, a, 1.0)
        commit_write(backend, 1, a, 2.0)
        backend.read(0, c, LATER)
        return backend, sim, (a, c, d)

    def test_sub_signature_overlap_freezes_the_snapshot(self):
        backend, _, _ = self._frozen_reader()
        txn = backend._txns[0]
        assert txn.frozen
        assert txn.local_ts == 1
        assert txn.valid_ts == 0  # no extension past the overlap

    def test_reading_a_missed_address_aborts_on_the_cpu(self):
        backend, _, (a, _, _) = self._frozen_reader()
        with pytest.raises(TransactionAborted) as aborted:
            backend.read(0, a, LATER + 1.0)
        assert aborted.value.cause == "cpu-miss"

    def test_frozen_reader_of_an_unmissed_address_continues(self):
        backend, _, (_, _, d) = self._frozen_reader()
        _, at = backend.read(0, d, LATER + 1.0)
        # Frozen, but no new commits: no TempSet, no intersection.
        assert at == LATER + 1.0 + backend.scaled(READ_BASE_NS)
        assert backend._txns[0].frozen

    def test_frozen_reader_aborts_on_the_update_set(self):
        backend, _, (_, _, d) = self._frozen_reader()
        end = commit_write(backend, 2, d, LATER + 10.0)
        assert end > LATER + 20.0
        with pytest.raises(TransactionAborted) as aborted:
            backend.read(0, d, LATER + 20.0)
        assert aborted.value.cause == "cpu-update-conflict"


class TestUpdateSetBarrier:
    def test_unfrozen_reader_backs_off_to_the_writeback_end(self):
        backend, sim = manual_backend()
        a, d = addresses(sim, 2)
        disjoint(backend, [a], [d])
        backend.begin(0, 0.0)
        backend.read(0, a, 1.0)
        end = commit_write(backend, 1, d, 10.0)
        assert end > 20.0
        value, at = backend.read(0, d, 20.0)
        assert value == 1  # the completed write-back is visible
        assert at == end + backend.scaled(
            READ_BASE_NS + TEMPSET_PER_ENTRY_NS + INTERSECT_NS
        )
        assert not backend._txns[0].frozen

    def test_expired_writeback_does_not_block(self):
        backend, sim = manual_backend()
        (d,) = addresses(sim, 1)
        backend.begin(0, 0.0)
        end = commit_write(backend, 1, d, 10.0)
        _, at = backend.read(0, d, end)
        assert at == end + backend.scaled(
            READ_BASE_NS + TEMPSET_PER_ENTRY_NS + INTERSECT_NS
        )


class TestSubsetIntersection:
    @pytest.mark.parametrize("n_reads", [1, SUBSET_SIZE, SUBSET_SIZE + 1, 3 * SUBSET_SIZE])
    def test_whole_set_hit_charges_one_intersect_per_subset(self, n_reads):
        backend, sim = manual_backend()
        *reads, fresh = addresses(sim, n_reads + 1)
        disjoint(backend, reads, [fresh])
        backend.begin(0, 0.0)
        for addr in reads:
            backend.read(0, addr, 1.0)
        commit_write(backend, 1, reads[-1], 2.0)

        _, at = backend.read(0, fresh, LATER)
        subsets = -(-n_reads // SUBSET_SIZE)
        assert at == LATER + backend.scaled(
            READ_BASE_NS
            + TEMPSET_PER_ENTRY_NS
            + INTERSECT_NS
            + INTERSECT_NS * subsets
        )
        assert backend._txns[0].frozen

    def test_tempset_cost_counts_every_missed_commit(self):
        backend, sim = manual_backend()
        a, fresh, *writes = addresses(sim, 5)
        disjoint(backend, [a], [fresh], writes)
        backend.begin(0, 0.0)
        backend.read(0, a, 1.0)
        for i, addr in enumerate(writes):
            commit_write(backend, 1, addr, 2.0 + i)
        _, at = backend.read(0, fresh, LATER)
        # Three queue entries folded, one whole-set miss, extension.
        assert at == LATER + backend.scaled(
            READ_BASE_NS + 3 * TEMPSET_PER_ENTRY_NS + INTERSECT_NS
        )
        assert backend._txns[0].valid_ts == 3
