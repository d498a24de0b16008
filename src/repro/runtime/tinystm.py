"""TinySTM-style LSA baseline (§6.2's STM configuration).

A faithful reimplementation of the Lazy Snapshot Algorithm (Felber,
Fetzer, Marlier, Riegel — TPDS 2010) in the configuration the paper
benchmarks against: **commit-time locking** (lazy conflict detection)
with **write-back on commit** (lazy version management), per-location
versioned ownership records.

Per transaction:

* ``snapshot`` — the global-clock value the read set is known
  consistent at;
* reads check the location's version; a version newer than the
  snapshot triggers *snapshot extension* — revalidate every recorded
  read (cost linear in the read set, the overhead Fig. 11 charges
  TinySTM for) and slide the snapshot forward, or abort;
* writes buffer in a redo log;
* commit validates the read set once more, bumps the global clock,
  writes back and stamps the written locations.

Ownership records are word-granular (TinySTM's default hash maps one
lock per word-ish stripe); versioned locks are modelled by the
``_versions`` map since commits apply atomically in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from .api import TransactionAborted
from .backend import TMBackend

BEGIN_NS = 12.0
READ_NS = 10.0           # orec lookup + version check (extra cacheline)
#: Coherence traffic on the shared ownership-record table: every
#: committer invalidates orec lines that every reader must re-fetch,
#: so the effective per-read cost grows with the number of threads —
#: the scaling tax of per-location metadata that ROCoCoTM's global
#: signatures avoid (§5.1).
OREC_COHERENCE_NS_PER_THREAD = 0.9
WRITE_NS = 9.0           # redo-log append + bloom for own-read
VALIDATE_PER_READ_NS = 2.5
COMMIT_BASE_NS = 40.0    # clock CAS + lock acquisition overhead
WRITEBACK_PER_WORD_NS = 7.0
ROLLBACK_NS = 20.0


@dataclass
class _TxnState:
    snapshot: int = 0
    #: addr -> version observed at first read.
    reads: Dict[int, int] = field(default_factory=dict)
    #: redo log, program order collapsed to last value.
    writes: Dict[int, Any] = field(default_factory=dict)


class TinySTMBackend(TMBackend):
    """LSA with commit-time locking and write-back."""

    name = "TinySTM"
    #: per-location orecs + redo/read arrays: the largest metadata
    #: footprint of the contenders (drives the 28-thread thrash).
    metadata_footprint = 1.25
    #: ``_txns[tid]`` is a per-thread slot: only thread *tid* ever
    #: touches its entry, so no lock discipline applies (TM003).
    _sanitizer_locked = ("_txns",)

    def __init__(self) -> None:
        super().__init__()
        self.global_clock = 0
        self._versions: Dict[int, int] = {}
        self._txns: Dict[int, _TxnState] = {}
        self._read_ns = READ_NS

    def attach(self, driver) -> None:
        super().attach(driver)
        self._read_ns = READ_NS + OREC_COHERENCE_NS_PER_THREAD * max(
            0, driver.n_threads - 1
        )

    # ------------------------------------------------------------------
    def begin(self, tid: int, now: float) -> float:
        self._txns[tid] = _TxnState(snapshot=self.global_clock)
        return now + BEGIN_NS * self._scale

    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        txn = self._txns[tid]
        cost = self._read_ns
        if addr in txn.writes:
            return txn.writes[addr], now + cost * self._scale

        versions = self._versions
        version = versions.get(addr, 0)
        if version > txn.snapshot:
            # Snapshot extension: revalidate the whole read set.  This
            # O(r) pass is validation work whether it succeeds or not -
            # it is what makes big-read-set applications (labyrinth)
            # validation-bound on TinySTM (Fig. 11).
            extension = VALIDATE_PER_READ_NS * len(txn.reads)
            cost += extension
            self.stats.validation_ns += extension * self._scale
            if any(versions.get(a, 0) != v for a, v in txn.reads.items()):
                raise TransactionAborted("cpu-read-validation")
            txn.snapshot = self.global_clock

        txn.reads.setdefault(addr, version)
        return self.memory.load(addr), now + cost * self._scale

    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        self._txns[tid].writes[addr] = value
        return now + WRITE_NS * self._scale

    def commit(self, tid: int, now: float) -> float:
        txn = self._txns[tid]
        if not txn.writes:
            # Read-only: the snapshot is consistent by construction.
            self.stats.read_only_commits += 1
            return now + 6.0 * self._scale

        # Commit-time validation over the timestamped read set — the
        # per-transaction overhead Fig. 11 measures.
        validation = COMMIT_BASE_NS + VALIDATE_PER_READ_NS * len(txn.reads)
        self.stats.validation_ns += validation * self._scale
        self.stats.validations += 1
        versions = self._versions
        if any(versions.get(a, 0) != v for a, v in txn.reads.items()):
            raise TransactionAborted("cpu-commit-validation")

        self.global_clock += 1
        stamp = self.global_clock
        for addr, value in txn.writes.items():
            self.memory.store(addr, value)
            versions[addr] = stamp
        cost = validation + WRITEBACK_PER_WORD_NS * len(txn.writes)
        return now + cost * self._scale

    def rollback(self, tid: int, now: float, cause: str) -> float:
        self._txns[tid] = _TxnState(snapshot=self.global_clock)
        return now + ROLLBACK_NS * self._scale
