"""Best-effort HTM in the style of Intel TSX (§6.2's HTM baseline).

The paper implements its HTM baseline on real TSX; we model the
mechanisms §6.2-6.3 blames for its behaviour:

* **Eager conflict detection at cacheline granularity** through the
  coherence protocol, requester-wins: touching a line inside another
  active transaction's conflicting set aborts *the other* transaction
  immediately (its undo is applied on the spot), which is what makes
  "an aborted transaction cause more transactions to abort in a
  chain".
* **Eager version management**: writes go to memory in place with an
  undo log; aborts restore and retry.
* **Capacity limits**: the write set must fit the L1 (512 lines), the
  read set the L2-backed tracking structure (4096 lines); overflow is
  an unconditional abort that no retry can fix — after the retry
  budget such transactions serialize on the fallback lock.
* **Constant retry policy**: 5 hardware attempts (1 + 4 retries, the
  paper's best-performing constant), then a global fallback lock.
  Taking the fallback lock dooms every in-flight hardware transaction
  (the lock word sits in each one's read set), and new transactions
  wait for the lock to clear — the 83.3% abort-rate ceiling of
  footnote 10 (5 aborts per 6 attempts) emerges from exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from .api import TransactionAborted
from .backend import TMBackend
from .coarse_lock import GlobalLock
from .memory import CELLS_PER_CACHELINE

XBEGIN_NS = 38.0
XEND_NS = 14.0
ACCESS_NS = 2.0          # cache-speed, uninstrumented
ABORT_BASE_NS = 120.0    # pipeline flush + state restore
UNDO_PER_LINE_NS = 3.0

#: Per-operation probability of a microarchitectural (spurious) abort:
#: interrupts, TLB activity, unlucky associativity evictions.  Small on
#: dedicated cores; an order of magnitude worse once hyper-threading
#: makes two transactions share one L1 — the "indeterministic
#: micro-architectural conditions" of §6.2 that cap TSX's scaling.
SPURIOUS_PER_OP = 0.003
SPURIOUS_PER_OP_SMT = 0.15

HARDWARE_ATTEMPTS = 5    # 1 initial + 4 retries (§6.2)
WRITE_CAPACITY_LINES = 512    # 32 KiB L1 / 64 B
#: Effective read-set capacity.  Architecturally reads are tracked
#: beyond the L1, but evictions of tracked lines abort in practice, so
#: the usable read footprint is far below the cache size — the
#: "spurious aborts introduced by architectural limitations" of §1.
#: 256 lines (16 KiB) reflects the eviction-prone regime that makes
#: big-read-set workloads (labyrinth) hopeless on real TSX.
READ_CAPACITY_LINES = 256


@dataclass
class _HwTxn:
    read_lines: Set[int] = field(default_factory=set)
    write_lines: Set[int] = field(default_factory=set)
    undo: Dict[int, Any] = field(default_factory=dict)
    doomed: Optional[str] = None


class TsxBackend(TMBackend):
    """Requester-wins best-effort HTM with a global-lock fallback."""

    name = "TSX"
    metadata_footprint = 0.35  # tracking lives in caches, not memory
    backoff_scale = 0.1        # constant retry policy (§6.2)
    #: ``_spurious_state`` is the deterministic LCG behind capacity/
    #: interrupt aborts — global by design, advanced atomically at one
    #: simulated instant per operation (TM003).
    _sanitizer_locked = ("_spurious_state",)

    def __init__(self, hardware_attempts: int = HARDWARE_ATTEMPTS) -> None:
        super().__init__()
        if hardware_attempts < 1:
            raise ValueError("need at least one hardware attempt")
        self.hardware_attempts = hardware_attempts
        self.fallback = GlobalLock()
        self._hw: Dict[int, _HwTxn] = {}
        self._fallback_mode: Set[int] = set()
        self._failures: Dict[int, int] = {}
        self._spurious_state = 0x9E3779B97F4A7C15
        #: per-operation spurious-abort probability, set by ``attach``.
        self._spurious_rate = SPURIOUS_PER_OP

    def attach(self, driver) -> None:
        super().attach(driver)
        # Per-operation spurious-abort rate: constant for a run.
        if driver.n_threads <= driver.cost_model.physical_cores:
            self._spurious_rate = SPURIOUS_PER_OP
        else:
            self._spurious_rate = SPURIOUS_PER_OP_SMT

    # ------------------------------------------------------------------
    def begin(self, tid: int, now: float) -> float:
        if self._failures.get(tid, 0) >= self.hardware_attempts:
            # Fallback path: serialize under the global lock.
            at = self.fallback.acquire(tid, now, self.driver)
            self._fallback_mode.add(tid)
            self._doom_all_hardware("cpu-lock-subscription")
            return at
        if self.fallback.held:
            # The lock word is in every hardware txn's read set, so a
            # held lock aborts the attempt immediately.  Crucially the
            # failed attempt *counts toward the retry budget*: threads
            # spinning against a fallback holder exhaust their retries
            # and take the lock themselves — the "lemming effect" that
            # turns one fallback into a serial convoy and produces the
            # §6.3 abort avalanche.
            raise TransactionAborted("cpu-lock-subscription")
        self._hw[tid] = _HwTxn()
        return now + XBEGIN_NS * self._scale

    # ------------------------------------------------------------------
    def read(self, tid: int, addr: int, now: float) -> Tuple[Any, float]:
        if tid in self._fallback_mode:
            return self.memory.load(addr), now + ACCESS_NS * self._scale
        txn = self._checked(tid)
        self._spurious_check(tid)
        line = addr // CELLS_PER_CACHELINE
        # Requester wins: evict conflicting *writers* elsewhere.
        self._kill_conflicting(tid, line, writers_only=True)
        txn.read_lines.add(line)
        if len(txn.read_lines) > READ_CAPACITY_LINES:
            raise self._abort(tid, "cpu-capacity-read")
        return self.memory.load(addr), now + ACCESS_NS * self._scale

    def write(self, tid: int, addr: int, value: Any, now: float) -> float:
        if tid in self._fallback_mode:
            self.memory.store(addr, value)
            return now + ACCESS_NS * self._scale
        txn = self._checked(tid)
        self._spurious_check(tid)
        line = addr // CELLS_PER_CACHELINE
        self._kill_conflicting(tid, line, writers_only=False)
        txn.write_lines.add(line)
        if len(txn.write_lines) > WRITE_CAPACITY_LINES:
            raise self._abort(tid, "cpu-capacity-write")
        txn.undo.setdefault(addr, self.memory.load(addr))
        self.memory.store(addr, value)
        return now + ACCESS_NS * self._scale

    # ------------------------------------------------------------------
    def commit(self, tid: int, now: float) -> float:
        if tid in self._fallback_mode:
            self._fallback_mode.discard(tid)
            self._failures[tid] = 0
            return self.fallback.release(tid, now, self.driver)
        txn = self._checked(tid)
        if not txn.write_lines:
            self.stats.read_only_commits += 1
        del self._hw[tid]
        self._failures[tid] = 0
        return now + XEND_NS * self._scale

    def rollback(self, tid: int, now: float, cause: str) -> float:
        self._failures[tid] = self._failures.get(tid, 0) + 1
        txn = self._hw.pop(tid, None)
        cost = ABORT_BASE_NS
        if txn is not None:
            # Undo not yet applied (self-detected abort).
            self._apply_undo(txn)
            cost += UNDO_PER_LINE_NS * len(txn.write_lines)
        return now + cost * self._scale

    # ------------------------------------------------------------------
    def _spurious_check(self, tid: int) -> None:
        """Deterministic pseudo-random microarchitectural abort."""
        self._spurious_state = (
            self._spurious_state * 6364136223846793005 + 1442695040888963407
        ) & 0xFFFFFFFFFFFFFFFF
        if (self._spurious_state >> 11) / float(1 << 53) < self._spurious_rate:
            raise TransactionAborted("cpu-spurious")

    def _checked(self, tid: int) -> _HwTxn:
        txn = self._hw.get(tid)
        if txn is None:
            raise TransactionAborted("cpu-conflict")  # doomed remotely
        if txn.doomed:
            del self._hw[tid]
            raise TransactionAborted(txn.doomed)
        return txn

    def _abort(self, tid: int, cause: str) -> TransactionAborted:
        # Keep state for rollback() to undo.
        return TransactionAborted(cause)

    def _kill_conflicting(self, tid: int, line: int, writers_only: bool) -> None:
        """Coherence-driven remote aborts: requester wins."""
        for other_tid, other in list(self._hw.items()):
            if other_tid == tid or other.doomed:
                continue
            conflict = line in other.write_lines or (
                not writers_only and line in other.read_lines
            )
            if conflict:
                self._apply_undo(other)
                other.doomed = "cpu-conflict"

    def _doom_all_hardware(self, cause: str) -> None:
        for other in self._hw.values():
            if not other.doomed:
                self._apply_undo(other)
                other.doomed = cause

    def _apply_undo(self, txn: _HwTxn) -> None:
        # Reachable from read(): requester-wins coherence lets a *read*
        # evict a conflicting writer, whose speculative in-place stores
        # (eager version management) must be rolled back here.  The
        # store restores the pre-transaction value of the *evicted*
        # transaction — it is the modeled abort, not a read effect.
        for addr, old in txn.undo.items():
            self.memory.store(addr, old)  # tm: ignore[TM106]
        txn.undo.clear()
