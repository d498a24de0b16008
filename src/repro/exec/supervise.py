"""Supervised sweep execution: deadlines, retries, quarantine, resume.

:class:`SupervisedRunner` is the one multi-process runner.  It shards
cells over ``max_workers`` slots, each running one long-lived worker
process that takes cells one at a time over its own pipe, and it does
not trust those workers — one mechanism per failure mode:

* **deadlines** — every cell has a per-cell wall-clock deadline; a
  cell that blows it has its worker killed and is retried
  (``runner.timeouts``).  Only a killed or dead worker is replaced; a
  cell that raises or reports garbage leaves its worker running.
* **heartbeats** — workers beat a shared timestamp array from a
  daemon thread; a busy process that stops beating (frozen,
  SIGSTOPped, or dead before its first beat) is detected long before
  the deadline and killed (failure kind ``hang``).
* **crash detection** — a worker that exits without reporting (a
  SIGKILL, an ``os._exit``, an OOM kill) is detected via its exit
  code and retried (failure kind ``crash``).
* **bounded retries** — each failing cell is retried up to
  ``max_retries`` times with deterministically seeded exponential
  backoff (``random.Random(f"{seed}:{spec_hash}:{attempt}")`` — no
  ambient entropy, so a fault campaign replays exactly).
* **quarantine** — a cell that fails every attempt is recorded with
  full diagnostics (journal + :attr:`SupervisedRunner.quarantined`)
  and *skipped*; one poison cell can no longer sink a sweep.
* **resume** — completed cells are journaled to an fsynced WAL
  (:mod:`repro.exec.journal`); a SIGKILLed sweep resumed from its
  journal serves those cells without re-execution and produces a
  bit-identical ``BENCH_stamp.json`` (simulated results are pure
  functions of their specs, so salvage cannot change a single byte).

The wall clock appears in this module *only* as the supervisor's own
scheduling clock (deadlines, heartbeats, backoff pacing for host
processes) — it never reaches a result.  Cell outcomes remain
functions of (spec, seed) alone; the kill/resume bit-identity test in
``tests/exec/test_supervise.py`` is the proof.

Supervision telemetry flows through the observability layer: counts
on a :class:`~repro.obs.metrics.MetricsRegistry` (the ``runner.*``
names declared in :mod:`repro.analysis.registry`) and retry/
quarantine instant :class:`~repro.obs.spans.Marker` events on a
dedicated ``supervisor`` lane, timestamped by a deterministic
sequence number rather than the wall clock.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import random
import signal
import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

# The supervisor's scheduling clock (see the module docstring): every
# read below times *host* processes, never simulated results.
import time  # tm: ignore[TM101]

from ..obs.metrics import RETRY_BOUNDS, MetricsRegistry
from ..obs.spans import Marker
from ..runtime import RunStats
from .cache import ResultCache
from .journal import SweepJournal
from .runner import Runner, SerialRunner, run_payload
from .spec import ExperimentSpec

#: how long a hang-faulted worker sleeps where there is no SIGSTOP;
#: any sane deadline fires first.
_HANG_SLEEP_S = 3600.0
_CRASH_EXIT_CODE = 86


def _now() -> float:
    return time.monotonic()  # tm: ignore[TM101]


def _sleep(seconds: float) -> None:
    time.sleep(seconds)  # tm: ignore[TM101]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for :class:`SupervisedRunner`; all timings wall-clock."""

    #: per-cell deadline in seconds; None disables deadline kills.
    timeout_s: Optional[float] = None
    #: worker heartbeat period; None disables heartbeat hang detection.
    heartbeat_s: Optional[float] = 0.5
    #: missed beats before a worker counts as hung.
    heartbeat_misses: int = 10
    #: retries per cell after its first failure, before quarantine.
    max_retries: int = 2
    #: exponential backoff between attempts (base * 2^attempt, jittered
    #: by a seeded RNG, capped).
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    @property
    def stale_after_s(self) -> Optional[float]:
        if self.heartbeat_s is None:
            return None
        return self.heartbeat_s * self.heartbeat_misses

    def backoff_s(self, spec_hash: str, attempt: int) -> float:
        """Deterministic jittered backoff: a retry campaign replays
        identically because the jitter RNG is seeded from the cell."""
        rng = random.Random(f"{self.seed}:{spec_hash}:{attempt}")
        raw = self.backoff_base_s * (2 ** attempt) * (0.5 + rng.random())
        return min(self.backoff_cap_s, raw)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _beat_forever(heartbeats, slot: int, period_s: float) -> None:
    while True:
        heartbeats[slot] = _now()
        _sleep(period_s)


def _worker_loop(conn, supervisor_end, heartbeats, slot, heartbeat_s) -> None:
    """One long-lived worker: runs the cells its slot is sent over
    *conn*, one at a time, until the ``None`` stop sentinel or until
    the supervisor is gone.  Module-level and dict-in/dict-out so it
    pickles under ``spawn``.  Each job carries a deterministic
    worker-fault model (:mod:`repro.faults.worker`) applied in-situ."""
    # A forked worker inherits the supervisor's end of its own pipe;
    # closing it lets a SIGKILLed supervisor show up here as EOF.
    supervisor_end.close()
    if heartbeats is not None:
        threading.Thread(
            target=_beat_forever,
            args=(heartbeats, slot, heartbeat_s or 0.5),
            daemon=True,
        ).start()
    try:
        while True:
            job = conn.recv()
            if job is None:
                return
            payload, fault = job
            if fault == "hang":
                # Freeze the whole worker, heartbeat thread included: the
                # supervisor sees heartbeat staleness or a blown deadline.
                if hasattr(signal, "SIGSTOP"):
                    os.kill(os.getpid(), signal.SIGSTOP)
                _sleep(_HANG_SLEEP_S)  # non-POSIX stand-in: deadline only
                os._exit(_CRASH_EXIT_CODE)
            if fault == "crash":
                if hasattr(signal, "SIGKILL"):
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(_CRASH_EXIT_CODE)  # non-POSIX stand-in
            try:
                out = run_payload(payload)
            except Exception as failure:  # report, then take the next cell
                conn.send(("error", f"{type(failure).__name__}: {failure}"))
                continue
            if fault == "garbage":
                out = {"oops": "not a RunStats payload"}
            conn.send(("ok", out))
    except (EOFError, OSError):
        return  # the supervisor died without stopping us


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
def _pick_context():
    """The cheapest available start method (fork > spawn > None)."""
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


@dataclass
class _Slot:
    """One of ``max_workers`` worker slots and the cell it is running.

    The process outlives its cells; it is replaced only after it was
    killed (deadline, hang) or died (crash)."""

    number: int
    process: object = None
    conn: object = None
    #: the cell in flight, or None while the slot is idle.
    index: Optional[int] = None
    attempt: int = 0
    started_s: float = 0.0
    fault: Optional[str] = None


class SupervisedRunner(Runner):
    """A :class:`Runner` that survives crashed, hung and killed
    workers, quarantines poison cells, and resumes from a journal.

    ``run()`` returns one entry per spec in input order, as every
    runner does — but a quarantined cell's entry is ``None`` (with
    diagnostics in :attr:`quarantined`), so every caller of a
    multi-process sweep must be prepared for holes.
    """

    name = "supervised"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        policy: Optional[SupervisorPolicy] = None,
        journal: Optional[str] = None,
        worker_faults=None,
        in_process: bool = False,
    ):
        super().__init__(cache=cache)
        # --jobs semantics: None/1 -> one worker, 0 -> host-sized, N -> N.
        if max_workers is None:
            workers = 1
        elif max_workers == 0:
            workers = multiprocessing.cpu_count()
        else:
            workers = max(1, max_workers)
        self.max_workers = workers
        self.policy = policy if policy is not None else SupervisorPolicy()
        #: fsynced WAL path; its compatible entries are served, not rerun.
        self.journal_path = journal
        #: anything with ``fault_for(index, attempt) -> Optional[str]``
        #: (:class:`repro.faults.worker.WorkerFaultPlan`).
        self.worker_faults = worker_faults
        #: run cells in the calling process (no kill-based isolation;
        #: faults become raised failures) — deterministic and fast,
        #: used by tests and as the no-multiprocessing fallback.
        self.in_process = in_process
        self.metrics = MetricsRegistry()
        self.markers: List[Marker] = []
        #: input index -> quarantine diagnostics for this run.
        self.quarantined: Dict[int, Dict] = {}
        self.journal_hits = 0
        self.retries = 0
        self.fallback_reason: Optional[str] = None
        self._marker_seq = 0

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ExperimentSpec], progress=None) -> List[RunStats]:
        specs = list(specs)
        results: List[Optional[RunStats]] = [None] * len(specs)
        self.quarantined = {}
        reg = self.metrics
        pending: List[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None:
                cached = self.cache.get(spec)
                if cached is not None:
                    results[index] = cached
                    if progress is not None:
                        progress(f"{spec.label()} [cached]")
                    continue
            pending.append(index)
        journal = None
        if self.journal_path:
            journal = SweepJournal(self.journal_path)
            state = journal.start([spec.content_hash() for spec in specs])
            if state.corrupt:
                reg.count("runner.journal_corrupt", len(state.corrupt))
            pending = self._salvage(specs, pending, results, state, progress)
        try:
            if pending:
                self._supervise(specs, pending, results, journal, progress)
        finally:
            if journal is not None:
                journal.close()
        return results  # type: ignore[return-value]

    def _salvage(self, specs, pending, results, state, progress) -> List[int]:
        """Serve completed/poisoned cells from the loaded journal."""
        reg = self.metrics
        still: List[int] = []
        for index in pending:
            spec = specs[index]
            content = spec.content_hash()
            entry = state.results.get(content)
            if entry is not None:
                stats = self._decode(spec, entry)
                if isinstance(stats, RunStats):
                    results[index] = stats
                    self.journal_hits += 1
                    reg.count("runner.journal_hits")
                    if self.cache is not None:
                        self.cache.put(spec, stats)
                    if progress is not None:
                        progress(f"{spec.label()} [journal]")
                    continue
                reg.count("runner.journal_corrupt")
            diagnostics = state.quarantined.get(content)
            if diagnostics is not None:
                self.quarantined[index] = diagnostics
                reg.count("runner.quarantined")
                self._mark("quarantine", spec, {"loaded": True})
                if progress is not None:
                    progress(f"{spec.label()} [quarantined]")
                continue
            still.append(index)
        return still

    # ------------------------------------------------------------------
    def _supervise(self, specs, pending, results, journal, progress) -> None:
        context = None if self.in_process else _pick_context()
        if context is None:
            if not self.in_process:
                self.fallback_reason = "no multiprocessing start method"
            self._supervise_in_process(specs, pending, results, journal, progress)
        else:
            self._supervise_processes(
                context, specs, pending, results, journal, progress
            )

    # -- shared bookkeeping --------------------------------------------
    def _mark(self, kind: str, spec: ExperimentSpec, args: Dict) -> None:
        # Instant markers on a dedicated supervisor lane; the timestamp
        # is a deterministic sequence number, never the wall clock.
        self._marker_seq += 1
        self.markers.append(
            Marker(
                name=f"{kind}:{spec.label()}",
                cat="runner",
                pid="runner",
                lane="supervisor",
                ts_ns=float(self._marker_seq),
                args=args,
            )
        )

    def _decode(self, spec: ExperimentSpec, payload):
        """A validated :class:`RunStats` for *spec*, or an error string.

        Every :class:`RunStats` field defaults, so ``from_dict`` alone
        would happily launder garbage into an empty stats object; the
        workload check is what makes ``garbage-output`` detectable.
        """
        if not isinstance(payload, dict):
            return f"worker payload is {type(payload).__name__}, not a dict"
        if payload.get("workload") != spec.workload or "makespan_ns" not in payload:
            return "worker payload does not describe this cell (garbage output?)"
        try:
            return RunStats.from_dict(payload)
        except Exception as failure:
            return f"undecodable worker payload: {type(failure).__name__}: {failure}"

    def _accept(self, spec, index, attempt, stats, results, journal, progress):
        results[index] = stats
        reg = self.metrics
        reg.count("runner.cells")
        reg.observe("runner.attempts", attempt + 1, RETRY_BOUNDS)
        if journal is not None:
            journal.record_result(spec.content_hash(), stats.to_dict())
        if self.cache is not None:
            self.cache.put(spec, stats)
        if progress is not None:
            progress(f"{spec.label()} makespan={stats.makespan_ns / 1e6:.3f} ms")

    def _after_failure(
        self, spec, index, attempt, kind, detail, failures, journal, progress
    ) -> Optional[float]:
        """Record one failed attempt.  Returns the backoff (seconds)
        before the retry, or None when the cell is quarantined."""
        reg = self.metrics
        failures.setdefault(index, []).append(
            {"attempt": attempt, "kind": kind, "detail": detail}
        )
        reg.count(f"runner.failures.{kind}")
        if kind == "timeout":
            reg.count("runner.timeouts")
        if attempt < self.policy.max_retries:
            self.retries += 1
            reg.count("runner.retries")
            self._mark("retry", spec, {"kind": kind, "attempt": attempt})
            if progress is not None:
                progress(f"{spec.label()} retry #{attempt + 1} after {kind}")
            return self.policy.backoff_s(spec.content_hash(), attempt)
        diagnostics = {
            "spec": spec.canonical(),
            "attempts": attempt + 1,
            "failures": failures[index],
        }
        self.quarantined[index] = diagnostics
        reg.count("runner.quarantined")
        self._mark("quarantine", spec, {"kind": kind, "attempts": attempt + 1})
        if journal is not None:
            journal.record_quarantine(spec.content_hash(), diagnostics)
        if progress is not None:
            progress(
                f"{spec.label()} QUARANTINED after {attempt + 1} attempts ({kind})"
            )
        return None

    def _fault_for(self, index: int, attempt: int) -> Optional[str]:
        if self.worker_faults is None:
            return None
        return self.worker_faults.fault_for(index, attempt)

    # -- in-process mode -----------------------------------------------
    def _supervise_in_process(self, specs, pending, results, journal, progress):
        """No process isolation: crash/hang faults become immediate
        failures (retry/quarantine still exercised deterministically);
        real hangs cannot be preempted here — that needs processes."""
        failures: Dict[int, List] = {}
        for index in pending:
            spec = specs[index]
            attempt = 0
            while True:
                fault = self._fault_for(index, attempt)
                kind = detail = None
                payload = None
                if fault == "crash":
                    kind, detail = "crash", "simulated worker crash (in-process)"
                elif fault == "hang":
                    kind, detail = "hang", "simulated worker hang (in-process)"
                else:
                    try:
                        payload = run_payload(spec.canonical())
                    except Exception as failure:
                        kind = "error"
                        detail = f"{type(failure).__name__}: {failure}"
                if payload is not None and fault == "garbage":
                    payload = {"oops": "not a RunStats payload"}
                if payload is not None and fault == "partial-write":
                    if journal is not None:
                        journal.record_torn_result(spec.content_hash(), payload)
                    kind, detail = "partial-write", "journal entry torn mid-write"
                elif payload is not None:
                    decoded = self._decode(spec, payload)
                    if isinstance(decoded, RunStats):
                        self._accept(
                            spec, index, attempt, decoded, results, journal, progress
                        )
                        break
                    kind, detail = "garbage-output", decoded
                backoff = self._after_failure(
                    spec, index, attempt, kind, detail, failures, journal, progress
                )
                if backoff is None:
                    break
                if backoff > 0:
                    _sleep(backoff)
                attempt += 1

    # -- process mode --------------------------------------------------
    def _kill(self, process) -> None:
        # SIGKILL, not SIGTERM: a hang-faulted worker is SIGSTOPped, and
        # a stopped process acts on no other signal.
        process.kill()
        process.join(1.0)

    def _supervise_processes(
        self, context, specs, pending, results, journal, progress
    ) -> None:
        # Imported here, not at module level: only process mode needs
        # it, and every ``import repro.exec`` would pay for it.
        from multiprocessing.connection import wait

        policy = self.policy
        slots = [_Slot(number) for number in range(min(self.max_workers, len(pending)))]
        heartbeats = None
        if policy.heartbeat_s is not None:
            heartbeats = context.Array("d", len(slots), lock=False)
        todo = deque(pending)
        delayed: List = []  # (ready_s, index) heap
        attempts: Dict[int, int] = {index: 0 for index in pending}
        failures: Dict[int, List] = {}

        def dispatch(slot: _Slot, index: int) -> None:
            if slot.process is None:
                if heartbeats is not None:
                    heartbeats[slot.number] = 0.0
                slot.conn, child = context.Pipe()
                slot.process = context.Process(
                    target=_worker_loop,
                    args=(
                        child, slot.conn, heartbeats, slot.number, policy.heartbeat_s
                    ),
                    daemon=True,
                )
                slot.process.start()
                child.close()
            slot.index, slot.attempt = index, attempts[index]
            slot.fault = self._fault_for(index, slot.attempt)
            slot.started_s = _now()
            try:
                slot.conn.send((specs[index].canonical(), slot.fault))
            except OSError:
                pass  # the worker died idle: check() reports the crash

        def discard(slot: _Slot) -> None:
            """Kill the slot's worker; its next cell starts a new one."""
            self._kill(slot.process)
            slot.conn.close()
            slot.process = slot.conn = None

        def fail(slot: _Slot, kind: str, detail: str) -> None:
            index, attempt = slot.index, slot.attempt
            slot.index = None
            backoff = self._after_failure(
                specs[index], index, attempt, kind, detail, failures, journal, progress
            )
            attempts[index] = attempt + 1
            if backoff is not None:
                heapq.heappush(delayed, (_now() + backoff, index))

        def handle(slot: _Slot, message) -> None:
            kind, payload = message
            if kind == "error":
                fail(slot, "error", payload)
                return
            spec = specs[slot.index]
            if slot.fault == "partial-write":
                if journal is not None:
                    journal.record_torn_result(spec.content_hash(), payload)
                fail(slot, "partial-write", "journal entry torn mid-write")
                return
            decoded = self._decode(spec, payload)
            if not isinstance(decoded, RunStats):
                fail(slot, "garbage-output", decoded)
                return
            index, slot.index = slot.index, None
            self._accept(spec, index, slot.attempt, decoded, results, journal, progress)

        def check(slot: _Slot, now: float) -> None:
            """Collect the slot's report, or detect a crash, a blown
            deadline or a stale heartbeat."""
            # Liveness first: a worker that reported and then died
            # still has its report in the pipe.
            dead = not slot.process.is_alive()
            if slot.conn.poll():
                try:
                    message = slot.conn.recv()
                except (EOFError, OSError):
                    dead = True
                else:
                    handle(slot, message)
                    return
            if dead:
                code = slot.process.exitcode
                discard(slot)
                fail(slot, "crash", f"worker exited with code {code} before reporting")
                return
            deadline = policy.timeout_s
            if deadline is not None and now - slot.started_s > deadline:
                discard(slot)
                fail(slot, "timeout", f"deadline {deadline:g}s exceeded")
                return
            stale = policy.stale_after_s
            if stale is not None:
                last = max(heartbeats[slot.number], slot.started_s)
                if now - last > stale:
                    discard(slot)
                    fail(slot, "hang", f"no heartbeat for {now - last:.2f}s")

        try:
            while True:
                now = _now()
                for slot in slots:
                    if slot.index is not None:
                        continue
                    if delayed and delayed[0][0] <= now:
                        dispatch(slot, heapq.heappop(delayed)[1])
                    elif todo:
                        dispatch(slot, todo.popleft())
                busy = [slot for slot in slots if slot.index is not None]
                if not (busy or delayed):
                    return
                wait(
                    [slot.conn for slot in busy]
                    + [slot.process.sentinel for slot in busy],
                    timeout=0.02,
                )
                now = _now()
                for slot in busy:
                    check(slot, now)
        finally:
            live = [slot for slot in slots if slot.process is not None]
            for slot in live:
                if slot.index is None:  # idle: ask it to stop
                    try:
                        slot.conn.send(None)
                    except OSError:
                        pass  # already gone
            for slot in live:
                if slot.index is None:
                    slot.process.join(1.0)
                if slot.process.is_alive():  # busy, or deaf to the stop
                    self._kill(slot.process)
                slot.conn.close()

    # ------------------------------------------------------------------
    def summary(self) -> str:
        reg = self.metrics
        executed = int(reg.counters.get("runner.cells", 0))
        parts = [f"{executed} executed"]
        if self.journal_hits:
            parts.append(f"{self.journal_hits} from journal")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        return "supervised: " + ", ".join(parts)


def default_runner(
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal: Optional[str] = None,
    worker_faults=None,
) -> Runner:
    """The one place a sweep's runner is chosen, for the CLI and the
    benchmarks alike.

    ``jobs`` keeps the ``--jobs`` semantics: None/1 -> a
    :class:`SerialRunner`; N > 1 -> a :class:`SupervisedRunner` with N
    workers; 0 -> one worker per host core.  Any supervision setting
    (a *policy*, a *journal* to resume from, *worker_faults*) selects
    the supervised runner at every ``jobs``.
    """
    if (
        jobs in (None, 1)
        and policy is None
        and journal is None
        and worker_faults is None
    ):
        return SerialRunner(cache=cache)
    return SupervisedRunner(
        max_workers=jobs,
        cache=cache,
        policy=policy,
        journal=journal,
        worker_faults=worker_faults,
    )
