"""Deterministic worker-fault models: chaos-testing the supervisor.

The fault models in :mod:`repro.faults.plan` perturb the *simulated*
hardware (link drops, engine stalls); the models here perturb the
*host* execution layer — the long-lived worker processes that
:class:`~repro.exec.supervise.SupervisedRunner` feeds sweep cells to,
one slot per worker.
Same philosophy as PR 2: every fault is scheduled deterministically
(explicit ``kind@cell[:attempt]`` entries or seeded rates), so a
supervision chaos campaign replays exactly and its assertions are
stable in CI.

Fault kinds (``WORKER_FAULT_KINDS``):

* ``crash`` — the worker SIGKILLs itself before reporting (models an
  OOM kill, a segfault, an operator ``kill -9``); only its slot gets
  a new worker.
* ``hang`` — the worker SIGSTOPs itself on receiving the cell, which
  freezes its heartbeat thread too (models a deadlock or livelock;
  caught by heartbeat staleness or the per-cell deadline, whichever
  fires first, and then SIGKILLed).  Without SIGSTOP (non-POSIX) it
  sleeps instead, heartbeat still running, so only the deadline
  catches it.
* ``garbage`` — the worker reports a payload that is not a
  :class:`~repro.runtime.RunStats` dict (models a corrupted IPC
  message; caught by the supervisor's decode validation).
* ``partial-write`` — the cell completes but its journal record is
  torn mid-write (models a crash inside ``write(2)``; caught by the
  journal's per-record checksum on the next load).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

WORKER_FAULT_KINDS = ("crash", "hang", "garbage", "partial-write")


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A deterministic schedule of worker faults for one sweep.

    Two composable sources, explicit entries winning over rates:

    * ``entries`` — exact ``(cell_index, attempt, kind)`` triples; an
      attempt of ``None`` fires on *every* attempt of that cell
      (the way to manufacture a poison cell).
    * seeded per-attempt rates — each ``(cell, attempt)`` pair draws
      one seeded RNG sample; the rates partition [0, 1) in a fixed
      order so a given seed yields the same faults forever.
    """

    entries: Tuple[Tuple[int, Optional[int], str], ...] = ()
    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    garbage_rate: float = 0.0
    partial_write_rate: float = 0.0

    def __post_init__(self):
        for entry in self.entries:
            index, attempt, kind = entry
            if kind not in WORKER_FAULT_KINDS:
                raise ValueError(
                    f"unknown worker fault kind {kind!r}; "
                    f"expected one of {WORKER_FAULT_KINDS}"
                )
            if index < 0 or (attempt is not None and attempt < 0):
                raise ValueError(f"negative cell/attempt in entry {entry!r}")

    def fault_for(self, index: int, attempt: int) -> Optional[str]:
        """The fault (if any) for attempt *attempt* of cell *index*."""
        for cell, when, kind in self.entries:
            if cell == index and (when is None or when == attempt):
                return kind
        total = (
            self.crash_rate
            + self.hang_rate
            + self.garbage_rate
            + self.partial_write_rate
        )
        if total <= 0.0:
            return None
        draw = random.Random(f"worker:{self.seed}:{index}:{attempt}").random()
        edge = 0.0
        for kind, rate in (
            ("crash", self.crash_rate),
            ("hang", self.hang_rate),
            ("garbage", self.garbage_rate),
            ("partial-write", self.partial_write_rate),
        ):
            edge += rate
            if draw < edge:
                return kind
        return None

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "WorkerFaultPlan":
        """Build a plan from CLI syntax: ``kind@cell[:attempt],...``.

        ``crash@2`` crashes every attempt of cell 2 (a poison cell);
        ``hang@3:0`` hangs only cell 3's first attempt (recovered by
        retry).  Whitespace around entries is ignored.
        """
        entries = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk:
                raise ValueError(
                    f"bad worker-fault entry {chunk!r}: expected kind@cell[:attempt]"
                )
            kind, _, where = chunk.partition("@")
            kind = kind.strip()
            cell_text, sep, attempt_text = where.partition(":")
            try:
                index = int(cell_text)
                attempt = int(attempt_text) if sep else None
            except ValueError:
                raise ValueError(
                    f"bad worker-fault entry {chunk!r}: cell/attempt must be ints"
                ) from None
            entries.append((index, attempt, kind))
        return cls(entries=tuple(entries), seed=seed)
