"""The narrow Driver API backends program against.

Backends never reach into :class:`Simulator` itself: doing so would
couple all eight TM systems — and the hw engine underneath ROCoCoTM —
to the driver's internals and make the scheduler impossible to rebuild
without touching every backend.  This module pins down the *entire*
legal surface:

Attributes (immutable run parameters):

* ``n_threads`` — thread count of the run;
* ``memory`` — the shared :class:`repro.runtime.memory.Memory`;
* ``stats`` — the run's :class:`repro.runtime.stats.RunStats`;
* ``cost_model`` — the machine timing parameters;
* ``bus`` — the run's :class:`repro.runtime.events.EventBus`.

Methods:

* ``step_cost(ns, footprint)`` — a nominal CPU cost scaled for the
  current SMT regime (what ``TMBackend.scaled`` is built on);
* ``park(tid)`` — abandon the current operation; the thread blocks and
  the operation is re-issued after a wake (raises
  :class:`repro.runtime.backend.ParkThread` — the driver's unwind);
* ``wake_at(tid, at_ns)`` — unblock a parked thread no earlier than
  ``at_ns`` (lock releases, barrier broadcasts);
* ``wants(kind)`` / ``emit(event)`` — the wants()-gated emission
  surface of the run's event bus.

:class:`Simulator` implements the protocol (it *is* the driver), and
:class:`repro.runtime.events.EventBus` structurally satisfies the
:class:`Emitter` subset — which is why trace-level engines
(:meth:`repro.cc.engine.TraceCC.run`) and the validation-path
publishers (:mod:`repro.faults`) can be handed either a full driver or
a bare bus.  :class:`ManualDriver` is a minimal concrete
implementation for driving backends by hand in tests and self-checks.
"""

from __future__ import annotations

from typing import List, NoReturn, Optional, Tuple

try:  # pragma: no cover - Protocol is typing-only sugar
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from .backend import CostModel, ParkThread
from .events import EventBus, SimEvent
from .memory import Memory
from .stats import RunStats


@runtime_checkable
class Emitter(Protocol):
    """The wants()-gated emission subset of the Driver API.

    Satisfied by :class:`repro.runtime.events.EventBus` itself, by
    :class:`Simulator`, and by :class:`ManualDriver` — anything that
    can answer "would anyone see this event?" and deliver it.
    """

    def wants(self, kind: str) -> bool: ...

    def emit(self, event: SimEvent) -> None: ...


@runtime_checkable
class Driver(Protocol):
    """What a :class:`repro.runtime.backend.TMBackend` may touch.

    Anything not on this protocol — the thread table, the scheduler
    kernel, ``_Thread`` fields — is driver-internal and off limits.
    """

    n_threads: int
    memory: Memory
    stats: RunStats
    cost_model: CostModel
    bus: EventBus

    def step_cost(self, ns: float, footprint: float = 1.0) -> float: ...

    def park(self, tid: int) -> NoReturn: ...

    def wake_at(self, tid: int, at_ns: float) -> None: ...

    def wants(self, kind: str) -> bool: ...

    def emit(self, event: SimEvent) -> None: ...


class ManualDriver:
    """A hand-cranked :class:`Driver` for tests and self-checks.

    Backends attach to it exactly as to a :class:`Simulator`; hook
    calls are then made directly by the test.  Parks raise
    :class:`ParkThread` like the real driver's; wakes are recorded on
    :attr:`wakes` instead of unblocking anything (there is no thread
    table to unblock).
    """

    def __init__(
        self,
        memory: Optional[Memory] = None,
        n_threads: int = 2,
        cost_model: Optional[CostModel] = None,
        stats: Optional[RunStats] = None,
        backend_name: str = "manual",
    ) -> None:
        self.memory = memory if memory is not None else Memory()
        self.n_threads = n_threads
        self.cost_model = cost_model or CostModel()
        self.stats = (
            stats
            if stats is not None
            else RunStats(backend=backend_name, workload="", n_threads=n_threads)
        )
        self.bus = EventBus()
        #: every ``wake_at`` call, in order: ``[(tid, at_ns), ...]``.
        self.wakes: List[Tuple[int, float]] = []
        #: every ``park`` call, in order: ``[tid, ...]``.
        self.parks: List[int] = []

    # ------------------------------------------------------------------
    def step_cost(self, ns: float, footprint: float = 1.0) -> float:
        return ns * self.cost_model.compute_scale(self.n_threads, footprint)

    def park(self, tid: int) -> NoReturn:
        self.parks.append(tid)
        raise ParkThread()

    def wake_at(self, tid: int, at_ns: float) -> None:
        self.wakes.append((tid, at_ns))

    def wants(self, kind: str) -> bool:
        return self.bus.wants(kind)

    def emit(self, event: SimEvent) -> None:
        if self.bus.wants(event.kind):
            self.bus.emit(event)
