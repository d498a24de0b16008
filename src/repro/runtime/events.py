"""The unified simulator event bus.

Before this layer existed the repo had three disjoint observation
paths into a run: the :class:`Simulator` mutated ``RunStats`` inline,
the recording/sanitizer wrappers intercepted the five backend hooks,
and value caches subscribed to raw :meth:`Memory.store` callbacks.
Every new consumer (the sanitizer, the fault layer) had to wire up all
three.  Now the simulator publishes **every state transition** —
``step``, ``begin``, ``read``, ``write``, ``commit``, ``abort``,
``park``/``wake``, ``backoff`` — as one :class:`SimEvent` stream on a
per-run :class:`EventBus`, and statistics, history recording and the
sanitizer's event log are all ordinary subscribers.

Design constraints:

* **Zero-cost when unobserved.**  The hot path guards every emission
  with :meth:`EventBus.wants`; constructing a :class:`SimEvent` for a
  read nobody listens to would slow every benchmark.  Only ``commit``
  and ``abort`` always have a listener (the stats collector).
* **Deterministic delivery.**  Subscribers run synchronously, in
  subscription order, at the simulated instant the transition
  happened.  The simulator is single-threaded discrete-event, so the
  stream is totally ordered and bit-reproducible — which is what lets
  recorded executions be compared across processes (see
  :mod:`repro.exec`).
* **Attribution, not interpretation.**  Events carry thread ids, not
  attempt ids: minting globally-unique attempt ids is the history
  recorder's job (:mod:`repro.runtime.recording`), exactly as before
  the refactor, so attempt vocabularies stay stable.  Trace-level
  replays (:meth:`repro.cc.engine.TraceCC.run`) emit events that *do*
  carry ``attempt`` and read ``version`` directly, because the trace
  already knows them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import registry as _registry

#: every kind the simulator can emit (trace replays reuse a subset).
#: The vocabulary — and each kind's required ``data`` payload — is
#: declared once in :mod:`repro.analysis.registry`, which both this
#: runtime assert layer and the static analyzer (``repro analyze``,
#: rule TM103) check against.  ``validate`` carries the engine's
#: per-request timing breakdown, ``fault`` an injected-fault tally,
#: ``failover``/``failback`` the degradation ladder's transitions.
#: All are consumed by :mod:`repro.obs`.
EVENT_KINDS = _registry.EVENT_KINDS


@dataclass(frozen=True)
class SimEvent:
    """One state transition at one simulated instant."""

    kind: str
    #: simulated thread id (-1 for non-thread actors, e.g. trace
    #: replays and direct-store pseudo-transactions).
    tid: int
    #: simulated time (ns) at which the transition completed.
    time: float
    #: memory address (read/write events).
    addr: Optional[int] = None
    #: value read or written.
    value: object = None
    #: abort cause string (abort events).
    cause: Optional[str] = None
    #: transaction label (begin events), if the workload provided one.
    label: Optional[str] = None
    #: 1-based retry number of this attempt (begin events).
    attempt_index: int = 0
    #: ns of in-transaction work discarded by this abort.
    wasted: float = 0.0
    #: False for aborts raised by ``backend.begin`` — no attempt ever
    #: opened, so recorders must not try to close one.
    began: bool = True
    #: ns of driver backoff charged (backoff events).
    ns: float = 0.0
    #: explicit attempt id — only set by trace-level emitters; the
    #: simulator leaves it None and recorders mint their own.
    attempt: Optional[int] = None
    #: explicit read version — only set by trace-level emitters.
    version: Optional[int] = None
    #: simulated ns at which the transition *started* (begin events:
    #: the attempt's start, before the backend's begin cost) — lets
    #: span tracers open attempt spans at the true boundary.
    start: Optional[float] = None
    #: structured payload for validation-path events (validate/fault/
    #: failover/failback); simulated-time values only, never wall
    #: clock (see docs/OBSERVABILITY.md).
    data: Optional[dict] = None

    def __init__(
        self,
        kind: str,
        tid: int,
        time: float,
        addr: Optional[int] = None,
        value: object = None,
        cause: Optional[str] = None,
        label: Optional[str] = None,
        attempt_index: int = 0,
        wasted: float = 0.0,
        began: bool = True,
        ns: float = 0.0,
        attempt: Optional[int] = None,
        version: Optional[int] = None,
        start: Optional[float] = None,
        data: Optional[dict] = None,
    ) -> None:
        # Every commit and abort builds one of these: write the fields
        # straight into the instance dict instead of paying the frozen
        # dataclass __init__'s object.__setattr__ per field (see
        # repro.runtime.api).  The class stays frozen and value-equal.
        state = self.__dict__
        state["kind"] = kind
        state["tid"] = tid
        state["time"] = time
        state["addr"] = addr
        state["value"] = value
        state["cause"] = cause
        state["label"] = label
        state["attempt_index"] = attempt_index
        state["wasted"] = wasted
        state["began"] = began
        state["ns"] = ns
        state["attempt"] = attempt
        state["version"] = version
        state["start"] = start
        state["data"] = data


class EventBus:
    """Synchronous, ordered fan-out of :class:`SimEvent`.

    Two flags besides the subscriber lists, both raised by the
    simulator:

    * ``in_backend`` around every backend hook invocation, so that
      :meth:`Memory.subscribe` observers can tell a backend write-back
      from direct (workload phase) stores — the discrimination the
      sanitizer previously re-implemented with a private flag inside
      its wrapper;
    * ``frozen`` while its step loop runs: the loop reads
      :meth:`wants` once per run, so :meth:`subscribe` and
      :meth:`unsubscribe` raise ``RuntimeError`` rather than change an
      answer it already acted on.  Subscribe before ``run`` (an
      ``attach`` or ``instrument`` hook) and detach after it.
    """

    def __init__(self) -> None:
        self._all: List[Callable[[SimEvent], None]] = []
        self._by_kind: Dict[str, List[Callable[[SimEvent], None]]] = {}
        #: True while the simulator is inside a backend hook.
        self.in_backend = False
        #: True while the simulator's step loop runs.
        self.frozen = False
        #: kinds whose payload-free events passed the registry check.
        self._clean_kinds: set = set()

    def _check_not_frozen(self) -> None:
        if self.frozen:
            raise RuntimeError(
                "cannot change bus subscriptions while a simulation runs"
            )

    def subscribe(
        self,
        fn: Callable[[SimEvent], None],
        kinds: Optional[Sequence[str]] = None,
    ) -> None:
        """Register *fn* for *kinds* (or every kind if None).

        Delivery order is subscription order; subscribing the same
        function twice delivers it twice (wrap if you need idempotence).
        """
        self._check_not_frozen()
        if kinds is None:
            self._all.append(fn)
            return
        for kind in kinds:
            if kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {kind!r}")
            self._by_kind.setdefault(kind, []).append(fn)

    def unsubscribe(self, fn: Callable[[SimEvent], None]) -> None:
        """Remove every registration of *fn* (catch-all and per-kind).

        Kind lists that become empty are deleted so :meth:`wants`
        returns to its pre-subscription answer — a detached tracer
        must leave zero residue on the emission fast path.  Raises
        ``ValueError`` if *fn* was never subscribed.
        """
        self._check_not_frozen()
        removed = False
        while fn in self._all:
            self._all.remove(fn)
            removed = True
        for kind in list(self._by_kind):
            handlers = self._by_kind[kind]
            while fn in handlers:
                handlers.remove(fn)
                removed = True
            if not handlers:
                del self._by_kind[kind]
        if not removed:
            raise ValueError("handler was not subscribed")

    def wants(self, kind: str) -> bool:
        """True if emitting *kind* would reach at least one subscriber
        — the hot path's guard against building dead events."""
        return bool(self._all) or kind in self._by_kind

    def emit(self, event: SimEvent) -> None:
        if __debug__:
            # A payload-free event's contract depends on its kind alone,
            # so that answer is cached per kind; payloads are checked on
            # every emit.
            if event.data is not None or event.kind not in self._clean_kinds:
                problem = _registry.check_event(event.kind, event.data)
                assert problem is None, problem
                if event.data is None:
                    self._clean_kinds.add(event.kind)
        for fn in self._all:
            fn(event)
        for fn in self._by_kind.get(event.kind, ()):
            fn(event)


class StatsCollector:
    """RunStats accumulation as a bus subscriber.

    The simulator used to bump ``stats.commits`` / ``record_abort`` /
    ``wasted_ns`` inline at three separate sites; this collector is
    now the only place driver-level outcomes turn into statistics.
    (Backends still accrue their own measurement counters —
    ``validation_ns``, degradation tallies — directly: those are
    internal measurements, not driver state transitions.)
    """

    KINDS = ("commit", "abort")

    def __init__(self, stats) -> None:
        self.stats = stats

    def install(self, bus: EventBus) -> None:
        bus.subscribe(self._on_event, kinds=self.KINDS)

    def _on_event(self, event: SimEvent) -> None:
        if event.kind == "commit":
            self.stats.commits += 1
        else:  # abort
            self.stats.record_abort(event.cause)
            self.stats.wasted_ns += event.wasted
