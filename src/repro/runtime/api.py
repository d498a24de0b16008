"""The transactional programming API.

Workloads are written as *generator coroutines*: a transaction body is
a generator that yields operation descriptors and receives results
back, so the simulator can interleave threads at operation granularity
and re-execute bodies after aborts.  This mirrors the paper's
programming model — speculative loop parallelization where every
iteration runs inside a transaction (§5.3) — with ``yield`` standing
in for the TM_READ/TM_WRITE instrumentation a compiler would insert.

A transaction body::

    def transfer(src, dst, amount):
        a = yield Read(src)
        b = yield Read(dst)
        yield Work(40)                  # 40 ns of local compute
        yield Write(src, a - amount)
        yield Write(dst, b + amount)
        return True                     # value returned by the txn

A thread program yields :class:`Transaction` (a retried atomic block)
and :class:`Work` items::

    def program(tid):
        for job in my_jobs(tid):
            result = yield Transaction(lambda: transfer(*job))
            yield Work(100)

Composition uses ``yield from``: the data structures in
:mod:`repro.txlib` are generator methods that bodies delegate to.

The operation descriptors are frozen dataclasses with hand-written
constructors that write their fields straight into the instance
``__dict__``.  A sweep builds hundreds of thousands of them (one per
yielded ``Read``/``Write``/``Work``), and the generated frozen
``__init__`` pays an ``object.__setattr__`` call per field plus a
``__post_init__`` call for the checks.  The classes stay frozen, equal
and hashable by value, and usable with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

Address = int


@dataclass(frozen=True)
class Read:
    """Transactional load; the yield expression evaluates to the value."""

    addr: Address

    def __init__(self, addr: Address) -> None:
        self.__dict__["addr"] = addr


@dataclass(frozen=True)
class Write:
    """Transactional store (buffered until commit under lazy backends)."""

    addr: Address
    value: Any

    def __init__(self, addr: Address, value: Any) -> None:
        state = self.__dict__
        state["addr"] = addr
        state["value"] = value


@dataclass(frozen=True)
class Work:
    """Local, abort-free computation costing *ns* simulated time."""

    ns: float

    def __init__(self, ns: float) -> None:
        if ns < 0:
            raise ValueError("work time must be non-negative")
        self.__dict__["ns"] = ns


@dataclass(frozen=True)
class Alloc:
    """Allocate *cells* fresh memory cells; evaluates to the base address.

    Allocation is non-transactional (a bump pointer) and is not rolled
    back on abort — matching malloc inside STAMP transactions, which
    leaks on abort rather than corrupting shared state.
    """

    cells: int

    def __init__(self, cells: int) -> None:
        if cells < 1:
            raise ValueError("allocation must cover at least one cell")
        self.__dict__["cells"] = cells


@dataclass(frozen=True)
class Transaction:
    """An atomic block: ``body`` is re-invoked from scratch per attempt."""

    body: Callable[[], Generator]
    #: retry backoff base in ns (exponential, capped); None = backend default.
    label: Optional[str] = None


class SimBarrier:
    """A reusable rendezvous for all threads of a run.

    The paper replaces STAMP's log2 barrier with a pthread barrier to
    reach 14/28 threads (§6.3 footnote 9); this is that barrier.
    Threads yield ``AwaitBarrier(barrier)`` from their *programs* (not
    from transaction bodies); everyone resumes at the latest arrival's
    clock plus ``cost_ns``.
    """

    def __init__(self, parties: int, cost_ns: float = 120.0):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.parties = parties
        self.cost_ns = cost_ns
        self.waiting: list = []  # [(tid, clock)] of parked arrivals


@dataclass(frozen=True)
class AwaitBarrier:
    """Program-level op: block until all parties reach the barrier."""

    barrier: SimBarrier


#: What a transaction body may yield.
TxnOp = (Read, Write, Work, Alloc)
#: What a thread program may yield.
ProgramOp = (Transaction, Work, AwaitBarrier)


class TransactionAborted(Exception):
    """Raised inside backends to unwind an attempt; never escapes to
    workload code (the driver catches it and retries).

    ``at_ns``, when set, is the simulated time the abort was decided —
    later than the operation's start when the backend burned time
    discovering the failure (e.g. validation timeouts climbing the
    degradation ladder); the driver advances the thread clock to it so
    the wasted wait is charged.
    """

    def __init__(self, cause: str, at_ns: Optional[float] = None):
        super().__init__(cause)
        self.cause = cause
        self.at_ns = at_ns
