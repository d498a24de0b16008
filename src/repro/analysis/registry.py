"""The protocol-contract registry: one source of truth, two enforcers.

PRs 2-4 multiplied the stringly-typed surfaces a run's observation
protocol flows through: event kinds on the bus, ``data`` payload
fields on the validation-path events, and ``txn.*``/``hw.*``/
``fault.*``/``ladder.*`` metric names in the metrics registry.  A typo
in any of them fails *silently* — ``wants("valdiate")`` is just always
False, ``reg.count("txn.comits")`` mints a fresh counter nobody reads.

This module declares every legal name once.  Two consumers share it:

* **dynamically**, :class:`repro.runtime.events.EventBus` derives its
  ``EVENT_KINDS`` vocabulary from :data:`EVENT_SCHEMAS` and — under
  ``__debug__`` — asserts that every emitted event carries a declared
  kind with exactly the declared payload fields;
* **statically**, the TM103/TM104 analysis passes
  (:mod:`repro.analysis.passes.schema`) verify every ``emit``/
  ``subscribe``/``wants``/metrics call site in the source tree against
  the same tables, before anything runs.

Deliberately dependency-free (stdlib ``dataclasses`` only): it is
imported by the runtime hot path and by the analyzer, and must never
drag either into the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

# ----------------------------------------------------------------------
# Event kinds and payload schemas
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EventSchema:
    """One declared event kind.

    ``payload`` is the exact set of keys a ``SimEvent.data`` dict must
    carry for this kind; empty means the kind never carries a ``data``
    payload (its information lives in the typed ``SimEvent`` fields).
    """

    kind: str
    #: who emits it (documentation, and the analyzer's error messages).
    emitter: str
    payload: FrozenSet[str] = frozenset()

    @property
    def has_payload(self) -> bool:
        return bool(self.payload)


def _schema(kind: str, emitter: str, *payload: str) -> EventSchema:
    return EventSchema(kind, emitter, frozenset(payload))


#: every kind the simulator (or the validation path) can publish, in
#: the bus's canonical order.  Trace replays reuse a subset.
EVENT_SCHEMAS: Dict[str, EventSchema] = {
    schema.kind: schema
    for schema in (
        _schema("step", "driver"),
        _schema("begin", "driver"),
        _schema("read", "driver"),
        _schema("write", "driver"),
        _schema("commit", "driver"),
        _schema("abort", "driver"),
        _schema("park", "driver"),
        _schema("wake", "driver"),
        _schema("backoff", "driver"),
        _schema(
            "validate",
            "hybrid backend",
            "label",
            "sent_ns",
            "arrived_ns",
            "started_ns",
            "detect_done_ns",
            "finished_ns",
            "ready_ns",
            "n_read",
            "n_write",
            "occupancy_cycles",
            "committed",
            "reason",
            "window_resident",
            "mode",
            "shard",
        ),
        # Cluster layer (repro.cluster): commit-time routing decision,
        # the cross-shard two-phase outcome, and lazy remote-shard
        # opens.  Emitted only by ClusterTMBackend, so plain
        # single-node runs never carry them.
        _schema("route", "cluster backend", "shard", "cross", "n_write"),
        _schema(
            "xshard",
            "cluster coordinator",
            "involved",
            "remote",
            "committed",
            "reason",
            "n_read",
            "n_write",
            "sent_ns",
            "decided_ns",
        ),
        _schema("shard_open", "cluster backend", "shard", "home"),
        # End-of-run address→query-mask cache effectiveness, one event
        # per ROCoCoTM instance (so one per shard under ClusterTM).
        # Like "sched", it never enters RunStats: observable only over
        # the bus, so enabling it cannot move a benchmark byte.
        _schema("mask_cache", "hybrid backend", "hits", "misses", "entries", "shard"),
        _schema("fault", "chaos engine", "kind", "count"),
        _schema("failover", "degradation ladder", "mode", "timeouts"),
        _schema("failback", "degradation ladder", "mode", "timeouts"),
        # End-of-run scheduler-kernel counters; the payload mirrors
        # SchedulerKernel.snapshot() field for field.  Never enters
        # RunStats — observable only over the bus, so enabling the
        # kernel cannot move a benchmark byte.
        _schema(
            "sched",
            "driver",
            "picks",
            "pushes",
            "stale_pops",
            "lazy_invalidation_ratio",
            "wakes",
            "wakes_coalesced",
            "heap_high_water",
        ),
    )
}

#: the bus's kind vocabulary (insertion order of the schema table).
EVENT_KINDS: Tuple[str, ...] = tuple(EVENT_SCHEMAS)

#: union of every declared payload field — what a ``event.data[...]``
#: consumer may legally index.
PAYLOAD_FIELDS: FrozenSet[str] = frozenset(
    field for schema in EVENT_SCHEMAS.values() for field in schema.payload
)


def check_event(kind: str, data) -> Optional[str]:
    """None if (*kind*, *data*) satisfies the declared contract, else
    a human-readable description of the violation.

    Shared by the dynamic assert in :meth:`EventBus.emit` and by the
    analyzer's fixtures, so both enforcement layers agree by
    construction.
    """
    schema = EVENT_SCHEMAS.get(kind)
    if schema is None:
        return (
            f"undeclared event kind {kind!r} (declared kinds: "
            + ", ".join(EVENT_KINDS)
            + "; add it to repro.analysis.registry first)"
        )
    if data is None:
        if schema.has_payload:
            return (
                f"event kind {kind!r} requires a data payload with fields "
                + "{" + ", ".join(sorted(schema.payload)) + "}"
            )
        return None
    if not schema.has_payload:
        return f"event kind {kind!r} does not carry a data payload"
    keys = frozenset(data)
    if keys != schema.payload:
        missing = sorted(schema.payload - keys)
        extra = sorted(keys - schema.payload)
        parts = []
        if missing:
            parts.append("missing " + ", ".join(missing))
        if extra:
            parts.append("undeclared " + ", ".join(extra))
        return f"event kind {kind!r} payload mismatch: " + "; ".join(parts)
    return None


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric, or a declared dynamic family.

    A *family* has ``dynamic=True`` and a ``name`` ending in ``.``;
    the suffix is data-dependent (an abort cause, a fault kind) and
    legal call sites spell it as an f-string with the family as its
    constant prefix: ``reg.count(f"txn.aborts.{cause}")``.
    """

    name: str
    instrument: str
    dynamic: bool = False
    help: str = ""


def _counter(name: str, help: str = "", dynamic: bool = False) -> MetricSpec:
    return MetricSpec(name, COUNTER, dynamic, help)


def _gauge(name: str, help: str = "") -> MetricSpec:
    return MetricSpec(name, GAUGE, False, help)


def _histogram(name: str, help: str = "", dynamic: bool = False) -> MetricSpec:
    return MetricSpec(name, HISTOGRAM, dynamic, help)


METRICS: Tuple[MetricSpec, ...] = (
    # txn.* — driver-level transaction lifecycle.
    _counter("txn.begins", "attempts opened"),
    _counter("txn.commits", "attempts committed"),
    _counter("txn.retried_commits", "commits needing >1 attempt"),
    _counter("txn.aborts", "attempts aborted"),
    _counter("txn.aborts.", "aborts by cause", dynamic=True),
    _counter("txn.parks", "threads parked"),
    _counter("txn.backoffs", "backoff pauses charged"),
    _histogram("txn.commit_latency_ns", "begin->commit, simulated ns"),
    _histogram("txn.attempts", "attempts per committed txn"),
    _histogram("txn.wasted_ns", "work discarded per abort"),
    _histogram("txn.parked_ns", "park->wake, simulated ns"),
    _histogram("txn.backoff_ns", "backoff pause lengths"),
    # hw.* — the validation pipeline.
    _counter("hw.validations", "validation round trips"),
    _counter("hw.validation_aborts", "validations answering abort"),
    _counter("hw.mode.", "validations by ladder mode", dynamic=True),
    _histogram("hw.validation_ns", "sent->ready round trip"),
    _histogram("hw.queue_ns", "arrival->service wait"),
    _histogram("hw.window_occupancy", "sliding-window residency"),
    _histogram("hw.occupancy_cycles", "detector occupancy per request"),
    _gauge("hw.window_resident", "peak window residency"),
    _counter("hw.mask_cache.hits", "query-mask lookups served from the cache"),
    _counter("hw.mask_cache.misses", "first-touch addresses memoized"),
    _gauge("hw.mask_cache.entries", "memoized address count"),
    # shard.* — the cluster layer (repro.cluster).
    _counter("shard.single_commits", "single-shard fast-path commits"),
    _counter("shard.cross_commits", "cross-shard 2PC commits"),
    _counter("shard.cross_aborts", "cross-shard certify refusals"),
    _counter("shard.remote_opens", "lazy remote-shard opens"),
    _counter("shard.commits.", "commits by home shard", dynamic=True),
    _histogram("shard.involved", "shards involved per cross-shard commit"),
    _histogram("shard.prepare_ns", "cross-shard sent->decided time"),
    # fault.* / ladder.* — chaos and degradation.
    _counter("fault.", "injected faults by kind", dynamic=True),
    _counter("ladder.failovers", "fpga->software transitions"),
    _counter("ladder.failbacks", "software->fpga transitions"),
    # sched.* — the scheduling kernel (repro.runtime.sched).
    _counter("sched.picks", "valid heap pops (scheduler decisions)"),
    _counter("sched.pushes", "heap entries pushed"),
    _counter("sched.stale_pops", "lazily-invalidated entries discarded"),
    _counter("sched.wakes", "parked threads unblocked"),
    _counter("sched.wakes_coalesced", "wakes merged into the thread's own timeline"),
    _gauge("sched.heap_high_water", "peak heap size"),
    _gauge("sched.lazy_invalidation_ratio", "stale pops per total pop"),
    # runner.* — the supervised execution layer (repro.exec.supervise).
    _counter("runner.cells", "cells completed under supervision"),
    _counter("runner.journal_hits", "cells served from the sweep journal"),
    _counter("runner.journal_corrupt", "corrupt journal lines tolerated"),
    _counter("runner.retries", "cell attempts retried"),
    _counter("runner.timeouts", "cells killed at the wall-clock deadline"),
    _counter("runner.quarantined", "cells quarantined after repeated failure"),
    _counter("runner.failures.", "cell failures by kind", dynamic=True),
    _histogram("runner.attempts", "attempts per completed cell"),
)

_EXACT_METRICS: Dict[str, MetricSpec] = {
    spec.name: spec for spec in METRICS if not spec.dynamic
}
_DYNAMIC_METRICS: Dict[str, MetricSpec] = {
    spec.name: spec for spec in METRICS if spec.dynamic
}


def lookup_metric(name: str) -> Optional[MetricSpec]:
    """The spec a concrete metric *name* resolves to, or None.

    Exact names win; otherwise the longest declared dynamic family
    whose prefix matches (``txn.aborts.fpga-cycle`` -> ``txn.aborts.``).
    """
    spec = _EXACT_METRICS.get(name)
    if spec is not None:
        return spec
    best = None
    for prefix, family in _DYNAMIC_METRICS.items():
        if name.startswith(prefix) and len(name) > len(prefix):
            if best is None or len(prefix) > len(best.name):
                best = family
    return best


def lookup_metric_family(prefix: str) -> Optional[MetricSpec]:
    """The dynamic family declared for *prefix* exactly, or None.

    This is what the static pass resolves an f-string's constant
    prefix against: ``f"txn.aborts.{cause}"`` has prefix
    ``txn.aborts.`` which must be a declared family — a *longer*
    constant prefix (``txn.aborts.fpga-``) is also legal as long as it
    extends a declared family.
    """
    family = _DYNAMIC_METRICS.get(prefix)
    if family is not None:
        return family
    spec = lookup_metric(prefix)
    return spec if spec is not None and spec.dynamic else None


def check_metric(name: str, instrument: str) -> Optional[str]:
    """None if *name* is declared for *instrument*, else the violation."""
    spec = lookup_metric(name)
    if spec is None:
        return (
            f"undeclared metric {name!r}; declare it in "
            "repro.analysis.registry.METRICS"
        )
    if spec.instrument != instrument:
        return (
            f"metric {name!r} is declared as a {spec.instrument}, "
            f"not a {instrument}"
        )
    return None
