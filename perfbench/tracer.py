"""Host-time attribution by swapping layer functions for timing wrappers.

The program under test carries no instrumentation of its own for host
time, so the traced run measures it from outside: :class:`LayerTracer`
replaces every function named in :data:`LAYER_TABLE` (a class
attribute) with a wrapper that times the call, and puts the originals
back on exit.  Each call is a span whose parent is the innermost
wrapped call still open; a span's *self time* is its duration minus
the durations of its child spans.

A sweep makes millions of wrapped calls, so spans are aggregated in
memory per (function, parent function) edge instead of kept one by
one: calls and self time per edge.  The few functions
whose latency distribution is reported (:data:`SAMPLED`) also keep
each call's duration when they are entered from another layer.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from array import array
from typing import Dict, List, Tuple

_STAMP_APPS = ("genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada")
TM_BACKENDS = (
    "repro.runtime.sequential:SequentialBackend",
    "repro.runtime.tinystm:TinySTMBackend",
    "repro.runtime.tsx:TsxBackend",
    "repro.runtime.rococotm:RococoTMBackend",
    "repro.cluster.backend:ClusterTMBackend",
)
_BARRIERS = ("begin", "read", "write", "commit", "rollback")

#: The one function -> layer table: ``(layer, "module:Class", methods)``.
#: Layer names are the metric prefixes the benchmark reports.  Host time
#: spent in a function that is not listed counts toward the innermost
#: listed caller (e.g. workload and txlib generator code runs inside
#: ``Simulator.run`` and is simulator self time).
LAYER_TABLE: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("stamp", "repro.stamp.common:StampWorkload", ("__init__",)),
    *(
        ("stamp", f"repro.stamp.{app}:{app.capitalize()}Workload", ("verify",))
        for app in _STAMP_APPS
    ),
    (
        "simulator",
        "repro.runtime.simulator:Simulator",
        ("__init__", "run", "step_cost", "park", "wake_at", "wants", "emit"),
    ),
    (
        "sched",
        "repro.runtime.sched:SchedulerKernel",
        ("add", "pick", "reschedule", "park", "wake", "retire", "snapshot"),
    ),
    ("events", "repro.runtime.events:EventBus", ("subscribe", "unsubscribe", "wants", "emit")),
    ("events", "repro.runtime.events:StatsCollector", ("install",)),
    (
        "memory",
        "repro.runtime.memory:Memory",
        ("alloc", "load", "store", "store_many", "load_many", "subscribe"),
    ),
    *(("tm", backend, _BARRIERS) for backend in TM_BACKENDS),
    (
        "bloom",
        "repro.signatures.bloom:SignatureConfig",
        ("intern_rows", "query_mask", "query_words", "bit_positions", "new", "of", "raw_of"),
    ),
    (
        "bloom",
        "repro.signatures.bloom:BloomSignature",
        (
            "insert", "query", "is_empty", "clear", "union", "unite",
            "intersect", "intersects", "copy", "popcount",
        ),
    ),
    ("hw.engine", "repro.hw.engine:FpgaValidationEngine", ("submit", "certify")),
    ("hw.engine", "repro.hw.software_engine:SoftwareValidationEngine", ("submit",)),
    (
        "hw.manager",
        "repro.hw.manager:ValidationManager",
        ("validate", "certify", "record_external_commit", "reset"),
    ),
    ("hw.detector", "repro.hw.detector:ConflictDetector", ("edges", "record_commit")),
    ("window", "repro.core.window:WindowMatrix", ("reaches", "probe", "commit")),
    ("faults", "repro.faults.degradation:DegradationManager", ("submit",)),
    ("faults", "repro.faults.engine:ChaosValidationEngine", ("submit", "recall", "probe")),
    ("faults", "repro.faults.link:FaultyLink", ("request_ns", "response_ns")),
    ("faults", "repro.faults.plan:FaultPlan", ("stall_end",)),
    ("cluster", "repro.cluster.coordinator:Coordinator", ("commit",)),
    ("cluster", "repro.cluster.router:Router", ("classify",)),
    ("cluster", "repro.cluster.partition:Partitioner", ("bind", "line_of", "shard_of")),
    ("cluster", "repro.cluster.partition:HashPartitioner", ("shard_of",)),
    ("cluster", "repro.cluster.partition:RangePartitioner", ("bind", "shard_of")),
)

#: Functions whose per-call durations are kept, for latency percentiles.
#: A duration is recorded only when the call enters from another layer,
#: so a ClusterTM barrier counts once, not again for each shard barrier
#: it calls.
SAMPLED = frozenset(
    {f"{backend}.{barrier}" for backend in TM_BACKENDS for barrier in ("read", "commit")}
    | {"repro.hw.manager:ValidationManager.validate"}
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_TABLE))


def _resolve(target: str):
    module, _, qualname = target.partition(":")
    return getattr(importlib.import_module(module), qualname)


class FunctionRecord:
    """Aggregated spans of one wrapped function."""

    __slots__ = ("key", "layer", "method", "by_parent", "samples")

    def __init__(self, key: str, layer: str, method: str):
        self.key = key
        self.layer = layer
        self.method = method
        #: parent record index -> [calls, self seconds]; index -1 is the
        #: root (no wrapped caller).
        self.by_parent: Dict[int, List] = {}
        self.samples = array("d") if key in SAMPLED else None

    @property
    def calls(self) -> int:
        return sum(edge[0] for edge in self.by_parent.values())

    @property
    def self_s(self) -> float:
        return sum(edge[1] for edge in self.by_parent.values())


class LayerTracer:
    """Context manager: wrap every :data:`LAYER_TABLE` function on
    entry, restore the originals on exit (also when the body raises)."""

    def __init__(self):
        self.records: List[FunctionRecord] = []
        #: open spans, innermost last: ``[record index, child seconds]``.
        #: The bottom frame is the root, the parent of top-level spans.
        self._stack: List[List] = [[-1, 0.0]]
        self._originals: List[Tuple[type, str, types.FunctionType]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for layer, target, methods in LAYER_TABLE:
                cls = _resolve(target)
                for method in methods:
                    self._install(layer, target, cls, method)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def _install(self, layer: str, target: str, cls: type, method: str) -> None:
        original = cls.__dict__.get(method)
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{target}.{method} is not a plain function defined on the class")
        if inspect.isgeneratorfunction(original):
            # A generator returns before its body runs; its span would
            # end at creation and its work land in whoever resumes it.
            raise TypeError(f"{target}.{method} is a generator function")
        record = FunctionRecord(f"{target}.{method}", layer, method)
        self.records.append(record)
        self._originals.append((cls, method, original))
        setattr(cls, method, self._wrapper(original, len(self.records) - 1, record))

    def _wrapper(self, fn, index: int, record: FunctionRecord):
        clock = time.perf_counter
        stack = self._stack
        push = stack.append
        pop = stack.pop
        by_parent = record.by_parent
        records = self.records
        samples = record.samples
        layer = record.layer

        # The two variants differ only in the sampling tail; the edge
        # update is inlined because the wrapper runs millions of times.
        if samples is None:

            def timed(*args, **kwargs):
                parent = stack[-1]
                frame = [index, 0.0]
                push(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    pop()
                    parent[1] += elapsed
                    entry = by_parent.get(parent[0])
                    if entry is None:
                        entry = by_parent[parent[0]] = [0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed - frame[1]

        else:

            def timed(*args, **kwargs):
                parent = stack[-1]
                frame = [index, 0.0]
                push(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    pop()
                    parent[1] += elapsed
                    entry = by_parent.get(parent[0])
                    if entry is None:
                        entry = by_parent[parent[0]] = [0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed - frame[1]
                    if parent[0] < 0 or records[parent[0]].layer != layer:
                        samples.append(elapsed)

        timed.__wrapped__ = fn
        timed.__name__ = fn.__name__
        timed.__qualname__ = fn.__qualname__
        return timed

    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for record in self.records:
            totals[record.layer] += record.self_s
        return totals

    def calls(self, key: str, entering: bool = False) -> int:
        """Calls of the wrapped function *key* (``module:Class.method``);
        with *entering*, only calls from outside its layer."""
        total = 0
        for record in self.records:
            if record.key != key:
                continue
            for parent, entry in record.by_parent.items():
                if entering and parent >= 0 and self.records[parent].layer == record.layer:
                    continue
                total += entry[0]
        return total

    def layer_calls(self, layer: str) -> int:
        return sum(record.calls for record in self.records if record.layer == layer)

    def samples(self, keys) -> List[float]:
        out: List[float] = []
        for record in self.records:
            if record.key in keys and record.samples is not None:
                out.extend(record.samples)
        return out
