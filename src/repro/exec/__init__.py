"""The experiment-execution layer: spec → runner → cache → record.

Every figure and benchmark in this repo is, at bottom, a sweep over a
grid of deterministic simulations.  This package gives that sweep a
first-class shape:

* :class:`ExperimentSpec` — a frozen, hashable value naming one run
  (workload, backend, threads, scale, seed, faults, cost model);
* :class:`SerialRunner` / :class:`SupervisedRunner` — execute a batch
  of specs, bit-identically, in the calling process or sharded across
  long-lived worker processes; :func:`default_runner` maps ``--jobs``
  to one of them;
* :class:`ResultCache` — content-addressed JSON results keyed by spec
  hash + code fingerprint, so re-running a figure only executes
  changed cells;
* :func:`write_bench_stamp` — the machine-readable ``BENCH_stamp.json``
  record (specs, cells, wall-clock, cache hit rate);
* :class:`SupervisorPolicy` — how :class:`SupervisedRunner` survives
  its workers: per-cell deadlines, heartbeat hang detection, bounded
  seeded retries, poison-cell quarantine;
* :class:`SweepJournal` — the fsynced per-sweep WAL behind
  ``--resume``: a SIGKILLed sweep resumes bit-identically.

See docs/EXECUTION.md for the architecture and the determinism
argument.
"""

from .cache import ResultCache, code_fingerprint
from .journal import JournalState, SweepJournal, sweep_key
from .runner import Runner, SerialRunner, run_payload
from .spec import BACKEND_REGISTRY, WORKLOAD_REGISTRY, ExperimentSpec
from .stampfile import bench_stamp_payload, write_bench_stamp
from .supervise import SupervisedRunner, SupervisorPolicy, default_runner

__all__ = [
    "BACKEND_REGISTRY",
    "ExperimentSpec",
    "JournalState",
    "ResultCache",
    "Runner",
    "SerialRunner",
    "SupervisedRunner",
    "SupervisorPolicy",
    "SweepJournal",
    "WORKLOAD_REGISTRY",
    "bench_stamp_payload",
    "code_fingerprint",
    "default_runner",
    "run_payload",
    "sweep_key",
    "write_bench_stamp",
]
