"""Timed and traced sweeps of one workload, and the metrics they give.

``timed`` (tracing off) repeats the whole sweep for the run's seconds
and reports the end-to-end metrics as medians over the repeats.
``traced`` runs the sweep once untraced and once under
:class:`~perfbench.tracer.LayerTracer` and reports the per-layer
metrics.  Both count every cell execution: it fails if it raises
(``verify()`` raises on a broken final state) or if its ``RunStats``
differ from the cell's first execution in the same run.

Host speed drifts here by up to 1.5x within seconds (the two vCPUs of
the reference host share physical cores with other tenants), far more
than the changes the benchmark must resolve.  So every timed interval
is corrected for host speed: :func:`probe` times a fixed pure-Python
loop next to it, and the interval is divided by the probe's slowdown
against :data:`REFERENCE_PROBE_S`.  Reported seconds are therefore
seconds on the reference host running at full speed.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exec import default_runner
from repro.exec.spec import WORKLOAD_REGISTRY
from repro.stamp import run_stamp

from .tracer import TM_BACKENDS, LAYERS, LayerTracer
from .workloads import Workload, check_inputs

SRC = Path(__file__).resolve().parent.parent / "src"

#: at least this many sweeps per timed run, however long they take.
MIN_REPS = 3
#: fresh interpreters timed per run for the import share of set-up.
IMPORT_SAMPLES = 3
_IMPORTS = "import repro.exec, repro.bench.stamp_matrix, repro.stamp"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "txn_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SELF = {f"{layer}.self_s": "s" for layer in LAYERS if layer != "stamp"}
PER_LAYER = {
    "stamp.setup_s": "s",
    "stamp.verify_s": "s",
    **_SELF,
    "sched.picks": "count",
    "events.emits": "count",
    "memory.ops": "count",
    **{f"tm.{b}.calls": "count" for b in ("begin", "read", "write", "commit", "rollback")},
    "tm.read.p50_us": "us",
    "tm.read.p99_us": "us",
    "tm.read.samples": "count",
    "tm.commit.p50_us": "us",
    "tm.commit.p99_us": "us",
    "tm.commit.samples": "count",
    "tm.commit_ratio": "ratio",
    "tm.read_only_share": "ratio",
    "tm.aborts.cpu": "count",
    "tm.aborts.fpga": "count",
    "tm.aborts.xshard": "count",
    "tm.wasted_share": "ratio",
    "bloom.calls": "count",
    "hw.engine.submits": "count",
    "hw.manager.validates": "count",
    "hw.manager.validate.p50_us": "us",
    "hw.manager.validate.p99_us": "us",
    "hw.manager.validate.samples": "count",
    "hw.manager.commit_ratio": "ratio",
    "hw.detector.calls": "count",
    "hw.queueing_ns_mean": "ns",
    "hw.round_trip_ns_mean": "ns",
    "hw.validation_us_mean": "us",
    "hw.mask_cache_entries": "count",
    "window.calls": "count",
    "faults.submits": "count",
    "faults.injected": "count",
    "faults.timeouts": "count",
    "faults.resubmits": "count",
    "faults.software_share": "ratio",
    "cluster.coordinator.commits": "count",
    "cluster.xshard_share": "ratio",
    "exec.pool_s": "s",
    "exec.serial_s": "s",
    "exec.parallel_eff": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

#: the largest share of traced wall time the layer table may leave
#: unattributed; the reference runs (README.md) leave 0.0-0.1%.
MAX_UNATTRIBUTED = 0.02

#: CPU seconds :func:`probe` takes on the reference host (2 vCPUs,
#: Python 3.11) at full speed, about its 5th percentile there.
REFERENCE_PROBE_S = 1.4e-3
#: probes taken before and again after each timed interval.
PROBES = 5


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed."""
    start = time.thread_time()
    x = 0
    for k in range(20_000):
        x += k * k % 7
    return time.thread_time() - start


def slowdown(samples: List[float]) -> float:
    """How much slower than the reference host the samples ran."""
    return statistics.median(samples) / REFERENCE_PROBE_S


def _with_probe(*lines: str) -> str:
    """A ``python -c`` program that can call :func:`probe`."""
    return "\n".join(["import select, statistics, sys, time", inspect.getsource(probe), *lines])


class _SpeedSampler:
    """Probes the host every 50 ms from a separate process while a
    process pool runs, until :meth:`stop`."""

    def __init__(self):
        code = _with_probe(
            "samples = []",
            "while not select.select([sys.stdin], [], [], 0.05)[0]:",
            "    samples.append(probe())",
            "print(statistics.fmean(samples) if samples else probe())",
        )
        self._process = subprocess.Popen(
            [sys.executable, "-c", code],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> float:
        """Stop sampling; the mean slowdown over the sampled time."""
        out, _ = self._process.communicate(input="", timeout=60)
        return float(out) / REFERENCE_PROBE_S


# ----------------------------------------------------------------------
@dataclass
class CellRun:
    #: host-speed corrected seconds before the first simulated step.
    build_s: float = 0.0
    #: host-speed corrected seconds of simulation plus ``verify()``.
    run_s: float = 0.0
    #: uncorrected seconds from set-up start to the end of ``verify()``.
    wall_s: float = 0.0
    stats: Optional[dict] = None
    error: Optional[str] = None
    #: simulated counters read off the backend after the run.
    hw: Dict[str, float] = field(default_factory=dict)


def _engines(backend):
    """The FPGA engine models of a backend (one per cluster shard),
    unwrapped from the chaos layer; none for the software backends."""
    for shard in getattr(backend, "shards", [backend]):
        engine = getattr(shard, "engine", None)
        if engine is not None:
            yield getattr(engine, "inner", engine)


def _hw_counters(backend) -> Dict[str, float]:
    engines = list(_engines(backend))
    configs = {id(e.manager.config): e.manager.config for e in engines}
    return {
        "engines": len(engines),
        "requests": sum(e.stats_requests for e in engines),
        "queueing_ns": sum(e.total_queueing_ns for e in engines),
        "round_trip_ns": sum(e.total_round_trip_ns for e in engines),
        "manager_commits": sum(e.manager.stats_commits for e in engines),
        "mask_cache_entries": sum(c.mask_cache_entries for c in configs.values()),
    }


def run_cell(spec) -> CellRun:
    """``spec.execute()`` step by step, split at the first simulated
    step: set-up is workload input generation plus backend and
    simulator construction, the run is simulation plus ``verify()``."""
    marks: List[float] = []
    # Start every cell from the same heap: garbage a previous cell left
    # for the cycle collector would otherwise move this cell's time and
    # the process's peak memory by chance.
    gc.collect()
    samples = [probe() for _ in range(PROBES)]
    start = time.perf_counter()
    try:
        backend = spec.make_backend()
        stats = run_stamp(
            WORKLOAD_REGISTRY[spec.workload],
            backend,
            spec.n_threads,
            scale=spec.scale,
            seed=spec.seed,
            cost_model=spec.make_cost_model(),
            verify=spec.verify,
            instrument=lambda simulator: marks.append(time.perf_counter()),
        )
    except Exception:  # a failing cell is counted; the sweep goes on
        return CellRun(error=f"{spec.label()}: {traceback.format_exc()}")
    end = time.perf_counter()
    samples += [probe() for _ in range(PROBES)]
    factor = slowdown(samples)
    return CellRun(
        build_s=(marks[0] - start) / factor,
        run_s=(end - marks[0]) / factor,
        wall_s=end - start,
        stats=stats.to_dict(),
        hw=_hw_counters(backend),
    )


def sweep(specs) -> List[CellRun]:
    return [run_cell(spec) for spec in specs]


def pool_sweep(specs, jobs: int) -> Tuple[float, List[Optional[dict]], Optional[str]]:
    """The cells through ``default_runner(jobs)``: host-speed corrected
    wall time, per-cell stats (all None if the sweep raised) and what
    went wrong, if anything, including a pool that fell back to serial."""
    runner = default_runner(jobs=jobs)
    sampler = _SpeedSampler()
    start = time.perf_counter()
    try:
        results = runner.run(specs)
    except Exception:  # a cell raised inside a worker
        return 0.0, [None] * len(specs), traceback.format_exc()
    finally:
        wall = time.perf_counter() - start
        factor = sampler.stop()
    problem = getattr(runner, "fallback_reason", None)
    if problem is not None:
        problem = f"pool fell back to serial: {problem}"
    return wall / factor, [stats.to_dict() for stats in results], problem


class Outcome:
    """Counts cell executions against each cell's first result."""

    def __init__(self, n_cells: int):
        self.reference: List[Optional[dict]] = [None] * n_cells
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, index: int, stats: Optional[dict], error: Optional[str] = None) -> None:
        self.attempted += 1
        if stats is None:
            self.failed += 1
            self.problems.append(error or f"cell {index} produced no result")
            return
        if self.reference[index] is None:
            self.reference[index] = stats
        elif stats != self.reference[index]:
            self.failed += 1
            self.problems.append(f"cell {index}: RunStats differ between executions")

    def check_cells(self, cells: List[CellRun]) -> None:
        for index, cell in enumerate(cells):
            self.check(index, cell.stats, cell.error)

    def digest(self) -> str:
        """sha256 of every cell's ``RunStats.to_dict()``: equal digests
        mean identical simulated behaviour."""
        blob = json.dumps(self.reference, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    outcome: Outcome
    lines: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.outcome.failed == 0 and not self.problems


# ----------------------------------------------------------------------
def import_seconds(samples: int = IMPORT_SAMPLES) -> List[float]:
    """Host-speed corrected import time of the program, each sample in
    a fresh interpreter."""
    code = _with_probe(
        f"samples = [probe() for _ in range({PROBES})]",
        "start = time.perf_counter()",
        _IMPORTS,
        "seconds = time.perf_counter() - start",
        f"samples += [probe() for _ in range({PROBES})]",
        "print(seconds, statistics.median(samples))",
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        seconds, probe_s = map(float, done.stdout.split())
        out.append(seconds * REFERENCE_PROBE_S / probe_s)
    return out


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _more(start: float, reps: int, seconds: float) -> bool:
    """Another sweep while it is expected to end within *seconds*."""
    if reps < MIN_REPS:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / reps <= seconds


def _checked_pool_sweep(
    specs, jobs: int, outcome: Outcome, problems: List[str]
) -> Optional[float]:
    """:func:`pool_sweep`, its cells counted in *outcome*; a pool that
    fell back to serial is a problem of the run, not of its cells.
    The sweep's wall time, or None if it raised."""
    wall, results, problem = pool_sweep(specs, jobs)
    for index, stats in enumerate(results):
        outcome.check(index, stats, problem)
    if results[0] is None:
        return None
    if problem:
        problems.append(problem)
    return wall


def _generate(workload: Workload, seed: int):
    """The workload's specs and their host-speed corrected set-up time."""
    samples = [probe() for _ in range(PROBES)]
    start = time.perf_counter()
    specs = workload.specs(seed)
    check_inputs(specs, seed)
    seconds = time.perf_counter() - start
    samples += [probe() for _ in range(PROBES)]
    return specs, seconds / slowdown(samples)


def timed(workload: Workload, seed: int, seconds: float) -> Result:
    """Tracing off: the end-to-end metrics, medians over repeated sweeps."""
    specs, spec_s = _generate(workload, seed)
    outcome = Outcome(len(specs))
    problems: List[str] = []
    imports = statistics.median(import_seconds())
    start = time.perf_counter()
    if workload.jobs:
        walls, setups = [], [spec_s]
        reps = 0
        while _more(start, reps, seconds):
            specs, spec_s = _generate(workload, seed)
            setups.append(spec_s)
            wall = _checked_pool_sweep(specs, workload.jobs, outcome, problems)
            reps += 1
            if wall is not None:  # a sweep that raised has no time
                walls.append(wall)
        setup_s = imports + statistics.median(setups)
        run_s = statistics.median(walls) if walls else 0.0
    else:
        sweeps: List[List[CellRun]] = []
        while _more(start, len(sweeps), seconds):
            sweeps.append(sweep(specs))
            outcome.check_cells(sweeps[-1])
        # Per-cell medians: a stall during one cell of one sweep moves
        # no figure.
        by_cell = list(zip(*sweeps))
        setup_s = imports + spec_s + sum(
            statistics.median(c.build_s for c in runs) for runs in by_cell
        )
        run_s = sum(statistics.median(c.run_s for c in runs) for runs in by_cell)
        reps = len(sweeps)
    attempts = sum(_attempts(stats) for stats in outcome.reference if stats)
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "txn_per_s": _ratio(attempts, run_s),
        "peak_rss_mb": peak_rss_mb(children=bool(workload.jobs)),
    }
    lines = [
        f"workload {workload.name} seed {seed}: {len(specs)} cells x {reps} sweeps, "
        f"{attempts} attempts per sweep",
        f"RunStats digest {outcome.digest()}",
    ]
    return Result({k: (v, END_TO_END[k]) for k, v in metrics.items()}, outcome, lines, problems)


def _attempts(stats: dict) -> int:
    return stats["commits"] + sum(stats["aborts_by_cause"].values())


# ----------------------------------------------------------------------
def traced(workload: Workload, seed: int) -> Result:
    """One untraced and one traced sweep: the per-layer metrics.

    Layer self times and ``trace.wall_s`` are uncorrected seconds
    inside the cells; ``trace.unattributed_s`` is the wall time no
    layer's self time covers, and the run fails if it exceeds
    :data:`MAX_UNATTRIBUTED` of the wall, so a layer table that stops
    covering the program's host time shows.  ``trace.overhead_frac``
    and the ``exec.*`` times are host-speed corrected."""
    specs, _ = _generate(workload, seed)
    outcome = Outcome(len(specs))
    problems: List[str] = []
    pool_s = 0.0
    if workload.jobs:
        pool_s = _checked_pool_sweep(specs, workload.jobs, outcome, problems) or 0.0
    untraced_cells = sweep(specs)
    outcome.check_cells(untraced_cells)
    with LayerTracer() as tracer:
        cells = sweep(specs)
    outcome.check_cells(cells)

    wall = sum(c.wall_s for c in cells)
    layer_self = tracer.layer_self_s()
    unattributed = wall - sum(layer_self.values())
    if not 0.0 <= unattributed <= MAX_UNATTRIBUTED * wall:
        problems.append(
            f"trace accounting: {unattributed:.6f} s of the traced wall {wall:.6f} s "
            f"is unattributed, outside [0, {MAX_UNATTRIBUTED:.0%}]"
        )
    serial_s = sum(c.build_s + c.run_s for c in untraced_cells)
    untraced_run_s = sum(c.run_s for c in untraced_cells)
    metrics = _layer_metrics(tracer, cells)
    metrics.update(
        {
            "exec.pool_s": pool_s,
            "exec.serial_s": serial_s,
            "exec.parallel_eff": serial_s / (workload.jobs * pool_s) if pool_s else 0.0,
            "trace.wall_s": wall,
            "trace.overhead_frac": sum(c.run_s for c in cells) / untraced_run_s - 1.0,
            "trace.unattributed_s": unattributed,
        }
    )
    lines = [
        f"workload {workload.name} seed {seed}: {len(specs)} cells, traced cells {wall:.3f} s "
        f"(untraced {sum(c.wall_s for c in untraced_cells):.3f} s)",
        f"RunStats digest {outcome.digest()}",
        "layer          self_s   share",
    ]
    for layer, seconds in sorted(layer_self.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:12s} {seconds:8.3f}  {seconds / wall:6.1%}")
    lines.append(f"{'unattributed':12s} {unattributed:8.3f}  {unattributed / wall:6.1%}")
    return Result({k: (v, PER_LAYER[k]) for k, v in metrics.items()}, outcome, lines, problems)


def _percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile in microseconds; 0 without samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)] * 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(tracer: LayerTracer, cells: List[CellRun]) -> Dict[str, float]:
    stats = [c.stats for c in cells if c.stats is not None]
    hw = [c.hw for c in cells if c.stats is not None]
    layer_self = tracer.layer_self_s()

    def barrier(name: str) -> int:
        return sum(tracer.calls(f"{b}.{name}", entering=True) for b in TM_BACKENDS)

    def sampled(name: str) -> List[float]:
        return tracer.samples({f"{b}.{name}" for b in TM_BACKENDS})

    causes: Dict[str, int] = {}
    for s in stats:
        for cause, count in s["aborts_by_cause"].items():
            causes[cause] = causes.get(cause, 0) + count
    xshard = sum(n for c, n in causes.items() if c.startswith("fpga-xshard"))
    commits = sum(s["commits"] for s in stats)
    attempts = sum(_attempts(s) for s in stats)
    validations = sum(s["validations"] for s in stats)
    # Software TMs count their commit-time validation in RunStats too;
    # the hw means cover only the cells that ran an FPGA engine model.
    fpga = [(s, h) for s, h in zip(stats, hw) if h["engines"]]
    reads, commit_lat = sampled("read"), sampled("commit")
    validate_lat = tracer.samples({"repro.hw.manager:ValidationManager.validate"})
    validates = tracer.calls("repro.hw.manager:ValidationManager.validate")
    coordinator = tracer.calls("repro.cluster.coordinator:Coordinator.commit")
    requests = sum(h["requests"] for h in hw)

    return {
        "stamp.setup_s": sum(
            r.self_s for r in tracer.records if r.layer == "stamp" and r.method == "__init__"
        ),
        "stamp.verify_s": sum(
            r.self_s for r in tracer.records if r.layer == "stamp" and r.method == "verify"
        ),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "stamp"},
        "sched.picks": tracer.calls("repro.runtime.sched:SchedulerKernel.pick"),
        "events.emits": tracer.calls("repro.runtime.events:EventBus.emit"),
        "memory.ops": tracer.layer_calls("memory"),
        **{f"tm.{b}.calls": barrier(b) for b in ("begin", "read", "write", "commit", "rollback")},
        "tm.read.p50_us": _percentile(reads, 50),
        "tm.read.p99_us": _percentile(reads, 99),
        "tm.read.samples": len(reads),
        "tm.commit.p50_us": _percentile(commit_lat, 50),
        "tm.commit.p99_us": _percentile(commit_lat, 99),
        "tm.commit.samples": len(commit_lat),
        "tm.commit_ratio": _ratio(commits, attempts),
        "tm.read_only_share": _ratio(sum(s["read_only_commits"] for s in stats), commits),
        "tm.aborts.cpu": sum(n for c, n in causes.items() if c.startswith("cpu")),
        "tm.aborts.fpga": sum(n for c, n in causes.items() if c.startswith("fpga")) - xshard,
        "tm.aborts.xshard": xshard,
        "tm.wasted_share": _ratio(
            sum(s["wasted_ns"] for s in stats),
            sum(s["makespan_ns"] * s["n_threads"] for s in stats),
        ),
        "bloom.calls": tracer.layer_calls("bloom"),
        "hw.engine.submits": tracer.layer_calls("hw.engine"),
        "hw.manager.validates": validates,
        "hw.manager.validate.p50_us": _percentile(validate_lat, 50),
        "hw.manager.validate.p99_us": _percentile(validate_lat, 99),
        "hw.manager.validate.samples": len(validate_lat),
        "hw.manager.commit_ratio": _ratio(sum(h["manager_commits"] for h in hw), validates),
        "hw.detector.calls": tracer.layer_calls("hw.detector"),
        "hw.queueing_ns_mean": _ratio(sum(h["queueing_ns"] for h in hw), requests),
        "hw.round_trip_ns_mean": _ratio(sum(h["round_trip_ns"] for h in hw), requests),
        "hw.validation_us_mean": _ratio(
            sum(s["validation_ns"] for s, _ in fpga), sum(s["validations"] for s, _ in fpga)
        ) / 1e3,
        "hw.mask_cache_entries": max((h["mask_cache_entries"] for h in hw), default=0),
        "window.calls": tracer.layer_calls("window"),
        "faults.submits": tracer.calls("repro.faults.engine:ChaosValidationEngine.submit"),
        "faults.injected": sum(sum(s["faults_injected"].values()) for s in stats),
        "faults.timeouts": sum(s["validation_timeouts"] for s in stats),
        "faults.resubmits": sum(s["validation_resubmits"] for s in stats),
        "faults.software_share": _ratio(sum(s["software_validations"] for s in stats), validations),
        "cluster.coordinator.commits": coordinator,
        "cluster.xshard_share": _ratio(
            coordinator, tracer.calls("repro.cluster.backend:ClusterTMBackend.commit", entering=True)
        ),
    }
