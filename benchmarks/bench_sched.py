"""Scheduler microbench: driver steps/sec, scan vs kernel (docs/PERF.md).

No paper figure covers the host-side scheduler — it is reproduction
infrastructure — but every figure's wall-clock bottoms out in
``Simulator.run``'s inner loop, so this benchmark is the repo's perf
trajectory for that loop.  Thread programs yield pure :class:`Work`
(no transactions, no memory traffic), making the run scheduler-bound:
the measured rate is driver steps per wall-clock second, for both
scheduling loops:

* ``scan``   — :class:`ScanSimulator`, the pre-kernel O(T)-per-step
  linear scan driving the pre-flattening step dispatch (``_step`` ->
  ``_step_transaction`` -> ``_apply_txn_op``), kept here (and only
  here) as the reference the kernel loop is measured and
  bit-identity-tested against (``tests/runtime/test_sched.py``
  imports it);
* ``kernel`` — :class:`repro.runtime.Simulator`, the indexed min-heap
  (:mod:`repro.runtime.sched`) under the flat step loop.

The scan/kernel ratio therefore measures the heap and the flattened
step together (docs/PERF.md "Driver step loop").

Running ``python benchmarks/bench_sched.py`` sweeps the thread grid
and writes ``BENCH_sched.json`` (schema in docs/PERF.md); under
pytest the same sweep also asserts the kernel's >= 2x step-rate at 28
threads.  Knobs:

* ``REPRO_BENCH_SCHED_THREADS`` — space-separated grid override
  (default ``1 4 14 28 64``);
* ``REPRO_BENCH_SCHED_STEPS``   — total steps per measurement
  (default 60000; CI's perf-smoke uses a smaller value);
* ``REPRO_BENCH_SCHED_JSON``    — output path (default
  ``BENCH_sched.json`` in the working directory).
"""

import json
import os
import time
from typing import Any

from repro.runtime import (
    Alloc,
    ParkThread,
    Read,
    SimEvent,
    Simulator,
    TinySTMBackend,
    TransactionAborted,
    Work,
    Write,
)
from repro.runtime.simulator import ALLOC_NS, _Thread

DEFAULT_THREADS = (1, 4, 14, 28, 64)
DEFAULT_TOTAL_STEPS = 60_000
#: acceptance floor for the kernel at the paper's 28-thread point.
TARGET_SPEEDUP_AT_28 = 2.0


class ScanSimulator(Simulator):
    """The simulator with its pre-kernel scheduling loop: every step
    rebuilds the runnable list and takes the ``(clock, tid)`` minimum
    over all T threads, then steps through the pre-flattening call
    chain below.

    Must never diverge from :class:`Simulator` in anything but
    complexity.  The kernel still receives the park/wake bookkeeping
    but is never asked to pick, so its end-of-run ``sched`` snapshot
    is meaningless here.
    """

    def _loop(self) -> None:
        threads = self._threads
        bus = self.bus
        steps = 0
        while True:
            runnable = [t for t in threads if not t.done and not t.parked]
            if not runnable:
                if any(t.parked for t in threads):
                    raise RuntimeError(self._deadlock_message())
                break
            if steps >= self.max_steps:
                raise RuntimeError(self._livelock_message(steps))
            thread = min(runnable, key=lambda t: (t.clock, t.tid))
            if bus.wants("step"):
                bus.emit(SimEvent("step", thread.tid, thread.clock))
            self._step(thread)
            steps += 1

    # The pre-flattening step dispatch, verbatim: the driver now runs the
    # common transactional step inline in ``Simulator._loop``.
    def _step(self, thread: _Thread) -> None:
        if thread.txn is None:
            self._step_program(thread)
        else:
            self._step_transaction(thread)

    def _step_transaction(self, thread: _Thread) -> None:
        txn = thread.txn
        # Resume a parked operation first.
        if txn.pending_op == "begin":
            txn.pending_op = None
            txn.attempt -= 1  # _begin_attempt recounts
            self._begin_attempt(thread)
            return
        if txn.pending_op is not None:
            op = txn.pending_op
            txn.pending_op = None
        else:
            try:
                op = txn.body.send(txn.body_value)
            except StopIteration as stop:
                self._try_commit(thread, stop.value)
                return
            except TransactionAborted as aborted:  # pragma: no cover
                self._handle_abort(thread, aborted)
                return
        txn.body_value = None
        try:
            self._apply_txn_op(thread, op)
        except ParkThread:
            txn.pending_op = op
            self._park(thread, "operation")
        except TransactionAborted as aborted:
            self._handle_abort(thread, aborted)

    def _apply_txn_op(self, thread: _Thread, op: Any) -> None:
        txn = thread.txn
        bus = self.bus
        if isinstance(op, Read):
            value, ready = self._hook(
                self.backend.read, thread.tid, op.addr, thread.clock
            )
            thread.clock = ready
            txn.body_value = value
            if bus.wants("read"):
                bus.emit(
                    SimEvent("read", thread.tid, ready, addr=op.addr, value=value)
                )
        elif isinstance(op, Write):
            thread.clock = self._hook(
                self.backend.write, thread.tid, op.addr, op.value, thread.clock
            )
            if bus.wants("write"):
                bus.emit(
                    SimEvent(
                        "write",
                        thread.tid,
                        thread.clock,
                        addr=op.addr,
                        value=op.value,
                    )
                )
        elif isinstance(op, Work):
            thread.clock += op.ns * self._work_scale[thread.tid]
        elif isinstance(op, Alloc):
            txn.body_value = self.memory.alloc(op.cells)
            thread.clock += ALLOC_NS
        else:
            raise TypeError(f"transaction bodies may not yield {op!r}")


#: the two scheduling loops, by the names BENCH_sched.json reports.
SIMULATORS = {"scan": ScanSimulator, "kernel": Simulator}


def _thread_grid():
    raw = os.environ.get("REPRO_BENCH_SCHED_THREADS", "")
    if raw.strip():
        return tuple(int(token) for token in raw.split())
    return DEFAULT_THREADS


def _total_steps():
    return int(os.environ.get("REPRO_BENCH_SCHED_STEPS", DEFAULT_TOTAL_STEPS))


def _make_program(steps_per_thread):
    def program(tid):
        for _ in range(steps_per_thread):
            yield Work(10)

    return program


def _measure(impl, n_threads, total_steps):
    """One timed run; returns (steps, seconds, steps_per_sec)."""
    steps_per_thread = max(50, total_steps // n_threads)
    sim = SIMULATORS[impl](TinySTMBackend(), n_threads)
    program = _make_program(steps_per_thread)
    started = time.perf_counter()
    sim.run([program] * n_threads)
    elapsed = time.perf_counter() - started
    # One step per Work yield plus the StopIteration step per thread.
    steps = n_threads * (steps_per_thread + 1)
    return steps, elapsed, steps / elapsed


def sweep():
    """The full grid; returns the BENCH_sched.json payload."""
    total_steps = _total_steps()
    rows = []
    for n_threads in _thread_grid():
        steps, scan_s, scan_rate = _measure("scan", n_threads, total_steps)
        _, kernel_s, kernel_rate = _measure("kernel", n_threads, total_steps)
        rows.append(
            {
                "threads": n_threads,
                "steps": steps,
                "scan_steps_per_sec": round(scan_rate, 1),
                "kernel_steps_per_sec": round(kernel_rate, 1),
                "scan_wall_s": round(scan_s, 6),
                "kernel_wall_s": round(kernel_s, 6),
                "speedup": round(kernel_rate / scan_rate, 3),
            }
        )
    return {
        "benchmark": "sched",
        "unit": "driver steps per wall-clock second",
        "workload": "Work-only programs (scheduler-bound)",
        "target_speedup_at_28": TARGET_SPEEDUP_AT_28,
        "results": rows,
    }


def write_stamp(payload):
    path = os.environ.get("REPRO_BENCH_SCHED_JSON", "BENCH_sched.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def print_report(payload):
    print(f"{'T':>4} {'scan steps/s':>14} {'kernel steps/s':>15} {'speedup':>8}")
    for row in payload["results"]:
        print(
            f"{row['threads']:>4} {row['scan_steps_per_sec']:>14.0f} "
            f"{row['kernel_steps_per_sec']:>15.0f} {row['speedup']:>7.2f}x"
        )


def test_kernel_step_rate(benchmark):
    payload = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_report(payload)
    write_stamp(payload)
    # The kernel must never regress below the scan at any grid point…
    for row in payload["results"]:
        assert row["speedup"] > 0.8, row
    # …and must clear the 2x acceptance floor at the 28-thread point.
    gate = [r for r in payload["results"] if r["threads"] == 28]
    if gate:
        assert gate[0]["speedup"] >= TARGET_SPEEDUP_AT_28, gate[0]


def main():
    payload = sweep()
    print_report(payload)
    path = write_stamp(payload)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
