"""The scheduling kernel: unit behavior + the scan/kernel identity gate.

The kernel (:mod:`repro.runtime.sched`) must be *schedule-preserving*:
its heap orders by exactly the ``(clock, tid)`` key the pre-kernel
linear scan minimized over, so every run — stats, traces, event
streams — is byte-identical whichever loop drives it.  The scan lives
on only as :class:`ScanSimulator` in ``benchmarks/bench_sched.py``.
The classes below test the kernel in isolation, then enforce the
identity end-to-end across every backend and seeds {0, 1}, and on the
real-workload fig10 mini-grid (kmeans + ssca2 at 1 and 4 threads).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_sched import SIMULATORS, ScanSimulator
from repro.analysis.registry import EVENT_SCHEMAS
from repro.bench import matrix_specs
from repro.exec import SerialRunner
from repro.exec.spec import WORKLOAD_REGISTRY
from repro.runtime import (
    AwaitBarrier,
    CoarseLockBackend,
    Memory,
    Read,
    RococoTMBackend,
    SchedulerKernel,
    SequentialBackend,
    SimBarrier,
    Simulator,
    SnapshotIsolationBackend,
    TinySTMBackend,
    TinySTMEtlBackend,
    Transaction,
    TsxBackend,
    Work,
    Write,
)

from .conftest import make_counter_program, make_transfer_program


class TestKernelUnit:
    def test_picks_in_clock_order(self):
        kernel = SchedulerKernel(3)
        kernel.add(0, 30.0)
        kernel.add(1, 10.0)
        kernel.add(2, 20.0)
        assert kernel.pick() == 1
        assert kernel.pick() == 2
        assert kernel.pick() == 0
        assert kernel.pick() == -1

    def test_ties_break_by_tid(self):
        kernel = SchedulerKernel(3)
        kernel.add(2, 5.0)
        kernel.add(0, 5.0)
        kernel.add(1, 5.0)
        assert [kernel.pick() for _ in range(3)] == [0, 1, 2]

    def test_reschedule_reorders(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        assert kernel.pick() == 0
        kernel.reschedule(0, 100.0)  # 0 ran and is now far ahead
        assert kernel.pick() == 1
        kernel.reschedule(1, 50.0)
        assert kernel.pick() == 1

    def test_parked_thread_never_surfaces(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        assert kernel.pick() == 0
        kernel.park(0)
        assert kernel.pick() == 1
        kernel.reschedule(1, 2.0)
        assert kernel.pick() == 1  # 0 stays invisible while parked
        kernel.reschedule(1, 3.0)
        kernel.wake(0, 0.5)
        assert kernel.pick() == 0  # back, at its wake-time position
        assert kernel.n_parked == 0

    def test_park_of_scheduled_thread_is_lazy(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        kernel.park(0)  # entry still physically in the heap
        assert kernel.pick() == 1
        kernel.retire(1)
        assert kernel.pick() == -1
        assert kernel.stale_pops == 1  # 0's dead entry was skipped

    def test_retire_decrements_live(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 0.0)
        assert kernel.n_live == 2
        kernel.pick()
        kernel.retire(0)
        assert kernel.n_live == 1
        kernel.pick()
        kernel.retire(1)
        assert kernel.n_live == 0

    def test_deadlock_shape_all_parked(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 0.0)
        kernel.pick()
        kernel.park(0)
        kernel.pick()
        kernel.park(1)
        assert kernel.pick() == -1
        assert kernel.n_live == 2  # live but nothing runnable: deadlock
        assert kernel.n_parked == 2

    def test_double_add_rejected(self):
        kernel = SchedulerKernel(1)
        kernel.add(0, 0.0)
        with pytest.raises(RuntimeError):
            kernel.add(0, 1.0)

    def test_counters_and_ratio(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        kernel.park(1)  # goes stale in place
        kernel.pick()
        kernel.reschedule(0, 2.0)
        kernel.pick()  # skips 1's stale entry
        snap = kernel.snapshot()
        assert snap["picks"] == 2
        assert snap["pushes"] == 3
        assert snap["stale_pops"] == 1
        assert snap["lazy_invalidation_ratio"] == pytest.approx(1 / 3)
        assert snap["heap_high_water"] == 2

    def test_wake_coalescing_counted(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.pick()
        kernel.park(0)
        kernel.wake(0, 5.0, coalesced=True)
        kernel.pick()
        kernel.park(0)
        kernel.wake(0, 9.0)
        assert kernel.wakes == 2
        assert kernel.wakes_coalesced == 1

    def test_snapshot_matches_declared_sched_schema(self):
        # The snapshot IS the "sched" event payload; the registry's
        # exact-key emit assert makes any drift a hard failure.
        kernel = SchedulerKernel(1)
        assert frozenset(kernel.snapshot()) == EVENT_SCHEMAS["sched"].payload

    def test_needs_a_thread(self):
        with pytest.raises(ValueError):
            SchedulerKernel(0)

    def test_pick_with_tid_requeues_and_picks(self):
        kernel = SchedulerKernel(2)
        kernel.add(0, 0.0)
        kernel.add(1, 1.0)
        assert kernel.pick() == 0
        assert kernel.pick(0, 0.5) == 0  # still the minimum
        assert kernel.pick(0, 2.0) == 1  # 0 stays queued at 2.0
        assert kernel.pick(1, 3.0) == 0
        assert kernel.snapshot()["pushes"] == 5
        assert kernel.snapshot()["picks"] == 4


#: clocks drawn from a small set, so (clock, tid) ties are common.
CLOCKS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0])


class TestFoldedPick:
    """``pick(tid, clock)`` is ``reschedule(tid, clock); pick()`` in one
    call: the same thread, and the same counters, on any sequence of
    kernel operations a driver can make."""

    @settings(max_examples=200, deadline=None)
    @given(n_threads=st.integers(1, 6), data=st.data())
    def test_matches_reschedule_then_pick(self, n_threads, data):
        split = SchedulerKernel(n_threads)  # reschedule(); pick()
        folded = SchedulerKernel(n_threads)  # pick(tid, clock)
        for tid in range(n_threads):
            clock = data.draw(CLOCKS)
            split.add(tid, clock)
            folded.add(tid, clock)
        queued = set(range(n_threads))
        parked = set()
        current = -1  # the thread picked last, being "stepped"
        for _ in range(data.draw(st.integers(1, 60))):
            ops = []
            if current >= 0:
                ops += ["step", "park", "retire"]
            elif queued:
                ops.append("pick")
            if queued:
                ops.append("park_queued")  # lazy: its entry goes stale
            if parked:
                ops.append("wake")
            if not ops:
                break
            op = data.draw(st.sampled_from(ops))
            if op == "step":
                clock = data.draw(CLOCKS)
                split.reschedule(current, clock)
                expected = split.pick()
                assert folded.pick(current, clock) == expected
                queued.add(current)
                queued.discard(expected)
                current = expected
            elif op == "pick":
                current = split.pick()
                assert folded.pick() == current
                queued.discard(current)
            elif op in ("park", "retire"):
                getattr(split, op)(current)
                getattr(folded, op)(current)
                if op == "park":
                    parked.add(current)
                current = -1
            elif op == "park_queued":
                tid = data.draw(st.sampled_from(sorted(queued)))
                split.park(tid)
                folded.park(tid)
                queued.discard(tid)
                parked.add(tid)
            else:  # wake
                tid = data.draw(st.sampled_from(sorted(parked)))
                clock = data.draw(CLOCKS)
                coalesced = data.draw(st.booleans())
                split.wake(tid, clock, coalesced)
                folded.wake(tid, clock, coalesced)
                parked.discard(tid)
                queued.add(tid)
            assert folded.snapshot() == split.snapshot()
            assert sorted(folded._heap) == sorted(split._heap)


# ----------------------------------------------------------------------
# Scan-vs-kernel schedule identity
# ----------------------------------------------------------------------
CONTENDED_BACKENDS = [
    CoarseLockBackend,
    TinySTMBackend,
    TinySTMEtlBackend,
    TsxBackend,
    SnapshotIsolationBackend,
    RococoTMBackend,
]


def barrier_phase_program(memory, n_threads):
    """Transactions on both sides of a reused barrier (park/wake mix)."""
    base = memory.alloc(n_threads * 2, align_line=True)
    barrier = SimBarrier(parties=n_threads)

    def make_body(addr):
        def body():
            value = yield Read(addr)
            yield Work(15)
            yield Write(addr, value + 1)

        return body

    def program(tid):
        yield Transaction(make_body(base + tid), label="pre")
        yield AwaitBarrier(barrier)
        yield Work(10 * (tid + 1))
        yield AwaitBarrier(barrier)
        yield Transaction(make_body(base + n_threads + tid), label="post")

    return program


def run_grid(backend_factory, impl, seed):
    results = []
    for n_threads, workload in (
        (4, "counter"),
        (3, "transfer"),
        (4, "barrier"),
    ):
        memory = Memory()
        if workload == "counter":
            counter = memory.alloc(1)
            program = make_counter_program(counter, increments=12)
        elif workload == "transfer":
            base = memory.alloc(16)
            program = make_transfer_program(base, 16, transfers=15, seed_shift=seed)
        else:
            program = barrier_phase_program(memory, n_threads)
        sim = SIMULATORS[impl](
            backend_factory(),
            n_threads,
            memory=memory,
            seed=seed,
            workload_name=workload,
        )
        stats = sim.run([program] * n_threads)
        results.append((stats.to_dict(), sorted(memory._cells.items())))
    return results


class TestScheduleIdentity:
    @pytest.mark.parametrize("backend_factory", CONTENDED_BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel_matches_scan_bit_for_bit(self, backend_factory, seed):
        scan = run_grid(backend_factory, "scan", seed)
        kernel = run_grid(backend_factory, "kernel", seed)
        assert scan == kernel

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequential_matches(self, seed):
        def run(impl):
            memory = Memory()
            counter = memory.alloc(1)
            sim = SIMULATORS[impl](
                SequentialBackend(), 1, memory=memory, seed=seed
            )
            stats = sim.run([make_counter_program(counter, 25)])
            return stats.to_dict(), memory.load(counter)

        assert run("scan") == run("kernel")

    def test_default_impl_is_the_kernel(self):
        memory = Memory()
        counter = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 2, memory=memory)
        sim.run([make_counter_program(counter, 4)] * 2)
        assert sim._kernel is not None
        assert sim._kernel.picks > 0


class TestStampGridIdentity:
    """The fig10 mini-grid (kmeans + ssca2, 1 and 4 threads, scale 0.1)
    on real workloads: every cell's RunStats are identical whether the
    scan or the kernel schedules it."""

    def test_fig10_mini_grid_matches_scan(self, monkeypatch):
        specs = matrix_specs(
            workloads=[WORKLOAD_REGISTRY["kmeans"], WORKLOAD_REGISTRY["ssca2"]],
            threads=(1, 4),
            scale=0.1,
        )
        kernel = [s.to_dict() for s in SerialRunner().run(specs)]

        scan_sims = []

        def scan_simulator(*args, **kwargs):
            sim = ScanSimulator(*args, **kwargs)
            scan_sims.append(sim)
            return sim

        monkeypatch.setattr("repro.stamp.common.Simulator", scan_simulator)
        scan = [s.to_dict() for s in SerialRunner().run(specs)]
        assert len(scan_sims) == len(specs)  # every cell ran on the scan
        assert scan == kernel


# ----------------------------------------------------------------------
# The end-of-run "sched" event
# ----------------------------------------------------------------------
class TestSchedEvent:
    def _run(self):
        memory = Memory()
        counter = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 3, memory=memory)
        seen = []
        sim.bus.subscribe(lambda e: seen.append(e), kinds=("sched",))
        sim.run([make_counter_program(counter, 10)] * 3)
        return seen

    def test_kernel_publishes_one_snapshot(self):
        events = self._run()
        assert len(events) == 1
        data = events[0].data
        assert data["picks"] > 0
        assert data["pushes"] >= data["picks"]
        # No parks in this workload: one valid entry per thread, so the
        # heap never grows past T.
        assert data["heap_high_water"] == 3
        assert 0.0 <= data["lazy_invalidation_ratio"] < 1.0

    def test_unobserved_runs_emit_nothing(self):
        # No subscriber => wants("sched") is False => zero event cost.
        memory = Memory()
        counter = memory.alloc(1)
        sim = Simulator(TinySTMBackend(), 2, memory=memory)
        sim.run([make_counter_program(counter, 4)] * 2)
        assert not sim.bus.wants("sched")


# ----------------------------------------------------------------------
# Satellite: max_steps off-by-one + deadlock diagnostics
# ----------------------------------------------------------------------
def spinning_program(tid):
    while True:
        yield Work(1)


class TestRunLimits:
    @pytest.mark.parametrize("impl", ["scan", "kernel"])
    def test_max_steps_counts_exactly(self, impl):
        steps_seen = []
        sim = SIMULATORS[impl](SequentialBackend(), 1, max_steps=5)
        sim.bus.subscribe(lambda e: steps_seen.append(e.time), kinds=("step",))
        with pytest.raises(RuntimeError, match="max_steps=5"):
            sim.run([spinning_program])
        # Exactly max_steps steps executed — not max_steps + 1.
        assert len(steps_seen) == 5

    @pytest.mark.parametrize("impl", ["scan", "kernel"])
    def test_livelock_message_carries_thread_snapshot(self, impl):
        sim = SIMULATORS[impl](SequentialBackend(), 1, max_steps=3)
        with pytest.raises(RuntimeError, match=r"t0 runnable clock=\d+ns"):
            sim.run([spinning_program])

    @pytest.mark.parametrize("impl", ["scan", "kernel"])
    def test_deadlock_message_names_parked_threads(self, impl):
        barrier = SimBarrier(parties=3)  # one party short: never releases

        def program(tid):
            yield Work(5 * tid)
            yield AwaitBarrier(barrier)

        sim = SIMULATORS[impl](TinySTMBackend(), 2)
        with pytest.raises(RuntimeError, match="deadlock") as err:
            sim.run([program] * 2)
        message = str(err.value)
        assert "t0 parked(barrier)" in message
        assert "t1 parked(barrier)" in message


# ----------------------------------------------------------------------
# Satellite: back-to-back reuse of one barrier object
# ----------------------------------------------------------------------
class TestBarrierReuse:
    @pytest.mark.parametrize("impl", ["scan", "kernel"])
    def test_two_rounds_on_one_object(self, impl):
        barrier = SimBarrier(parties=3)
        passed = []

        def program(tid):
            yield Work(10 * tid)
            yield AwaitBarrier(barrier)
            passed.append(("round1", tid))
            # The fastest releasee re-arrives while others are still
            # being woken from round 1 — the release loop must not see
            # round-2 arrivals in its own batch.
            yield AwaitBarrier(barrier)
            passed.append(("round2", tid))

        del passed[:]
        SIMULATORS[impl](TinySTMBackend(), 3).run([program] * 3)
        assert sorted(p for p in passed if p[0] == "round1") == [
            ("round1", 0),
            ("round1", 1),
            ("round1", 2),
        ]
        assert sorted(p for p in passed if p[0] == "round2") == [
            ("round2", 0),
            ("round2", 1),
            ("round2", 2),
        ]

    @pytest.mark.parametrize("impl", ["scan", "kernel"])
    def test_waiting_list_is_fresh_per_round(self, impl):
        barrier = SimBarrier(parties=2)

        def program(tid):
            for _ in range(3):
                yield AwaitBarrier(barrier)
                yield Work(1 + tid)

        SIMULATORS[impl](TinySTMBackend(), 2).run([program] * 2)
        assert barrier.waiting == []

    def test_release_times_identical_across_impls(self):
        def run(impl):
            barrier = SimBarrier(parties=4)

            def program(tid):
                yield Work(7 * tid)
                yield AwaitBarrier(barrier)
                yield Work(3)
                yield AwaitBarrier(barrier)

            sim = SIMULATORS[impl](TinySTMBackend(), 4)
            stats = sim.run([program] * 4)
            return stats.makespan_ns

        assert run("scan") == run("kernel")
