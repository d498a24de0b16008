"""The discrete-event simulator core: scheduling, retries, determinism."""

import pytest

from repro.runtime import (
    Alloc,
    CostModel,
    Memory,
    Read,
    SequentialBackend,
    Simulator,
    TinySTMBackend,
    TMBackend,
    Transaction,
    TransactionAborted,
    Work,
    Write,
)
from .conftest import run_counter


class TestBasics:
    def test_single_thread_counter(self):
        value, stats = run_counter(SequentialBackend(), 1, increments=10)
        assert value == 10
        assert stats.commits == 10
        assert stats.aborts == 0
        assert stats.makespan_ns > 0

    def test_thread_count_validated(self):
        with pytest.raises(ValueError):
            Simulator(SequentialBackend(), 0)

    def test_one_program_per_thread_required(self):
        sim = Simulator(TinySTMBackend(), 2)
        with pytest.raises(ValueError):
            sim.run([lambda tid: iter(())])

    def test_work_advances_clock(self):
        def program(tid):
            yield Work(1000)

        sim = Simulator(SequentialBackend(), 1)
        stats = sim.run([program])
        assert stats.makespan_ns >= 1000

    def test_alloc_inside_transaction(self):
        memory = Memory()

        def body():
            base = yield Alloc(4)
            yield Write(base, 7)
            value = yield Read(base)
            return (base, value)

        collected = []

        def program(tid):
            result = yield Transaction(body)
            collected.append(result)

        sim = Simulator(SequentialBackend(), 1, memory=memory)
        sim.run([program])
        base, value = collected[0]
        assert value == 7
        assert memory.load(base) == 7

    def test_invalid_yields_rejected(self):
        def bad_program(tid):
            yield Read(0)  # Read outside a transaction

        sim = Simulator(SequentialBackend(), 1)
        with pytest.raises(TypeError):
            sim.run([bad_program])

    def test_transaction_result_flows_to_program(self):
        results = []

        def body():
            yield Work(1)
            return 42

        def program(tid):
            results.append((yield Transaction(body)))

        Simulator(SequentialBackend(), 1).run([program])
        assert results == [42]


class TestConcurrency:
    def test_multithread_counter_is_exact(self):
        """The canonical lost-update test: the final counter equals the
        number of committed increments under any correct TM."""
        value, stats = run_counter(TinySTMBackend(), 8, increments=15)
        assert value == 8 * 15
        assert stats.commits == 8 * 15

    def test_aborts_happen_under_contention(self):
        _, stats = run_counter(TinySTMBackend(), 8, increments=15)
        assert stats.aborts > 0

    def test_determinism(self):
        v1, s1 = run_counter(TinySTMBackend(), 6, increments=10, seed=3)
        v2, s2 = run_counter(TinySTMBackend(), 6, increments=10, seed=3)
        assert v1 == v2
        assert s1.makespan_ns == s2.makespan_ns
        assert s1.aborts == s2.aborts

    def test_seed_changes_interleaving(self):
        _, s1 = run_counter(TinySTMBackend(), 6, increments=10, seed=1)
        _, s2 = run_counter(TinySTMBackend(), 6, increments=10, seed=2)
        # Backoff jitter differs, so makespans should differ.
        assert s1.makespan_ns != s2.makespan_ns


class TestCostModel:
    def test_smt_penalty_above_physical_cores(self):
        model = CostModel(physical_cores=4, smt_penalty=1.5)
        assert model.compute_scale(4) == 1.0
        assert model.compute_scale(8) == pytest.approx(1.5)
        assert model.compute_scale(8, footprint=0.5) == pytest.approx(1.25)

    def test_smt_penalty_slows_makespan(self):
        def run(n_threads, cores):
            return run_counter_with_cores(n_threads, cores)

        fast = run(4, cores=8)
        slow = run(4, cores=2)
        assert slow > fast


def run_counter_with_cores(n_threads, cores):
    memory = Memory()
    counter = memory.alloc(1)
    sim = Simulator(
        TinySTMBackend(),
        n_threads,
        memory=memory,
        cost_model=CostModel(physical_cores=cores),
    )
    from .conftest import make_counter_program

    stats = sim.run([make_counter_program(counter, 10)] * n_threads)
    return stats.makespan_ns


class _BeginAbortsBackend(TMBackend):
    """Direct-access backend whose ``begin`` aborts *k* times first."""

    name = "begin-aborts"

    def __init__(self, k):
        super().__init__()
        self.remaining = k

    def begin(self, tid, now):
        if self.remaining:
            self.remaining -= 1
            raise TransactionAborted("cpu-lock-subscription")
        return now + 5.0

    def read(self, tid, addr, now):
        return self.memory.load(addr), now + 1.0

    def write(self, tid, addr, value, now):
        self.memory.store(addr, value)
        return now + 1.0

    def commit(self, tid, now):
        return now + 2.0

    def rollback(self, tid, now, cause):
        return now + 3.0


class TestBeginAborts:
    """An attempt whose ``begin`` aborts never runs a body, so the body
    is built once, after the ``begin`` that succeeds."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_body_built_once_and_events_unchanged(self, k):
        memory = Memory()
        counter = memory.alloc(1)
        built = []

        def make_body():
            built.append(len(events))

            def body():
                value = yield Read(counter)
                yield Write(counter, value + 1)

            return body()

        def program(tid):
            yield Transaction(make_body, label="inc")

        sim = Simulator(_BeginAbortsBackend(k), 1, memory=memory, seed=3)
        events = []
        sim.bus.subscribe(events.append, kinds=("begin", "abort", "backoff", "commit"))
        stats = sim.run([program])

        assert memory.load(counter) == 1
        assert stats.commits == 1
        assert stats.aborts_by_cause == ({"cpu-lock-subscription": k} if k else {})
        assert stats.wasted_ns == 0.0
        # k x (abort, backoff), then the begin of attempt k + 1.
        assert [e.kind for e in events] == ["abort", "backoff"] * k + ["begin", "commit"]
        for abort in events[: 2 * k : 2]:
            assert abort.began is False
            assert abort.cause == "cpu-lock-subscription"
            assert abort.wasted == 0.0
        begin = events[2 * k]
        assert begin.attempt_index == k + 1
        assert begin.label == "inc"
        # make_body ran exactly once, after every begin abort was charged.
        assert built == [2 * k]
