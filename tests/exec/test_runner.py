"""Runners: bit-identity, ordering, cache awareness, ``--jobs``."""

import multiprocessing
import os

import pytest

from repro.exec import (
    ExperimentSpec,
    ResultCache,
    SerialRunner,
    SupervisedRunner,
    default_runner,
    run_payload,
)

#: the satellite's 2-workload x 2-backend mini-grid (plus per-workload
#: sequential baselines), kept tiny so tier-1 stays fast.
MINI_GRID = [
    ExperimentSpec(workload, backend, n_threads, scale=0.2, seed=1)
    for workload in ("kmeans", "ssca2")
    for backend, n_threads in (
        ("sequential", 1),
        ("TinySTM", 2),
        ("ROCoCoTM", 2),
    )
]


def _dicts(stats_list):
    return [stats.to_dict() for stats in stats_list]


class TestSerialRunner:
    def test_order_matches_input(self):
        results = SerialRunner().run(MINI_GRID)
        assert [(s.workload, s.backend) for s in results] == [
            (spec.workload, spec.backend) for spec in MINI_GRID
        ]

    def test_progress_called_per_cell(self):
        seen = []
        SerialRunner().run(MINI_GRID[:2], progress=seen.append)
        assert len(seen) == 2
        assert "kmeans/sequential@1t" in seen[0]


class TestBitIdentity:
    def test_pool_identical_to_serial_on_mini_grid(self):
        """The tentpole contract: sharding cells across processes
        changes nothing about any cell (each spec owns its RNGs)."""
        serial = SerialRunner().run(MINI_GRID)
        pooled = default_runner(2).run(MINI_GRID)
        assert _dicts(serial) == _dicts(pooled)

    def test_run_payload_round_trip(self):
        spec = MINI_GRID[1]
        via_payload = run_payload(spec.canonical())
        assert via_payload == spec.execute().to_dict()


class TestWorkerPool:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="speedup is only a contract at >= 4 host cores",
    )
    def test_speedup_at_four_cores(self):
        import time

        grid = [
            ExperimentSpec(workload, backend, n_threads, scale=0.4, seed=1)
            for workload in ("kmeans", "vacation", "ssca2", "genome")
            for backend in ("TinySTM", "ROCoCoTM")
            for n_threads in (4, 8)
        ]
        started = time.perf_counter()
        serial = SerialRunner().run(grid)
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        pooled = default_runner(0).run(grid)
        pooled_s = time.perf_counter() - started
        assert _dicts(serial) == _dicts(pooled)
        assert serial_s / pooled_s > 1.5

    def test_cache_short_circuits_pool(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = default_runner(2, cache=cache).run(MINI_GRID)
        assert cache.misses == len(MINI_GRID)
        rerun = default_runner(2, cache=cache).run(MINI_GRID)
        assert cache.hits == len(MINI_GRID)
        assert _dicts(first) == _dicts(rerun)


class TestDefaultRunner:
    def test_jobs_semantics(self):
        assert isinstance(default_runner(None), SerialRunner)
        assert isinstance(default_runner(1), SerialRunner)
        pool = default_runner(3)
        assert isinstance(pool, SupervisedRunner)
        assert pool.max_workers == 3
        sized = default_runner(0)
        assert isinstance(sized, SupervisedRunner)
        assert sized.max_workers == multiprocessing.cpu_count()
