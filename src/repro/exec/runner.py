"""Runners: execute a batch of :class:`ExperimentSpec` cells.

The contract every runner honors:

* **Determinism** — ``run(specs)`` returns one :class:`RunStats` per
  spec, *in input order*, and the results are bit-identical whichever
  runner produced them.  Each spec is a self-contained deterministic
  simulation (its own Memory, its own seeded RNGs), so sharding cells
  across processes cannot change any cell's outcome — only the
  wall-clock time to produce them all.
* **Cache transparency** — give a runner a
  :class:`~repro.exec.cache.ResultCache` and it executes only the
  misses, filling hits from disk; the returned list is the same either
  way.

:class:`SerialRunner` runs cells in the calling process.  The one
multi-process runner is :class:`~repro.exec.supervise.SupervisedRunner`,
whose long-lived workers also survive crashes and hangs;
:func:`~repro.exec.supervise.default_runner` picks between the two.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..runtime import RunStats
from .cache import ResultCache
from .spec import ExperimentSpec

Progress = Optional[Callable[[str], None]]


def run_payload(payload: Dict) -> Dict:
    """Execute one spec given (and returning) plain dicts.

    Module-level and dict-in/dict-out on purpose: picklable under the
    ``spawn`` start method, and immune to any divergence between the
    parent's and the worker's in-memory objects.
    """
    spec = ExperimentSpec.from_dict(payload)
    return spec.execute().to_dict()


class Runner:
    """Shared cache-aware driving; subclasses supply ``_execute``."""

    name = "abstract"

    def __init__(self, cache: Optional[ResultCache] = None):
        self.cache = cache

    def run(
        self, specs: Sequence[ExperimentSpec], progress: Progress = None
    ) -> List[RunStats]:
        specs = list(specs)
        results: List[Optional[RunStats]] = [None] * len(specs)
        miss_indices: List[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None:
                cached = self.cache.get(spec)
                if cached is not None:
                    results[index] = cached
                    if progress is not None:
                        progress(f"{spec.label()} [cached]")
                    continue
            miss_indices.append(index)
        fresh = self._execute([specs[i] for i in miss_indices], progress)
        for index, stats in zip(miss_indices, fresh):
            results[index] = stats
            if self.cache is not None:
                self.cache.put(specs[index], stats)
        return results  # type: ignore[return-value]

    def _execute(
        self, specs: List[ExperimentSpec], progress: Progress
    ) -> List[RunStats]:
        raise NotImplementedError


class SerialRunner(Runner):
    """One cell after another, in the calling process."""

    name = "serial"

    def _execute(
        self, specs: List[ExperimentSpec], progress: Progress
    ) -> List[RunStats]:
        results = []
        for spec in specs:
            stats = spec.execute()
            results.append(stats)
            if progress is not None:
                progress(f"{spec.label()} makespan={stats.makespan_ns / 1e6:.3f} ms")
        return results
