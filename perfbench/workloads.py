"""The benchmark's workloads: each one a list of generated specs.

Every input the program sees is an :class:`~repro.exec.ExperimentSpec`
built here from the workload name and the seed; :func:`check_inputs`
refuses anything else before a run starts.  README.md records why each
workload was chosen, and the seed held out for later claims.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.bench.stamp_matrix import matrix_specs
from repro.exec import ExperimentSpec
from repro.stamp import ALL_WORKLOADS

_APPS = tuple(cls.name for cls in ALL_WORKLOADS)
_CLUSTER_APPS = ("ssca2", "kmeans", "vacation-high")


def _rococo_stamp(seed: int, scale: float) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(app, "ROCoCoTM", threads, scale=scale, seed=seed)
        for app in _APPS
        for threads in (14, 28)
    ]


def _stm_stamp(seed: int, scale: float) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(app, backend, threads, scale=scale, seed=seed)
        for app in _APPS
        for backend in ("TinySTM", "TSX")
        for threads in (14, 28)
    ]


def _cluster_chaos(seed: int, scale: float) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(
            app, "ClusterTM", 8 * shards, scale=scale, seed=seed,
            shards=shards, faults=faults, fault_seed=seed,
        )
        for app in _CLUSTER_APPS
        for shards in (2, 4)
        for faults in (None, "mixed")
    ]


def _fig10(seed: int, scale: float) -> List[ExperimentSpec]:
    return matrix_specs(scale=scale, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], List[ExperimentSpec]]
    scale: float
    #: ``default_runner(jobs=...)`` the sweep runs through; None runs
    #: the cells one by one in this process.
    jobs: Optional[int] = None

    def specs(self, seed: int) -> List[ExperimentSpec]:
        return self.build(seed, self.scale)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rococo-stamp", _rococo_stamp, scale=1.0),
        Workload("stm-stamp", _stm_stamp, scale=1.0),
        Workload("cluster-chaos", _cluster_chaos, scale=0.5),
        Workload("fig10-jobs2", _fig10, scale=0.5, jobs=2),
    )
}


class InputRefused(ValueError):
    """The program would have seen something other than generated specs."""


def check_inputs(specs: List[ExperimentSpec], seed: int) -> None:
    """Refuse a run whose program would see anything but generated
    specs: every cell is a seeded, verified, unobserved spec with no
    cost overrides, no cell repeats, and no ``REPRO_*`` environment
    knob (such as ``REPRO_SCHED``) can redirect the program."""
    knobs = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if knobs:
        raise InputRefused(f"environment knobs would change the program: {', '.join(knobs)}")
    if not specs:
        raise InputRefused("a workload needs at least one cell")
    for spec in specs:
        if not isinstance(spec, ExperimentSpec):
            raise InputRefused(f"not a generated spec: {spec!r}")
        if spec.seed != seed or not spec.verify or spec.obs or spec.cost_model:
            raise InputRefused(f"spec not generated from seed {seed}: {spec.canonical()}")
    if len({spec.content_hash() for spec in specs}) != len(specs):
        raise InputRefused("a workload cell repeats")
