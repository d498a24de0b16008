"""Golden RunStats digests for ROCoCoTM cells.

Any change to the ROCoCoTM barriers, signatures or validation path that
moves simulated behaviour (a cost charged, an abort cause, a commit
order) changes one of these digests.  The digest is
``sha256(json.dumps(stats.to_dict(), sort_keys=True))``.  A change that
moves simulated behaviour on purpose must re-record these values and say
why.
"""

import hashlib
import json

import pytest

from repro.exec import ExperimentSpec

GOLDEN = {
    ("genome", "ROCoCoTM", None): "55a45f5144d09720bbc8fcdf4f1beba2cb2bfbfd2e6cc89b2a3fee2166f56e4b",
    ("intruder", "ROCoCoTM", None): "7eec9e3d88203cedc0514b4d07ab7bbff0ef569c653e1835292a7c6c479e066b",
    ("kmeans", "ROCoCoTM", None): "16e007cabaf8345bbd78bb39018afa5556bd4b75fe53135d865083c2251c019c",
    ("labyrinth", "ROCoCoTM", None): "3385f173f37ac169cd0789bba5e4adb8689417b17007836236f5e796bec058aa",
    ("ssca2", "ROCoCoTM", None): "1436a12b4759f4acab47b686ce39bc7500af52284170faf4582b18a9f3e74b26",
    ("vacation", "ROCoCoTM", None): "447711e88e8b367a4c0741a1c1cbe1681fcb3563205bb4571aa596db0e364ade",
    ("yada", "ROCoCoTM", None): "23f736220a5cf89b5554bf3b8d0ee3e3163f476dc9fb54621a4b1a55d129837a",
    ("vacation-high", "ClusterTM", 2): "3bdb3ba66f38661c8d00129b35eb2ee8a795aa39d52af673d8c93221dca8009a",
}

#: A fault-injected cell: exercises the degradation ladder and the
#: phantom-slot mirroring on top of the barriers.
CHAOS_KMEANS = "7d064d470cb44b1507ac3f74195904dfb1926f51a015aaca2bad13dce05245b9"


def digest(spec: ExperimentSpec) -> str:
    payload = json.dumps(spec.execute().to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("app,backend,shards", sorted(GOLDEN))
def test_runstats_digest(app, backend, shards):
    if shards is None:
        spec = ExperimentSpec(app, backend, 4, scale=0.1, seed=1)
    else:
        spec = ExperimentSpec(
            app, backend, 4, scale=0.1, seed=1,
            shards=shards, faults="mixed", fault_seed=1,
        )
    assert digest(spec) == GOLDEN[(app, backend, shards)]


def test_fault_injected_runstats_digest():
    spec = ExperimentSpec(
        "kmeans", "ROCoCoTM", 4, scale=0.25, seed=1, faults="mixed", fault_seed=1
    )
    assert digest(spec) == CHAOS_KMEANS
