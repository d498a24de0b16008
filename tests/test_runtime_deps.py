"""The program runs without its dev-only dependencies.

numpy and networkx are test and benchmark tools (``[dev]`` extra in
pyproject.toml), not runtime dependencies.  This guard imports the
execution layer and the workloads in a fresh interpreter in which both
are blocked, and runs one ROCoCoTM cell and one two-shard ClusterTM
cell with their final-state checks on.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.modules["numpy"] = None
sys.modules["networkx"] = None

import repro.exec
import repro.stamp
from repro.exec import ExperimentSpec

for spec in (
    ExperimentSpec("kmeans", "ROCoCoTM", 2, scale=0.05, verify=True),
    ExperimentSpec("ssca2", "ClusterTM", 2, scale=0.05, verify=True, shards=2),
):
    assert spec.execute().commits > 0, spec
print("ok")
"""


def test_cells_run_without_numpy_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
