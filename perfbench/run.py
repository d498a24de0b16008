"""End-to-end host-time benchmark of the ROCoCoTM reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload rococo-stamp --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload's sweep for ``--seconds`` with
tracing off and reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced sweep and reports the per-layer metrics (see
README.md).  The last line of standard output is one JSON object; the
exit code is 0 only if every cell execution passed its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    # 1 is the seed of every figure of the repository (repro fig10 --seed).
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro
        from perfbench import measure
        from perfbench.workloads import WORKLOADS, InputRefused
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = measure.traced(workload, args.seed)
        else:
            result = measure.timed(workload, args.seed, args.seconds)
    except InputRefused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    outcome = result.outcome
    for line in result.lines:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'fail_frac':28s} {outcome.failed / outcome.attempted:14.6g} "
          f"({outcome.failed} of {outcome.attempted} cell executions)")
    for problem in list(dict.fromkeys(outcome.problems + result.problems))[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"perfbench: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
