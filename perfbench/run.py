"""Benchmark entry point for the riskplan planner.

    python3 perfbench/run.py --workload corridor|city|sweep --seed N \
        --seconds S --trace 0|1

Run from the repository root. The workload runs in a child process
(``worker.py``) with BLAS and OpenMP pinned to one thread. Standard output
ends with two lines: the full report (every metric with unit and sample
count, output-check problems, front quality, dense-check figures and the
run record), then one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics that BENCHMARK.json
declares with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

Exits 2 without a result when the planner sources are not present.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (
    "BENCHMARK.json",
    "src/riskplan/__init__.py",
    "scenarios/corridor.json",
    "scenarios/calibration.csv",
)
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description="riskplan end-to-end benchmark")
    parser.add_argument("--workload", choices=("corridor", "city", "sweep"), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    # The timed loop takes about --seconds and the output checks, which run
    # after it, scale with its number of calls; set-up and the warm-up call
    # fit in the fixed margin.
    timeout_s = 2.0 * args.seconds + 60.0

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: planner sources not found: {missing}", file=sys.stderr)
        return 2

    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **PINNED}, stdout=subprocess.PIPE,
            text=True, timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {timeout_s:g} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    section = report["per_layer"] if args.trace else report["metrics"]
    missing = [n for n in names if n not in section]
    if missing:
        print(f"perfbench: worker did not report {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": section[n]["value"], "unit": section[n]["unit"]} for n in names},
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
