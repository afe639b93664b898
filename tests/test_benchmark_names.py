"""The benchmark harness in ``perfbench/`` calls and rebinds planner names
(``pipeline.build_environment``, ``costs.check_constraints``,
``moo.nsga2_minimize``, ``make_context`` keywords, ``decode(...).weights``
and more). This test runs the harness's own code against the current
``src/`` in a fresh process, so renaming or deleting one of those names
fails here instead of in a benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A short plan and a short sweep go through the worker's traced call path and
# its output checks (cost re-evaluation, seed costs, dense check, sweep
# votes); every problem the checks report is printed and fails the run.
SCRIPT = """
import sys
from dataclasses import replace
sys.path.insert(0, sys.argv[1])
import worker, tracing

worker.SWEEP_N_GEN = 5
worker.SWEEP_SPACING = 0.5

class ShortCorridor(worker.Corridor):
    def load(self):
        scn = super().load()
        return replace(scn, hyper=replace(scn.hyper, n_gen=5))

class ShortSweep(worker.Sweep):
    spec = {"kind": "coefficients", "spacing": worker.SWEEP_SPACING}

problems = []
for workload in (ShortCorridor(7), ShortSweep(7)):
    run = worker.Run(workload, worker.Path(sys.argv[2]) / workload.name)
    run.tracer = tracing.Tracer()
    tracing.install(run.tracer)
    run.tracer.active = True
    world, _ = run.setup()
    run.call(world, "traced", 7)
    run.call(world, "timed", 7)
    qualities = worker.evaluate_calls(run, world)
    tracing.layer_metrics(run.tracer, 1)
    problems += [p for call in run.calls for p in call[5]]
    if len(qualities) != 1:
        problems.append(f"{workload.name}: {len(qualities)} front checks, expected 1")
print("\\n".join(problems))
sys.exit(1 if problems else 0)
"""


def test_benchmark_worker_and_tracer_run_against_src(tmp_path):
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
