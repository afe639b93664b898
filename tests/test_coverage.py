"""The single-objective protocol of ``tools/coverage.py``.

The tool reuses ``pipeline._prepare_run``, ``pipeline._member_metrics`` and
``moo.nsga2_minimize``; the subprocess smoke test runs it end to end against
the current ``src/``, so renaming a name it uses fails here.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_corridor_scenario
from riskplan.errors import ValidationError

TOOL = Path(__file__).resolve().parents[1] / "tools" / "coverage.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("coverage_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark(tool, scn, objective, n_runs, n_gen, base_seed):
    return tool.benchmark(scn, objective, n_runs, n_gen, base_seed, *tool.world_models(scn))


class TestBenchmark:
    def test_single_objective_benchmark_runs(self, tool, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=100)
        metrics = benchmark(tool, scn, "time", n_runs=3, n_gen=150, base_seed=50)
        assert metrics["objective"] == "time"
        assert metrics["best_value"] == pytest.approx(metrics["time_s"])
        assert metrics["best_value"] > 0

    def test_unknown_objective(self, tool, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=50)
        with pytest.raises(ValidationError):
            benchmark(tool, scn, "smoothness", n_runs=1, n_gen=10, base_seed=10_000)


class TestTimeOnlyConvergence:
    def test_time_only_matches_benchmark_protocol(self, tool, tmp_path):
        # Restricting the sort to the time objective must land within 10%
        # of a multi-run single-objective benchmark on the corridor world.
        scn = make_corridor_scenario(tmp_path, n_gen=300)
        bench = benchmark(tool, scn, "time", n_runs=8, n_gen=400, base_seed=500)
        single = benchmark(tool, scn, "time", n_runs=1, n_gen=300, base_seed=900)
        assert single["best_value"] <= bench["best_value"] * 1.10


def test_tool_runs_against_src(tmp_path):
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "1", "--n-gen", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for world in ("corridor", "city-7"):
        assert f"world {world}: 1 runs x 5 generations" in proc.stdout
    for head in ("benchmark", "payoff", "front"):
        assert proc.stdout.count(f"\n{head} ") == 2, proc.stdout
