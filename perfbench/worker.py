"""Runs one benchmark workload in this process and prints its result.

``run.py`` starts one such process per benchmark run, with BLAS and OpenMP
pinned to one thread, so peak memory and heap state belong to one workload.
The last line of standard output is a JSON object with the end-to-end
metrics (each with unit and sample count), the output-check tally, the
per-layer metrics when traced, and a record of the run's parameters.

Load is a closed loop: one client in one thread issues the workload's call
back to back, at least ``MIN_CALLS`` times and for as long as the next call
is expected to end within ``--seconds``. Every check runs outside the timed
region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
RUN_DIR = ROOT / ".perfbench_run"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import riskplan.pipeline as pipeline_mod  # noqa: E402
import riskplan.scenario as scenario_mod  # noqa: E402
from riskplan.environment import SafetyParams  # noqa: E402
from riskplan.moo import evaluate, interior_count, make_context  # noqa: E402
from riskplan.power import fit_quadric, load_power_samples  # noqa: E402
from riskplan.seeding import SeedingParams, build_feasible_seed  # noqa: E402
from riskplan.voting import VoteWeights, vote  # noqa: E402

import city  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

MIN_CALLS = 2
COST_RTOL = 1e-9
STABLE_FILES = ("pareto.json", "trajectory.csv", "generations.csv")
# 0.02 gives 1326 grid points, about 2 s a sweep here, so a run holds ten or
# more sweeps. At 0.01 (5151 points, 6-10 s a sweep) a run held three or
# four, and single slow sweeps moved their median.
SWEEP_SPACING = 0.02
SWEEP_N_GEN = 100


# --- workloads ----------------------------------------------------------------


class Workload:
    """One workload: how to set up its world and what one call is.

    Calls go through module attributes (``pipeline_mod.plan``) so that the
    traced run sees the rebound names.
    """

    name = ""
    setup_reps = 1
    params: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def load(self):
        raise NotImplementedError

    def setup(self):
        scn = self.load()
        env = pipeline_mod.build_scenario_environment(scn)
        power = fit_quadric(load_power_samples(scn.power_calibration))
        return scn, env, power

    def call(self, scn, env, power, out_dir: Path):
        return pipeline_mod.plan(scn, out_dir=out_dir, env=env, power_model=power)


class Corridor(Workload):
    """Shipped scenario and hyperparameters; consecutive rng_seeds."""

    name = "corridor"
    setup_reps = 20

    def load(self):
        return scenario_mod.load_scenario(SCENARIOS / "corridor.json")


class City(Workload):
    """Generated 60 x 40 x 16 m world with a gapped wall (see city.py)."""

    name = "city"
    setup_reps = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data, record = city.city_scenario(seed)
        self.params = {"world": record, "hyperparams": city.HYPERPARAMS}

    def load(self):
        return scenario_mod.scenario_from_dict(self.data, base_dir=SCENARIOS, name="city")


class Sweep(Workload):
    """Fine vote-coefficient sweep over a short corridor base plan."""

    name = "sweep"
    setup_reps = 20
    spec = {"kind": "coefficients", "spacing": SWEEP_SPACING}
    params = {**spec, "n_gen": SWEEP_N_GEN}

    def load(self):
        data = json.loads((SCENARIOS / "corridor.json").read_text())
        data["hyperparams"]["n_gen"] = SWEEP_N_GEN
        return scenario_mod.scenario_from_dict(data, base_dir=SCENARIOS, name="corridor-sweep")

    def call(self, scn, env, power, out_dir: Path):
        return pipeline_mod.sweep(scn, self.spec, out_dir=out_dir)


WORKLOADS = {cls.name: cls for cls in (Corridor, City, Sweep)}


# --- output checks ------------------------------------------------------------


def _parse_csv(path: Path, n_rows: int) -> list[str]:
    lines = path.read_text().splitlines()
    problems = []
    if len(lines) != n_rows + 1:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        if not np.all(np.isfinite(cells)):
            problems.append(f"{path.name}: non-finite value in {line!r}")
            break
    return problems


def _reevaluate(pareto: dict, scn, env, power) -> list[str]:
    """Emitted costs must reproduce through public ``moo.evaluate`` in a
    context rebuilt from the emitted context block."""
    h, c = scn.hyper, pareto["context"]
    safety = SafetyParams(
        r_sdf_min=h.r_sdf_min, r_sdf_max=h.r_sdf_max, r_ch_max=h.r_ch_max,
        k_a=h.k_a, k_b=h.k_b, r_uav=h.r_uav,
    )
    contexts = {}
    problems = []
    for i, member in enumerate(pareto["front"]):
        decision = np.asarray(member["decision"], dtype=float)
        if len(decision) not in contexts:
            contexts[len(decision)] = make_context(
                env=env, power=power, safety=safety, start=c["start"], goal=c["goal"],
                v_start=c["v_start"], v_goal=c["v_goal"], degree=c["degree"],
                n_samples=c["n_nurbs"], a_max=h.a_max,
                n_interior=interior_count(len(decision)), v_floor=h.v_floor,
                weight_bounds=(h.weight_min, h.weight_max),
            )
        again = evaluate(decision, contexts[len(decision)])
        emitted = [member["costs"][k] for k in ("time_s", "safety", "energy_j")]
        if not np.allclose(again.costs.as_array(), emitted, rtol=COST_RTOL, atol=0.0):
            problems.append(f"member {i}: costs {emitted} re-evaluate to {again.costs}")
        if not (member["constraints"]["feasible"] and again.feasible):
            problems.append(f"member {i}: emitted as infeasible or re-evaluates infeasible")
    return problems


def check_plan_outputs(out_dir: Path, scn, env, power) -> list[str]:
    """Result files exist and parse, the selection is in range, and costs
    reproduce."""
    missing = [n for n in STABLE_FILES + ("metadata.json",) if not (out_dir / n).is_file()]
    if missing:
        return [f"missing result files {missing}"]
    try:
        pareto = json.loads((out_dir / "pareto.json").read_text())
        json.loads((out_dir / "metadata.json").read_text())
        problems = _parse_csv(out_dir / "trajectory.csv", scn.hyper.n_nurbs)
        problems += _parse_csv(out_dir / "generations.csv", scn.hyper.n_gen)
    except ValueError as exc:
        return [f"result file does not parse: {exc}"]
    if not 0 <= pareto["selected_index"] < len(pareto["front"]):
        problems.append(f"selected_index {pareto['selected_index']} out of range")
    return problems + _reevaluate(pareto, scn, env, power)


def check_sweep_outputs(rows: list, out_dir: Path, front: list) -> list[str]:
    """Every grid point reports the member ``vote`` picks on the base front."""
    m = round(1.0 / SWEEP_SPACING)
    expected = (m + 1) * (m + 2) // 2
    problems = []
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    if len(rows) != expected or len(lines) != expected + 1:
        problems.append(f"sweep: {len(rows)} rows, {len(lines) - 1} csv lines, expected {expected}")
    for row in rows:
        k = (row["k_time"], row["k_safety"], row["k_energy"])
        weights = VoteWeights(*k, *k, gamma=1.0)
        index = vote(front, weights)
        if row["selected_index"] != index or row["time_s"] != front[index].costs.time_s:
            problems.append(f"sweep row {k}: selected {row['selected_index']}, vote gives {index}")
            break
    return problems


def same_files(dir_a: Path, dir_b: Path, names) -> list[str]:
    return [
        f"{n} differs between two runs of the same seed"
        for n in names
        if (dir_a / n).read_bytes() != (dir_b / n).read_bytes()
    ]


# --- front quality --------------------------------------------------------------


def seed_costs(scn, env, ctx) -> np.ndarray:
    """Costs of the plan's seed trajectory, rebuilt as ``plan`` builds it."""
    h = scn.hyper
    params = SeedingParams(
        delta_rope=h.delta_rope, sigma_pos=h.sigma_pos, sigma_speed=h.resolved_sigma_speed(),
        rrt_step=h.rrt_step, rrt_max_iters=h.rrt_max_iters, rng_seed=scn.rng_seed,
    )
    seed = build_feasible_seed(
        env, scn.start, scn.goal, scn.v_start, scn.v_goal, h.resolved_v_cruise(),
        h.degree, h.n_nurbs, h.a_max, h.r_uav, params, v_floor=h.v_floor,
    )
    return evaluate(seed.decision, ctx).costs.as_array()


def front_quality(result, scn, env, checker: oracle.DenseChecker) -> dict:
    ref = oracle.reference_point(seed_costs(scn, env, result.context))
    costs = np.array([m.costs.as_array() for m in result.front])
    reports = [checker.member_report(m.decision) for m in result.front]
    return {
        "rng_seed": scn.rng_seed,
        "reference_point": ref.tolist(),
        "hv": oracle.normalized_hypervolume(costs, ref),
        "members": len(reports),
        "violating": sum(r["violates"] for r in reports),
        "selected_index": result.selected_index,
        "selected_min_clearance_m": reports[result.selected_index]["min_clearance_m"],
        "max_accel_mps2": max(r["max_accel_mps2"] for r in reports),
    }


# --- run ------------------------------------------------------------------------


class Run:
    """The calls of one process, each kept with its outputs and problems."""

    def __init__(self, workload: Workload, work_dir: Path):
        self.wl = workload
        self.work_dir = work_dir
        self.tracer = None
        self.calls = []  # [tag, scenario, seconds, result or None, out_dir, problems]

    def setup(self):
        times = []
        for _ in range(self.wl.setup_reps):
            gc.collect()
            t0 = perf_counter()
            scn, env, power = self.wl.setup()
            times.append(perf_counter() - t0)
        return (scn, env, power), times

    def call(self, world, tag: str, seed: int) -> float:
        scn, env, power = world
        scn_i = replace(scn, rng_seed=seed)
        out_dir = self.work_dir / f"{tag}-{seed}"
        if self.tracer is not None:
            self.tracer.call_id = len(self.calls)
            self.tracer.active = tag == "traced"
        gc.collect()
        t0 = perf_counter()
        try:
            result, problems = self.wl.call(scn_i, env, power, out_dir), []
        except Exception as exc:  # a failed call is counted, not fatal
            result, problems = None, [f"{tag} seed {seed}: {type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.active = False
        self.calls.append([tag, scn_i, elapsed, result, out_dir, problems])
        return elapsed

    def loop(self, world, seconds: float, traced: bool) -> None:
        """Back-to-back calls on consecutive seeds from the workload seed, at
        least ``MIN_CALLS`` and while the next is expected to end within
        ``seconds``. Traced, each seed runs untraced and then traced, so the
        pair shares the machine's state and their ratio is the overhead."""
        tags = ("timed", "traced") if traced else ("timed",)
        steps = []
        t0 = perf_counter()
        while len(steps) < MIN_CALLS or perf_counter() - t0 + statistics.median(steps) <= seconds:
            start = perf_counter()
            for tag in tags:
                self.call(world, tag, self.wl.seed + len(steps))
            steps.append(perf_counter() - start)

    def successful_times(self, tag: str) -> list[float]:
        return [c[2] for c in self.calls if c[0] == tag and c[3] is not None]


def evaluate_calls(run: Run, world) -> list[dict]:
    """Output checks for every call, front quality once per seed.

    The first call of a seed is checked in full; every later call of the
    same seed must write byte-identical result files.
    """
    _, env, power = world
    checker = None
    qualities = []
    first_of_seed = {}
    names = ("sweep.csv",) if run.wl.name == "sweep" else STABLE_FILES
    for tag, scn, _, result, out_dir, problems in run.calls:
        if result is None:
            continue
        if scn.rng_seed in first_of_seed:
            problems += same_files(first_of_seed[scn.rng_seed], out_dir, names)
            continue
        first_of_seed[scn.rng_seed] = out_dir
        checker = checker or oracle.DenseChecker(scn)
        try:
            if run.wl.name == "sweep":
                # sweep() plans this base front internally and votes on it.
                base_dir = out_dir.with_name(out_dir.name + "-base")
                base = pipeline_mod.plan(scn, out_dir=base_dir, env=env, power_model=power)
                problems += check_plan_outputs(base_dir, scn, env, power)
                problems += check_sweep_outputs(result, out_dir, base.front)
                result = base
            else:
                problems += check_plan_outputs(out_dir, scn, env, power)
            qualities.append(front_quality(result, scn, env, checker))
        except Exception as exc:  # a check that cannot run is a failed check
            problems.append(f"{tag} seed {scn.rng_seed}: check raised {type(exc).__name__}: {exc}")
    return qualities


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _median(values: list) -> float:
    """Median, or 0.0 when every call failed (the run is then incorrect)."""
    return statistics.median(values) if values else 0.0


def _with_units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u, "samples": n} for k, (u, v, n) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    work_dir = RUN_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(wl, work_dir)
    per_layer = None
    try:
        if args.trace:
            # Wrappers stay installed but inactive outside traced set-ups
            # and calls; an inactive wrapper costs one attribute test.
            run.tracer = tracing.Tracer()
            tracing.install(run.tracer)
            run.tracer.active = True
        world, setup_times = run.setup()
        run.call(world, "warmup", wl.seed)
        run.loop(world, args.seconds, traced=bool(args.trace))
        if args.trace:
            run.tracer.dump(RUN_DIR / f"trace-{wl.name}-{args.seed}.json")
        qualities = evaluate_calls(run, world)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    call_times = run.successful_times("timed")
    problems = [p for c in run.calls for p in c[5]]
    attempted = len(run.calls)
    failed = sum(1 for c in run.calls if c[5])
    hv = [q["hv"] for q in qualities]
    members = sum(q["members"] for q in qualities)
    violation_share = sum(q["violating"] for q in qualities) / max(members, 1)
    metrics = {
        "setup_s": ("s", statistics.median(setup_times), len(setup_times)),
        "call_s": ("s", _median(call_times), len(call_times)),
        "front_hv": ("1", statistics.fmean(hv) if hv else 0.0, len(hv)),
        "dense_violation_share": ("1", violation_share, members),
        "ok_share": ("1", 1.0 - failed / attempted, attempted),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    if args.trace:
        traced_times = run.successful_times("traced")
        n = len(traced_times)
        per_layer = {k: (u, v, n) for k, (u, v) in tracing.layer_metrics(run.tracer, n).items()}
        overhead = _median(traced_times) / _median(call_times) - 1.0
        per_layer["trace.overhead_share"] = ("1", overhead, n)
    out = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0 and oracle.hull_disagreement(np.random.default_rng(args.seed)) <= 1e-12,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": _with_units(metrics),
        "per_layer": per_layer and _with_units(per_layer),
        "dense_check": {
            "samples_per_curve": oracle.DENSE_SAMPLES,
            "accel_tolerance_mps2": oracle.ACCEL_TOL,
        },
        "call_times_s": {tag: run.successful_times(tag) for tag in ("warmup", "timed", "traced")},
        "setup_times_s": setup_times,
        "fronts": qualities,
        "record": {
            "workload_params": wl.params,
            "seconds": args.seconds,
            "setup_reps": wl.setup_reps,
            **source_record(),
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
