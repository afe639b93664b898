"""Print the sha256 of the distance fields and result files of a fixed set of runs.

A refactor that must keep every result byte the same is checked by running
this script on two checkouts and comparing the output, in one command:

    python3 tools/golden.py --against /path/to/parent-checkout

runs the script on the parent checkout in a subprocess, then on this one,
prints the lines that differ and exits 1 on any difference (0 when every
line matches, 2 when a run fails).

The optional positional argument is the checkout whose ``src/``,
``scenarios/``, ``perfbench/city.py`` and ``perfbench/seed_failure_city.json``
are used (default: the one holding this script), so the script also runs
against a commit that predates it; it reads only public names, and both
sides of ``--against`` run this copy of the script, so they print the same
labels. BLAS and OpenMP are pinned to one thread before numpy loads.

The set:
- the distance field ``env.sdf.distance`` (its bytes, with its dims) of the
  corridor, the ``perfbench/city.py`` worlds 7, 8 and 9 and the world in
  ``perfbench/seed_failure_city.json``, so a field change shows at its
  source and not only through the plans. These are all at resolution 0.5,
  where every sum of squared axis distances is exact, so the corridor and
  city world 7 fields are also taken at 0.37, where a change in summation
  order shows;
- the bytes of ``nurbs.basis_matrix`` at the plans' shapes: degree 3, the
  control-point counts of the corridor plans (6) and of the city worlds
  (11 and 12), each at 50 and 200 parameters (the corridor's and the city's
  sample counts) and at the 2000 of the benchmark's dense oracle
  (``perfbench/oracle.py``), which no plan result pins;
- ``scenarios/corridor.json`` at rng seeds 7 and 8 (its 1000 generations):
  ``pareto.json``, ``trajectory.csv``, ``generations.csv``; ``samples``:
  the bytes of the plan's emitted sample planes (4, Q) of x, y, z and
  speed, its ``sample_times`` and its ``sample_powers``, at the full
  precision that trajectory.csv rounds to ``.10g``; then each
  ``pareto.json`` read back with ``pipeline.load_front`` and re-voted at
  four fixed risk states (``revote``: one digest of the selected indices
  and the vote weights' floats); and ``members``: every member of the
  plan's front read as an object, ``result.front[m]``, then
  ``moo.evaluate`` of member 0's decision in the plan's context, each as
  its decision's dtype and bytes, its cost and violation values with their
  types, and ``feasible``, which pins the member view a benchmark reads;
- the ``perfbench/city.py`` worlds 7, 8 and 9: the same three files and
  ``samples``. On
  worlds 7 and 8 about 4% of (trajectory, hull) pairs lie inside the hull
  cost's cull box, on world 9 about 20%, so both the skipped and the
  computed branch of ``costs._hull_cost_batch`` are covered;
- the corridor with 100 generations, seeds 7 and 8: ``sweep.csv`` of the
  ``coefficients`` sweep at spacing 0.02 and of the ``wind`` risk sweep at
  step 0.25 (both re-vote on one planned front), and the rows ``sweep``
  returns, as ``json.dumps`` of one dict per row, so the library's return
  value is pinned as well as the file;
- the cost and the violation bytes of ``moo.evaluate_batch`` on a fixed,
  seeded population of 200 rows on the corridor and on city world 9. The
  plans rarely reach the edge branches of scoring, so the population
  holds them on purpose: rows with control points outside the domain (and
  one with a non-finite entry), rows whose interior control points all sit
  on the start (zero-length segments), and weights and speeds at both
  bounds.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

PLAN_FILES = ("pareto.json", "trajectory.csv", "generations.csv")
SEEDS = (7, 8)
CITY_WORLDS = (7, 8, 9)
FINE_RESOLUTION = 0.37  # not dyadic: squared distances round
FINE_FIELDS = ("corridor", "city-7")
SWEEP_N_GEN = 100
# Picked so that the selections differ: members 0, 14, 14, 10 at seed 7
# and 0, 39, 24, 0 at seed 8; most risk states select member 0.
REVOTE_RISKS = ((0, 0, 0, 1), (0, 1, 1, 0), (0.25, 0.75, 1, 0), (0.5, 0.75, 0.5, 0))
BASIS_CTRL = (6, 11, 12)  # corridor seeds 7 and 8: 6; city world 8: 11; worlds 7 and 9: 12
EDGE_ROWS = 200
EDGE_INTERIOR = 5
EDGE_WORLDS = ("corridor", "city-9")
SWEEPS = {
    "coefficients": {"kind": "coefficients", "spacing": 0.02},
    "wind": {"kind": "risk", "axis": "wind", "step": 0.25},
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _members_digest(members) -> str:
    """sha256 over each member object's decision dtype and bytes, its
    costs and violations with their Python types, and ``feasible``."""
    h = hashlib.sha256()
    for member in members:
        c, v = member.costs, member.constraints
        values = (c.time_s, c.safety, c.energy_j, v.max_accel_violation, v.collision_violation)
        h.update(member.decision.dtype.str.encode() + member.decision.tobytes())
        h.update(repr([(type(x).__name__, x) for x in values] + [member.feasible]).encode())
    return h.hexdigest()


def _samples_digest(result) -> str:
    """sha256 of the bytes of a plan's emitted sample planes (4, Q), sample
    times and sample powers."""
    h = hashlib.sha256()
    for arr in (result.samples, result.sample_times, result.sample_powers):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _edge_population(rng, lower, upper, start):
    """``EDGE_ROWS`` decision vectors within ``lower``/``upper``, every
    tenth row given one of the edge cases. The layout is the documented
    one: [w_0, (x, y, z, speed, w) per interior control point, w_n]."""
    pop = rng.uniform(lower, upper, (EDGE_ROWS, len(lower)))
    rows = pop[:, 1:-1].reshape(EDGE_ROWS, -1, 5)  # a view into ``pop``
    extent = upper[1:4] - lower[1:4]
    entry = np.full(len(lower), 4)  # 0-2: x, y, z; 3: speed; 4: weight
    entry[1:-1] = np.arange(len(lower) - 2) % 5
    speed_or_weight = entry >= 3
    for i in range(0, EDGE_ROWS, 10):
        case = (i // 10) % 6
        if case == 0:  # pushed outside the domain, up to half its extent
            rows[i, rng.integers(rows.shape[1]), :3] += rng.choice([-1, 1], 3) * extent * 0.5
        elif case == 1:  # every interior control point on the start
            rows[i, :, :3] = start
        elif case == 2:  # the same, with speeds and weights at their lower bounds
            rows[i, :, :3] = start
            pop[i, speed_or_weight] = lower[speed_or_weight]
        elif case == 3:  # speeds and weights at their upper bounds
            pop[i, speed_or_weight] = upper[speed_or_weight]
        elif case == 4:  # outside a face by less than one voxel
            rows[i, 0, 0] = upper[1] + 0.2
        else:  # a non-finite coordinate
            rows[i, -1, 2] = np.inf
    return pop


def compare(parent: Path, root: Path) -> int:
    """Run this script on ``parent``, then on ``root``, each in a fresh
    interpreter, and print the lines that differ; 0 when none does, 1
    otherwise, 2 when a run fails."""
    outputs = []
    for checkout in (parent, root):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(checkout)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"golden run on {checkout} exited {proc.returncode}", file=sys.stderr)
            return 2
        outputs.append(proc.stdout.splitlines())
    before, after = outputs
    diff = list(difflib.unified_diff(
        before, after, fromfile=str(parent), tofile=str(root), lineterm="", n=0
    ))
    if diff:
        print("\n".join(diff))
        return 1
    print(f"{len(after)} lines identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", default=str(Path(__file__).resolve().parents[1]),
        help="checkout to run (default: this script's repository)",
    )
    parser.add_argument(
        "--against", metavar="PARENT",
        help="also run on checkout PARENT, print the lines that differ, exit 1 on any",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if args.against:
        return compare(Path(args.against).resolve(), root)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import city
    from oracle import DENSE_SAMPLES
    from riskplan.environment import build_environment
    from riskplan.moo import evaluate, evaluate_batch, make_context
    from riskplan.nurbs import basis_matrix, make_clamped_uniform_knots
    from riskplan.pipeline import load_front, plan, sweep
    from riskplan.power import fit_quadric, load_power_samples
    from riskplan.scenario import load_scenario, run_settings, scenario_from_dict
    from riskplan.voting import RiskState, adjust_coefficients, vote

    scenarios = root / "scenarios"
    corridor = load_scenario(scenarios / "corridor.json")
    data = json.loads((scenarios / "corridor.json").read_text())
    data["hyperparams"]["n_gen"] = SWEEP_N_GEN
    short = scenario_from_dict(data, base_dir=scenarios, name="corridor-sweep")
    cities = {
        f"city-{world}": scenario_from_dict(
            city.city_scenario(world)[0], base_dir=scenarios, name="city"
        )
        for world in CITY_WORLDS
    }
    failure = json.loads((root / "perfbench" / "seed_failure_city.json").read_text())

    fields = {
        "corridor": corridor, **cities,
        "seed-failure-city": scenario_from_dict(failure, base_dir=scenarios),
    }
    for label in FINE_FIELDS:
        fields[f"{label}@{FINE_RESOLUTION}"] = replace(fields[label], resolution=FINE_RESOLUTION)
    envs = {}
    for label, scn in fields.items():
        envs[label] = build_environment(
            scn.domain, scn.obstacles, scn.hulls, scn.resolution, scn.max_voxels
        )
        distance = envs[label].sdf.distance
        dims = "x".join(str(n) for n in distance.shape)
        digest = hashlib.sha256(distance.tobytes()).hexdigest()
        print(f"{digest}  field/{label} dims={dims}", flush=True)

    degree = corridor.hyper.degree
    for n_ctrl in BASIS_CTRL:
        knots = make_clamped_uniform_knots(n_ctrl, degree)
        for n_params in (50, 200, DENSE_SAMPLES):
            params = np.linspace(knots[degree], knots[-degree - 1], n_params)
            digest = hashlib.sha256(basis_matrix(knots, degree, params).tobytes()).hexdigest()
            print(f"{digest}  basis/degree={degree} ctrl={n_ctrl} params={n_params}", flush=True)

    for label in EDGE_WORLDS:
        scn, h = fields[label], fields[label].hyper
        ctx = make_context(
            env=envs[label], power=fit_quadric(load_power_samples(scn.power_calibration)),
            safety=run_settings(h, scn.rng_seed)[0], start=scn.start, goal=scn.goal,
            v_start=scn.v_start, v_goal=scn.v_goal, degree=h.degree, n_samples=h.n_nurbs,
            a_max=h.a_max, n_interior=EDGE_INTERIOR, v_floor=h.v_floor,
            weight_bounds=(h.weight_min, h.weight_max),
        )
        rng = np.random.default_rng(EDGE_ROWS)
        pop = _edge_population(rng, ctx.bounds.lower, ctx.bounds.upper, scn.start)
        with np.errstate(all="ignore"):
            costs, violations = evaluate_batch(pop, ctx)
        for name, arr in (("costs", costs), ("violations", violations)):
            digest = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
            print(f"{digest}  evaluate/{label} {name}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        runs = {f"corridor-{seed}": replace(corridor, rng_seed=seed) for seed in SEEDS}
        runs.update(cities)
        for label, scn in runs.items():
            result = plan(scn, out_dir=out / label)
            for name in PLAN_FILES:
                print(f"{_digest(out / label / name)}  {label}/{name}", flush=True)
            print(f"{_samples_digest(result)}  {label}/samples", flush=True)
            if label.startswith("corridor"):
                members = [result.front[m] for m in range(len(result.front))]
                members.append(evaluate(members[0].decision, result.context))
                print(f"{_members_digest(members)}  {label}/members", flush=True)
                front, _ = load_front(out / label / "pareto.json")
                votes = []
                for risks in REVOTE_RISKS:
                    w = adjust_coefficients(RiskState(*risks))
                    votes.append([vote(front, w), w.k_time, w.k_safety, w.k_energy, w.gamma])
                digest = hashlib.sha256(json.dumps(votes).encode()).hexdigest()
                print(f"{digest}  {label}/revote", flush=True)
        for label, spec in SWEEPS.items():
            for seed in SEEDS:
                run = f"sweep-{label}-{seed}"
                rows = sweep(replace(short, rng_seed=seed), spec, out_dir=out / run)
                print(f"{_digest(out / run / 'sweep.csv')}  {run}/sweep.csv", flush=True)
                digest = hashlib.sha256(json.dumps([dict(r) for r in rows]).encode()).hexdigest()
                print(f"{digest}  {run}/rows", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
