"""Self-test of the benchmark's reference code (``oracle.py``).

    python3 perfbench/check_oracle.py

Checks, against the planner's own geometry and against brute force:

* box distance equals ``OrientedHull.signed_distance`` on unrotated hulls;
* box, sphere and capsule distances are <= 0 exactly where the planner's
  primitive ``contains`` says a point is inside;
* ``hypervolume_3d`` equals a cell count on an integer lattice;
* on the shipped corridor at its shipped seed 7, the dense check sees the
  defect ROADMAP item 1 describes: members of the emitted front leave the
  acceleration limit or come closer than ``r_uav`` to the pylon, and the
  selected member 0 passes through it;
* on ``seed_failure_city.json``, a ``city.py`` world (seed 417) whose start
  and goal were moved 6-8 m to the same side of the wall's opening, so the
  route bends round its edge, ``plan`` raises PlanningFailureError:
  the RRT polyline touches the opening's edge by exact distance while the
  voxel distance field reads about ``r_uav``, and halving ``delta_rope``
  never makes the smoothed seed clear.

The last two are planner defects (ROADMAP item 1). Once one is fixed its
expectation no longer holds and should be dropped.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from riskplan.environment import BoxObstacle, CapsuleObstacle, SphereObstacle  # noqa: E402
from riskplan.errors import PlanningFailureError  # noqa: E402
from riskplan.pipeline import plan  # noqa: E402
from riskplan.scenario import load_scenario, scenario_from_dict  # noqa: E402

import oracle  # noqa: E402


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        sys.exit(1)


def check_box_against_hull(rng) -> None:
    worst = oracle.hull_disagreement(rng, n_hulls=50, n_points=2000)
    check(worst <= 1e-12, f"box distance matches OrientedHull.signed_distance (max diff {worst:.1e})")


def check_inside_agrees(rng) -> None:
    pts = rng.uniform(-4.0, 4.0, (20000, 3))
    primitives = [
        BoxObstacle(min_corner=[-1.0, -2.0, -0.5], max_corner=[1.5, 0.5, 2.0]),
        SphereObstacle(center=[0.5, -0.5, 1.0], radius=1.7),
        CapsuleObstacle(endpoint_a=[-2.0, 1.0, 0.0], endpoint_b=[2.0, -1.0, 1.5], radius=0.6),
        CapsuleObstacle(endpoint_a=[1.0, 1.0, 1.0], endpoint_b=[1.0, 1.0, 1.0], radius=0.8),
    ]
    for prim in primitives:
        inside = oracle.primitive_signed_distance(prim, pts) <= 0.0
        agree = np.array_equal(inside, prim.contains(pts))
        check(agree, f"{type(prim).__name__}: distance <= 0 exactly where contains() holds")


def check_hypervolume(rng) -> None:
    ref = np.array([6.0, 6.0, 6.0])
    cells = np.array(list(itertools.product(range(6), repeat=3)), dtype=float)
    for _ in range(30):
        pts = rng.integers(0, 7, (int(rng.integers(1, 12)), 3)).astype(float)
        dominated = np.any(np.all(cells[:, None, :] >= pts[None, :, :], axis=2), axis=1)
        expected = float(np.sum(dominated & np.all(cells < ref, axis=1)))
        got = oracle.hypervolume_3d(pts, ref)
        if got != expected:
            check(False, f"hypervolume {got} != lattice count {expected} for {pts.tolist()}")
    check(True, "hypervolume_3d equals the lattice cell count on 30 random sets")


def check_item1_defect() -> None:
    scn = load_scenario(ROOT / "scenarios" / "corridor.json")
    result = plan(scn)
    checker = oracle.DenseChecker(scn)
    reports = [checker.member_report(m.decision) for m in result.front]
    violating = sum(r["violates"] for r in reports)
    near = sum(r["min_clearance_m"] < scn.hyper.r_uav for r in reports)
    fast = sum(r["max_accel_mps2"] > scn.hyper.a_max + oracle.ACCEL_TOL for r in reports)
    selected = reports[result.selected_index]
    print(
        f"      corridor seed {scn.rng_seed}: {violating} of {len(reports)} members violate "
        f"({near} closer than r_uav, {fast} over a_max); selected member "
        f"{result.selected_index} min clearance {selected['min_clearance_m']:.3f} m, "
        f"max |a_t| {max(r['max_accel_mps2'] for r in reports):.2f} m/s^2"
    )
    check(violating > 0, "dense check reproduces ROADMAP item 1 on corridor seed 7")
    check(selected["min_clearance_m"] <= 0.0, "selected member passes through the pylon")


def check_seed_failure() -> None:
    data = json.loads((Path(__file__).resolve().parent / "seed_failure_city.json").read_text())
    scn = scenario_from_dict(data, base_dir=ROOT / "scenarios", name="seed-failure")
    try:
        plan(scn)
        raised = "nothing"
    except PlanningFailureError as exc:
        raised = f"PlanningFailureError: {exc}"
    print(f"      seed_failure_city.json, rng_seed {scn.rng_seed}: plan raised {raised}")
    check(raised != "nothing", "plan cannot seed the bent city route (ROADMAP item 1)")


def main() -> int:
    rng = np.random.default_rng(0)
    check_box_against_hull(rng)
    check_inside_agrees(rng)
    check_hypervolume(rng)
    check_item1_defect()
    check_seed_failure()
    return 0


if __name__ == "__main__":
    sys.exit(main())
