"""Deterministic generator for the ``city`` workload's scenario.

A 60 x 40 x 16 m block with about 50 mixed primitives: four boxes form a
wall across the domain with one opening, and buildings (boxes), tanks
(spheres) and poles and cables (capsules) fill both halves. Keep-out hulls
wrap some buildings. Start and goal sit on opposite sides of the wall near
the opening's axis, so the straight line between them passes through the
opening at least 2 m from its edges.

Routes that must bend around an obstacle edge are avoided on purpose: the
seed path then grazes the edge at ``r_uav`` on the voxel-centre distance
field, which reads more than the true distance (ROADMAP item 1), and
``build_feasible_seed`` raised PlanningFailureError in about one plan in
130-500. ``seed_failure_city.json`` keeps one such world, and
``check_oracle.py`` asserts that it still fails.

Guarantees, checked here with exact geometry: the opening is wider than
``2 * r_uav`` plus a voxel diagonal in both directions, no primitive comes
near the start, the goal, the straight route through the opening or the
wall's faces, and capsule radii exceed half a voxel so every primitive
rasterises.
"""

from __future__ import annotations

import numpy as np

from oracle import exact_clearance
from riskplan.environment import BoxObstacle, CapsuleObstacle, SphereObstacle

DOMAIN_MAX = (60.0, 40.0, 16.0)
RESOLUTION = 0.5
WALL_X = (29.5, 30.5)
GAP_SIZE = (7.0, 6.0)  # opening width along y and height along z
N_BUILDINGS = 18
N_SPHERES = 14
N_CAPSULES = 14
N_HULLS = 10
HULL_MARGIN = 0.5
# Free radius around start, goal and the two ends of the opening's axis,
# and around the straight route from start to goal.
KEEP_CLEAR = 4.0
ROUTE_CLEAR = 2.5
HYPERPARAMS = {"n_nurbs": 200, "n_pop": 40, "n_gen": 100}


def _wall(gap_y: float, gap_z: float) -> list[dict]:
    (x0, x1), (w, h) = WALL_X, GAP_SIZE
    ymax, zmax = DOMAIN_MAX[1], DOMAIN_MAX[2]
    return [
        {"type": "box", "min": [x0, 0.0, 0.0], "max": [x1, gap_y, zmax]},
        {"type": "box", "min": [x0, gap_y + w, 0.0], "max": [x1, ymax, zmax]},
        {"type": "box", "min": [x0, gap_y, 0.0], "max": [x1, gap_y + w, gap_z]},
        {"type": "box", "min": [x0, gap_y, gap_z + h], "max": [x1, gap_y + w, zmax]},
    ]


def _primitive(entry: dict):
    if entry["type"] == "box":
        return BoxObstacle(min_corner=entry["min"], max_corner=entry["max"])
    if entry["type"] == "sphere":
        return SphereObstacle(center=entry["center"], radius=entry["radius"])
    return CapsuleObstacle(endpoint_a=entry["a"], endpoint_b=entry["b"], radius=entry["radius"])


def _random_entry(kind: str, rng: np.random.Generator) -> dict:
    lx, ly, lz = DOMAIN_MAX
    if kind == "box":
        size = rng.uniform([2.0, 2.0, 3.0], [6.0, 6.0, 12.0])
        corner = rng.uniform([0.0, 0.0], [lx - size[0], ly - size[1]])
        lo = [corner[0], corner[1], 0.0]
        return {"type": "box", "min": lo, "max": [lo[0] + size[0], lo[1] + size[1], size[2]]}
    if kind == "sphere":
        radius = rng.uniform(1.0, 2.5)
        center = rng.uniform([radius, radius, radius], [lx - radius, ly - radius, lz - radius])
        return {"type": "sphere", "center": center.tolist(), "radius": radius}
    radius = rng.uniform(0.3, 0.6)
    a = rng.uniform([0.0, 0.0, 0.0], [lx, ly, lz])
    b = a + rng.uniform(-8.0, 8.0, 3)
    b = np.clip(b, 0.0, DOMAIN_MAX)
    return {"type": "capsule", "a": a.tolist(), "b": b.tolist(), "radius": radius}


def city_scenario(seed: int) -> tuple[dict, dict]:
    """Scenario dict for ``scenario_from_dict`` (relative to the shipped
    ``scenarios`` directory) plus its generation record."""
    rng = np.random.default_rng(seed)
    lx, ly, lz = DOMAIN_MAX
    gap_w, gap_h = GAP_SIZE
    gap_y = rng.uniform(8.0, ly - 8.0 - gap_w)
    gap_z = rng.uniform(2.0, lz - gap_h - 2.0)
    gap_center = np.array([30.0, gap_y + gap_w / 2.0, gap_z + gap_h / 2.0])
    start = gap_center + [-rng.uniform(22.0, 27.0), rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)]
    goal = gap_center + [rng.uniform(22.0, 27.0), rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)]
    keep_clear = np.array(
        [start, goal, gap_center - [KEEP_CLEAR + 1.0, 0, 0], gap_center + [KEEP_CLEAR + 1.0, 0, 0]]
    )
    route = np.linspace(start, goal, 60)

    entries = _wall(gap_y, gap_z)
    kinds = ["box"] * N_BUILDINGS + ["sphere"] * N_SPHERES + ["capsule"] * N_CAPSULES
    for kind in kinds:
        for _ in range(200):
            entry = _random_entry(kind, rng)
            prim = _primitive(entry)
            if exact_clearance([prim], keep_clear).min() < KEEP_CLEAR:
                continue
            # Keep the route through the opening and the wall's faces free.
            if exact_clearance([prim], route).min() < ROUTE_CLEAR:
                continue
            if exact_clearance([prim], _wall_probe(gap_center)).min() < 2.0:
                continue
            entries.append(entry)
            break

    buildings = [e for e in entries[4:] if e["type"] == "box"]
    hulls = []
    for entry in buildings[:N_HULLS]:
        lo, hi = np.array(entry["min"]), np.array(entry["max"])
        hulls.append(
            {
                "center": ((lo + hi) / 2.0).tolist(),
                "half_extents": ((hi - lo) / 2.0 + HULL_MARGIN).tolist(),
            }
        )

    scenario = {
        "environment": {
            "domain": {"min": [0.0, 0.0, 0.0], "max": list(DOMAIN_MAX)},
            "resolution": RESOLUTION,
            "obstacles": entries,
            "hulls": hulls,
        },
        "mission": {
            "start": start.tolist(),
            "goal": goal.tolist(),
            "v_start": 1.0,
            "v_goal": 1.0,
            "risks": {"wind": 0.0, "communication": 0.0, "localization": 0.0, "battery": 0.0},
        },
        "hyperparams": dict(HYPERPARAMS),
        "power_calibration": "calibration.csv",
        "rng_seed": seed,
    }
    dims = [int(np.ceil(e / RESOLUTION)) for e in DOMAIN_MAX]
    record = {
        "obstacles": len(entries),
        "boxes": sum(e["type"] == "box" for e in entries),
        "spheres": sum(e["type"] == "sphere" for e in entries),
        "capsules": sum(e["type"] == "capsule" for e in entries),
        "hulls": len(hulls),
        "voxels": int(np.prod(dims)),
        "gap_center": gap_center.tolist(),
    }
    return scenario, record


def _wall_probe(gap_center: np.ndarray) -> np.ndarray:
    """Points along the opening's axis, through and in front of the wall."""
    xs = np.linspace(22.0, 38.0, 17)
    return np.column_stack([xs, np.full_like(xs, gap_center[1]), np.full_like(xs, gap_center[2])])
