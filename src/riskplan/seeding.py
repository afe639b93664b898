"""Feasible-seed construction for the optimizer.

A bidirectional RRT finds a collision-free polyline, greedy shortcutting
straightens it, and equidistant resampling turns it into control points.
The first decision vector comes from those nodes; the rest of the initial
population is the seed under component-wise Gaussian noise (weights stay
untouched at 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import costs as costs_mod
from .environment import Environment
from .errors import PlanningFailureError, ValidationError
from .moo import Bounds, _layout_views, decision_arity, decode
from .nurbs import sample_uniform

MAX_HALVINGS = 3


@dataclass(frozen=True)
class SeedingParams:
    delta_rope: float
    sigma_pos: float
    sigma_speed: float
    rrt_step: float
    rrt_max_iters: int
    rng_seed: int = 0

    def __post_init__(self):
        problems = []
        if self.delta_rope <= 0:
            problems.append("delta_rope: must be > 0")
        if self.sigma_pos < 0:
            problems.append("sigma_pos: must be >= 0")
        if self.sigma_speed < 0:
            problems.append("sigma_speed: must be >= 0")
        if self.rrt_step <= 0:
            problems.append("rrt_step: must be > 0")
        if self.rrt_max_iters < 1:
            problems.append("rrt_max_iters: must be >= 1")
        if problems:
            raise ValidationError(problems)


def _segment_clear(env: Environment, a: np.ndarray, b: np.ndarray, r_uav: float) -> bool:
    """Straight segment a-b (a point when a equals b) stays at least r_uav
    from obstacles, checked at half-voxel spacing; a point outside the
    field fails."""
    length = float(np.linalg.norm(b - a))
    spacing = env.sdf.resolution / 2.0
    n_checks = max(int(np.ceil(length / spacing)) + 1, 2)
    points = np.linspace(a, b, n_checks)
    clearance = env.clearance(points, out_of_range="nan")
    return bool(np.all(np.nan_to_num(clearance, nan=-1.0) >= r_uav))


class _Tree:
    def __init__(self, root: np.ndarray, capacity: int):
        self.points = np.empty((capacity + 1, 3))
        self.parents = np.full(capacity + 1, -1, dtype=int)
        self.points[0] = root
        self.size = 1

    def nearest(self, q: np.ndarray) -> int:
        d = np.linalg.norm(self.points[: self.size] - q, axis=1)
        return int(np.argmin(d))

    def add(self, point: np.ndarray, parent: int) -> int:
        self.points[self.size] = point
        self.parents[self.size] = parent
        self.size += 1
        return self.size - 1

    def path_to_root(self, idx: int) -> list:
        path = []
        while idx != -1:
            path.append(self.points[idx].copy())
            idx = self.parents[idx]
        return path


def _extend(env, tree: _Tree, target: np.ndarray, step: float, r_uav: float):
    near_idx = tree.nearest(target)
    near = tree.points[near_idx]
    delta = target - near
    dist = float(np.linalg.norm(delta))
    if dist < 1e-12:
        return None
    new = target if dist <= step else near + delta * (step / dist)
    # The segment check's last sample is ``new`` itself.
    if not _segment_clear(env, near, new, r_uav):
        return None
    return tree.add(new, near_idx)


def shortcut_polyline(env: Environment, polyline: np.ndarray, r_uav: float) -> np.ndarray:
    """Greedy shortcutting: from each kept node jump to the farthest node
    reachable by a clear straight segment."""
    pts = np.asarray(polyline, dtype=float)
    kept = [0]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not _segment_clear(env, pts[i], pts[j], r_uav):
            j -= 1
        kept.append(j)
        i = j
    return pts[kept]


def resample_polyline(polyline: np.ndarray, delta: float) -> np.ndarray:
    """Nodes every delta meters of arc length along the polyline; the final
    segment may be shorter. Interior spacings are exact."""
    pts = np.asarray(polyline, dtype=float)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])
    total = cumulative[-1]
    if total == 0.0:
        return pts[[0, -1]]
    stations = np.arange(0.0, total, delta)
    if total - stations[-1] < 1e-9:
        stations = stations[:-1]
    out = []
    for s in stations:
        k = int(np.searchsorted(cumulative, s, side="right") - 1)
        k = min(k, len(seg) - 1)
        t = (s - cumulative[k]) / seg[k] if seg[k] > 0 else 0.0
        out.append(pts[k] + t * (pts[k + 1] - pts[k]))
    out.append(pts[-1])
    return np.array(out)


def find_seed_path(
    env: Environment,
    start,
    goal,
    params: SeedingParams,
    r_uav: float,
) -> np.ndarray:
    """Collision-free polyline from start to goal with delta_rope spacing.

    Bidirectional RRT growth, greedy shortcutting, then equidistant
    resampling. Raises ValidationError when an endpoint is in collision and
    PlanningFailureError when the trees never connect.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not _segment_clear(env, start, start, r_uav):
        raise ValidationError(f"start {start.tolist()} is in collision (clearance < {r_uav})")
    if not _segment_clear(env, goal, goal, r_uav):
        raise ValidationError(f"goal {goal.tolist()} is in collision (clearance < {r_uav})")

    rng = np.random.default_rng(params.rng_seed)
    domain = env.domain
    capacity = params.rrt_max_iters + 2
    tree_a = _Tree(start, capacity)
    tree_b = _Tree(goal, capacity)

    if _segment_clear(env, start, goal, r_uav):
        polyline = np.array([start, goal])
    else:
        joined = None
        for _ in range(params.rrt_max_iters):
            sample = domain.min_corner + rng.random(3) * domain.extent
            new_a = _extend(env, tree_a, sample, params.rrt_step, r_uav)
            if new_a is not None:
                target = tree_a.points[new_a]
                near_b = tree_b.nearest(target)
                if np.linalg.norm(tree_b.points[near_b] - target) <= params.rrt_step and _segment_clear(
                    env, tree_b.points[near_b], target, r_uav
                ):
                    joined = (new_a, near_b)
                    break
            tree_a, tree_b = tree_b, tree_a
        if joined is None:
            raise PlanningFailureError(
                f"no path found within {params.rrt_max_iters} iterations"
            )
        path_a = tree_a.path_to_root(joined[0])[::-1]
        path_b = tree_b.path_to_root(joined[1])
        nodes = np.array(path_a + path_b)
        # Trees swap every iteration; orient the polyline start -> goal.
        if np.linalg.norm(nodes[0] - start) > np.linalg.norm(nodes[0] - goal):
            nodes = nodes[::-1]
        polyline = nodes

    polyline = shortcut_polyline(env, polyline, r_uav)
    return resample_polyline(polyline, params.delta_rope)


def polyline_to_decision_vector(polyline: np.ndarray, v_cruise: float, degree: int) -> np.ndarray:
    """Polyline nodes to the flat decision layout.

    Interior nodes become control points at cruise speed with weight 1;
    both endpoint weights are 1. If the polyline is too short for the
    curve degree, the longest segment is subdivided until it fits.
    """
    pts = [np.asarray(p, dtype=float) for p in np.asarray(polyline, dtype=float)]
    if len(pts) < 2:
        raise ValidationError("polyline needs at least start and goal")
    while len(pts) < degree + 1:
        seg = [np.linalg.norm(pts[i + 1] - pts[i]) for i in range(len(pts) - 1)]
        k = int(np.argmax(seg))
        pts.insert(k + 1, (pts[k] + pts[k + 1]) / 2.0)
    decision = np.ones(decision_arity(len(pts) - 2))
    _, rows = _layout_views(decision)
    rows[:, :3] = np.reshape(pts[1:-1], (-1, 3))
    rows[:, 3] = v_cruise
    return decision


def initial_population(
    seed_vec: np.ndarray,
    n_pop: int,
    bounds: Bounds,
    params: SeedingParams,
) -> np.ndarray:
    """Seed plus n_pop-1 Gaussian perturbations, clipped to bounds.

    Positions and speeds are perturbed; control-point weights are left
    alone. Deterministic for a given rng_seed.
    """
    if n_pop < 2:
        raise ValidationError("n_pop: must be >= 2")
    seed_vec = np.asarray(seed_vec, dtype=float)
    rng = np.random.default_rng(params.rng_seed)
    pop = np.tile(seed_vec, (n_pop, 1))
    _, rows = _layout_views(pop[1:])
    _, noise = _layout_views(rng.standard_normal((n_pop - 1, len(seed_vec))))
    rows[..., :3] += params.sigma_pos * noise[..., :3]
    rows[..., 3] += params.sigma_speed * noise[..., 3]
    return bounds.clip(pop)


@dataclass(frozen=True)
class SeedResult:
    decision: np.ndarray
    delta_rope_used: float
    halvings: int


def build_feasible_seed(
    env: Environment,
    start,
    goal,
    v_start: float,
    v_goal: float,
    v_cruise: float,
    degree: int,
    n_samples: int,
    a_max: float,
    r_uav: float,
    params: SeedingParams,
    v_floor: Optional[float] = None,
) -> SeedResult:
    """Seed path whose smoothed curve satisfies both hard constraints.

    NURBS smoothing can pull the curve off the collision-free polyline;
    when that breaks a constraint the node spacing is halved (at most
    MAX_HALVINGS times) and the search repeated. ``v_floor`` is unused; it
    stays so that existing keyword callers keep working.
    """
    delta = params.delta_rope
    for halvings in range(MAX_HALVINGS + 1):
        attempt_params = replace(params, delta_rope=delta)
        polyline = find_seed_path(env, start, goal, attempt_params, r_uav)
        decision = polyline_to_decision_vector(polyline, v_cruise, degree)
        curve = decode(decision, start, goal, v_start, v_goal, degree)
        samples = sample_uniform(curve, n_samples)
        report = costs_mod.check_constraints(samples, env, a_max, r_uav)
        if report.feasible:
            return SeedResult(decision=decision, delta_rope_used=delta, halvings=halvings)
        delta /= 2.0
    raise PlanningFailureError(
        f"seed stayed infeasible after {MAX_HALVINGS} delta_rope halvings"
    )
