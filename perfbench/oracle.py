"""Reference geometry and front quality for emitted plans.

Everything here is benchmark-side: it reads planner outputs through the
public API and never feeds anything back into the planner.

* Exact signed distance to box, sphere and capsule primitives (closed form),
  so clearance is measured against the real surfaces rather than the voxel
  distance field the planner optimises against.
* A dense re-check of a decision vector: the curve is resampled at
  ``DENSE_SAMPLES`` parameters through one ``nurbs.basis_matrix`` per arity.
* Exact 3-objective hypervolume by slicing (While et al. 2006).
"""

from __future__ import annotations

import numpy as np

from riskplan.environment import BoxObstacle, CapsuleObstacle, OrientedHull, SphereObstacle
from riskplan.moo import decode
from riskplan.nurbs import basis_matrix, make_clamped_uniform_knots

DENSE_SAMPLES = 2000
# Allowance for the finite-difference error of v dv/ds over DENSE_SAMPLES
# samples.
ACCEL_TOL = 1e-3
# Reference point = seed-trajectory costs scaled by this factor.
REF_SCALE = 1.1
_MIN_SEGMENT = 1e-6


def box_signed_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Signed distance to an axis-aligned box (negative inside)."""
    d = np.maximum(lo - points, points - hi)
    outside = np.linalg.norm(np.maximum(d, 0.0), axis=-1)
    inside = np.minimum(d.max(axis=-1), 0.0)
    return outside + inside


def sphere_signed_distance(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    return np.linalg.norm(points - center, axis=-1) - radius


def capsule_signed_distance(
    points: np.ndarray, a: np.ndarray, b: np.ndarray, radius: float
) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    t = np.zeros(points.shape[:-1]) if denom == 0.0 else np.clip((points - a) @ ab / denom, 0.0, 1.0)
    closest = a + t[..., None] * ab
    return np.linalg.norm(points - closest, axis=-1) - radius


def primitive_signed_distance(obstacle, points: np.ndarray) -> np.ndarray:
    if isinstance(obstacle, BoxObstacle):
        return box_signed_distance(points, obstacle.min_corner, obstacle.max_corner)
    if isinstance(obstacle, SphereObstacle):
        return sphere_signed_distance(points, obstacle.center, obstacle.radius)
    if isinstance(obstacle, CapsuleObstacle):
        return capsule_signed_distance(
            points, obstacle.endpoint_a, obstacle.endpoint_b, obstacle.radius
        )
    raise TypeError(f"no exact distance for {type(obstacle).__name__}")


def hull_disagreement(rng: np.random.Generator, n_hulls: int = 5, n_points: int = 500) -> float:
    """Largest difference between ``box_signed_distance`` and
    ``OrientedHull.signed_distance`` on random unrotated hulls."""
    worst = 0.0
    for _ in range(n_hulls):
        center = rng.uniform(-5.0, 5.0, 3)
        half = rng.uniform(0.1, 3.0, 3)
        hull = OrientedHull(center=center, half_extents=half, rotation=np.eye(3))
        pts = rng.uniform(-10.0, 10.0, (n_points, 3))
        exact = box_signed_distance(pts, center - half, center + half)
        worst = max(worst, float(np.abs(exact - hull.signed_distance(pts)).max()))
    return worst


def exact_clearance(obstacles, points: np.ndarray) -> np.ndarray:
    """Minimum signed distance over all primitives (inf with none)."""
    points = np.asarray(points, dtype=float)
    out = np.full(points.shape[:-1], np.inf)
    for obstacle in obstacles:
        np.minimum(out, primitive_signed_distance(obstacle, points), out=out)
    return out


class DenseChecker:
    """Re-checks decision vectors on the continuous curve.

    Holds one dense basis matrix per decision arity, built on first use.
    """

    def __init__(self, scn):
        self.scn = scn
        self._basis = {}

    def _basis_for(self, n_ctrl: int) -> np.ndarray:
        if n_ctrl not in self._basis:
            degree = self.scn.hyper.degree
            knots = make_clamped_uniform_knots(n_ctrl, degree)
            params = np.linspace(knots[degree], knots[-degree - 1], DENSE_SAMPLES)
            self._basis[n_ctrl] = basis_matrix(knots, degree, params)
        return self._basis[n_ctrl]

    def dense_points(self, decision: np.ndarray) -> np.ndarray:
        """(n_samples, 4) points (x, y, z, speed) on the rational curve."""
        s = self.scn
        curve = decode(decision, s.start, s.goal, s.v_start, s.v_goal, s.hyper.degree)
        basis = self._basis_for(len(curve.weights))
        weighted = basis * curve.weights
        return (weighted @ curve.control_points) / weighted.sum(axis=1)[:, None]

    def member_report(self, decision: np.ndarray) -> dict:
        pts = self.dense_points(decision)
        positions, speeds = pts[:, :3], pts[:, 3]
        seg = np.maximum(np.linalg.norm(np.diff(positions, axis=0), axis=1), _MIN_SEGMENT)
        accel = np.abs(speeds[1:] ** 2 - speeds[:-1] ** 2) / (2.0 * seg)
        clearance = float(exact_clearance(self.scn.obstacles, positions).min())
        max_accel = float(accel.max())
        h = self.scn.hyper
        return {
            "min_clearance_m": clearance,
            "max_accel_mps2": max_accel,
            "violates": clearance < h.r_uav or max_accel > h.a_max + ACCEL_TOL,
        }


def _hypervolume_2d(points: np.ndarray, ref: np.ndarray) -> float:
    order = np.lexsort((points[:, 1], points[:, 0]))
    area = 0.0
    level = ref[1]
    for y, z in points[order]:
        if z < level:
            area += (ref[0] - y) * (level - z)
            level = z
    return area


def hypervolume_3d(points, ref) -> float:
    """Exact volume dominated by ``points`` and bounded by ``ref``
    (minimisation), by slicing along the first objective."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    ref = np.asarray(ref, dtype=float)
    pts = pts[np.all(pts < ref, axis=1)]
    if len(pts) == 0:
        return 0.0
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    volume = 0.0
    for i in range(len(pts)):
        upper = pts[i + 1, 0] if i + 1 < len(pts) else ref[0]
        if upper > pts[i, 0]:
            volume += (upper - pts[i, 0]) * _hypervolume_2d(pts[: i + 1, 1:], ref[1:])
    return volume


def reference_point(seed_costs) -> np.ndarray:
    """Fixed per plan from its seed trajectory; kept strictly positive."""
    return np.maximum(REF_SCALE * np.asarray(seed_costs, dtype=float), 1e-9)


def normalized_hypervolume(front_costs, ref) -> float:
    """Hypervolume as a share of the box [0, ref] (all costs are >= 0)."""
    return hypervolume_3d(front_costs, ref) / float(np.prod(ref))
