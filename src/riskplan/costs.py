"""The three trajectory objectives (time, safety, energy) and the two hard
constraints (tangential acceleration, collision clearance).

All public operations take one sampled trajectory. Internally they share
batched kernels with a leading population axis so the optimizer can
evaluate whole generations without duplicating any formula.

Kernels over sample points follow the per-axis rule of ``environment``: they
read (..., 3) positions as three columns and write sums of squares as
``x*x + y*y + z*z``, bit-identical to ``np.linalg.norm`` over the last axis
but without its 3-element inner loop per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Environment, OrientedHull, SafetyParams
from .nurbs import TrajectorySamples
from .power import PowerQuadricModel, power_for_directions

DEFAULT_V_FLOOR = 0.1
_MIN_SEGMENT = 1e-6


@dataclass(frozen=True)
class CostVector:
    time_s: float
    safety: float
    energy_j: float

    def as_array(self) -> np.ndarray:
        return np.array([self.time_s, self.safety, self.energy_j])


@dataclass(frozen=True)
class ConstraintReport:
    max_accel_violation: float
    collision_violation: float

    @property
    def feasible(self) -> bool:
        return self.max_accel_violation == 0.0 and self.collision_violation == 0.0

    @property
    def total_violation(self) -> float:
        return self.max_accel_violation + self.collision_violation


def _time_batch(segment_lengths: np.ndarray, speeds: np.ndarray, v_floor: float) -> np.ndarray:
    """Per-trajectory traversal time; each segment is flown at the speed of
    its end sample, floored at v_floor."""
    v = np.maximum(speeds[:, 1:], v_floor)
    return (segment_lengths / v).sum(axis=1)


def time_cost(samples: TrajectorySamples, v_floor: float = DEFAULT_V_FLOOR) -> float:
    return float(_time_batch(samples.segment_lengths[None, :], samples.speeds[None, :], v_floor)[0])


def sdf_point_cost(d_obs, params: SafetyParams, strict_paper_sdf_branch: bool = False):
    """Obstacle-proximity cost in [0, 1] from a clearance value.

    Saturated at 1 inside r_sdf_min, 0 beyond r_sdf_max, and a hyperbolic
    falloff in between. The default middle branch is shifted so the cost is
    continuous at both radii; ``strict_paper_sdf_branch`` restores the
    unshifted form lambda/d - 1 for comparison.
    """
    d = np.asarray(d_obs, dtype=float)
    r_min, r_max = params.r_sdf_min, params.r_sdf_max
    lam = r_min * r_max / (r_max - r_min)
    safe_d = np.maximum(d, r_min)
    if strict_paper_sdf_branch:
        middle = lam / safe_d - 1.0
    else:
        middle = lam * (1.0 / safe_d - 1.0 / r_max)
    out = np.where(d <= r_min, 1.0, np.where(d >= r_max, 0.0, middle))
    return float(out) if np.isscalar(d_obs) else out


def _hull_cost_batch(points: np.ndarray, hulls, r_ch_max: float) -> np.ndarray:
    """Summed keep-out cost over all hulls at points of shape (..., 3)."""
    total = np.zeros(points.shape[:-1])
    for hull in hulls:
        d = hull.signed_distance(points)
        cost = np.where(d <= 0, 1.0, np.where(d >= r_ch_max, 0.0, 1.0 - d / r_ch_max))
        total += cost
    return total


def hull_point_cost(point, hulls, r_ch_max: float) -> float:
    """Keep-out cost at one point: 1 per hull the point is inside, linear
    falloff out to r_ch_max, summed over hulls."""
    return float(_hull_cost_batch(np.asarray(point, dtype=float), tuple(hulls), r_ch_max))


def _safety_batch(sdf_costs: np.ndarray, hull_costs: np.ndarray, k_a: float, k_b: float) -> np.ndarray:
    """Mean-plus-max aggregation of both per-point cost families."""
    term_a = sdf_costs.mean(axis=1) + sdf_costs.max(axis=1)
    term_b = hull_costs.mean(axis=1) + hull_costs.max(axis=1)
    return k_a * term_a + k_b * term_b


def safety_cost(
    samples: TrajectorySamples,
    env: Environment,
    params: SafetyParams,
    strict_paper_sdf_branch: bool = False,
) -> float:
    """Two-term safety objective over all sample points.

    Out-of-domain samples raise OutOfDomainError; the optimizer treats
    that as an infeasibility rather than aborting.
    """
    d_obs = env.clearance(samples.positions)
    sdf_costs = sdf_point_cost(d_obs, params, strict_paper_sdf_branch)
    hull_costs = _hull_cost_batch(samples.positions, env.hulls, params.r_ch_max)
    return float(_safety_batch(sdf_costs[None, :], hull_costs[None, :], params.k_a, params.k_b)[0])


def _segment_lengths(positions: np.ndarray) -> np.ndarray:
    """Euclidean length of each segment between consecutive samples
    (positions (..., Q, 3) to lengths (..., Q-1))."""
    dx, dy, dz = (positions[..., 1:, k] - positions[..., :-1, k] for k in range(3))
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _segment_directions(positions: np.ndarray, segment_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangents per segment (zero vector on degenerate segments)."""
    nonzero = segment_lengths > 1e-12
    dirs = np.zeros(segment_lengths.shape + (3,))
    for k in range(3):
        col = positions[..., k]
        np.divide(col[..., 1:] - col[..., :-1], segment_lengths, out=dirs[..., k], where=nonzero)
    return dirs, nonzero


def _energy_batch(
    positions: np.ndarray,
    segment_lengths: np.ndarray,
    speeds: np.ndarray,
    model: PowerQuadricModel,
    v_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trajectory energy and a per-trajectory validity flag.

    A trajectory is invalid when the power surface has no solution for
    some nondegenerate segment direction; zero-length segments contribute
    no energy.
    """
    dirs, nonzero = _segment_directions(positions, segment_lengths)
    flat_dirs = dirs.reshape(-1, 3)
    powers, valid = power_for_directions(model, flat_dirs)
    powers = powers.reshape(segment_lengths.shape)
    valid = valid.reshape(segment_lengths.shape)
    dt = segment_lengths / np.maximum(speeds[:, 1:], v_floor)
    contrib = np.where(nonzero, powers * dt, 0.0)
    ok = np.all(valid | ~nonzero, axis=1)
    energy = np.where(ok, np.nan_to_num(contrib, nan=0.0).sum(axis=1), np.nan)
    return energy, ok


def energy_cost(
    samples: TrajectorySamples, model: PowerQuadricModel, v_floor: float = DEFAULT_V_FLOOR
) -> float:
    """Energy objective: directional steady-state power times segment time."""
    energy, ok = _energy_batch(
        samples.positions[None, :, :],
        samples.segment_lengths[None, :],
        samples.speeds[None, :],
        model,
        v_floor,
    )
    if not ok[0]:
        from .errors import ModelDomainError

        raise ModelDomainError("power model has no solution along a segment direction")
    return float(energy[0])


def _accel_violation_batch(
    segment_lengths: np.ndarray, speeds: np.ndarray, a_max: float
) -> np.ndarray:
    """Worst tangential-acceleration excess per trajectory.

    Per segment the speed change over its length gives a = (v1^2 - v0^2) / 2d.
    """
    d = np.maximum(segment_lengths, _MIN_SEGMENT)
    accel = (speeds[:, 1:] ** 2 - speeds[:, :-1] ** 2) / (2.0 * d)
    return np.maximum(np.abs(accel).max(axis=1) - a_max, 0.0)


def _collision_violation_batch(d_obs: np.ndarray, r_uav: float) -> np.ndarray:
    """Worst clearance deficit per trajectory (0 when always clear)."""
    return np.maximum(r_uav - d_obs, 0.0).max(axis=1)


def check_constraints(
    samples: TrajectorySamples,
    env: Environment,
    a_max: float,
    r_uav: float,
    v_floor: float = DEFAULT_V_FLOOR,
) -> ConstraintReport:
    """Hard-limit check for one trajectory.

    v_floor is part of the shared cost interface; the acceleration
    estimate itself uses the raw sampled speeds.
    """
    del v_floor
    accel = _accel_violation_batch(samples.segment_lengths[None, :], samples.speeds[None, :], a_max)
    d_obs = env.clearance(samples.positions)
    collision = _collision_violation_batch(d_obs[None, :], r_uav)
    return ConstraintReport(
        max_accel_violation=float(accel[0]), collision_violation=float(collision[0])
    )
