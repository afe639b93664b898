"""The three trajectory objectives (time, safety, energy) and the two hard
constraints (tangential acceleration, collision clearance).

Each formula has one batch kernel over arrays with a leading population
axis: positions (N, Q, 3), speeds (N, Q) and segment lengths (N, Q-1).
``moo.evaluate_batch`` scores whole generations with them, and a single
trajectory is a batch of one. ``check_constraints`` runs the two constraint
kernels on one ``TrajectorySamples`` (seed check, emission re-check); it
takes no speed floor, as the acceleration term reads the raw speeds.
``pipeline`` builds the emitted timeline and power profile from
``_segment_times`` and ``_segment_powers``, the time and energy kernels' helpers.

Kernels over sample points follow the per-axis rule of ``environment``: they
read (..., 3) positions as three columns and write sums of squares as
``x*x + y*y + z*z``, bit-identical to ``np.linalg.norm`` over the last axis
but without its 3-element inner loop per point.

The hull cost skips exact zeros: a hull adds +0 at every point at least
``r_ch_max`` outside it, and most (trajectory, hull) pairs of a cluttered
world are that far apart (about 95% on the ``perfbench`` city worlds 7 and
8). ``_hull_cost_batch`` evaluates a hull only on the trajectories that
can come that close, by a box test with a slack larger than any rounding,
so its sums have the bits of the full per-hull sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Environment, SafetyParams
from .nurbs import TrajectorySamples
from .power import PowerQuadricModel, power_for_directions

_MIN_SEGMENT = 1e-6
_CULL_SLACK = 1e-3


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


def _segment_lengths(positions: np.ndarray) -> np.ndarray:
    """Euclidean length of each segment between consecutive samples
    (positions (..., Q, 3) to lengths (..., Q-1))."""
    dx, dy, dz = (positions[..., 1:, k] - positions[..., :-1, k] for k in range(3))
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _segment_times(segment_lengths: np.ndarray, speeds: np.ndarray, v_floor: float) -> np.ndarray:
    """Flight time of each segment at the speed of its end sample, floored
    at v_floor (speeds (..., Q) to times (..., Q-1))."""
    return segment_lengths / np.maximum(speeds[..., 1:], v_floor)


def _segment_directions(positions: np.ndarray, segment_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangents per segment (zero vector on degenerate segments)."""
    nonzero = segment_lengths > 1e-12
    dirs = np.zeros(segment_lengths.shape + (3,))
    for k in range(3):
        col = positions[..., k]
        np.divide(col[..., 1:] - col[..., :-1], segment_lengths, out=dirs[..., k], where=nonzero)
    return dirs, nonzero


def _segment_powers(
    positions: np.ndarray, segment_lengths: np.ndarray, model: PowerQuadricModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steady-state power along each segment direction, as (powers, valid,
    nonzero) shaped like ``segment_lengths``.

    ``valid`` is False, and the power NaN, where the power surface has no
    solution, which includes the zero direction of every degenerate
    (``nonzero`` False) segment.
    """
    dirs, nonzero = _segment_directions(positions, segment_lengths)
    powers, valid = power_for_directions(model, dirs.reshape(-1, 3))
    return powers.reshape(segment_lengths.shape), valid.reshape(segment_lengths.shape), nonzero


def _time_batch(segment_lengths: np.ndarray, speeds: np.ndarray, v_floor: float) -> np.ndarray:
    """Per-trajectory traversal time."""
    return _segment_times(segment_lengths, speeds, v_floor).sum(axis=1)


def sdf_point_cost(d_obs: np.ndarray, params: SafetyParams) -> np.ndarray:
    """Obstacle-proximity cost in [0, 1] per clearance value.

    Saturated at 1 inside r_sdf_min, 0 beyond r_sdf_max, and a hyperbolic
    falloff in between. The middle branch is shifted by -lambda/r_sdf_max
    because the paper's unshifted form lambda/d - 1 is discontinuous at both
    radii (unless r_sdf_max = 2 r_sdf_min).
    """
    r_min, r_max = params.r_sdf_min, params.r_sdf_max
    lam = r_min * r_max / (r_max - r_min)
    middle = lam * (1.0 / np.maximum(d_obs, r_min) - 1.0 / r_max)
    return np.where(d_obs <= r_min, 1.0, np.where(d_obs >= r_max, 0.0, middle))


def _hull_cost_batch(positions: np.ndarray, hulls, r_ch_max: float) -> np.ndarray:
    """Summed keep-out cost over all hulls at positions (N, Q, 3), as (N, Q):
    1 per hull the point is inside, falling off linearly to 0 at r_ch_max
    outside.

    Culling: a hull is evaluated only on the trajectories whose per-axis
    bounding box overlaps its world box, centre +- |R| half_extents, grown by
    r_ch_max plus a slack of ``_CULL_SLACK`` times (|centre|_inf +
    sum(half_extents) + r_ch_max). The slack is far larger than the rounding
    of the box test and of ``signed_distance`` (a few 1e-16 of that scale)
    and than the shift of the zero-cost surface that a rotation accepted by
    ``OrientedHull`` can cause (its check keeps every entry of R^T R within
    1e-9 of the identity, which moves the surface by about 1e-9 of the
    scale). So every point of a skipped trajectory has signed distance
    >= r_ch_max, where the cost is exactly +0, and the sums keep their bits.
    The test is written so that a NaN compares as near, and a trajectory
    with any non-finite coordinate is never skipped: its distance can be
    NaN (inf * 0 in the rotation), which a skip would turn into 0.
    """
    total = np.zeros(positions.shape[:-1])
    axes = np.ascontiguousarray(positions.transpose(0, 2, 1))  # (N, 3, Q)
    lo, hi = axes.min(axis=2), axes.max(axis=2)  # (N, 3) bounding boxes
    centers = np.array([hull.center for hull in hulls]).reshape(-1, 3)  # (H, 3)
    half = np.array([hull.half_extents for hull in hulls]).reshape(-1, 3)
    rotations = np.array([hull.rotation for hull in hulls]).reshape(-1, 3, 3)
    slack = _CULL_SLACK * (np.abs(centers).max(axis=1) + half.sum(axis=1) + r_ch_max)
    reach = np.einsum("hij,hj->hi", np.abs(rotations), half) + (r_ch_max + slack)[:, None]
    apart = (lo[:, None] > centers + reach) | (hi[:, None] < centers - reach)  # (N, H, 3)
    near = ~apart.any(axis=2) | ~np.isfinite(hi - lo).all(axis=1)[:, None]  # NaN is near
    for hull, hull_near in zip(hulls, near.T):
        rows = np.flatnonzero(hull_near)
        if rows.size == len(total):
            rows = slice(None)  # every trajectory: views, no gather
        elif not rows.size:
            continue
        d = hull.signed_distance(positions[rows])
        total[rows] += np.minimum(np.maximum(1.0 - d / r_ch_max, 0.0), 1.0)
    return total


def _safety_batch(sdf_costs: np.ndarray, hull_costs: np.ndarray, k_a: float, k_b: float) -> np.ndarray:
    """Mean-plus-max aggregation of both per-point cost families."""
    term_a = sdf_costs.mean(axis=1) + sdf_costs.max(axis=1)
    term_b = hull_costs.mean(axis=1) + hull_costs.max(axis=1)
    return k_a * term_a + k_b * term_b


def _energy_batch(
    positions: np.ndarray,
    segment_lengths: np.ndarray,
    speeds: np.ndarray,
    model: PowerQuadricModel,
    v_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trajectory energy (directional steady-state power times segment
    time) and a per-trajectory validity flag.

    A trajectory is invalid when the power surface has no solution for
    some nondegenerate segment direction; zero-length segments contribute
    no energy.
    """
    powers, valid, nonzero = _segment_powers(positions, segment_lengths, model)
    dt = _segment_times(segment_lengths, speeds, v_floor)
    contrib = np.where(nonzero, powers * dt, 0.0)
    ok = np.all(valid | ~nonzero, axis=1)
    energy = np.where(ok, np.nan_to_num(contrib, nan=0.0).sum(axis=1), np.nan)
    return energy, ok


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
) -> ConstraintReport:
    """Hard-limit check for one trajectory."""
    accel = _accel_violation_batch(samples.segment_lengths[None, :], samples.speeds[None, :], a_max)
    d_obs = env.clearance(samples.positions)
    collision = _collision_violation_batch(d_obs[None, :], r_uav)
    return ConstraintReport(
        max_accel_violation=float(accel[0]), collision_violation=float(collision[0])
    )
