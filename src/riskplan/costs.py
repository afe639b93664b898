"""The three trajectory objectives (time, safety, energy) and the two hard
constraints (tangential acceleration, collision clearance).

Each formula has one batch kernel over arrays with a leading population
axis. Positions come as per-axis planes (3, N, Q), the layout
``nurbs.rational_blend`` writes, and speeds as (N, Q). The segment steps
(3, N, Q-1) are taken once (``_segment_steps``) and serve both the segment
lengths (N, Q-1) and the unit directions. ``moo.evaluate_batch`` scores
whole generations with the kernels. A single trajectory is one member's
sample planes (4, Q): ``check_constraints`` runs the two constraint kernels
on them as a batch of one (seed check, emission re-check); it takes no speed
floor, as the acceleration term reads the raw speeds. ``pipeline`` builds
the emitted timeline and power profile from ``_segment_times`` and
``_segment_powers``, the time and energy kernels' helpers, which take any
leading shape. Every segment length comes from ``_segment_lengths``.

Sums of squares over the three axes are written ``x*x + y*y + z*z`` on the
planes, bit-identical to ``np.linalg.norm`` over a trailing axis of 3 but
without its 3-element inner loop per point.

The hull cost skips exact zeros: a hull adds +0 at every point at least
``r_ch_max`` outside it, and most (trajectory, hull) pairs of a cluttered
world are that far apart (about 95% on the ``perfbench`` city worlds 7 and
8). ``_hull_cost_batch`` evaluates a hull only on the trajectories that
can come that close, by a test against the hull's cull box with a slack
larger than any rounding, so its sums have the bits of the full per-hull
sum. The boxes depend only on the hulls and ``r_ch_max``, so
``hull_cull_boxes`` builds them once per plan (``moo.make_context``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Environment, SafetyParams
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


def _segment_steps(positions: np.ndarray) -> np.ndarray:
    """Step between consecutive samples, per axis (planes (3, ..., Q) to
    (3, ..., Q-1))."""
    return positions[..., 1:] - positions[..., :-1]


def _segment_lengths(steps: np.ndarray) -> np.ndarray:
    """Euclidean length of each segment from its step planes (3, ..., Q-1)."""
    dx, dy, dz = steps
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _segment_times(segment_lengths: np.ndarray, speeds: np.ndarray, v_floor: float) -> np.ndarray:
    """Flight time of each segment at the speed of its end sample, floored
    at v_floor (speeds (..., Q) to times (..., Q-1))."""
    return segment_lengths / np.maximum(speeds[..., 1:], v_floor)


def _segment_directions(steps: np.ndarray, segment_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangents per segment as rows (..., Q-1, 3), zero on degenerate
    segments, and the non-degenerate mask (..., Q-1)."""
    nonzero = segment_lengths > 1e-12
    dirs = np.zeros(segment_lengths.shape + (3,))
    np.divide(steps, segment_lengths, out=np.moveaxis(dirs, -1, 0), where=nonzero)
    return dirs, nonzero


def _segment_powers(
    steps: np.ndarray, segment_lengths: np.ndarray, model: PowerQuadricModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steady-state power along each segment direction, as (powers, valid,
    nonzero) shaped like ``segment_lengths``.

    ``valid`` is False, and the power NaN, where the power surface has no
    solution, which includes the zero direction of every degenerate
    (``nonzero`` False) segment.
    """
    dirs, nonzero = _segment_directions(steps, segment_lengths)
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


def hull_cull_boxes(hulls, r_ch_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis lower and upper planes (3, H) of the hulls' cull boxes:
    centre -+ |R| half_extents, grown by r_ch_max plus a slack of
    ``_CULL_SLACK`` times (|centre|_inf + sum(half_extents) + r_ch_max).

    The slack is far larger than the rounding of the box test and of
    ``signed_distance`` (a few 1e-16 of that scale) and than the shift of
    the zero-cost surface that a rotation accepted by ``OrientedHull`` can
    cause (its check keeps every entry of R^T R within 1e-9 of the
    identity, which moves the surface by about 1e-9 of the scale). So every
    point outside a box has signed distance >= r_ch_max from its hull.
    """
    centers = np.array([hull.center for hull in hulls]).reshape(-1, 3)  # (H, 3)
    half = np.array([hull.half_extents for hull in hulls]).reshape(-1, 3)
    rotations = np.array([hull.rotation for hull in hulls]).reshape(-1, 3, 3)
    slack = _CULL_SLACK * (np.abs(centers).max(axis=1) + half.sum(axis=1) + r_ch_max)
    reach = np.einsum("hij,hj->hi", np.abs(rotations), half) + (r_ch_max + slack)[:, None]
    return (centers - reach).T.copy(), (centers + reach).T.copy()


def _hull_cost_batch(positions: np.ndarray, hulls, boxes: tuple, r_ch_max: float) -> np.ndarray:
    """Summed keep-out cost over all hulls at position planes (3, N, Q), as
    (N, Q): 1 per hull the point is inside, falling off linearly to 0 at
    r_ch_max outside.

    Culling: a hull is evaluated only on the trajectories whose per-axis
    bounding box overlaps its box in ``boxes``, the ``hull_cull_boxes`` of
    ``hulls`` at ``r_ch_max``. Every point of a skipped trajectory has
    signed distance >= r_ch_max, where the cost is exactly +0, so the sums
    keep their bits. The test is written so that a NaN compares as near,
    and a trajectory with any non-finite coordinate is never skipped: its
    distance can be NaN (inf * 0 in the rotation), which a skip would turn
    into 0.
    """
    total = np.zeros(positions.shape[1:])
    low, high = boxes
    lo, hi = positions.min(axis=2), positions.max(axis=2)  # (3, N) bounding boxes
    apart = (lo[:, :, None] > high[:, None]) | (hi[:, :, None] < low[:, None])  # (3, N, H)
    near = ~apart.any(axis=0) | ~np.isfinite(hi - lo).all(axis=0)[:, None]  # NaN is near
    for hull, hull_near in zip(hulls, near.T):
        rows = np.flatnonzero(hull_near)
        if rows.size == len(total):
            rows = slice(None)  # every trajectory: views, no gather
        elif not rows.size:
            continue
        planes = positions[:, rows]
        d = hull.signed_distance(planes.reshape(3, -1).T).reshape(planes.shape[1:])
        total[rows] += np.minimum(np.maximum(1.0 - d / r_ch_max, 0.0), 1.0)
    return total


def _safety_batch(sdf_costs: np.ndarray, hull_costs: np.ndarray, k_a: float, k_b: float) -> np.ndarray:
    """Mean-plus-max aggregation of both per-point cost families."""
    term_a = sdf_costs.mean(axis=1) + sdf_costs.max(axis=1)
    term_b = hull_costs.mean(axis=1) + hull_costs.max(axis=1)
    return k_a * term_a + k_b * term_b


def _energy_batch(
    steps: np.ndarray,
    segment_lengths: np.ndarray,
    speeds: np.ndarray,
    model: PowerQuadricModel,
    v_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trajectory energy (directional steady-state power times segment
    time) and a per-trajectory validity flag.

    A trajectory is invalid when the power surface has no solution for
    some nondegenerate segment direction; zero-length segments contribute
    no energy. A NaN term (a NaN speed) adds 0. An infinite term needs an
    infinite segment, whose trajectory lies outside the distance field and
    is scored with the sentinel costs.
    """
    powers, valid, nonzero = _segment_powers(steps, segment_lengths, model)
    dt = _segment_times(segment_lengths, speeds, v_floor)
    contrib = powers * dt
    contrib[~nonzero | np.isnan(contrib)] = 0.0
    ok = np.all(valid | ~nonzero, axis=1)
    energy = np.where(ok, contrib.sum(axis=1), np.nan)
    return energy, ok


def _accel_violation_batch(
    segment_lengths: np.ndarray, speeds: np.ndarray, a_max: float
) -> np.ndarray:
    """Worst tangential-acceleration excess per trajectory.

    Per segment the speed change over its length gives a = (v1^2 - v0^2) / 2d.
    """
    d = np.maximum(segment_lengths, _MIN_SEGMENT)
    squared = speeds * speeds
    accel = (squared[:, 1:] - squared[:, :-1]) / (2.0 * d)
    return np.maximum(np.abs(accel).max(axis=1) - a_max, 0.0)


def _collision_violation_batch(d_obs: np.ndarray, r_uav: float) -> np.ndarray:
    """Worst clearance deficit per trajectory (0 when always clear)."""
    return np.maximum(r_uav - d_obs, 0.0).max(axis=1)


def check_constraints(
    planes: np.ndarray,
    env: Environment,
    a_max: float,
    r_uav: float,
) -> ConstraintReport:
    """Hard-limit check for one trajectory's sample planes (4, Q)."""
    segment_lengths = _segment_lengths(_segment_steps(planes[:3]))
    accel = _accel_violation_batch(segment_lengths[None], planes[None, 3], a_max)
    d_obs = env.clearance(planes[:3].T)
    collision = _collision_violation_batch(d_obs[None, :], r_uav)
    return ConstraintReport(
        max_accel_violation=float(accel[0]), collision_violation=float(collision[0])
    )
