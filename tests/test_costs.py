from __future__ import annotations

import numpy as np
import pytest

from conftest import asymmetric_model, symmetric_model
from riskplan.costs import (
    ConstraintReport,
    _energy_batch,
    _hull_cost_batch,
    _safety_batch,
    _segment_directions,
    _segment_lengths,
    _segment_steps,
    _time_batch,
    check_constraints,
    hull_cull_boxes,
    sdf_point_cost,
)
from riskplan.environment import (
    BoxObstacle,
    DomainBox,
    OrientedHull,
    SafetyParams,
    build_environment,
)
from riskplan.scenario import Hyperparams


def make_samples(positions, speeds):
    """Sample planes (4, Q) of x, y, z and speed from rows (Q, 3) and speeds."""
    return np.vstack([np.asarray(positions, dtype=float).T, np.asarray(speeds, dtype=float)])


def straight_samples(length, n, speed, z=5.0):
    xs = np.linspace(0, length, n)
    positions = np.column_stack([xs, np.full(n, 5.0), np.full(n, z)])
    return make_samples(positions, np.full(n, speed))


def steps_of(positions):
    """Step planes (3, ..., Q-1) of trajectories given as rows (..., Q, 3)."""
    return _segment_steps(np.moveaxis(np.asarray(positions, dtype=float), -1, 0))


def lengths_of(positions):
    return _segment_lengths(steps_of(positions))


def time_of(samples, v_floor):
    """The time kernel on one trajectory's sample planes (4, Q)."""
    return _time_batch(lengths_of(samples[:3].T)[None], samples[None, 3], v_floor)


def hull_cost(positions, hulls, r_ch_max):
    """The hull cost kernel on trajectories given as rows (N, Q, 3)."""
    planes = np.moveaxis(np.asarray(positions, dtype=float), -1, 0)
    return _hull_cost_batch(planes, hulls, hull_cull_boxes(hulls, r_ch_max), r_ch_max)


def energy_of(positions, speeds, model):
    """The energy kernel on trajectories given as rows (N, Q, 3)."""
    steps = steps_of(positions)
    return _energy_batch(steps, _segment_lengths(steps), speeds, model, V_FLOOR)


PARAMS = SafetyParams(r_sdf_min=1.0, r_sdf_max=5.0, r_ch_max=2.0, k_a=0.5, k_b=0.5, r_uav=0.5)
V_FLOOR = Hyperparams().v_floor


class TestTimeCost:
    def test_distance_over_speed(self):
        samples = straight_samples(4.0, 3, 2.0)
        time = time_of(samples, V_FLOOR)
        assert time[0] == pytest.approx(2.0)

    def test_zero_length_path(self):
        samples = make_samples(np.zeros((3, 3)), np.ones(3))
        time = time_of(samples, V_FLOOR)
        assert time[0] == 0.0

    def test_segment_end_speed_indexing(self):
        # Two unit segments with speeds [2, 1, 4]: each segment is flown at
        # the speed of its end sample -> 1/1 + 1/4.
        positions = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
        samples = make_samples(positions, [2.0, 1.0, 4.0])
        time = time_of(samples, V_FLOOR)
        assert time[0] == pytest.approx(1.25)

    def test_speed_floor_guards_zero(self):
        positions = [[0, 0, 0], [1, 0, 0]]
        samples = make_samples(positions, [1.0, 0.0])
        time = time_of(samples, 0.1)
        assert time[0] == pytest.approx(10.0)


class TestSdfPointCost:
    def test_boundaries(self):
        costs = sdf_point_cost(np.array([5.0, 1.0, 0.0, 10.0]), PARAMS)
        assert np.array_equal(costs, [0.0, 1.0, 1.0, 0.0])

    def test_midpoint_value(self):
        # lambda = 1*5/(5-1) = 1.25; at d = 2.5 the shifted branch reads
        # 1.25 * (0.4 - 0.2) = 0.25.
        assert sdf_point_cost(np.array([2.5]), PARAMS)[0] == pytest.approx(0.25)

    def test_continuity_on_dense_grid(self):
        d = np.linspace(0.0, 7.0, 10_000)
        costs = sdf_point_cost(d, PARAMS)
        assert np.max(np.abs(np.diff(costs))) < 1e-3  # smooth at this grid pitch
        # jumps at the branch boundaries specifically:
        for boundary in (1.0, 5.0):
            eps = 1e-10
            left, right = sdf_point_cost(np.array([boundary - eps, boundary + eps]), PARAMS)
            assert abs(left - right) < 1e-9

    def test_monotone_non_increasing(self):
        d = np.linspace(0.0, 8.0, 5000)
        costs = sdf_point_cost(d, PARAMS)
        assert np.all(np.diff(costs) <= 1e-15)


class TestHullPointCost:
    HULL = OrientedHull(center=[0, 0, 0], half_extents=[1, 1, 1], rotation=np.eye(3))

    @staticmethod
    def cost_at(points, hulls, r_ch_max=2.0):
        """Cost of one trajectory through the given points."""
        return hull_cost(np.asarray(points, dtype=float)[None], hulls, r_ch_max)[0]

    def test_inside(self):
        assert self.cost_at([[0.0, 0, 0]], [self.HULL])[0] == 1.0

    def test_linear_branch(self):
        assert self.cost_at([[2.0, 0, 0]], [self.HULL])[0] == pytest.approx(0.5)

    def test_outside_influence(self):
        assert self.cost_at([[4.0, 0, 0]], [self.HULL])[0] == 0.0

    def test_sums_over_hulls(self):
        other = OrientedHull(center=[0.5, 0, 0], half_extents=[1, 1, 1], rotation=np.eye(3))
        cost = self.cost_at([[0.25, 0, 0]], [self.HULL, other])
        assert cost[0] == pytest.approx(2.0)

    def test_continuity_and_zero_iff_clear(self):
        xs = np.linspace(0, 5, 2000)
        points = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
        costs = self.cost_at(points, [self.HULL])
        assert np.max(np.abs(np.diff(costs))) < 1e-2
        assert np.all((costs == 0) == (xs >= 3.0))


class FixedDistanceHull:
    """Stand-in hull whose signed distance is a given array. Its box (unit
    half extents at the origin) covers the points it is given, which all lie
    at the origin, so the hull cost never skips them."""

    center = np.zeros(3)
    half_extents = np.ones(3)
    rotation = np.eye(3)

    def __init__(self, distances):
        self.distances = distances

    def signed_distance(self, points):
        assert points.shape == (self.distances.size, 3)
        assert not np.any(points)
        return self.distances.ravel()


class TestHullCostClamp:
    """The min/max clamp of the hull cost against the nested-where form."""

    @staticmethod
    def reference(distance_sets, r_ch_max):
        total = np.zeros(distance_sets[0].shape)
        for d in distance_sets:
            total += np.where(d <= 0, 1.0, np.where(d >= r_ch_max, 0.0, 1.0 - d / r_ch_max))
        return total

    @staticmethod
    def distances(seed, r_ch_max):
        """One trajectory of distances: the edge cases, then random ones."""
        rng = np.random.default_rng(seed)
        edges = [
            0.0, -0.0, r_ch_max, np.nextafter(r_ch_max, 0.0), np.nextafter(r_ch_max, np.inf),
            5e-324, -5e-324, 1e-300, np.nan, np.inf, -np.inf, -r_ch_max, 2.0 * r_ch_max,
        ]
        random = rng.uniform(-2.0 * r_ch_max, 3.0 * r_ch_max, 100_000)
        return np.concatenate([edges, random])[None]

    @pytest.mark.parametrize("r_ch_max", [2.0, 0.7, 1.0 / 3.0], ids=["2", "0.7", "1/3"])
    def test_bit_identical_to_nested_where(self, r_ch_max):
        d = self.distances(int(r_ch_max * 1000), r_ch_max)
        positions = np.zeros(d.shape + (3,))
        for sets in ([d], [d, d[:, ::-1].copy()]):
            got = hull_cost(positions, [FixedDistanceHull(x) for x in sets], r_ch_max)
            want = self.reference(sets, r_ch_max)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def unculled_hull_cost(positions, hulls, r_ch_max):
    """Reference: every hull's cost at every point, summed in hull order."""
    total = np.zeros(positions.shape[:-1])
    flat = positions.reshape(-1, 3)
    for hull in hulls:
        d = hull.signed_distance(flat).reshape(total.shape)
        total += np.minimum(np.maximum(1.0 - d / r_ch_max, 0.0), 1.0)
    return total


def row_culled_hull_cost(positions, hulls, r_ch_max):
    """The culled hull cost as it was before the plane layout: positions
    as rows (N, Q, 3) and the cull boxes rebuilt on every call."""
    total = np.zeros(positions.shape[:-1])
    axes = np.ascontiguousarray(positions.transpose(0, 2, 1))
    lo, hi = axes.min(axis=2), axes.max(axis=2)
    centers = np.array([hull.center for hull in hulls]).reshape(-1, 3)
    half = np.array([hull.half_extents for hull in hulls]).reshape(-1, 3)
    rotations = np.array([hull.rotation for hull in hulls]).reshape(-1, 3, 3)
    slack = 1e-3 * (np.abs(centers).max(axis=1) + half.sum(axis=1) + r_ch_max)
    reach = np.einsum("hij,hj->hi", np.abs(rotations), half) + (r_ch_max + slack)[:, None]
    apart = (lo[:, None] > centers + reach) | (hi[:, None] < centers - reach)
    near = ~apart.any(axis=2) | ~np.isfinite(hi - lo).all(axis=1)[:, None]
    for hull, hull_near in zip(hulls, near.T):
        rows = np.flatnonzero(hull_near)
        if rows.size:
            d = hull.signed_distance(positions[rows])
            total[rows] += np.minimum(np.maximum(1.0 - d / r_ch_max, 0.0), 1.0)
    return total


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


class TestHullCulling:
    """Skipping (trajectory, hull) pairs outside the grown box keeps every bit."""

    @staticmethod
    def assert_same_bits(positions, hulls, r_ch_max):
        got = hull_cost(positions, hulls, r_ch_max)
        want = unculled_hull_cost(positions, hulls, r_ch_max)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_rotated_hulls_near_and_far_population(self, seed):
        rng = np.random.default_rng(seed)
        hulls = [
            OrientedHull(
                center=rng.uniform([5, 5, 2], [55, 35, 14]),
                half_extents=rng.uniform(0.3, 4.0, 3),
                rotation=random_rotation(rng) if k % 3 else np.eye(3),
            )
            for k in range(8)
        ]
        starts = rng.uniform([0, 0, 0], [60, 40, 16], (40, 1, 3))
        steps = rng.normal(scale=0.4, size=(40, 60, 3))
        positions = starts + np.cumsum(steps, axis=1)
        r_ch_max = [2.0, 0.7, 1.0 / 3.0][seed % 3]
        got = self.assert_same_bits(positions, hulls, r_ch_max)
        clear = np.all(got == 0.0, axis=1)
        assert clear.any() and not clear.all()

    @pytest.mark.parametrize("rotated", [False, True], ids=["axis-aligned", "rotated"])
    @pytest.mark.parametrize("r_ch_max", [2.0, 0.7, 1.0 / 3.0], ids=["2", "0.7", "1/3"])
    def test_points_ulps_from_the_influence_radius(self, rotated, r_ch_max):
        rng = np.random.default_rng(11)
        rotation = random_rotation(rng) if rotated else np.eye(3)
        half = np.array([1.5, 0.75, 2.25])
        hull = OrientedHull(center=[31.3, 17.9, 6.1], half_extents=half, rotation=rotation)
        directions = {
            "face": np.array([1.0, 0.0, 0.0]),
            "edge": np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
            "corner": np.array([-1.0, 1.0, 1.0]) / np.sqrt(3.0),
        }
        rows = []
        for direction in directions.values():
            on_surface = half * np.where(direction == 0.0, 0.0, np.sign(direction))
            radius = r_ch_max
            for _ in range(4):
                radius = np.nextafter(radius, 0.0)
            for _ in range(9):
                local = on_surface + radius * direction
                rows.append(hull.center + rotation @ local)
                radius = np.nextafter(radius, np.inf)
        # One trajectory per point, each point repeated so Q > 1.
        positions = np.repeat(np.array(rows)[:, None, :], 2, axis=1)
        got = self.assert_same_bits(positions, [hull], r_ch_max)
        assert np.any(got > 0.0) and np.any(got == 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_plane_cost_matches_row_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        hulls = [
            OrientedHull(
                center=rng.uniform([5, 5, 2], [55, 35, 14]),
                half_extents=rng.uniform(0.3, 4.0, 3),
                rotation=random_rotation(rng),
            )
            for _ in range(6)
        ]
        starts = rng.uniform([-20, -20, -10], [80, 60, 26], (60, 1, 3))
        starts[20:26, 0] = [hull.center for hull in hulls]  # through each hull
        positions = starts + np.cumsum(rng.normal(scale=0.5, size=(60, 50, 3)), axis=1)
        positions[3] = positions[3, 0]  # every sample on the start
        positions[5, 10:20] = positions[5, 9]
        positions[7, 4, 1] = np.nan
        positions[9, 30, 2] = np.inf
        r_ch_max = [2.0, 0.7, 1.0 / 3.0][seed]
        planes = np.ascontiguousarray(positions.transpose(2, 0, 1))
        with np.errstate(invalid="ignore"):
            got = _hull_cost_batch(planes, hulls, hull_cull_boxes(hulls, r_ch_max), r_ch_max)
            want = row_culled_hull_cost(positions, hulls, r_ch_max)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isnan(got[7, 4]) and (got > 0).any() and (got == 0).all(axis=1).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_never_skipped(self, bad):
        hulls = [
            OrientedHull(center=[5, 5, 5], half_extents=[1, 1, 1], rotation=np.eye(3)),
            OrientedHull(center=[9, 5, 5], half_extents=[1, 2, 1], rotation=np.eye(3)),
        ]
        xs = np.linspace(0.0, 14.0, 30)
        near = np.column_stack([xs, np.full(30, 5.0), np.full(30, 5.0)])
        far = near + [0.0, 30.0, 0.0]
        positions = np.stack([near, far, far.copy()])
        positions[2, 7, 0] = bad  # x is non-finite; y alone puts the row far away
        with np.errstate(invalid="ignore"):  # inf * 0 in the hull rotation
            got = self.assert_same_bits(positions, hulls, 2.0)
        assert np.isnan(got[2, 7])
        assert np.all(got[1] == 0.0)


class TestSafetyCost:
    def test_clear_trajectory_is_zero(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[30, 10, 10], v_max=2.0)
        obstacle = BoxObstacle(min_corner=[0, 0, 0], max_corner=[1, 1, 1])
        env = build_environment(domain, [obstacle], resolution=0.5)
        samples = straight_samples(10.0, 11, 1.0, z=9.0)
        # shift far from the obstacle corner
        positions = samples[:3].T + np.array([15, 3, 0])
        sdf = sdf_point_cost(env.clearance(positions), PARAMS)
        hull = hull_cost(positions[None], env.hulls, PARAMS.r_ch_max)
        assert _safety_batch(sdf[None], hull, PARAMS.k_a, PARAMS.k_b)[0] == 0.0

    def test_constant_field_mean_equals_max(self):
        # Constant per-point cost 0.25 and no hulls: 0.5*(0.25+0.25) = 0.25.
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 10, 10], v_max=2.0)
        obstacle = BoxObstacle(min_corner=[0, 0, 0], max_corner=[20, 10, 0.5])
        env = build_environment(domain, [obstacle], resolution=0.5)
        # plane obstacle below; fly level at constant clearance d = 2.5
        # (distance to occupied voxel centers at z=0.25 -> fly at z=2.75)
        samples = straight_samples(10.0, 21, 1.0, z=2.75)
        positions = samples[:3].T + np.array([5, 0, 0])
        sdf = sdf_point_cost(env.clearance(positions), PARAMS)
        hull = hull_cost(positions[None], env.hulls, PARAMS.r_ch_max)
        got = _safety_batch(sdf[None], hull, PARAMS.k_a, PARAMS.k_b)[0]
        assert got == pytest.approx(0.25, abs=1e-9)

    def test_upper_bound(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[10, 10, 10], v_max=2.0)
        obstacle = BoxObstacle(min_corner=[4, 4, 4], max_corner=[6, 6, 6])
        hulls = [
            OrientedHull(center=[5, 5, 5], half_extents=[2, 2, 2], rotation=np.eye(3)),
            OrientedHull(center=[5, 5, 5], half_extents=[1, 3, 1], rotation=np.eye(3)),
        ]
        env = build_environment(domain, [obstacle], hulls, resolution=0.5)
        positions = np.column_stack(
            [np.linspace(4.5, 5.5, 9), np.full(9, 5.0), np.full(9, 5.0)]
        )
        sdf = sdf_point_cost(env.clearance(positions), PARAMS)
        hull = hull_cost(positions[None], env.hulls, PARAMS.r_ch_max)
        bound = PARAMS.k_a * 2 + PARAMS.k_b * 2 * len(hulls)
        assert _safety_batch(sdf[None], hull, PARAMS.k_a, PARAMS.k_b)[0] <= bound

    def test_reversal_invariance(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 10, 10], v_max=2.0)
        obstacle = BoxObstacle(min_corner=[8, 4, 0], max_corner=[10, 6, 10])
        hull = OrientedHull(center=[9, 5, 5], half_extents=[2, 2, 4], rotation=np.eye(3))
        env = build_environment(domain, [obstacle], [hull], resolution=0.5)
        positions = np.column_stack(
            [np.linspace(2, 18, 15), np.full(15, 7.0), np.full(15, 5.0)]
        )
        both = np.stack([positions, positions[::-1]])
        sdf = sdf_point_cost(env.clearance(both.reshape(-1, 3)), PARAMS).reshape(2, -1)
        hull_costs = hull_cost(both, env.hulls, PARAMS.r_ch_max)
        forward, backward = _safety_batch(sdf, hull_costs, PARAMS.k_a, PARAMS.k_b)
        assert forward == pytest.approx(backward, abs=1e-12)


class TestEnergyCost:
    def test_level_flight_power_times_time(self):
        model = symmetric_model(500.0)
        samples = straight_samples(20.0, 21, 2.0)
        # total time 10 s at 500 W
        energy, ok = energy_of(samples[:3].T[None], samples[None, 3], model)
        assert ok.all()
        assert energy[0] == pytest.approx(5000.0, rel=1e-9)

    def test_double_speed_halves_energy(self):
        model = asymmetric_model()
        samples = straight_samples(20.0, 21, 1.0)
        positions = np.stack([samples[:3].T] * 2)
        speeds = np.stack([samples[3], samples[3] * 2.0])
        (slow, fast), ok = energy_of(positions, speeds, model)
        assert ok.all()
        assert fast == pytest.approx(slow / 2.0)

    def test_ascent_descent_ratio(self):
        model = asymmetric_model()
        n = 11
        zs = np.linspace(0, 10, n)
        up = np.column_stack([np.zeros(n), np.zeros(n), zs])
        down = np.column_stack([np.zeros(n), np.zeros(n), zs[::-1]])
        positions = np.stack([up, down])
        (e_up, e_down), ok = energy_of(positions, np.ones((2, n)), model)
        assert ok.all()
        assert e_up / e_down == pytest.approx(800.0 / 500.0, rel=1e-6)


class TestDoubleSpeedIdentities:
    def test_time_halves_exactly(self):
        rng = np.random.default_rng(23)
        positions = np.cumsum(rng.uniform(0.1, 1.0, size=(12, 3)), axis=0)
        speeds = rng.uniform(0.5, 1.0, 12)
        lengths = lengths_of(positions)
        time, doubled = _time_batch(
            np.stack([lengths] * 2), np.stack([speeds, speeds * 2.0]), V_FLOOR
        )
        assert doubled == time / 2.0

    def test_energy_halves_exactly(self):
        model = asymmetric_model()
        rng = np.random.default_rng(29)
        positions = np.cumsum(rng.uniform(0.1, 1.0, size=(12, 3)), axis=0)
        speeds = rng.uniform(0.5, 1.0, 12)
        both = np.stack([positions] * 2)
        (energy, doubled), ok = energy_of(both, np.stack([speeds, speeds * 2.0]), model)
        assert ok.all()
        assert doubled == energy / 2.0


class TestAdditivity:
    def test_concatenation_at_shared_sample(self):
        model = asymmetric_model()
        rng = np.random.default_rng(31)
        positions = np.cumsum(rng.uniform(0.2, 1.0, size=(11, 3)), axis=0)
        speeds = rng.uniform(0.5, 2.0, 11)
        # The two halves share sample 5 and form a batch of two.
        halves_pos = np.stack([positions[:6], positions[5:]])
        halves_speed = np.stack([speeds[:6], speeds[5:]])
        halves_time = _time_batch(lengths_of(halves_pos), halves_speed, V_FLOOR)
        whole_time = _time_batch(lengths_of(positions)[None], speeds[None], V_FLOOR)
        assert halves_time.sum() == pytest.approx(whole_time[0], rel=1e-12)
        halves_energy, halves_ok = energy_of(halves_pos, halves_speed, model)
        whole_energy, whole_ok = energy_of(positions[None], speeds[None], model)
        assert halves_ok.all() and whole_ok.all()
        assert halves_energy.sum() == pytest.approx(whole_energy[0], rel=1e-12)


class TestCheckConstraints:
    def _env(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[30, 10, 10], v_max=2.0)
        obstacle = BoxObstacle(min_corner=[14, 4, 4], max_corner=[16, 6, 6])
        return build_environment(domain, [obstacle], resolution=0.5)

    def test_kinematic_identity(self):
        # v from 1 to 2 m/s over 1 m: a = (4 - 1) / 2 = 1.5.
        env = self._env()
        positions = [[2, 8, 8], [3, 8, 8]]
        samples = make_samples(positions, [1.0, 2.0])
        tight = check_constraints(samples, env, a_max=1.0, r_uav=0.0)
        assert tight.max_accel_violation == pytest.approx(0.5)
        assert not tight.feasible
        ok = check_constraints(samples, env, a_max=1.5, r_uav=0.0)
        assert ok.max_accel_violation == 0.0
        assert ok.feasible

    def test_constant_speed_no_violation(self):
        env = self._env()
        samples = straight_samples(5.0, 6, 1.5, z=8.0)
        report = check_constraints(samples, env, a_max=0.1, r_uav=0.0)
        assert report.max_accel_violation == 0.0

    def test_collision_violation_depth(self):
        env = self._env()
        # occupied voxel centers start at x in [14.25, 15.75]; a sample at
        # clearance 0.2 m with r_uav 0.5 violates by 0.3.
        d_target = 0.2
        x = 14.25 - d_target
        samples = make_samples([[x, 5.25, 5.25], [x - 1, 5.25, 5.25]], [1.0, 1.0])
        report = check_constraints(samples, env, a_max=10.0, r_uav=0.5)
        assert report.collision_violation == pytest.approx(0.3, abs=1e-9)
        assert not report.feasible

    def test_report_invariant(self):
        report = ConstraintReport(max_accel_violation=0.0, collision_violation=0.0)
        assert report.feasible
        report = ConstraintReport(max_accel_violation=0.1, collision_violation=0.0)
        assert not report.feasible


class TestPerAxisSegmentKernels:
    """The per-axis segment kernels against their broadcasting forms."""

    @staticmethod
    def positions(seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-20, 20, (6, 30, 3)) * rng.uniform(1e-3, 1.0, (6, 30, 1))
        # Zero-length segments: repeated samples, a stationary member, and
        # a step below the 1e-12 direction threshold.
        pos[0, 5] = pos[0, 4]
        pos[1] = pos[1, 0]
        pos[2, 8] = pos[2, 7] + 1e-14
        return pos

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lengths_match_norm(self, seed):
        pos = self.positions(seed)
        want = np.linalg.norm(np.diff(pos, axis=-2), axis=-1)
        assert np.array_equal(lengths_of(pos), want)
        assert np.array_equal(lengths_of(pos[3]), want[3])
        # A strided view, as the decoded positions are.
        padded = np.concatenate([pos, pos[..., :1]], axis=-1)[..., :3]
        assert np.array_equal(lengths_of(padded), want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_directions_match_broadcast_division(self, seed):
        pos = self.positions(seed)
        lengths = np.linalg.norm(np.diff(pos, axis=-2), axis=-1)
        deltas = np.diff(pos, axis=-2)
        want_nonzero = lengths > 1e-12
        want = np.zeros_like(deltas)
        np.divide(deltas, lengths[..., None], out=want, where=want_nonzero[..., None])
        assert not want_nonzero.all()
        dirs, nonzero = _segment_directions(steps_of(pos), lengths)
        assert np.array_equal(nonzero, want_nonzero)
        assert np.array_equal(dirs, want)
        dirs_one, _ = _segment_directions(steps_of(pos[0]), lengths[0])
        assert np.array_equal(dirs_one, want[0])
