from __future__ import annotations

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import seeding_params
from riskplan.environment import (
    BoxObstacle,
    DomainBox,
    build_environment,
)
from riskplan.errors import PlanningFailureError, ValidationError
from riskplan.moo import _layout_views, build_bounds, decision_arity, evaluate_batch
from riskplan.pipeline import _prepare_run, build_scenario_environment
from riskplan.power import fit_quadric, load_power_samples
from riskplan.scenario import load_scenario, scenario_from_dict
from riskplan.seeding import (
    build_feasible_seed,
    find_seed_path,
    initial_population,
    polyline_to_decision_vector,
    resample_polyline,
)


ROOT = Path(__file__).resolve().parents[1]


def wall_with_gap_env():
    domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 10, 10], v_max=2.0)
    # Wall at x in [9, 11] with a gap around y in [4, 6], z free.
    lower = BoxObstacle(min_corner=[9, 0, 0], max_corner=[11, 4, 10])
    upper = BoxObstacle(min_corner=[9, 6, 0], max_corner=[11, 10, 10])
    return build_environment(domain, [lower, upper], resolution=0.5)


class TestFindSeedPath:
    def test_empty_world_straight_polyline(self, empty_env):
        params = seeding_params(delta_rope=5.0, rng_seed=0)
        start, goal = np.array([1.0, 10, 5]), np.array([19.0, 10, 5])
        path = find_seed_path(empty_env, start, goal, params, r_uav=0.5)
        length = np.linalg.norm(goal - start)
        assert len(path) - 1 == int(np.ceil(length / params.delta_rope))
        assert path[0] == pytest.approx(start)
        assert path[-1] == pytest.approx(goal)
        # collinear
        deltas = np.diff(path, axis=0)
        unit = deltas / np.linalg.norm(deltas, axis=1, keepdims=True)
        assert np.allclose(unit, unit[0], atol=1e-9)

    def test_wall_with_gap(self):
        env = wall_with_gap_env()
        params = seeding_params(delta_rope=2.0, rng_seed=3)
        path = find_seed_path(env, [2, 5, 5], [18, 5, 5], params, r_uav=0.5)
        # verify clearance post-hoc at fine spacing along every segment
        for a, b in zip(path[:-1], path[1:]):
            pts = np.linspace(a, b, 20)
            assert np.all(env.clearance(pts) >= 0.5)

    def test_goal_in_collision(self):
        env = wall_with_gap_env()
        params = seeding_params(delta_rope=2.0, rng_seed=0)
        with pytest.raises(ValidationError):
            find_seed_path(env, [2, 5, 5], [10, 2, 5], params, r_uav=0.5)

    def test_unreachable_goal_raises_planning_failure(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 10, 10], v_max=2.0)
        wall = BoxObstacle(min_corner=[9, 0, 0], max_corner=[11, 10, 10])  # full wall
        env = build_environment(domain, [wall], resolution=0.5)
        params = seeding_params(delta_rope=2.0, rrt_max_iters=300, rng_seed=0)
        with pytest.raises(PlanningFailureError):
            find_seed_path(env, [2, 5, 5], [18, 5, 5], params, r_uav=0.5)

    def test_deterministic(self):
        env = wall_with_gap_env()
        params = seeding_params(delta_rope=2.0, rng_seed=11)
        p1 = find_seed_path(env, [2, 5, 5], [18, 5, 5], params, r_uav=0.5)
        p2 = find_seed_path(env, [2, 5, 5], [18, 5, 5], params, r_uav=0.5)
        assert np.array_equal(p1, p2)


class TestResample:
    def test_equidistant_arc_spacing(self):
        polyline = np.array([[0, 0, 0], [10, 0, 0], [10, 7, 0]], dtype=float)
        out = resample_polyline(polyline, 2.0)
        # stations every 2 m of arc length; 17 m total
        assert len(out) == 10
        cumulative = [0.0]
        for a, b in zip(out[:-1], out[1:]):
            cumulative.append(cumulative[-1] + np.linalg.norm(b - a))
        # interior spacing along straight runs is exactly delta
        seg = np.diff(out, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
        assert np.all(lengths[:-1] <= 2.0 + 1e-9)
        straight_run = lengths[:4]  # before the corner
        assert straight_run == pytest.approx(np.full(4, 2.0), abs=1e-9)
        assert out[-1] == pytest.approx([10, 7, 0])

    def test_exact_multiple(self):
        polyline = np.array([[0, 0, 0], [20, 0, 0]], dtype=float)
        out = resample_polyline(polyline, 5.0)
        assert len(out) == 5
        assert np.allclose(np.diff(out[:, 0]), 5.0, atol=1e-9)


class TestPolylineToDecision:
    def test_six_node_arity(self):
        polyline = np.linspace([0, 0, 0], [10, 0, 0], 6)
        decision = polyline_to_decision_vector(polyline, v_cruise=1.0, degree=3)
        assert len(decision) == 22
        ends, rows = _layout_views(decision)
        assert np.all(ends == 1.0) and np.all(rows[:, 4] == 1.0)
        assert np.all(rows[:, 3] == 1.0)

    def test_two_node_polyline_subdivided(self):
        polyline = np.array([[0, 0, 0], [10, 0, 0]], dtype=float)
        decision = polyline_to_decision_vector(polyline, v_cruise=1.0, degree=3)
        n_interior = (len(decision) - 2) // 5
        assert n_interior >= 2  # curve needs at least degree+1 control points

    def test_weights_initialized_to_one(self):
        polyline = np.linspace([0, 0, 0], [10, 5, 2], 8)
        decision = polyline_to_decision_vector(polyline, v_cruise=0.7, degree=3)
        ends, rows = _layout_views(decision)
        assert np.all(ends == 1.0) and np.all(rows[:, 4] == 1.0)


class TestInitialPopulation:
    def _setup(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 10, 10], v_max=2.0)
        bounds = build_bounds(domain, n_interior=4, v_floor=0.1, weight_bounds=(0.1, 10.0))
        polyline = np.linspace([1, 5, 5], [19, 5, 5], 6)
        seed = polyline_to_decision_vector(polyline, v_cruise=1.0, degree=3)
        return bounds, seed

    def test_zero_sigma_copies_seed(self):
        bounds, seed = self._setup()
        params = seeding_params(delta_rope=5.0, sigma_pos=0.0, sigma_speed=0.0, rng_seed=0)
        pop = initial_population(seed, 10, bounds, params)
        assert np.array_equal(pop, np.tile(seed, (10, 1)))

    def test_first_individual_is_seed(self):
        bounds, seed = self._setup()
        params = seeding_params(delta_rope=5.0, rng_seed=5)
        pop = initial_population(seed, 40, bounds, params)
        assert np.array_equal(pop[0], seed)

    def test_weights_not_perturbed(self):
        bounds, seed = self._setup()
        params = seeding_params(delta_rope=5.0, rng_seed=5)
        pop = initial_population(seed, 40, bounds, params)
        ends, rows = _layout_views(pop)
        assert np.all(ends == 1.0) and np.all(rows[..., 4] == 1.0)

    def test_noise_matches_index_reference(self):
        # Reference: entry j of the flat layout [w0, (x, y, z, speed, w) * k,
        # wn] gets sigma_pos (x, y, z), sigma_speed (speed) or no noise.
        bounds, seed = self._setup()
        params = seeding_params(delta_rope=5.0, sigma_pos=0.5, sigma_speed=0.2, rng_seed=11)
        pop = initial_population(seed, 40, bounds, params)
        noise = np.random.default_rng(11).standard_normal((39, len(seed)))
        expected = np.tile(seed, (40, 1))
        for j in range(1, len(seed) - 1):
            kind = (j - 1) % 5
            if kind < 4:
                sigma = params.sigma_pos if kind < 3 else params.sigma_speed
                expected[1:, j] += sigma * noise[:, j]
        assert np.array_equal(pop, bounds.clip(expected))
        assert not np.array_equal(pop[1:], np.tile(seed, (39, 1)))

    def test_all_within_bounds_bulk(self):
        bounds, seed = self._setup()
        params = seeding_params(delta_rope=5.0, sigma_pos=30.0, sigma_speed=5.0, rng_seed=9)
        pop = initial_population(seed, 10_000, bounds, params)
        assert np.all(pop >= bounds.lower) and np.all(pop <= bounds.upper)

    def test_reproducible_bit_exact(self):
        bounds, seed = self._setup()
        params = seeding_params(delta_rope=5.0, rng_seed=123)
        p1 = initial_population(seed, 40, bounds, params)
        p2 = initial_population(seed, 40, bounds, params)
        assert np.array_equal(p1, p2)


class TestFeasibleSeedRepair:
    def test_narrow_gap_tightens_spacing(self):
        # A coarse rope spacing cuts the corner through the wall after
        # smoothing; the repair loop must halve it until feasible.
        env = wall_with_gap_env()
        params = seeding_params(delta_rope=8.0, rng_seed=2)
        seed = build_feasible_seed(
            env, [2, 5, 5], [18, 5, 5], 1.0, 1.0, 1.0, 3, 50, 2.2, 0.5, params
        )
        assert seed.halvings <= 3
        from riskplan.costs import check_constraints
        from riskplan.moo import decode
        from riskplan.nurbs import sample_uniform

        curve = decode(seed.decision, [2, 5, 5], [18, 5, 5], 1.0, 1.0, 3)
        report = check_constraints(sample_uniform(curve, 50), env, 2.2, 0.5)
        assert report.feasible


class TestAcceptedSeedIsBatchFeasible:
    """A seed that ``build_feasible_seed`` accepts is feasible by the rule
    that scores the population: ``moo.evaluate_batch`` of its decision, in
    the plan's own context from ``pipeline._prepare_run``, reads both
    violations as exactly 0."""

    @staticmethod
    def batch_violations(scn, env, power):
        seed, ctx, _, _ = _prepare_run(scn, env, power)
        return evaluate_batch(seed.decision[None], ctx)[1][0].tolist()

    @pytest.fixture(scope="class")
    def corridor(self):
        scn = load_scenario(ROOT / "scenarios" / "corridor.json")
        power = fit_quadric(load_power_samples(scn.power_calibration))
        return scn, build_scenario_environment(scn), power

    @pytest.mark.parametrize("rng_seed", range(7, 17))
    def test_corridor(self, corridor, rng_seed):
        scn, env, power = corridor
        assert self.batch_violations(replace(scn, rng_seed=rng_seed), env, power) == [0.0, 0.0]

    def test_city_world_7(self):
        perfbench = str(ROOT / "perfbench")
        sys.path.insert(0, perfbench)
        try:
            city = importlib.import_module("city")
        finally:
            sys.path.remove(perfbench)
        scn = scenario_from_dict(city.city_scenario(7)[0], base_dir=ROOT / "scenarios")
        power = fit_quadric(load_power_samples(scn.power_calibration))
        env = build_scenario_environment(scn)
        assert self.batch_violations(scn, env, power) == [0.0, 0.0]
