from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    asymmetric_model,
    make_corridor_scenario,
    moo_params,
    safety_params,
    seeding_params,
)
from riskplan.environment import DomainBox, build_environment
from riskplan.errors import DecodeError, ValidationError
from riskplan.moo import (
    _crowding_from_arrays,
    _dominance_matrix,
    _fronts_from_arrays,
    _layout_views,
    _mutation_batch,
    _sbx_batch,
    _select_survivors,
    build_bounds,
    decision_arity,
    decode,
    evaluate,
    make_context,
    nsga2_minimize,
    run_nsga2,
)
from riskplan.nurbs import sample_uniform
from riskplan.pipeline import plan
from riskplan.seeding import initial_population


def brute_force_fronts(objs, violations):
    """Oracle: repeatedly peel the non-dominated subset, O(n^2) pairwise."""

    def dominates(a, b):
        fa, fb = violations[a] <= 0.0, violations[b] <= 0.0
        if fa and not fb:
            return True
        if not fa and not fb:
            return violations[a] < violations[b]
        if not fa:
            return False
        return bool(np.all(objs[a] <= objs[b]) and np.any(objs[a] < objs[b]))

    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [
            i for i in remaining if not any(dominates(j, i) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


class TestDecisionVector:
    START, GOAL = np.array([0.0, 0, 0]), np.array([10.0, 0, 0])

    def _decision(self, rng, n_interior=4):
        d = rng.uniform(0.5, 2.0, decision_arity(n_interior))
        return d

    def test_arity(self):
        assert decision_arity(4) == 22

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        z = self._decision(rng)
        curve = decode(z, self.START, self.GOAL, 1.0, 1.0, 3)
        ends, rows = _layout_views(z)
        assert curve.weights[[0, -1]] == pytest.approx(ends)
        assert curve.control_points[1:-1] == pytest.approx(rows[:, :4])
        assert curve.weights[1:-1] == pytest.approx(rows[:, 4])

    def test_endpoints_fixed(self):
        rng = np.random.default_rng(2)
        z = self._decision(rng)
        curve = decode(z, self.START, self.GOAL, 1.0, 0.5, 3)
        assert curve.control_points[0] == pytest.approx([0, 0, 0, 1.0])
        assert curve.control_points[-1] == pytest.approx([10, 0, 0, 0.5])
        samples = sample_uniform(curve, 11)
        assert samples[:3, 0] == pytest.approx(self.START)
        assert samples[:3, -1] == pytest.approx(self.GOAL)

    def test_endpoint_weight_changes_shape_not_endpoint(self):
        rng = np.random.default_rng(3)
        z = self._decision(rng)
        z2 = z.copy()
        z2[0] *= 3.0
        c1 = decode(z, self.START, self.GOAL, 1.0, 1.0, 3)
        c2 = decode(z2, self.START, self.GOAL, 1.0, 1.0, 3)
        s1, s2 = sample_uniform(c1, 11), sample_uniform(c2, 11)  # parameters k / 10
        p1, p2 = s1.T, s2.T  # (x, y, z, speed) rows
        assert np.array_equal(p1[0], p2[0])
        assert np.linalg.norm(p1[1] - p2[1]) > 1e-9

    def test_arity_mismatch(self):
        with pytest.raises(DecodeError):
            decode(np.zeros(21), self.START, self.GOAL, 1.0, 1.0, 3)

    def test_bounds_layout(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[10, 20, 30], v_max=2.0)
        bounds = build_bounds(domain, n_interior=2, v_floor=0.1, weight_bounds=(0.1, 10.0))
        assert bounds.lower[0] == 0.1 and bounds.upper[0] == 10.0  # w0
        assert bounds.lower[1] == 0.0 and bounds.upper[1] == 10.0  # x1
        assert bounds.lower[3] == 0.0 and bounds.upper[3] == 30.0  # z1
        assert bounds.lower[4] == 0.1 and bounds.upper[4] == 2.0  # speed
        assert bounds.lower[5] == 0.1 and bounds.upper[5] == 10.0  # w1


class TestNonDominatedSort:
    def test_simple_domination(self):
        objs = np.array([[1, 1, 1], [2, 2, 2]], dtype=float)
        fronts = _fronts_from_arrays(objs, np.zeros(2))
        assert [f.tolist() for f in fronts] == [[0], [1]]

    def test_mutually_non_dominated(self):
        objs = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=float)
        fronts = _fronts_from_arrays(objs, np.zeros(3))
        assert [f.tolist() for f in fronts] == [[0, 1, 2]]

    def test_feasible_dominates_infeasible(self):
        objs = np.array([[100, 100, 100], [1, 1, 1]], dtype=float)
        fronts = _fronts_from_arrays(objs, np.array([0.0, 0.5]))
        assert [f.tolist() for f in fronts] == [[0], [1]]

    def test_infeasible_ordered_by_violation(self):
        objs = np.array([[1, 1, 1], [9, 9, 9]], dtype=float)
        fronts = _fronts_from_arrays(objs, np.array([2.0, 0.5]))
        assert [f.tolist() for f in fronts] == [[1], [0]]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 64))
        objs = np.empty((n, 3))
        viol = np.zeros(n)
        for i in range(n):
            objs[i] = rng.integers(0, 6, 3)  # ties likely
            infeasible = rng.random() < 0.3
            viol[i] = float(rng.integers(1, 4)) if infeasible else 0.0
        got = [sorted(f.tolist()) for f in _fronts_from_arrays(objs, viol)]
        want = [sorted(f) for f in brute_force_fronts(objs, viol)]
        assert got == want


def random_scores(rng, n):
    """Objectives and total violations with ties, duplicated members and
    infeasible members, as (objs (n, 3), violations (n,))."""
    objs = rng.integers(0, 5, (n, 3)).astype(float)
    viol = np.where(rng.random(n) < 0.3, rng.integers(1, 4, n).astype(float), 0.0)
    dup = rng.choice(n, n // 5, replace=False)
    src = rng.choice(n, len(dup))
    objs[dup] = objs[src]
    viol[dup] = viol[src]
    return objs, viol


def full_peel_survivors(objs, violations, n_survivors):
    """Environmental selection from the complete non-dominated sort."""
    chosen = []
    ranks = np.empty(len(objs), dtype=int)
    crowd = np.empty(len(objs))
    for rank, front in enumerate(_fronts_from_arrays(objs, violations)):
        ranks[front] = rank
        crowd[front] = _crowding_from_arrays(objs[front])
        if len(chosen) + len(front) <= n_survivors:
            chosen.extend(front.tolist())
        else:
            order = np.argsort(-crowd[front], kind="stable")
            chosen.extend(front[order[: n_survivors - len(chosen)]].tolist())
        if len(chosen) >= n_survivors:
            break
    idx = np.array(chosen, dtype=int)
    return idx, ranks[idx], crowd[idx]


class TestEarlyStopSort:
    @pytest.mark.parametrize("seed", range(20))
    def test_survivors_match_full_peel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 100))
        objs, viol = random_scores(rng, n)
        for n_survivors in sorted({1, 5, n // 2, n - 1, n}):
            got = _select_survivors(objs, viol, n_survivors)
            want = full_peel_survivors(objs, viol, n_survivors)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("seed", range(20))
    def test_partial_fronts_are_minimal_prefix(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 100))
        objs, viol = random_scores(rng, n)
        full = _fronts_from_arrays(objs, viol)
        assert sum(len(f) for f in full) == n
        for n_required in (0, 1, 2, n // 3, n - 1, n, n + 5):
            part = _fronts_from_arrays(objs, viol, n_required)
            assert len(part) <= len(full)
            for p, f in zip(part, full):
                assert np.array_equal(p, f)
            sizes = [len(f) for f in part]
            assert sum(sizes) >= min(n_required, n)
            assert sum(sizes[:-1]) < n_required or not part


class TestCrowdingDistance:
    def test_small_front_all_infinite(self):
        objs = np.array([[1, 2, 3], [3, 2, 1]], dtype=float)
        assert np.all(np.isinf(_crowding_from_arrays(objs)))

    def test_line_in_two_objectives(self):
        # Three equally spaced points along a line in the (time, safety)
        # plane, energy constant: the middle point accumulates one full
        # normalized gap per varying objective.
        objs = np.array([[0.0, 0.0, 5.0], [1.0, 1.0, 5.0], [2.0, 2.0, 5.0]])
        d = _crowding_from_arrays(objs)
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_interior_duplicates_get_zero(self):
        objs = np.array([[0.0] * 3, [1.0] * 3, [1.0] * 3, [1.0] * 3, [2.0] * 3])
        d = _crowding_from_arrays(objs)
        assert d[2] == 0.0


class TestVariationOperators:
    def test_sbx_rate_zero_copies(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(8), rng.random(8)
        c1, c2 = _sbx_batch(a[None], b[None], np.zeros(8), np.ones(8), rate=0.0, eta=10, rng=rng)
        assert np.array_equal(c1[0], a) and np.array_equal(c2[0], b)

    def test_sbx_identical_parents(self):
        rng = np.random.default_rng(1)
        a = rng.random(8)
        c1, c2 = _sbx_batch(a[None], a[None], np.zeros(8), np.ones(8), rate=1.0, eta=10, rng=rng)
        assert np.array_equal(c1[0], a) and np.array_equal(c2[0], a)

    def test_sbx_children_within_bounds_bulk(self):
        rng = np.random.default_rng(2)
        n = 100_000
        lower, upper = np.zeros(6), np.ones(6)
        pa, pb = rng.random((n, 6)), rng.random((n, 6))
        c1, c2 = _sbx_batch(pa, pb, lower, upper, rate=1.0, eta=2.0, rng=rng)
        for c in (c1, c2):
            assert np.all(c >= lower) and np.all(c <= upper)

    def test_mutation_rate_zero_identity(self):
        rng = np.random.default_rng(3)
        v = rng.random(8)
        assert np.array_equal(_mutation_batch(v[None], np.zeros(8), np.ones(8), 0.0, 20, rng)[0], v)

    def test_mutation_within_bounds_bulk(self):
        rng = np.random.default_rng(4)
        n = 100_000
        lower, upper = np.zeros(6), np.ones(6)
        pop = rng.random((n, 6))
        mutated = _mutation_batch(pop, lower, upper, rate=1.0, eta=5.0, rng=rng)
        assert np.all(mutated >= lower) and np.all(mutated <= upper)

    def test_mutation_shrinks_with_eta(self):
        rng = np.random.default_rng(5)
        n = 100_000
        lower, upper = np.zeros(4), np.ones(4)
        pop = np.full((n, 4), 0.5)
        d20 = np.abs(_mutation_batch(pop, lower, upper, 1.0, 20.0, rng) - 0.5).mean()
        d100 = np.abs(_mutation_batch(pop, lower, upper, 1.0, 100.0, rng) - 0.5).mean()
        assert d100 < d20


def three_comparison_dominance(objs, violations):
    """``_dominance_matrix`` with the strict Pareto part built from its own
    ``<`` comparisons, as before ``leq & ~leq.T``."""
    feas = violations <= 0.0
    col = objs[:, 0]
    leq = col[:, None] <= col[None, :]
    lt = col[:, None] < col[None, :]
    for k in range(1, objs.shape[1]):
        col = objs[:, k]
        leq &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    pareto = leq & lt
    fi = feas[:, None]
    fj = feas[None, :]
    less_violation = violations[:, None] < violations[None, :]
    return (fi & ~fj) | (~fi & ~fj & less_violation) | (fi & fj & pareto)


def full_array_mutation(pop, lower, upper, rate, eta, rng):
    """``_mutation_batch`` with its arithmetic on every entry, applied or not."""
    n, d = pop.shape
    apply = rng.random((n, d)) < rate
    u = rng.random((n, d))
    span = upper - lower
    delta1 = (pop - lower) / span
    delta2 = (upper - pop) / span
    exp = eta + 1.0
    low_side = u < 0.5
    val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta1) ** exp
    val_high = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta2) ** exp
    deltaq = np.where(low_side, val_low ** (1.0 / exp) - 1.0, 1.0 - val_high ** (1.0 / exp))
    mutated = np.clip(pop + deltaq * span, lower, upper)
    return np.where(apply, mutated, pop)


class TestLoopKernelReferences:
    """The rewritten loop kernels keep every bit of their earlier forms."""

    @pytest.mark.parametrize("seed", range(8))
    def test_dominance_matches_three_comparison_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        objs, viol = random_scores(rng, n)
        if seed % 2:
            # Equal violations among infeasible members, and negative and
            # exactly zero totals among feasible ones.
            viol = np.where(viol > 0, 1.0, -rng.integers(0, 2, n).astype(float))
        if seed % 4 == 3:
            objs[rng.random(objs.shape) < 0.05] = np.nan
            viol[rng.random(n) < 0.05] = np.nan
        assert np.array_equal(_dominance_matrix(objs, viol), three_comparison_dominance(objs, viol))

    @pytest.mark.parametrize("shape", [(40, 32), (80, 7), (3, 500), (1, 1)])
    @pytest.mark.parametrize("rate", [0.0, None, 0.3, 1.0], ids=["0", "1/D", "0.3", "1"])
    def test_mutation_matches_full_array_form(self, shape, rate):
        n, d = shape
        rng = np.random.default_rng(n * d)
        lower = rng.uniform(-5.0, 5.0, d)
        upper = lower + rng.uniform(0.1, 10.0, d)
        pop = rng.uniform(lower, upper, (n, d))
        pop[:, ::3] = lower[::3]  # entries on both bounds
        pop[:, 1::3] = upper[1::3]
        rate = 1.0 / d if rate is None else rate
        for eta in (20.0, 2.5):
            got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
            got = _mutation_batch(pop, lower, upper, rate, eta, got_rng)
            want = full_array_mutation(pop, lower, upper, rate, eta, want_rng)
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def zdt1_batch(decisions: np.ndarray):
    f1 = decisions[:, 0]
    g = 1 + 9 * decisions[:, 1:].sum(axis=1) / (decisions.shape[1] - 1)
    f2 = g * (1 - np.sqrt(f1 / g))
    return np.column_stack([f1, f2]), np.zeros(len(decisions))


def zdt1_front_distance(objs: np.ndarray) -> float:
    f1 = np.linspace(0, 1, 2001)
    front = np.column_stack([f1, 1 - np.sqrt(f1)])
    d = np.linalg.norm(objs[:, None, :] - front[None, :, :], axis=2)
    return float(d.min(axis=1).mean())


class TestEngine:
    def test_zdt1_convergence(self):
        d = 10
        params = moo_params(rng_seed=12345, n_gen=250, n_pop=40)
        rng = np.random.default_rng(99)
        initial = rng.random((40, d))
        pop, objs, viol = nsga2_minimize(
            zdt1_batch, np.zeros(d), np.ones(d), params, initial
        )
        assert zdt1_front_distance(objs) < 0.05

    def test_engine_deterministic(self):
        d = 10
        params = moo_params(rng_seed=7, n_gen=50, n_pop=40)
        rng = np.random.default_rng(1)
        initial = rng.random((40, d))
        pop1, objs1, _ = nsga2_minimize(zdt1_batch, np.zeros(d), np.ones(d), params, initial)
        pop2, objs2, _ = nsga2_minimize(zdt1_batch, np.zeros(d), np.ones(d), params, initial)
        assert np.array_equal(pop1, pop2)
        assert np.array_equal(objs1, objs2)

    def test_params_validation(self):
        params = moo_params(n_gen=10, n_pop=40)
        with pytest.raises(ValidationError):
            replace(params, n_pop=10)  # not divisible by 4
        with pytest.raises(ValidationError):
            replace(params, crossover_rate=1.5)


@pytest.fixture(scope="module")
def corridor_run(tmp_path_factory):
    scn = make_corridor_scenario(tmp_path_factory.mktemp("moo"), n_gen=300)
    result = plan(scn)
    return scn, result


class TestRunNsga2:
    def test_front_feasible_and_non_dominated(self, corridor_run):
        _, result = corridor_run
        front = result.front
        assert len(front) >= 2
        for ind in front:
            assert ind.constraints.feasible
        objs, viol = front.costs, front.violations.sum(axis=1)
        assert [f.tolist() for f in _fronts_from_arrays(objs, viol)] == [list(range(len(front)))]

    def test_front_objectives_deduplicated(self, corridor_run):
        _, result = corridor_run
        objs = result.front.costs
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                assert np.max(np.abs(objs[i] - objs[j])) > 1e-9

    def test_identical_seeds_identical_fronts(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=60)
        r1 = plan(scn)
        r2 = plan(scn)
        assert np.array_equal(r1.front.costs, r2.front.costs)
        assert np.array_equal(r1.front.decisions, r2.front.decisions)

    def test_elitism_per_objective(self, corridor_run):
        _, result = corridor_run
        best = result.generation_log.best
        assert np.all(np.diff(best, axis=0) <= 1e-12)

    def test_straight_seed_in_empty_world_feasible(self, tmp_path):
        # No obstacles: the seed flies straight and is feasible with zero
        # safety cost.
        from conftest import write_power_csv
        from riskplan.power import fit_quadric, load_power_samples
        from riskplan.seeding import build_feasible_seed

        csv = write_power_csv(tmp_path / "p.csv")
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 10, 10], v_max=2.0)
        env = build_environment(domain, resolution=0.5)
        model = fit_quadric(load_power_samples(csv))
        seed = build_feasible_seed(
            env, [2, 5, 5], [18, 5, 5], 1.0, 1.0, 1.0, 3, 50, 2.2, 0.5,
            seeding_params(delta_rope=5.0, rng_seed=0),
        )
        safety = safety_params(r_sdf_min=1, r_sdf_max=5, r_ch_max=2)
        ctx = make_context(
            env=env, power=model, safety=safety, start=[2, 5, 5], goal=[18, 5, 5],
            v_start=1.0, v_goal=1.0, degree=3, n_samples=50, a_max=2.2,
            n_interior=(len(seed.decision) - 2) // 5, v_floor=0.1, weight_bounds=(0.1, 10.0),
        )
        ind = evaluate(seed.decision, ctx)
        assert ind.constraints.feasible
        assert ind.costs.safety == 0.0

    def test_trajectory_through_obstacle_infeasible(self, tmp_path):
        from conftest import write_power_csv
        from riskplan.environment import BoxObstacle
        from riskplan.power import fit_quadric, load_power_samples
        from riskplan.seeding import polyline_to_decision_vector

        csv = write_power_csv(tmp_path / "p.csv")
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 10, 10], v_max=2.0)
        wall = BoxObstacle(min_corner=[9, 0, 0], max_corner=[11, 10, 10])
        env = build_environment(domain, [wall], resolution=0.5)
        model = fit_quadric(load_power_samples(csv))
        polyline = np.linspace([2, 5, 5], [18, 5, 5], 6)
        decision = polyline_to_decision_vector(polyline, 1.0, 3)
        safety = safety_params(r_sdf_min=1, r_sdf_max=5, r_ch_max=2)
        ctx = make_context(
            env=env, power=model, safety=safety, start=[2, 5, 5], goal=[18, 5, 5],
            v_start=1.0, v_goal=1.0, degree=3, n_samples=50, a_max=2.2, n_interior=4,
            v_floor=0.1, weight_bounds=(0.1, 10.0),
        )
        ind = evaluate(decision, ctx)
        assert not ind.constraints.feasible
        assert ind.constraints.collision_violation > 0

    def test_evaluation_deterministic(self, corridor_run, tmp_path):
        scn, result = corridor_run
        from riskplan.moo import evaluate_batch
        from riskplan.pipeline import build_scenario_environment
        from riskplan.power import fit_quadric, load_power_samples

        decision = result.front[0].decision
        ctx = result.context
        a = evaluate_batch(decision[None, :], ctx)
        b = evaluate_batch(decision[None, :], ctx)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestFinalScores:
    def test_final_population_not_rescored(self, tmp_path, monkeypatch):
        # The front carries the scores from selection: a run evaluates the
        # initial population and one offspring batch per generation, and
        # each member's carried costs equal a fresh evaluation.
        import riskplan.moo as moo_mod
        from riskplan.pipeline import _prepare_run, build_scenario_environment
        from riskplan.power import fit_quadric, load_power_samples

        scn = make_corridor_scenario(tmp_path, n_gen=30)
        env = build_scenario_environment(scn)
        model = fit_quadric(load_power_samples(scn.power_calibration))
        _, ctx, population, params = _prepare_run(scn, env, model)
        calls = []
        evaluate_batch = moo_mod.evaluate_batch

        def counted(decisions, ctx):
            calls.append(len(decisions))
            return evaluate_batch(decisions, ctx)

        monkeypatch.setattr(moo_mod, "evaluate_batch", counted)
        front = run_nsga2(ctx, population, params)
        assert calls == [params.n_pop] * (params.n_gen + 1)
        monkeypatch.undo()
        assert front
        for ind in front:
            fresh = evaluate(ind.decision, ctx)
            assert fresh.costs == ind.costs
            assert fresh.constraints == ind.constraints
