from __future__ import annotations

import gc
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import corridor_scenario_dict, make_corridor_scenario, write_power_csv
from riskplan.cli import main
from riskplan.costs import check_constraints
import riskplan.moo as moo_mod
import riskplan.nurbs as nurbs_mod
import riskplan.pipeline as pipeline_mod
from riskplan.errors import FitError, ValidationError
from riskplan.moo import Front, GenerationStats, _decode_batch, decode, evaluate
from riskplan.nurbs import sample_uniform
from riskplan.pipeline import (
    GenerationLog,
    build_scenario_environment,
    fit_power_report,
    load_front,
    plan,
    sweep,
    trajectory_metrics,
    write_result,
)
from riskplan.power import PowerQuadricModel, power_for_directions
from riskplan.voting import RiskState, adjust_coefficients, vote, votes


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    scn = make_corridor_scenario(tmp, n_gen=200)
    out = tmp / "out"
    result = plan(scn, out_dir=out)
    return scn, result, out


class TestPlanOutputs:
    def test_front_nonempty_and_files_written(self, planned):
        _, result, out = planned
        assert len(result.front) >= 2
        for name in ("pareto.json", "trajectory.csv", "generations.csv", "metadata.json"):
            assert (out / name).exists()

    def test_pareto_roundtrip_reevaluation(self, planned):
        # Reloading the stored decisions and re-evaluating reproduces the
        # stored cost vectors.
        scn, result, out = planned
        front, context = load_front(out / "pareto.json")
        assert context["rng_seed"] == scn.rng_seed
        ctx = result.context
        for stored in front:
            again = evaluate(stored.decision, ctx)
            assert again.costs.time_s == pytest.approx(stored.costs.time_s, abs=1e-9)
            assert again.costs.safety == pytest.approx(stored.costs.safety, abs=1e-9)
            assert again.costs.energy_j == pytest.approx(stored.costs.energy_j, abs=1e-9)

    def test_emitted_samples_are_the_scored_samples(self, planned):
        # sample_uniform and the optimizer's batch decode share one
        # evaluator, and a row's bits do not depend on the batch size, so
        # every member re-samples to the exact scored rows, and the emitted
        # one-member decode is the selected row.
        scn, result, _ = planned
        ctx = result.context
        planes = _decode_batch(result.front.decisions, ctx)
        for i, ind in enumerate(result.front):
            curve = decode(
                ind.decision, scn.start, scn.goal, scn.v_start, scn.v_goal, scn.hyper.degree
            )
            assert np.array_equal(sample_uniform(curve, scn.hyper.n_nurbs), planes[:, i])
        assert result.samples.dtype == np.float64
        assert np.array_equal(result.samples, planes[:, result.selected_index])

    def test_emitted_timeline_and_powers_match_scored_costs(self, planned):
        # The emitted timeline and power profile share the segment-time and
        # segment-power helpers with the time and energy kernels.
        _, result, _ = planned
        member = result.front[result.selected_index]
        times, powers = result.sample_times, result.sample_powers
        assert times[-1] == pytest.approx(member.costs.time_s, rel=1e-12)
        energy = np.sum(powers[1:] * np.diff(times))
        assert energy == pytest.approx(member.costs.energy_j, rel=1e-12)

    def test_emitted_trajectory_satisfies_constraints(self, planned):
        scn, result, _ = planned
        env = result.context.env
        report = check_constraints(result.samples, env, scn.hyper.a_max, scn.hyper.r_uav)
        assert report.max_accel_violation <= 1e-9
        assert report.collision_violation <= 1e-9

    def test_trajectory_csv_shape(self, planned):
        scn, _, out = planned
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t_s,x_m,y_m,z_m,speed_mps,power_w"
        assert len(lines) == 1 + scn.hyper.n_nurbs
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:4] == pytest.approx(list(scn.start))

    def test_rerun_byte_identical_result_files(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=60)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        plan(scn, out_dir=out1)
        plan(scn, out_dir=out2)
        for name in ("pareto.json", "trajectory.csv", "generations.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_metadata_records_seed(self, planned):
        scn, _, out = planned
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["rng_seed"] == scn.rng_seed
        assert "timings" in meta

    def test_generation_log_matches_interface(self, planned):
        scn, result, out = planned
        lines = (out / "generations.csv").read_text().strip().splitlines()
        assert lines[0] == "gen,front_size,best_time,best_safety,best_energy"
        assert len(lines) == 1 + scn.hyper.n_gen
        log = result.generation_log
        assert log.front_size.dtype == np.int64
        assert log.front_size.shape == (scn.hyper.n_gen,)
        assert log.best.dtype == np.float64
        assert log.best.shape == (scn.hyper.n_gen, 3)


def object_writer_bytes(stats_log) -> bytes:
    """Reference: generations.csv as written from one GenerationStats per
    generation, before the log was kept in columns."""
    lines = ["gen,front_size,best_time,best_safety,best_energy\n"]
    for stats in stats_log:
        best = ",".join(f"{v:.10g}" for v in stats.best)
        lines.append(f"{stats.generation},{stats.front_size},{best}\n")
    return "".join(lines).encode()


class TestGenerationLog:
    def test_csv_bytes_match_object_writer(self, tmp_path, monkeypatch):
        # Tee every GenerationStats the optimiser sends into a list, then
        # compare the columns' file with the per-object writer's bytes.
        stats_log = []
        run_nsga2 = pipeline_mod.run_nsga2

        def teed(ctx, population, params, progress_sink):
            def sink(stats):
                stats_log.append(stats)
                progress_sink(stats)

            return run_nsga2(ctx, population, params, progress_sink=sink)

        monkeypatch.setattr(pipeline_mod, "run_nsga2", teed)
        scn = make_corridor_scenario(tmp_path, n_gen=60)
        plan(scn, out_dir=tmp_path / "out")
        assert [stats.generation for stats in stats_log] == list(range(1, 61))
        written = (tmp_path / "out" / "generations.csv").read_bytes()
        assert written == object_writer_bytes(stats_log)

    def test_empty_fronts_and_nan_rows_match_object_writer(self, planned, tmp_path):
        nan = float("nan")
        stats_log = [
            GenerationStats(generation=1, front_size=0, best=(nan, nan, nan)),
            GenerationStats(generation=2, front_size=3, best=(12.5, 0.0, 1e-300)),
            GenerationStats(generation=3, front_size=0, best=(nan, nan, nan)),
            GenerationStats(generation=4, front_size=40, best=(1234567.891234567, 5e-324, 2.0**60)),
            GenerationStats(generation=5, front_size=1, best=(0.1 + 0.2, 1 / 3, 9.999999999e-5)),
        ]
        log = GenerationLog.allocate(len(stats_log))
        for stats in stats_log:
            log.record(stats)
        scn, result, _ = planned
        paths = write_result(replace(result, generation_log=log), scn, tmp_path)
        assert paths["generations"].read_bytes() == object_writer_bytes(stats_log)

    def test_retained_log_costs_at_most_48_bytes_per_generation(self, tmp_path):
        # Two columns cost 8 + 24 bytes a generation plus fixed headers;
        # one object per generation cost about 265. Measured as what a
        # plan's result frees when only its log is dropped.
        n_gen = 200
        scn = make_corridor_scenario(tmp_path, n_gen=n_gen)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            result = plan(scn)
            kept = replace(result, generation_log=None)  # shares every other field
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            del result
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert kept.front
        assert freed / n_gen <= 48


class TestFront:
    """The front is one columnar value from the optimiser to pareto.json and
    every ballot; a member object is built only by indexing it."""

    def test_no_member_object_built_by_plan_reload_vote_or_sweep(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a front member object was built")

        monkeypatch.setattr(moo_mod, "EvaluatedIndividual", refuse)
        scn = make_corridor_scenario(tmp_path, n_gen=30)
        result = plan(scn, out_dir=tmp_path / "out")
        front, _ = load_front(tmp_path / "out" / "pareto.json")
        assert 0 <= vote(front, adjust_coefficients(RiskState(wind=1.0))) < len(front)
        assert len(sweep(scn, {"kind": "coefficients", "spacing": 0.1})) == 66
        path = tmp_path / "corridor.json"
        path.write_text(json.dumps(corridor_scenario_dict(tmp_path / "power.csv", n_gen=30)))
        assert main(["plan", str(path), "--out", str(tmp_path / "cli")]) == 0
        assert main(["vote", str(tmp_path / "cli" / "pareto.json"), "--risks", "1,0,0,0"]) == 0
        with pytest.raises(AssertionError, match="member object"):
            result.front[0]

    def test_members_are_their_columns(self, planned):
        front = planned[1].front
        members = list(front)
        assert len(members) == len(front) >= 2
        for m, member in enumerate(members):
            c, v = member.costs, member.constraints
            costs = (c.time_s, c.safety, c.energy_j)
            violations = (v.max_accel_violation, v.collision_violation)
            assert all(type(x) is float for x in costs + violations)
            assert member.decision.dtype == np.float64
            assert member.decision.tobytes() == front.decisions[m].tobytes()
            assert np.array(costs).tobytes() == front.costs[m].tobytes()
            assert np.array(violations).tobytes() == front.violations[m].tobytes()
            assert member.feasible
        member.decision[:] = np.nan  # a copy: the front is unchanged
        assert not np.isnan(front.decisions).any()
        assert front[-1].decision.tobytes() == front.decisions[-1].tobytes()
        assert front[-len(front)].costs == members[0].costs
        for m in (len(front), -len(front) - 1):
            with pytest.raises(IndexError):
                front[m]

    def test_load_front_reads_the_written_columns(self, planned):
        _, result, out = planned
        front, _ = load_front(out / "pareto.json")
        assert isinstance(front, Front)
        for name in ("decisions", "costs", "violations"):
            assert np.array_equal(getattr(front, name), getattr(result.front, name))


class TestRiskEffect:
    def test_wind_risk_increases_obstacle_distance(self, tmp_path):
        # Statistical over seeds: re-voting the same fronts under high wind
        # risk must not pick trajectories closer to obstacles on average.
        distances = {"calm": [], "windy": []}
        for seed in range(6):
            scn = make_corridor_scenario(tmp_path, rng_seed=seed, n_gen=250)
            result = plan(scn)
            env = result.context.env
            for label, risks in (("calm", RiskState()), ("windy", RiskState(wind=1.0))):
                weights = adjust_coefficients(risks)
                idx = vote(result.front, weights)
                ind = result.front[idx]
                curve = decode(
                    ind.decision, scn.start, scn.goal, scn.v_start, scn.v_goal, scn.hyper.degree
                )
                metrics = trajectory_metrics(
                    sample_uniform(curve, scn.hyper.n_nurbs), env, scn.hyper.v_floor
                )
                distances[label].append(metrics["mean_obstacle_distance_m"])
        assert np.mean(distances["windy"]) >= np.mean(distances["calm"])


class TestOutputLocation:
    def test_file_in_the_way_fails_before_building(self, tmp_path, monkeypatch):
        # Called as a library, plan and sweep check an out_dir first.
        scn = make_corridor_scenario(tmp_path, n_gen=20)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")

        def refuse(*args, **kwargs):
            raise AssertionError("built the environment before checking out_dir")

        monkeypatch.setattr(pipeline_mod, "build_scenario_environment", refuse)
        message = re.escape(f"output directory {taken}: ")
        with pytest.raises(ValidationError, match=message):
            plan(scn, out_dir=taken)
        spec = {"kind": "risk", "axis": "wind", "step": 0.5}
        with pytest.raises(ValidationError, match=message):
            sweep(scn, spec, out_dir=taken)


class TestSweep:
    def test_battery_axis_has_11_rows(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=100)
        rows = sweep(scn, {"kind": "risk", "axis": "battery", "start": 0, "stop": 1, "step": 0.1})
        assert len(rows) == 11
        assert rows[0]["value"] == 0.0
        assert rows[-1]["value"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "spec, values",
        [
            ({"start": 0, "stop": 0.5, "step": 0.3}, [0.0, 0.3]),
            ({"stop": 0.9, "step": 0.35}, [0.0, 0.35, 0.7]),
        ],
        ids=["short-last-step", "step-past-one"],
    )
    def test_risk_sweep_stops_at_stop(self, tmp_path, spec, values):
        scn = make_corridor_scenario(tmp_path, n_gen=20)
        rows = sweep(scn, {"kind": "risk", "axis": "wind", **spec})
        assert [row["value"] for row in rows] == pytest.approx(values)

    def test_coefficient_simplex_66_rows(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=100)
        out = tmp_path / "sweep_out"
        rows = sweep(scn, {"kind": "coefficients", "spacing": 0.1}, out_dir=out)
        assert len(rows) == 66
        assert (out / "sweep.csv").exists()
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert "k_time" in header and "mean_obstacle_distance_m" in header

    def test_selections_are_front_members(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=100)
        result = plan(scn)
        rows = sweep(scn, {"kind": "risk", "axis": "wind", "step": 0.25})
        for row in rows:
            assert 0 <= row["selected_index"] < len(result.front)
            match = [
                ind
                for ind in result.front
                if ind.costs.time_s == pytest.approx(row["time_s"], abs=1e-9)
            ]
            assert match

    def test_invalid_spec(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=100)
        with pytest.raises(ValidationError):
            sweep(scn, {"kind": "nope"})
        with pytest.raises(ValidationError):
            sweep(scn, {"kind": "risk", "axis": "sunspots"})

    def test_spec_problems_reported_together(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=20)
        spec = {"kind": "risk", "axis": "sunspots", "stop": float("inf"), "step": True}
        with pytest.raises(ValidationError) as info:
            sweep(scn, spec)
        fields = [v.split(":")[0] for v in info.value.violations]
        assert fields == ["sweep.axis", "sweep.stop", "sweep.step"]

    def test_grid_size_reported_with_other_problems(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=20)
        with pytest.raises(ValidationError) as info:
            sweep(scn, {"kind": "risk", "axis": "sunspots", "step": 1e-9})
        assert info.value.violations[1:] == ["sweep: 1e+09 grid points, more than 1000000"]
        assert info.value.violations[0].startswith("sweep.axis:")

    def test_sweep_deterministic(self, tmp_path):
        scn = make_corridor_scenario(tmp_path, n_gen=60)
        r1 = sweep(scn, {"kind": "risk", "axis": "battery", "step": 0.5})
        r2 = sweep(scn, {"kind": "risk", "axis": "battery", "step": 0.5})
        assert r1 == r2


class TestOneSampler:
    """Emitted members are sampled only in the plan's context, by the
    optimiser's batch decode. ``moo.make_context`` holds its own reference
    to ``basis_rows``, so the module attribute counts only the bases built
    for single curves (``sample_uniform``), which the seed check alone
    needs: one per seed attempt."""

    def test_emission_builds_no_basis_of_its_own(self, tmp_path, monkeypatch):
        calls = []
        basis_rows = nurbs_mod.basis_rows

        def counted(*args):
            calls.append(args)
            return basis_rows(*args)

        monkeypatch.setattr(nurbs_mod, "basis_rows", counted)
        scn = make_corridor_scenario(tmp_path, n_gen=60)
        result = plan(scn)
        seed_attempts = result.metadata["seed_halvings"] + 1
        assert len(calls) == seed_attempts
        calls.clear()
        table = sweep(scn, {"kind": "coefficients"})
        assert len(set(table.selected_index.tolist())) >= 2
        assert len(calls) == seed_attempts


class TestSweepTable:
    """``sweep`` votes once per grid and scores each selected member once;
    its rows read as the per-point loop built them."""

    def test_one_ballot_matches_per_weight_votes(self, planned):
        scn, result, _ = planned
        _, _, lattice = pipeline_mod._sweep_points(scn, {"kind": "coefficients", "spacing": 0.02})
        assert len(lattice) == 1326
        picks = votes(result.front, lattice)
        assert len(set(picks)) > 1
        assert picks == [vote(result.front, w) for w in lattice]

    def test_member_metrics_once_per_selected_member(self, tmp_path, monkeypatch):
        scored = []
        member_metrics = pipeline_mod._member_metrics

        def counted(front, members, ctx):
            members = list(members)
            scored.extend(front.decisions[m].tobytes() for m in members)
            return member_metrics(front, members, ctx)

        monkeypatch.setattr(pipeline_mod, "_member_metrics", counted)
        table = sweep(make_corridor_scenario(tmp_path, n_gen=60), {"kind": "coefficients"})
        selected = set(table.selected_index.tolist())
        assert len(selected) > 1
        assert len(scored) == len(set(scored)) == len(selected) == len(table.metrics)

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "coefficients", "spacing": 0.1}, {"kind": "risk", "axis": "wind", "step": 0.25}],
        ids=["coefficients", "risk"],
    )
    def test_rows_match_per_point_rows(self, tmp_path, spec):
        scn = make_corridor_scenario(tmp_path, n_gen=60)
        table = sweep(scn, spec)
        base = plan(scn, env=build_scenario_environment(scn))
        front = base.front
        axis, values, weights = pipeline_mod._sweep_points(scn, spec)
        rows = []
        for p, w in enumerate(weights):
            index = vote(front, w)
            rows.append({
                **({} if axis is None else {"axis": axis, "value": values[p]}),
                "k_time": w.k_time, "k_safety": w.k_safety, "k_energy": w.k_energy,
                "selected_index": index,
                **pipeline_mod._member_metrics(front, [index], base.context)[index],
            })

        assert len(table) == len(rows)
        assert table == rows and list(table) == rows
        assert table[-1] == rows[-1] and table[-len(rows)] == rows[0]
        assert table[1:3] == rows[1:3]
        with pytest.raises(IndexError):
            table[len(rows)]
        for got, want in zip(table, rows):
            assert list(got) == list(want)
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
        assert table != rows[:-1]
        assert table != [*rows[:-1], {**rows[-1], "k_time": -1.0}]
        table[0]["k_time"] = -1.0  # a row is a new dict on every access
        assert table[0] == rows[0]


def synthetic_dataset(rng, truth, n_extra=36, noise=0.0):
    from conftest import AXIS_DIRECTIONS

    dirs = [np.array(d, dtype=float) for d in AXIS_DIRECTIONS]
    extra = rng.standard_normal((n_extra, 3))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    dirs.extend(extra)
    rows = ["vx,vy,vz,power_w"]
    for d in dirs:
        p, ok = power_for_directions(truth, d[None, :])
        assert ok[0]
        power = float(p[0]) + (rng.normal(0.0, noise) if noise else 0.0)
        rows.append(f"{d[0]:.12g},{d[1]:.12g},{d[2]:.12g},{max(power, 1.0):.12g}")
    return "\n".join(rows) + "\n"


TRUTH = PowerQuadricModel(
    a=-1 / 600.0**2, b=-1 / 600.0**2, c=-1 / 640.0**2,
    g=0.0, h=0.0, k=3.0e-4, hover_power=600.0,
)


class TestFitPowerReport:
    def test_zero_noise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "cal.csv"
        path.write_text(synthetic_dataset(rng, TRUTH, noise=0.0))
        model, report = fit_power_report(path)
        assert report["n_fit"] == 6
        assert report["n_validation"] == 36
        assert report["mean_error_w"] == pytest.approx(0.0, abs=1e-6)
        assert report["sigma_w"] == pytest.approx(0.0, abs=1e-6)

    def test_noisy_sigma_recovered(self, tmp_path):
        # 20 trials at noise sigma=50 W: the average reported sigma lands
        # near the injected noise level.
        sigmas = []
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            path = tmp_path / f"cal_{trial}.csv"
            path.write_text(synthetic_dataset(rng, TRUTH, noise=50.0))
            _, report = fit_power_report(path)
            sigmas.append(report["sigma_w"])
        assert 30.0 <= np.mean(sigmas) <= 80.0

    def test_missing_axis_samples(self, tmp_path):
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((10, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rows = ["vx,vy,vz,power_w"] + [
            f"{d[0]:.6g},{d[1]:.6g},{d[2]:.6g},600" for d in dirs
        ]
        path = tmp_path / "cal.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(FitError, match="axis"):
            fit_power_report(path)

    def test_holdout_fraction_subsamples(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "cal.csv"
        path.write_text(synthetic_dataset(rng, TRUTH, noise=10.0))
        _, full = fit_power_report(path, holdout_fraction=1.0)
        _, half = fit_power_report(path, holdout_fraction=0.5)
        assert half["n_validation"] == 18
        assert full["n_validation"] == 36

    def test_limits_of_agreement_bracket_mean(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "cal.csv"
        path.write_text(synthetic_dataset(rng, TRUTH, noise=25.0))
        _, report = fit_power_report(path)
        lo, hi = report["limits_of_agreement_w"]
        assert lo <= report["mean_error_w"] <= hi
        assert hi - lo == pytest.approx(2 * 1.96 * report["sigma_w"])
