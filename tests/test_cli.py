from __future__ import annotations

import json

import numpy as np
import pytest

import riskplan.cli as cli_mod
import riskplan.pipeline as pipeline_mod
from conftest import corridor_scenario_dict, write_power_csv
from riskplan.cli import main


@pytest.fixture
def no_planning(monkeypatch):
    """Fails the test if anything gets planned, built or fitted."""

    def refuse(*args, **kwargs):
        raise AssertionError("planned before the input was validated")

    # ``cli`` binds ``plan`` and ``fit_power_report`` at import; ``sweep``
    # and ``sdf-dump`` reach the pipeline module's names.
    for module, name in (
        (pipeline_mod, "plan"), (cli_mod, "plan"), (cli_mod, "fit_power_report"),
        (pipeline_mod, "build_scenario_environment"),
    ):
        monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def scenario_file(tmp_path):
    csv = write_power_csv(tmp_path / "power.csv")
    data = corridor_scenario_dict(csv, n_gen=60)
    path = tmp_path / "corridor.json"
    path.write_text(json.dumps(data))
    return path


class TestPlanCommand:
    def test_plan_success(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["plan", str(scenario_file), "--out", str(out)])
        assert code == 0
        assert (out / "pareto.json").exists()
        assert (out / "trajectory.csv").exists()
        assert "selected #" in capsys.readouterr().out

    def test_plan_with_risk_override(self, scenario_file, tmp_path):
        out = tmp_path / "risky"
        code = main(["plan", str(scenario_file), "--out", str(out), "--risks", "1,0,0,0"])
        assert code == 0
        data = json.loads((out / "pareto.json").read_text())
        assert data["vote_weights"]["k_time"] == pytest.approx(1 / 7)

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mission": {}}))
        assert main(["plan", str(bad)]) == 2

    def test_missing_file_exit_code(self):
        assert main(["plan", "/nonexistent/scenario.json"]) == 2

    def test_planning_failure_exit_code(self, tmp_path):
        csv = write_power_csv(tmp_path / "power.csv")
        data = corridor_scenario_dict(csv, n_gen=20)
        # seal the corridor completely
        data["environment"]["obstacles"] = [
            {"type": "box", "min": [11, 0, 0], "max": [13, 16, 8]}
        ]
        data["hyperparams"]["rrt_max_iters"] = 200
        path = tmp_path / "sealed.json"
        path.write_text(json.dumps(data))
        assert main(["plan", str(path), "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize(
        "change, args",
        [
            ({"rng_seed": "abc"}, []),
            ({"rng_seed": 1.5}, []),
            ({"hyperparams": {"n_gen": "x"}}, []),
            ({"environment": []}, []),
            ({}, ["--seed", "-1"]),
        ],
        ids=["text-seed", "fractional-seed", "text-n_gen", "list-environment", "negative-seed-flag"],
    )
    def test_malformed_scenario_exit_code(self, tmp_path, capsys, change, args):
        csv = write_power_csv(tmp_path / "power.csv")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**corridor_scenario_dict(csv, n_gen=20), **change}))
        assert main(["plan", str(path), "--out", str(tmp_path / "out"), *args]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("v_cruise", [-1, 100], ids=["negative", "above-v_max"])
    def test_v_cruise_outside_speed_bounds_exit_code(self, tmp_path, capsys, no_planning, v_cruise):
        # The seed's cruise speed must lie within the speed entries' decision
        # bounds [v_floor, v_max]; it is rejected at load, before planning.
        csv = write_power_csv(tmp_path / "power.csv")
        data = corridor_scenario_dict(csv, n_gen=20)
        data["hyperparams"]["v_cruise"] = v_cruise
        path = tmp_path / "cruise.json"
        path.write_text(json.dumps(data))
        assert main(["plan", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "hyperparams.v_cruise: must be in [v_floor, v_max]" in capsys.readouterr().err

    def test_nan_radius_exit_code(self, tmp_path, capsys, no_planning):
        # A NaN radius would rasterise to nothing; it is rejected at load.
        csv = write_power_csv(tmp_path / "power.csv")
        data = corridor_scenario_dict(csv, n_gen=20)
        data["environment"]["obstacles"].append(
            {"type": "sphere", "center": [5.0, 5.0, 5.0], "radius": float("nan")}
        )
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert main(["plan", str(path), "--out", str(tmp_path / "out")]) == 2
        index = len(data["environment"]["obstacles"]) - 1
        err = capsys.readouterr().err
        assert f"environment.obstacles[{index}]: sphere radius must be finite" in err


    @pytest.mark.parametrize(
        "entry, where",
        [
            ({"type": "sphere", "center": [5, 5, 5], "radius": True}, "obstacles"),
            ({"type": "box", "min": [1, 1, False], "max": [2, 2, 2]}, "obstacles"),
            ({"center": [3, 3, 3], "half_extents": [1, 1, 1],
              "rotation": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}, "hulls"),
        ],
        ids=["sphere-radius", "box-corner", "hull-rotation"],
    )
    def test_boolean_in_world_entry_exit_code(self, tmp_path, capsys, no_planning, entry, where):
        csv = write_power_csv(tmp_path / "power.csv")
        data = corridor_scenario_dict(csv, n_gen=20)
        data["environment"][where].append(entry)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        assert main(["plan", str(path), "--out", str(tmp_path / "out")]) == 2
        index = len(data["environment"][where]) - 1
        assert f"environment.{where}[{index}]: " in capsys.readouterr().err

    def test_non_finite_calibration_exit_code(self, tmp_path, capsys):
        csv = write_power_csv(tmp_path / "power.csv")
        csv.write_text(csv.read_text() + "nan,0,0,100\n")
        path = tmp_path / "corridor.json"
        path.write_text(json.dumps(corridor_scenario_dict(csv, n_gen=20)))
        assert main(["plan", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "power.csv:8: vx, vy, vz and power_w must be finite" in capsys.readouterr().err


def member_entry(time_s) -> dict:
    """A pareto.json front member with the given ``time_s`` cost."""
    return {
        "decision": [1.0] * 7,
        "costs": {"time_s": time_s, "safety": 0.1, "energy_j": 100.0},
        "constraints": {"max_accel_violation": 0.0, "collision_violation": 0.0, "feasible": True},
    }


class TestUnusableOutput:
    """An output location that cannot be used is a validation error (exit
    2) naming the path, reported before anything is planned."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("a file, not a directory\n")
        return path

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-file"])
    def test_plan(self, scenario_file, blocker, no_planning, capsys, out):
        out = blocker.parent / out
        assert main(["plan", str(scenario_file), "--out", str(out)]) == 2
        assert f"validation error: output directory {out}: " in capsys.readouterr().err

    def test_sweep(self, scenario_file, blocker, no_planning, capsys):
        spec = blocker.parent / "spec.json"
        spec.write_text(json.dumps({"kind": "risk", "axis": "wind", "step": 0.5}))
        assert main(["sweep", str(scenario_file), "--spec", str(spec), "--out", str(blocker)]) == 2
        assert f"output directory {blocker}: " in capsys.readouterr().err

    def test_fit_power(self, blocker, no_planning, capsys):
        csv = write_power_csv(blocker.parent / "cal.csv")
        assert main(["fit-power", str(csv), "--out", str(blocker)]) == 2
        assert f"output directory {blocker}: " in capsys.readouterr().err

    def test_sdf_dump_under_file(self, scenario_file, blocker, no_planning, capsys):
        out = blocker / "grid.npz"
        assert main(["sdf-dump", str(scenario_file), "--out", str(out)]) == 2
        assert f"output directory {blocker}: " in capsys.readouterr().err

    def test_sdf_dump_onto_directory(self, scenario_file, tmp_path, no_planning, capsys):
        out = tmp_path / "grid.npz"
        out.mkdir()
        assert main(["sdf-dump", str(scenario_file), "--out", str(out)]) == 2
        assert f"output file {out}: Is a directory" in capsys.readouterr().err

    def test_sdf_dump_creates_missing_directory(self, scenario_file, tmp_path):
        out = tmp_path / "missing" / "deeper" / "grid.npz"
        assert main(["sdf-dump", str(scenario_file), "--out", str(out)]) == 0
        assert np.load(out)["distance"].ndim == 3


def _unusable_file_cases():
    """(command, file, kind): each input a command reads made missing, a
    directory or not UTF-8, and each result file blocked by a directory."""
    inputs = [
        ("plan", "scenario"), ("sweep", "scenario"), ("sdf-dump", "scenario"),
        ("plan", "calibration"), ("fit-power", "calibration"), ("vote", "front"),
        ("sweep", "spec"),
    ]
    cases = [
        pytest.param(command, name, kind, id=f"{command}-{name}-{kind}")
        for command, name in inputs
        for kind in ("missing", "directory", "not-utf8")
    ]
    results = [("plan", "pareto.json"), ("sweep", "sweep.csv"), ("fit-power", "power_model.json")]
    cases += [pytest.param(command, name, "result", id=f"{command}-{name}") for command, name in results]
    return cases


@pytest.mark.parametrize("command, name, kind", _unusable_file_cases())
def test_unusable_file_exits_2_naming_it(tmp_path, capsys, command, name, kind):
    files = {
        "scenario": tmp_path / "corridor.json",
        "calibration": tmp_path / "power.csv",
        "front": tmp_path / "pareto.json",
        "spec": tmp_path / "spec.json",
    }
    out = tmp_path / "out"
    write_power_csv(files["calibration"])
    files["scenario"].write_text(json.dumps(corridor_scenario_dict(files["calibration"], n_gen=20)))
    files["front"].write_text(json.dumps({"front": [member_entry(1.0)]}))
    files["spec"].write_text(json.dumps({"kind": "risk", "axis": "wind", "step": 0.5}))
    if kind == "result":
        bad = out / name
        bad.mkdir(parents=True)
    else:
        bad = files[name]
        bad.unlink()
        if kind == "directory":
            bad.mkdir()
        elif kind == "not-utf8":
            bad.write_bytes(b"\xff\xfe not UTF-8\n")
    args = {
        "plan": ["plan", files["scenario"], "--out", out],
        "sweep": ["sweep", files["scenario"], "--spec", files["spec"], "--out", out],
        "sdf-dump": ["sdf-dump", files["scenario"], "--out", out / "grid.npz"],
        "fit-power": ["fit-power", files["calibration"], "--out", out],
        "vote": ["vote", files["front"], "--risks", "0,0,0,0"],
    }[command]
    assert main([str(a) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ")
    assert str(bad) in err
    assert "Traceback" not in err


class TestVoteCommand:
    def test_revote_on_cached_front(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["plan", str(scenario_file), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["vote", str(out / "pareto.json"), "--risks", "0,0,0,1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vote_weights"]["k_time"] == pytest.approx(4 / 7)
        assert "selected_index" in payload

    def test_vote_weights_match_pareto(self, scenario_file, tmp_path, capsys):
        # Re-voting at the plan's risks prints the pareto.json weights,
        # gamma included.
        out = tmp_path / "results"
        risks = "0.2,0.1,0,0.3"
        assert main(["plan", str(scenario_file), "--out", str(out), "--risks", risks]) == 0
        capsys.readouterr()
        assert main(["vote", str(out / "pareto.json"), "--risks", risks]) == 0
        payload = json.loads(capsys.readouterr().out)
        pareto = json.loads((out / "pareto.json").read_text())
        assert payload["vote_weights"] == pareto["vote_weights"]
        assert set(payload["vote_weights"]) == {"k_time", "k_safety", "k_energy", "gamma"}
        assert payload["selected_index"] == pareto["selected_index"]

    def test_bad_risks_format(self, scenario_file, tmp_path):
        out = tmp_path / "results"
        assert main(["plan", str(scenario_file), "--out", str(out)]) == 0
        assert main(["vote", str(out / "pareto.json"), "--risks", "1,2"]) == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "not a readable Pareto front"),
            ("not json {", "not a readable Pareto front"),
            (json.dumps({"selected_index": 0}), "not a readable Pareto front"),
            (json.dumps([1, 2]), "not a readable Pareto front"),
            (
                json.dumps({"front": [member_entry(None), member_entry(2.0)]}),
                "front[0].costs.time_s: must be a finite number, got None",
            ),
            (
                json.dumps({"front": [member_entry("x"), member_entry(2.0)]}),
                "front[0].costs.time_s: must be a finite number, got 'x'",
            ),
            (
                json.dumps({"front": [member_entry("1.5"), member_entry(2.0)]}),
                "front[0].costs.time_s: must be a finite number, got '1.5'",
            ),
            (
                json.dumps({"front": [member_entry(True), member_entry(2.0)]}),
                "front[0].costs.time_s: must be a finite number, got True",
            ),
            (
                json.dumps({"front": [{**member_entry(2.0), "decision": ["1.0"] * 7}]}),
                "front[0].decision[6]: must be a finite number, got '1.0'",
            ),
            (
                json.dumps({"front": [{
                    **member_entry(2.0),
                    "constraints": {"max_accel_violation": False, "collision_violation": 0.0},
                }]}),
                "front[0].constraints.max_accel_violation: must be a finite number, got False",
            ),
            (
                json.dumps({"front": [member_entry(float("nan")), member_entry(2.0)]}),
                "front[0].costs.time_s: must be a finite number, got nan",
            ),
            (
                json.dumps({"front": [member_entry(2.0), member_entry(float("nan"))]}),
                "front[1].costs.time_s: must be a finite number, got nan",
            ),
            (
                json.dumps({"front": [{
                    **member_entry(2.0),
                    "constraints": {"max_accel_violation": float("inf"), "collision_violation": 0.0},
                }]}),
                "front[0].constraints.max_accel_violation: must be a finite number, got inf",
            ),
            (
                json.dumps({"front": [{**member_entry(2.0), "decision": [1.0, float("nan")] * 3}]}),
                "front[0].decision[5]: must be a finite number, got nan",
            ),
            (json.dumps({"front": []}), "front is empty"),
            (
                json.dumps({"front": [member_entry(1.0), {**member_entry(2.0), "decision": [1.0] * 12}]}),
                "front[1].decision: length 12, not 7",
            ),
        ],
        ids=[
            "missing", "not-json", "no-front", "not-an-object", "null-cost", "text-cost",
            "numeric-string", "bool-cost", "text-decision", "bool-violation", "nan-cost",
            "nan-cost-second-member", "infinite-violation", "nan-decision", "empty-front",
            "ragged-decision",
        ],
    )
    def test_unreadable_front_exit_code(self, tmp_path, capsys, content, message):
        path = tmp_path / "pareto.json"
        if content is not None:
            path.write_text(content)
        assert main(["vote", str(path), "--risks", "0,0,0,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {path}: ")
        assert message in err


class TestFitPowerCommand:
    def test_fit_power_outputs(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        extra = rng.standard_normal((12, 3))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        rows = ["vx,vy,vz,power_w", "1,0,0,600", "-1,0,0,600", "0,1,0,600",
                "0,-1,0,600", "0,0,1,800", "0,0,-1,500"]
        rows += [f"{d[0]:.8g},{d[1]:.8g},{d[2]:.8g},620" for d in extra]
        csv = tmp_path / "cal.csv"
        csv.write_text("\n".join(rows) + "\n")
        code = main(["fit-power", str(csv), "--out", str(tmp_path / "fit")])
        assert code == 0
        model = json.loads((tmp_path / "fit" / "power_model.json").read_text())
        assert model["hover_power_w"] == pytest.approx(np.mean([600, 600, 600, 600, 800, 500]))
        report = json.loads((tmp_path / "fit" / "power_report.json").read_text())
        assert report["n_validation"] == 12

    @pytest.mark.parametrize("row", ["inf,0,0,100", "1,0,0,inf"])
    def test_non_finite_row_exit_code(self, tmp_path, capsys, row):
        csv = tmp_path / "cal.csv"
        csv.write_text("vx,vy,vz,power_w\n1,0,0,600\n-1,0,0,600\n0,1,0,600\n"
                       f"0,-1,0,600\n0,0,1,800\n0,0,-1,500\n{row}\n")
        assert main(["fit-power", str(csv), "--out", str(tmp_path / "fit")]) == 2
        assert "cal.csv:8: vx, vy, vz and power_w must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n_axis", [5, 6])
    def test_zero_holdout_exit_code(self, tmp_path, capsys, n_axis):
        # The fraction is checked before the data, so the exit code does not
        # depend on whether the six axis samples are there.
        rows = ["1,0,0,600", "-1,0,0,600", "0,1,0,600", "0,-1,0,600", "0,0,1,800", "0,0,-1,500"]
        csv = tmp_path / "cal.csv"
        csv.write_text("\n".join(["vx,vy,vz,power_w", *rows[:n_axis]]) + "\n")
        assert main(["fit-power", str(csv), "--holdout", "0"]) == 2
        assert "holdout_fraction" in capsys.readouterr().err

    def test_fit_failure_exit_code(self, tmp_path):
        csv = tmp_path / "cal.csv"
        csv.write_text("vx,vy,vz,power_w\n1,0,0,600\n-1,0,0,600\n0,1,0,600\n"
                       "0,-1,0,600\n0.7071,0.7071,0,650\n0,0,-1,500\n")
        assert main(["fit-power", str(csv)]) == 4


class TestSweepCommand:
    def test_risk_sweep(self, scenario_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "risk", "axis": "battery", "step": 0.25}))
        out = tmp_path / "sweep"
        code = main(["sweep", str(scenario_file), "--spec", str(spec), "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5

    def test_invalid_spec_exit_code(self, scenario_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "banana"}))
        assert main(["sweep", str(scenario_file), "--spec", str(spec)]) == 2

    def test_rejected_spec_creates_no_output(self, scenario_file, tmp_path, no_planning):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "banana"}))
        out = tmp_path / "out"
        assert main(["sweep", str(scenario_file), "--spec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "coefficients", "spacing": 0},
            {"kind": "coefficients", "spacing": -0.1},
            {"kind": "coefficients", "spacing": 0.3},
            {"kind": "risk", "axis": "wind", "stop": 2.0, "step": 0.5},
        ],
        ids=["zero-spacing", "negative-spacing", "uneven-spacing", "risk-above-1"],
    )
    def test_bad_spec_rejected_before_planning(self, scenario_file, tmp_path, no_planning, bad):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(bad))
        assert main(["sweep", str(scenario_file), "--spec", str(spec)]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            [1],
            "coefficients",
            {"kind": "coefficients", "spacing": "x"},
            {"kind": "risk", "axis": "wind", "start": "x"},
            {"kind": "risk", "axis": "wind", "stop": [1]},
            {"kind": "risk", "axis": "wind", "step": None},
            {"kind": "risk", "axis": "wind", "stop": float("inf")},
            {"kind": "coefficients", "spacing": True},
            {"kind": "coefficients", "spacing": "0.5"},
            {"kind": "risk", "axis": "wind", "step": "0.25"},
            {"kind": "risk", "axis": "wind", "step": 1e-320},
            {"kind": "coefficients", "spacing": 1e-320},
            {"kind": "risk", "axis": "wind", "step": 1e-9},
        ],
        ids=[
            "list", "string", "text-spacing", "text-start", "list-stop", "null-step",
            "infinite-stop", "bool-spacing", "numeric-string-spacing", "numeric-string-step",
            "subnormal-step", "subnormal-spacing", "billion-points",
        ],
    )
    def test_malformed_spec_rejected_before_planning(
        self, scenario_file, tmp_path, no_planning, capsys, bad
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(bad))
        assert main(["sweep", str(scenario_file), "--spec", str(spec)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_missing_spec_exit_code(self, scenario_file, tmp_path, no_planning):
        assert main(["sweep", str(scenario_file), "--spec", str(tmp_path / "none.json")]) == 2


class TestSdfDumpCommand:
    def test_dump(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "grid.npz"
        code = main(["sdf-dump", str(scenario_file), "--out", str(out)])
        assert code == 0
        data = np.load(out)
        assert data["distance"].shape == tuple(data["dims"])
        assert data["resolution"] == 0.5

    def test_writes_exactly_the_named_file(self, scenario_file, tmp_path, capsys):
        # ``np.savez_compressed`` given this path would write ``field.npz``.
        out = tmp_path / "field"
        assert main(["sdf-dump", str(scenario_file), "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"-> {out}\n")
        assert not (tmp_path / "field.npz").exists()
        assert np.load(out)["distance"].ndim == 3

    def test_tiny_resolution_exit_code(self, tmp_path, capsys):
        # A finite positive resolution passes the scenario check; its grid
        # is over the voxel budget and must exit 2, not overflow.
        data = corridor_scenario_dict(write_power_csv(tmp_path / "power.csv"), n_gen=60)
        data["environment"]["resolution"] = 5e-324
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(data))
        assert main(["sdf-dump", str(path), "--out", str(tmp_path / "grid.npz")]) == 2
        assert "exceeds the budget" in capsys.readouterr().err
