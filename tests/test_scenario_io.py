from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import corridor_scenario_dict, write_power_csv
from riskplan.errors import ValidationError
from riskplan.scenario import load_scenario, scenario_from_dict


@pytest.fixture
def power_csv(tmp_path):
    return write_power_csv(tmp_path / "power.csv")


def minimal_dict(power_csv):
    return {
        "environment": {"domain": {"min": [0, 0, 0], "max": [10, 10, 10]}},
        "mission": {"start": [1, 1, 1], "goal": [9, 9, 9]},
        "power_calibration": str(power_csv),
    }


class TestLoadScenario:
    def test_minimal_scenario_fills_defaults(self, power_csv, tmp_path):
        scn = scenario_from_dict(minimal_dict(power_csv), base_dir=tmp_path)
        assert scn.obstacles == ()
        assert scn.hulls == ()
        assert scn.hyper.degree == 3
        assert scn.hyper.n_pop == 40
        assert scn.v_start == scn.hyper.v_max / 2
        assert scn.risks.wind == 0.0

    def test_from_file_with_relative_calibration(self, tmp_path):
        write_power_csv(tmp_path / "cal.csv")
        data = minimal_dict("cal.csv")
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data))
        scn = load_scenario(path)
        assert scn.power_calibration == tmp_path / "cal.csv"
        assert scn.name == "scene"

    def test_degree_out_of_range_cites_bounds(self, power_csv, tmp_path):
        data = minimal_dict(power_csv)
        data["hyperparams"] = {"degree": 7}
        with pytest.raises(ValidationError, match="1 < degree <= 5"):
            scenario_from_dict(data, base_dir=tmp_path)

    def test_missing_power_calibration(self, power_csv, tmp_path):
        data = minimal_dict(power_csv)
        del data["power_calibration"]
        with pytest.raises(ValidationError, match="power_calibration"):
            scenario_from_dict(data, base_dir=tmp_path)

    def test_all_violations_reported_at_once(self, power_csv, tmp_path):
        data = minimal_dict(power_csv)
        data["hyperparams"] = {"degree": 9, "n_pop": 13}
        data["mission"]["goal"] = [1, 1, 1]  # equals start
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data, base_dir=tmp_path)
        messages = err.value.violations
        assert len(messages) >= 3
        fields = " ".join(messages)
        assert "degree" in fields and "n_pop" in fields and "start/goal" in fields

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"environment": }')
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_scenario(path)

    def test_unknown_hyperparameter(self, power_csv, tmp_path):
        data = minimal_dict(power_csv)
        data["hyperparams"] = {"n_generations": 10}
        with pytest.raises(ValidationError, match="unknown hyperparameter"):
            scenario_from_dict(data, base_dir=tmp_path)

    def test_obstacle_parsing(self, power_csv, tmp_path):
        data = minimal_dict(power_csv)
        data["environment"]["obstacles"] = [
            {"type": "box", "min": [1, 1, 1], "max": [2, 2, 2]},
            {"type": "sphere", "center": [5, 5, 5], "radius": 1.0},
            {"type": "capsule", "a": [1, 1, 8], "b": [9, 9, 8], "radius": 0.3},
        ]
        scn = scenario_from_dict(data, base_dir=tmp_path)
        assert len(scn.obstacles) == 3

    def test_unknown_obstacle_type(self, power_csv, tmp_path):
        data = minimal_dict(power_csv)
        data["environment"]["obstacles"] = [{"type": "torus"}]
        with pytest.raises(ValidationError, match="obstacles\\[0\\]"):
            scenario_from_dict(data, base_dir=tmp_path)

    def test_start_outside_domain(self, power_csv, tmp_path):
        data = minimal_dict(power_csv)
        data["mission"]["start"] = [-5, 1, 1]
        with pytest.raises(ValidationError, match="mission.start"):
            scenario_from_dict(data, base_dir=tmp_path)

    def test_risks_parsed(self, power_csv, tmp_path):
        data = corridor_scenario_dict(power_csv, risks={"wind": 0.7, "battery": 0.2})
        scn = scenario_from_dict(data, base_dir=tmp_path)
        assert scn.risks.wind == 0.7
        assert scn.risks.battery == 0.2
        assert scn.risks.communication == 0.0

    def test_shipped_corridor_scenario_loads(self):
        from pathlib import Path

        scn = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "corridor.json")
        assert scn.hyper.n_gen == 1000
        assert scn.hyper.n_nurbs == 50
        assert len(scn.hulls) == 1


MALFORMED = {
    "negative-seed": (("rng_seed",), -1, "rng_seed"),
    "text-seed": (("rng_seed",), "abc", "rng_seed"),
    "fractional-seed": (("rng_seed",), 1.5, "rng_seed"),
    "text-n_gen": (("hyperparams", "n_gen"), "x", "hyperparams.n_gen"),
    "text-v_max": (("hyperparams", "v_max"), "2", "hyperparams.v_max"),
    "removed-m_uav": (("hyperparams", "m_uav"), 4.2, "hyperparams.m_uav: unknown hyperparameter"),
    "fractional-n_gen": (("hyperparams", "n_gen"), 2.5, "hyperparams.n_gen"),
    "fractional-n_nurbs": (("hyperparams", "n_nurbs"), 3.5, "hyperparams.n_nurbs"),
    "negative-rrt_max_iters": (("hyperparams", "rrt_max_iters"), -5, "hyperparams.rrt_max_iters"),
    "text-resolution": (("environment", "resolution"), "x", "environment.resolution"),
    "text-max_voxels": (("environment", "max_voxels"), "x", "environment.max_voxels"),
    "list-environment": (("environment",), [], "environment: must be a JSON object"),
    "text-start": (("mission", "start"), "abc", "mission.start"),
    "text-v_start": (("mission", "v_start"), "x", "mission.v_start"),
    "text-wind": (("mission", "risks", "wind"), "x", "mission.risks.wind"),
    "number-calibration": (("power_calibration",), 5, "power_calibration"),
    "text-box-min": (
        ("environment", "obstacles"),
        [{"type": "box", "min": "a", "max": [2, 2, 2]}],
        r"obstacles\[0\]: box.min",
    ),
}


@pytest.mark.parametrize("keys, value, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_value_names_its_field(power_csv, tmp_path, keys, value, field):
    data = minimal_dict(power_csv)
    section = data
    for key in keys[:-1]:
        section = section.setdefault(key, {})
    section[keys[-1]] = value
    with pytest.raises(ValidationError, match=field):
        scenario_from_dict(data, base_dir=tmp_path)
