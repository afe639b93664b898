from __future__ import annotations

import json
from dataclasses import fields

import pytest

from conftest import corridor_scenario_dict, write_power_csv
from riskplan.errors import ValidationError
from riskplan.scenario import Hyperparams, load_scenario, scenario_from_dict


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

    @pytest.mark.parametrize(
        "entry",
        [
            '{"type": "sphere", "center": [5, 5, 5], "radius": NaN}',
            '{"type": "sphere", "center": [5, 5, 5], "radius": Infinity}',
            '{"type": "capsule", "a": [1, 1, 8], "b": [9, 9, 8], "radius": NaN}',
        ],
        ids=["sphere-nan", "sphere-inf", "capsule-nan"],
    )
    def test_non_finite_radius_rejected(self, power_csv, tmp_path, entry):
        # Python's json reads NaN and Infinity; neither is a radius.
        data = minimal_dict(power_csv)
        data["environment"]["obstacles"] = [{"type": "box", "min": [1, 1, 1], "max": [2, 2, 2]}]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data).replace("}]", "}, " + entry + "]"))
        with pytest.raises(ValidationError) as err:
            load_scenario(path)
        [message] = err.value.violations
        assert message.startswith("environment.obstacles[1]: ")
        assert "radius must be finite and >= 0" in message

    @pytest.mark.parametrize(
        "key, entry, problem",
        [
            ("obstacles", {"type": "sphere", "center": [5, 5, 5], "radius": True},
             "sphere radius must be finite and >= 0, got True"),
            ("obstacles", {"type": "capsule", "a": [1, 1, 8], "b": [9, 9, 8], "radius": False},
             "capsule radius must be finite and >= 0, got False"),
            ("obstacles", {"type": "box", "min": [1, 1, True], "max": [2, 2, 2]},
             "box.min must be a 3-vector of numbers, got [1, 1, True]"),
            ("obstacles", {"type": "sphere", "center": [5, False, 5], "radius": 1.0},
             "sphere.center must be a 3-vector of numbers"),
            ("hulls", {"center": [5, 5, 5], "half_extents": [1, 1, 1],
                       "rotation": [[1, 0, 0], [0, True, 0], [0, 0, 1]]},
             "hull rotation must be a 3x3 matrix of numbers"),
            ("hulls", {"center": [5, 5, 5], "half_extents": [True, 1, 1]},
             "hull.half_extents must be a 3-vector of numbers"),
        ],
        ids=["sphere-radius", "capsule-radius", "box-corner", "sphere-center",
             "hull-rotation", "hull-half-extents"],
    )
    def test_boolean_in_world_entry_rejected(self, power_csv, tmp_path, key, entry, problem):
        # numpy reads true as 1 and false as 0; neither is a coordinate.
        data = minimal_dict(power_csv)
        data["environment"][key] = [entry]
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data, base_dir=tmp_path)
        [message] = err.value.violations
        assert message.startswith(f"environment.{key}[0]: {problem}")

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


# One out-of-range value per hyperparameter, with every other value at its
# default. Each must be rejected at load by a message naming its field.
OUT_OF_RANGE = {
    "v_max": 0.0,
    "a_max": 0.0,
    "degree": 1,
    "r_sdf_min": 0.0,
    "r_sdf_max": 0.5,  # below r_sdf_min
    "r_ch_max": 0.0,
    "delta_rope": 0.0,
    "n_gen": 0,
    "n_pop": 10,  # not divisible by 4
    "n_nurbs": 1,
    "k_a": -0.5,
    "k_b": 0.7,  # k_a + k_b != 1
    "v_floor": 0.0,
    "r_uav": -1.0,
    "weight_min": 0.0,
    "weight_max": 0.05,  # below weight_min
    "sigma_pos": -1.0,
    "sigma_speed": -1.0,
    "rrt_step": 0.0,
    "rrt_max_iters": 0,
    "crossover_rate": 2.0,
    "eta_crossover": 0.0,
    "mutation_rate": 1.5,
    "eta_mutation": 0.0,
    "v_cruise": 2.5,  # above v_max
}


@pytest.mark.parametrize("field, value", OUT_OF_RANGE.items(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_hyperparameter_rejected_at_load(power_csv, tmp_path, field, value):
    data = minimal_dict(power_csv)
    data["hyperparams"] = {field: value}
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data, base_dir=tmp_path)
    assert any(v.startswith(f"hyperparams.{field}: ") for v in err.value.violations), (
        err.value.violations
    )


def test_every_hyperparameter_has_an_out_of_range_row():
    assert sorted(OUT_OF_RANGE) == sorted(f.name for f in fields(Hyperparams))


def test_bad_values_of_every_settings_type_reported_together(power_csv, tmp_path):
    # One bad value each for the NSGA-II, seeding and safety settings.
    data = minimal_dict(power_csv)
    data["hyperparams"] = {
        "crossover_rate": 2, "sigma_pos": -1, "eta_mutation": 0, "r_uav": -1,
    }
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data, base_dir=tmp_path)
    assert sorted(err.value.violations) == [
        "hyperparams.crossover_rate: must be in [0, 1]",
        "hyperparams.eta_mutation: must be > 0",
        "hyperparams.r_uav: must be >= 0",
        "hyperparams.sigma_pos: must be >= 0",
    ]


@pytest.mark.parametrize("v_max", [0.0, -1.0])
def test_bad_v_max_reported_once(power_csv, tmp_path, v_max):
    # The domain's speed bound, v_floor < v_max and the v_max / 2 defaults
    # of sigma_speed and the mission speeds all derive from v_max; none of
    # them adds a message of its own.
    data = minimal_dict(power_csv)
    data["hyperparams"] = {"v_max": v_max}
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data, base_dir=tmp_path)
    assert err.value.violations == ["hyperparams.v_max: must be > 0"]


def test_bad_v_max_keeps_rules_of_given_values(power_csv, tmp_path):
    data = minimal_dict(power_csv)
    data["hyperparams"] = {"v_max": -1.0, "v_floor": -1.0, "sigma_speed": -2.0}
    data["mission"]["v_start"] = -1.0
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data, base_dir=tmp_path)
    assert sorted(err.value.violations) == [
        "hyperparams.sigma_speed: must be >= 0",
        "hyperparams.v_floor: must be > 0",
        "hyperparams.v_max: must be > 0",
        "mission.v_start: must be in [0, v_max], got -1.0",
    ]
