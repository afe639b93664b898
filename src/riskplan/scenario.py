"""Scenario file ingestion and validation.

A scenario is one human-editable JSON document describing the world
(domain, obstacles, keep-out hulls), the mission (start/goal and their
speeds, current risks), every planner hyperparameter, and the path to the
power calibration CSV. Validation collects all problems before failing so
a bad file is reported once, completely. A value of the wrong JSON type is
one such problem; hyperparameter types come from the ``Hyperparams`` field
annotations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .environment import (
    DEFAULT_MAX_VOXELS,
    DEFAULT_RESOLUTION,
    BoxObstacle,
    CapsuleObstacle,
    DomainBox,
    OrientedHull,
    SphereObstacle,
    _vec3,
)
from .errors import ValidationError
from .voting import RiskState


@dataclass(frozen=True)
class Hyperparams:
    v_max: float = 2.0
    a_max: float = 2.2
    degree: int = 3
    r_sdf_min: float = 1.0
    r_sdf_max: float = 5.0
    r_ch_max: float = 2.0
    delta_rope: float = 5.0
    n_gen: int = 1000
    n_pop: int = 40
    n_nurbs: int = 50
    k_a: float = 0.5
    k_b: float = 0.5
    v_floor: float = 0.1
    r_uav: float = 0.5
    weight_min: float = 0.1
    weight_max: float = 10.0
    sigma_pos: float = 15.0
    sigma_speed: Optional[float] = None  # default v_max / 2
    rrt_step: float = 2.0
    rrt_max_iters: int = 5000
    crossover_rate: float = 0.95
    eta_crossover: float = 10.0
    mutation_rate: Optional[float] = None  # default 1 / D
    eta_mutation: float = 50.0
    v_cruise: Optional[float] = None  # default v_max / 2

    def resolved_sigma_speed(self) -> float:
        return self.v_max / 2.0 if self.sigma_speed is None else self.sigma_speed

    def resolved_v_cruise(self) -> float:
        return self.v_max / 2.0 if self.v_cruise is None else self.v_cruise


_HYPER_TYPES = get_type_hints(Hyperparams)


@dataclass(frozen=True)
class Scenario:
    domain: DomainBox
    obstacles: tuple
    hulls: tuple
    start: np.ndarray
    goal: np.ndarray
    v_start: float
    v_goal: float
    risks: RiskState
    hyper: Hyperparams
    power_calibration: Path
    rng_seed: int = 0
    resolution: float = DEFAULT_RESOLUTION
    max_voxels: int = DEFAULT_MAX_VOXELS
    name: str = "scenario"


def _check_hyper(hyper: Hyperparams, errors: list):
    def bad(cond, msg):
        if cond:
            errors.append(msg)

    bad(hyper.v_max <= 0, "hyperparams.v_max: must be > 0")
    bad(hyper.a_max <= 0, "hyperparams.a_max: must be > 0")
    bad(
        not (1 < hyper.degree <= 5),
        f"hyperparams.degree: must be a natural number with 1 < degree <= 5, got {hyper.degree}",
    )
    bad(
        not (0 < hyper.r_sdf_min < hyper.r_sdf_max),
        "hyperparams.r_sdf_min/r_sdf_max: need 0 < r_sdf_min < r_sdf_max",
    )
    bad(hyper.r_ch_max <= 0, "hyperparams.r_ch_max: must be > 0")
    bad(hyper.delta_rope <= 0, "hyperparams.delta_rope: must be > 0")
    bad(hyper.n_gen < 1, "hyperparams.n_gen: must be >= 1")
    bad(
        hyper.n_pop < 8 or hyper.n_pop % 4 != 0,
        "hyperparams.n_pop: must be >= 8 and divisible by 4",
    )
    bad(hyper.n_nurbs < 2, "hyperparams.n_nurbs: must be >= 2")
    bad(hyper.k_a < 0 or hyper.k_b < 0, "hyperparams.k_a/k_b: must be >= 0")
    bad(abs(hyper.k_a + hyper.k_b - 1.0) > 1e-9, "hyperparams.k_a/k_b: must sum to 1")
    bad(hyper.v_floor <= 0, "hyperparams.v_floor: must be > 0")
    bad(hyper.r_uav < 0, "hyperparams.r_uav: must be >= 0")
    bad(
        not (0 < hyper.weight_min < hyper.weight_max),
        "hyperparams.weight_min/weight_max: need 0 < min < max",
    )
    bad(hyper.v_floor >= hyper.v_max, "hyperparams.v_floor: must be < v_max")
    bad(hyper.rrt_max_iters < 1, "hyperparams.rrt_max_iters: must be >= 1")


def _type_problem(value, hint) -> Optional[str]:
    """Why a JSON value does not fit ``hint`` (float, int or Optional of one)."""
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    want, types = ("an integer", int) if int in kinds else ("a finite number", (int, float))
    if isinstance(value, bool) or not isinstance(value, types) or not -math.inf < value < math.inf:
        return f"must be {want}, got {value!r}"
    return None


def _field(section: dict, key: str, prefix: str, default, errors: list, hint=float):
    """``section[key]``; ``default`` when absent or, reported, of the wrong type."""
    value = section.get(key, default)
    problem = _type_problem(value, hint)
    if problem:
        errors.append(f"{prefix}{key}: {problem}")
    return default if problem else value


def _section(value, path: str, errors: list, kind=dict):
    """A JSON object (array for ``kind=list``); anything else, reported, reads empty."""
    if not isinstance(value, kind):
        errors.append(f"{path}: must be a JSON {'object' if kind is dict else 'array'}")
    return value if isinstance(value, kind) else kind()


def _parse_obstacle(entry: dict, path: str, errors: list):
    try:
        kind = entry.get("type")
        if kind == "box":
            return BoxObstacle(min_corner=entry["min"], max_corner=entry["max"])
        if kind == "sphere":
            return SphereObstacle(center=entry["center"], radius=entry["radius"])
        if kind == "capsule":
            return CapsuleObstacle(
                endpoint_a=entry["a"], endpoint_b=entry["b"], radius=entry["radius"]
            )
        errors.append(f"{path}.type: unknown obstacle type {kind!r} (box|sphere|capsule)")
    except KeyError as exc:
        errors.append(f"{path}: missing field {exc}")
    except ValidationError as exc:
        errors.extend(f"{path}: {v}" for v in exc.violations)
    except (AttributeError, TypeError, ValueError) as exc:
        errors.append(f"{path}: malformed entry ({exc})")
    return None


def _parse_hull(entry: dict, path: str, errors: list):
    try:
        rotation = entry.get("rotation", np.eye(3).tolist())
        return OrientedHull(
            center=entry["center"], half_extents=entry["half_extents"], rotation=rotation
        )
    except KeyError as exc:
        errors.append(f"{path}: missing field {exc}")
    except ValidationError as exc:
        errors.extend(f"{path}: {v}" for v in exc.violations)
    except (AttributeError, TypeError, ValueError) as exc:
        errors.append(f"{path}: malformed entry ({exc})")
    return None


def scenario_from_dict(data: dict, base_dir: Path | None = None, name: str = "scenario") -> Scenario:
    """Build and validate a Scenario from parsed JSON data.

    Raises ValidationError carrying every violation with its field path.
    """
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    errors: list[str] = []
    data = _section(data, "scenario", errors)

    hyper_data = dict(_section(data.get("hyperparams", {}), "hyperparams", errors))
    for key in sorted(hyper_data):
        hint = _HYPER_TYPES.get(key)
        problem = _type_problem(hyper_data[key], hint) if hint else "unknown hyperparameter"
        if problem:
            errors.append(f"hyperparams.{key}: {problem}")
            hyper_data.pop(key)
    hyper = Hyperparams(**hyper_data)
    _check_hyper(hyper, errors)

    env_data = _section(data.get("environment", {}), "environment", errors)
    domain = None
    try:
        dom = _section(env_data.get("domain", {}), "environment.domain", errors)
        domain = DomainBox(min_corner=dom["min"], max_corner=dom["max"], v_max=hyper.v_max)
    except KeyError as exc:
        errors.append(f"environment.domain: missing field {exc}")
    except ValidationError as exc:
        errors.extend(f"environment.domain: {v}" for v in exc.violations)

    obstacles = []
    entries = _section(env_data.get("obstacles", []), "environment.obstacles", errors, list)
    for i, entry in enumerate(entries):
        obs = _parse_obstacle(entry, f"environment.obstacles[{i}]", errors)
        if obs is not None:
            obstacles.append(obs)
    hulls = []
    entries = _section(env_data.get("hulls", []), "environment.hulls", errors, list)
    for i, entry in enumerate(entries):
        hull = _parse_hull(entry, f"environment.hulls[{i}]", errors)
        if hull is not None:
            hulls.append(hull)

    resolution = float(_field(env_data, "resolution", "environment.", DEFAULT_RESOLUTION, errors))
    if resolution <= 0:
        errors.append("environment.resolution: must be > 0")
    max_voxels = _field(env_data, "max_voxels", "environment.", DEFAULT_MAX_VOXELS, errors, int)

    mission = _section(data.get("mission", {}), "mission", errors)
    ends = {}
    for key in ("start", "goal"):
        try:
            ends[key] = _vec3(mission[key], f"mission.{key}")
        except KeyError:
            errors.append(f"mission.{key}: required")
        except ValidationError as exc:
            errors.extend(exc.violations)
        else:
            if domain is not None and not domain.contains(ends[key]):
                errors.append(f"mission.{key}: outside the domain box")
    start, goal = ends.get("start"), ends.get("goal")
    if len(ends) == 2 and np.allclose(start, goal):
        errors.append("mission.start/goal: must differ")

    v_start = float(_field(mission, "v_start", "mission.", hyper.v_max / 2.0, errors))
    v_goal = float(_field(mission, "v_goal", "mission.", hyper.v_max / 2.0, errors))
    if not 0 <= v_start <= hyper.v_max:
        errors.append(f"mission.v_start: must be in [0, v_max], got {v_start}")
    if not 0 <= v_goal <= hyper.v_max:
        errors.append(f"mission.v_goal: must be in [0, v_max], got {v_goal}")

    risk_data = _section(mission.get("risks", data.get("risks", {})), "mission.risks", errors)
    risks = RiskState()
    try:
        risks = RiskState(**{
            f.name: float(_field(risk_data, f.name, "mission.risks.", 0.0, errors))
            for f in fields(RiskState)
        })
    except ValidationError as exc:
        errors.extend(f"mission.risks: {v}" for v in exc.violations)

    calibration = data.get("power_calibration")
    if not calibration or not isinstance(calibration, str):
        errors.append(
            "power_calibration: required, the path of the calibration CSV the energy cost needs"
        )
        calibration_path = Path("missing.csv")
    else:
        calibration_path = Path(calibration)
        if not calibration_path.is_absolute():
            calibration_path = base_dir / calibration_path
        if not calibration_path.exists():
            errors.append(f"power_calibration: file not found: {calibration_path}")

    rng_seed = _field(data, "rng_seed", "", 0, errors, int)
    if rng_seed < 0:
        errors.append(f"rng_seed: must be a non-negative integer, got {rng_seed}")

    if errors:
        raise ValidationError(errors)

    return Scenario(
        domain=domain,
        obstacles=tuple(obstacles),
        hulls=tuple(hulls),
        start=start,
        goal=goal,
        v_start=v_start,
        v_goal=v_goal,
        risks=risks,
        hyper=hyper,
        power_calibration=calibration_path,
        rng_seed=rng_seed,
        resolution=resolution,
        max_voxels=max_voxels,
        name=name,
    )


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return scenario_from_dict(data, base_dir=path.parent, name=path.stem)
