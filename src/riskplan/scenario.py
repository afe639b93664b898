"""Scenario file ingestion and validation.

A scenario is one human-editable JSON document describing the world
(domain, obstacles, keep-out hulls), the mission (start/goal and their
speeds, current risks), every planner hyperparameter, and the path to the
power calibration CSV. Validation collects all problems before failing so
a bad file is reported once, completely.

Where the rules live:
- JSON types: a value of the wrong type is one problem; hyperparameter
  types come from the ``Hyperparams`` field annotations. ``_type_problem``
  is the rule for every number read from JSON, also in ``pipeline``.
- Run settings: ``Hyperparams`` holds the only default of each. A setting
  that ``SafetyParams``, ``SeedingParams`` or ``MooParams`` reads is checked
  by that type alone; ``run_settings`` builds all three, here at load and in
  ``pipeline`` at run time, and reports each problem as
  ``hyperparams.<field>: ...``. ``_check_hyper`` checks the settings no such
  type reads: speed and acceleration limits, curve degree, sample count
  and the decision bounds.
- ``v_max``: a bad value is reported once, under its own name. The rules
  that compare a value with it are then skipped, and what is derived from
  it at load (the domain's speed bound, the ``sigma_speed`` and mission
  speed defaults) is derived from the default ``v_max``; the scenario is
  rejected either way.
- World entries: the ``environment`` types check themselves; their
  problems are reported under the entry's path.
- Mission and file-level values are checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
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
    SafetyParams,
    SphereObstacle,
    _vec3,
)
from .errors import ValidationError, read_input
from .moo import MooParams
from .seeding import SeedingParams
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


def run_settings(hyper: Hyperparams, rng_seed: int) -> tuple[SafetyParams, SeedingParams, MooParams]:
    """The safety, seeding and NSGA-II settings of a run of ``hyper``.

    The RNG streams are ``rng_seed`` for the RRT seed (the seeding settings
    carry it; the population noise uses ``rng_seed + 1``) and
    ``rng_seed + 2`` for NSGA-II. Raises one ValidationError with every
    problem of all three types, each as ``hyperparams.<field>: ...``.
    """
    h = hyper
    problems = []

    def build(kind, **values):
        try:
            return kind(**values)
        except ValidationError as exc:
            problems.extend(f"hyperparams.{v}" for v in exc.violations)

    safety = build(
        SafetyParams, r_sdf_min=h.r_sdf_min, r_sdf_max=h.r_sdf_max, r_ch_max=h.r_ch_max,
        k_a=h.k_a, k_b=h.k_b, r_uav=h.r_uav,
    )
    seeding = build(
        SeedingParams, delta_rope=h.delta_rope, sigma_pos=h.sigma_pos,
        sigma_speed=h.resolved_sigma_speed(), rrt_step=h.rrt_step,
        rrt_max_iters=h.rrt_max_iters, rng_seed=rng_seed,
    )
    moo = build(
        MooParams, n_gen=h.n_gen, n_pop=h.n_pop, crossover_rate=h.crossover_rate,
        eta_crossover=h.eta_crossover, mutation_rate=h.mutation_rate,
        eta_mutation=h.eta_mutation, rng_seed=rng_seed + 2,
    )
    if problems:
        raise ValidationError(problems)
    return safety, seeding, moo


def _check_hyper(hyper: Hyperparams, errors: list):
    """The rules of the settings that no type of ``run_settings`` reads."""

    def bad(cond, msg):
        if cond:
            errors.append(f"hyperparams.{msg}")

    v_max_ok = hyper.v_max > 0
    bad(not v_max_ok, "v_max: must be > 0")
    bad(hyper.a_max <= 0, "a_max: must be > 0")
    bad(
        not (1 < hyper.degree <= 5),
        f"degree: must be a natural number with 1 < degree <= 5, got {hyper.degree}",
    )
    bad(hyper.n_nurbs < 2, "n_nurbs: must be >= 2")
    bad(hyper.v_floor <= 0, "v_floor: must be > 0")
    bad(v_max_ok and hyper.v_floor >= hyper.v_max, "v_floor: must be < v_max")
    bad(hyper.weight_min <= 0, "weight_min: must be > 0")
    bad(hyper.weight_max <= hyper.weight_min, "weight_max: must be > weight_min")
    # The seed's speed entries; their decision bounds are [v_floor, v_max].
    bad(
        v_max_ok and hyper.v_cruise is not None
        and not hyper.v_floor <= hyper.v_cruise <= hyper.v_max,
        f"v_cruise: must be in [v_floor, v_max], got {hyper.v_cruise}",
    )


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


def _parse_entry(build, entry, path: str, errors: list):
    """``build(entry, path, errors)``, or None with why the entry at
    ``path`` (a domain, obstacle or hull) is unusable reported."""
    try:
        return build(entry, path, errors)
    except KeyError as exc:
        errors.append(f"{path}: missing field {exc}")
    except ValidationError as exc:
        errors.extend(f"{path}: {v}" for v in exc.violations)
    except (AttributeError, TypeError, ValueError) as exc:
        errors.append(f"{path}: malformed entry ({exc})")
    return None


def _obstacle(entry: dict, path: str, errors: list):
    kind = entry.get("type")
    if kind == "box":
        return BoxObstacle(min_corner=entry["min"], max_corner=entry["max"])
    if kind == "sphere":
        return SphereObstacle(center=entry["center"], radius=entry["radius"])
    if kind == "capsule":
        return CapsuleObstacle(endpoint_a=entry["a"], endpoint_b=entry["b"], radius=entry["radius"])
    errors.append(f"{path}.type: unknown obstacle type {kind!r} (box|sphere|capsule)")
    return None


def _hull(entry: dict, path: str, errors: list):
    rotation = entry.get("rotation", np.eye(3).tolist())
    return OrientedHull(center=entry["center"], half_extents=entry["half_extents"], rotation=rotation)


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
    v_max_ok = hyper.v_max > 0
    derived = hyper if v_max_ok else replace(hyper, v_max=Hyperparams.v_max)
    try:  # the run builds the same settings; no rule reads the seed
        run_settings(derived, 0)
    except ValidationError as exc:
        errors.extend(exc.violations)

    env_data = _section(data.get("environment", {}), "environment", errors)
    domain = _parse_entry(
        lambda dom, *_: DomainBox(
            min_corner=dom["min"], max_corner=dom["max"], v_max=derived.v_max
        ),
        _section(env_data.get("domain", {}), "environment.domain", errors),
        "environment.domain", errors,
    )

    world = {}
    for key, build in (("obstacles", _obstacle), ("hulls", _hull)):
        entries = _section(env_data.get(key, []), f"environment.{key}", errors, list)
        parsed = [
            _parse_entry(build, entry, f"environment.{key}[{i}]", errors)
            for i, entry in enumerate(entries)
        ]
        world[key] = tuple(item for item in parsed if item is not None)

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

    v_start = float(_field(mission, "v_start", "mission.", derived.v_max / 2.0, errors))
    v_goal = float(_field(mission, "v_goal", "mission.", derived.v_max / 2.0, errors))
    v_upper = hyper.v_max if v_max_ok else math.inf
    if not 0 <= v_start <= v_upper:
        errors.append(f"mission.v_start: must be in [0, v_max], got {v_start}")
    if not 0 <= v_goal <= v_upper:
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
        obstacles=world["obstacles"],
        hulls=world["hulls"],
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
    """Parse and validate a scenario JSON file (read by ``errors.read_input``)."""
    path = Path(path)
    data = read_input(path, "scenario", as_json=True)
    return scenario_from_dict(data, base_dir=path.parent, name=path.stem)
