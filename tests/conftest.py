from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from riskplan.environment import (
    BoxObstacle,
    DomainBox,
    build_environment,
)
from riskplan.power import PowerSample, fit_quadric
from riskplan.scenario import Hyperparams, run_settings, scenario_from_dict

AXIS_DIRECTIONS = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)

# Lateral 600 W, climb 800 W, descent 500 W: a plausible quadrotor shape.
ASYMMETRIC_AXIS_POWERS = [600.0, 600.0, 600.0, 600.0, 800.0, 500.0]


def axis_samples(powers=ASYMMETRIC_AXIS_POWERS):
    return [PowerSample(direction=d, power=p) for d, p in zip(AXIS_DIRECTIONS, powers)]


def symmetric_model(p0=500.0):
    return fit_quadric(axis_samples([p0] * 6))


def asymmetric_model():
    return fit_quadric(axis_samples())


def write_power_csv(path, powers=ASYMMETRIC_AXIS_POWERS):
    rows = ["vx,vy,vz,power_w"]
    for d, p in zip(AXIS_DIRECTIONS, powers):
        rows.append(f"{d[0]:g},{d[1]:g},{d[2]:g},{p:g}")
    path.write_text("\n".join(rows) + "\n")
    return path


def corridor_scenario_dict(power_csv, rng_seed=7, n_gen=300, n_pop=40, risks=None):
    """20 m corridor with a vertical pylon wrapped in a keep-out hull."""
    return {
        "environment": {
            "domain": {"min": [0, 0, 0], "max": [24, 16, 8]},
            "obstacles": [{"type": "box", "min": [11.4, 7.4, 0], "max": [12.6, 8.6, 8]}],
            "hulls": [{"center": [12, 8, 4], "half_extents": [2, 2, 4]}],
            "resolution": 0.5,
        },
        "mission": {
            "start": [2, 8, 4],
            "goal": [22, 8, 4],
            "v_start": 1.0,
            "v_goal": 1.0,
            "risks": risks or {},
        },
        "hyperparams": {"n_gen": n_gen, "n_pop": n_pop},
        "power_calibration": str(power_csv),
        "rng_seed": rng_seed,
    }


def safety_params(**hyper):
    """Safety settings of ``Hyperparams(**hyper)``."""
    return run_settings(Hyperparams(**hyper), 0)[0]


def seeding_params(rng_seed=0, **hyper):
    """Seeding settings of ``Hyperparams(**hyper)`` on RNG stream ``rng_seed``."""
    return run_settings(Hyperparams(**hyper), rng_seed)[1]


def moo_params(rng_seed=0, **hyper):
    """NSGA-II settings of ``Hyperparams(**hyper)`` on RNG stream ``rng_seed``."""
    return replace(run_settings(Hyperparams(**hyper), 0)[2], rng_seed=rng_seed)


def make_corridor_scenario(tmp_path, **kwargs):
    csv = write_power_csv(tmp_path / "power.csv")
    return scenario_from_dict(corridor_scenario_dict(csv, **kwargs), base_dir=tmp_path)


@pytest.fixture
def corridor_scenario(tmp_path):
    return make_corridor_scenario(tmp_path)


@pytest.fixture
def empty_env():
    domain = DomainBox(min_corner=[0, 0, 0], max_corner=[20, 20, 10], v_max=2.0)
    return build_environment(domain, resolution=0.5)


@pytest.fixture
def pylon_env():
    domain = DomainBox(min_corner=[0, 0, 0], max_corner=[24, 16, 8], v_max=2.0)
    pylon = BoxObstacle(min_corner=[11.4, 7.4, 0], max_corner=[12.6, 8.6, 8])
    return build_environment(domain, obstacles=[pylon], resolution=0.5)
