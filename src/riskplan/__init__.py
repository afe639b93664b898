"""Risk-adaptive multi-objective 3D trajectory planner.

Trajectories are clamped 4D rational B-splines (position plus speed
profile). A constrained NSGA-II minimizes time, safety, and energy; a
risk-weighted rank vote picks one Pareto member for the current mission
state.
"""

from .costs import ConstraintReport, CostVector
from .environment import (
    BoxObstacle,
    CapsuleObstacle,
    DomainBox,
    Environment,
    OrientedHull,
    SafetyParams,
    SignedDistanceField,
    SphereObstacle,
    build_environment,
    build_sdf,
)
from .moo import (
    Bounds,
    EvaluatedIndividual,
    EvaluationContext,
    Front,
    MooParams,
    decode,
    evaluate,
    make_context,
    run_nsga2,
)
from .nurbs import NurbsCurve4D, make_clamped_uniform_knots, sample_uniform
from .pipeline import PlanResult, SweepTable, plan, sweep
from .power import PowerQuadricModel, PowerSample, fit_quadric
from .scenario import Hyperparams, Scenario, load_scenario
from .seeding import SeedingParams, find_seed_path, initial_population
from .voting import RiskState, VoteWeights, adjust_coefficients, vote, votes

__version__ = "0.1.0"

__all__ = [
    "BoxObstacle",
    "Bounds",
    "CapsuleObstacle",
    "ConstraintReport",
    "CostVector",
    "DomainBox",
    "Environment",
    "EvaluatedIndividual",
    "EvaluationContext",
    "Front",
    "Hyperparams",
    "MooParams",
    "NurbsCurve4D",
    "OrientedHull",
    "PlanResult",
    "PowerQuadricModel",
    "PowerSample",
    "RiskState",
    "SafetyParams",
    "Scenario",
    "SeedingParams",
    "SignedDistanceField",
    "SphereObstacle",
    "SweepTable",
    "VoteWeights",
    "adjust_coefficients",
    "build_environment",
    "build_sdf",
    "decode",
    "evaluate",
    "find_seed_path",
    "fit_quadric",
    "initial_population",
    "load_scenario",
    "make_clamped_uniform_knots",
    "make_context",
    "plan",
    "run_nsga2",
    "sample_uniform",
    "sweep",
    "vote",
    "votes",
]
