"""Compare a planner front with single-objective benchmarks of the same world.

    python3 tools/coverage.py [--runs R] [--n-gen G]

The paper claims that the Pareto front covers at least 95% of the range set
by single-objective benchmarks. This script prints the figures that claim is
about, for ``scenarios/corridor.json`` and the ``perfbench/city.py`` world of
seed 7 (imported read-only), and gives no pass/fail verdict.

Protocol. For each objective (time, safety, energy) the planner's NSGA-II
runs R times (default 5) for G generations (default: the scenario's
``n_gen``), with everything as in ``plan`` except that the sort and
survival compare only that objective's cost column (constraint handling is
unchanged). Run r plans the scenario
at rng seed ``BASE_SEED + r``, from which ``pipeline._prepare_run`` takes
three streams: ``BASE_SEED + r`` for the RRT seed, ``+ 1`` for the
population noise and ``+ 2`` for NSGA-II. The benchmark is the feasible
member with the lowest value of its objective over all runs; a tie goes to
the earlier run, then to the first member in ``run_nsga2``'s front order
(sorted by time, safety, energy).

Range. The payoff table has one row per benchmark holding that member's
(time, safety, energy) costs. For each objective, the range runs from the
lowest value in its column (the single-objective optimum) to the highest
(the worst value one benchmark accepts while optimising another objective).
The front is one ordinary three-objective ``plan`` of the scenario with G
generations, and its extent on an objective is [min, max] over its members.
Coverage is the length of the part of the range that the extent overlaps,
divided by the length of the range (nan for an empty range). A front can
come close to every optimum and still cover little of a range that one far
benchmark stretches, so read coverage together with ``front_min`` against
``range_min``.

Printed per world: one ``benchmark`` row per objective (its best value,
costs and trajectory metrics, from ``pipeline._member_metrics``), the
``payoff`` table, and one ``front`` row per objective (front_min,
front_max, range_min, range_max, coverage).

Runtime with the defaults: 56 s on one thread of a shared 2-core x86-64
container (Python 3.11, numpy 2.4); the corridor's 16 plans of 1000
generations take most of it, the city's 16 plans of 100 generations at 200
samples and its 1.2 s environment build the rest.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from riskplan.errors import ValidationError  # noqa: E402
from riskplan.moo import (  # noqa: E402
    OBJECTIVE_NAMES,
    Front,
    _dedup_front,
    evaluate_batch,
    nsga2_minimize,
)
from riskplan.pipeline import (  # noqa: E402
    _member_metrics,
    _prepare_run,
    build_scenario_environment,
    plan,
)
from riskplan.power import fit_quadric, load_power_samples  # noqa: E402
from riskplan.scenario import load_scenario, scenario_from_dict  # noqa: E402

BASE_SEED = 10_000
CITY_SEED = 7
COST_KEYS = ("time_s", "safety", "energy_j")


def world_models(scn):
    """Distance field and power model of ``scn``, built once per world."""
    return build_scenario_environment(scn), fit_quadric(load_power_samples(scn.power_calibration))


def _run_best(ctx, population, params, col: int):
    """The run's best feasible member on cost column ``col``, as a one-row
    ``Front``, or None."""

    def batch(decisions):
        costs, violations = evaluate_batch(decisions, ctx)
        return costs[:, [col]], violations.sum(axis=1), costs, violations

    pop, _, total, costs, violations = nsga2_minimize(
        batch, ctx.bounds.lower, ctx.bounds.upper, params, population
    )
    feasible = np.flatnonzero(total <= 0.0)
    if not feasible.size:
        return None
    tied = feasible[costs[feasible, col] == costs[feasible, col].min()]
    kept = tied[_dedup_front(costs[tied])]
    i = kept[np.lexsort((costs[kept, 2], costs[kept, 1], costs[kept, 0]))[:1]]
    return Front(pop[i], costs[i], violations[i])


def benchmark(scn, objective: str, n_runs: int, n_gen: int, base_seed: int, env, power) -> dict:
    """Best member of ``n_runs`` single-objective runs: its objective value,
    costs and trajectory metrics."""
    if objective not in OBJECTIVE_NAMES:
        raise ValidationError(f"unknown objective {objective!r}")
    col = OBJECTIVE_NAMES.index(objective)
    best, best_ctx, best_value = None, None, np.inf
    for run in range(n_runs):
        run_scn = replace(scn, rng_seed=base_seed + run, hyper=replace(scn.hyper, n_gen=n_gen))
        _, ctx, population, params = _prepare_run(run_scn, env, power)
        member = _run_best(ctx, population, params, col)
        if member is not None and member.costs[0, col] < best_value:
            # Each run's seed fixes its arity, so the member keeps its context.
            best, best_ctx, best_value = member, ctx, member.costs[0, col]
    if best is None:
        raise ValidationError(f"no feasible benchmark trajectory found for {objective}")
    metrics = _member_metrics(best, [0], best_ctx)[0]
    metrics["objective"] = objective
    metrics["best_value"] = float(best_value)
    metrics["safety"] = best.costs[0, 1].item()
    return metrics


def coverage(front_costs: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """Per objective, the share of the payoff-table range [column min,
    column max] that the front's [min, max] overlaps; nan for an empty range."""
    lo, hi = payoff.min(axis=0), payoff.max(axis=0)
    overlap = np.minimum(front_costs.max(axis=0), hi) - np.maximum(front_costs.min(axis=0), lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(hi > lo, np.maximum(overlap, 0.0) / (hi - lo), np.nan)


def _table(head: str, columns, rows) -> None:
    widths = [max(len(c), 16) for c in columns]
    print(f"{head:<10}" + "".join(f" {c:>{w}}" for c, w in zip(columns, widths)))
    for label, values in rows:
        print(f"{label:<10}" + "".join(f" {v:>{w}.10g}" for v, w in zip(values, widths)))


def report(name: str, scn, n_runs: int, n_gen: int) -> None:
    env, power = world_models(scn)
    print(f"world {name}: {n_runs} runs x {n_gen} generations per objective, base seed {BASE_SEED}")
    benches = [benchmark(scn, o, n_runs, n_gen, BASE_SEED, env, power) for o in OBJECTIVE_NAMES]
    columns = ["best_value", *COST_KEYS]
    columns += [k for k in benches[0] if k not in columns and k != "objective"]
    _table("benchmark", columns, [(b["objective"], [b[c] for c in columns]) for b in benches])

    payoff = np.array([[b[k] for k in COST_KEYS] for b in benches])
    _table("payoff", COST_KEYS, zip(OBJECTIVE_NAMES, payoff))

    result = plan(replace(scn, hyper=replace(scn.hyper, n_gen=n_gen)), env=env, power_model=power)
    front = result.front.costs
    print(f"front: {len(front)} members of one plan at rng seed {scn.rng_seed}")
    columns = ("front_min", "front_max", "range_min", "range_max", "coverage")
    stats = (front.min(axis=0), front.max(axis=0), payoff.min(axis=0), payoff.max(axis=0))
    _table("front", columns, zip(COST_KEYS, zip(*stats, coverage(front, payoff))))
    print(flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per objective (default 5)")
    parser.add_argument(
        "--n-gen", type=int, help="generations per run and for the front (default: scenario's)"
    )
    args = parser.parse_args(argv)
    if args.runs < 1 or (args.n_gen is not None and args.n_gen < 1):
        parser.error("--runs and --n-gen must be >= 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import city

    scenarios = ROOT / "scenarios"
    city_data, _ = city.city_scenario(CITY_SEED)
    worlds = {
        "corridor": load_scenario(scenarios / "corridor.json"),
        f"city-{CITY_SEED}": scenario_from_dict(city_data, base_dir=scenarios, name="city"),
    }
    for name, scn in worlds.items():
        report(name, scn, args.runs, args.n_gen or scn.hyper.n_gen)
    return 0


if __name__ == "__main__":
    sys.exit(main())
