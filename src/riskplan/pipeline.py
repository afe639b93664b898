"""End-to-end orchestration: environment build, power fit, seeding,
optimization, voting, and machine-readable result emission.

Result files are pure functions of (scenario, rng_seed); wall-clock timings
live in a separate metadata file so the data products stay byte-identical
across reruns.

Each rule at the file boundary has one home, which ``cli`` shares:
- ``output_dir``: the only check of an output location; ``plan`` and
  ``sweep`` call it before any work;
- ``errors.read_input``: the only reader of an input file, and
  ``errors.output_file`` (``write_json`` for JSON): the only writer of a
  result file; each turns a bad path into a ValidationError naming it;
- ``scenario._type_problem`` (through ``_field``): every number read from
  JSON, in a scenario, a sweep spec or a reloaded pareto.json;
- ``write_csv``: trajectory.csv, generations.csv and sweep.csv;
- ``vote_weights_dict``: the ``vote_weights`` object of pareto.json and of
  a re-vote.
"""

from __future__ import annotations

import time as time_mod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import costs as costs_mod
from .environment import Environment, build_environment
from .errors import FitError, PlanningFailureError, ValidationError
from .errors import output_file, read_input, write_json
from .moo import (
    EvaluationContext,
    Front,
    GenerationStats,
    MooParams,
    _decode_batch,
    interior_count,
    make_context,
    run_nsga2,
)
from .power import (
    PowerQuadricModel,
    _is_axis_aligned,
    fit_quadric,
    load_power_samples,
    power_for_directions,
)
from .scenario import Scenario, _field, _section, _type_problem, run_settings
from .seeding import SeedResult, build_feasible_seed, initial_population
from .voting import VoteWeights, adjust_coefficients, vote, votes

CONSTRAINT_EMIT_TOL = 1e-9
SWEEP_COUNT_TOL = 1e-9
MAX_SWEEP_POINTS = 10**6
COST_KEYS = ("time_s", "safety", "energy_j")  # pareto.json member fields
VIOLATION_KEYS = ("max_accel_violation", "collision_violation")


@dataclass(frozen=True)
class GenerationLog:
    """The optimiser's per-generation log in columns; row g - 1 holds
    generation g.

    ``front_size`` is (n_gen,) int64: the feasible members of the first
    front. ``best`` is (n_gen, 3) float64: the lowest feasible time, safety
    and energy, nan where no member is feasible.
    """

    front_size: np.ndarray
    best: np.ndarray

    @classmethod
    def allocate(cls, n_gen: int) -> GenerationLog:
        return cls(front_size=np.empty(n_gen, dtype=np.int64), best=np.empty((n_gen, 3)))

    def record(self, stats: GenerationStats) -> None:
        """``progress_sink`` for ``run_nsga2``: copy one generation's
        numbers into its row; the message itself is not kept."""
        row = stats.generation - 1
        self.front_size[row] = stats.front_size
        self.best[row] = stats.best


@dataclass(frozen=True)
class PlanResult:
    """One plan: the deduplicated feasible ``moo.Front``, the voted member,
    its sample planes (4, Q) of x, y, z and speed as ``context`` scored them,
    with their timeline and power profile, and the optimiser's
    ``GenerationLog``: front sizes (int64) and best costs (float64,
    (n_gen, 3)) of ``n_gen`` rows."""

    front: Front
    selected_index: int
    weights: VoteWeights
    samples: np.ndarray
    sample_times: np.ndarray
    sample_powers: np.ndarray
    generation_log: GenerationLog
    metadata: dict
    context: EvaluationContext


def output_dir(path) -> Path:
    """Create the output directory ``path`` and return it. An unusable
    location (a file in the way, no permission) is a ValidationError
    naming it, so a caller that checks first fails before any work."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output directory {path}: {exc.strerror or exc}") from exc
    return path


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write the ``header`` line, then one line per row: a float cell as
    ``.10g``, any other cell with ``str``. Feed it Python values
    (``.tolist()``), so that every cell is formatted the same way."""
    with output_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def vote_weights_dict(weights: VoteWeights) -> dict:
    """The ``vote_weights`` object of pareto.json and of a re-vote."""
    return {
        "k_time": weights.k_time,
        "k_safety": weights.k_safety,
        "k_energy": weights.k_energy,
        "gamma": weights.gamma,
    }


def build_scenario_environment(scn: Scenario) -> Environment:
    return build_environment(
        scn.domain,
        scn.obstacles,
        scn.hulls,
        resolution=scn.resolution,
        max_voxels=scn.max_voxels,
    )


def trajectory_timeline(planes: np.ndarray, v_floor: float) -> np.ndarray:
    """Cumulative time at each sample of sample planes (4, Q), starting at 0."""
    lengths = costs_mod._segment_lengths(costs_mod._segment_steps(planes[:3]))
    dt = costs_mod._segment_times(lengths, planes[3], v_floor)
    return np.concatenate([[0.0], np.cumsum(dt)])


def trajectory_powers(planes: np.ndarray, model: PowerQuadricModel) -> np.ndarray:
    """Per-sample power draw of planes (4, Q) from the incoming direction,
    or the hover power where the surface gives none (a zero-length segment).

    The first sample reuses the first segment's power.
    """
    steps = costs_mod._segment_steps(planes[:3])
    powers, valid, _ = costs_mod._segment_powers(steps, costs_mod._segment_lengths(steps), model)
    powers = np.where(valid, powers, model.hover_power)
    return np.concatenate([[powers[0]], powers])


def trajectory_metrics(planes: np.ndarray, env: Environment, v_floor: float) -> dict:
    """Summary metrics of sample planes (4, Q), for sweeps and reports."""
    clearance = env.clearance(planes[:3].T)
    return {
        "duration_s": float(trajectory_timeline(planes, v_floor)[-1]),
        "length_m": float(costs_mod._segment_lengths(costs_mod._segment_steps(planes[:3])).sum()),
        "mean_obstacle_distance_m": float(np.mean(clearance)),
        "min_obstacle_distance_m": float(np.min(clearance)),
    }


def _prepare_run(
    scn: Scenario,
    env: Environment,
    power_model: PowerQuadricModel,
) -> tuple[SeedResult, EvaluationContext, np.ndarray, MooParams]:
    """Seed, evaluation context, initial population and optimizer settings
    for one run of ``scn``, on the RNG streams of ``scenario.run_settings``.
    """
    h = scn.hyper
    safety, seeding_params, moo_params = run_settings(h, scn.rng_seed)
    seed = build_feasible_seed(
        env, scn.start, scn.goal, scn.v_start, scn.v_goal, h.resolved_v_cruise(),
        h.degree, h.n_nurbs, h.a_max, h.r_uav, seeding_params,
    )
    ctx = make_context(
        env=env, power=power_model, safety=safety,
        start=scn.start, goal=scn.goal, v_start=scn.v_start, v_goal=scn.v_goal,
        degree=h.degree, n_samples=h.n_nurbs, a_max=h.a_max,
        n_interior=interior_count(len(seed.decision)), v_floor=h.v_floor,
        weight_bounds=(h.weight_min, h.weight_max),
    )
    population = initial_population(
        seed.decision, h.n_pop, ctx.bounds, replace(seeding_params, rng_seed=scn.rng_seed + 1)
    )
    return seed, ctx, population, moo_params


def plan(
    scn: Scenario,
    out_dir: Optional[Path] = None,
    env: Optional[Environment] = None,
    power_model: Optional[PowerQuadricModel] = None,
) -> PlanResult:
    """Run the full pipeline for one scenario.

    ``env`` and ``power_model`` can be passed in to reuse expensive setup
    across repeated plans of the same world (benchmarks). An
    ``out_dir`` is checked with ``output_dir`` before anything is built.
    """
    if out_dir is not None:
        out_dir = output_dir(out_dir)
    timings = {}
    t0 = time_mod.perf_counter()

    if env is None:
        env = build_scenario_environment(scn)
    timings["environment_s"] = time_mod.perf_counter() - t0

    t1 = time_mod.perf_counter()
    if power_model is None:
        power_model = fit_quadric(load_power_samples(scn.power_calibration))
    timings["power_fit_s"] = time_mod.perf_counter() - t1

    t2 = time_mod.perf_counter()
    seed, ctx, population, moo_params = _prepare_run(scn, env, power_model)
    timings["seeding_s"] = time_mod.perf_counter() - t2

    t3 = time_mod.perf_counter()
    generation_log = GenerationLog.allocate(moo_params.n_gen)
    front = run_nsga2(ctx, population, moo_params, progress_sink=generation_log.record)
    timings["optimization_s"] = time_mod.perf_counter() - t3
    if not front:
        raise PlanningFailureError("optimization returned no feasible trajectory")

    weights = adjust_coefficients(scn.risks)
    selected = vote(front, weights)

    samples = _decode_batch(front.decisions[[selected]], ctx)[:, 0]
    sample_times = trajectory_timeline(samples, ctx.v_floor)
    sample_powers = trajectory_powers(samples, power_model)
    timings["total_s"] = time_mod.perf_counter() - t0

    metadata = {
        "scenario": scn.name,
        "rng_seed": scn.rng_seed,
        "delta_rope_used": seed.delta_rope_used,
        "seed_halvings": seed.halvings,
        "front_size": len(front),
        "timings": timings,
    }

    result = PlanResult(
        front=front,
        selected_index=selected,
        weights=weights,
        samples=samples,
        sample_times=sample_times,
        sample_powers=sample_powers,
        generation_log=generation_log,
        metadata=metadata,
        context=ctx,
    )
    if out_dir is not None:
        write_result(result, scn, out_dir)
    return result


def front_to_dict(result: PlanResult, scn: Scenario) -> dict:
    front = result.front
    members = zip(front.decisions.tolist(), front.costs.tolist(), front.violations.tolist())
    return {
        "front": [
            {"decision": decision, "costs": dict(zip(COST_KEYS, costs)),
             "constraints": {**dict(zip(VIOLATION_KEYS, viol)), "feasible": viol == [0.0, 0.0]}}
            for decision, costs, viol in members
        ],
        "selected_index": result.selected_index,
        "vote_weights": vote_weights_dict(result.weights),
        "context": {
            "start": scn.start.tolist(),
            "goal": scn.goal.tolist(),
            "v_start": scn.v_start,
            "v_goal": scn.v_goal,
            "degree": scn.hyper.degree,
            "n_nurbs": scn.hyper.n_nurbs,
            "rng_seed": scn.rng_seed,
        },
    }


def write_result(result: PlanResult, scn: Scenario, out_dir: Path) -> dict:
    """Emit pareto.json, trajectory.csv, generations.csv, metadata.json.

    Returns the paths written. Every emitted trajectory sample set is
    re-checked against the hard constraints. generations.csv has one line
    per row of the ``GenerationLog`` columns (``nan`` where a generation
    had no feasible member). ``write_csv`` writes both csv files.
    """
    out_dir = output_dir(out_dir)
    h = scn.hyper

    report = costs_mod.check_constraints(result.samples, result.context.env, h.a_max, h.r_uav)
    if report.max_accel_violation > CONSTRAINT_EMIT_TOL or report.collision_violation > CONSTRAINT_EMIT_TOL:
        raise ValidationError(
            f"selected trajectory violates hard constraints on emission: {report}"
        )

    pareto_path = write_json(out_dir / "pareto.json", front_to_dict(result, scn))

    traj_path = write_csv(
        out_dir / "trajectory.csv",
        ("t_s", "x_m", "y_m", "z_m", "speed_mps", "power_w"),
        np.column_stack((result.sample_times, result.samples.T, result.sample_powers)).tolist(),
    )

    log = result.generation_log
    gen_rows = enumerate(zip(log.front_size.tolist(), log.best.tolist()), start=1)
    gen_path = write_csv(
        out_dir / "generations.csv",
        ("gen", "front_size", "best_time", "best_safety", "best_energy"),
        ((gen, front_size, *best) for gen, (front_size, best) in gen_rows),
    )

    files = {"pareto": pareto_path, "trajectory": traj_path, "generations": gen_path}
    meta_path = write_json(
        out_dir / "metadata.json",
        {**result.metadata, "files": {name: path.name for name, path in files.items()}},
    )

    return {**files, "metadata": meta_path}


def _front_member(entry: dict, where: str, errors: list) -> tuple[list, list, list]:
    """The decision, costs and violations of the pareto.json member at
    ``where`` (``front[i]``), with each that is not a finite JSON number
    (``scenario._type_problem``) reported by member and field."""
    decision = list(entry["decision"])
    costs = {f"costs.{k}": entry["costs"][k] for k in COST_KEYS}
    violations = {f"constraints.{k}": entry["constraints"][k] for k in VIOLATION_KEYS}
    named = {**{f"decision[{j}]": v for j, v in enumerate(decision)}, **costs, **violations}
    errors.extend(
        f"{where}.{name}: {problem}"
        for name, value in named.items()
        if (problem := _type_problem(value, float))
    )
    return decision, list(costs.values()), list(violations.values())


def load_front(path) -> tuple[Front, dict]:
    """Reload a pareto.json into a ``moo.Front`` plus its context block.

    A file that ``errors.read_input`` cannot read, or a missing ``front`` or
    member field, raises ValidationError. So do an empty front, a decision
    of another length than ``front[0]``'s, and a decision entry, cost or
    violation that is not a finite JSON number (a string, a bool, NaN or an
    infinity), each named as in ``front[3].costs.time_s``, one message each.
    """
    errors: list[str] = []
    data = read_input(path, "Pareto front", as_json=True)
    try:
        rows = [_front_member(entry, f"front[{i}]", errors) for i, entry in enumerate(data["front"])]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: not a readable Pareto front ({exc!r})") from exc
    if not rows:
        errors.append("front is empty")
    for i, (decision, _, _) in enumerate(rows):
        if len(decision) != len(rows[0][0]):
            errors.append(f"front[{i}].decision: length {len(decision)}, not {len(rows[0][0])}")
    if errors:
        raise ValidationError([f"{path}: {problem}" for problem in errors])
    return Front(*(np.array(column, dtype=float) for column in zip(*rows))), data.get("context", {})


# --- sweeps -----------------------------------------------------------------


def _sweep_points(scn: Scenario, spec) -> tuple[Optional[str], Optional[list], list[VoteWeights]]:
    """The grid of ``spec`` as (risk axis, its values, vote weights per
    point); axis and values are None for a coefficient sweep. Raises one
    ValidationError with every problem of the spec, a grid of more than
    ``MAX_SWEEP_POINTS`` points among them, before the grid is built; its
    numbers follow the scenario's rule (``scenario._field``)."""
    errors: list[str] = []
    spec = _section(spec, "sweep spec", errors)
    kind = spec.get("kind")
    if kind not in ("risk", "coefficients"):
        errors.append(f"sweep.kind: must be 'risk' or 'coefficients', got {kind!r}")
    n_points = 0.0  # a float, so that an infinite count compares too
    if kind == "risk":
        axis = spec.get("axis")
        if axis not in ("wind", "communication", "localization", "battery"):
            errors.append(f"sweep.axis: unknown risk axis {axis!r}")
        start = float(_field(spec, "start", "sweep.", 0.0, errors))
        stop = float(_field(spec, "stop", "sweep.", 1.0, errors))
        step = float(_field(spec, "step", "sweep.", 0.1, errors))
        if step > 0 and stop >= start:
            # The tolerance still counts a stop a whole number of steps
            # from start when the division rounds just below that number.
            n_points = np.floor((stop - start) / step + SWEEP_COUNT_TOL) + 1
        else:
            errors.append("sweep.start/stop/step: need step > 0 and stop >= start")
    if kind == "coefficients":
        spacing = float(_field(spec, "spacing", "sweep.", 0.1, errors))
        steps = 1.0 / spacing if spacing > 0 else 0.0  # inf for a subnormal spacing
        n_points = (steps + 1) * (steps + 2) / 2
        if n_points <= MAX_SWEEP_POINTS:
            m = round(steps)
            if m < 1 or abs(m * spacing - 1.0) > 1e-9:
                errors.append(f"sweep.spacing: {spacing} must be > 0 and divide 1 evenly")
    if n_points > MAX_SWEEP_POINTS:
        errors.append(f"sweep: {n_points:.4g} grid points, more than {MAX_SWEEP_POINTS}")
    if errors:
        raise ValidationError(errors)

    if kind == "coefficients":
        # The lattice of (k_time, k_safety, k_energy) summing to 1 in steps
        # of 1 / m; the baselines equal the coefficients.
        grid = [(i / m, j / m, (m - i - j) / m) for i in range(m + 1) for j in range(m + 1 - i)]
        return None, None, [VoteWeights(*k, *k, gamma=1.0) for k in grid]
    # min() keeps the last point from passing stop by the rounding that
    # SWEEP_COUNT_TOL forgives.
    values = [min(start + i * step, stop) for i in range(int(n_points))]
    weights = [adjust_coefficients(replace(scn.risks, **{axis: value})) for value in values]
    return axis, values, weights


def _member_metrics(front: Front, members: Iterable[int], ctx: EvaluationContext) -> dict:
    """Each of the distinct front ``members`` mapped to its time and energy
    cost plus ``trajectory_metrics``. The members are sampled in one batch
    decode in ``ctx``, the context that scored the front."""
    members = list(members)
    planes = _decode_batch(front.decisions[members], ctx)
    return {
        m: {"time_s": front.costs[m, 0].item(), "energy_j": front.costs[m, 2].item(),
            **trajectory_metrics(planes[:, row], ctx.env, ctx.v_floor)}
        for row, m in enumerate(members)
    }


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence):
    """A sweep's rows in columns; row p is grid point p.

    ``k`` is (P, 3) float64: the vote weights on (time, safety, energy).
    ``selected_index`` is (P,) int64: the member each point selects, and
    ``metrics`` maps each selected index to its ``_member_metrics``. A risk
    sweep also has its ``axis`` name and the (P,) float64 ``value`` column.

    As a sequence it yields one new dict per row, built on access: ``axis``
    and ``value`` (risk sweeps), ``k_time``, ``k_safety``, ``k_energy``,
    ``selected_index``, then the metrics, as Python numbers. ``==``
    compares those rows, so a table equals a list of the same dicts.
    """

    k: np.ndarray
    selected_index: np.ndarray
    metrics: dict
    axis: Optional[str] = None
    value: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.selected_index)

    def __getitem__(self, item):
        rows = range(len(self))[item]  # negative indices, slices, IndexError
        if isinstance(rows, range):
            return [self._row(p) for p in rows]
        return self._row(rows)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def _row(self, p: int) -> dict:
        head = {} if self.axis is None else {"axis": self.axis, "value": float(self.value[p])}
        k_time, k_safety, k_energy = self.k[p].tolist()
        index = int(self.selected_index[p])
        return {
            **head, "k_time": k_time, "k_safety": k_safety, "k_energy": k_energy,
            "selected_index": index, **self.metrics[index],
        }


def sweep(
    scn: Scenario,
    sweep_spec: dict,
    out_dir: Optional[Path] = None,
) -> SweepTable:
    """Vote-coefficient or single-risk-axis sweep.

    Every grid point re-votes on one Pareto front planned once: risks and
    coefficients enter only the vote, never the optimiser. The spec and
    then the output location are checked before anything is planned.

    The whole grid goes through one ``votes`` ballot, so the front's ranks
    are built once. ``_member_metrics`` samples the distinct selected
    members in one batch decode in the plan's context. The rows come back
    as a ``SweepTable``, whose size grows with the grid by two columns, not
    by a dict per row; sweep.csv is written from it.
    """
    axis, values, weights = _sweep_points(scn, sweep_spec)
    if out_dir is not None:
        out_dir = output_dir(out_dir)

    result = plan(scn)
    front = result.front

    selected = votes(front, weights)
    table = SweepTable(
        k=np.array([(w.k_time, w.k_safety, w.k_energy) for w in weights]),
        selected_index=np.array(selected, dtype=np.int64),
        metrics=_member_metrics(front, dict.fromkeys(selected), result.context),
        axis=axis,
        value=None if values is None else np.array(values, dtype=float),
    )

    if out_dir is not None:
        write_csv(out_dir / "sweep.csv", list(table[0]), (row.values() for row in table))
    return table


# --- power model fitting report ---------------------------------------------


def fit_power_report(csv_path, holdout_fraction: float = 1.0) -> tuple[PowerQuadricModel, dict]:
    """Fit on the six axis-aligned samples, validate on the rest.

    ``holdout_fraction`` subsamples the validation set with a fixed RNG
    stream (seed 0), so the subset is deterministic; 1.0 keeps everything.
    The report carries agreement statistics (mean error with 1.96-sigma
    limits) and per-sample residuals.
    """
    if not 0.0 < holdout_fraction <= 1.0:
        raise ValidationError("holdout_fraction must be in (0, 1]")
    samples = load_power_samples(csv_path)
    axis_samples = [s for s in samples if _is_axis_aligned(s.direction)]
    rest = [s for s in samples if not _is_axis_aligned(s.direction)]
    if len(axis_samples) < 6:
        raise FitError(
            f"need the six axis-aligned calibration samples, found {len(axis_samples)}"
        )
    model = fit_quadric(axis_samples)

    if holdout_fraction < 1.0 and rest:
        rng = np.random.default_rng(0)
        n_keep = max(1, int(round(holdout_fraction * len(rest))))
        keep_idx = rng.choice(len(rest), size=n_keep, replace=False)
        rest = [rest[i] for i in sorted(keep_idx)]

    residuals = []
    for s in rest:
        predicted, valid = power_for_directions(model, s.direction[None, :])
        predicted = float(predicted[0]) if valid[0] else float("nan")
        residuals.append(
            {
                "direction": s.direction.tolist(),
                "measured_w": s.power,
                "predicted_w": predicted,
                "error_w": predicted - s.power,
            }
        )
    errors = np.array([r["error_w"] for r in residuals]) if residuals else np.zeros(0)
    mean_error = float(np.mean(errors)) if len(errors) else 0.0
    sigma = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
    report = {
        "n_fit": len(axis_samples),
        "n_validation": len(rest),
        "mean_error_w": mean_error,
        "sigma_w": sigma,
        "limits_of_agreement_w": [mean_error - 1.96 * sigma, mean_error + 1.96 * sigma],
        "residuals": residuals,
    }
    return model, report
