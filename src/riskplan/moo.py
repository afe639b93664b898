"""Constrained NSGA-II over the trajectory design vector.

The design vector fixes start and goal (positions and speeds) and exposes
[w_0, then per interior control point: x, y, z, speed, w, then w_n].
``_layout_views`` is the only code that knows this layout: ``build_bounds``
writes the box bounds through its views, ``seeding`` the seed vector and the
population noise, and ``_control_net`` reads them into control net planes
(4, N, C) of x, y, z and speed for both ``decode`` and the batch path.
``_decode_batch`` samples a population by ``nurbs.rational_blend`` into the
(4, N, Q) planes that every ``costs`` kernel reads. It is the one sampler of
a plan: ``pipeline`` decodes the members it emits with it, in the context
that scored them, so the emitted samples are the scored ones. ``decode``
builds one member's curve for code without a context (the seed check).

``make_context`` builds once per plan what a plan never changes: the basis
rows of the sample parameters with their band of non-zero values, from one
``nurbs.basis_rows`` call, and the hulls' cull boxes
(``costs.hull_cull_boxes``).
Both the decode and the hull cost skip exact zeros: the blend sums only each
row's band, and ``costs._hull_cost_batch`` evaluates a hull only on the
trajectories that come within ``r_ch_max`` (plus a rounding slack) of it.
Each skipped term is a zero basis value times the net or a +0 hull cost, so
the scores keep the bits of the dense computation.

Constraint handling is the feasibility-first dominance rule: feasible beats
infeasible, infeasible compare on total violation. Ranking is by front, then
by crowding distance (Deb et al. 2002), in one loop, ``_rank_and_crowding``.

The generational loop works on plain arrays for speed and returns a ``Front``
of columns; indexing a ``Front`` is the one place a member object is built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import costs as costs_mod
from .costs import ConstraintReport, CostVector
from .environment import Environment, SafetyParams
from .errors import DecodeError, ValidationError
from .nurbs import (
    NurbsCurve4D,
    basis_rows,
    make_clamped_uniform_knots,
    rational_blend,
)
from .power import PowerQuadricModel

log = logging.getLogger(__name__)

OBJECTIVE_NAMES = ("time", "safety", "energy")
ERROR_COST_SENTINEL = 1e9
ERROR_VIOLATION_SENTINEL = 1e6
FRONT_DEDUP_TOL = 1e-9


def decision_arity(n_interior: int) -> int:
    return 5 * n_interior + 2


def interior_count(arity: int) -> int:
    n, rem = divmod(arity - 2, 5)
    if rem != 0 or n < 0:
        raise DecodeError(f"decision vector length {arity} does not match 5k+2 layout")
    return n


def _layout_views(decisions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of decision vectors (..., 5k+2), writable when ``decisions`` is
    contiguous: the end weights (w_0, w_n) as (..., 2) and one
    (x, y, z, speed, w) row per interior control point as (..., k, 5)."""
    arity = decisions.shape[-1]
    n_interior = interior_count(arity)
    rows = decisions[..., 1:-1].reshape(*decisions.shape[:-1], n_interior, 5)
    return decisions[..., :: arity - 1], rows


@dataclass(frozen=True)
class Bounds:
    """Per-entry box bounds for a decision vector of fixed arity."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.lower.shape != self.upper.shape:
            raise ValidationError("bounds arrays must have equal shape")
        if not np.all(self.lower < self.upper):
            raise ValidationError("every lower bound must be < its upper bound")

    def clip(self, decisions: np.ndarray) -> np.ndarray:
        return np.clip(decisions, self.lower, self.upper)


def build_bounds(domain, n_interior: int, v_floor: float, weight_bounds: tuple) -> Bounds:
    lower = np.empty(decision_arity(n_interior))
    upper = np.empty_like(lower)
    for bound, corner, speed, weight in (
        (lower, domain.min_corner, v_floor, weight_bounds[0]),
        (upper, domain.max_corner, domain.v_max, weight_bounds[1]),
    ):
        ends, rows = _layout_views(bound)
        ends[:] = weight
        rows[:, :3] = corner
        rows[:, 3] = speed
        rows[:, 4] = weight
    return Bounds(lower=lower, upper=upper)


def decode(
    decision: np.ndarray,
    start,
    goal,
    v_start: float,
    v_goal: float,
    degree: int,
) -> NurbsCurve4D:
    """Decision vector to curve: fixed endpoints plus interior entries."""
    decision = np.asarray(decision, dtype=float)
    net, weights = _control_net(decision[None, :], start, goal, v_start, v_goal)
    n_ctrl = net.shape[2]
    if n_ctrl < degree + 1:
        raise DecodeError(
            f"{n_ctrl} control points cannot support degree {degree} (need >= {degree + 1})"
        )
    knots = make_clamped_uniform_knots(n_ctrl, degree)
    return NurbsCurve4D(
        control_points=net[:, 0].T.copy(), weights=weights[0], degree=degree, knots=knots
    )


def _control_net(
    decisions: np.ndarray, start, goal, v_start: float, v_goal: float
) -> tuple[np.ndarray, np.ndarray]:
    """Control net planes (4, N, k+2) of x, y, z and speed, and weights
    (N, k+2), of decisions (N, 5k+2): the fixed endpoints plus the interior
    entries."""
    ends, rows = _layout_views(decisions)
    net = np.empty((4, len(decisions), rows.shape[1] + 2))
    net[:3, :, 0] = np.reshape(start, (3, 1))
    net[3, :, 0] = v_start
    net[:3, :, -1] = np.reshape(goal, (3, 1))
    net[3, :, -1] = v_goal
    net[:, :, 1:-1] = rows[:, :, :4].transpose(2, 0, 1)
    weights = np.concatenate([ends[:, :1], rows[:, :, 4], ends[:, 1:]], axis=1)
    return net, weights


@dataclass(frozen=True)
class EvaluatedIndividual:
    decision: np.ndarray
    costs: CostVector
    constraints: ConstraintReport

    @property
    def feasible(self) -> bool:
        return self.constraints.feasible


@dataclass(frozen=True, eq=False)
class Front:
    """Front members as float64 columns, row m for member m: ``decisions`` (M, D),
    ``costs`` (M, 3) of (time, safety, energy), ``violations`` (M, 2) of (accel,
    collision). ``front[m]`` builds its ``EvaluatedIndividual`` of Python floats."""

    decisions: np.ndarray
    costs: np.ndarray
    violations: np.ndarray

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, m: int) -> EvaluatedIndividual:
        m = range(len(self))[m]  # negative indices, IndexError
        return EvaluatedIndividual(
            self.decisions[m].copy(),
            CostVector(*self.costs[m].tolist()),
            ConstraintReport(*self.violations[m].tolist()),
        )


@dataclass(frozen=True)
class MooParams:
    n_gen: int
    n_pop: int
    crossover_rate: float
    eta_crossover: float
    mutation_rate: Optional[float]  # None: 1/D, resolved at run time
    eta_mutation: float
    rng_seed: int = 0

    def __post_init__(self):
        problems = []
        if self.n_gen < 1:
            problems.append("n_gen: must be >= 1")
        if self.n_pop < 8 or self.n_pop % 4 != 0:
            problems.append("n_pop: must be >= 8 and divisible by 4")
        if not 0 <= self.crossover_rate <= 1:
            problems.append("crossover_rate: must be in [0, 1]")
        if self.eta_crossover <= 0:
            problems.append("eta_crossover: must be > 0")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            problems.append("mutation_rate: must be in [0, 1]")
        if self.eta_mutation <= 0:
            problems.append("eta_mutation: must be > 0")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class EvaluationContext:
    """Everything needed to score a decision vector, frozen for a run;
    ``basis``, ``band`` and ``hull_boxes`` are built once, by ``make_context``."""

    env: Environment
    power: PowerQuadricModel
    safety: SafetyParams
    start: np.ndarray
    goal: np.ndarray
    v_start: float
    v_goal: float
    a_max: float
    v_floor: float
    bounds: Bounds
    basis: np.ndarray = field(repr=False)
    band: tuple = field(repr=False)
    hull_boxes: tuple = field(repr=False)


def make_context(
    env: Environment,
    power: PowerQuadricModel,
    safety: SafetyParams,
    start,
    goal,
    v_start: float,
    v_goal: float,
    degree: int,
    n_samples: int,
    a_max: float,
    n_interior: int,
    v_floor: float,
    weight_bounds: tuple,
) -> EvaluationContext:
    n_ctrl = n_interior + 2
    knots = make_clamped_uniform_knots(n_ctrl, degree)
    params = np.linspace(knots[degree], knots[-degree - 1], n_samples)
    basis, band = basis_rows(knots, degree, params)
    bounds = build_bounds(env.domain, n_interior, v_floor, weight_bounds)
    return EvaluationContext(
        env=env,
        power=power,
        safety=safety,
        start=np.asarray(start, dtype=float),
        goal=np.asarray(goal, dtype=float),
        v_start=float(v_start),
        v_goal=float(v_goal),
        a_max=a_max,
        v_floor=v_floor,
        bounds=bounds,
        basis=basis,
        band=band,
        hull_boxes=costs_mod.hull_cull_boxes(env.hulls, safety.r_ch_max),
    )


def _decode_batch(decisions: np.ndarray, ctx: EvaluationContext) -> np.ndarray:
    """Sample planes (4, N, Q) of x, y, z and speed for a population."""
    net, weights = _control_net(decisions, ctx.start, ctx.goal, ctx.v_start, ctx.v_goal)
    return rational_blend(ctx.basis, ctx.band, weights, net)


def evaluate_batch(decisions: np.ndarray, ctx: EvaluationContext) -> tuple[np.ndarray, np.ndarray]:
    """Scores for a population: (costs (N,3), violations (N,2)).

    Evaluation never raises for individual candidates: world-model or
    power-model failures mark the candidate infeasible with sentinel
    costs and an added collision violation.

    NaN clearance (a point outside the field) reads as 0 through an
    ``isnan`` mask, which is all ``np.nan_to_num`` would do: the field is
    finite and the trilinear weights lie in [0, 1], so clearance is finite
    or NaN. An energy is NaN only on a row the power surface fails, and
    infinite only on a row with an infinite segment, which lies outside the
    field; both rows get the sentinel costs, so the energy is used as is.
    """
    decisions = np.atleast_2d(np.asarray(decisions, dtype=float))
    planes = _decode_batch(decisions, ctx)
    pos, speeds = planes[:3], planes[3]
    steps = costs_mod._segment_steps(pos)
    segment_lengths = costs_mod._segment_lengths(steps)

    time = costs_mod._time_batch(segment_lengths, speeds, ctx.v_floor)

    d_obs = ctx.env.clearance(pos.reshape(3, -1).T, out_of_range="nan").reshape(speeds.shape)
    outside = np.isnan(d_obs)
    in_domain = ~outside.any(axis=1)
    d_obs[outside] = 0.0

    sdf_costs = costs_mod.sdf_point_cost(d_obs, ctx.safety)
    hull_costs = costs_mod._hull_cost_batch(
        pos, ctx.env.hulls, ctx.hull_boxes, ctx.safety.r_ch_max
    )
    safety = costs_mod._safety_batch(sdf_costs, hull_costs, ctx.safety.k_a, ctx.safety.k_b)

    energy, power_ok = costs_mod._energy_batch(
        steps, segment_lengths, speeds, ctx.power, ctx.v_floor
    )

    accel_viol = costs_mod._accel_violation_batch(segment_lengths, speeds, ctx.a_max)
    coll_viol = costs_mod._collision_violation_batch(d_obs, ctx.safety.r_uav)

    bad = ~(in_domain & power_ok)
    cost_arr = np.column_stack([time, safety, energy])
    cost_arr[bad] = ERROR_COST_SENTINEL
    coll_viol = coll_viol + np.where(bad, ERROR_VIOLATION_SENTINEL, 0.0)
    return cost_arr, np.column_stack([accel_viol, coll_viol])


def evaluate(decision: np.ndarray, ctx: EvaluationContext) -> EvaluatedIndividual:
    """Score one decision vector (thin wrapper over the batch path)."""
    rows = np.asarray(decision, dtype=float)[None]
    return Front(rows, *evaluate_batch(rows, ctx))[0]


# --- non-dominated sorting and crowding -----------------------------------


def _dominance_matrix(objs: np.ndarray, violations: np.ndarray) -> np.ndarray:
    """dom[i, j] is True when i dominates j under feasibility-first rules."""
    feas = violations <= 0.0
    col = objs[:, 0]
    leq = col[:, None] <= col[None, :]
    for k in range(1, objs.shape[1]):
        col = objs[:, k]
        leq &= col[:, None] <= col[None, :]
    # i <= j everywhere and not j <= i everywhere: i < j somewhere. Where
    # leq[i, j] holds, no entry of i or j is NaN, so this is exact.
    pareto = leq & ~leq.T
    fi = feas[:, None]
    fj = feas[None, :]
    less_violation = violations[:, None] < violations[None, :]
    return (fi & ~fj) | (~fi & ~fj & less_violation) | (fi & fj & pareto)


def _fronts_from_arrays(
    objs: np.ndarray, violations: np.ndarray, n_required: Optional[int] = None
) -> list[np.ndarray]:
    """Non-dominated fronts in rank order. With ``n_required`` the peeling
    stops at the first front that brings the assigned count to at least
    that many, so the result is a prefix of the full sort."""
    n = len(objs)
    target = n if n_required is None else min(n_required, n)
    dom = _dominance_matrix(objs, violations)
    n_dominators = dom.sum(axis=0)
    fronts = []
    assigned = np.zeros(n, dtype=bool)
    n_assigned = 0
    while n_assigned < target:
        current = np.flatnonzero((n_dominators == 0) & ~assigned)
        fronts.append(current)
        assigned[current] = True
        n_assigned += len(current)
        if n_assigned < target:
            n_dominators = n_dominators - dom[current].sum(axis=0)
    return fronts


def _crowding_from_arrays(objs: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance within one front."""
    m = len(objs)
    dist = np.zeros(m)
    if m <= 2:
        return np.full(m, np.inf)
    for col in range(objs.shape[1]):
        order = np.argsort(objs[:, col], kind="stable")
        values = objs[order, col]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = values[-1] - values[0]
        if span > 0:
            gaps = (values[2:] - values[:-2]) / span
            dist[order[1:-1]] += gaps
    return dist


# --- variation operators ----------------------------------------------------


def _sbx_batch(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rate: float,
    eta: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover on paired parent rows."""
    n, d = parents_a.shape
    apply_pair = rng.random(n) < rate
    apply_var = rng.random((n, d)) < 0.5
    u = rng.random((n, d))
    swap = rng.random((n, d)) < 0.5

    x1 = np.minimum(parents_a, parents_b)
    x2 = np.maximum(parents_a, parents_b)
    diff = x2 - x1
    active = apply_pair[:, None] & apply_var & (diff > 1e-14)

    safe_diff = np.where(diff > 1e-14, diff, 1.0)
    exp = eta + 1.0

    def _betaq(beta):
        alpha = 2.0 - beta ** (-exp)
        return np.where(
            u <= 1.0 / alpha,
            (u * alpha) ** (1.0 / exp),
            (1.0 / (2.0 - u * alpha)) ** (1.0 / exp),
        )

    betaq1 = _betaq(1.0 + 2.0 * (x1 - lower) / safe_diff)
    betaq2 = _betaq(1.0 + 2.0 * (upper - x2) / safe_diff)
    c1 = 0.5 * ((x1 + x2) - betaq1 * diff)
    c2 = 0.5 * ((x1 + x2) + betaq2 * diff)
    c1 = np.clip(c1, lower, upper)
    c2 = np.clip(c2, lower, upper)
    c1_final = np.where(swap, c2, c1)
    c2_final = np.where(swap, c1, c2)

    child_a = np.where(active, c1_final, parents_a)
    child_b = np.where(active, c2_final, parents_b)
    return child_a, child_b


def _mutation_batch(
    pop: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rate: float,
    eta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bounded polynomial mutation, applied per variable with probability rate.

    Both (N, D) draws are taken in full, so the RNG stream does not depend
    on which entries mutate; the arithmetic runs only on those entries.
    """
    n, d = pop.shape
    apply = rng.random((n, d)) < rate
    u = rng.random((n, d))[apply]
    _, col = np.nonzero(apply)
    lo, hi, x = lower[col], upper[col], pop[apply]
    span = hi - lo
    delta1 = (x - lo) / span
    delta2 = (hi - x) / span
    exp = eta + 1.0
    low_side = u < 0.5
    val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - delta1) ** exp
    val_high = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - delta2) ** exp
    deltaq = np.where(low_side, val_low ** (1.0 / exp) - 1.0, 1.0 - val_high ** (1.0 / exp))
    out = pop.copy()
    out[apply] = np.clip(x + deltaq * span, lo, hi)
    return out


# --- generational engine ----------------------------------------------------


@dataclass(frozen=True)
class GenerationStats:
    """One generation's numbers, as sent to ``progress_sink``: a message the
    sink reads and drops (``pipeline.GenerationLog`` keeps them in columns)."""

    generation: int
    front_size: int
    best: tuple


def _rank_and_crowding(
    objs: np.ndarray, violations: np.ndarray, n_required: Optional[int] = None
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Fronts, front rank and crowding distance per member. With
    ``n_required`` only the fronts of ``_fronts_from_arrays(..., n_required)``
    are ranked; the entries of the other members are undefined."""
    fronts = _fronts_from_arrays(objs, violations, n_required)
    ranks = np.empty(len(objs), dtype=int)
    crowd = np.empty(len(objs))
    for rank, front in enumerate(fronts):
        ranks[front] = rank
        crowd[front] = _crowding_from_arrays(objs[front])
    return fronts, ranks, crowd


def _tournament(ranks: np.ndarray, crowd: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(ranks)
    cand_a = rng.permutation(n)
    cand_b = rng.permutation(n)
    a_wins = (ranks[cand_a] < ranks[cand_b]) | (
        (ranks[cand_a] == ranks[cand_b]) & (crowd[cand_a] >= crowd[cand_b])
    )
    return np.where(a_wins, cand_a, cand_b)


def _select_survivors(
    objs: np.ndarray, violations: np.ndarray, n_survivors: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Environmental selection: whole fronts in index order, the last one
    trimmed by crowding only when it does not fit whole."""
    fronts, ranks, crowd = _rank_and_crowding(objs, violations, n_survivors)
    *whole, last = fronts
    remaining = n_survivors - sum(len(front) for front in whole)
    if len(last) > remaining:
        last = last[np.argsort(-crowd[last], kind="stable")[:remaining]]
    idx = np.concatenate([*whole, last])
    return idx, ranks[idx], crowd[idx]


def nsga2_minimize(
    batch_evaluate: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    lower: np.ndarray,
    upper: np.ndarray,
    params: MooParams,
    initial: np.ndarray,
    progress_sink: Optional[Callable[[GenerationStats], None]] = None,
) -> tuple[np.ndarray, ...]:
    """Generic constrained NSGA-II loop on raw arrays.

    ``batch_evaluate`` maps decisions (N, D) to (objectives (N, E),
    total violation (N,), *extras), where each optional extra is an array
    with one row per decision that selection carries along unread.
    Returns the final population followed by its rows of everything
    ``batch_evaluate`` returned: (pop, objectives, violation, *extras).

    ``progress_sink``, when given, is called once per generation, in order
    1..n_gen, with a fresh ``GenerationStats``; the loop keeps no reference
    to it, so a sink that wants a log copies the numbers out.
    """
    pop = np.clip(np.asarray(initial, dtype=float), lower, upper)
    if len(pop) != params.n_pop:
        raise ValidationError(
            f"initial population size {len(pop)} does not match n_pop {params.n_pop}"
        )
    rng = np.random.default_rng(params.rng_seed)
    mutation_rate = params.mutation_rate
    if mutation_rate is None:
        mutation_rate = 1.0 / pop.shape[1]

    scores = batch_evaluate(pop)
    _, ranks, crowd = _rank_and_crowding(scores[0], scores[1])

    for gen in range(1, params.n_gen + 1):
        parents_idx = _tournament(ranks, crowd, rng)
        parents = pop[parents_idx]
        child_a, child_b = _sbx_batch(
            parents[0::2], parents[1::2], lower, upper,
            params.crossover_rate, params.eta_crossover, rng,
        )
        offspring = np.empty_like(pop)
        offspring[0::2] = child_a
        offspring[1::2] = child_b
        offspring = _mutation_batch(offspring, lower, upper, mutation_rate, params.eta_mutation, rng)

        comb_pop = np.vstack([pop, offspring])
        comb = [np.concatenate(pair) for pair in zip(scores, batch_evaluate(offspring))]
        survivors, ranks, crowd = _select_survivors(comb[0], comb[1], params.n_pop)
        pop = comb_pop[survivors]
        scores = tuple(arr[survivors] for arr in comb)

        if progress_sink is not None:
            objs, viol = scores[:2]
            feasible = viol <= 0.0
            front_size = int(np.sum((ranks == 0) & feasible))
            best = tuple(
                float(objs[feasible, col].min()) if feasible.any() else float("nan")
                for col in range(objs.shape[1])
            )
            progress_sink(GenerationStats(generation=gen, front_size=front_size, best=best))

    return (pop, *scores)


def _dedup_front(objs: np.ndarray) -> np.ndarray:
    """Indices of the first representative of each objective vector,
    compared at FRONT_DEDUP_TOL absolute tolerance."""
    keys = np.round(objs / FRONT_DEDUP_TOL).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return np.sort(first)


def run_nsga2(
    ctx: EvaluationContext,
    seed_population: np.ndarray,
    params: MooParams,
    progress_sink: Optional[Callable[[GenerationStats], None]] = None,
) -> Front:
    """Full trajectory optimization; returns the feasible first front,
    deduplicated on objective vectors and sorted by (time, safety, energy).

    An empty front means no feasible individual survived, which can only
    happen when the seed itself was infeasible.
    """
    def batch(decisions: np.ndarray) -> tuple[np.ndarray, ...]:
        cost_arr, viol = evaluate_batch(decisions, ctx)
        return cost_arr, viol.sum(axis=1), viol

    pop, cost_arr, viol_total, viol = nsga2_minimize(
        batch, ctx.bounds.lower, ctx.bounds.upper, params, seed_population, progress_sink
    )

    feasible = viol_total <= 0.0
    if not feasible.any():
        log.warning("optimization ended with no feasible individual (infeasible seed?)")
    first = _fronts_from_arrays(cost_arr, viol_total, 1)[0]
    first = first[feasible[first]]
    kept = first[_dedup_front(cost_arr[first])]
    kept = kept[np.lexsort((cost_arr[kept, 2], cost_arr[kept, 1], cost_arr[kept, 0]))]
    return Front(pop[kept], cost_arr[kept], viol[kept])
