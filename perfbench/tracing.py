"""Span tracer wrapped around the planner's public functions.

``install`` rebinds each traced name where the planner looks it up (module
globals and class attributes), so the program itself is unchanged. It is
called only in a ``--trace 1`` process; wrappers record only while the
tracer is active.

A span is ``[name, start, end, parent, call_id]``. Spans stay in memory
while the workload runs and are written out once at the end. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import riskplan.costs as costs_mod
import riskplan.environment as environment_mod
import riskplan.moo as moo_mod
import riskplan.nurbs as nurbs_mod
import riskplan.pipeline as pipeline_mod
import riskplan.scenario as scenario_mod
import riskplan.seeding as seeding_mod


class Tracer:
    """Spans and work counts of one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.gen_ms = []
        self.active = False
        self.call_id = -1
        self._stack = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span per call; ``count(counts, args, result)``
        records work done at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, perf_counter(), None, parent, self.call_id])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name])

    def self_times(self, name: str) -> np.ndarray:
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return np.array(
            [s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans) if s[0] == name]
        )

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "call_id")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _count_points(counts, args, result):
    counts["clearance_points"] += np.asarray(args[1]).size // 3


def _count_evaluations(counts, args, result):
    _, violations = result
    counts["evaluations"] += len(violations)
    counts["feasible"] += int(np.sum(violations.sum(axis=1) <= 0.0))


def _count_voxels(counts, args, result):
    counts["voxels"] = float(np.prod(result.sdf.dims))


def _count_bytes(counts, args, result):
    counts["bytes_written"] += sum(p.stat().st_size for p in result.values())


def _traced_nsga2(tracer: Tracer, fn):
    """Times generations from ``progress_sink`` callbacks; the first
    interval also covers scoring the initial population."""
    spanned = tracer.wrap("moo.nsga2", fn)

    @functools.wraps(fn)
    def traced(batch_evaluate, lower, upper, params, initial, progress_sink=None):
        last = perf_counter()

        def sink(stats):
            nonlocal last
            now = perf_counter()
            if tracer.active:
                tracer.gen_ms.append(1e3 * (now - last))
                tracer.counts["generations"] += 1
            last = now
            if progress_sink is not None:
                progress_sink(stats)

        return spanned(batch_evaluate, lower, upper, params, initial, sink)

    return traced


def install(tracer: Tracer) -> None:
    """Rebind the traced public names. Irreversible for the process."""
    w = tracer.wrap
    scenario_mod.scenario_from_dict = w("scenario.load", scenario_mod.scenario_from_dict)
    pipeline_mod.build_environment = w(
        "environment.build", pipeline_mod.build_environment, _count_voxels
    )
    env_cls, hull_cls = environment_mod.Environment, environment_mod.OrientedHull
    env_cls.clearance = w("environment.clearance", env_cls.clearance, _count_points)
    hull_cls.signed_distance = w("environment.hull", hull_cls.signed_distance)
    costs_mod.power_for_directions = w("power.directions", costs_mod.power_for_directions)
    costs_mod.check_constraints = w("costs.check", costs_mod.check_constraints)
    pipeline_mod.build_feasible_seed = w("seeding.seed", pipeline_mod.build_feasible_seed)
    seeding_mod.find_seed_path = w("seeding.find_path", seeding_mod.find_seed_path)
    sample = w("nurbs.sample", nurbs_mod.sample_uniform)
    pipeline_mod.sample_uniform = sample
    seeding_mod.sample_uniform = sample
    moo_mod.evaluate_batch = w("moo.evaluate", moo_mod.evaluate_batch, _count_evaluations)
    moo_mod.nsga2_minimize = _traced_nsga2(tracer, moo_mod.nsga2_minimize)
    pipeline_mod.vote = w("voting.vote", pipeline_mod.vote)
    pipeline_mod.write_result = w("pipeline.write", pipeline_mod.write_result, _count_bytes)
    pipeline_mod.trajectory_metrics = w("pipeline.metrics", pipeline_mod.trajectory_metrics)


def _mean_ms(values: np.ndarray) -> float:
    return 1e3 * float(values.mean()) if len(values) else 0.0


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, n_calls: int) -> dict:
    """Per-layer ``name -> (unit, value)`` from the spans of ``n_calls``
    traced workload calls.

    Counts are per workload call; times per generation divide by all
    generations run.
    """
    n_calls = max(n_calls, 1)
    c = tracer.counts
    gens = max(c["generations"], 1.0)

    def per_gen(name: str) -> float:
        return 1e3 * float(tracer.durations(name).sum()) / gens

    clearance = tracer.durations("environment.clearance")
    gen_ms = np.array(tracer.gen_ms) if tracer.gen_ms else np.zeros(1)
    seeds = tracer.durations("seeding.seed")
    find_calls = len(tracer.durations("seeding.find_path"))
    return {
        "scenario.load_ms": ("ms", 1e3 * _median(tracer.durations("scenario.load"))),
        "environment.build_s": ("s", _median(tracer.durations("environment.build"))),
        "environment.voxels": ("count", c["voxels"]),
        "environment.clearance_us_per_point": (
            "us", 1e6 * float(clearance.sum()) / max(c["clearance_points"], 1.0)
        ),
        "environment.clearance_calls": ("count", len(clearance) / n_calls),
        "environment.hull_ms_per_gen": ("ms", per_gen("environment.hull")),
        "power.directions_ms_per_gen": ("ms", per_gen("power.directions")),
        "seeding.seed_ms": ("ms", _mean_ms(seeds)),
        "seeding.find_path_calls": ("count", find_calls / max(len(seeds), 1)),
        "nurbs.sample_ms_per_call": ("ms", _mean_ms(tracer.durations("nurbs.sample"))),
        "nurbs.sample_calls": ("count", len(tracer.durations("nurbs.sample")) / n_calls),
        "moo.evaluate_ms_per_gen": ("ms", per_gen("moo.evaluate")),
        "moo.loop_self_ms_per_gen": (
            "ms", 1e3 * float(tracer.self_times("moo.nsga2").sum()) / gens
        ),
        "moo.gen_ms_p50": ("ms", float(np.percentile(gen_ms, 50))),
        "moo.gen_ms_p99": ("ms", float(np.percentile(gen_ms, 99))),
        "moo.evaluations": ("count", c["evaluations"] / n_calls),
        "moo.feasible_share": ("1", c["feasible"] / max(c["evaluations"], 1.0)),
        "costs.check_ms": ("ms", _mean_ms(tracer.durations("costs.check"))),
        "voting.vote_ms_per_call": ("ms", _mean_ms(tracer.durations("voting.vote"))),
        "pipeline.write_ms": ("ms", _mean_ms(tracer.durations("pipeline.write"))),
        "pipeline.bytes_written": (
            "count", c["bytes_written"] / max(len(tracer.durations("pipeline.write")), 1)
        ),
        "pipeline.metrics_ms_per_call": ("ms", _mean_ms(tracer.durations("pipeline.metrics"))),
    }
