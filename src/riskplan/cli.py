"""Command-line entry points.

Exit codes: 0 success, 2 validation error, 3 planning failure, 4 power-fit
failure. A validation error is also an input file that cannot be read (missing,
a directory, not UTF-8, invalid JSON) and a result file that cannot be
written; its message names the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import CapacityError, FitError, PlanningFailureError, ValidationError
from .errors import output_file, read_input, write_json
from .pipeline import COST_KEYS, fit_power_report, load_front, output_dir, plan, sweep
from .pipeline import vote_weights_dict
from .scenario import load_scenario
from .voting import RiskState, adjust_coefficients, vote

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PLANNING = 3
EXIT_FIT = 4


def _parse_risks(text: str) -> RiskState:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError("--risks expects four comma-separated values: WR,CR,LR,BR")
    try:
        wind, comm, loc, batt = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--risks: {exc}") from exc
    return RiskState(wind=wind, communication=comm, localization=loc, battery=batt)


def _cmd_plan(args) -> int:
    scn = load_scenario(args.scenario)
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError(f"--seed: must be a non-negative integer, got {args.seed}")
        scn = replace(scn, rng_seed=args.seed)
    if args.risks is not None:
        scn = replace(scn, risks=_parse_risks(args.risks))
    out_dir = output_dir(Path(args.out) if args.out else Path("out") / scn.name)
    result = plan(scn, out_dir=out_dir)
    costs = dict(zip(COST_KEYS, result.front.costs[result.selected_index].tolist()))
    print(
        f"planned {len(result.front)} Pareto trajectories -> {out_dir}\n"
        f"selected #{result.selected_index}: time {costs['time_s']:.2f} s, "
        f"safety {costs['safety']:.4f}, energy {costs['energy_j']:.0f} J"
    )
    return EXIT_OK


def _cmd_vote(args) -> int:
    front, _context = load_front(args.front)
    risks = _parse_risks(args.risks)
    weights = adjust_coefficients(risks)
    index = vote(front, weights)
    payload = {
        "selected_index": index,
        "vote_weights": vote_weights_dict(weights),
        "costs": dict(zip(COST_KEYS, front.costs[index].tolist())),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_fit_power(args) -> int:
    out_dir = output_dir(Path(args.out) if args.out else Path("."))
    model, report = fit_power_report(args.data, holdout_fraction=args.holdout)
    model_path = write_json(
        out_dir / "power_model.json",
        {
            "a": model.a, "b": model.b, "c": model.c,
            "g": model.g, "h": model.h, "k": model.k,
            "hover_power_w": model.hover_power,
        },
    )
    report_path = write_json(out_dir / "power_report.json", report)
    print(
        f"fit on {report['n_fit']} axis samples, validated on {report['n_validation']}: "
        f"mean error {report['mean_error_w']:.2f} W "
        f"(limits {report['limits_of_agreement_w'][0]:.2f} .. "
        f"{report['limits_of_agreement_w'][1]:.2f} W)\n"
        f"model -> {model_path}\nreport -> {report_path}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    spec = read_input(args.spec, "sweep spec", as_json=True)
    out_dir = Path(args.out) if args.out else Path("out") / f"{scn.name}-sweep"
    rows = sweep(scn, spec, out_dir=out_dir)
    print(f"swept {len(rows)} points -> {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _cmd_sdf_dump(args) -> int:
    from .pipeline import build_scenario_environment

    scn = load_scenario(args.scenario)
    out = Path(args.out) if args.out else Path(f"{scn.name}-sdf.npz")
    output_dir(out.parent)
    # Opened before the build, so an unusable file fails before any work; the
    # open file is written, as ``savez_compressed`` adds ``.npz`` to a path.
    with output_file(out, binary=True) as fh:
        sdf = build_scenario_environment(scn).sdf
        np.savez_compressed(fh, origin=sdf.origin, resolution=sdf.resolution,
                            dims=np.asarray(sdf.dims), distance=sdf.distance)
    print(f"dumped {sdf.dims} grid (resolution {sdf.resolution} m) -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskplan",
        description="Risk-adaptive multi-objective 3D trajectory planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan trajectories for a scenario and vote")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", help="output directory (default: out/<scenario>)")
    p.add_argument("--seed", type=int, help="override the scenario rng seed")
    p.add_argument("--risks", help="override risks as WR,CR,LR,BR")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("vote", help="re-vote on a cached Pareto front")
    p.add_argument("front", help="pareto.json produced by plan")
    p.add_argument("--risks", required=True, help="risks as WR,CR,LR,BR")
    p.set_defaults(func=_cmd_vote)

    p = sub.add_parser("fit-power", help="fit the power model from calibration data")
    p.add_argument("data", help="CSV with header vx,vy,vz,power_w")
    p.add_argument("--holdout", type=float, default=1.0,
                   help="fraction of non-axis samples used for validation (default 1.0)")
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=_cmd_fit_power)

    p = sub.add_parser("sweep", help="run a vote-coefficient or risk-axis sweep")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--spec", required=True, help="sweep spec JSON file")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sdf-dump", help="export the distance-field grid for debugging")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", help="output .npz path")
    p.set_defaults(func=_cmd_sdf_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, CapacityError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PlanningFailureError as exc:
        print(f"planning failure: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except FitError as exc:
        print(f"power model failure: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
