"""Command-line front end: simulate sessions, calibrate, run experiments,
and compute metrics over measurement files.

Exit codes: 0 success, 2 config/schema error, 3 infeasible geometry in
simulation or experiment, 4 degenerate geometry in calibration, 5 reversal
inconsistency. Diagnostic verbosity via the FLOORREF_LOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import FloorRefError, InconsistentRuns, SchemaError
from .experiment import cluster_metrics, run_experiment
from .geometry import transform_gap
from .pipeline import compute_rob_h_cam, reversal_average
from .report import (
    report_to_dict,
    residual_table,
    summary_line,
    write_clusters_svg,
    write_measurements_csv,
    write_report_csv,
    read_measurements_csv,
)
from .schemas import (
    TOOL_VERSION,
    plan_from_dict,
    provenance,
    read_json,
    result_from_dict,
    result_to_dict,
    session_from_dict,
    session_ground_truth,
    session_to_dict,
    world_from_dict,
    write_json,
)
from .simulate import (
    default_placements,
    ground_truth_poses,
    inject_wooden_plate,
    simulate_referencing_session,
)

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    level_name = os.environ.get("FLOORREF_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(name)s %(levelname)s %(message)s")


def _load_world(args: argparse.Namespace):
    world, noise, placements = world_from_dict(read_json(args.world), args.lenient)
    if args.seed is not None:
        world = replace(world, seed=args.seed)
    if noise.plate_amplitude_mm > 0.0:
        world = inject_wooden_plate(world, noise.plate_amplitude_mm)
    return world, noise, placements


def cmd_simulate(args: argparse.Namespace) -> int:
    world, noise, placements = _load_world(args)
    if placements is None or args.reverse:
        placement0, placement1 = default_placements(world, reverse=args.reverse)
    else:
        placement0, placement1 = placements
    session = simulate_referencing_session(world, noise, placement0, placement1)
    doc = session_to_dict(
        session,
        ground_truth=ground_truth_poses(world, placement0, placement1),
        prov=provenance({"world": args.world}, world.seed),
    )
    write_json(doc, args.out)
    print(
        f"session written to {args.out}: {len(session.image_observation)} marks, "
        f"{len(session.tracker)} tracker points, seed {world.seed}"
    )
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    doc = read_json(args.session)
    session = session_from_dict(doc, args.lenient)
    result = compute_rob_h_cam(session)
    inputs = {"session": args.session}

    if args.reversal is not None:
        doc_b = read_json(args.reversal)
        session_b = session_from_dict(doc_b, args.lenient)
        result_b = compute_rob_h_cam(session_b)
        result = reversal_average(result, result_b)
        inputs["session_reversal"] = args.reversal

    residuals = {
        "reprojection_rms_px": result.reprojection_rms_px,
        "registration_rms_mm": result.registration_rms_mm,
        "suspect": result.suspect,
    }
    if result.reversal_of is not None:
        a, b = result.reversal_of
        dt, dr = transform_gap(a.h_rob_cam, b.h_rob_cam)
        residuals["reversal_delta_translation_mm"] = dt
        residuals["reversal_delta_rotation_deg"] = math.degrees(dr)
    truth = session_ground_truth(doc, args.lenient)
    if truth is not None and "rob_H_cam" in truth:
        dt, dr = transform_gap(result.h_rob_cam, truth["rob_H_cam"])
        residuals["vs_truth_translation_mm"] = dt
        residuals["vs_truth_rotation_deg"] = math.degrees(dr)
    print(residual_table(residuals))

    write_json(result_to_dict(result, prov=provenance(inputs, None)), args.out)
    print(f"result written to {args.out}")
    return 0


def _derived_seed(base: int, trial: int) -> int:
    return int(np.random.SeedSequence(entropy=base, spawn_key=(17, trial)).generate_state(1)[0])


def cmd_experiment(args: argparse.Namespace) -> int:
    world, noise, _ = _load_world(args)
    result = result_from_dict(read_json(args.result), world.camera, args.lenient)
    plan = plan_from_dict(read_json(args.plan), args.lenient)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    panels = []
    reports = []
    for trial in range(args.trials):
        seed = world.seed if args.trials == 1 else _derived_seed(world.seed, trial)
        measurements = run_experiment(world, noise, plan, result, seed=seed)
        report = cluster_metrics(measurements)
        panels.append((f"run {trial} (seed {seed})", measurements))
        reports.append(report)
        print(f"run {trial}: {summary_line(report)}")

    prov = provenance(
        {"world": args.world, "result": args.result, "plan": args.plan}, world.seed
    )
    write_report_csv(reports[0], out_dir / "report.csv")
    write_measurements_csv(panels[0][1], out_dir / "measurements.csv")
    write_clusters_svg(panels, out_dir / "clusters.svg", desc=json.dumps(prov))
    write_json(
        {"trials": [report_to_dict(r) for r in reports], "provenance": prov},
        out_dir / "report.json",
    )
    print(f"reports written to {out_dir}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    measurements = read_measurements_csv(args.measurements)
    report = cluster_metrics(measurements)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance({"measurements": args.measurements}, None)
    write_report_csv(report, out_dir / "report.csv")
    write_json(
        {"trials": [report_to_dict(report)], "provenance": prov},
        out_dir / "report.json",
    )
    write_clusters_svg([("measurements", measurements)], out_dir / "clusters.svg", desc=json.dumps(prov))
    print(summary_line(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorref",
        description="Referencing toolkit: laser-tracker plus nadir-camera hand-eye calibration",
    )
    parser.add_argument("--version", action="version", version=f"floorref {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic referencing session")
    p.add_argument("world", help="world config JSON")
    p.add_argument("--out", required=True, help="output session JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--reverse", action="store_true", help="reversed-heading placements")
    p.add_argument("--lenient", action="store_true", help="tolerate unknown JSON keys")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="run the referencing pipeline on a session")
    p.add_argument("session", help="session JSON")
    p.add_argument("--out", required=True, help="output result JSON")
    p.add_argument("--reversal", default=None, help="second session for instrument reversal")
    p.add_argument("--lenient", action="store_true", help="tolerate unknown JSON keys")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("experiment", help="run the eight-direction mark experiment")
    p.add_argument("world", help="world config JSON")
    p.add_argument("result", help="calibration result JSON")
    p.add_argument("--plan", required=True, help="experiment plan JSON")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--trials", type=int, default=1, help="number of seeded repetitions")
    p.add_argument("--lenient", action="store_true", help="tolerate unknown JSON keys")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("metrics", help="cluster metrics over an existing measurement CSV")
    p.add_argument("measurements", help="measurement CSV")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_metrics)

    return parser


def _exit_code(command: str, exc: FloorRefError) -> int:
    if isinstance(exc, SchemaError):
        return 2
    if command == "calibrate":
        return 5 if isinstance(exc, InconsistentRuns) else 4
    if command == "metrics":
        return 2
    return 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except FloorRefError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(args.command, e)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
