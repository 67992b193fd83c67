"""Command-line front end: simulate sessions, calibrate, run experiments,
and compute metrics over measurement files.

Every JSON input is decoded strictly: an unknown key is a schema error that
names it. Exit codes: 0 success, 2 usage or config/schema error (including
a trial count below 1 and measurements whose metrics overflow), 3 infeasible
geometry in simulation or experiment, 4 degenerate geometry in calibration,
5 reversal inconsistency. A command that fails on its inputs writes no output
file; an output path that cannot be written exits 2 as well.
Diagnostic verbosity via the FLOORREF_LOG environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
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
from .simulate import default_placements, simulate_session_with_truth

log = logging.getLogger(__name__)


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is
    emitted, so the log lines of an in-process call go with its own output."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)
        self.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))

    @property
    def stream(self):
        return sys.stderr


_LOG_HANDLER = _StderrHandler()


@contextlib.contextmanager
def _logging_to_stderr() -> Iterator[None]:
    """Log to ``sys.stderr`` at the FLOORREF_LOG level for the duration of one call."""
    level_name = os.environ.get("FLOORREF_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    root = logging.getLogger()
    saved = root.level
    if level != saved:  # setting a level clears every logger's level cache
        root.setLevel(level)
    root.addHandler(_LOG_HANDLER)
    try:
        yield
    finally:
        root.removeHandler(_LOG_HANDLER)
        if level != saved:
            root.setLevel(saved)


def _load_world(args: argparse.Namespace):
    world, noise, placements = world_from_dict(read_json(args.world))
    if args.seed is not None:
        world = replace(world, seed=args.seed)
    return world, noise, placements


def cmd_simulate(args: argparse.Namespace) -> int:
    world, noise, placements = _load_world(args)
    if placements is None or args.reverse:
        placement0, placement1 = default_placements(world, reverse=args.reverse)
    else:
        placement0, placement1 = placements
    session, truth = simulate_session_with_truth(world, noise, placement0, placement1)
    doc = session_to_dict(
        session,
        ground_truth=truth,
        prov=provenance({"world": args.world}, world.seed),
    )
    write_json(doc, args.out)
    print(
        f"session written to {args.out}: {len(session.mark_ids)} marks, "
        f"{len(session.nest_points) + len(session.robot_points)} tracker points, seed {world.seed}"
    )
    return 0


def _read_session(path: str):
    """A session file's session and its decoded ground truth (None if absent)."""
    doc = read_json(path)
    return session_from_dict(doc), session_ground_truth(doc)


def cmd_calibrate(args: argparse.Namespace) -> int:
    # every input is decoded before the pipeline runs on any of them
    session, truth = _read_session(args.session)
    inputs = {"session": args.session}
    if args.reversal is None:
        result = compute_rob_h_cam(session)
    else:
        session_b, _ = _read_session(args.reversal)
        result = reversal_average(compute_rob_h_cam(session), compute_rob_h_cam(session_b))
        inputs["session_reversal"] = args.reversal

    out = result_to_dict(result, prov=provenance(inputs, None))
    residuals = {
        "reprojection_rms_px": result.reprojection_rms_px,
        "registration_rms_mm": result.registration_rms_mm,
        "suspect": result.suspect,
    }
    if "reversal" in out:
        residuals["reversal_delta_translation_mm"] = out["reversal"]["delta_translation_mm"]
        residuals["reversal_delta_rotation_deg"] = out["reversal"]["delta_rotation_deg"]
    if truth is not None and "rob_H_cam" in truth:
        dt, dr = transform_gap(result.h_rob_cam, truth["rob_H_cam"])
        residuals["vs_truth_translation_mm"] = dt
        residuals["vs_truth_rotation_deg"] = math.degrees(dr)
    print(residual_table(residuals))

    write_json(out, args.out)
    print(f"result written to {args.out}")
    return 0


def _derived_seed(base: int, trial: int) -> int:
    return int(np.random.SeedSequence(entropy=base, spawn_key=(17, trial)).generate_state(1)[0])


def _write_reports(out_dir: Path, panels: list, reports: list, prov: dict) -> None:
    """report.csv of the first run, report.json of every run and clusters.svg
    with one panel per run, in out_dir (created if missing)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(reports[0], out_dir / "report.csv")
    write_json(
        {"trials": [report_to_dict(r) for r in reports], "provenance": prov},
        out_dir / "report.json",
    )
    write_clusters_svg(panels, out_dir / "clusters.svg", desc=json.dumps(prov))


def cmd_experiment(args: argparse.Namespace) -> int:
    world, noise, _ = _load_world(args)
    result = result_from_dict(read_json(args.result), world.camera)
    plan = plan_from_dict(read_json(args.plan))

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
    out_dir = Path(args.out_dir)
    _write_reports(out_dir, panels, reports, prov)
    write_measurements_csv(panels[0][1], out_dir / "measurements.csv")
    print(f"reports written to {out_dir}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    measurements = read_measurements_csv(args.measurements)
    report = cluster_metrics(measurements)
    prov = provenance({"measurements": args.measurements}, None)
    _write_reports(Path(args.out_dir), [("measurements", measurements)], [report], prov)
    print(summary_line(report))
    return 0


def _integer_at_least(low: int, text: str) -> int:
    """An option's integer value, refused through argparse below ``low``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args returns a fresh
    namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="floorref",
        description="Referencing toolkit: laser-tracker plus nadir-camera hand-eye calibration",
    )
    parser.add_argument("--version", action="version", version=f"floorref {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = functools.partial(_integer_at_least, 0)
    trials = functools.partial(_integer_at_least, 1)

    p = sub.add_parser("simulate", help="generate a synthetic referencing session")
    p.add_argument("world", help="world config JSON")
    p.add_argument("--out", required=True, help="output session JSON")
    p.add_argument("--seed", type=seed, default=None, help="override the config seed")
    p.add_argument("--reverse", action="store_true", help="reversed-heading placements")

    p = sub.add_parser("calibrate", help="run the referencing pipeline on a session")
    p.add_argument("session", help="session JSON")
    p.add_argument("--out", required=True, help="output result JSON")
    p.add_argument("--reversal", default=None, help="second session for instrument reversal")

    p = sub.add_parser("experiment", help="run the eight-direction mark experiment")
    p.add_argument("world", help="world config JSON")
    p.add_argument("result", help="calibration result JSON")
    p.add_argument("--plan", required=True, help="experiment plan JSON")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--seed", type=seed, default=None, help="override the config seed")
    p.add_argument(
        "--trials", type=trials, default=1, help="number of seeded repetitions (at least 1)"
    )

    p = sub.add_parser("metrics", help="cluster metrics over an existing measurement CSV")
    p.add_argument("measurements", help="measurement CSV")
    p.add_argument("--out-dir", required=True, help="output directory")

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
    # looked up at call time, so a replaced module attribute is the one run
    commands = {
        "simulate": cmd_simulate,
        "calibrate": cmd_calibrate,
        "experiment": cmd_experiment,
        "metrics": cmd_metrics,
    }
    try:
        with _logging_to_stderr():
            return commands[args.command](args)
    except FloorRefError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(args.command, e)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # inputs are read through read_json and read_measurements_csv, which
        # report unreadable files as schema errors: what is left is an output
        print(f"error: cannot write {e.filename}: {e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
