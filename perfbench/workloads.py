"""The three benchmark workloads.

Every workload derives all its inputs from the seed. ``run(i)`` is the timed
op and calls floorref only through module attributes, looked up at call time,
so the traced run sees every call. ``inspect(i, output)`` is untimed: it
checks the op's output, digests it for the bit-identity checks and collects
accuracy samples. It calls no floorref function, so it adds no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

BOW_MM = 0.25  # plate bow of acceptance criterion 8, which reversal averaging cancels
DIAMETER_BAND_MM = 1.0  # acceptance criterion 3 band on the overall enclosing diameter


class Inspection(NamedTuple):
    digest: str
    ok: bool
    sample: dict[str, float]


def _translation_err_mm(h: Any, truth: Any) -> float:
    return float(np.linalg.norm(np.asarray(h.translation) - np.asarray(truth.translation)))


def rotation_err_mrad(r: np.ndarray, truth: np.ndarray) -> float:
    """Geodesic angle between two rotations in mrad (atan2 form, as floorref's)."""
    d = np.asarray(r).T @ np.asarray(truth)
    cos_term = (np.trace(d) - 1.0) / 2.0
    sin_term = 0.5 * math.sqrt(
        (d[2, 1] - d[1, 2]) ** 2 + (d[0, 2] - d[2, 0]) ** 2 + (d[1, 0] - d[0, 1]) ** 2
    )
    return 1e3 * math.atan2(sin_term, cos_term)


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _mean(samples: list[dict[str, float]], key: str) -> float:
    return statistics.fmean(s[key] for s in samples if key in s)


class Calibrate:
    """One instrument-reversal trial shaped like acceptance criterion 8."""

    name = "calibrate"
    accuracy_ops = 128  # hand-eye errors are averaged over the first ops
    scored_ops = 64  # of which this many are scored with the mark experiment
    trace_ops = 32

    def __init__(self, fr: Any, root: Path, seed: int) -> None:
        self.fr = fr
        self.seed = seed
        self.plan = fr.schemas.plan_from_dict(fr.schemas.read_json(root / "configs" / "plan.json"))
        self.to_score: list[tuple[Any, Any]] = []

    def run(self, i: int) -> tuple[Any, ...]:
        return calibrate_world(self.fr, self.seed + i)

    def inspect(self, i: int, output: tuple[Any, ...]) -> Inspection:
        world, run_a, run_b, merged = output
        truth = world.h_rob_cam_true
        errs = [_translation_err_mm(r.h_rob_cam, truth) for r in (run_a, run_b, merged)]
        if i < self.scored_ops and len(self.to_score) == i:
            self.to_score.append((world, merged))
        digest = _digest(
            *(r.h_rob_cam.matrix.tobytes() for r in (run_a, run_b, merged)),
            merged.registration_rms_mm,
            merged.reprojection_rms_px,
        )
        sample = {
            "hand_eye_err_mm": errs[2],
            "hand_eye_err_mrad": rotation_err_mrad(merged.h_rob_cam.rotation, truth.rotation),
        }
        # criterion 8: the averaged error is never above the worse run's
        return Inspection(digest, errs[2] <= max(errs[0], errs[1]) + 1e-12, sample)

    def accuracy(self, samples: list[dict[str, float]]) -> dict[str, float]:
        fr = self.fr
        diam = [
            fr.experiment.cluster_metrics(
                fr.experiment.run_experiment(world, fr.simulate.GLASS_NOISE, self.plan, merged, seed=world.seed)
            ).overall.diameter_mm
            for world, merged in self.to_score
        ]
        return {
            "hand_eye_err_mm": _mean(samples, "hand_eye_err_mm"),
            "hand_eye_err_mrad": _mean(samples, "hand_eye_err_mrad"),
            "cluster_diam_mm": statistics.fmean(diam),
        }


def calibrate_world(fr: Any, world_seed: int) -> tuple[Any, ...]:
    """Reversal calibration of a bowed random world: sessions A and B under
    glass noise (trials 1 and 2, as in criterion 8), then the average."""
    sim, pipe = fr.simulate, fr.pipeline
    world = sim.inject_wooden_plate(sim.random_world(world_seed), BOW_MM)
    session_a = sim.simulate_referencing_session(
        world, sim.GLASS_NOISE, *sim.default_placements(world), trial=1
    )
    session_b = sim.simulate_referencing_session(
        world, sim.GLASS_NOISE, *sim.default_placements(world, reverse=True), trial=2
    )
    run_a = pipe.compute_rob_h_cam(session_a)
    run_b = pipe.compute_rob_h_cam(session_b)
    return world, run_a, run_b, pipe.reversal_average(run_a, run_b)


class Experiment:
    """The eight-direction mark experiment scoring calibrate-workload results."""

    name = "experiment"
    worlds = 64  # calibrated in set-up
    accuracy_ops = 128
    trace_ops = 32

    def __init__(self, fr: Any, root: Path, seed: int) -> None:
        self.fr = fr
        self.seed = seed
        self.plan = fr.schemas.plan_from_dict(fr.schemas.read_json(root / "configs" / "plan.json"))
        self.calibrated = [calibrate_world(fr, seed + k) for k in range(self.worlds)]

    def run(self, i: int) -> tuple[list[Any], Any]:
        exp = self.fr.experiment
        world, _, _, merged = self.calibrated[i % self.worlds]
        measurements = exp.run_experiment(
            world, self.fr.simulate.GLASS_NOISE, self.plan, merged, seed=self.seed + i
        )
        return measurements, exp.cluster_metrics(measurements)

    def inspect(self, i: int, output: tuple[list[Any], Any]) -> Inspection:
        measurements, report = output
        o = report.overall
        digest = _digest(
            np.array([m.position for m in measurements]).tobytes(),
            [(m.direction, m.yaw_deg, m.trial) for m in measurements],
            [(d.direction, d.mean_x_mm, d.mean_y_mm, d.radius_mm) for d in report.directions],
            (o.mean_x_mm, o.mean_y_mm, o.max_from_mean_mm, o.radius_mm, report.mean_intercluster_l2_mm),
        )
        diameter = o.diameter_mm
        return Inspection(digest, diameter < DIAMETER_BAND_MM, {"cluster_diam_mm": diameter})

    def accuracy(self, samples: list[dict[str, float]]) -> dict[str, float]:
        errs = [
            (_translation_err_mm(m.h_rob_cam, w.h_rob_cam_true),
             rotation_err_mrad(m.h_rob_cam.rotation, w.h_rob_cam_true.rotation))
            for w, _, _, m in self.calibrated
        ]
        return {
            "hand_eye_err_mm": statistics.fmean(e[0] for e in errs),
            "hand_eye_err_mrad": statistics.fmean(e[1] for e in errs),
            "cluster_diam_mm": _mean(samples, "cluster_diam_mm"),
        }


class Files:
    """The README quick start, run in process through ``floorref.cli.main``."""

    name = "files"
    accuracy_ops = 100
    trace_ops = 8

    def __init__(self, fr: Any, root: Path, seed: int, scratch: Path) -> None:
        self.fr = fr
        self.seed = seed
        self.world = str(root / "configs" / "world.json")
        self.plan = str(root / "configs" / "plan.json")
        self.dir = scratch

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def run(self, i: int) -> tuple[list[int], str]:
        self.dir.mkdir(parents=True, exist_ok=True)
        s = self.seed + 2 * i
        p = self._path
        commands = [
            ["simulate", self.world, "--seed", str(s), "--out", p("session_a.json")],
            ["simulate", self.world, "--seed", str(s + 1), "--reverse", "--out", p("session_b.json")],
            ["calibrate", p("session_a.json"), "--reversal", p("session_b.json"), "--out", p("result.json")],
            ["experiment", self.world, p("result.json"), "--plan", self.plan, "--out-dir", p("out"), "--trials", "2"],
            ["metrics", p("out/measurements.csv"), "--out-dir", p("metrics_out")],
        ]
        sink = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(sink):
            for argv in commands:
                codes.append(self.fr.cli.main(argv))
        return codes, sink.getvalue()

    def inspect(self, i: int, output: tuple[list[int], str]) -> Inspection:
        codes, stdout = output
        files = sorted(f for f in self.dir.rglob("*") if f.is_file())
        blobs = [(str(f.relative_to(self.dir)), f.read_bytes()) for f in files]
        digest = _digest(codes, stdout, *(n.encode() + b"\0" + b for n, b in blobs))
        try:
            return self._check(digest, codes)
        finally:
            # the next op starts from an empty directory
            shutil.rmtree(self.dir, ignore_errors=True)

    def _check(self, digest: str, codes: list[int]) -> Inspection:
        if any(codes):
            return Inspection(digest, False, {})
        report_exp = (self.dir / "out" / "report.csv").read_bytes()
        report_met = (self.dir / "metrics_out" / "report.csv").read_bytes()
        truth = np.array(json.loads((self.dir / "session_a.json").read_text())["ground_truth"]["rob_H_cam"])
        h = np.array(json.loads((self.dir / "result.json").read_text())["rob_H_cam"])
        trials = json.loads((self.dir / "out" / "report.json").read_text())["trials"]
        sample = {
            "hand_eye_err_mm": float(np.linalg.norm(h[:3, 3] - truth[:3, 3])),
            "hand_eye_err_mrad": rotation_err_mrad(h[:3, :3], truth[:3, :3]),
            "cluster_diam_mm": statistics.fmean(t["overall"]["diameter_mm"] for t in trials),
        }
        return Inspection(digest, report_exp == report_met, sample)

    def accuracy(self, samples: list[dict[str, float]]) -> dict[str, float]:
        return {k: _mean(samples, k) for k in ("hand_eye_err_mm", "hand_eye_err_mrad", "cluster_diam_mm")}


NAMES = ("calibrate", "experiment", "files")


def make(name: str, fr: Any, root: Path, seed: int, scratch: Path) -> Any:
    if name == "calibrate":
        return Calibrate(fr, root, seed)
    if name == "experiment":
        return Experiment(fr, root, seed)
    return Files(fr, root, seed, scratch / "files")
