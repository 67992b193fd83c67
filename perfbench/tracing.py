"""Span tracer for the traced benchmark run.

Wrappers are installed at the module attributes through which floorref reaches
each public function (for example ``floorref.camera.distort_radial`` and
``floorref.geometry.validate_rotation``), so the package itself is not edited.
Every call records a span: name, op id, parent span, start and end. Spans stay
in memory until the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable


def _layer_specs(fr: Any) -> list[tuple[str, list[Callable]]]:
    """Span name -> the floorref functions it covers."""
    cam, geo, pipe, sim, exp, sch, rep, cli = (
        fr.camera, fr.geometry, fr.pipeline, fr.simulate, fr.experiment, fr.schemas, fr.report, fr.cli,
    )
    return [
        ("camera.image_pose", [cam.estimate_plate_pose_from_image]),
        ("camera.rectify", [cam.build_rectification_map]),
        ("camera.distort", [cam.distort_radial]),
        ("camera.undistort", [cam.undistort_radial]),
        ("camera.project", [cam.project_points]),
        ("geometry.validate_rotation", [geo.validate_rotation]),
        ("geometry.compose", [geo.compose]),
        ("geometry.invert", [geo.invert]),
        ("geometry.apply", [geo.apply]),
        ("geometry.register", [geo.register_points]),
        ("pipeline.calibrate", [pipe.compute_rob_h_cam]),
        ("pipeline.plate_normal", [pipe.plate_normal]),
        ("pipeline.robot_pose", [pipe.estimate_robot_pose]),
        ("pipeline.reversal", [pipe.reversal_average]),
        ("simulate.session", [sim.simulate_referencing_session]),
        ("simulate.mark_obs", [sim.simulate_mark_observation]),
        ("simulate.placement", [sim.pose_on_surface, sim.experiment_placement]),
        ("experiment.run", [exp.run_experiment]),
        ("experiment.measure_mark", [exp.measure_mark]),
        ("experiment.cluster_metrics", [exp.cluster_metrics]),
        ("experiment.enclosing_circle", [exp.enclosing_circle]),
        ("schemas.read", [sch.read_json]),
        ("schemas.write", [sch.write_json]),
        ("schemas.decode", [sch.session_from_dict, sch.result_from_dict, sch.world_from_dict, sch.plan_from_dict]),
        ("schemas.encode", [sch.session_to_dict, sch.result_to_dict]),
        ("schemas.provenance", [sch.provenance]),
        ("report.csv", [rep.write_report_csv, rep.write_measurements_csv, rep.read_measurements_csv]),
        ("report.svg", [rep.write_clusters_svg]),
        ("cli.simulate", [cli.cmd_simulate]),
        ("cli.calibrate", [cli.cmd_calibrate]),
        ("cli.experiment", [cli.cmd_experiment]),
        ("cli.metrics", [cli.cmd_metrics]),
    ]


def _method_specs(fr: Any) -> list[tuple[str, type, str]]:
    """Span name, class, attribute for the methods traced on classes."""
    return [
        ("camera.map_points", fr.camera.SceneFrame, "map_image_points"),
        ("pipeline.from_chain", fr.pipeline.ReferencingResult, "from_chain"),
    ]


class Tracer:
    """Records spans of wrapped floorref calls while installed."""

    def __init__(self) -> None:
        # span: [name, op, parent index, start, end]
        self.spans: list[list[Any]] = []
        self.op = ""
        self.image_pose_iters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            span = [name, self.op, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return wrapper

    def install(self, fr: Any) -> None:
        """Replace every floorref module attribute bound to a traced function."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == "floorref" or name.startswith("floorref."))
            and not name.startswith("floorref._kernels")
        ]
        for name, fns in _layer_specs(fr):
            for fn in fns:
                wrapped = self._wrap(name, fn)
                if name == "camera.image_pose":
                    wrapped = self._count_iterations(wrapped)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        for name, cls, attr in _method_specs(fr):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def _count_iterations(self, wrapped: Callable) -> Callable:
        def counting(*args: Any, **kwargs: Any) -> Any:
            fit = wrapped(*args, **kwargs)
            self.image_pose_iters[self.op] += fit.iterations
            return fit

        return counting

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for name, op, parent, t0, t1 in self.spans:
                f.write(json.dumps([name, op, parent, round(t0, 9), round(t1, 9)]) + "\n")


class SpanStats:
    """Per-workload totals over the recorded spans."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for name, op, parent, t0, t1 in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.distort_in_pose: dict[str, int] = defaultdict(int)
        for idx, (name, op, parent, t0, t1) in enumerate(spans):
            key = (op.split(":")[0], name)
            self.calls[key] += 1
            self.total_s[key] += t1 - t0
            self.self_s[key] += t1 - t0 - child_time[idx]
            if name == "camera.distort" and _has_ancestor(spans, parent, "camera.image_pose"):
                self.distort_in_pose[key[0]] += 1
        self.iters: dict[str, int] = defaultdict(int)
        for op, n in tracer.image_pose_iters.items():
            self.iters[op.split(":")[0]] += n


def _has_ancestor(spans: list[list[Any]], idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][2]
    return False
