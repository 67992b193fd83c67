"""One benchmark process: set up a workload, run it, print one JSON line.

Started by ``run.py`` with the thread caps and ``PYTHONPATH`` it pins; not
meant to be run by hand. Untraced, it runs one workload in a closed loop with
one client and reports the end-to-end figures. Traced (``--trace 1``), it runs
a fixed number of ops of every workload, each untraced and then traced, and
reports the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import hostref
import probes
import tracing
import workloads

MIN_OPS = 100  # op_ms_p90 then has at least 10 ops beyond it
MAX_LOOP_S = 150.0


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so the launcher's reading compares with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_floorref(root: Path):
    import floorref
    import floorref.cli  # noqa: F401  (also imports schemas and report)

    src = (root / "src").resolve()
    if src not in Path(floorref.__file__).resolve().parents:
        raise SystemExit(f"floorref imported from {floorref.__file__}, not from {src}")
    return floorref


def _run_op(wl, i: int) -> tuple[float, workloads.Inspection | None]:
    t0 = time.perf_counter()
    try:
        output = wl.run(i)
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, None
    elapsed = time.perf_counter() - t0
    return elapsed, wl.inspect(i, output)


def untraced(args: argparse.Namespace, fr, root: Path, scratch: Path) -> dict:
    # Times are scaled to the nominal host (see hostref.py). Set-up is scaled
    # by the reference runs just after the imports and just after the warm-up.
    t0 = monotonic()
    hostref.seconds()  # the first run loads LAPACK
    ref_start = hostref.settled_seconds()
    ref_cost = monotonic() - t0
    wl = workloads.make(args.workload, fr, root, args.seed, scratch)
    _, warm = _run_op(wl, 0)
    setup_wall_s = monotonic() - args.t_launch - ref_cost
    setup_s = setup_wall_s * hostref.scale(ref_start, hostref.settled_seconds())
    ref_prev = hostref.seconds()
    if warm is None:
        raise SystemExit("warm-up op failed")
    if args.setup_only:
        return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}

    wall: list[float] = []
    times: list[float] = []
    samples: dict[int, dict[str, float]] = {}
    failed = 0
    digest0 = None
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        enough = elapsed >= args.seconds and len(times) >= max(MIN_OPS, wl.accuracy_ops)
        if enough or elapsed >= MAX_LOOP_S:
            break
        i = len(times)
        dt, ins = _run_op(wl, i)
        ref_next = hostref.seconds()
        wall.append(dt)
        times.append(dt * hostref.scale(ref_prev, ref_next))
        ref_prev = ref_next
        if ins is None or not ins.ok:
            failed += 1
        if ins is not None:
            samples[i] = ins.sample
            if i == 0:
                digest0 = ins.digest
    # the first op again: its outputs must be bit-identical to both earlier runs
    _, rerun = _run_op(wl, 0)
    attempted = len(times) + 1
    if rerun is None or not (rerun.digest == warm.digest == digest0):
        failed += 1
    accuracy = wl.accuracy([samples[i] for i in range(wl.accuracy_ops) if i in samples])

    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            **_timing(times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **accuracy,
        },
        # the same figures unscaled, for the record; they are not gated
        "wall": {"setup_s": setup_wall_s, **_timing(wall)},
        "ops": len(times),
    }


def _timing(times: list[float]) -> dict[str, float]:
    return {
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_p90": 1e3 * statistics.quantiles(times, n=10)[8],
        "ops_per_s": len(times) / sum(times),
    }


# Per-layer metrics: name -> (unit, home workload, span, statistic). Each is
# per op of its home workload, the workload the layer's cost sits on.
PER_LAYER = {
    "camera.image_pose.self_ms": ("ms", "calibrate", "camera.image_pose", "self"),
    "camera.image_pose.iters": ("count", "calibrate", "camera.image_pose", "iters"),
    "camera.image_pose.evals_per_iter": ("ratio", "calibrate", "camera.image_pose", "evals_per_iter"),
    "camera.rectify.self_ms": ("ms", "calibrate", "camera.rectify", "self"),
    "camera.distort.calls": ("count", "calibrate", "camera.distort", "calls"),
    "camera.distort.us": ("us", "calibrate", "camera.distort", "total"),
    "camera.undistort.calls": ("count", "experiment", "camera.undistort", "calls"),
    "camera.undistort.us": ("us", "experiment", "camera.undistort", "total"),
    "camera.project.calls": ("count", "experiment", "camera.project", "calls"),
    "camera.project.us": ("us", "experiment", "camera.project", "total"),
    "camera.map_points.us": ("us", "experiment", "camera.map_points", "total"),
    "geometry.validate_rotation.calls": ("count", "experiment", "geometry.validate_rotation", "calls"),
    "geometry.validate_rotation.us": ("us", "experiment", "geometry.validate_rotation", "total"),
    "geometry.compose.us": ("us", "experiment", "geometry.compose", "total"),
    "geometry.invert.us": ("us", "experiment", "geometry.invert", "total"),
    "geometry.apply.us": ("us", "experiment", "geometry.apply", "total"),
    "geometry.register.us": ("us", "calibrate", "geometry.register", "total"),
    "pipeline.calibrate.self_ms": ("ms", "calibrate", "pipeline.calibrate", "self"),
    "pipeline.plate_normal.us": ("us", "calibrate", "pipeline.plate_normal", "total"),
    "pipeline.robot_pose.us": ("us", "calibrate", "pipeline.robot_pose", "total"),
    "pipeline.from_chain.us": ("us", "calibrate", "pipeline.from_chain", "total"),
    "pipeline.reversal.us": ("us", "calibrate", "pipeline.reversal", "total"),
    "simulate.session.ms": ("ms", "calibrate", "simulate.session", "total"),
    "simulate.mark_obs.calls": ("count", "experiment", "simulate.mark_obs", "calls"),
    "simulate.mark_obs.self_ms": ("ms", "experiment", "simulate.mark_obs", "self"),
    "simulate.placement.us": ("us", "experiment", "simulate.placement", "total"),
    "experiment.run.self_ms": ("ms", "experiment", "experiment.run", "self"),
    "experiment.measure_mark.calls": ("count", "experiment", "experiment.measure_mark", "calls"),
    "experiment.measure_mark.self_ms": ("ms", "experiment", "experiment.measure_mark", "self"),
    "experiment.cluster_metrics.ms": ("ms", "experiment", "experiment.cluster_metrics", "total"),
    "experiment.enclosing_circle.calls": ("count", "experiment", "experiment.enclosing_circle", "calls"),
    "experiment.enclosing_circle.us": ("us", "experiment", "experiment.enclosing_circle", "total"),
    "schemas.read.ms": ("ms", "files", "schemas.read", "total"),
    "schemas.write.ms": ("ms", "files", "schemas.write", "total"),
    "schemas.decode.ms": ("ms", "files", "schemas.decode", "total"),
    "schemas.encode.ms": ("ms", "files", "schemas.encode", "total"),
    "schemas.provenance.ms": ("ms", "files", "schemas.provenance", "total"),
    "report.csv.ms": ("ms", "files", "report.csv", "total"),
    "report.svg.ms": ("ms", "files", "report.svg", "total"),
    "cli.simulate.ms": ("ms", "files", "cli.simulate", "total"),
    "cli.calibrate.ms": ("ms", "files", "cli.calibrate", "total"),
    "cli.experiment.ms": ("ms", "files", "cli.experiment", "total"),
    "cli.metrics.ms": ("ms", "files", "cli.metrics", "total"),
}
_SCALE = {"ms": 1e3, "us": 1e6}


def _layer_value(stats: tracing.SpanStats, home: str, span: str, stat: str, ops: int) -> float:
    key = (home, span)
    if stat == "iters":
        return stats.iters[home] / ops
    if stat == "evals_per_iter":
        return stats.distort_in_pose[home] / stats.iters[home]
    if stat == "calls":
        return stats.calls[key] / ops
    return {"self": stats.self_s, "total": stats.total_s}[stat][key] / ops


def traced(args: argparse.Namespace, fr, root: Path, scratch: Path) -> dict:
    wls = [workloads.make(name, fr, root, args.seed, scratch) for name in workloads.NAMES]
    attempted = failed = 0
    plain_s = traced_s = 0.0
    tracer = tracing.Tracer()
    for wl in wls:
        _run_op(wl, 0)  # warm-up
        # each op runs untraced, then traced, so both see the same machine state
        for i in range(wl.trace_ops):
            dt, plain = _run_op(wl, i)
            plain_s += dt
            tracer.op = f"{wl.name}:{i}"
            tracer.install(fr)
            try:
                dt, ins = _run_op(wl, i)
            finally:
                tracer.uninstall()
            traced_s += dt
            attempted += 2
            failed += plain is None or not plain.ok
            # traced outputs must be bit-identical to the untraced ones
            failed += ins is None or plain is None or ins.digest != plain.digest

    stats = tracing.SpanStats(tracer)
    ops = {wl.name: wl.trace_ops for wl in wls}
    metrics = {}
    for name, (unit, home, span, stat) in PER_LAYER.items():
        metrics[name] = _layer_value(stats, home, span, stat, ops[home]) * _SCALE.get(unit, 1.0)
    metrics.update(probes.kernel_probes(fr, args.seed))
    metrics.update(probes.cli_probes(root, dict(os.environ), args.seed, scratch / "cli"))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    tracer.write(str(args.out_dir / f"spans-seed{args.seed}.jsonl.gz"))
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "spans": len(tracer.spans)}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=(*workloads.NAMES, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t-launch", type=float, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    if args.workload == "all" and not args.trace:
        p.error("an untraced run measures one workload")
    fr = import_floorref(args.root)
    scratch = args.out_dir / f"work-{os.getpid()}"
    try:
        if args.trace:
            result = traced(args, fr, args.root, scratch)
        else:
            result = untraced(args, fr, args.root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["platform"] = {
        "kernel_backend": fr.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
