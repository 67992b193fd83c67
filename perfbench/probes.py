"""Probes reported by the traced run only.

Kernel probes time the public API at the sizes the pipeline uses: one point
per mark measurement, 25 marks per plate image, 5 to 40 points per cluster.
CLI probes time ``python -m floorref.cli`` as fresh processes, import
included.
"""

from __future__ import annotations

import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

CLI_REPEATS = 3
CLI_TIMEOUT_S = 60


def _per_call_us(fn: Callable[[], Any], calls: int, batches: int = 7) -> float:
    """Median over batches of the mean wall time per call, in microseconds."""
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(per_call)


def kernel_probes(fr: Any, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    camera = fr.simulate.demo_camera()
    # normalized coordinates inside the field of view, and their pixels
    xy = {n: rng.uniform(-0.25, 0.25, size=(n, 2)) for n in (1, 25)}
    rc = {n: camera.normalized_to_pixel_array(xy[n]) for n in (1, 25)}
    angles = rng.uniform(0.0, 2.0 * math.pi, size=40)
    clusters = {
        "cloud5": rng.normal(scale=0.1, size=(5, 2)),
        "cloud40": rng.normal(scale=0.1, size=(40, 2)),
        "ring5": 0.3 * np.column_stack([np.cos(angles[:5]), np.sin(angles[:5])]),
        "ring40": 0.3 * np.column_stack([np.cos(angles), np.sin(angles)]),
    }
    out = {}
    for n in (1, 25):
        out[f"probe.pixel_to_normalized.n{n}.us"] = _per_call_us(
            lambda: camera.pixel_to_normalized_array(rc[n]), 400
        )
        out[f"probe.normalized_to_pixel.n{n}.us"] = _per_call_us(
            lambda: camera.normalized_to_pixel_array(xy[n]), 400
        )
    for label, pts in clusters.items():
        out[f"probe.enclosing_circle.{label}.us"] = _per_call_us(
            lambda: fr.experiment.min_enclosing_circle(pts), 100
        )
    return out


def cli_probes(root: Path, env: dict[str, str], seed: int, scratch: Path) -> dict[str, float]:
    """Median wall time of each CLI command, and of a bare import, as fresh
    processes run in the README quick-start order."""
    world = str(root / "configs" / "world.json")
    plan = str(root / "configs" / "plan.json")
    d = scratch
    steps = [
        ("simulate", ["simulate", world, "--seed", str(seed), "--out", str(d / "a.json")]),
        ("simulate", ["simulate", world, "--seed", str(seed + 1), "--reverse", "--out", str(d / "b.json")]),
        ("calibrate", ["calibrate", str(d / "a.json"), "--reversal", str(d / "b.json"), "--out", str(d / "r.json")]),
        ("experiment", ["experiment", world, str(d / "r.json"), "--plan", plan, "--out-dir", str(d / "out"), "--trials", "2"]),
        ("metrics", ["metrics", str(d / "out" / "measurements.csv"), "--out-dir", str(d / "m")]),
    ]
    times: dict[str, list[float]] = {}
    try:
        for _ in range(CLI_REPEATS):
            d.mkdir(parents=True, exist_ok=True)
            for name, argv in steps:
                times.setdefault(name, []).append(_proc_ms([sys.executable, "-m", "floorref.cli", *argv], env))
            times.setdefault("import", []).append(_proc_ms([sys.executable, "-c", "import floorref"], env))
            shutil.rmtree(d)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return {f"cli.{name}.proc_ms": statistics.median(v) for name, v in times.items()}


def _proc_ms(argv: list[str], env: dict[str, str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[2:4]} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return 1e3 * elapsed
