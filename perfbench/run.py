#!/usr/bin/env python3
"""floorref benchmark: end-to-end and per-layer figures on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload (``all`` runs the
three in turn); ``--trace 1`` prints the per-layer metrics of the traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every process runs
with BLAS and OpenMP capped at one thread and ``FLOORREF_PURE_PYTHON`` unset.
Op and set-up times are scaled to a nominal host speed by a reference kernel
timed around every op (see ``hostref.py``); the unscaled wall figures are
printed and recorded too, but are not part of the result. Results,
the environment, the metrics and the per-op failure share are written
to ``.perfbench_out/`` in the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("calibrate", "experiment", "files")
SETUP_SAMPLES = 5  # set-up is timed in this many processes; the median is reported
WORKLOAD_BUDGET_S = 170  # all processes of one workload together
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FLOORREF_PURE_PYTHON"}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(
    args: argparse.Namespace, workload: str, out_dir: Path, deadline: float, setup_only: bool = False
) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--t-launch", repr(t_launch)]
    timeout = max(1.0, deadline - t_launch)
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_workload(args: argparse.Namespace, workload: str, out_dir: Path, spec: dict) -> dict:
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + WORKLOAD_BUDGET_S
    if args.trace:
        result = run_worker(args, workload, out_dir, deadline)
        names = spec["per_layer"]
    else:
        setups = [run_worker(args, workload, out_dir, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, workload, out_dir, deadline)
        setups.append({"setup_s": result["metrics"]["setup_s"], "setup_wall_s": result["wall"]["setup_s"]})
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["wall"]["setup_s"] = statistics.median(s["setup_wall_s"] for s in setups)
        result["setup_samples"] = setups
        names = spec["end_to_end"]
    missing = set(names) ^ set(result["metrics"])
    if missing:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    result["metrics"] = {n: {"value": result["metrics"][n], "unit": names[n]} for n in names}
    result["fail_ratio"] = result["failed"] / result["attempted"]
    return result


def main() -> None:
    p = argparse.ArgumentParser(description="floorref benchmark")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    required = [ROOT / "src" / "floorref" / "__init__.py", ROOT / "configs" / "world.json", ROOT / "configs" / "plan.json"]
    absent = [str(f.relative_to(ROOT)) for f in required if not f.is_file()]
    if absent:
        print(f"perfbench: not a floorref checkout, missing {', '.join(absent)}", file=sys.stderr)
        sys.exit(2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = {
        "thread_caps": THREAD_CAPS,
        "floorref_pure_python": None,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }
    # the traced run covers every workload whichever one is named
    names = WORKLOADS if args.workload == "all" and not args.trace else (args.workload,)
    results = {}
    for workload in names:
        r = bench_workload(args, workload, out_dir, spec)
        env.update(r.pop("platform"))
        results[workload] = r
        print(f"{workload} (seed {args.seed}, trace {args.trace}): "
              f"{r['attempted']} ops attempted, {r['failed']} failed, fail_ratio {r['fail_ratio']:.4g}")
        for name, m in r["metrics"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
        for name, value in r.get("wall", {}).items():
            print(f"  {name + ' (wall, not gated)':<36} {value:>14.6g}")
        (out_dir / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace, "env": env, **r}, indent=2) + "\n"
        )
    print("env " + json.dumps(env))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
