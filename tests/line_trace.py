"""Line trace of the production paths over ``src/floorref``.

Runs, under a ``sys.settrace`` line tracer, what the package is used for:

- the README quick start (``simulate`` in both headings, ``calibrate`` with
  and without ``--reversal``, ``experiment --trials 2`` and ``metrics``) on
  ``configs/world.json`` and ``configs/world_wooden.json`` at seeds 7 and 21;
- ``metrics`` on the README's two large-value measurement files (``x_mm``
  of +-1e200, and 1.7e308 with 1.6e308);
- three ops of each benchmark workload of ``perfbench/workloads.py`` at
  seed 1;
- the README library example.

It then prints each statement of ``src/floorref`` (every ``ast`` statement
but docstrings) that no run reached, as ``module.py:line: source``, and a
count. A compound statement counts as reached when its header ran (its
decorators, its condition, its items). Standard library only; pytest does
not collect this file. From the repository root::

    PYTHONPATH=src python tests/line_trace.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "floorref"
CONFIGS = ("world.json", "world_wooden.json")


def quick_start(main, config: str, seed: int) -> None:
    commands = [
        ["simulate", config, "--seed", str(seed), "--out", "session_a.json"],
        ["simulate", config, "--seed", str(seed + 1), "--reverse", "--out", "session_b.json"],
        ["calibrate", "session_a.json", "--reversal", "session_b.json", "--out", "result_reversal.json"],
        ["calibrate", "session_a.json", "--out", "result.json"],
        ["experiment", config, "result.json", "--plan", "plan.json", "--out-dir", "out", "--trials", "2"],
        ["metrics", "out/measurements.csv", "--out-dir", "metrics_out"],
    ]
    for argv in commands:
        main(argv)


# the README's large-value measurement files: every metric is representable,
# though its squares or its sums are not
LARGE_VALUES = {
    "large_1e200.csv": ("up,0.0,1e200,900.0,0.0,0", "up,0.0,3e200,900.0,0.0,0",
                        "down,180.0,-1e200,900.0,0.0,0", "down,180.0,-3e200,900.0,0.0,0"),
    "large_1e308.csv": ("up,0.0,1.7e308,900.0,0.0,0", "up,0.5,1.6e308,900.0,0.0,0"),
}


def large_values(main) -> None:
    for name, rows in LARGE_VALUES.items():
        Path(name).write_text("direction,yaw_deg,x_mm,y_mm,z_mm,trial\n" + "\n".join(rows) + "\n")
        main(["metrics", name, "--out-dir", f"{name}_out"])


def library_example() -> None:
    from floorref import (
        GLASS_NOISE, ExperimentPlan, cluster_metrics, compute_rob_h_cam, default_placements,
        random_world, run_experiment, simulate_referencing_session,
    )

    world = random_world(seed=1)
    session = simulate_referencing_session(world, GLASS_NOISE, *default_placements(world))
    result = compute_rob_h_cam(session)
    plan = ExperimentPlan(mark_xy_mm=(1200.0, 900.0))
    cluster_metrics(run_experiment(world, GLASS_NOISE, plan, result))


def run_all(workdir: Path) -> None:
    import floorref
    import floorref.cli

    for name in (*CONFIGS, "plan.json"):
        shutil.copyfile(ROOT / "configs" / name, workdir / name)
    os.chdir(workdir)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for config in CONFIGS:
            for seed in (7, 21):
                quick_start(floorref.cli.main, config, seed)
        large_values(floorref.cli.main)
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        for name in workloads.NAMES:
            wl = workloads.make(name, floorref, ROOT, 1, workdir / "bench")
            for i in range(3):
                wl.inspect(i, wl.run(i))
        library_example()


def statements(path: Path) -> dict[int, range]:
    """First line -> the lines whose execution marks the statement reached."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                continue  # a docstring runs no code
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        out[node.lineno] = range(first, max(first, last) + 1)
    return out


def main() -> int:
    reached: set[tuple[str, int]] = set()
    src = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(call)
        try:
            run_all(Path(tmp))
        finally:
            sys.settrace(None)
            os.chdir(cwd)

    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for lineno, span in sorted(statements(path).items()):
            total += 1
            if not any((str(path), line) in reached for line in span):
                missed += 1
                print(f"{path.name}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} of {total} statements reached by no run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
