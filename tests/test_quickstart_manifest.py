"""The README quick start, byte for byte.

Every command's exit code and the sha256 of its stdout, its stderr and every
file it writes are compared with ``tests/data/quickstart_sha256.json``. The
commands run in process through ``floorref.cli.main`` on both shipped world
configs at two seeds each; the wooden plate's reversal exits 5, and its
single-session calibration feeds the experiment.

The floats in these files come from numpy's linear algebra, so the manifest
records the numpy and BLAS build it was made with, and the test is skipped
under another build. Regenerate the manifest, only when an output format
changes on purpose, with::

    PYTHONPATH=src python tests/test_quickstart_manifest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from floorref.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "quickstart_sha256.json"
INPUTS = ("world.json", "world_wooden.json", "plan.json")
CASES = [(config, seed) for config in ("world.json", "world_wooden.json") for seed in (7, 21)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas_build = "unknown"
    return {"numpy": np.__version__, "blas": blas_build, "machine": platform.machine()}


def commands(config: str, seed: int) -> list[list[str]]:
    return [
        ["simulate", config, "--seed", str(seed), "--out", "session_a.json"],
        ["simulate", config, "--seed", str(seed + 1), "--reverse", "--out", "session_b.json"],
        ["calibrate", "session_a.json", "--reversal", "session_b.json", "--out", "result_reversal.json"],
        ["calibrate", "session_a.json", "--out", "result.json"],
        ["experiment", config, "result.json", "--plan", "plan.json", "--out-dir", "out", "--trials", "2"],
        ["metrics", "out/measurements.csv", "--out-dir", "metrics_out"],
    ]


def run_case(config: str, seed: int, workdir: Path) -> dict:
    """Run one case's commands in workdir, with every path relative to it, and
    digest what they print and write."""
    for name in INPUTS:
        shutil.copyfile(ROOT / "configs" / name, workdir / name)
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands(config, seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            records.append(
                {
                    "argv": " ".join(argv),
                    "exit": code,
                    "stdout": _sha256(out.getvalue().encode()),
                    "stderr": _sha256(err.getvalue().encode()),
                }
            )
    finally:
        os.chdir(cwd)
    files = {
        p.relative_to(workdir).as_posix(): _sha256(p.read_bytes())
        for p in sorted(workdir.rglob("*"))
        if p.is_file() and p.name not in INPUTS
    }
    return {"commands": records, "files": files}


def _case_id(config: str, seed: int) -> str:
    return f"{config} seed {seed}"


@pytest.mark.parametrize("config, seed", CASES, ids=[_case_id(*c) for c in CASES])
def test_quickstart_bytes_match_the_manifest(config, seed, tmp_path, monkeypatch):
    monkeypatch.delenv("FLOORREF_LOG", raising=False)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["build"] != build():
        pytest.skip(f"manifest recorded under {manifest['build']}, running {build()}")
    assert run_case(config, seed, tmp_path) == manifest["cases"][_case_id(config, seed)]


if __name__ == "__main__":
    import tempfile

    cases = {}
    for config, seed in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[_case_id(config, seed)] = run_case(config, seed, Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"build": build(), "cases": cases}, indent=2) + "\n", encoding="utf-8")
