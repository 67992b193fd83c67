"""Layering of the package: the calibration core imports nothing from the
simulator, the experiment, the file formats or the command line, read from the
import statements of each module's source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "floorref"
CORE = ("geometry", "camera", "plate", "pipeline", "frames", "errors")
OUTER = {"simulate", "experiment", "schemas", "report", "cli"}
# run_experiment, which drives the simulator, still lives in experiment;
# ROADMAP open item 4 moves it out and empties this set
KNOWN_SIMULATOR_IMPORTS = {("experiment", "simulate")}


def _package_imports(module: str) -> set[str]:
    """Names of the floorref modules a module imports."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            # "from .x import" and "from floorref.x import"; "from . import x"
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "floorref":
                    continue
                path = path[1:]
            names.update(path[:1] if path and path[0] else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("floorref."))
    return names


@pytest.mark.parametrize("module", CORE)
def test_core_imports_no_outer_module(module):
    assert _package_imports(module) & OUTER == set()


def test_metrics_side_imports_the_simulator_only_where_known():
    edges = {(m, "simulate") for m in ("experiment", "report") if "simulate" in _package_imports(m)}
    assert edges == KNOWN_SIMULATOR_IMPORTS


def test_import_reader_sees_every_form():
    assert _package_imports("cli") >= {"errors", "experiment", "schemas", "simulate"}
    assert _package_imports("schemas") >= {"frames", "camera", "simulate"}
