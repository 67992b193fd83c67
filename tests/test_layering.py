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


# The functions that read files. read_json and read_measurements_csv map a
# failed read to a SchemaError naming the file, and file_sha256 hashes only
# inputs they have read, so an OSError that reaches cli.main is an output's.
READERS = {("schemas", "read_json"), ("schemas", "file_sha256"), ("report", "read_measurements_csv")}


def _is_read(call: ast.Call) -> bool:
    """Whether a call opens a file for reading: ``open`` or ``.open`` in a
    mode that neither writes, appends nor creates (no mode, or a mode not
    written out, counts as reading), ``.read_text()`` or ``.read_bytes()``."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None
    )
    if mode is None:
        return True
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"))


def _file_reads(module: str) -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every file read in a module."""
    reads = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _is_read(node):
            reads.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), "<module>")
    return reads


def test_files_are_read_only_by_the_readers():
    reads = set().union(*(_file_reads(path.stem) for path in SRC.glob("*.py")))
    assert reads == READERS
