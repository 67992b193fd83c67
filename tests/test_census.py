"""Census of the settable surface: the options of each CLI subcommand, the
parameters of each public decoder, every parameter with a default of a
public function, method or class constructor, the package exports, and the
error classes, each of which the package raises; and of the callers: every
public definition is called by the package, exported, or used by the
benchmark.

Adding an option, a decoder parameter, a default or an export means adding it
here too, so every new setting or name shows up in review next to a reason
for it.
"""

import argparse
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import floorref
from floorref import schemas
from floorref.cli import build_parser

OPTIONS = {
    "simulate": {"-h", "world", "--out", "--seed", "--reverse"},
    "calibrate": {"-h", "session", "--out", "--reversal"},
    "experiment": {"-h", "world", "result", "--plan", "--out-dir", "--seed", "--trials"},
    "metrics": {"-h", "measurements", "--out-dir"},
}

DECODERS = {
    "camera_from_dict": ["doc"],
    "plate_from_dict": ["doc"],
    "session_from_dict": ["doc"],
    "session_ground_truth": ["doc"],
    "result_from_dict": ["doc", "camera"],
    "world_from_dict": ["doc"],
    "plan_from_dict": ["doc"],
}


# measure_mark and simulate_mark_observation stay while the benchmark traces
# them; ROADMAP open item 4 removes them
EXPORTS = {
    "CameraModel",
    "ClusterReport",
    "ExperimentPlan",
    "FloorRefError",
    "GLASS_NOISE",
    "MarkMeasurement",
    "NoiseConfig",
    "ReferencingPlate",
    "ReferencingResult",
    "ReferencingSession",
    "RigidTransform",
    "RobotModel",
    "RobotPlacement",
    "SceneFrame",
    "SimWorld",
    "apply",
    "build_rectification_map",
    "cluster_metrics",
    "compose",
    "compute_rob_h_cam",
    "default_placements",
    "demo_world",
    "estimate_plate_pose",
    "estimate_plate_pose_from_image",
    "estimate_robot_pose",
    "fit_circle",
    "frames",
    "inject_wooden_plate",
    "invert",
    "measure_mark",
    "min_enclosing_circle",
    "plate_normal",
    "random_world",
    "register_points",
    "reversal_average",
    "rotation_distance",
    "run_experiment",
    "simulate_mark_observation",
    "simulate_referencing_session",
}


DEFAULTS = {
    "cli.main": {"argv": None},
    "experiment.ExperimentPlan": {
        "yaw_deg_list": (90.0, -90.0, 0.0, 180.0, 45.0, -45.0, 135.0, -135.0),
        "repeats": 5,
        "max_offset_mm": 12.0,
        "yaw_jitter_deg": 0.15,
    },
    "experiment.run_experiment": {"seed": None},
    "pipeline.ReferencingResult": {"reversal_of": None},
    "schemas.session_to_dict": {"ground_truth": None, "prov": None},
    "schemas.result_to_dict": {"prov": None},
    "simulate.NoiseConfig": {"tracker_sigma_mm": 0.035, "image_sigma_px": 0.0, "nest_offset_error_mm": 0.0},
    # none for SimWorld.true_smr_points_ref: its caller passes the configured nest offset
    "simulate.SimWorld": {
        "floor_inclination_rad": 0.0,
        "floor_azimuth_rad": 0.0,
        "deformation_amplitude_mm": 0.0,
        "seed": 0,
    },
    "simulate.simulate_referencing_session": {"trial": 0},
    "simulate.demo_world": {"seed": 0},
    "simulate.default_placements": {"reverse": False},
}


def _public_callables():
    """(module.name[.method], callable) for every public function and class
    defined in a floorref module, and every public method of such a class.
    Exception classes are left out: each takes one message."""
    for info in pkgutil.iter_modules(floorref.__path__):
        module = importlib.import_module(f"floorref.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{info.name}.{name}.{attr}", getattr(obj, attr)


def test_default_census():
    found = {}
    for name, fn in _public_callables():
        params = inspect.signature(fn).parameters.values()
        defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
        if defaults:
            found[name] = defaults
    assert found == DEFAULTS


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """Positional names and the first spelling of each option."""
    return {a.option_strings[0] if a.option_strings else a.dest for a in parser._actions}


def test_cli_option_census():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _options(parser) == {"-h", "--version", "command"}
    assert {name: _options(p) for name, p in sub.choices.items()} == OPTIONS


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_decoder_signature_census(name):
    params = inspect.signature(getattr(schemas, name)).parameters.values()
    assert [p.name for p in params] == DECODERS[name]
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_export_census():
    assert sorted(floorref.__all__) == sorted(EXPORTS)
    assert [name for name in floorref.__all__ if not hasattr(floorref, name)] == []


def _constructed_names(source: str) -> set[str]:
    """Names called as ``Name(...)`` anywhere in a module's source: an error
    raised at once or built and raised later (a per-row error, a helper that
    returns one)."""
    return {
        node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_error_class_census():
    # every error class but the base is raised somewhere in the package
    package = Path(floorref.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    constructed = set()
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            constructed |= _constructed_names(path.read_text())
    assert "FloorRefError" in classes
    assert sorted(classes - {"FloorRefError"} - constructed) == []


def test_error_census_reader_sees_raised_and_stored_errors():
    source = "raise A('x')\nerrors[i] = B(f'{i}')\nraise helper(1)\nif isinstance(e, C):\n    pass\n"
    assert _constructed_names(source) == {"A", "B", "helper", "isinstance"}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class
    of a module, and of each public method or property of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as ``Name`` nodes or ``Attribute`` attributes in a tree,
    leaving out the subtree ``skip`` (a definition's own body)."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _bench_names(tree: ast.AST) -> set[str]:
    """What a benchmark module names: references and imported names."""
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return _referenced_names(tree) | {alias.name for node in imports for alias in node.names}


def _uncalled(package: dict[str, ast.Module], exported: set[str], bench: set[str]) -> list[str]:
    found = []
    for module, tree in package.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in exported or name in bench:
                continue
            if not any(
                name in _referenced_names(other, node if other is tree else None)
                for other in package.values()
            ):
                found.append(f"{module}.{qualname}")
    return found


def test_every_public_definition_has_a_caller():
    # a public definition that only tests call is dead weight in the package
    root = Path(floorref.__file__).parent
    package = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    bench_dir = Path(__file__).resolve().parent.parent / "perfbench"
    bench = set()
    for path in bench_dir.glob("*.py"):
        bench |= _bench_names(ast.parse(path.read_text()))
    assert "run_experiment" in bench  # the benchmark sources were read
    assert _uncalled(package, set(floorref.__all__), bench) == []


def test_caller_census_reader_sees_callers_and_definitions():
    source = (
        "def used():\n    return 1\n"
        "def recursive():\n    return recursive()\n"
        "class Box:\n"
        "    def method(self):\n        return self.prop\n"
        "    @property\n    def prop(self):\n        return used()\n"
        "    def orphan(self):\n        return self.method()\n"
        "    def _private(self):\n        pass\n"
        "def exported():\n    pass\n"
        "def benched():\n    pass\n"
        "def _helper():\n    return Box\n"
    )
    tree = ast.parse(source)
    assert [name for name, _ in _public_definitions(tree)] == [
        "used", "recursive", "Box", "Box.method", "Box.prop", "Box.orphan", "exported", "benched",
    ]
    other = ast.parse("import m\nm.exported\n")
    # a call from its own body does not count; a call from another module does
    assert _uncalled({"a": tree}, {"exported"}, {"benched"}) == ["a.recursive", "a.Box.orphan"]
    assert _uncalled({"a": tree, "b": other}, set(), {"benched"}) == ["a.recursive", "a.Box.orphan"]
    assert _uncalled({"a": tree}, set(), set()) == [
        "a.recursive", "a.Box.orphan", "a.exported", "a.benched",
    ]
    bench = ast.parse("from floorref.x import benched as b\nimport floorref.y as y\ny.traced\n")
    assert {"benched", "traced"} <= _bench_names(bench)
