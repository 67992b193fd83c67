"""The floorref names the benchmark under ``perfbench/`` reaches still exist.

``perfbench/tracing.py`` is loaded as it is and its span tables are resolved
against the package; the names the probes and the worker read are looked up
directly. A deletion that would break a traced benchmark run fails here.
"""

import importlib.util
from pathlib import Path

import floorref
import floorref.cli  # noqa: F401  (the tracer also wraps cli, schemas and report)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_span_tables_resolve():
    tracing = _load("tracing")
    for name, fns in tracing._layer_specs(floorref):
        assert fns and all(callable(fn) for fn in fns), name
    for name, cls, attr in tracing._method_specs(floorref):
        assert attr in vars(cls), name


def test_probe_and_worker_names_exist():
    camera = floorref.simulate.demo_camera()
    assert callable(camera.normalized_to_pixel_array)
    assert callable(camera.pixel_to_normalized_array)
    assert callable(floorref.experiment.min_enclosing_circle)
    assert isinstance(floorref.KERNEL_BACKEND, str)


def test_tracer_sees_cli_commands_after_an_untraced_call(tmp_path):
    # the benchmark runs a warm-up op before it installs the tracer: commands
    # must be looked up when main() runs, not bound when the parser was built
    tracing = _load("tracing")
    world = Path(__file__).resolve().parents[1] / "configs" / "world.json"
    assert floorref.cli.main(["simulate", str(world), "--out", str(tmp_path / "a.json")]) == 0
    tracer = tracing.Tracer()
    tracer.install(floorref)
    try:
        assert floorref.cli.main(["simulate", str(world), "--out", str(tmp_path / "b.json")]) == 0
    finally:
        tracer.uninstall()
    assert "cli.simulate" in {span[0] for span in tracer.spans}
