"""One equality rule for the package's dataclasses: a type that holds an
array, a mapping or a transform compares by identity (``eq=False``), and a
type whose fields are all scalars or tuples of them compares by value. The
cluster report's named tuples compare and hash by value."""

import collections.abc
import dataclasses
import functools
import importlib
import pkgutil
import typing

import numpy as np
import pytest

import floorref
from floorref.experiment import (
    ClusterReport,
    DirectionStats,
    ExperimentPlan,
    cluster_metrics,
    run_experiment,
)
from floorref.pipeline import compute_rob_h_cam
from floorref.simulate import (
    GLASS_NOISE,
    default_placements,
    demo_world,
    simulate_referencing_session,
)


@functools.cache
def _instances():
    world = demo_world()
    session = simulate_referencing_session(world, GLASS_NOISE, *default_placements(world))
    result = compute_rob_h_cam(session)
    plan = ExperimentPlan(mark_xy_mm=(0.0, 0.0), repeats=1)
    record = run_experiment(world, GLASS_NOISE, plan, result, seed=1)[0]
    return {
        "ReferencingPlate": world.plate,
        "SceneFrame": result.scene,
        "ReferencingSession": session,
        "ReferencingResult": result,
        "MarkMeasurement": record,
        "SimWorld": world,
        "RigidTransform": world.h_rob_cam_true,
    }


IDENTITY_TYPES = (
    "ReferencingPlate",
    "SceneFrame",
    "ReferencingSession",
    "ReferencingResult",
    "MarkMeasurement",
    "SimWorld",
    "RigidTransform",
)


@pytest.mark.parametrize("name", IDENTITY_TYPES)
def test_identity_types_compare_by_identity(name):
    a = _instances()[name]
    assert type(a).__name__ == name
    assert (a == dataclasses.replace(a)) is False
    assert (a == a) is True
    hash(a)


def _dataclasses():
    for info in pkgutil.iter_modules(floorref.__path__):
        module = importlib.import_module(f"floorref.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def _held_by_identity(hint) -> bool:
    """Whether an annotation names an array, a mapping or an identity type,
    also inside a union or a tuple."""
    if any(_held_by_identity(arg) for arg in typing.get_args(hint)):
        return True
    cls = typing.get_origin(hint) or hint
    if not isinstance(cls, type):
        return False
    if issubclass(cls, (np.ndarray, collections.abc.Mapping)):
        return True
    return dataclasses.is_dataclass(cls) and not cls.__dataclass_params__.eq


def test_value_types_hold_no_array_mapping_or_transform():
    classes = list(_dataclasses())
    value_types = [cls for cls in classes if cls.__dataclass_params__.eq]
    assert {cls.__name__ for cls in value_types} == {
        "CameraModel",
        "NoiseConfig",
        "RobotModel",
        "RobotPlacement",
        "ExperimentPlan",
    }
    for cls in value_types:
        hints = typing.get_type_hints(cls)
        held = [f.name for f in dataclasses.fields(cls) if _held_by_identity(hints[f.name])]
        assert not held, f"{cls.__name__} compares by value but holds {held}"
    # every identity type is covered by test_identity_types_compare_by_identity
    assert {cls.__name__ for cls in classes if cls not in value_types} == set(IDENTITY_TYPES)


def test_cluster_report_compares_and_hashes_by_value():
    world, result = _instances()["SimWorld"], _instances()["ReferencingResult"]
    records = run_experiment(world, GLASS_NOISE, ExperimentPlan(mark_xy_mm=(0.0, 0.0)), result, seed=1)
    a, b = cluster_metrics(records), cluster_metrics(records)
    assert a is not b and a == b and hash(a) == hash(b)
    assert isinstance(a, ClusterReport) and isinstance(a.overall, DirectionStats)
    assert a.overall == b.overall and hash(a.overall) == hash(b.overall)
    assert a.overall == tuple(a.overall)  # a named tuple equals its plain tuple
    moved = a.overall._replace(mean_x_mm=a.overall.mean_x_mm + 1.0)
    assert moved != a.overall and a._replace(overall=moved) != a
    assert a.overall.diameter_mm == 2.0 * a.overall.radius_mm


def test_reader_sees_arrays_mappings_and_identity_types():
    assert _held_by_identity(floorref.plate.Array)
    assert _held_by_identity(typing.Mapping[str, floorref.plate.Array])
    assert _held_by_identity(floorref.RigidTransform | None)
    assert _held_by_identity(tuple[floorref.ReferencingResult, ...])
    assert not _held_by_identity(tuple[float, float])
    assert not _held_by_identity(int | None)
    assert not _held_by_identity(floorref.CameraModel)


def test_equal_cameras_carry_their_own_probe_rays():
    # the probe rays are kept on each camera, outside its fields: equality
    # and hashing stay by value, and a replaced camera computes its own
    world = demo_world()
    a, b = world.camera, dataclasses.replace(world.camera)
    assert a == b and hash(a) == hash(b)
    assert a._probe_rays is not b._probe_rays
    assert np.array_equal(a._probe_rays, b._probe_rays)
    c = dataclasses.replace(a, k=(0.0, 0.0, 0.0))
    assert c != a
    assert not np.array_equal(c._probe_rays, a._probe_rays)
    assert not c._probe_rays.flags.writeable
