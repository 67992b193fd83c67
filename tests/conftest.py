from __future__ import annotations

import collections
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from floorref.geometry import RigidTransform, rotation_about_axis
from floorref.pipeline import compute_rob_h_cam
from floorref.simulate import (
    NO_NOISE,
    default_placements,
    demo_world,
    simulate_referencing_session,
)


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls through module attributes: ``counts = call_counts((module,
    "name"), ...)`` wraps each attribute through monkeypatch and returns a
    Counter, keyed by name, that the wrappers update. Only calls that look the
    name up on that module are counted, as the package's own calls do."""
    counts: collections.Counter[str] = collections.Counter()

    def install(*targets):
        for module, name in targets:
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    return install


@pytest.fixture(scope="session")
def world():
    return demo_world(seed=7)


@pytest.fixture(scope="session")
def noiseless_session(world):
    p0, p1 = default_placements(world)
    return simulate_referencing_session(world, NO_NOISE, p0, p1)


@pytest.fixture(scope="session")
def noiseless_result(noiseless_session):
    return compute_rob_h_cam(noiseless_session)


def make_transform(
    axis, angle_rad, translation, source: str = "a", dest: str = "b"
) -> RigidTransform:
    return RigidTransform(
        rotation_about_axis(np.asarray(axis, dtype=np.float64), angle_rad),
        np.asarray(translation, dtype=np.float64),
        source=source,
        dest=dest,
    )


@st.composite
def rigid_transforms(draw, source: str = "a", dest: str = "b"):
    axis = np.array(
        [
            draw(st.floats(-1.0, 1.0)),
            draw(st.floats(-1.0, 1.0)),
            draw(st.floats(-1.0, 1.0)),
        ]
    )
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([0.0, 0.0, 1.0])
    angle = draw(st.floats(-math.pi, math.pi))
    translation = np.array(
        [draw(st.floats(-500.0, 500.0)) for _ in range(3)]
    )
    return make_transform(axis, angle, translation, source, dest)


@st.composite
def point_clouds(draw, n_min: int = 3, n_max: int = 8, spread_mm: float = 200.0):
    n = draw(st.integers(n_min, n_max))
    pts = np.array(
        [[draw(st.floats(-spread_mm, spread_mm)) for _ in range(3)] for _ in range(n)]
    )
    return pts
