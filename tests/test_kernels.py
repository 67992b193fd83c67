"""Behavior of the enclosing-circle kernel, `experiment.enclosing_circle`."""

import numpy as np
import pytest

from _oracles import brute_force_enclosing_circle
from floorref.experiment import enclosing_circle


def test_enclosing_circle_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(1, 25))
        pts = rng.uniform(-50.0, 50.0, size=(n, 2))
        cx, cy, r = enclosing_circle(pts)
        _, r_bf = brute_force_enclosing_circle(pts)
        assert abs(r - r_bf) < 1e-9
        dists = np.linalg.norm(pts - [cx, cy], axis=1)
        assert np.all(dists <= r + 1e-9)


def test_enclosing_circle_rejects_empty():
    with pytest.raises(ValueError):
        enclosing_circle(np.empty((0, 2)))
