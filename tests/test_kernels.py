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


def test_enclosing_circle_far_beyond_the_square_root_of_the_float_range():
    # squared distances overflow here; the radius itself is representable
    cx, cy, r = enclosing_circle(np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]]))
    assert r == pytest.approx(1e200, rel=1e-12)
    assert abs(cx) <= 1e188 and abs(cy) <= 1e188
    # the same construction as on the points scaled down: equal up to the scale
    pts = np.array([[3.0, -1.0], [-2.5, 0.25], [0.5, 2.0], [1.0, 1.0]])
    small = enclosing_circle(pts)
    huge = enclosing_circle(pts * 2.0**700)
    assert huge == pytest.approx(tuple(v * 2.0**700 for v in small), rel=1e-12)
    # a radius beyond the float range stays infinite
    assert enclosing_circle(np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]))[2] == np.inf
