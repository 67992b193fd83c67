import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_transform, point_clouds, rigid_transforms
from floorref.errors import DegenerateConfiguration, FrameMismatch, LengthMismatch
from floorref.geometry import (
    RigidTransform,
    apply,
    chordal_mean,
    compose,
    compose_rotations,
    invert,
    nearest_rotation,
    quaternion_to_rotation,
    register_points,
    rotation_about_axis,
    rotation_about_x,
    rotation_about_z,
    rotation_distance,
    rotations_about_z,
    row_dots,
    rotation_from_rotvec,
    rotation_to_quaternion,
    to_homogeneous,
    transform_gap,
)

RZ90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


class TestCompose:
    def test_identity_case(self):
        h = make_transform([0, 0, 1], 0.7, [1.0, -2.0, 3.0], "a", "b")
        out = compose(RigidTransform.identity("b"), h)
        assert np.allclose(out.matrix, h.matrix, atol=1e-15)

    def test_inverse_case(self):
        h = make_transform([1, 2, 3], 1.1, [10.0, 0.5, -4.0], "a", "b")
        out = compose(invert(h), h)
        assert np.allclose(out.matrix, np.eye(4), atol=1e-9)
        assert out.source == "a" and out.dest == "a"

    def test_two_quarter_turns_by_hand(self):
        # 4x4 product done by hand: Rz(90) Rz(90) = Rz(180); the outer rotation
        # acts on the inner translation: t = Rz(90) t2 + t1.
        t1 = np.array([5.0, -2.0, 1.0])
        t2 = np.array([1.0, 2.0, 3.0])
        h_ab = RigidTransform(RZ90, t2, source="a", dest="b")
        h_bc = RigidTransform(RZ90, t1, source="b", dest="c")
        out = compose(h_bc, h_ab)
        expected_rot = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        expected_t = np.array([-2.0 + 5.0, 1.0 - 2.0, 3.0 + 1.0])  # (3, -1, 4)
        assert np.allclose(out.rotation, expected_rot, atol=1e-15)
        assert np.allclose(out.translation, expected_t, atol=1e-15)
        assert out.source == "a" and out.dest == "c"

    def test_inner_frame_mismatch(self):
        h_ab = make_transform([0, 0, 1], 0.2, [0, 0, 0], "a", "b")
        h_cd = make_transform([0, 0, 1], 0.3, [0, 0, 0], "c", "d")
        with pytest.raises(FrameMismatch):
            compose(h_cd, h_ab)

    @settings(max_examples=50, deadline=None)
    @given(rigid_transforms("a", "b"), rigid_transforms("b", "c"), rigid_transforms("c", "d"))
    def test_associative(self, h_ab, h_bc, h_cd):
        left = compose(compose(h_cd, h_bc), h_ab)
        right = compose(h_cd, compose(h_bc, h_ab))
        assert np.allclose(left.matrix, right.matrix, atol=1e-12)

    def test_long_chain_stays_orthonormal(self):
        step = make_transform([0.3, -0.2, 0.93], 1e-3, [0.1, 0.0, -0.1], "a", "a")
        h = RigidTransform.identity("a")
        for _ in range(20000):
            h = compose(step, h)
        r = h.rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9


class TestInvert:
    def test_identity(self):
        assert np.allclose(invert(RigidTransform.identity("x")).matrix, np.eye(4))

    def test_pure_translation(self):
        t = np.array([4.0, -1.0, 2.5])
        h = RigidTransform(np.eye(3), t, source="a", dest="b")
        out = invert(h)
        assert np.allclose(out.translation, -t, atol=1e-15)
        assert out.source == "b" and out.dest == "a"

    @settings(max_examples=50, deadline=None)
    @given(rigid_transforms())
    def test_involution(self, h):
        out = invert(invert(h))
        assert np.linalg.norm(out.rotation - h.rotation) < 1e-12
        assert np.max(np.abs(out.translation - h.translation)) < 1e-12


class TestApply:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(apply(RigidTransform.identity("w"), p), p)

    def test_translation_of_origin(self):
        h = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]), source="a", dest="b")
        assert np.allclose(apply(h, np.zeros(3)), [1.0, 2.0, 3.0])

    def test_quarter_turn_about_z(self):
        h = RigidTransform(RZ90, np.zeros(3), source="a", dest="b")
        out = apply(h, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_homogeneous_w_stays_one(self):
        h = make_transform([1, 1, 0], 0.4, [5.0, 6.0, 7.0], "a", "b")
        ph = to_homogeneous([1.0, 2.0, 3.0])
        out = apply(h, ph)
        assert out.shape == (4,)
        assert out[3] == 1.0

    def test_rejects_bad_homogeneous_coordinate(self):
        h = RigidTransform.identity("a")
        with pytest.raises(ValueError):
            apply(h, np.array([1.0, 2.0, 3.0, 1.5]))

    def test_frame_check(self):
        h = make_transform([0, 0, 1], 0.1, [0, 0, 0], "a", "b")
        apply(h, np.zeros(3), frame="a")
        with pytest.raises(FrameMismatch):
            apply(h, np.zeros(3), frame="b")

    def test_batch_shape(self):
        h = make_transform([0, 1, 0], 0.3, [1, 1, 1], "a", "b")
        pts = np.arange(12.0).reshape(4, 3)
        out = apply(h, pts)
        assert out.shape == (4, 3)
        assert np.allclose(out[2], apply(h, pts[2]))

    @settings(max_examples=50, deadline=None)
    @given(rigid_transforms(), point_clouds(n_min=2, n_max=6))
    def test_preserves_pairwise_distances(self, h, pts):
        out = apply(h, pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                before = np.linalg.norm(pts[i] - pts[j])
                after = np.linalg.norm(out[i] - out[j])
                assert abs(before - after) < 1e-9


class TestRegisterPoints:
    def test_self_registration_is_identity(self):
        pts = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 50.0, 10.0]])
        reg = register_points(pts, pts)
        assert np.allclose(reg.transform.matrix, np.eye(4), atol=1e-12)
        assert reg.rms_mm < 1e-12

    def test_recovers_forward_transform(self):
        rng = np.random.default_rng(42)
        src = rng.uniform(-200.0, 200.0, size=(5, 3))
        rot = rotation_about_z(math.radians(30.0))
        t = np.array([5.0, -2.0, 1.0])
        dst = src @ rot.T + t
        reg = register_points(src, dst)
        assert np.linalg.norm(reg.transform.rotation - rot) < 1e-9
        assert np.max(np.abs(reg.transform.translation - t)) < 1e-9
        assert reg.rms_mm < 1e-9

    def test_noise_rms_stays_near_sigma(self):
        # 3 points, 10 um isotropic noise: residual RMS stays below 3 sigma
        rng = np.random.default_rng(7)
        sigma = 0.010
        src = np.array([[0.0, 0.0, 0.0], [300.0, 0.0, 0.0], [100.0, 250.0, 0.0]])
        worst = 0.0
        for _ in range(1000):
            rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-1, 1))
            t = rng.uniform(-100, 100, size=3)
            dst = src @ rot.T + t + rng.normal(0.0, sigma, size=src.shape)
            reg = register_points(src, dst)
            worst = max(worst, reg.rms_mm)
        assert worst <= 3.0 * sigma

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            register_points(np.zeros((4, 3)), np.zeros((3, 3)))

    def test_too_few_points(self):
        with pytest.raises(DegenerateConfiguration):
            register_points(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_source_rejected(self):
        src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateConfiguration):
            register_points(src, src)

    def test_coincident_target_rejected(self):
        src = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        dst = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        with pytest.raises(DegenerateConfiguration):
            register_points(src, dst)

    @settings(max_examples=30, deadline=None)
    @given(rigid_transforms("dst", "dst2"))
    def test_left_invariance(self, g):
        rng = np.random.default_rng(3)
        src = rng.uniform(-100, 100, size=(4, 3))
        dst = src @ rotation_about_z(0.4).T + [10.0, 20.0, -5.0]
        base = register_points(src, dst, "src", "dst").transform
        moved = register_points(src, apply(g, dst), "src", "dst2").transform
        expected = compose(g, base)
        assert np.linalg.norm(moved.rotation - expected.rotation) < 1e-9
        assert np.max(np.abs(moved.translation - expected.translation)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(point_clouds(n_min=3, n_max=10), rigid_transforms())
    def test_exact_correspondences_have_tiny_rms(self, pts, h):
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[1] <= 1e-3:  # skip near-degenerate draws
            return
        reg = register_points(pts, apply(h, pts))
        assert reg.rms_mm < 1e-9


class TestRotationDistance:
    def test_zero_for_equal(self):
        r = rotation_about_axis([1.0, 2.0, -1.0], 0.7)
        assert rotation_distance(r, r) < 1e-12

    def test_quarter_turn(self):
        assert abs(rotation_distance(np.eye(3), RZ90) - math.pi / 2.0) < 1e-12

    def test_opposite_rolls_add(self):
        a = rotation_about_x(math.radians(10.0))
        b = rotation_about_x(math.radians(-10.0))
        assert abs(rotation_distance(a, b) - math.radians(20.0)) < 1e-12

    def test_clamped_at_pi(self):
        r = rotation_about_z(math.pi)
        assert rotation_distance(np.eye(3), r) <= math.pi

    def test_transform_gap(self):
        a = make_transform([0.0, 0.0, 1.0], 0.3, [1.0, 2.0, 3.0])
        b = make_transform([0.0, 0.0, 1.0], -0.2, [4.0, 6.0, 3.0])
        dt, dr = transform_gap(a, b)
        assert dt == 5.0
        assert abs(dr - 0.5) < 1e-12
        assert transform_gap(a, a) == (0.0, 0.0)


class TestRotationHelpers:
    def test_invalid_rotation_rejected(self):
        bad = np.eye(3) * 1.01
        with pytest.raises(ValueError):
            RigidTransform(bad, np.zeros(3), source="a", dest="b")

    def test_reflection_rejected(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(m, np.zeros(3), source="a", dest="b")

    @settings(max_examples=50, deadline=None)
    @given(rigid_transforms())
    def test_quaternion_round_trip(self, h):
        q = rotation_to_quaternion(h.rotation)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.linalg.norm(quaternion_to_rotation(q) - h.rotation) < 1e-9

    def test_rotvec_matches_axis_angle(self):
        assert np.linalg.norm(rotation_from_rotvec([0.0, 0.0, math.pi / 2.0]) - RZ90) < 1e-15
        axis = np.array([0.2, -0.5, 1.0])
        for angle in (-2.5, -1e-3, 0.4, 3.0):
            r = rotation_from_rotvec(axis / np.linalg.norm(axis) * angle)
            assert np.linalg.norm(r - rotation_about_axis(axis, angle)) < 1e-15
            assert abs(rotation_distance(np.eye(3), r) - abs(angle)) < 1e-12

    def test_rotvec_small_angle_branch(self):
        w = np.array([3e-13, -4e-13, 1e-13])
        r = rotation_from_rotvec(w)
        assert np.max(np.abs([r[2, 1] - w[0], r[0, 2] - w[1], r[1, 0] - w[2]])) < 1e-24
        RigidTransform(r, np.zeros(3), source="a", dest="b")  # a valid rotation
        assert np.array_equal(rotation_from_rotvec(np.zeros(3)), np.eye(3))

    def test_chordal_mean_of_symmetric_pair(self):
        base = rotation_about_axis([0.2, -0.5, 1.0], 0.9)
        eps = math.radians(0.1)
        mean = chordal_mean([rotation_about_z(eps) @ base, rotation_about_z(-eps) @ base])
        assert np.linalg.norm(mean - base) < 1e-10

    def test_transforms_are_immutable(self):
        h = make_transform([0, 0, 1], 0.5, [1, 2, 3])
        with pytest.raises(ValueError):
            h.rotation[0, 0] = 2.0


class TestRowStacks:
    """Stacked forms equal their one-row counterparts bit for bit."""

    def test_rotations_about_z(self):
        angles = np.random.default_rng(4).uniform(-7.0, 7.0, 50)
        stack = rotations_about_z(angles)
        for a, r in zip(angles, stack):
            assert np.array_equal(r, rotation_about_z(float(a)))

    def test_row_dots(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 200, 3)) * 1e3
        assert np.array_equal(row_dots(a, b), [float(x @ y) for x, y in zip(a, b)])
        assert np.array_equal(np.sqrt(row_dots(a, a)), [np.linalg.norm(x) for x in a])

    def test_compose_rotations(self):
        rng = np.random.default_rng(6)
        inner = make_transform(rng.normal(size=3), 0.7, rng.normal(size=3), "a", "b")
        outer = [
            make_transform(rng.normal(size=3), float(rng.uniform(-3, 3)), np.zeros(3), "b", "c")
            for _ in range(30)
        ]
        # a product drifted past the renormalization trigger is renormalized per row
        drifted = np.array([h.rotation for h in outer]) @ inner.rotation
        drifted[3] = drifted[3] * (1.0 + 1e-10)
        stack = compose_rotations(drifted, np.eye(3))
        assert np.array_equal(stack[3], nearest_rotation(drifted[3]))
        stack = compose_rotations(np.array([h.rotation for h in outer]), inner.rotation)
        for h, r in zip(outer, stack):
            assert np.array_equal(r, compose(h, inner).rotation)
