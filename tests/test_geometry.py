import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_transform, point_clouds, rigid_transforms
from floorref.errors import DegenerateConfiguration, FrameMismatch, LengthMismatch
from floorref.geometry import (
    ROTATION_TOL,
    RigidTransform,
    apply,
    chordal_mean,
    compose,
    compose_rotations,
    cross3,
    det3,
    invert,
    nearest_rotation,
    norm,
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
    transform_gap,
    validate_rotation,
)

RZ90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _identity(frame):
    return RigidTransform(np.eye(3), np.zeros(3), source=frame, dest=frame)


class TestCompose:
    def test_identity_case(self):
        h = make_transform([0, 0, 1], 0.7, [1.0, -2.0, 3.0], "a", "b")
        out = compose(_identity("b"), h)
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
        h = _identity("a")
        for _ in range(20000):
            h = compose(step, h)
        r = h.rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9

    def test_drifted_product_is_reorthonormalised(self):
        # a rotation 1e-10 off orthonormal passes the constructor; its square
        # drifts past the 1e-12 trigger and comes back orthonormal to rounding
        r = rotation_about_z(0.3)
        r[0, 0] += 1e-10
        h = RigidTransform(r, np.zeros(3), source="a", dest="a")
        raw = r @ r
        assert np.linalg.norm(raw.T @ raw - np.eye(3)) > 1e-10
        product = compose(h, h).rotation
        assert np.linalg.norm(product.T @ product - np.eye(3)) < 1e-14
        assert np.array_equal(product, nearest_rotation(raw))


class TestInvert:
    def test_identity(self):
        assert np.allclose(invert(_identity("x")).matrix, np.eye(4))

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
        assert np.allclose(apply(_identity("w"), p), p)

    def test_translation_of_origin(self):
        h = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]), source="a", dest="b")
        assert np.allclose(apply(h, np.zeros(3)), [1.0, 2.0, 3.0])

    def test_quarter_turn_about_z(self):
        h = RigidTransform(RZ90, np.zeros(3), source="a", dest="b")
        out = apply(h, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

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
        reg = register_points(pts, pts, "a", "b")
        assert np.allclose(reg.transform.matrix, np.eye(4), atol=1e-12)
        assert reg.rms_mm < 1e-12

    def test_recovers_forward_transform(self):
        rng = np.random.default_rng(42)
        src = rng.uniform(-200.0, 200.0, size=(5, 3))
        rot = rotation_about_z(math.radians(30.0))
        t = np.array([5.0, -2.0, 1.0])
        dst = src @ rot.T + t
        reg = register_points(src, dst, "a", "b")
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
            reg = register_points(src, dst, "a", "b")
            worst = max(worst, reg.rms_mm)
        assert worst <= 3.0 * sigma

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            register_points(np.zeros((4, 3)), np.zeros((3, 3)), "a", "b")

    def test_too_few_points(self):
        with pytest.raises(DegenerateConfiguration):
            register_points(np.zeros((2, 3)), np.zeros((2, 3)), "a", "b")

    def test_collinear_source_rejected(self):
        src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateConfiguration):
            register_points(src, src, "a", "b")

    def test_both_collinear_names_the_source(self):
        # the two rank checks run as one stacked SVD; the source is named first
        collinear = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        coincident = np.zeros((3, 3))
        planar = np.array([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0], [0.0, 9.0, 0.0]])
        with pytest.raises(DegenerateConfiguration, match="^register_points: source points collinear"):
            register_points(collinear, coincident, "a", "b")
        with pytest.raises(DegenerateConfiguration, match="^register_points: target points collinear"):
            register_points(planar, coincident, "a", "b")

    def test_coincident_target_rejected(self):
        src = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        dst = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        with pytest.raises(DegenerateConfiguration):
            register_points(src, dst, "a", "b")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("label", ["source", "target"])
    def test_non_finite_point_rejected_naming_its_set(self, label, value):
        # checked before the rank checks, whose SVD would fail on it or warn
        good = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        bad = good.copy()
        bad[1, 2] = value
        pair = (bad, good) if label == "source" else (good, bad)
        with pytest.raises(ValueError, match=f"^register_points: need finite {label} points$"):
            register_points(*pair, "a", "b")

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
        reg = register_points(pts, apply(h, pts), "a", "b")
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

    def test_nearest_rotation_of_a_reflection_is_proper(self):
        # det -1: the polar factor is a reflection; flipping the axis of the
        # smallest singular value gives the nearest rotation, here the identity
        r = nearest_rotation(np.diag([3.0, 2.0, -1.0]))
        assert np.linalg.det(r) == pytest.approx(1.0)
        assert np.allclose(r, np.eye(3), atol=1e-15)

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


class TestWhereTransformsAreChecked:
    """compose and invert skip the constructor's checks; their results still
    hold the invariant, and the public entry points still check."""

    @settings(max_examples=50, deadline=None)
    @given(
        rigid_transforms("a", "b"),
        st.lists(st.tuples(rigid_transforms("a", "a"), st.booleans()), min_size=1, max_size=40),
    )
    def test_compose_invert_chains_keep_the_invariant(self, h, steps):
        tags = ("a", "b")
        for step, flip in steps:
            h = compose(h, step) if h.source == "a" else compose(step, h)
            if flip:
                h = invert(h)
                tags = tags[::-1]
            validate_rotation(h.rotation)
            assert np.all(np.isfinite(h.translation)) and h.translation.shape == (3,)
            assert not h.rotation.flags.writeable and not h.translation.flags.writeable
            assert (h.source, h.dest) == tags

    def test_long_chain_results_are_read_only(self):
        step = make_transform([0.3, -0.2, 0.93], 1e-3, [0.1, 0.0, -0.1], "a", "a")
        h = _identity("a")
        for _ in range(5000):
            h = invert(compose(step, h))
        validate_rotation(h.rotation)
        for a in (h.rotation, h.translation):
            with pytest.raises(ValueError):
                a[0] = 1.0

    @pytest.mark.parametrize(
        "rotation, translation",
        [
            (np.eye(3) * 1.01, np.zeros(3)),
            (np.eye(3) + 1e-6 * RZ90, np.zeros(3)),
            (np.diag([1.0, 1.0, -1.0]), np.zeros(3)),
            (-np.eye(3), np.zeros(3)),
            (np.where(np.eye(3) == 1.0, np.nan, 0.0), np.zeros(3)),
            (np.eye(3), np.array([0.0, np.inf, 0.0])),
            (np.eye(3), np.array([np.nan, 0.0, 0.0])),
        ],
        ids=["scaled", "skewed", "reflection", "point_reflection", "nan_rotation", "inf_translation", "nan_translation"],
    )
    def test_entry_points_reject_bad_input(self, rotation, translation):
        with pytest.raises(ValueError):
            RigidTransform(rotation, translation, source="a", dest="b")
        m = np.eye(4)
        m[:3, :3] = rotation
        m[:3, 3] = translation
        with pytest.raises(ValueError):
            RigidTransform.from_matrix(m, source="a", dest="b")

    def test_overflowed_translation_rejected(self):
        # finite inputs whose product overflows: compose and invert raise as
        # the constructor does instead of returning an inf translation
        far = RigidTransform(rotation_about_z(math.pi / 4), [1.5e308, 1.5e308, 0.0], "a", "a")
        shift = RigidTransform(np.eye(3), [1.5e308, 0.0, 0.0], "a", "a")
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                invert(far)
            with pytest.raises(ValueError, match="finite"):
                compose(shift, shift)

    def test_last_row_check_decides_as_allclose(self):
        # from_matrix writes out np.allclose(m[3], (0, 0, 0, 1), atol=1e-12):
        # every value at both tolerance edges, their neighbours and the
        # non-finite and extreme values, in each position of the last row
        edges = [1e-12, 1.0 + (1e-12 + 1e-5), 1.0 - (1e-12 + 1e-5)]
        near = [np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf)]
        values = [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 1e300, -1e300]
        values += [s * v for v in edges + near for s in (1.0, -1.0)]
        for j in range(4):
            for v in values:
                m = np.eye(4)
                m[3, j] = v
                if np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
                    RigidTransform.from_matrix(m, source="a", dest="b")
                    continue
                with pytest.raises(ValueError) as e:
                    RigidTransform.from_matrix(m, source="a", dest="b")
                assert str(e.value) == f"last row must be (0, 0, 0, 1), got {m[3]}", (j, v)


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


# finite floats: moderate ones, where the order of the sums shows in the last
# bit, the whole range, and extra weight near 1e+-300, where products
# overflow or underflow
_FINITE = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e299, 1e301),
    st.floats(-1e301, -1e299),
    st.floats(1e-301, 1e-299),
    st.floats(-1e-299, -1e-301),
)
_VECTORS = st.lists(_FINITE, min_size=3, max_size=3).map(np.array)
_MATRICES = st.lists(_FINITE, min_size=9, max_size=9).map(lambda v: np.reshape(v, (3, 3)))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _overflows(f, *args):
    """Whether f raises FloatingPointError under np.errstate(over="raise")."""
    try:
        with np.errstate(over="raise"):
            f(*args)
    except FloatingPointError:
        return True
    return False


class TestVectorHelpers:
    """cross3 and norm are np.cross and np.linalg.norm bit for bit, and raise
    on overflow as they do (a pipeline stage turns that into exit 4)."""

    @settings(max_examples=300, deadline=None)
    @given(_VECTORS, _VECTORS)
    def test_cross3_is_np_cross(self, a, b):
        with np.errstate(all="ignore"):
            assert _bits(cross3(a, b)) == _bits(np.cross(a, b))
        assert _overflows(cross3, a, b) == _overflows(np.cross, a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_VECTORS, _MATRICES, _MATRICES.map(np.transpose)))
    def test_norm_is_np_linalg_norm(self, v):
        with np.errstate(all="ignore"):
            assert _bits(norm(v)) == _bits(np.linalg.norm(v))
        assert _overflows(norm, v) == _overflows(np.linalg.norm, v)

    def test_equal_on_moderate_values(self):
        # moderate values round differently under another summation order
        rng = np.random.default_rng(11)
        a, b = rng.uniform(-10.0, 10.0, size=(2, 2000, 3))
        m = rng.uniform(-1.0, 1.0, size=(2000, 3, 3))
        for x, y in zip(a, b):
            assert _bits(cross3(x, y)) == _bits(np.cross(x, y))
            assert _bits(norm(x)) == _bits(np.linalg.norm(x))
        for r in m:
            assert _bits(norm(r)) == _bits(np.linalg.norm(r))
            assert _bits(norm(r.T)) == _bits(np.linalg.norm(r.T))

    def test_overflow_raises_under_errstate(self):
        big = np.array([1e200, -1e200, 3e200])
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                cross3(big, big[::-1])
            with pytest.raises(FloatingPointError):
                norm(big)


def _fails(det):
    return abs(det - 1.0) > ROTATION_TOL


class TestDeterminant:
    """det3 is the closed form: it decides |det - 1| > ROTATION_TOL and gives
    the sign as np.linalg.det does, and a failed rotation check reports it."""

    def test_rotations_and_reflections(self):
        rng = np.random.default_rng(17)
        flip = np.diag([1.0, 1.0, -1.0])
        for _ in range(300):
            r = rotation_from_rotvec(rng.normal(size=3))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))  # det +1 or -1
            for m in (r, r @ flip, q, q.T):
                det, lapack = det3(m), np.linalg.det(m)
                assert type(det) is float
                assert _fails(det) == _fails(lapack)
                assert (det < 0.0) == (lapack < 0.0)
                assert abs(det - lapack) <= 4.0 * np.spacing(abs(lapack))
            m = r @ flip
            message = f"matrix not a proper rotation: det = {det3(m)!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                validate_rotation(m)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_scaled_rotations_straddling_the_bound(self, side):
        # s^3 det(R) steps across 1 +- ROTATION_TOL by a few ulp per step: the
        # closed form stays within a few ulp of LAPACK, and every such matrix
        # fails the orthonormality test first, so the det test never decides
        rng = np.random.default_rng(23)
        outcomes = set()
        for _ in range(20):
            r = rotation_from_rotvec(rng.normal(size=3))
            s = (1.0 + side * ROTATION_TOL) ** (1.0 / 3.0)
            for _ in range(8):
                s = np.nextafter(s, 0.0)
            for _ in range(17):
                m = r * s
                det, ref = det3(m), np.linalg.det(m)
                assert abs(det - ref) <= 4.0 * np.spacing(abs(ref))
                outcomes.add(_fails(ref))
                with pytest.raises(ValueError, match="not orthonormal"):
                    validate_rotation(m)
                s = np.nextafter(s, 2.0)
        assert outcomes == {True, False}

    def test_orthonormal_matrices_stay_inside_the_det_bound(self):
        # |M^T M - I|_F <= ROTATION_TOL and det M > 0 give |det M - 1| <=
        # (sqrt(3) / 2) ROTATION_TOL, reached by an isotropic scaling: over a
        # seeded sweep of matrices straddling the orthonormality bound (a
        # quarter of them isotropic), every one that passes that test has a
        # determinant within the bound or a negative one, so the det test
        # rejects exactly the reflections
        rng = np.random.default_rng(23)
        flip = np.diag([1.0, 1.0, -1.0])
        worst, passed, rejected = 0.0, 0, 0
        for k in range(2000):
            r = rotation_from_rotvec(rng.normal(size=3))
            a = rng.normal(size=(3, 3))
            s = np.eye(3) * rng.choice([-1.0, 1.0]) if k % 4 == 0 else a + a.T
            stretch = np.eye(3) + s * (rng.uniform(0.99, 1.01) * ROTATION_TOL / norm(2.0 * s))
            for m in (r @ stretch, r @ flip @ stretch):
                if norm(m.T @ m - np.eye(3)) > ROTATION_TOL:
                    with pytest.raises(ValueError, match="not orthonormal"):
                        validate_rotation(m)
                    rejected += 1
                    continue
                passed += 1
                det = det3(m)
                if det > 0.0:
                    assert abs(det - 1.0) < ROTATION_TOL
                    worst = max(worst, abs(det - 1.0))
                    validate_rotation(m)
                else:
                    with pytest.raises(ValueError, match="not a proper rotation"):
                        validate_rotation(m)
        assert passed > 1500 and rejected > 1500
        assert worst > 0.84 * ROTATION_TOL  # the sweep reaches the worst case
