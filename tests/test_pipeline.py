import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from floorref import camera, frames, geometry, simulate
from floorref.schemas import result_from_dict, result_to_dict
from floorref.errors import DegenerateConfiguration, DegenerateMotion, InconsistentRuns
from floorref.geometry import (
    RigidTransform,
    apply,
    compose,
    invert,
    register_points,
    rotation_about_axis,
    rotation_about_z,
    rotation_distance,
)
from floorref.pipeline import (
    OffSensorPoint,
    ReferencingSession,
    compute_rob_h_cam,
    estimate_plate_pose,
    estimate_robot_pose,
    plate_normal,
    reversal_average,
)
from floorref.plate import ReferencingPlate
from floorref.simulate import (
    GLASS_NOISE,
    NO_NOISE,
    default_placements,
    demo_world,
    inject_wooden_plate,
    random_world,
    simulate_referencing_session,
)
from test_camera import _stress_view


DOWN = [0.0, 0.0, -1.0]


class TestPlateNormal:
    def test_hand_case_with_floor_rule(self):
        # raw cross product (P_b - P_r) x (P_g - P_r) = (0, 0, -1); a camera
        # looking down at the floor sees it flipped up
        n = plate_normal([0, 0, 0], [1, 0, 0], [0, 1, 0], DOWN)
        assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-15)

    def test_translation_invariance(self):
        p = [np.array([0.0, 0.0, 0.0]), np.array([30.0, 1.0, 0.5]), np.array([4.0, 25.0, -0.2])]
        base = plate_normal(*p, DOWN)
        shift = np.array([123.4, -56.7, 89.0])
        moved = plate_normal(*(q + shift for q in p), DOWN)
        assert np.max(np.abs(base - moved)) < 1e-12

    def test_unit_norm(self):
        n = plate_normal([0, 0, 0], [400, 3, 1], [7, 350, 2], DOWN)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            plate_normal([0, 0, 0], [10, 0, 0], [20, 0, 0], DOWN)

    def test_camera_axis_rule(self):
        # raw cross product (P_b - P_r) x (P_g - P_r) = (0, 0, -1): a camera
        # looking down (-z axis direction) sees it flipped to oppose its view
        n = plate_normal([0, 0, 0], [1, 0, 0], [0, 1, 0], camera_axis=DOWN)
        assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-15)
        n = plate_normal([0, 0, 0], [1, 0, 0], [0, 1, 0], camera_axis=[0.0, 0.0, 1.0])
        assert np.allclose(n, [0.0, 0.0, -1.0], atol=1e-15)


def session_with_robot_points(robot_points):
    world = demo_world(seed=1)
    base = simulate_referencing_session(world, NO_NOISE, *default_placements(world))
    return replace(base, robot_points=robot_points)


class TestRobotPose:
    def _session(self, p0, p1):
        return session_with_robot_points([p0, p1])

    def test_straight_move_gives_identity_rotation(self):
        s = self._session([0, 0, 0.5], [100, 0, 0.5])
        h = estimate_robot_pose(s, [0.0, 0.0, 1.0])
        assert np.allclose(h.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(h.translation, [0.0, 0.0, 0.5])

    def test_sideways_move_gives_quarter_turn(self):
        s = self._session([0, 0, 0.5], [0, 100, 0.5])
        h = estimate_robot_pose(s, [0.0, 0.0, 1.0])
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(h.rotation, expected, atol=1e-15)

    def test_normal_is_third_column_exactly(self):
        n = np.array([0.1, -0.2, 1.0])
        n = n / np.linalg.norm(n)
        s = self._session([10, 20, 30], [150, -40, 25])
        h = estimate_robot_pose(s, n)
        assert np.array_equal(h.rotation[:, 2], n)
        assert abs(float(h.rotation[:, 0] @ n)) < 1e-12
        assert abs(np.linalg.det(h.rotation) - 1.0) < 1e-12

    def test_short_move_rejected(self):
        s = self._session([0, 0, 0], [30, 0, 0])
        with pytest.raises(DegenerateMotion):
            estimate_robot_pose(s, [0.0, 0.0, 1.0])

    def test_move_along_normal_rejected(self):
        s = self._session([0, 0, 0], [0, 0, 100])
        with pytest.raises(DegenerateMotion):
            estimate_robot_pose(s, [0.0, 0.0, 1.0])

    def test_missing_position_one(self):
        # a session without position 1 is refused when it is built
        with pytest.raises(ValueError, match=r"robot_points must have shape \(2, 3\), got \(1, 3\)"):
            session_with_robot_points([np.zeros(3)])


class TestSessionType:
    def test_arrays_are_read_only_float_copies(self, noiseless_session):
        s = noiseless_session
        image = s.image_points.copy()
        built = ReferencingSession(
            s.camera, s.plate, list(s.mark_ids), image, s.nest_points.tolist(), s.robot_points
        )
        image[0, 0] += 1.0
        assert np.array_equal(built.image_points, s.image_points)
        assert built.mark_ids == s.mark_ids
        for name in ("image_points", "nest_points", "robot_points"):
            a = getattr(built, name)
            assert a.dtype == np.float64 and not a.flags.writeable
            assert np.array_equal(a, getattr(s, name))
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0

    @pytest.mark.parametrize(
        "field, edit, shape",
        [
            ("image_points", lambda a: a[:, :1], "(n, 2), got (n, 1)"),
            ("image_points", lambda a: a[1:], "(n, 2), got (n - 1, 2)"),
            ("nest_points", lambda a: a.ravel(), "(3, 3), got (9,)"),
            ("robot_points", lambda a: a[:, :2], "(2, 3), got (2, 2)"),
        ],
        ids=["image-column", "image-row-per-mark", "nest-flat", "robot-column"],
    )
    def test_wrong_shape_refused(self, noiseless_session, field, edit, shape):
        n = len(noiseless_session.mark_ids)
        shape = shape.replace("n - 1", str(n - 1)).replace("n", str(n))
        with pytest.raises(ValueError, match=f"^{field} must have shape {re.escape(shape)}$"):
            replace(noiseless_session, **{field: edit(getattr(noiseless_session, field))})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["image_points", "nest_points", "robot_points"])
    def test_non_finite_value_refused(self, noiseless_session, field, value):
        a = getattr(noiseless_session, field).copy()
        a[-1, 1] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            replace(noiseless_session, **{field: a})

    def test_repeated_mark_refused(self, noiseless_session):
        ids = noiseless_session.mark_ids
        with pytest.raises(ValueError, match="^mark ids must be listed once each$"):
            replace(noiseless_session, mark_ids=(ids[0], ids[0], *ids[2:]))

    @pytest.mark.parametrize("row", [20000.0, -3.0])
    def test_off_sensor_image_point_refused(self, noiseless_session, row):
        # at 20000 the image fit ended in NonConvergence, at -3 it calibrated
        # to a 70 px reprojection RMS
        camera = noiseless_session.camera
        a = noiseless_session.image_points.copy()
        a[4, 0] = row
        message = (
            f"image point 4 (row {row}, col {a[4, 1]}) is off the "
            f"{camera.rows}x{camera.cols} px sensor"
        )
        with pytest.raises(OffSensorPoint, match=f"^{re.escape(message)}$") as info:
            replace(noiseless_session, image_points=a)
        assert isinstance(info.value, ValueError)
        assert info.value.index == 4

    def test_point_on_the_last_row_accepted(self, noiseless_session):
        camera = noiseless_session.camera
        a = noiseless_session.image_points.copy()
        a[4] = (camera.rows - 1, camera.cols - 1)
        built = replace(noiseless_session, image_points=a)
        assert built.image_points[4].tolist() == [camera.rows - 1, camera.cols - 1]


class TestPlatePoseEstimate:
    def test_noiseless_matches_true_camera_pose(self, world, noiseless_session):
        est = estimate_plate_pose(noiseless_session)
        h_abs_cam = compose(est.h_abs_scn, est.scene.h_scn_cam)
        from floorref.simulate import pose_on_surface

        p0, _ = default_placements(world)
        truth = compose(pose_on_surface(world, p0, "plate"), world.h_rob_cam_true)
        assert rotation_distance(h_abs_cam.rotation, truth.rotation) < 1e-8
        assert np.max(np.abs(h_abs_cam.translation - truth.translation)) < 1e-6
        assert est.registration_rms_mm < 1e-9
        assert not est.suspect

    @pytest.mark.parametrize("noise", [NO_NOISE, GLASS_NOISE], ids=["noiseless", "glass"])
    def test_image_fit_logged_at_debug(self, world, noise, caplog):
        # FLOORREF_LOG=DEBUG explains each image fit: why it stopped, after
        # how many iterations, and its RMS
        session = simulate_referencing_session(world, noise, *default_placements(world))
        plate_points = session.plate.mark_points[session.plate.mark_rows(session.mark_ids)]
        fit = camera.estimate_plate_pose_from_image(session.camera, session.image_points, plate_points)
        with caplog.at_level(logging.DEBUG, logger="floorref.pipeline"):
            est = estimate_plate_pose(session)
        assert est.reprojection_rms_px == fit.rms_px
        assert caplog.messages == [
            f"estimate_plate_pose: image fit stopped by {fit.stop} after {fit.iterations} "
            f"iterations, RMS {fit.rms_px:.4f} px"
        ]
        assert fit.stop == ("step_tol" if noise is NO_NOISE else "sigma")

    def test_registration_rms_under_tracker_noise(self):
        # three seated-smr points with 35 um tracker noise on the targets
        rng = np.random.default_rng(21)
        src = np.array([[40.0, 40.0, -19.0], [560.0, 60.0, -19.0], [300.0, 360.0, -19.0]])
        worst = 0.0
        for _ in range(1000):
            rot = rotation_about_axis(rng.normal(size=3), rng.uniform(-math.pi, math.pi))
            t = rng.uniform(-500, 500, size=3)
            dst = src @ rot.T + t + rng.normal(0.0, 0.035, size=src.shape)
            worst = max(worst, register_points(src, dst, "a", "b").rms_mm)
        assert worst <= 0.15

    def test_unknown_observed_mark_rejected(self, noiseless_session):
        # a session observing a mark that is not on the plate is refused when it is built
        swapped = ("ghost", *noiseless_session.mark_ids[1:])
        with pytest.raises(ValueError, match="^mark 'ghost' is not on the plate$"):
            replace(noiseless_session, mark_ids=swapped)

    def test_coincident_nest_measurements_rejected(self, noiseless_session):
        r, _, b = noiseless_session.nest_points
        bad = replace(noiseless_session, nest_points=[r, r, b])
        with pytest.raises(DegenerateConfiguration):
            compute_rob_h_cam(bad)

    def test_small_nest_triangle_rejected(self, noiseless_session):
        # three nest readings 12 x 10 mm apart: registration accepts them,
        # the plate-normal stage refuses their 60 mm^2 triangle
        p = noiseless_session.nest_points[0]
        offsets = np.array([[0.0, 0.0, 0.0], [12.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        bad = replace(noiseless_session, nest_points=p + offsets)
        estimate_plate_pose(bad)
        with pytest.raises(
            DegenerateConfiguration,
            match=r"^plate_normal: nest triangle area 60\.00 mm\^2 at or below 100\.0 mm\^2$",
        ):
            compute_rob_h_cam(bad)

    def test_suspect_flag_on_inconsistent_plate(self, noiseless_session):
        # an in-plane shift of one nest distorts the measured triangle shape,
        # which rigid registration cannot absorb
        shift = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])  # nest b
        tampered = replace(noiseless_session, nest_points=noiseless_session.nest_points + shift)
        est = estimate_plate_pose(tampered)
        assert est.registration_rms_mm > 0.5
        assert est.suspect
        # the result of the chain carries the plate estimate's fields
        result = compute_rob_h_cam(tampered)
        assert result.suspect
        assert result.registration_rms_mm == est.registration_rms_mm
        assert result.reprojection_rms_px == est.reprojection_rms_px
        assert np.array_equal(result.h_abs_scn.matrix, est.h_abs_scn.matrix)
        assert np.array_equal(result.scene.h_scn_ref.matrix, est.scene.h_scn_ref.matrix)


class TestFullChain:
    def test_noiseless_round_trip(self):
        for seed in (1, 2, 3):
            world = random_world(seed)
            session = simulate_referencing_session(world, NO_NOISE, *default_placements(world))
            result = compute_rob_h_cam(session)
            g = world.h_rob_cam_true
            assert rotation_distance(result.h_rob_cam.rotation, g.rotation) < 1e-8
            assert np.max(np.abs(result.h_rob_cam.translation - g.translation)) < 1e-6

    def test_full_noise_monte_carlo_error(self):
        # tracker 35 um + image 0.05 px over 500 seeded trials of one rig
        world = random_world(1234)
        placements = default_placements(world)
        worst_t = worst_r = 0.0
        for trial in range(500):
            session = simulate_referencing_session(world, GLASS_NOISE, *placements, trial=trial)
            result = compute_rob_h_cam(session)
            g = world.h_rob_cam_true
            worst_t = max(worst_t, float(np.linalg.norm(result.h_rob_cam.translation - g.translation)))
            worst_r = max(worst_r, rotation_distance(result.h_rob_cam.rotation, g.rotation))
        assert worst_t < 0.3
        assert math.degrees(worst_r) < 0.05

    def test_composite_matches_factors_exactly(self, noiseless_result):
        r = noiseless_result
        rebuilt = compose(compose(invert(r.h_abs_rob), r.h_abs_scn), r.scene.h_scn_cam)
        assert np.array_equal(rebuilt.matrix, r.h_rob_cam.matrix)
        p = np.array([10.0, 20.0, 0.0])
        via_chain = apply(rebuilt, p)
        via_stored = apply(r.h_rob_cam, p)
        assert np.max(np.abs(via_chain - via_stored)) < 1e-12

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda s: {"nest_points": s.nest_points[[0, 2]]},
                r"^nest_points must have shape \(3, 3\), got \(2, 3\)$",
            ),
            (
                lambda s: {"nest_points": [*s.nest_points, s.nest_points[0] + 1.0]},
                r"^nest_points must have shape \(3, 3\), got \(4, 3\)$",
            ),
            (
                lambda s: {"robot_points": [*s.robot_points, s.robot_points[1] + 1.0]},
                r"^robot_points must have shape \(2, 3\), got \(3, 3\)$",
            ),
        ],
        ids=["missing-nest", "two-nest-readings", "two-robot-readings"],
    )
    def test_tracker_point_must_be_held_once(self, noiseless_session, edit, message):
        # a session holds one point per nest and per robot position: another
        # count is refused when the session is built
        with pytest.raises(ValueError, match=message):
            replace(noiseless_session, **edit(noiseless_session))

    def test_gauge_invariance(self, world):
        session = simulate_referencing_session(world, GLASS_NOISE, *default_placements(world))
        base = compute_rob_h_cam(session).h_rob_cam
        rng = np.random.default_rng(55)
        for _ in range(5):
            g = RigidTransform(
                rotation_about_axis(rng.normal(size=3), rng.uniform(-math.pi, math.pi)),
                rng.uniform(-2000, 2000, size=3),
                source=frames.ABS,
                dest=frames.ABS,
            )
            moved = replace(
                session,
                nest_points=apply(g, session.nest_points),
                robot_points=apply(g, session.robot_points),
            )
            out = compute_rob_h_cam(moved).h_rob_cam
            assert rotation_distance(out.rotation, base.rotation) < 1e-9
            assert np.max(np.abs(out.translation - base.translation)) < 1e-9

    def test_normal_opposes_camera_axis(self, noiseless_result):
        r = noiseless_result
        axis_abs = (
            r.h_abs_scn.rotation @ r.scene.h_scn_cam.rotation @ np.array([0.0, 0.0, 1.0])
        )
        n = r.h_abs_rob.rotation[:, 2]
        assert float(n @ axis_abs) < 0.0


class TestReversal:
    def test_average_of_identical_runs_is_identity_operation(self, noiseless_result):
        merged = reversal_average(noiseless_result, noiseless_result)
        assert np.allclose(merged.h_rob_cam.matrix, noiseless_result.h_rob_cam.matrix, atol=1e-12)
        assert merged.reversal_of is not None

    def test_translation_mean(self, noiseless_result):
        eps = np.array([0.4, -0.2, 0.1])
        shifted = replace(
            noiseless_result,
            h_rob_cam=RigidTransform(
                noiseless_result.h_rob_cam.rotation,
                noiseless_result.h_rob_cam.translation + eps,
                source=frames.CAM,
                dest=frames.ROB,
            ),
        )
        merged = reversal_average(noiseless_result, shifted)
        expected = noiseless_result.h_rob_cam.translation + eps / 2.0
        assert np.max(np.abs(merged.h_rob_cam.translation - expected)) < 1e-12

    def test_rotation_chordal_mean_of_symmetric_pair(self, noiseless_result):
        base = noiseless_result.h_rob_cam
        eps = math.radians(0.1)

        def spun(sign):
            return replace(
                noiseless_result,
                h_rob_cam=RigidTransform(
                    rotation_about_z(sign * eps) @ base.rotation,
                    base.translation,
                    source=frames.CAM,
                    dest=frames.ROB,
                ),
            )

        merged = reversal_average(spun(+1), spun(-1))
        assert np.linalg.norm(merged.h_rob_cam.rotation - base.rotation) < 1e-10

    def test_inconsistent_runs_rejected(self, noiseless_result):
        off = replace(
            noiseless_result,
            h_rob_cam=RigidTransform(
                noiseless_result.h_rob_cam.rotation,
                noiseless_result.h_rob_cam.translation + [3.0, 0.0, 0.0],
                source=frames.CAM,
                dest=frames.ROB,
            ),
        )
        with pytest.raises(InconsistentRuns):
            reversal_average(noiseless_result, off)

    def test_averaged_result_keeps_chain_consistent(self, noiseless_result):
        # one formula for h_rob_scn and one for h_scn_cam, whatever made the result
        eps = np.array([0.3, 0.3, -0.3])
        shifted = replace(
            noiseless_result,
            h_rob_cam=RigidTransform(
                noiseless_result.h_rob_cam.rotation,
                noiseless_result.h_rob_cam.translation + eps,
                source=frames.CAM,
                dest=frames.ROB,
            ),
        )
        merged = reversal_average(noiseless_result, shifted)
        loaded = result_from_dict(result_to_dict(noiseless_result), noiseless_result.scene.model)
        for result in (noiseless_result, merged, loaded):
            scene = result.scene
            rebuilt = compose(result.h_rob_cam, invert(scene.h_scn_cam))
            assert np.array_equal(rebuilt.matrix, result.h_rob_scn.matrix)
            h_scn_cam = compose(scene.h_scn_ref, invert(scene.h_cam_ref))
            assert np.array_equal(h_scn_cam.matrix, scene.h_scn_cam.matrix)


def _yaw_error_rad(h_rob_cam, truth):
    # yaw of the error transform est * true^-1, in the robot frame
    e = h_rob_cam.rotation @ truth.rotation.T
    return math.atan2(e[1, 0], e[0, 0])


def test_bow_yaw_bias_is_left_in_place_by_reversal():
    """A bowed plate rolls the robot between its two placements, so the
    reflector displacement leans off the heading. The yaw error this gives is
    linear in the bow (about -6.1 mrad per mm), negative on every world, and
    the same in each run as in their reversal average: reversal cancels the
    translation error, not this rotation."""
    bows_mm = (0.125, 0.25, 0.5)
    for seed in range(1000, 1040):
        world = random_world(seed)
        per_mm = []
        for bow in bows_mm:
            bowed = inject_wooden_plate(world, bow)
            runs = [
                compute_rob_h_cam(
                    simulate_referencing_session(
                        bowed, NO_NOISE, *default_placements(bowed, reverse=reverse)
                    )
                )
                for reverse in (False, True)
            ]
            truth = bowed.h_rob_cam_true
            yaw = _yaw_error_rad(reversal_average(*runs).h_rob_cam, truth)
            for run in runs:
                assert _yaw_error_rad(run.h_rob_cam, truth) == pytest.approx(yaw, rel=0.01)
            per_mm.append(1e3 * yaw / bow)
        assert max(per_mm) < 0.0
        assert per_mm == pytest.approx([per_mm[0]] * len(bows_mm), rel=0.01)
        assert per_mm[0] == pytest.approx(-6.1, abs=0.1)


def _drift(r):
    return float(np.linalg.norm(r.T @ r - np.eye(3)))


def test_unrenormalised_rotations_are_orthonormal_to_rounding():
    # The registration's Kabsch product, the rectification's scene basis and
    # the image fit's last rotation (below the 1e-12 drift of compose's rule)
    # are used without re-orthonormalising: on bowed worlds in both headings
    # and on the slow stress views of test_camera, each is within 1e-14 of
    # orthonormal (worst seen 3.4e-15, over 400 such worlds and the 905 usable
    # stress views).
    rotations = []
    for seed in range(1, 51):
        world = inject_wooden_plate(random_world(seed), 0.25)
        for trial in (1, 2):
            placements = default_placements(world, reverse=trial == 2)
            result = compute_rob_h_cam(
                simulate_referencing_session(world, GLASS_NOISE, *placements, trial=trial)
            )
            rotations += [result.h_abs_scn, result.scene.h_scn_ref, result.scene.h_cam_ref]
    for seed in (143, 468, 693, 804):
        m, obs = _stress_view(seed)
        fit = camera.estimate_plate_pose_from_image(m, *obs)
        scene = camera.build_rectification_map(m, fit.h_cam_ref)
        rotations += [fit.h_cam_ref, scene.h_scn_ref]
    assert max(_drift(h.rotation) for h in rotations) <= 1e-14


# image-fit iterations per calibrate op (two fits, each ended by the sigma
# stop), one Jacobian each
POSE_JACOBIANS = {1: 5, 2: 5, 3: 4, 4: 5, 5: 5}


@pytest.mark.parametrize("seed", range(1, 6))
def test_calibrate_op_call_counts(seed, call_counts):
    # One reversal calibration, as the benchmark's calibrate op: each session
    # solves its two robot poses in one support_poses call, each run undistorts
    # once (the image fit; the rectification probe rays come from the camera's
    # construction check), compose/invert do not re-validate rotations, and
    # every determinant is the closed form. The world is built first: its
    # camera is the shared demo camera, built once per process, so counting
    # its construction would depend on test order. The LAPACK calls are
    # counted too: 11 SVDs (2 homographies; 3 nearest rotations, the two
    # homography poses and the chordal mean; 4 rank checks, each image fit's
    # and each registration's one stacked check of both point sets; 2
    # registrations), one solve per LM trial plus one per LM iteration (its
    # Gauss-Newton decrement), and one batched solve per support-pose plane
    # fit, two per session. The registration, scene-basis and fit rotations
    # are not re-orthonormalised, and each session looks its marks up once.
    world = inject_wooden_plate(random_world(seed), 0.25)
    counts = call_counts(
        (simulate, "support_poses"),
        (camera, "undistort_radial"),
        (camera, "rotation_from_rotvec"),
        (camera, "_pose_jacobian"),
        (camera, "nearest_rotation"),
        (geometry, "nearest_rotation"),
        (geometry, "validate_rotation"),
        (ReferencingPlate, "mark_rows"),
        (np.linalg, "det"),
        (np.linalg, "svd"),
        (np.linalg, "solve"),
    )
    sessions = [
        simulate_referencing_session(
            world, GLASS_NOISE, *default_placements(world, reverse=trial == 2), trial=trial
        )
        for trial in (1, 2)
    ]
    plane_fits = counts["solve"]
    runs = [compute_rob_h_cam(session) for session in sessions]
    reversal_average(*runs)
    assert counts["support_poses"] == 2
    assert counts["undistort_radial"] == 2
    assert counts["validate_rotation"] <= 20
    assert counts["det"] == 0
    assert counts["svd"] == 11
    assert counts["nearest_rotation"] == 3
    assert counts["mark_rows"] == 2
    assert plane_fits <= 4
    assert counts["_pose_jacobian"] == POSE_JACOBIANS[seed]
    assert counts["solve"] - plane_fits == counts["rotation_from_rotvec"] + counts["_pose_jacobian"]
