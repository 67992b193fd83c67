import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from floorref import simulate
from floorref.errors import (
    DegenerateConfiguration,
    DegenerateMotion,
    MarkNotVisible,
    TargetNotVisible,
)
from floorref.experiment import measure_mark
from floorref.geometry import apply, compose, invert, rotation_distance, rotations_about_z
from floorref.pipeline import compute_rob_h_cam
from floorref.plate import ReferencingPlate
from floorref.schemas import session_from_dict, session_to_dict
from floorref.simulate import (
    GLASS_NOISE,
    NO_NOISE,
    NoiseConfig,
    RobotModel,
    RobotPlacement,
    default_placements,
    demo_world,
    experiment_placement,
    inject_wooden_plate,
    pose_on_surface,
    random_world,
    simulate_mark_observation,
    simulate_referencing_session,
    simulate_session_with_truth,
    support_poses,
)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("field", ["tracker_sigma_mm", "image_sigma_px", "nest_offset_error_mm"])
def test_noise_config_refuses_non_finite_fields_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        NoiseConfig(**{field: value})


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "minus-inf"])
def test_robot_model_refuses_a_non_finite_smr_height_by_name(value):
    contacts = demo_world().robot.wheel_contacts_xy_mm
    with pytest.raises(ValueError, match=f"^smr_height_mm must be finite, got {value}$"):
        RobotModel(smr_height_mm=value, wheel_contacts_xy_mm=contacts)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "minus-inf"])
def test_sim_world_refuses_a_non_finite_deformation_by_name(value):
    with pytest.raises(ValueError, match=f"^deformation_amplitude_mm must be finite, got {value}$"):
        inject_wooden_plate(demo_world(), value)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        world = demo_world(seed=123)
        p0, p1 = default_placements(world)
        a = simulate_referencing_session(world, GLASS_NOISE, p0, p1)
        b = simulate_referencing_session(world, GLASS_NOISE, p0, p1)
        assert session_to_dict(a) == session_to_dict(b)

    def test_trial_substreams_differ(self):
        world = demo_world(seed=123)
        p0, p1 = default_placements(world)
        a = simulate_referencing_session(world, GLASS_NOISE, p0, p1, trial=0)
        b = simulate_referencing_session(world, GLASS_NOISE, p0, p1, trial=1)
        assert session_to_dict(a) != session_to_dict(b)


def test_demo_rig_is_shared_and_immutable():
    a, b = random_world(1), random_world(2)
    assert a.camera is b.camera and a.plate is b.plate and a.robot is b.robot
    assert demo_world().plate is a.plate
    plate = a.plate
    with pytest.raises(TypeError):
        plate.mark_ids[0] = "m99"
    for p in (plate.mark_points, plate.nest_points):
        with pytest.raises(ValueError):
            p[0] = 0.0
    plate_fields = [(plate, f) for f in ("mark_ids", "mark_points", "nest_points", "delta_mm")]
    for part, field in ((a.camera, "focal_mm"), *plate_fields, (a.robot, "smr_height_mm")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, field, 1.0)


class TestSessionGeneration:
    def test_zero_noise_recovers_truth(self, world, noiseless_session):
        result = compute_rob_h_cam(noiseless_session)
        g = world.h_rob_cam_true
        assert rotation_distance(result.h_rob_cam.rotation, g.rotation) < 1e-8
        assert np.max(np.abs(result.h_rob_cam.translation - g.translation)) < 1e-6

    def test_target_not_visible_off_plate(self, world):
        p0 = RobotPlacement(5000.0, 5000.0, 0.0)
        p1 = RobotPlacement(5200.0, 5000.0, 0.0)
        with pytest.raises(TargetNotVisible, match="simulate_referencing_session"):
            simulate_referencing_session(world, NO_NOISE, p0, p1)

    def test_noisy_points_off_the_sensor_are_not_observed(self, world):
        p0, p1 = default_placements(world)
        session = simulate_referencing_session(world, NoiseConfig(image_sigma_px=500.0), p0, p1)
        assert 4 <= len(session.mark_ids) < len(world.plate.mark_ids)
        assert world.camera.contains_points(session.image_points).all()
        session_from_dict(session_to_dict(session))  # the decoder accepts the session

    def test_coincident_placements_rejected(self, world):
        p = RobotPlacement(100.0, 100.0, 0.0)
        with pytest.raises(DegenerateMotion, match="simulate_referencing_session"):
            simulate_referencing_session(world, NO_NOISE, p, p)

    def test_default_placements_need_plate_marks(self, world):
        plate = world.plate
        bare = ReferencingPlate(
            mark_ids=(),
            mark_points=np.empty((0, 3)),
            nest_points=plate.nest_points,
            delta_mm=plate.delta_mm,
            extent_mm=plate.extent_mm,
        )
        with pytest.raises(ValueError, match="^default_placements: the plate has no marks"):
            default_placements(replace(world, plate=bare))

    def test_robot_smr_equals_true_pose_translation(self, world, noiseless_session):
        p0, p1 = default_placements(world)
        for index, placement in ((0, p0), (1, p1)):
            truth = pose_on_surface(world, placement, "plate").translation
            assert np.array_equal(noiseless_session.robot_points[index], truth)

    def test_tracker_noise_empirical_sigma(self):
        world = demo_world(seed=9)
        p0, p1 = default_placements(world)
        sigma = 0.035
        noise = NoiseConfig(tracker_sigma_mm=sigma)
        base = simulate_referencing_session(world, NO_NOISE, p0, p1)
        truth = np.concatenate([base.nest_points, base.robot_points])
        samples = []
        n_sessions = 2000  # 5 points x 2000 sessions = 1e4 smr measurements
        for trial in range(n_sessions):
            s = simulate_referencing_session(world, noise, p0, p1, trial=trial)
            samples.append(np.concatenate([s.nest_points, s.robot_points]) - truth)
        devs = np.array(samples).ravel()
        assert abs(devs.std() - sigma) / sigma < 0.05


def _wheel_contacts_rob(robot):
    # the wheel contacts in the robot frame: the smr is the origin
    xy = np.array(robot.wheel_contacts_xy_mm)
    return np.column_stack([xy, np.full(3, -robot.smr_height_mm)])


class TestSupportPose:
    def test_flat_plate_pose_is_exact(self, world):
        h = pose_on_surface(world, RobotPlacement(210.0, -270.0, 0.3), "plate")
        assert np.allclose(h.rotation[:, 2], [0.0, 0.0, 1.0], atol=1e-15)
        assert h.translation[2] == world.robot.smr_height_mm

    @pytest.mark.parametrize("surface", ["plate", "floor"])
    def test_wheels_rest_on_surface(self, surface):
        world = demo_world(seed=3)
        world = inject_wooden_plate(world, 1.5)
        from dataclasses import replace

        world = replace(world, floor_inclination_rad=math.radians(1.0), floor_azimuth_rad=0.7)
        placement = RobotPlacement(250.0, -180.0, 0.8)
        h = pose_on_surface(world, placement, surface)
        surf = world.plate_surface_z if surface == "plate" else world.floor_surface_z
        contacts = apply(h, _wheel_contacts_rob(world.robot))
        gaps = np.abs(np.asarray(surf(contacts[:, 0], contacts[:, 1])) - contacts[:, 2])
        assert np.max(gaps) < 1e-9

    def test_smr_sits_above_support_plane(self):
        world = demo_world(seed=3)
        from dataclasses import replace

        world = replace(world, floor_inclination_rad=math.radians(2.0))
        h = pose_on_surface(world, RobotPlacement(500.0, 100.0, 0.2), "floor")
        contacts = apply(h, _wheel_contacts_rob(world.robot))
        n = np.cross(contacts[1] - contacts[0], contacts[2] - contacts[0])
        n = n / np.linalg.norm(n)
        if n[2] < 0:
            n = -n
        heights = (h.translation - contacts) @ n
        assert np.max(np.abs(heights - world.robot.smr_height_mm)) < 1e-9

    @pytest.mark.parametrize("surface", ["plate", "floor"])
    def test_rows_equal_one_row_calls(self, surface, monkeypatch):
        # bowed plate: rows on and off the plate settle after 1 to 3 iterations
        world = replace(
            inject_wooden_plate(demo_world(seed=3), 1.5),
            floor_inclination_rad=math.radians(1.0),
            floor_azimuth_rad=0.7,
        )
        rng = np.random.default_rng(0)
        xy = np.column_stack([rng.uniform(-100.0, 700.0, 24), rng.uniform(-500.0, 100.0, 24)])
        yaw = rng.uniform(-math.pi, math.pi, 24)
        poses = support_poses(world, xy, rotations_about_z(yaw), surface)
        assert not any(poses.error)
        for i in range(24):
            one = support_poses(world, xy[i : i + 1], rotations_about_z(yaw[i : i + 1]), surface)
            placement = RobotPlacement(float(xy[i, 0]), float(xy[i, 1]), float(yaw[i]))
            h = pose_on_surface(world, placement, surface)
            for r, t in ((one.rotation[0], one.translation[0]), (h.rotation, h.translation)):
                assert np.array_equal(r, poses.rotation[i])
                assert np.array_equal(t, poses.translation[i])
        if surface == "plate":
            # with one plane fit allowed, the rows that settle in one keep
            # their pose and the others fail: rows settle at different times
            monkeypatch.setattr(simulate, "_SUPPORT_MAX_ITER", 1)
            capped = support_poses(world, xy, rotations_about_z(yaw), surface)
            unsettled = [e is not None for e in capped.error]
            assert 0 < sum(unsettled) < 24
            for i in range(24):
                if not unsettled[i]:
                    assert np.array_equal(capped.rotation[i], poses.rotation[i])
                    assert np.array_equal(capped.translation[i], poses.translation[i])

    @pytest.mark.parametrize("amplitude_mm", [0.0, 1.5], ids=["flat", "bowed"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["ahead", "reversed"])
    def test_session_poses_equal_one_row_poses(self, amplitude_mm, reverse):
        world = inject_wooden_plate(random_world(11), amplitude_mm)
        p0, p1 = default_placements(world, reverse=reverse)
        session, truth = simulate_session_with_truth(world, NO_NOISE, p0, p1)
        assert set(truth) == {"rob_H_cam", "abs_H_ref", "abs_H_rob_0", "abs_H_rob_1"}
        for i, placement in enumerate((p0, p1)):
            one = pose_on_surface(world, placement, "plate")
            h = truth[f"abs_H_rob_{i}"]
            assert np.array_equal(h.rotation, one.rotation)
            assert np.array_equal(h.translation, one.translation)
            assert (h.source, h.dest) == ("rob", "abs")
            # no tracker noise: the session's robot smr is the pose translation
            assert np.array_equal(session.robot_points[i], one.translation)
        assert session_to_dict(session) == session_to_dict(
            simulate_referencing_session(world, NO_NOISE, p0, p1)
        )

    def test_session_raises_for_the_first_unsettled_placement(self, world, monkeypatch):
        p0, p1 = default_placements(world)
        bad = RobotPlacement(float("nan"), 0.0, 0.0)
        real = simulate.support_poses

        def tagged(*args, **kwargs):
            # label each row's error with its row, to tell which one is raised
            out = real(*args, **kwargs)
            labelled = tuple(
                None if e is None else DegenerateConfiguration(f"row {i}: {e}")
                for i, e in enumerate(out.error)
            )
            return out._replace(error=labelled)

        monkeypatch.setattr(simulate, "support_poses", tagged)
        for pair, row in (((bad, p1), 0), ((p0, bad), 1), ((bad, bad), 0)):
            with pytest.raises(DegenerateConfiguration, match=f"^row {row}: "):
                simulate_referencing_session(world, NO_NOISE, *pair)

    def test_failed_row_leaves_other_rows_alone(self, world):
        xy = np.array([[210.0, -270.0], [np.nan, 0.0], [400.0, -100.0]])
        yaw = np.array([0.3, 0.0, -1.2])
        poses = support_poses(world, xy, rotations_about_z(yaw), "plate")
        assert poses.error[0] is None and poses.error[2] is None
        assert isinstance(poses.error[1], DegenerateConfiguration)
        assert np.all(np.isnan(poses.rotation[1]))
        for i in (0, 2):
            h = pose_on_surface(world, RobotPlacement(xy[i, 0], xy[i, 1], yaw[i]), "plate")
            assert np.array_equal(h.rotation, poses.rotation[i])
            assert np.array_equal(h.translation, poses.translation[i])
        with pytest.raises(DegenerateConfiguration):
            pose_on_surface(world, RobotPlacement(float("nan"), 0.0, 0.0), "plate")

    def test_singular_contact_plane_fails_its_row_alone(self, world):
        # contacts at x = 1e20 mm make the (x, y, 1) plane system singular in
        # floating point (1e17 still settles); the other rows settle
        xy = np.array([[210.0, -270.0], [1e20, 0.0], [400.0, -100.0]])
        yaw = np.array([0.3, 0.0, -1.2])
        poses = support_poses(world, xy, rotations_about_z(yaw), "floor")
        assert poses.error[0] is None and poses.error[2] is None
        assert "contact plane singular" in str(poses.error[1])
        assert np.all(np.isnan(poses.rotation[1]))
        for i in (0, 2):
            h = pose_on_surface(world, RobotPlacement(xy[i, 0], xy[i, 1], yaw[i]), "floor")
            assert np.array_equal(h.rotation, poses.rotation[i])
            assert np.array_equal(h.translation, poses.translation[i])
        with pytest.raises(DegenerateConfiguration, match="contact plane singular"):
            pose_on_surface(world, RobotPlacement(1e20, 0.0, 0.0), "floor")


class TestMarkObservation:
    def test_mark_under_principal_ray_hits_principal_point(self, world):
        mark = np.array([1500.0, 700.0, 0.0])
        placement = experiment_placement(world, mark, 0.4, (0.0, 0.0))
        (row, col), _ = simulate_mark_observation(world, NO_NOISE, placement, mark)
        assert abs(row - world.camera.cy_px) < 1e-9
        assert abs(col - world.camera.cx_px) < 1e-9

    def test_round_trip_with_true_calibration(self, world, noiseless_result):
        mark = np.array([1500.0, 700.0, 0.0])
        for yaw in (0.0, 1.1, -2.0):
            placement = experiment_placement(world, mark, yaw, (4.0, -6.0))
            ip, smr = simulate_mark_observation(world, NO_NOISE, placement, mark)
            h_abs_rob = pose_on_surface(world, placement, "floor")
            recovered = measure_mark(noiseless_result, ip, h_abs_rob)
            assert np.max(np.abs(recovered - mark)) < 1e-6

    def test_mark_not_visible(self, world):
        mark = np.array([1500.0, 700.0, 0.0])
        placement = RobotPlacement(0.0, 0.0, 0.0)
        with pytest.raises(MarkNotVisible):
            simulate_mark_observation(world, NO_NOISE, placement, mark)


class TestWoodenPlateInjection:
    def test_zero_amplitude_is_identity(self, world):
        w = inject_wooden_plate(world, 0.0)
        p0, p1 = default_placements(world)
        a = simulate_referencing_session(world, NO_NOISE, p0, p1)
        b = simulate_referencing_session(w, NO_NOISE, p0, p1)
        assert session_to_dict(a) == session_to_dict(b)

    def test_truth_unchanged(self, world):
        w = inject_wooden_plate(world, 1.0)
        assert np.array_equal(w.h_rob_cam_true.matrix, world.h_rob_cam_true.matrix)

    def test_tiny_amplitude_continuity(self, world):
        p0, p1 = default_placements(world)
        flat = compute_rob_h_cam(simulate_referencing_session(world, NO_NOISE, p0, p1))
        bent = compute_rob_h_cam(
            simulate_referencing_session(inject_wooden_plate(world, 1e-6), NO_NOISE, p0, p1)
        )
        delta = np.linalg.norm(flat.h_rob_cam.translation - bent.h_rob_cam.translation)
        assert delta < 1e-4

    def test_peak_amplitude_matches_config(self):
        world = inject_wooden_plate(demo_world(seed=0), 1.0)
        ex, ey = world.plate.extent_mm
        grid_x = np.linspace(0.0, ex, 101)
        grid_y = np.linspace(0.0, ey, 101)
        xx, yy = np.meshgrid(grid_x, grid_y)
        rise = np.asarray(world.surface_rise_pcs(xx, yy))
        assert abs(np.max(np.abs(rise)) - 1.0) < 0.02

    def test_plate_surface_is_the_rise_on_the_plate_and_zero_off_it(self):
        world = inject_wooden_plate(demo_world(seed=0), 1.0)
        ex, ey = world.plate.extent_mm
        # plate points 1 mm inside each edge, then 1 mm beyond each edge
        px = np.array([1.0, ex - 1.0, ex / 2.0, ex / 2.0, -1.0, ex + 1.0, ex / 2.0, ex / 2.0])
        py = np.array([ey / 2.0, ey / 2.0, 1.0, ey - 1.0, ey / 2.0, ey / 2.0, -1.0, ey + 1.0])
        xy = apply(world.h_abs_ref, np.column_stack([px, py, np.zeros(8)]))[:, :2]
        z = np.asarray(world.plate_surface_z(xy[:, 0], xy[:, 1]))
        rise = np.asarray(world.surface_rise_pcs(px, py))
        assert np.abs(rise).min() > 0.1
        assert np.max(np.abs(z[:4] - rise[:4])) < 1e-9
        assert (z[4:] == 0.0).all()

    def test_negative_amplitude_rejected(self, world):
        with pytest.raises(ValueError):
            inject_wooden_plate(world, -0.1)


class TestFloorInclination:
    def test_mark_shift_grows_with_inclination(self, world, noiseless_result):
        from dataclasses import replace

        mark_xy = (1500.0, 700.0)
        shifts = []
        for incl_deg in (0.0, 0.2, 0.5, 1.0):
            w = replace(
                world,
                floor_inclination_rad=math.radians(incl_deg),
                floor_azimuth_rad=0.3,
            )
            mark = np.array(
                [mark_xy[0], mark_xy[1], float(np.asarray(w.floor_surface_z(*mark_xy)))]
            )
            placement = experiment_placement(w, mark, 0.9, (3.0, 2.0))
            ip, smr = simulate_mark_observation(w, NO_NOISE, placement, mark)
            # flat-floor attitude assumption: yaw-only rotation, measured smr
            from floorref import frames
            from floorref.geometry import RigidTransform, rotation_about_z

            h_assumed = RigidTransform(
                rotation_about_z(placement.yaw_rad),
                smr,
                source=frames.ROB,
                dest=frames.ABS,
            )
            recovered = measure_mark(noiseless_result, ip, h_assumed)
            shifts.append(float(np.linalg.norm(recovered - mark)))
        assert shifts[0] < 1e-6
        assert all(b > a for a, b in zip(shifts, shifts[1:]))


def test_camera_ground_offset_is_principal_ray_hit(world):
    g0 = world.camera_ground_offset
    t = world.h_rob_cam_true.translation
    axis = world.h_rob_cam_true.rotation @ np.array([0.0, 0.0, 1.0])
    s = (-world.robot.smr_height_mm - t[2]) / axis[2]
    assert np.allclose(g0, (t + s * axis)[:2])


def test_ground_truth_poses_consistency(world):
    p0, p1 = default_placements(world)
    truth = simulate_session_with_truth(world, NO_NOISE, p0, p1)[1]
    h_abs_cam = compose(truth["abs_H_rob_0"], truth["rob_H_cam"])
    assert h_abs_cam.dest == "abs"
    assert np.array_equal(
        truth["abs_H_rob_0"].translation, pose_on_surface(world, p0, "plate").translation
    )
    assert np.array_equal(invert(truth["abs_H_ref"]).matrix, invert(world.h_abs_ref).matrix)
