import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorref import camera, frames
from floorref.camera import (
    CameraModel,
    _pose_jacobian,
    _project_plate,
    build_rectification_map,
    distort_radial,
    estimate_plate_pose_from_image,
    project_points,
    undistort_radial,
)
from floorref.errors import DegenerateConfiguration, DegenerateViewingGeometry, NonConvergence
from floorref.geometry import (
    RigidTransform,
    apply,
    invert,
    rotation_about_axis,
    rotation_about_x,
    rotation_about_y,
    rotation_about_z,
    rotation_distance,
    rotation_from_rotvec,
)
from floorref.simulate import (
    GLASS_NOISE,
    default_placements,
    demo_camera,
    demo_world,
    inject_wooden_plate,
    random_world,
    simulate_referencing_session,
)


def model(k=(-0.03, 0.0005, 0.0)):
    return CameraModel(
        focal_mm=12.0,
        sx_mm=0.00345,
        sy_mm=0.00345,
        cx_px=1224.0,
        cy_px=1024.0,
        k=k,
        rows=2048,
        cols=2448,
    )


def nadir_pose(height_mm: float, x: float = 0.0, y: float = 0.0) -> RigidTransform:
    """cam -> ref pose: camera at (x, y, -height) with axes aligned to the
    plate frame, optical axis hitting the plane straight on."""
    h_ref_cam = RigidTransform(
        np.eye(3), np.array([x, y, -height_mm]), source=frames.CAM, dest=frames.REF
    )
    return invert(h_ref_cam)


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        m = model()
        rc, _ = project_points(m, [[0.0, 0.0, depth] for depth in (10.0, 150.0, 4000.0)])
        assert rc.tolist() == [[m.cy_px, m.cx_px]] * 3

    def test_pinhole_column_offset(self):
        m = model(k=(0.0, 0.0, 0.0))
        x_mm, depth = 10.0, 150.0
        row, col = project_points(m, [x_mm, 0.0, depth])[0][0]
        assert abs(col - (m.cx_px + m.focal_mm * x_mm / (depth * m.sx_mm))) < 1e-9
        assert abs(row - m.cy_px) < 1e-9

    def test_project_points_masks_behind(self):
        m = model()
        rc, ok = project_points(m, np.array([[0, 0, 100.0], [0, 0, -100.0]]))
        assert ok.tolist() == [True, False]
        assert np.all(np.isfinite(rc[0])) and np.all(np.isnan(rc[1]))

    def test_rows_in_front_project_as_alone_beside_rows_behind(self):
        # one projection of the whole stack: each row in front gets, bit for
        # bit, the pixels it gets alone; a row behind, in the camera plane,
        # below the minimum depth or NaN gets NaN and a False mask entry
        m = model()
        rng = np.random.default_rng(3)
        pts = rng.uniform([-30, -25, 80], [30, 25, 300], size=(12, 3))
        pts[[1, 4, 11], 2] *= -1.0
        pts[5, 2], pts[7, 2], pts[9, 2] = 0.0, 1e-9, np.nan
        behind = [1, 4, 5, 7, 9, 11]
        rc, in_front = project_points(m, pts)
        assert np.flatnonzero(~in_front).tolist() == behind
        assert np.isnan(rc[behind]).all()
        for i in np.flatnonzero(in_front):
            one, ok = project_points(m, pts[i])
            assert ok.tolist() == [True]
            assert np.array_equal(one[0], rc[i])
        front, ok = project_points(m, pts[in_front])
        assert ok.all() and np.array_equal(front, rc[in_front])

    def test_pixel_ray_round_trip_on_plane(self):
        m = model()
        rng = np.random.default_rng(5)
        pts = rng.uniform([-30, -25, 80], [30, 25, 300], size=(50, 3))
        rc, in_front = project_points(m, pts)
        assert in_front.all()
        xy = m.pixel_to_normalized_array(rc)
        # the pixel ray (x, y, 1) meets the point's own depth plane at z * (x, y, 1)
        hits = np.column_stack([xy, np.ones(len(xy))]) * pts[:, 2:]
        assert np.max(np.abs(hits - pts)) < 1e-6

    def test_distortion_round_trip_full_sensor(self):
        for k in ((-0.03, 0.0005, 0.0), (0.08, -0.002, 1e-4), (0.1, 0.0, 0.0)):
            m = model(k=k)
            rr = np.linspace(0.0, m.rows - 1.0, 40)
            cc = np.linspace(0.0, m.cols - 1.0, 40)
            grid = np.stack(np.meshgrid(rr, cc, indexing="ij"), axis=-1).reshape(-1, 2)
            xy = m.pixel_to_normalized_array(grid)
            back = m.normalized_to_pixel_array(xy)
            assert np.max(np.abs(back - grid)) < 1e-6

    def test_non_invertible_distortion_rejected(self):
        with pytest.raises(ValueError):
            model(k=(-0.9, 0.0, 0.0))

    def test_non_invertible_camera_raises_on_every_construction(self):
        for k in ((-0.9, 0.0, 0.0), (-0.9, 0.0, 0.0), (0.0, -5.0, 0.0), (-0.9, 0.0, 0.0)):
            with pytest.raises(ValueError, match="distortion not invertible"):
                model(k=k)

    @pytest.mark.parametrize("value", [math.nan, math.inf, None], ids=["nan", "inf", "extreme"])
    @pytest.mark.parametrize("param", ["focal_mm", "sx_mm", "sy_mm", "cx_px", "cy_px", "k1", "k2", "k3"])
    def test_non_finite_or_extreme_parameter_rejected(self, param, value):
        # NaN and inf are named; a finite extreme overflows in the grid check.
        # Either way a ValueError, with no numpy warning on the way.
        match = "must be finite" if value is not None else "distortion not invertible"
        if value is None:
            value = 1e-300 if param == "focal_mm" else 1e300
        args = dict(focal_mm=12.0, sx_mm=0.00345, sy_mm=0.00345, cx_px=1224.0, cy_px=1024.0)
        k = [-0.03, 0.0005, 0.0]
        if param in args:
            args[param] = value
        else:
            k[int(param[1]) - 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                CameraModel(**args, k=tuple(k), rows=2048, cols=2448)

    def test_invalid_intrinsics_rejected(self):
        with pytest.raises(ValueError):
            CameraModel(-1.0, 0.00345, 0.00345, 10, 10, (0, 0, 0), 100, 100)
        with pytest.raises(ValueError):
            CameraModel(12.0, 0.00345, 0.00345, 10, 10, (0, 0, 0), 1, 100)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_image_size_above_2_to_the_53_named(self, field):
        # up to 2**53 px every pixel coordinate is an exact float; a larger
        # size is refused by name before the distortion check spans it
        def build(size):
            sizes = {"rows": 2048, "cols": 2448, field: size}
            return CameraModel(12.0, 0.00345, 0.00345, 1224.0, 1024.0, (-0.03, 0.0005, 0.0), **sizes)

        for size in (2**53 + 1, 2**70, 10**400):
            with pytest.raises(ValueError, match=rf"^image size must be at most 2\*\*53 px: {field}$"):
                build(size)
        with pytest.raises(ValueError, match="^distortion not invertible"):
            build(2**53)


class TestRadialDistortion:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-0.1, 0.1),
        st.floats(-0.01, 0.01),
        st.floats(-0.001, 0.001),
    )
    def test_undistort_inverts_distort(self, k1, k2, k3):
        grid = np.linspace(-0.4, 0.4, 11)
        xy = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        d = distort_radial(xy, k1, k2, k3)
        u = undistort_radial(d, k1, k2, k3)
        assert np.max(np.abs(u - xy)) < 1e-10

    def test_undistort_handles_origin(self):
        xy = np.array([[0.0, 0.0]])
        assert np.array_equal(undistort_radial(xy, -0.05, 0.0, 0.0), xy)

    def test_undistort_non_contracting_raises(self):
        # r_u (1 - 0.9 r_u^2) peaks at about 0.406, so r_d = 0.5 has no inverse
        with pytest.raises(NonConvergence):
            undistort_radial(np.array([[0.3, 0.4]]), -0.9, 0.0, 0.0)


class TestRectification:
    def test_nadir_map_is_affine_scale(self):
        # similar triangles: a pixel step of one row moves the plane hit by
        # height * sy / f millimeters along the projected row direction
        m = model(k=(0.0, 0.0, 0.0))
        height = 150.0
        scene = build_rectification_map(m, nadir_pose(height, x=40.0, y=-10.0))
        scale_row = height * m.sy_mm / m.focal_mm
        scale_col = height * m.sx_mm / m.focal_mm

        origin = scene.map_image_points([[0.0, 0.0]])[0]
        assert np.max(np.abs(origin)) < 1e-9  # corner (0,0) lands on the scene origin
        for row, col in ((0.0, 100.0), (512.0, 0.0), (1000.5, 2000.25), (2047.0, 2447.0)):
            xy = scene.map_image_points([[row, col]])[0]
            assert abs(xy[0] - scale_row * row) < 1e-9
            assert abs(xy[1] - scale_col * col) < 1e-9

    def test_corners_in_positive_quadrant(self):
        m = model()
        rng = np.random.default_rng(11)
        for _ in range(20):
            tilt = rotation_about_axis(
                np.append(rng.normal(size=2), 0.0), rng.uniform(-0.2, 0.2)
            )
            h_ref_cam = RigidTransform(
                tilt, np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), -rng.uniform(100, 300)]),
                source=frames.CAM, dest=frames.REF,
            )
            scene = build_rectification_map(m, invert(h_ref_cam))
            corners = np.array(
                [[0.0, 0.0], [0.0, m.cols - 1.0], [m.rows - 1.0, 0.0], [m.rows - 1.0, m.cols - 1.0]]
            )
            assert np.min(scene.map_image_points(corners)) >= -1e-9

    def test_corner_check_agrees_with_map_image_points(self, monkeypatch):
        # build_rectification_map checks the corners on the plane hits of its
        # six probe rays (the last four are the corners) instead of mapping them anew
        hits = []
        ray_hits = camera._ray_hits

        def recorded(h, dirs):
            hits.append(ray_hits(h, dirs))
            return hits[-1]

        monkeypatch.setattr(camera, "_ray_hits", recorded)
        rng = np.random.default_rng(12)
        for k1 in (-0.08, -0.03, 0.0, 0.05):
            m = model(k=(k1, 0.0005, 0.0))
            corners = np.array(
                [[0.0, 0.0], [0.0, m.cols - 1.0], [m.rows - 1.0, 0.0], [m.rows - 1.0, m.cols - 1.0]]
            )
            for _ in range(10):
                tilt = rotation_about_axis(
                    np.append(rng.normal(size=2), 0.0), rng.uniform(-0.3, 0.3)
                )
                h_ref_cam = RigidTransform(
                    rotation_about_z(rng.uniform(-math.pi, math.pi)) @ tilt,
                    np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), -rng.uniform(100, 300)]),
                    source=frames.CAM, dest=frames.REF,
                )
                hits.clear()
                scene = build_rectification_map(m, invert(h_ref_cam))
                assert len(hits) == 1 and hits[0].shape == (6, 3)
                checked = apply(scene.h_scn_ref, hits[0][2:])[:, :2]
                assert np.max(np.abs(checked - scene.map_image_points(corners))) < 1e-9

    def test_rectification_map_undistorts_nothing(self, call_counts):
        # a camera undistorts its six probe pixels in its construction check:
        # a map, even for a newly built camera, undistorts nothing
        counts = call_counts((camera, "undistort_radial"))
        m = model(k=(-0.0304, 0.0005, 0.0))
        assert counts["undistort_radial"] == 1
        build_rectification_map(m, nadir_pose(150.0))
        assert counts["undistort_radial"] == 1
        rays = m._probe_rays
        assert not rays.flags.writeable
        with pytest.raises(ValueError):
            rays[0, 0] = 0.0
        center = np.array([(m.rows - 1) / 2.0, (m.cols - 1) / 2.0])
        probe = [center + [0.5, 0.0], center - [0.5, 0.0], [0.0, 0.0], [0.0, m.cols - 1.0],
                 [m.rows - 1.0, 0.0], [m.rows - 1.0, m.cols - 1.0]]
        assert np.array_equal(rays[:, 2], np.ones(6))
        assert np.max(np.abs(rays[:, :2] - m.pixel_to_normalized_array(probe))) < 1e-15

    def test_principal_point_maps_to_axis_plane_hit(self):
        m = model()
        h_ref_cam = RigidTransform(
            rotation_about_x(0.05) @ rotation_about_y(-0.03),
            np.array([20.0, -15.0, -180.0]),
            source=frames.CAM,
            dest=frames.REF,
        )
        scene = build_rectification_map(m, invert(h_ref_cam))
        # independent ray-plane intersection of the optical axis
        c = h_ref_cam.translation
        a = h_ref_cam.rotation @ np.array([0.0, 0.0, 1.0])
        hit_ref = c + (-c[2] / a[2]) * a
        expected = apply(scene.h_scn_ref, hit_ref)[:2]
        got = scene.map_image_points([[m.cy_px, m.cx_px]])[0]
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_scene_z_antiparallel_to_plate_z(self):
        m = model()
        scene = build_rectification_map(m, nadir_pose(150.0))
        scn_z_in_ref = invert(scene.h_scn_ref).rotation[:, 2]
        assert np.max(np.abs(scn_z_in_ref - [0.0, 0.0, -1.0])) < 1e-9

    def test_scene_x_follows_image_rows(self):
        m = model(k=(0.0, 0.0, 0.0))
        scene = build_rectification_map(m, nadir_pose(150.0))
        p0 = scene.map_image_points([[1000.0, 1224.0]])[0]
        p1 = scene.map_image_points([[1001.0, 1224.0]])[0]
        d = (p1 - p0) / np.linalg.norm(p1 - p0)
        assert abs(math.atan2(d[1], d[0])) < 1e-6  # row direction is scene +x

    def test_scene_y_follows_image_columns(self):
        m = model()
        # nadir exactly aligns the projected column direction with scene +y;
        # a mild tilt keeps it within the squint of the oblique projection
        for tilt, tol_rad in ((0.0, 1e-6), (0.1, 0.02)):
            h_ref_cam = RigidTransform(
                rotation_about_x(tilt) @ rotation_about_z(0.7),
                np.array([20.0, -10.0, -160.0]),
                source=frames.CAM,
                dest=frames.REF,
            )
            scene = build_rectification_map(m, invert(h_ref_cam))
            rc = np.array([(m.rows - 1) / 2.0, (m.cols - 1) / 2.0])
            p0 = scene.map_image_points(np.array([rc]))[0]
            p1 = scene.map_image_points(np.array([rc + [0.0, 1.0]]))[0]
            d = (p1 - p0) / np.linalg.norm(p1 - p0)
            assert abs(math.atan2(d[0], d[1])) < tol_rad  # column direction is scene +y

    def test_lift_back_consistency(self):
        m = model()
        h_cam_ref = invert(
            RigidTransform(
                rotation_about_x(0.04) @ rotation_about_z(0.3),
                np.array([10.0, 5.0, -160.0]),
                source=frames.CAM,
                dest=frames.REF,
            )
        )
        scene = build_rectification_map(m, h_cam_ref)
        h_cam_scn = invert(scene.h_scn_cam)
        rng = np.random.default_rng(3)
        q = rng.uniform(0, [m.rows - 1, m.cols - 1], size=(30, 2))
        p_scn = np.column_stack([scene.map_image_points(q), np.zeros(30)])
        back, in_front = project_points(m, apply(h_cam_scn, p_scn))
        assert in_front.all()
        assert np.max(np.abs(back - q)) < 1e-4

    def test_camera_in_plane_rejected(self):
        m = model()
        h_ref_cam = RigidTransform(
            rotation_about_y(math.pi / 2.0), np.zeros(3), source=frames.CAM, dest=frames.REF
        )
        with pytest.raises(DegenerateViewingGeometry):
            build_rectification_map(m, invert(h_ref_cam))

    def test_axis_pointing_away_rejected(self):
        m = model()
        h_ref_cam = RigidTransform(
            rotation_about_x(math.pi),  # looks to -z while sitting at -z
            np.array([0.0, 0.0, -100.0]),
            source=frames.CAM,
            dest=frames.REF,
        )
        with pytest.raises(DegenerateViewingGeometry):
            build_rectification_map(m, invert(h_ref_cam))

    def test_grazing_incidence_rejected(self):
        m = model()
        h_ref_cam = RigidTransform(
            rotation_about_x(math.radians(89.5)),
            np.array([0.0, 0.0, -100.0]),
            source=frames.CAM,
            dest=frames.REF,
        )
        with pytest.raises(DegenerateViewingGeometry):
            build_rectification_map(m, invert(h_ref_cam))


def _synthetic_observation(m, h_cam_ref, marks, sigma_px=0.0, rng=None):
    """(image points, plate points) of marks seen from a pose, the noise of
    each point drawn row first, then column."""
    marks = np.array(marks)
    rc, _ = project_points(m, apply(h_cam_ref, marks))
    if sigma_px > 0.0:
        for point in rc:
            point += [sigma_px * rng.standard_normal(), sigma_px * rng.standard_normal()]
    return rc, marks


def _grid_marks(n=5, pitch=12.0, cx=0.0, cy=0.0):
    out = []
    for i in range(n):
        for j in range(n):
            out.append(np.array([cx + pitch * (j - n // 2), cy + pitch * (i - n // 2), 0.0]))
    return out


def _stress_view(seed):
    """(camera, (image points, plate points)) of the 5 x 5 mark grid seen by
    the demo camera from 150 to 600 mm, tilted up to 0.4 rad, under up to 1 px
    of image noise; marks whose noisy point is off the sensor are dropped."""
    m = demo_camera()
    rng = np.random.default_rng(seed)
    height = rng.uniform(150.0, 600.0)
    tilt = rng.uniform(0.0, 0.4)
    axis = np.append(rng.normal(size=2), 0.0)
    r = rotation_about_z(rng.uniform(-math.pi, math.pi)) @ rotation_about_axis(axis, tilt)
    h_ref_cam = RigidTransform(r, np.array([*rng.uniform(-40.0, 40.0, 2), -height]), frames.CAM, frames.REF)
    sigma_px = rng.uniform(0.0, 1.0)
    marks = np.array(_grid_marks())
    rc, in_front = project_points(m, apply(invert(h_ref_cam), marks))
    noisy = rc + sigma_px * rng.standard_normal(rc.shape)
    keep = in_front & m.contains_points(noisy)
    return m, (noisy[keep], marks[keep])


def _observation(session):
    """(image points, plate points) of a session's observed marks."""
    marks = session.plate.mark_points[session.plate.mark_rows(session.mark_ids)]
    return session.image_points, marks


def _session_observations(world):
    """(camera, (image points, plate points)) of sessions A and B of a world
    under glass noise."""
    out = []
    for reverse, trial in ((False, 1), (True, 2)):
        placements = default_placements(world, reverse=reverse)
        session = simulate_referencing_session(world, GLASS_NOISE, *placements, trial=trial)
        out.append((session.camera, _observation(session)))
    return out


class TestPlatePoseFromImage:
    def test_noiseless_recovery(self):
        m = model()
        rng = np.random.default_rng(9)
        marks = _grid_marks()
        for _ in range(10):
            h_ref_cam = RigidTransform(
                rotation_about_z(rng.uniform(-math.pi, math.pi))
                @ rotation_about_axis(np.append(rng.normal(size=2), 0.0), rng.uniform(0, 0.04)),
                np.array([rng.uniform(-15, 15), rng.uniform(-15, 15), -rng.uniform(120, 200)]),
                source=frames.CAM,
                dest=frames.REF,
            )
            h_cam_ref = invert(h_ref_cam)
            fit = estimate_plate_pose_from_image(m, *_synthetic_observation(m, h_cam_ref, marks))
            assert rotation_distance(fit.h_cam_ref.rotation, h_cam_ref.rotation) < 1e-8
            assert np.max(np.abs(fit.h_cam_ref.translation - h_cam_ref.translation)) < 1e-6
            assert fit.rms_px < 1e-8
            assert fit.stop == "step_tol"

    def test_four_marks_suffice(self):
        # four marks give an 8 x 9 homography system: its null vector is the
        # ninth right singular vector, which only the full SVD returns
        m = model()
        marks = [_grid_marks()[i] for i in (0, 4, 20, 24)]
        h_ref_cam = RigidTransform(
            rotation_about_z(0.4) @ rotation_about_x(0.05), np.array([6.0, -4.0, -160.0]),
            source=frames.CAM, dest=frames.REF,
        )
        h_cam_ref = invert(h_ref_cam)
        fit = estimate_plate_pose_from_image(m, *_synthetic_observation(m, h_cam_ref, marks))
        assert rotation_distance(fit.h_cam_ref.rotation, h_cam_ref.rotation) < 1e-8
        assert np.max(np.abs(fit.h_cam_ref.translation - h_cam_ref.translation)) < 1e-6
        assert fit.iterations <= 10

    def test_noise_monte_carlo_translation_error(self):
        m = model()
        rng = np.random.default_rng(123)
        marks = _grid_marks()
        h_ref_cam = RigidTransform(
            rotation_about_y(0.01),
            np.array([3.0, -2.0, -150.0]),
            source=frames.CAM,
            dest=frames.REF,
        )
        h_cam_ref = invert(h_ref_cam)
        errs = []
        for _ in range(500):
            obs = _synthetic_observation(m, h_cam_ref, marks, sigma_px=0.05, rng=rng)
            fit = estimate_plate_pose_from_image(m, *obs)
            assert fit.stop == "sigma"
            errs.append(np.linalg.norm(fit.h_cam_ref.translation - h_cam_ref.translation))
        errs = np.array(errs)
        assert np.mean(errs) < 0.05
        assert np.percentile(errs, 95) < 0.05

    def test_iterations_not_above_finite_difference_fit(self):
        # LM iterations per session of random_world(1..10), sessions A and B,
        # as counted with the earlier finite-difference Jacobian. Single
        # sessions may take a step more or less; the total must not grow.
        finite_difference = [7, 9, 8, 6, 8, 6, 8, 7, 8, 8, 6, 7, 7, 6, 8, 8, 9, 9, 7, 8]
        iterations = []
        for seed in range(1, 11):
            world = random_world(seed)
            for reverse, trial in ((False, 1), (True, 2)):
                placements = default_placements(world, reverse=reverse)
                session = simulate_referencing_session(world, GLASS_NOISE, *placements, trial=trial)
                fit = estimate_plate_pose_from_image(session.camera, *_observation(session))
                assert fit.stop == "sigma"
                iterations.append(fit.iterations)
        assert sum(iterations) <= sum(finite_difference)

    def test_iterations_total_on_random_worlds(self):
        # random_world(1..10), sessions A and B: 20 fits in at most 46
        # iterations, each ended by the sigma stop.
        total = 0
        for seed in range(1, 11):
            for camera, obs in _session_observations(random_world(seed)):
                fit = estimate_plate_pose_from_image(camera, *obs)
                assert fit.stop == "sigma"
                total += fit.iterations
        assert total <= 46

    def test_lands_on_gauss_newton_reference(self):
        # Undamped Gauss-Newton from the fit's own result, run until its step
        # is below 1e-12 or for 500 steps, is the reference. On 0.25 mm bowed
        # worlds under glass noise and on four crawling stress views, the fit
        # ends by the sigma stop within 1e-2 sigma of the reference in every
        # pose component, sigma from the reference's J^T J and s^2 (worst
        # 2.1e-3 sigma, stress view 693): it does not stop short along the
        # near-degenerate tilt/shift direction of a top-down view.
        cases = [
            case
            for seed in range(1, 51)
            for case in _session_observations(inject_wooden_plate(random_world(seed), 0.25))
        ]
        cases += [_stress_view(seed) for seed in (143, 468, 693, 804)]
        worst = 0.0
        for m, (rc_obs, ref_pts) in cases:
            fit = estimate_plate_pose_from_image(m, rc_obs, ref_pts)
            assert fit.stop == "sigma"
            r, t = fit.h_cam_ref.rotation, fit.h_cam_ref.translation
            for _ in range(500):
                res = _pixel_residual(m, ref_pts, r, t) - rc_obs.ravel()
                jac = _pose_jacobian(m, _project_plate(m, ref_pts, r, t))
                step = np.linalg.lstsq(jac, -res, rcond=None)[0]
                r, t = rotation_from_rotvec(step[:3]) @ r, t + step[3:]
                if np.abs(step).max() < 1e-12:
                    break
            res = _pixel_residual(m, ref_pts, r, t) - rc_obs.ravel()
            jac = _pose_jacobian(m, _project_plate(m, ref_pts, r, t))
            s2 = res @ res / (res.size - 6)
            sigma = np.sqrt(s2 * np.linalg.inv(jac.T @ jac).diagonal())
            # the pose update (dw, dt) from the fit to the reference, dw from
            # the skew part of the small rotation between them
            d = r @ fit.h_cam_ref.rotation.T
            dw = 0.5 * np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]])
            gap = np.concatenate([dw, t - fit.h_cam_ref.translation])
            worst = max(worst, float((np.abs(gap) / sigma).max()))
        assert worst <= 1e-2

    @pytest.mark.parametrize("seed", [143, 468])
    def test_slow_stress_view_ends_below_the_cap(self, seed):
        # a poor homography start: a slow descent, then the pose is known to
        # 1e-3 of its sigma
        m, obs = _stress_view(seed)
        fit = estimate_plate_pose_from_image(m, *obs)
        assert fit.stop == "sigma"
        assert fit.iterations <= camera._POSE_MAX_ITER

    def test_non_convergence_raised_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(camera, "_POSE_MAX_ITER", 2)
        m, obs = _stress_view(143)
        with pytest.raises(NonConvergence, match="no convergence in 2 iterations"):
            estimate_plate_pose_from_image(m, *obs)

    def test_one_jacobian_per_iteration(self, call_counts):
        # each accepted projection feeds the next iteration's one Jacobian;
        # stress view 804 also rejects trials, which form none
        cases = [_stress_view(804), *_session_observations(random_world(3))]
        counts = call_counts((camera, "_pose_jacobian"))
        for m, obs in cases:
            before = counts["_pose_jacobian"]
            fit = estimate_plate_pose_from_image(m, *obs)
            assert counts["_pose_jacobian"] - before == fit.iterations

    def test_rejected_trial_raises_the_damping(self, monkeypatch):
        # on this stress view some trial steps raise the cost: each is
        # rejected, the damping grows tenfold, and the fit still ends by the
        # sigma stop; every iteration but the last ends at its first accepted
        # trial and the last tries none, so more trials than iterations means
        # rejections
        trials = []

        def counted(w):
            trials.append(w)
            return rotation_from_rotvec(w)

        monkeypatch.setattr(camera, "rotation_from_rotvec", counted)
        m, obs = _stress_view(804)
        fit = estimate_plate_pose_from_image(m, *obs)
        assert fit.stop == "sigma"
        assert len(trials) > fit.iterations

    def test_singular_normal_matrix_skips_the_sigma_stop(self, monkeypatch):
        # one mark moved to x = 0 on the plate drives the fit toward a camera
        # in the plate plane, where J^T J + 1e-12 I is singular to working
        # precision: the decrement solve fails, no sigma is known, and the
        # damped trials go on until the decrement is defined and small; the
        # scene check then refuses the pose
        singular = []
        solve = np.linalg.solve

        def counted(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", counted)
        world = demo_world(seed=7)
        session = simulate_referencing_session(world, GLASS_NOISE, *default_placements(world))
        rc_obs, ref_pts = _observation(session)
        ref_pts = ref_pts.copy()
        ref_pts[4, 0] = 0.0
        fit = estimate_plate_pose_from_image(session.camera, rc_obs, ref_pts)
        assert len(singular) == 4
        assert fit.stop == "sigma"
        with pytest.raises(DegenerateViewingGeometry, match="camera center lies in the plate plane"):
            build_rectification_map(session.camera, fit.h_cam_ref)

    def test_three_points_rejected(self):
        m = model()
        marks = _grid_marks()[:3]
        obs = _synthetic_observation(m, nadir_pose(150.0), marks)
        with pytest.raises(DegenerateConfiguration):
            estimate_plate_pose_from_image(m, *obs)

    def test_collinear_marks_rejected(self):
        m = model()
        marks = [np.array([10.0 * i, 0.0, 0.0]) for i in range(6)]
        obs = _synthetic_observation(m, nadir_pose(150.0), marks)
        with pytest.raises(DegenerateConfiguration):
            estimate_plate_pose_from_image(m, *obs)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rc, p: (rc[:, :1], p),
            lambda rc, p: (rc, p[:, :2]),
            lambda rc, p: (rc[1:], p),
            lambda rc, p: (np.where(np.arange(rc.size).reshape(rc.shape) == 3, np.nan, rc), p),
            lambda rc, p: (rc, np.where(np.arange(p.size).reshape(p.shape) == 4, np.inf, p)),
            lambda rc, p: (np.float64(3.0), p),
            lambda rc, p: (rc, np.float64(3.0)),
        ],
        ids=[
            "image-column",
            "plate-column",
            "one-image-point-fewer",
            "nan-image-point",
            "inf-plate-point",
            "0-d-image-points",
            "0-d-plate-points",
        ],
    )
    def test_array_shapes_and_finiteness_checked(self, edit):
        m = model()
        obs = _synthetic_observation(m, nadir_pose(150.0), _grid_marks())
        with pytest.raises(ValueError, match="^estimate_plate_pose_from_image: need finite"):
            estimate_plate_pose_from_image(m, *edit(*obs))

    def test_non_coplanar_marks_rejected(self):
        m = model()
        with pytest.raises(DegenerateConfiguration):
            estimate_plate_pose_from_image(
                m,
                np.array([[10.0, 10.0], [10.0, 20.0], [20.0, 10.0], [20.0, 20.0]]),
                np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
            )


def _pixel_residual(m, ref_pts, r, t):
    pc = ref_pts @ r.T + t
    return m.normalized_to_pixel_array(pc[:, :2] / pc[:, 2:]).ravel()


class TestPoseJacobian:
    @pytest.mark.parametrize(
        "m",
        [
            demo_camera(),
            model(k=(0.1, -0.01, 0.002)),
            CameraModel(
                focal_mm=12.0, sx_mm=0.002, sy_mm=0.005, cx_px=1000.0, cy_px=600.0,
                k=(-0.04, 0.001, 0.0), rows=1200, cols=2000,
            ),
        ],
        ids=["demo", "strong_distortion", "anisotropic"],
    )
    def test_matches_central_differences(self, m):
        rng = np.random.default_rng(17)
        marks = np.array(_grid_marks())
        h = np.array([1e-6, 1e-6, 1e-6, 1e-4, 1e-4, 1e-4])
        for _ in range(20):
            h_ref_cam = RigidTransform(
                rotation_about_z(rng.uniform(-math.pi, math.pi))
                @ rotation_about_axis(np.append(rng.normal(size=2), 0.0), rng.uniform(0, 0.3)),
                np.array([rng.uniform(-30, 30), rng.uniform(-30, 30), -rng.uniform(100, 250)]),
                source=frames.CAM,
                dest=frames.REF,
            )
            h_cam_ref = invert(h_ref_cam)
            r, t = h_cam_ref.rotation, h_cam_ref.translation
            projection = _project_plate(m, marks, r, t)
            assert np.array_equal(projection.rc.ravel(), _pixel_residual(m, marks, r, t))
            jac = _pose_jacobian(m, projection)
            assert jac.shape == (2 * len(marks), 6)
            for i in range(6):
                d = np.zeros(6)
                d[i] = h[i]
                plus = _pixel_residual(m, marks, rotation_from_rotvec(d[:3]) @ r, t + d[3:])
                minus = _pixel_residual(m, marks, rotation_from_rotvec(-d[:3]) @ r, t - d[3:])
                numeric = (plus - minus) / (2.0 * h[i])
                assert np.linalg.norm(jac[:, i] - numeric) <= 1e-6 * np.linalg.norm(numeric)


class TestAnisotropicPixels:
    """Non-square pixel pitch exposes any row/column mix-up."""

    def wide_model(self, k=(-0.04, 0.001, 0.0)):
        return CameraModel(
            focal_mm=12.0, sx_mm=0.002, sy_mm=0.005, cx_px=1000.0, cy_px=600.0,
            k=k, rows=1200, cols=2000,
        )

    def test_pinhole_axes(self):
        m = self.wide_model(k=(0.0, 0.0, 0.0))
        row, col = project_points(m, [3.0, 4.0, 150.0])[0][0]
        assert abs(col - (m.cx_px + m.focal_mm * 3.0 / (150.0 * m.sx_mm))) < 1e-9
        assert abs(row - (m.cy_px + m.focal_mm * 4.0 / (150.0 * m.sy_mm))) < 1e-9

    def test_rectification_and_pose_recovery(self):
        m = self.wide_model()
        h_ref_cam = RigidTransform(
            rotation_about_x(0.05) @ rotation_about_z(0.5),
            np.array([10.0, -5.0, -170.0]),
            source=frames.CAM,
            dest=frames.REF,
        )
        scene = build_rectification_map(m, invert(h_ref_cam))
        h_cam_scn = invert(scene.h_scn_cam)
        rng = np.random.default_rng(0)
        q = rng.uniform(0, [m.rows - 1, m.cols - 1], size=(20, 2))
        back, in_front = project_points(
            m, apply(h_cam_scn, np.column_stack([scene.map_image_points(q), np.zeros(20)]))
        )
        assert in_front.all()
        assert np.max(np.abs(back - q)) < 1e-4
        marks = [np.array([12.0 * (j - 2), 12.0 * (i - 2), 0.0]) for i in range(5) for j in range(5)]
        obs = _synthetic_observation(m, invert(h_ref_cam), marks)
        fit = estimate_plate_pose_from_image(m, *obs)
        truth = invert(h_ref_cam)
        assert rotation_distance(fit.h_cam_ref.rotation, truth.rotation) < 1e-8
        assert np.max(np.abs(fit.h_cam_ref.translation - truth.translation)) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.08, 0.08), st.floats(80.0, 400.0))
def test_rectification_consistency_property(k1, height):
    m = model(k=(k1, 0.0, 0.0))
    scene = build_rectification_map(m, nadir_pose(height))
    h_cam_scn = invert(scene.h_scn_cam)
    rc = np.array([(100.0, 200.0), (1024.0, 1224.0), (1900.0, 2300.0)])
    back, in_front = project_points(m, apply(h_cam_scn, np.column_stack([scene.map_image_points(rc), np.zeros(3)])))
    assert in_front.all()
    assert np.max(np.abs(back - rc)) < 1e-4
