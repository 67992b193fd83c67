import numpy as np
import pytest

from floorref import frames
from floorref.camera import CameraModel, ImagePoint, project_points
from floorref.errors import DegenerateConfiguration, ExcessiveGap, ParallelRays, UnknownNest
from floorref.geometry import RigidTransform, apply, invert, rotation_about_y
from floorref.plate import (
    ReferencingPlate,
    StereoObservation,
    measure_plate,
    nest_to_smr,
    smr_points,
    triangulate_nest,
)


def stereo_camera():
    return CameraModel(
        focal_mm=12.0,
        sx_mm=0.00345,
        sy_mm=0.00345,
        cx_px=1224.0,
        cy_px=1024.0,
        k=(-0.02, 0.0, 0.0),
        rows=2048,
        cols=2448,
    )


def make_plate(delta=19.05):
    marks = {f"m{i}": np.array([100.0 + 10.0 * i, 50.0, 0.0]) for i in range(5)}
    return ReferencingPlate(
        marks=marks,
        nests={
            "r": np.array([40.0, 40.0, 0.0]),
            "g": np.array([560.0, 60.0, 0.0]),
            "b": np.array([300.0, 360.0, 0.0]),
        },
        delta_mm=delta,
        extent_mm=(600.0, 400.0),
    )


def _observe(m, poses, nests, sigma_px=0.0, rng=None):
    images = {}
    for nest_id, p in nests.items():
        pair = []
        for h_ref_cam in poses:
            row, col = project_points(m, apply(invert(h_ref_cam), p))[0][0]
            if sigma_px > 0.0:
                row += sigma_px * rng.standard_normal()
                col += sigma_px * rng.standard_normal()
            pair.append(ImagePoint(row, col))
        images[nest_id] = tuple(pair)
    return StereoObservation(poses[0], poses[1], images)


def stereo_pair(nests, sigma_px=0.0, rng=None):
    """Plate-wide stereo rig: two slightly converging views from 900 mm."""
    m = stereo_camera()
    poses = (
        RigidTransform(
            rotation_about_y(0.15), np.array([150.0, 200.0, -900.0]), source=frames.CAM, dest=frames.REF
        ),
        RigidTransform(
            rotation_about_y(-0.15), np.array([430.0, 200.0, -900.0]), source=frames.CAM, dest=frames.REF
        ),
    )
    return m, _observe(m, poses, nests, sigma_px, rng)


def converged_pair(point, sigma_px=0.0, rng=None):
    """Close-range rig: 200 mm baseline, about 100 mm working depth, both
    cameras aimed at the given plate point."""
    m = stereo_camera()
    quarter = np.pi / 4.0
    poses = (
        RigidTransform(
            rotation_about_y(quarter),
            np.array([point[0] - 100.0, point[1], -100.0]),
            source=frames.CAM,
            dest=frames.REF,
        ),
        RigidTransform(
            rotation_about_y(-quarter),
            np.array([point[0] + 100.0, point[1], -100.0]),
            source=frames.CAM,
            dest=frames.REF,
        ),
    )
    return m, _observe(m, poses, {"b": point}, sigma_px, rng)


class TestPlateType:
    def test_marks_must_lie_on_surface(self):
        with pytest.raises(ValueError):
            ReferencingPlate(
                marks={"a": np.array([0.0, 0.0, 0.1])},
                nests=make_plate().nests,
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"b": [1.0, 2.0, 0.5], "c": [np.nan, 0.0, 0.0]}, "mark 'b' must lie on the plate surface"),
            ({"b": [np.inf, 0.0, 0.0], "c": [1.0, 2.0, 0.5]}, r"point components must be finite, got \[inf"),
            ({"b": [1.0, 2.0], "c": [1.0, 2.0, 0.5]}, r"expected a 3-vector, got shape \(2,\)"),
            ({"b": "xyz", "c": [1.0, 2.0, 0.5]}, "could not convert string to float"),
        ],
    )
    def test_first_bad_mark_names_the_error(self, bad, message):
        # the marks are checked as one array; the error is that of the first bad mark
        with pytest.raises(ValueError, match=message):
            ReferencingPlate(
                marks={"a": [0.0, 1.0, 0.0], **bad},
                nests=make_plate().nests,
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )

    def test_marks_are_read_only_float_vectors(self):
        plate = ReferencingPlate(
            marks={"a": [0, 1, 0], 7: np.array([2.5, -1.0, 0.0])},
            nests=make_plate().nests,
            delta_mm=1.0,
            extent_mm=(600.0, 400.0),
        )
        assert list(plate.marks) == ["a", "7"]
        for p in plate.marks.values():
            assert p.dtype == np.float64 and p.shape == (3,) and not p.flags.writeable
        assert np.array_equal(plate.mark_array()[1], [[0.0, 1.0, 0.0], [2.5, -1.0, 0.0]])

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            make_plate(delta=-0.5)

    def test_missing_nest_rejected(self):
        with pytest.raises(UnknownNest):
            ReferencingPlate(
                marks={},
                nests={"r": np.zeros(3), "g": np.array([500.0, 0.0, 0.0])},
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )

    def test_small_nest_triangle_rejected(self):
        with pytest.raises(ValueError):
            ReferencingPlate(
                marks={},
                nests={
                    "r": np.zeros(3),
                    "g": np.array([10.0, 0.0, 0.0]),
                    "b": np.array([0.0, 10.0, 0.0]),
                },
                delta_mm=1.0,
                extent_mm=(600.0, 400.0),
            )


class TestNestToSmr:
    def test_zero_delta_is_identity(self):
        plate = make_plate(delta=0.0)
        assert np.array_equal(nest_to_smr(plate, "r"), plate.nests["r"])

    def test_known_offset(self):
        plate = ReferencingPlate(
            marks={},
            nests={
                "r": np.array([100.0, 50.0, 0.0]),
                "g": np.array([560.0, 60.0, 0.0]),
                "b": np.array([300.0, 360.0, 0.0]),
            },
            delta_mm=11.3,
            extent_mm=(600.0, 400.0),
        )
        assert np.allclose(nest_to_smr(plate, "r"), [100.0, 50.0, -11.3], atol=0)

    def test_unknown_nest(self):
        with pytest.raises(UnknownNest):
            nest_to_smr(make_plate(), "x")

    def test_only_z_changes(self):
        plate = make_plate()
        for nid in ("r", "g", "b"):
            smr = nest_to_smr(plate, nid)
            assert smr[0] == plate.nests[nid][0]
            assert smr[1] == plate.nests[nid][1]
            assert smr[2] == plate.nests[nid][2] - plate.delta_mm

    def test_smr_plane_parallel_to_nest_plane(self):
        plate = make_plate()
        nests = np.array([plate.nests[n] for n in ("r", "g", "b")])
        smrs = smr_points(plate)
        n1 = np.cross(nests[1] - nests[0], nests[2] - nests[0])
        n2 = np.cross(smrs[1] - smrs[0], smrs[2] - smrs[0])
        cosang = (n1 @ n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
        assert abs(cosang - 1.0) < 1e-12


class TestTriangulation:
    def test_noiseless_recovery(self):
        plate = make_plate()
        m, obs = stereo_pair(plate.nests)
        for nid in ("r", "g", "b"):
            tri = triangulate_nest(m, obs, nid)
            assert np.max(np.abs(tri.point - plate.nests[nid])) < 1e-6
            assert tri.gap_mm < 1e-6

    def test_baseline_guard(self):
        plate = make_plate()
        m, obs = stereo_pair(plate.nests)
        with pytest.raises(ValueError):
            StereoObservation(obs.h_ref_cam0, obs.h_ref_cam0, obs.nest_images)

    def test_parallel_rays(self):
        m = stereo_camera()
        h0 = RigidTransform(np.eye(3), np.array([0.0, 0.0, -100.0]), source=frames.CAM, dest=frames.REF)
        h1 = RigidTransform(np.eye(3), np.array([200.0, 0.0, -100.0]), source=frames.CAM, dest=frames.REF)
        center = ImagePoint(m.cy_px, m.cx_px)
        obs = StereoObservation(h0, h1, {"r": (center, center)})
        with pytest.raises(ParallelRays):
            triangulate_nest(m, obs, "r")

    def test_excessive_gap_names_nest(self):
        plate = make_plate()
        m, obs = stereo_pair(plate.nests)
        ip0, ip1 = obs.nest_images["g"]
        skewed = dict(obs.nest_images)
        skewed["g"] = (ImagePoint(ip0.row + 60.0, ip0.col), ip1)
        obs_bad = StereoObservation(obs.h_ref_cam0, obs.h_ref_cam1, skewed)
        with pytest.raises(ExcessiveGap, match="'g'"):
            triangulate_nest(m, obs_bad, "g")

    def test_unobserved_nest(self):
        plate = make_plate()
        m, obs = stereo_pair({"r": plate.nests["r"]})
        with pytest.raises(UnknownNest):
            triangulate_nest(m, obs, "b")

    def test_view_order_symmetry(self):
        plate = make_plate()
        rng = np.random.default_rng(2)
        m, obs = stereo_pair(plate.nests, sigma_px=0.3, rng=rng)
        swapped = StereoObservation(
            obs.h_ref_cam1,
            obs.h_ref_cam0,
            {nid: (b, a) for nid, (a, b) in obs.nest_images.items()},
        )
        for nid in ("r", "g", "b"):
            p1 = triangulate_nest(m, obs, nid).point
            p2 = triangulate_nest(m, swapped, nid).point
            assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_noise_monte_carlo(self):
        # 0.1 px noise, 200 mm baseline, about 100 mm depth
        plate = make_plate()
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(500):
            m, obs = converged_pair(plate.nests["b"], sigma_px=0.1, rng=rng)
            tri = triangulate_nest(m, obs, "b")
            worst = max(worst, float(np.linalg.norm(tri.point - plate.nests["b"])))
        assert worst < 0.1


class TestMeasurePlate:
    def test_replaces_nominal_with_triangulated(self):
        template = make_plate()
        true_nests = {
            "r": template.nests["r"] + [0.4, -0.2, 0.1],
            "g": template.nests["g"] + [-0.3, 0.5, -0.2],
            "b": template.nests["b"] + [0.1, 0.2, 0.3],
        }
        m, obs = stereo_pair(true_nests)
        measured = measure_plate(m, obs, template)
        for nid in ("r", "g", "b"):
            assert np.max(np.abs(measured.nests[nid] - true_nests[nid])) < 1e-6
        assert measured.marks.keys() == template.marks.keys()
        assert measured.delta_mm == template.delta_mm

    def test_missing_nest_observation(self):
        template = make_plate()
        m, obs = stereo_pair({"r": template.nests["r"], "g": template.nests["g"]})
        with pytest.raises(UnknownNest):
            measure_plate(m, obs, template)

    def test_negative_depth_rejected(self):
        m = stereo_camera()
        h0 = RigidTransform(np.eye(3), np.array([0.0, 0.0, -100.0]), source=frames.CAM, dest=frames.REF)
        h1 = RigidTransform(np.eye(3), np.array([200.0, 0.0, -100.0]), source=frames.CAM, dest=frames.REF)
        # rays diverge forward, so their closest approach is behind the cameras
        left = ImagePoint(1024.0, m.cx_px - 0.4 * m.focal_mm / m.sx_mm)
        right = ImagePoint(1024.0, m.cx_px + 0.4 * m.focal_mm / m.sx_mm)
        obs = StereoObservation(h0, h1, {"r": (left, right)})
        with pytest.raises(DegenerateConfiguration):
            triangulate_nest(m, obs, "r")
