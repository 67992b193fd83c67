import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_enclosing_circle,
    lcg_shuffled,
    reference_cluster_metrics,
    reference_enclosing_circle,
    scalar_run_experiment,
)
from floorref import experiment, frames, simulate
from floorref.camera import SceneFrame
from floorref.errors import (
    DegenerateViewingGeometry,
    EmptyCluster,
    EmptyInput,
    MarkNotVisible,
    OutOfBounds,
)
from floorref.experiment import (
    DIRECTION_YAW_DEG,
    DIRECTIONS,
    ExperimentPlan,
    MarkMeasurement,
    _record_fault,
    cluster_metrics,
    direction_for_yaw,
    enclosing_circle,
    fit_circle,
    measure_mark,
    min_enclosing_circle,
    run_experiment,
)
from floorref.geometry import RigidTransform, apply, compose
from floorref.pipeline import compute_rob_h_cam, reversal_average
from floorref.report import read_measurements_csv
from floorref.schemas import plan_from_dict, read_json
from floorref.simulate import (
    GLASS_NOISE,
    NO_NOISE,
    NoiseConfig,
    default_placements,
    inject_wooden_plate,
    random_world,
    simulate_referencing_session,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestDirections:
    def test_canonical_mapping(self):
        assert direction_for_yaw(0.0) == "up"
        assert direction_for_yaw(90.0) == "left"
        assert direction_for_yaw(-90.0) == "right"
        assert direction_for_yaw(180.0) == "down"
        assert direction_for_yaw(-180.0) == "down"
        assert direction_for_yaw(45.0) == "upleft"
        assert direction_for_yaw(-45.0) == "upright"
        assert direction_for_yaw(135.0) == "downleft"
        assert direction_for_yaw(-135.0) == "downright"

    def test_tolerance_band(self):
        assert direction_for_yaw(9.9) == "up"
        assert direction_for_yaw(179.5) == "down"
        assert direction_for_yaw(-174.0) == "down"
        with pytest.raises(ValueError):
            direction_for_yaw(22.5)

    def test_measurement_label_consistency(self):
        with pytest.raises(ValueError):
            MarkMeasurement("up", 30.0, np.zeros(3), 0)
        m = MarkMeasurement("down", -179.0, np.zeros(3), 0)  # wraps across +-180
        assert m.direction == "down"

    @pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
    def test_non_finite_yaw_rejected(self, yaw):
        with pytest.raises(ValueError, match=rf"^yaw {yaw} deg inconsistent with direction 'up'"):
            MarkMeasurement("up", yaw, np.zeros(3), 0)


class TestMeasureMark:
    def test_identity_robot_pose_returns_robot_frame_point(self, noiseless_result):
        ip = np.array([900.0, 1100.0])
        identity = RigidTransform(np.eye(3), np.zeros(3), source=frames.ROB, dest=frames.ABS)
        xy = noiseless_result.scene.map_image_points([ip])[0]
        expected = apply(noiseless_result.h_rob_scn, np.array([xy[0], xy[1], 0.0]))
        assert np.array_equal(measure_mark(noiseless_result, ip, identity), expected)

    def test_out_of_bounds(self, noiseless_result):
        identity = RigidTransform(np.eye(3), np.zeros(3), source=frames.ROB, dest=frames.ABS)
        with pytest.raises(OutOfBounds):
            measure_mark(noiseless_result, [-5.0, 100.0], identity)

    def test_corrupted_hand_eye_draws_circle(self, world, noiseless_result):
        # pure 1 mm translation along camera x: cluster means sit on a circle
        # of that radius around the true mark, advancing 45 deg per direction
        shift = RigidTransform(
            np.eye(3), np.array([1.0, 0.0, 0.0]), source=frames.CAM, dest=frames.CAM
        )
        corrupted = replace(noiseless_result, h_rob_cam=compose(noiseless_result.h_rob_cam, shift))
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=1, yaw_jitter_deg=0.0)
        ms = run_experiment(world, NO_NOISE, plan, corrupted)
        mark = np.array([1500.0, 700.0])
        radii = []
        angles = {}
        for m in ms:
            offset = m.position[:2] - mark
            radii.append(np.linalg.norm(offset))
            angles[m.direction] = math.degrees(math.atan2(offset[1], offset[0]))
        assert np.max(np.abs(np.array(radii) - 1.0)) < 0.01
        yaw_sorted = sorted(angles, key=lambda d: DIRECTION_YAW_DEG[d])
        steps = []
        for a, b in zip(yaw_sorted, yaw_sorted[1:]):
            steps.append((angles[b] - angles[a] + 180.0) % 360.0 - 180.0)
        assert np.max(np.abs(np.array(steps) - 45.0)) < 0.5


class TestRunExperiment:
    def test_counts_and_balance(self, world, noiseless_result):
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=5)
        ms = run_experiment(world, GLASS_NOISE, plan, noiseless_result)
        assert len(ms) == 40
        for d in DIRECTIONS:
            assert sum(1 for m in ms if m.direction == d) == 5

    def test_zero_noise_all_measurements_identical(self, world, noiseless_result):
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=5, yaw_jitter_deg=0.0)
        ms = run_experiment(world, NO_NOISE, plan, noiseless_result)
        mark = np.array([1500.0, 700.0, 0.0])
        spread = np.array([m.position for m in ms]) - mark
        assert np.max(np.abs(spread)) < 1e-6

    def test_deterministic_per_seed(self, world, noiseless_result):
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=2)
        a = run_experiment(world, GLASS_NOISE, plan, noiseless_result, seed=5)
        b = run_experiment(world, GLASS_NOISE, plan, noiseless_result, seed=5)
        assert all(np.array_equal(x.position, y.position) for x, y in zip(a, b))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(mark_xy_mm=(0.0, 0.0), repeats=0)
        with pytest.raises(ValueError):
            ExperimentPlan(mark_xy_mm=(0.0, 0.0), yaw_deg_list=())
        with pytest.raises(ValueError):
            ExperimentPlan(mark_xy_mm=(0.0, 0.0), yaw_deg_list=(22.5,))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"yaw_jitter_deg": math.nan}, "yaw_jitter_deg"),
            ({"max_offset_mm": math.nan}, "max_offset_mm"),
            ({"max_offset_mm": math.inf}, "max_offset_mm"),
            ({"max_offset_mm": -1.0}, "max_offset_mm"),
            ({"yaw_jitter_deg": -0.1}, "yaw_jitter_deg"),
            ({"mark_xy_mm": (math.nan, 0.0)}, "mark_xy_mm"),
            ({"mark_xy_mm": (0.0, math.inf)}, "mark_xy_mm"),
        ],
        ids=["nan-jitter", "nan-offset", "inf-offset", "negative-offset", "negative-jitter", "nan-mark", "inf-mark"],
    )
    def test_plan_refuses_non_finite_or_negative_values(self, kwargs, field):
        with pytest.raises(ValueError, match=rf"^{field} "):
            ExperimentPlan(**{"mark_xy_mm": (0.0, 0.0), **kwargs})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"repeats": 2.5}, "^repeats must be an integer, got 2.5$"),
            ({"repeats": True}, "^repeats must be an integer, got True$"),
            ({"mark_xy_mm": (1500.0,)}, "^mark_xy_mm must hold 2 numbers, got 1$"),
            ({"mark_xy_mm": (1500.0, 700.0, 0.0)}, "^mark_xy_mm must hold 2 numbers, got 3$"),
        ],
        ids=["fractional-repeats", "bool-repeats", "one-coordinate", "three-coordinates"],
    )
    def test_plan_refuses_what_run_experiment_cannot_use(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(**{"mark_xy_mm": (1500.0, 700.0), **kwargs})

    @pytest.mark.parametrize(
        "yaws, jitter, ok",
        [
            ((0.0, 180.0), 10.0 / 6.0, True),
            ((0.0, 180.0), 1.67, False),
            ((-175.0, 4.0), 5.0 / 6.0, True),  # -175 wraps to 5 deg from 'down'
            ((-175.0, 4.0), 0.84, False),
            ((-170.0,), 0.0, True),
        ],
    )
    def test_plan_jitter_must_stay_in_band(self, yaws, jitter, ok):
        # six standard deviations of jitter stay inside every yaw's +-10 deg band
        if ok:
            ExperimentPlan(mark_xy_mm=(0.0, 0.0), yaw_deg_list=yaws, yaw_jitter_deg=jitter)
        else:
            with pytest.raises(ValueError, match=r"^yaw_jitter_deg "):
                ExperimentPlan(mark_xy_mm=(0.0, 0.0), yaw_deg_list=yaws, yaw_jitter_deg=jitter)


class TestBatchedPass:
    """run_experiment against the one-measurement-at-a-time loop it replaced
    (tests/_oracles.py): same draws and labels, and positions within 1e-9 mm.
    The rectification's (n, 3) @ (3, 3) ray product and its all-points
    undistortion stop rule may round unlike the one-point form; on these
    worlds the largest difference measured is 0 mm."""

    @pytest.mark.parametrize("inclination_deg", [0.0, 0.8])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_scalar_loop(self, seed, inclination_deg):
        world = random_world(seed)
        p0, p1 = default_placements(world)
        result = compute_rob_h_cam(simulate_referencing_session(world, GLASS_NOISE, p0, p1))
        world = replace(
            world, floor_inclination_rad=math.radians(inclination_deg), floor_azimuth_rad=0.4
        )
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=5)
        for noise in (GLASS_NOISE, NO_NOISE):
            batched = run_experiment(world, noise, plan, result, seed=100 + seed)
            scalar = scalar_run_experiment(world, noise, plan, result, seed=100 + seed)
            assert [(m.direction, m.yaw_deg, m.trial) for m in batched] == [
                (m.direction, m.yaw_deg, m.trial) for m in scalar
            ]
            delta = np.array([m.position for m in batched]) - [m.position for m in scalar]
            assert np.max(np.abs(delta)) <= 1e-9

    def test_mark_pushed_out_of_view(self, world, noiseless_result):
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), max_offset_mm=300.0)
        with pytest.raises(MarkNotVisible):
            run_experiment(world, NO_NOISE, plan, noiseless_result)

    def test_rectification_failure_of_the_first_failing_row_is_raised(
        self, world, noiseless_result, monkeypatch
    ):
        # two rows fail to rectify, each with its own error: the batch fails,
        # and the error raised is the earlier row's, as a one-at-a-time loop
        rectify = SceneFrame.map_image_points
        batch = []

        def failing(scene, rowcol):
            if not batch:
                batch.append(np.array(rowcol))
            for k, error in ((5, OutOfBounds), (2, DegenerateViewingGeometry)):
                if any((row == batch[0][k]).all() for row in rowcol):
                    raise error(f"row {k}")
            return rectify(scene, rowcol)

        monkeypatch.setattr(SceneFrame, "map_image_points", failing)
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=1)
        with pytest.raises(DegenerateViewingGeometry, match="^row 2$"):
            run_experiment(world, NO_NOISE, plan, noiseless_result)
        assert len(batch[0]) == len(plan.yaw_deg_list)

    def test_first_failing_measurement_decides_the_error(self, world, noiseless_result):
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=1, max_offset_mm=60.0)
        off_sensor = NoiseConfig(tracker_sigma_mm=0.0, image_sigma_px=1e5)
        for run in (run_experiment, scalar_run_experiment):
            # a later placement of this plan does not see the mark ...
            with pytest.raises(MarkNotVisible):
                run(world, NO_NOISE, plan, noiseless_result, seed=1)
            # ... and with the same draws, image noise pushes an earlier
            # measurement off the sensor, which is reported first
            with pytest.raises(OutOfBounds):
                run(world, off_sensor, plan, noiseless_result, seed=1)


class TestRecordChecks:
    """run_experiment checks its records as arrays; the error it raises is the
    one the first failing MarkMeasurement would raise, after any visibility or
    off-sensor failure of the batch."""

    def _plan(self, **kwargs):
        # yaw jitter of 8 deg pushes some approach yaws past the 10 deg band;
        # a plan is built with it only past its constructor, which rejects it
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=2, **kwargs)
        object.__setattr__(plan, "yaw_jitter_deg", 8.0)
        return plan

    def test_yaw_past_tolerance_names_first_offending_measurement(self, world, noiseless_result):
        message = "yaw 103.00 deg inconsistent with direction 'left'"
        for run in (run_experiment, scalar_run_experiment):
            with pytest.raises(ValueError) as info:
                run(world, NO_NOISE, self._plan(), noiseless_result, seed=3)
            assert str(info.value) == message

    def test_visibility_and_off_sensor_failures_come_first(self, world, noiseless_result):
        # the one-at-a-time loop meets the bad yaw first; the batch reports
        # the failure of its geometry pass first
        off_sensor = NoiseConfig(tracker_sigma_mm=0.0, image_sigma_px=600.0)
        for plan, noise, error in (
            (self._plan(max_offset_mm=60.0), NO_NOISE, MarkNotVisible),
            (self._plan(), off_sensor, OutOfBounds),
        ):
            with pytest.raises(error):
                run_experiment(world, noise, plan, noiseless_result, seed=3)
            with pytest.raises(ValueError, match="inconsistent with direction"):
                scalar_run_experiment(world, noise, plan, noiseless_result, seed=3)

    def test_nan_yaw_rejected(self, world, noiseless_result, monkeypatch):
        # a NaN jitter (set past the plan's constructor, which rejects it)
        # makes every yaw NaN; the geometry pass runs on yaw 0 here (the
        # heading stack is built from it), so the record check decides
        real = experiment.rotations_about_z
        monkeypatch.setattr(experiment, "rotations_about_z", lambda yaw: real(np.nan_to_num(yaw)))
        plan = self._plan()
        object.__setattr__(plan, "yaw_jitter_deg", math.nan)
        with pytest.raises(ValueError, match="^yaw nan deg inconsistent with direction 'left'$"):
            run_experiment(world, NO_NOISE, plan, noiseless_result, seed=3)

    def test_non_finite_position_rejected(self, world, noiseless_result, monkeypatch):
        measure = experiment._measure_marks

        def corrupt(*args):
            positions = measure(*args)
            positions[3:, 1] = np.inf
            return positions

        monkeypatch.setattr(experiment, "_measure_marks", corrupt)
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=1)
        with pytest.raises(ValueError, match=r"point components must be finite, got \[.* inf"):
            run_experiment(world, NO_NOISE, plan, noiseless_result)

    def test_records_match_checked_constructor(self, world, noiseless_result):
        plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=2)
        for m in run_experiment(world, GLASS_NOISE, plan, noiseless_result, seed=4):
            checked = MarkMeasurement(m.direction, m.yaw_deg, m.position, m.trial)
            assert (m.direction, m.yaw_deg, m.trial) == (checked.direction, checked.yaw_deg, checked.trial)
            assert type(m.yaw_deg) is float and type(m.trial) is int
            assert m.position.shape == (3,) and m.position.dtype == np.float64
            assert not m.position.flags.writeable
            assert np.array_equal(m.position, checked.position)


# one record with one fault: (direction, yaw, position)
RECORD_FAULTS = {
    "unknown-direction": ("sideways", 0.0, [1.0, 2.0, 0.0]),
    "yaw-outside-band": ("up", 25.0, [1.0, 2.0, 0.0]),
    "nan-yaw": ("left", math.nan, [1.0, 2.0, 0.0]),
    "infinite-yaw": ("down", -math.inf, [1.0, 2.0, 0.0]),
    "non-finite-position": ("right", -90.0, [1.0, math.nan, 0.0]),
}


@pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
def test_constructor_and_array_check_agree(fault):
    direction, yaw, position = RECORD_FAULTS[fault]
    with pytest.raises(ValueError) as one:
        MarkMeasurement(direction, yaw, np.array(position), 0)
    assert _record_fault([direction], np.array([yaw]), np.array([position])) == (0, str(one.value))


def test_experiment_op_call_counts(world, noiseless_result, call_counts):
    counts = call_counts(
        (experiment, "enclosing_circle"),
        (experiment, "_record_fault"),
        (experiment, "rng_substream"),
        (simulate, "rng_substream"),
        (experiment, "rotations_about_z"),
        (simulate, "rotations_about_z"),
        (np.linalg, "solve"),
    )
    plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=5)
    measurements = run_experiment(world, GLASS_NOISE, plan, noiseless_result, seed=9)
    assert len(measurements) == 40
    assert counts["_record_fault"] == 1  # records are checked once per array
    assert counts["rng_substream"] == 5  # one substream per repeat
    assert counts["rotations_about_z"] == 1  # one heading stack, shared
    assert counts["solve"] == 0  # the floor poses take no plane fit
    cluster_metrics(measurements)
    # eight direction clusters and the overall one
    assert counts == {"enclosing_circle": 9, "_record_fault": 1, "rng_substream": 5, "rotations_about_z": 1}


class TestMinEnclosingCircle:
    def test_single_point(self):
        c = min_enclosing_circle([[3.0, 4.0]])
        assert c.radius_mm == 0.0
        assert np.allclose(c.center, [3.0, 4.0])

    def test_two_points(self):
        c = min_enclosing_circle([[0.0, 0.0], [2.0, 0.0]])
        assert abs(c.radius_mm - 1.0) < 1e-12
        assert np.allclose(c.center, [1.0, 0.0])

    def test_empty_input(self):
        for pts in (np.empty((0, 2)), []):
            with pytest.raises(EmptyInput):
                min_enclosing_circle(pts)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = rng.uniform(-10, 10, size=(int(rng.integers(1, 30)), 2))
            c = min_enclosing_circle(pts)
            _, r_bf = brute_force_enclosing_circle(pts)
            assert abs(c.radius_mm - r_bf) < 1e-9

    def test_cached_permutation_is_the_lcg_shuffle(self):
        for n in range(1, 65):
            assert experiment._permutation(n) == tuple(lcg_shuffled(np.arange(n)).tolist())

    def test_matches_reference_loop_exactly(self):
        rng = np.random.default_rng(12)
        for k in range(500):
            n = int(rng.integers(1, 60))
            if k % 5 == 4:  # spread near the containment tolerance
                pts = rng.normal(size=(n, 2)) * 1e-14 + float(rng.choice([0.0, 0.1]))
            elif k % 4 == 0:  # collinear
                t = rng.normal(size=n)
                pts = np.stack([t, 2.0 * t + 1.0], axis=1)
            elif k % 4 == 1:  # repeated points on a grid
                pts = np.round(rng.normal(size=(n, 2)), 1)
            elif k % 4 == 2:  # cocircular, far from the origin
                a = rng.uniform(0.0, 2.0 * math.pi, n)
                pts = 3.0 * np.stack([np.cos(a), np.sin(a)], axis=1) + 1e3
            else:
                pts = rng.normal(size=(n, 2)) * 10.0 ** float(rng.integers(-3, 4))
            assert enclosing_circle(pts) == reference_enclosing_circle(pts)
        for _ in range(300):
            # grid points whose cubes overflow: some triples have no circumcircle
            # (d == 0) and take the widest diameter circle; the reference has
            # no overflow rescue, so only its finite circles are compared
            n = int(rng.integers(3, 20))
            pts = np.round(rng.normal(size=(n, 2))) * 10.0 ** float(rng.integers(95, 165))
            expected = reference_enclosing_circle(pts)
            if math.isfinite(expected[2]):
                assert enclosing_circle(pts) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=20,
        )
    )
    def test_contains_all_and_supported(self, pts):
        pts = np.array(pts)
        c = min_enclosing_circle(pts)
        d = np.linalg.norm(pts - c.center, axis=1)
        assert np.all(d <= c.radius_mm + 1e-9)
        if len(np.unique(pts, axis=0)) >= 2:
            on_boundary = np.sum(d >= c.radius_mm - 1e-9 * (1.0 + c.radius_mm))
            assert on_boundary >= 2


class TestFitCircle:
    def test_recovers_exact_circle(self):
        rng = np.random.default_rng(8)
        center = np.array([4.0, -3.0])
        radius = 2.5
        ang = rng.uniform(0, 2 * math.pi, size=12)
        pts = center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        c = fit_circle(pts)
        assert np.max(np.abs(c.center - center)) < 1e-9
        assert abs(c.radius_mm - radius) < 1e-9

    def test_needs_three_points(self):
        with pytest.raises(EmptyInput):
            fit_circle([[0.0, 0.0], [1.0, 0.0]])


def _measurement(direction, yaw, x, y, trial=0):
    return MarkMeasurement(direction, yaw, np.array([x, y, 0.0]), trial)


class TestClusterMetrics:
    def test_identical_points_give_zero_metrics(self):
        ms = [_measurement("up", 0.0, 5.0, 6.0, t) for t in range(4)]
        report = cluster_metrics(ms)
        stats = report.directions[0]
        assert stats.max_from_mean_mm == 0.0
        assert stats.mean_from_mean_mm == 0.0
        assert stats.radius_mm == 0.0
        assert report.overall.radius_mm == 0.0

    def test_two_point_cluster_diameter(self):
        # cluster of two points 0.103 mm apart reports that as its diameter
        ms = [
            _measurement("down", 180.0, 0.0, 0.0),
            _measurement("down", 179.8, 0.103, 0.0),
        ]
        report = cluster_metrics(ms)
        assert abs(report.directions[0].diameter_mm - 0.103) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyCluster):
            cluster_metrics([])

    def test_three_cluster_intermean_hand_value(self):
        # cluster means at (0,0), (3,0), (0,4): pairwise distances 3, 4, 5
        ms = []
        for direction, yaw, mean in (("up", 0.0, (0.0, 0.0)), ("left", 90.0, (3.0, 0.0)), ("right", -90.0, (0.0, 4.0))):
            ms.append(_measurement(direction, yaw, mean[0] - 0.01, mean[1]))
            ms.append(_measurement(direction, yaw, mean[0] + 0.01, mean[1]))
        report = cluster_metrics(ms)
        assert abs(report.mean_intercluster_l2_mm - 4.0) < 1e-12

    def test_yaw_range_wraps_at_180(self):
        ms = [
            _measurement("down", 179.9, 0.0, 0.0),
            _measurement("down", -179.85, 0.1, 0.0),
        ]
        stats = cluster_metrics(ms).directions[0]
        assert stats.yaw_max_deg - stats.yaw_min_deg < 1.0

    def test_report_invariants_on_random_data(self):
        rng = np.random.default_rng(77)
        ms = []
        for t in range(6):
            for d in DIRECTIONS:
                yaw = DIRECTION_YAW_DEG[d] + rng.normal(0, 2.0)
                ms.append(
                    _measurement(d, yaw, rng.normal(0, 0.2), rng.normal(0, 0.2), t)
                )
        report = cluster_metrics(ms)
        for stats in report.directions + (report.overall,):
            assert stats.max_from_mean_mm >= stats.mean_from_mean_mm >= 0.0
            assert stats.radius_mm >= stats.max_from_mean_mm / 2.0 - 1e-12
            assert stats.radius_mm <= stats.max_from_mean_mm + 1e-12
        assert report.overall.count == len(ms)

    def test_far_beyond_the_square_root_of_the_float_range(self, tmp_path):
        # squared distances overflow from about 1.3e154; every figure of these
        # clusters is representable, so none comes out infinite
        path = tmp_path / "m.csv"
        path.write_text(
            "direction,yaw_deg,x_mm,y_mm,z_mm,trial\n"
            "up,0.0,1e200,900.0,0.0,0\nup,0.0,3e200,900.0,0.0,0\n"
            "down,180.0,-1e200,900.0,0.0,0\ndown,180.0,-3e200,900.0,0.0,0\n"
        )
        report = cluster_metrics(read_measurements_csv(path))
        up, down = report.directions
        for stats, x in ((up, 2e200), (down, -2e200), (report.overall, 0.0)):
            assert (stats.mean_x_mm, stats.mean_y_mm) == (x, 900.0)
        for stats in (up, down):
            assert stats.max_from_mean_mm == stats.mean_from_mean_mm == pytest.approx(1e200)
            assert stats.radius_mm == pytest.approx(1e200)
        assert report.overall.max_from_mean_mm == pytest.approx(3e200)
        assert report.overall.mean_from_mean_mm == pytest.approx(2e200)
        assert report.overall.radius_mm == pytest.approx(3e200)
        assert report.mean_intercluster_l2_mm == pytest.approx(4e200)
        # the same figures as the clusters scaled down, up to the exact scale
        ms = read_measurements_csv(path)
        small = cluster_metrics([replace(m, position=m.position * 2.0**-600) for m in ms])
        for a, b in zip(report.directions + (report.overall,), small.directions + (small.overall,)):
            assert a.max_from_mean_mm == b.max_from_mean_mm * 2.0**600
            assert a.mean_from_mean_mm == b.mean_from_mean_mm * 2.0**600
        assert report.mean_intercluster_l2_mm == small.mean_intercluster_l2_mm * 2.0**600

    def test_mean_near_the_float_range(self):
        # the sum of a cluster's coordinates overflows; the mean, the
        # distances and the radius are representable
        ms = [_measurement("up", 0.0, 1.7e308, 900.0), _measurement("up", 0.5, 1.6e308, 900.0)]
        report = cluster_metrics(ms)
        for stats in report.directions + (report.overall,):
            assert stats.mean_x_mm == pytest.approx(1.65e308)
            assert stats.mean_y_mm == 900.0
            assert stats.max_from_mean_mm == pytest.approx(5e306)
            assert stats.mean_from_mean_mm == pytest.approx(5e306)
            assert stats.radius_mm == pytest.approx(5e306)
        # the same figures as the cluster scaled down, up to the exact scale
        small = cluster_metrics([replace(m, position=m.position * 2.0**-600) for m in ms])
        assert report.overall.mean_x_mm == small.overall.mean_x_mm * 2.0**600
        assert report.overall.max_from_mean_mm == small.overall.max_from_mean_mm * 2.0**600

    def test_direction_order_matches_table_layout(self):
        ms = []
        for d in DIRECTIONS:
            ms.append(_measurement(d, DIRECTION_YAW_DEG[d], 0.0, 0.0))
        report = cluster_metrics(ms)
        assert tuple(s.direction for s in report.directions) == DIRECTIONS


class TestClusterMetricsReference:
    """The batched statistics equal the per-direction loop they replaced
    (tests/_oracles.py) exactly, on seeded experiments and on sub-lists that
    give clusters of several sizes."""

    @staticmethod
    def _sublists(ms):
        return [
            ms,
            ms[::-1],
            ms[:13],
            ms[::3],
            [m for m in ms if m.direction == "up"],
            [m for m in ms if m.direction in ("down", "left")],
            ms[:1],
        ]

    @pytest.mark.parametrize(
        "world_seed, seed, repeats",
        [*((None, seed, repeats) for repeats in (5, 12) for seed in (1, 2, 3)), (1, 1, None), (2, 2, None)],
        ids=[*(f"{repeats}-{seed}" for repeats in (5, 12) for seed in (1, 2, 3)), "bowed-1", "bowed-2"],
    )
    def test_seeded_experiments(self, world, noiseless_result, world_seed, seed, repeats):
        # the fixture world under a noiseless calibration, or the inputs the
        # experiment benchmark scores: a random world bowed by 0.25 mm,
        # calibrated by reversal under glass noise, with configs/plan.json
        if world_seed is None:
            plan = ExperimentPlan(mark_xy_mm=(1500.0, 700.0), repeats=repeats)
            result = noiseless_result
        else:
            world = inject_wooden_plate(random_world(world_seed), 0.25)
            runs = [
                compute_rob_h_cam(
                    simulate_referencing_session(
                        world, GLASS_NOISE, *default_placements(world, reverse=reverse), trial=trial
                    )
                )
                for trial, reverse in ((1, False), (2, True))
            ]
            result = reversal_average(*runs)
            plan = plan_from_dict(read_json(CONFIGS / "plan.json"))
        ms = run_experiment(world, GLASS_NOISE, plan, result, seed=seed)
        for sub in self._sublists(ms):
            assert cluster_metrics(sub) == reference_cluster_metrics(sub)

    def test_random_cluster_sizes(self):
        rng = np.random.default_rng(21)
        for k in range(60):
            n = int(rng.integers(1, 90))
            directions = rng.choice(DIRECTIONS, size=n)
            scale = 10.0 ** float(rng.integers(-4, 4))
            ms = [
                _measurement(
                    str(d),
                    DIRECTION_YAW_DEG[str(d)] + float(rng.uniform(-10.0, 10.0)),
                    *(rng.normal(size=2) * scale + 1000.0 * (k % 2)),
                    trial=t,
                )
                for t, d in enumerate(directions)
            ]
            assert cluster_metrics(ms) == reference_cluster_metrics(ms)
