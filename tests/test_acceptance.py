"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured figures (run with -s or -rA to see them on success).

Monte-Carlo criteria use fixed seeds, so every run is reproducible.
"""

import math
import time
from dataclasses import replace

import numpy as np

from _oracles import brute_force_enclosing_circle, planar_alignment_oracle
from floorref import frames
from floorref.experiment import (
    DIRECTION_YAW_DEG,
    ExperimentPlan,
    cluster_metrics,
    fit_circle,
    min_enclosing_circle,
    run_experiment,
    MarkMeasurement,
)
from floorref.geometry import (
    RigidTransform,
    apply,
    compose,
    register_points,
    rotation_about_axis,
    rotation_about_z,
    rotation_distance,
)
from floorref.pipeline import compute_rob_h_cam, reversal_average
from floorref.simulate import (
    GLASS_NOISE,
    NO_NOISE,
    NoiseConfig,
    default_placements,
    inject_wooden_plate,
    random_world,
    simulate_referencing_session,
)

PLAN = ExperimentPlan(mark_xy_mm=(1200.0, 900.0), repeats=5)


def _hand_eye_errors(result, world):
    g = world.h_rob_cam_true
    return (
        rotation_distance(result.h_rob_cam.rotation, g.rotation),
        float(np.linalg.norm(result.h_rob_cam.translation - g.translation)),
    )


def test_criterion_1_noiseless_round_trip():
    """simulate -> calibrate recovers the true hand-eye to 1e-8 rad / 1e-6 mm
    over 50 random worlds, in under 5 seconds."""
    t0 = time.perf_counter()
    worst_rot = worst_trans = 0.0
    for seed in range(50):
        world = random_world(seed)
        session = simulate_referencing_session(world, NO_NOISE, *default_placements(world))
        result = compute_rob_h_cam(session)
        rot_err, trans_err = _hand_eye_errors(result, world)
        worst_rot = max(worst_rot, rot_err)
        worst_trans = max(worst_trans, trans_err)
    elapsed = time.perf_counter() - t0
    assert worst_rot < 1e-8, f"worst rotation error {worst_rot:.3e} rad"
    assert worst_trans < 1e-6, f"worst translation error {worst_trans:.3e} mm"
    assert elapsed < 5.0, f"runtime {elapsed:.2f} s"
    print(
        f"PASS criterion 1: noiseless round trip, worst {worst_rot:.2e} rad / "
        f"{worst_trans:.2e} mm over 50 worlds in {elapsed:.2f} s"
    )


def test_criterion_2_gauge_invariance():
    """A rigid remap of all tracker inputs moves the calibrated hand-eye by
    less than 1e-9 (rad, mm), 100 trials."""
    world = random_world(424242)
    session = simulate_referencing_session(world, GLASS_NOISE, *default_placements(world))
    base = compute_rob_h_cam(session).h_rob_cam
    rng = np.random.default_rng(99)
    worst_rot = worst_trans = 0.0
    for _ in range(100):
        g = RigidTransform(
            rotation_about_axis(rng.normal(size=3), rng.uniform(-math.pi, math.pi)),
            rng.uniform(-3000.0, 3000.0, size=3),
            source=frames.ABS,
            dest=frames.ABS,
        )
        moved = replace(
            session,
            nest_points=apply(g, session.nest_points),
            robot_points=apply(g, session.robot_points),
        )
        out = compute_rob_h_cam(moved).h_rob_cam
        worst_rot = max(worst_rot, rotation_distance(out.rotation, base.rotation))
        worst_trans = max(worst_trans, float(np.max(np.abs(out.translation - base.translation))))
    assert worst_rot < 1e-9, f"worst rotation change {worst_rot:.3e} rad"
    assert worst_trans < 1e-9, f"worst translation change {worst_trans:.3e} mm"
    print(
        f"PASS criterion 2: gauge invariance, worst {worst_rot:.2e} rad / "
        f"{worst_trans:.2e} mm over 100 trials"
    )


def test_criterion_3_repeatability_band():
    """Glass noise profile (tracker 0.035 mm, image 0.05 px, no planarity
    fault): the eight-direction experiment stays below 1.0 mm overall
    enclosing diameter in at least 95 of 100 seeded runs, with the median
    diameter inside [0.1, 0.8] mm."""
    diameters = []
    for seed in range(100):
        world = random_world(3000 + seed)
        session = simulate_referencing_session(world, GLASS_NOISE, *default_placements(world))
        result = compute_rob_h_cam(session)
        measurements = run_experiment(world, GLASS_NOISE, PLAN, result)
        diameters.append(cluster_metrics(measurements).overall.diameter_mm)
    diameters = np.array(diameters)
    frac_below = float(np.mean(diameters < 1.0))
    median = float(np.median(diameters))
    assert frac_below >= 0.95, f"only {frac_below:.0%} of runs below 1.0 mm"
    assert 0.1 <= median <= 0.8, f"median diameter {median:.3f} mm outside [0.1, 0.8]"
    print(
        f"PASS criterion 3: repeatability, {frac_below:.0%} of 100 runs < 1.0 mm, "
        f"median enclosing diameter {median:.3f} mm"
    )


def _circular_signature(world, result, plan):
    measurements = run_experiment(world, GLASS_NOISE, plan, result)
    report = cluster_metrics(measurements)
    means = np.array([[d.mean_x_mm, d.mean_y_mm] for d in report.directions])
    circle = fit_circle(means)
    angles = np.degrees(
        np.arctan2(means[:, 1] - circle.center[1], means[:, 0] - circle.center[0])
    )
    yaws = np.array([DIRECTION_YAW_DEG[d.direction] for d in report.directions])
    order = np.argsort(yaws)
    steps = np.diff(angles[order])
    steps = (steps + 180.0) % 360.0 - 180.0
    unwrapped = np.concatenate([[0.0], np.cumsum(steps)])
    spearman = float(np.corrcoef(np.argsort(np.argsort(unwrapped)), np.arange(8))[0, 1])
    return circle.radius_mm, spearman


def test_criterion_4_failure_signature():
    """A 1 mm plate non-planarity, or separately a 1 mm hand-eye translation
    corruption, arranges the eight cluster means on a circle: fitted radius
    above 3x the flat-plate overall mean-from-mean and angular order matching
    yaw order (Spearman 1), in at least 90% of 20 seeded runs per fault."""
    results = {"non_planarity": 0, "corruption": 0}
    n_runs = 20
    for i in range(n_runs):
        world = random_world(7000 + i)
        placements = default_placements(world)
        flat_session = simulate_referencing_session(world, GLASS_NOISE, *placements)
        flat_result = compute_rob_h_cam(flat_session)
        flat_report = cluster_metrics(run_experiment(world, GLASS_NOISE, PLAN, flat_result))
        baseline = flat_report.overall.mean_from_mean_mm

        wooden_world = inject_wooden_plate(world, 1.0)
        wooden_session = simulate_referencing_session(wooden_world, GLASS_NOISE, *placements)
        wooden_result = compute_rob_h_cam(wooden_session)
        radius, spearman = _circular_signature(world, wooden_result, PLAN)
        if radius > 3.0 * baseline and spearman == 1.0:
            results["non_planarity"] += 1

        shift = RigidTransform(
            np.eye(3), np.array([1.0, 0.0, 0.0]), source=frames.CAM, dest=frames.CAM
        )
        corrupted = replace(flat_result, h_rob_cam=compose(flat_result.h_rob_cam, shift))
        radius, spearman = _circular_signature(world, corrupted, PLAN)
        if radius > 3.0 * baseline and spearman == 1.0:
            results["corruption"] += 1

    assert results["non_planarity"] >= 18, f"non-planarity: {results['non_planarity']}/{n_runs}"
    assert results["corruption"] >= 18, f"corruption: {results['corruption']}/{n_runs}"
    print(
        f"PASS criterion 4: failure signature, non-planarity {results['non_planarity']}/{n_runs}, "
        f"hand-eye corruption {results['corruption']}/{n_runs}"
    )


def test_criterion_5_registration_oracle():
    """register_points agrees with an independent grid-plus-bisection planar
    alignment within 1e-6 on 50 random planar instances."""
    rng = np.random.default_rng(505)
    worst_angle = worst_trans = 0.0
    for i in range(50):
        n = int(rng.integers(3, 8))
        src = np.zeros((n, 3))
        src[:, :2] = rng.uniform(-300.0, 300.0, size=(n, 2))
        if np.linalg.svd(src[:, :2] - src[:, :2].mean(axis=0), compute_uv=False)[1] < 1.0:
            continue
        theta_true = rng.uniform(-math.pi, math.pi)
        t_true = np.append(rng.uniform(-100.0, 100.0, size=2), 0.0)
        dst = src @ rotation_about_z(theta_true).T + t_true
        if i % 2:
            dst[:, :2] += rng.normal(0.0, 0.01, size=(n, 2))
        reg = register_points(src, dst, "a", "b")
        theta_est = math.atan2(reg.transform.rotation[1, 0], reg.transform.rotation[0, 0])
        theta_oracle, t_oracle = planar_alignment_oracle(src, dst)
        d_angle = abs((theta_est - theta_oracle + math.pi) % (2.0 * math.pi) - math.pi)
        d_trans = float(np.max(np.abs(reg.transform.translation[:2] - t_oracle)))
        worst_angle = max(worst_angle, d_angle)
        worst_trans = max(worst_trans, d_trans)
    assert worst_angle < 1e-6, f"worst angle disagreement {worst_angle:.3e} rad"
    assert worst_trans < 1e-6, f"worst translation disagreement {worst_trans:.3e} mm"
    print(
        f"PASS criterion 5: registration oracle, worst disagreement "
        f"{worst_angle:.2e} rad / {worst_trans:.2e} mm over 50 instances"
    )


def test_criterion_6_enclosing_circle_oracle():
    """Welzl-style enclosing circle matches the O(n^4) pair/triple brute force
    within 1e-9 mm on 200 random sets of up to 30 points."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        scale = float(rng.uniform(0.1, 100.0))
        pts = rng.normal(0.0, scale, size=(n, 2)) + rng.uniform(-1000.0, 1000.0, size=2)
        circle = min_enclosing_circle(pts)
        _, r_bf = brute_force_enclosing_circle(pts)
        worst = max(worst, abs(circle.radius_mm - r_bf))
        dists = np.linalg.norm(pts - circle.center, axis=1)
        assert np.all(dists <= circle.radius_mm + 1e-9)
    assert worst < 1e-9, f"worst radius disagreement {worst:.3e} mm"
    print(f"PASS criterion 6: enclosing-circle oracle, worst disagreement {worst:.2e} mm")


def test_criterion_7_metric_definitions():
    """Every cluster-report field matches hand-computed values to 1e-9 on a
    16-point fixture (4 directions x 4 points on axis-aligned crosses)."""
    fixture = {
        # direction: (mean, cross half-width, yaws)
        "up": ((0.0, 0.0), 0.4, (-0.5, 0.5, 0.2, -0.2)),
        "left": ((10.0, 0.0), 0.25, (89.8, 90.2, 90.0, 89.9)),
        "upleft": ((5.0, 1.0), 0.2, (44.9, 45.1, 45.0, 45.05)),
        "down": ((5.0, -1.0), 0.1, (179.8, -179.9, 179.9, -179.95)),
    }
    measurements = []
    for direction, ((mx, my), a, yaws) in fixture.items():
        offsets = ((a, 0.0), (-a, 0.0), (0.0, a), (0.0, -a))
        for (dx, dy), yaw in zip(offsets, yaws):
            measurements.append(
                MarkMeasurement(direction, yaw, np.array([mx + dx, my + dy, 0.0]), 0)
            )
    report = cluster_metrics(measurements)

    by_dir = {s.direction: s for s in report.directions}
    for direction, ((mx, my), a, yaws) in fixture.items():
        s = by_dir[direction]
        # the four cross offsets cancel: mean is exact; every point sits at
        # distance a, so max = mean = enclosing radius = a
        assert abs(s.mean_x_mm - mx) < 1e-9
        assert abs(s.mean_y_mm - my) < 1e-9
        assert abs(s.max_from_mean_mm - a) < 1e-9
        assert abs(s.mean_from_mean_mm - a) < 1e-9
        assert abs(s.radius_mm - a) < 1e-9
        assert abs(s.diameter_mm - 2.0 * a) < 1e-9
    assert abs(by_dir["up"].yaw_min_deg - (-0.5)) < 1e-9
    assert abs(by_dir["up"].yaw_max_deg - 0.5) < 1e-9
    assert abs(by_dir["left"].yaw_min_deg - 89.8) < 1e-9
    assert abs(by_dir["left"].yaw_max_deg - 90.2) < 1e-9
    # the down cluster straddles +-180: the range stays contiguous
    assert abs(by_dir["down"].yaw_min_deg - 179.8) < 1e-9
    assert abs(by_dir["down"].yaw_max_deg - 180.1) < 1e-9

    # overall mean: equal-count cluster means average to (5, 0)
    assert abs(report.overall.mean_x_mm - 5.0) < 1e-9
    assert abs(report.overall.mean_y_mm - 0.0) < 1e-9
    # hand-listed distances of all 16 points from (5, 0)
    dists = [
        math.hypot(0.4 - 5.0, 0.0),  # up cross, x arm
        math.hypot(-0.4 - 5.0, 0.0),
        math.hypot(0.0 - 5.0, 0.4),  # up cross, y arm
        math.hypot(0.0 - 5.0, -0.4),
        math.hypot(10.25 - 5.0, 0.0),  # left cross
        math.hypot(9.75 - 5.0, 0.0),
        math.hypot(10.0 - 5.0, 0.25),
        math.hypot(10.0 - 5.0, -0.25),
        math.hypot(5.2 - 5.0, 1.0),  # upleft cross
        math.hypot(4.8 - 5.0, 1.0),
        math.hypot(0.0, 1.2),
        math.hypot(0.0, 0.8),
        math.hypot(5.1 - 5.0, -1.0),  # down cross
        math.hypot(4.9 - 5.0, -1.0),
        math.hypot(0.0, -0.8),
        math.hypot(0.0, -1.2),
    ]
    assert abs(report.overall.max_from_mean_mm - 5.4) < 1e-9
    assert abs(report.overall.mean_from_mean_mm - sum(dists) / 16.0) < 1e-9
    # the x-extreme pair (-0.4, 0) and (10.25, 0) spans 10.65, and the circle
    # over that diameter contains every point: the minimal radius is 5.325
    assert abs(report.overall.radius_mm - 5.325) < 1e-9
    center = np.array([(10.25 - 0.4) / 2.0, 0.0])
    for m in measurements:
        assert np.linalg.norm(m.position[:2] - center) <= 5.325 + 1e-12

    # mean L2 between cluster means: pairs 10, 2, and four sqrt(26) legs
    expected_l2 = (10.0 + 2.0 + 4.0 * math.hypot(5.0, 1.0)) / 6.0
    assert abs(report.mean_intercluster_l2_mm - expected_l2) < 1e-9
    print("PASS criterion 7: metric definitions match the 16-point hand fixture")


def test_criterion_8_instrument_reversal():
    """Over 200 seeded noisy trials (glass noise plus a 0.25 mm plate bow, the
    heading-antisymmetric systematic reversal exists to cancel), the averaged
    hand-eye translation error is never above the worse run and beats the
    better run in at least 60% of trials."""
    n_trials = 200
    le_worse = le_better = 0
    for seed in range(n_trials):
        world = inject_wooden_plate(random_world(80000 + seed), 0.25)
        session_a = simulate_referencing_session(
            world, GLASS_NOISE, *default_placements(world), trial=1
        )
        session_b = simulate_referencing_session(
            world, GLASS_NOISE, *default_placements(world, reverse=True), trial=2
        )
        run_a = compute_rob_h_cam(session_a)
        run_b = compute_rob_h_cam(session_b)
        merged = reversal_average(run_a, run_b)
        _, err_a = _hand_eye_errors(run_a, world)
        _, err_b = _hand_eye_errors(run_b, world)
        _, err_m = _hand_eye_errors(merged, world)
        if err_m <= max(err_a, err_b) + 1e-12:
            le_worse += 1
        if err_m <= min(err_a, err_b) + 1e-12:
            le_better += 1
    assert le_worse == n_trials, f"averaged error above the worse run in {n_trials - le_worse} trials"
    assert le_better >= 0.6 * n_trials, f"beats the better run only {le_better}/{n_trials}"
    # the calibrate --reversal contract promises the stronger 90% figure
    assert le_better >= 0.9 * n_trials, f"beats the better run only {le_better}/{n_trials}"
    print(
        f"PASS criterion 8: instrument reversal, <= worse {le_worse}/{n_trials}, "
        f"<= better {le_better}/{n_trials}"
    )


def test_criterion_9_noise_floor():
    """Tracker noise only (0.035 mm): 95th-percentile translation error below
    0.3 mm over 500 trials, in under 60 s."""
    t0 = time.perf_counter()
    noise = NoiseConfig(tracker_sigma_mm=0.035, image_sigma_px=0.0)
    errors = []
    for seed in range(500):
        world = random_world(90000 + seed)
        session = simulate_referencing_session(world, noise, *default_placements(world))
        result = compute_rob_h_cam(session)
        _, trans_err = _hand_eye_errors(result, world)
        errors.append(trans_err)
    elapsed = time.perf_counter() - t0
    p95 = float(np.percentile(errors, 95))
    assert p95 < 0.3, f"95th percentile translation error {p95:.3f} mm"
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s"
    print(
        f"PASS criterion 9: noise floor, p95 translation error {p95:.3f} mm "
        f"over 500 trials in {elapsed:.1f} s"
    )
