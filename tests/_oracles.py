"""Independent reference implementations, kept free of the implementation paths
they check: enclosing circles by pair/triple enumeration, planar rigid alignment
by angle grid search with golden-section refinement, the scalar
one-measurement-at-a-time mark experiment that the batched pass replaced,
built from the one-point library primitives, and the per-direction cluster
statistics loop with its shuffled, call-per-point Welzl circle that the
batched cluster metrics replaced."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from floorref import frames
from floorref.camera import project_points
from floorref.errors import DegenerateConfiguration, MarkNotVisible, OutOfBounds
from floorref.experiment import (
    DIRECTIONS,
    ClusterReport,
    DirectionStats,
    MarkMeasurement,
    direction_for_yaw,
)
from floorref.geometry import RigidTransform, apply, compose, invert, rotation_about_z
from floorref.simulate import STREAM_EXPERIMENT, rng_substream


def brute_force_enclosing_circle(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest enclosing circle by enumeration of all pair-diameter and
    triple-circumscribed candidate circles, each checked against every point
    (O(n^4) work, as arrays); a triple with |d| < 1e-14 has no circumcircle."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = pts.shape[0]
    if n == 1:
        return pts[0].copy(), 0.0

    pairs = np.array(list(combinations(range(n), 2))).reshape(-1, 2)
    triples = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    a, b, c = pts[triples[:, 0]], pts[triples[:, 1]], pts[triples[:, 2]]
    d = 2.0 * (a[:, 0] * (b[:, 1] - c[:, 1]) + b[:, 0] * (c[:, 1] - a[:, 1]) + c[:, 0] * (a[:, 1] - b[:, 1]))
    keep = np.abs(d) >= 1e-14
    triples, a, b, c, d = triples[keep], a[keep], b[keep], c[keep], d[keep]
    aa, bb, cc = (np.sum(v * v, axis=1) for v in (a, b, c))
    ux = (aa * (b[:, 1] - c[:, 1]) + bb * (c[:, 1] - a[:, 1]) + cc * (a[:, 1] - b[:, 1])) / d
    uy = (aa * (c[:, 0] - b[:, 0]) + bb * (a[:, 0] - c[:, 0]) + cc * (b[:, 0] - a[:, 0])) / d

    centers_arr = np.concatenate([(pts[pairs[:, 0]] + pts[pairs[:, 1]]) / 2.0, np.stack([ux, uy], axis=1)])
    # the defining points of each candidate; a pair repeats its second point
    members = np.concatenate([pairs[:, [0, 1, 1]], triples])
    dists = np.linalg.norm(pts[None, :, :] - centers_arr[:, None, :], axis=2)
    radii_arr = np.max(np.take_along_axis(dists, members, axis=1), axis=1)
    contains = np.all(dists <= radii_arr[:, None] * (1.0 + 1e-12) + 1e-12, axis=1)
    valid = np.flatnonzero(contains)
    best = valid[np.argmin(radii_arr[valid])]
    return centers_arr[best].copy(), float(radii_arr[best])


def planar_alignment_oracle(
    source: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray]:
    """Best in-plane rotation angle and translation aligning planar point sets,
    by dense angle grid search refined with golden-section on the cost.

    Minimizes sum ||target_i - (R(theta) source_i + t)||^2 with t eliminated
    through the centroids.
    """
    src = np.asarray(source, dtype=np.float64)[:, :2]
    dst = np.asarray(target, dtype=np.float64)[:, :2]
    src_c = src - src.mean(axis=0)
    dst_c = dst - dst.mean(axis=0)

    def cost(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        return float(np.sum((dst_c - src_c @ rot.T) ** 2))

    grid = np.linspace(0.0, 2.0 * math.pi, 3601)
    costs = [cost(t) for t in grid]
    best = int(np.argmin(costs))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = cost(x1), cost(x2)
    for _ in range(200):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = cost(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = cost(x2)
        if b - a < 1e-14:
            break
    theta = (a + b) / 2.0
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    t = dst.mean(axis=0) - rot @ src.mean(axis=0)
    return theta, t


# --- scalar mark experiment ------------------------------------------------------


def scalar_pose_on_surface(world, x_mm, y_mm, yaw, surface) -> RigidTransform:
    """Support pose of one placement: alternate plane fit and wheel-triangle
    repose until the contacts sit on the surface within 1e-12 mm."""
    surf = world.plate_surface_z if surface == "plate" else world.floor_surface_z
    wheels_xy = np.array(world.robot.wheel_contacts_xy_mm)
    h = world.robot.smr_height_mm
    heading = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    c, s = math.cos(yaw), math.sin(yaw)
    rot2 = np.array([[c, -s], [s, c]])
    contact_xy = wheels_xy @ rot2.T + [x_mm, y_mm]
    contact_z = np.asarray(surf(contact_xy[:, 0], contact_xy[:, 1]), dtype=np.float64)
    for _ in range(100):
        a_mat = np.column_stack([contact_xy, np.ones(3)])
        try:
            coeffs = np.linalg.solve(a_mat, contact_z)
        except np.linalg.LinAlgError as e:
            raise DegenerateConfiguration(f"pose_on_surface: contact plane singular: {e}") from e
        n = np.array([-coeffs[0], -coeffs[1], 1.0])
        n = n / np.linalg.norm(n)
        x_r = heading - float(heading @ n) * n
        x_r = x_r / np.linalg.norm(x_r)
        y_r = np.cross(n, x_r)
        origin = np.array([x_mm, y_mm, coeffs[0] * x_mm + coeffs[1] * y_mm + coeffs[2]])
        t = origin + h * n
        r = np.column_stack([x_r, y_r, n])
        contacts = origin + np.outer(wheels_xy[:, 0], x_r) + np.outer(wheels_xy[:, 1], y_r)
        surf_z = np.asarray(surf(contacts[:, 0], contacts[:, 1]), dtype=np.float64)
        if float(np.max(np.abs(surf_z - contacts[:, 2]))) < 1e-12:
            return RigidTransform(r, t, source=frames.ROB, dest=frames.ABS)
        contact_xy = contacts[:, :2]
        contact_z = surf_z
    raise DegenerateConfiguration(
        "pose_on_surface: wheel contacts did not settle within 100 iterations"
    )


def scalar_mark_observation(world, noise, x_mm, y_mm, yaw, mark_abs, rng):
    """True-pose image point plus noise and the noisy robot smr reading."""
    h_abs_rob = scalar_pose_on_surface(world, x_mm, y_mm, yaw, "floor")
    h_cam_abs = invert(compose(h_abs_rob, world.h_rob_cam_true))
    rc, in_front = project_points(world.camera, apply(h_cam_abs, mark_abs))
    if not (in_front[0] and world.camera.contains_points(rc)[0]):
        raise MarkNotVisible("scalar_mark_observation: mark not visible")
    noisy = rc[0] + rng.normal(0.0, noise.image_sigma_px, size=2)
    smr = h_abs_rob.translation + rng.normal(0.0, noise.tracker_sigma_mm, size=3)
    return noisy, smr


def scalar_measure_mark(result, image_point, h_abs_rob) -> np.ndarray:
    rowcol = np.array([image_point])
    if not result.scene.model.contains_points(rowcol)[0]:
        raise OutOfBounds("scalar_measure_mark: image point outside the sensor")
    xy = result.scene.map_image_points(rowcol)[0]
    p_rob = apply(result.h_rob_scn, np.array([xy[0], xy[1], 0.0]))
    return apply(h_abs_rob, p_rob)


def scalar_run_experiment(world, noise, plan, result, *, seed=None) -> list[MarkMeasurement]:
    """The mark experiment one measurement at a time: per-trial Philox
    substream, and per yaw a placement, a support pose, a projection, one
    rectified image point and one robot-to-tracker transform."""
    base_seed = world.seed if seed is None else seed
    mark_abs = np.array(
        [
            plan.mark_xy_mm[0],
            plan.mark_xy_mm[1],
            float(np.asarray(world.floor_surface_z(plan.mark_xy_mm[0], plan.mark_xy_mm[1]))),
        ]
    )
    g0 = world.camera_ground_offset
    measurements = []
    for trial in range(plan.repeats):
        rng = rng_substream(base_seed, STREAM_EXPERIMENT, trial)
        for yaw_deg in plan.yaw_deg_list:
            yaw_actual = yaw_deg + plan.yaw_jitter_deg * float(rng.standard_normal())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            radius = plan.max_offset_mm * math.sqrt(rng.uniform())
            offset = np.array([radius * math.cos(theta), radius * math.sin(theta)])
            yaw = math.radians(yaw_actual)
            c, s = math.cos(yaw), math.sin(yaw)
            rot2 = np.array([[c, -s], [s, c]])
            xy = mark_abs[:2] + offset - rot2 @ g0
            ip, smr = scalar_mark_observation(
                world, noise, float(xy[0]), float(xy[1]), yaw, mark_abs, rng
            )
            h_abs_rob = RigidTransform(
                rotation_about_z(yaw), smr, source=frames.ROB, dest=frames.ABS
            )
            measurements.append(
                MarkMeasurement(
                    direction=direction_for_yaw(yaw_deg),
                    yaw_deg=yaw_actual,
                    position=scalar_measure_mark(result, ip, h_abs_rob),
                    trial=trial,
                )
            )
    return measurements


# --- per-direction cluster statistics ----------------------------------------


def lcg_shuffled(points: np.ndarray) -> np.ndarray:
    """Deterministic Fisher-Yates shuffle driven by a fixed 64-bit LCG."""
    n = points.shape[0]
    idx = list(range(n))
    state = 0x853C49E6748FEA9B
    for i in range(n - 1, 0, -1):
        state = (state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        j = (state >> 16) % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return points[idx]


def _inside(cx, cy, r, px, py) -> bool:
    dx = px - cx
    dy = py - cy
    return math.sqrt(dx * dx + dy * dy) <= r * (1.0 + 1e-14) + 1e-14


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    dx = ax - bx
    dy = ay - by
    return math.sqrt(dx * dx + dy * dy)


def _circle_two(ax: float, ay: float, bx: float, by: float) -> tuple[float, float, float]:
    cx = (ax + bx) / 2.0
    cy = (ay + by) / 2.0
    r = max(_dist(cx, cy, ax, ay), _dist(cx, cy, bx, by))
    return cx, cy, r


def _circle_three(
    ax: float, ay: float, bx: float, by: float, px: float, py: float
) -> tuple[float, float, float] | None:
    # Circumcircle, evaluated about the bounding-box midpoint for conditioning.
    ox = (min(ax, bx, px) + max(ax, bx, px)) / 2.0
    oy = (min(ay, by, py) + max(ay, by, py)) / 2.0
    a0, a1 = ax - ox, ay - oy
    b0, b1 = bx - ox, by - oy
    p0, p1 = px - ox, py - oy
    d = (a0 * (b1 - p1) + b0 * (p1 - a1) + p0 * (a1 - b1)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((a0 * a0 + a1 * a1) * (b1 - p1) + (b0 * b0 + b1 * b1) * (p1 - a1) + (p0 * p0 + p1 * p1) * (a1 - b1)) / d
    y = oy + ((a0 * a0 + a1 * a1) * (p0 - b0) + (b0 * b0 + b1 * b1) * (a0 - p0) + (p0 * p0 + p1 * p1) * (b0 - a0)) / d
    r = max(_dist(x, y, ax, ay), _dist(x, y, bx, by), _dist(x, y, px, py))
    return x, y, r


def reference_enclosing_circle(points: np.ndarray) -> tuple[float, float, float]:
    """Welzl's circle over the LCG-shuffled points, one containment call per
    point test and one call per circle construction: the two-point diameter
    circle and the three-point circumcircle about the bounding-box midpoint,
    both kept here, apart from the library's loop."""
    pts = lcg_shuffled(points).tolist()
    cx, cy, r = pts[0][0], pts[0][1], 0.0
    for i in range(1, len(pts)):
        px, py = pts[i]
        if _inside(cx, cy, r, px, py):
            continue
        cx, cy, r = px, py, 0.0
        for j in range(i):
            qx, qy = pts[j]
            if _inside(cx, cy, r, qx, qy):
                continue
            cx, cy, r = _circle_two(px, py, qx, qy)
            for k in range(j):
                sx, sy = pts[k]
                if _inside(cx, cy, r, sx, sy):
                    continue
                c3 = _circle_three(px, py, qx, qy, sx, sy)
                if c3 is None:
                    pairs = (
                        _circle_two(px, py, qx, qy),
                        _circle_two(px, py, sx, sy),
                        _circle_two(qx, qy, sx, sy),
                    )
                    cx, cy, r = max(pairs, key=lambda c: c[2])
                else:
                    cx, cy, r = c3
    return float(cx), float(cy), float(r)


def _reference_stats(direction: str, xy: np.ndarray, yaws: np.ndarray) -> DirectionStats:
    mean = xy.mean(axis=0)
    dists = np.linalg.norm(xy - mean, axis=1)
    yaw_mean = math.degrees(
        math.atan2(
            float(np.mean(np.sin(np.radians(yaws)))),
            float(np.mean(np.cos(np.radians(yaws)))),
        )
    )
    rel = (yaws - yaw_mean + 180.0) % 360.0 - 180.0
    return DirectionStats(
        direction=direction,
        count=xy.shape[0],
        mean_x_mm=float(mean[0]),
        mean_y_mm=float(mean[1]),
        max_from_mean_mm=float(dists.max()),
        mean_from_mean_mm=float(dists.mean()),
        radius_mm=reference_enclosing_circle(xy)[2],
        yaw_min_deg=float(yaw_mean + rel.min()),
        yaw_max_deg=float(yaw_mean + rel.max()),
    )


def reference_cluster_metrics(measurements) -> ClusterReport:
    """Cluster report one direction at a time, each cluster's statistics from
    its own (n, 2) array, and the inter-cluster distances one pair at a time."""
    stats = []
    for direction in DIRECTIONS:
        members = [m for m in measurements if m.direction == direction]
        if members:
            stats.append(
                _reference_stats(
                    direction,
                    np.array([m.position[:2] for m in members]),
                    np.array([m.yaw_deg for m in members]),
                )
            )
    overall = _reference_stats(
        "all",
        np.array([m.position[:2] for m in measurements]),
        np.array([m.yaw_deg for m in measurements]),
    )
    means = np.array([[s.mean_x_mm, s.mean_y_mm] for s in stats])
    pair_dists = [
        float(np.linalg.norm(means[i] - means[j]))
        for i in range(len(stats))
        for j in range(i + 1, len(stats))
    ]
    inter = float(np.mean(pair_dists)) if pair_dists else 0.0
    return ClusterReport(directions=tuple(stats), overall=overall, mean_intercluster_l2_mm=inter)
