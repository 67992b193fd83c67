"""Independent reference implementations, kept free of the implementation paths
they check: enclosing circles by pair/triple enumeration, planar rigid alignment
by angle grid search with golden-section refinement, and the scalar
one-measurement-at-a-time mark experiment that the batched pass replaced,
built from the one-point library primitives."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from floorref import frames
from floorref.camera import ImagePoint, project_points
from floorref.errors import DegenerateConfiguration, MarkNotVisible, OutOfBounds
from floorref.experiment import MarkMeasurement, direction_for_yaw
from floorref.geometry import RigidTransform, apply, compose, invert, rotation_about_z
from floorref.simulate import STREAM_EXPERIMENT, camera_ground_offset, rng_substream


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
    rc, in_front = project_points(world.camera, h_cam_abs, mark_abs)
    ip_true = ImagePoint(float(rc[0, 0]), float(rc[0, 1])) if in_front[0] else None
    if ip_true is None or not world.camera.contains(ip_true):
        raise MarkNotVisible("scalar_mark_observation: mark not visible")
    noisy = rc[0] + rng.normal(0.0, noise.image_sigma_px, size=2)
    smr = h_abs_rob.translation + rng.normal(0.0, noise.tracker_sigma_mm, size=3)
    return ImagePoint(float(noisy[0]), float(noisy[1])), smr


def scalar_measure_mark(result, image_point, h_abs_rob) -> np.ndarray:
    if not result.scene.model.contains(image_point):
        raise OutOfBounds("scalar_measure_mark: image point outside the sensor")
    xy = result.scene.map_image_point(image_point)
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
    g0 = camera_ground_offset(world)
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
