"""Pinhole-plus-radial-distortion camera and the image-to-scene rectification map.

The projection chain is: world point -> camera frame -> normalized coordinates
(x, y) = (X/Z, Y/Z) -> radial distortion -> sensor millimeters via the focal
length -> pixel (row, column) via the pixel pitch and principal point. Column
follows x, row follows y. The scene frame realizes the rectified floor plane:
x/y axes follow the image row/column directions projected onto the plate
plane, the whole image footprint sits in the positive quadrant, z points up
from the plate toward the camera.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import frames
from .errors import DegenerateConfiguration, DegenerateViewingGeometry, NonConvergence
from .geometry import (
    RigidTransform,
    apply,
    compose,
    cross3,
    invert,
    nearest_rotation,
    norm,
    rotation_from_rotvec,
)

Array = NDArray[np.float64]

_MIN_DEPTH_MM = 1e-9
_MAX_INCIDENCE_DEG = 89.0
_POSE_MAX_ITER = 100
_POSE_LAMBDA0 = 1e-6
_POSE_RESIDUAL_ULPS = 8.0
_POSE_STEP_TOL = 1e-10
_UNDISTORT_MAX_ITER = 50
_UNDISTORT_RTOL = 4.0 * np.finfo(np.float64).eps


def distort_radial(xy: Array, k1: float, k2: float, k3: float) -> Array:
    """Forward radial distortion of normalized image coordinates, shape (n, 2)."""
    xy = np.asarray(xy, dtype=np.float64)
    r2 = (xy * xy).sum(axis=1)
    factor = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    return xy * factor[:, None]


def undistort_radial(xy: Array, k1: float, k2: float, k3: float) -> Array:
    """Inverse of the radial distortion by fixed-point iteration, shape (n, 2).

    Iterates r_u <- r_d / (1 + k1 r_u^2 + k2 r_u^4 + k3 r_u^6) on the radius
    until no radius moves by more than 4 eps r_d, and returns that iterate
    (exact equality is not a stop rule: a radius can alternate between two
    adjacent floats).

    Raises:
        NonConvergence: some radius still moves after 50 iterations, i.e. the
            distortion does not contract there.
    """
    xy = np.asarray(xy, dtype=np.float64)
    rd = np.sqrt((xy * xy).sum(axis=1))
    tol = _UNDISTORT_RTOL * rd
    ru = rd
    for _ in range(_UNDISTORT_MAX_ITER):
        ru_prev = ru
        r2 = ru * ru
        ru = rd / (1.0 + r2 * (k1 + r2 * (k2 + r2 * k3)))
        if (np.abs(ru - ru_prev) <= tol).all():
            break
    else:
        raise NonConvergence(
            f"undistortion did not converge within {_UNDISTORT_MAX_ITER} iterations"
        )
    scale = np.divide(ru, rd, out=np.ones_like(rd), where=rd > 0.0)
    return xy * scale[:, None]


@dataclass(frozen=True)
class ImagePoint:
    """Subpixel sensor coordinates (row, column) in px."""

    row: float
    col: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.row) and math.isfinite(self.col)):
            raise ValueError(f"image point must be finite, got ({self.row}, {self.col})")


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics with a three-coefficient radial distortion polynomial.

    Attributes:
        focal_mm: focal length, > 0
        sx_mm, sy_mm: pixel pitch (mm/px) along columns and rows
        cx_px, cy_px: principal point (column, row)
        k: (k1, k2, k3) radial coefficients over normalized coordinates
        rows, cols: sensor size in px
    """

    focal_mm: float
    sx_mm: float
    sy_mm: float
    cx_px: float
    cy_px: float
    k: tuple[float, float, float]
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if len(self.k) != 3:
            raise ValueError("distortion needs exactly three coefficients")
        names = ("focal_mm", "sx_mm", "sy_mm", "cx_px", "cy_px", "k[0]", "k[1]", "k[2]")
        values = (self.focal_mm, self.sx_mm, self.sy_mm, self.cx_px, self.cy_px, *self.k)
        bad = [name for name, v in zip(names, values) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"camera parameters must be finite: {', '.join(bad)}")
        if self.focal_mm <= 0.0:
            raise ValueError(f"focal length must be positive, got {self.focal_mm}")
        if self.sx_mm <= 0.0 or self.sy_mm <= 0.0:
            raise ValueError("pixel pitch must be positive")
        if self.rows < 2 or self.cols < 2:
            raise ValueError("image size must be at least 2x2 px")
        object.__setattr__(self, "k", tuple(float(v) for v in self.k))
        self._check_invertible()

    def _check_invertible(self) -> None:
        # Construction invariant: undistortion must round-trip the forward
        # distortion within 1e-6 px over the full sensor (checked on a grid).
        # Finite but extreme parameters can overflow on the way: not invertible.
        rr = np.linspace(0.0, self.rows - 1.0, 11)
        cc = np.linspace(0.0, self.cols - 1.0, 11)
        grid = np.stack(np.meshgrid(rr, cc, indexing="ij"), axis=-1).reshape(-1, 2)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                back = self.normalized_to_pixel_array(self.pixel_to_normalized_array(grid))
                err = np.abs(back - grid).max()
        except (NonConvergence, FloatingPointError) as e:
            raise ValueError(f"distortion not invertible over the sensor ({e})") from None
        if err > 1e-6:
            raise ValueError(
                f"distortion not invertible over the sensor (round-trip error {err:.3e} px)"
            )

    def normalized_to_pixel_array(self, xy: Array) -> Array:
        """Distort normalized coordinates and convert to (row, col) pairs, (n, 2)."""
        d = distort_radial(np.atleast_2d(xy), *self.k)
        rc = np.empty((d.shape[0], 2))
        rc[:, 0] = self.cy_px + d[:, 1] * self.focal_mm / self.sy_mm
        rc[:, 1] = self.cx_px + d[:, 0] * self.focal_mm / self.sx_mm
        return rc

    def pixel_to_normalized_array(self, rowcol: Array) -> Array:
        """Undistorted normalized coordinates for (row, col) pairs, (n, 2)."""
        rowcol = np.atleast_2d(np.asarray(rowcol, dtype=np.float64))
        xy = np.empty((rowcol.shape[0], 2))
        xy[:, 0] = (rowcol[:, 1] - self.cx_px) * self.sx_mm / self.focal_mm
        xy[:, 1] = (rowcol[:, 0] - self.cy_px) * self.sy_mm / self.focal_mm
        return undistort_radial(xy, *self.k)

    def contains_points(self, rowcol: Array) -> Array:
        """Per (row, col) pair of an (n, 2) array, whether it lies on the
        sensor, 0 <= row <= rows - 1 and 0 <= col <= cols - 1; NaN is outside."""
        row, col = np.asarray(rowcol, dtype=np.float64).T
        return (0.0 <= row) & (row <= self.rows - 1) & (0.0 <= col) & (col <= self.cols - 1)


def project_points(model: CameraModel, pts_cam: Array) -> tuple[Array, Array]:
    """Project camera-frame points; returns ((n, 2) row/col array, in-front mask).

    Points behind the camera get non-finite coordinates and a False mask entry
    so simulator visibility checks can proceed without raising.
    """
    pc = np.atleast_2d(np.asarray(pts_cam, dtype=np.float64))
    z = pc[:, 2]
    in_front = z > _MIN_DEPTH_MM
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = pc[:, :2] / z[:, None]
    xy[~in_front] = np.nan
    rc = np.full((pc.shape[0], 2), np.nan)
    if in_front.any():
        rc[in_front] = model.normalized_to_pixel_array(xy[in_front])
    return rc, in_front


def _plane_hits(model: CameraModel, h_ref_cam: RigidTransform, rowcol: Array) -> Array:
    """Intersect the camera rays through (n, 2) (row, col) pixels with the
    plate plane z=0, in plate coordinates, (n, 3)."""
    xy_n = model.pixel_to_normalized_array(rowcol)
    dirs = np.concatenate([xy_n, np.ones((xy_n.shape[0], 1))], axis=1)
    c = h_ref_cam.translation
    d = dirs @ h_ref_cam.rotation.T
    dz = d[:, 2]
    bad = np.abs(dz) < 1e-12
    if bad.any():
        raise DegenerateViewingGeometry("rectification ray parallel to the plate plane")
    s = -c[2] / dz
    if (s <= 0.0).any():
        raise DegenerateViewingGeometry("rectification ray leaves the plate plane behind")
    return c + s[:, None] * d


@dataclass(frozen=True, eq=False)
class SceneFrame:
    """Rectified floor-plane frame tied to the camera.

    Stores the plate-viewing camera pose ``h_cam_ref`` and the plate-to-scene
    transform ``h_scn_ref`` built from it. The camera-to-scene transform
    ``h_scn_cam`` is derived from the two, and ``map_image_points`` is the
    rectification map from image pixels to metric scene xy coordinates.
    """

    model: CameraModel
    h_scn_ref: RigidTransform
    h_cam_ref: RigidTransform

    @functools.cached_property
    def h_scn_cam(self) -> RigidTransform:
        return compose(self.h_scn_ref, invert(self.h_cam_ref))

    def map_image_points(self, rowcol: Array) -> Array:
        """Rectify (row, col) pairs into scene xy millimeters, (n, 2)."""
        hits_ref = _plane_hits(self.model, invert(self.h_cam_ref), rowcol)
        return apply(self.h_scn_ref, hits_ref)[:, :2]


def build_rectification_map(model: CameraModel, h_cam_ref: RigidTransform) -> SceneFrame:
    """Construct the scene frame and rectification map for a plate-viewing pose.

    The scene x-axis is the normalized in-plane direction of increasing image
    row at the image center, the z-axis points from the plate plane toward the
    camera, y completes the right-handed basis (the projected column
    direction), and the origin is the componentwise minimum of the projected
    image corners, which places the whole footprint in the positive quadrant.

    Raises:
        DegenerateViewingGeometry: camera center in the plate plane, incidence
            beyond 89 degrees, or the optical axis pointing away from it.
    """
    h_ref_cam = invert(h_cam_ref)
    c = h_ref_cam.translation
    if abs(c[2]) < 1e-6:
        raise DegenerateViewingGeometry("camera center lies in the plate plane")
    sigma = 1.0 if c[2] > 0.0 else -1.0
    axis = h_ref_cam.rotation[:, 2]  # the optical axis (0, 0, 1) in plate coordinates
    if axis[2] * sigma >= 0.0:
        raise DegenerateViewingGeometry("optical axis points away from the plate plane")
    if abs(axis[2]) < math.cos(math.radians(_MAX_INCIDENCE_DEG)):
        raise DegenerateViewingGeometry(
            f"incidence angle beyond {_MAX_INCIDENCE_DEG} degrees"
        )

    rc_center = np.array([(model.rows - 1) / 2.0, (model.cols - 1) / 2.0])
    probe = np.array(
        [
            rc_center + [0.5, 0.0],
            rc_center - [0.5, 0.0],
            [0.0, 0.0],
            [0.0, model.cols - 1.0],
            [model.rows - 1.0, 0.0],
            [model.rows - 1.0, model.cols - 1.0],
        ]
    )
    hits = _plane_hits(model, h_ref_cam, probe)

    e_z = np.array([0.0, 0.0, sigma])
    row_dir = hits[0] - hits[1]
    with np.errstate(over="ignore"):  # inf for a camera pose near the float range
        n_row = norm(row_dir)
    if not 1e-12 <= n_row < math.inf:
        raise DegenerateViewingGeometry("degenerate image row direction on the plate plane")
    e_x = row_dir / n_row
    e_y = cross3(e_z, e_x)

    corners = hits[2:]
    u = corners @ e_x
    v = corners @ e_y
    origin = u.min() * e_x + v.min() * e_y

    r_ref_scn = np.array([e_x, e_y, e_z]).T  # columns e_x, e_y, e_z
    h_ref_scn = RigidTransform(
        nearest_rotation(r_ref_scn), origin, source=frames.SCN, dest=h_cam_ref.source
    )
    h_scn_ref = invert(h_ref_scn)
    # the corners' plane hits in the scene frame: what map_image_points gives
    # for the corner pixels, without undistorting them a second time
    corner_scn = corners @ h_scn_ref.rotation.T + h_scn_ref.translation
    if corner_scn[:, :2].min() < -1e-9:
        raise DegenerateViewingGeometry(
            "projected image corners escape the positive scene quadrant"
        )
    return SceneFrame(model=model, h_scn_ref=h_scn_ref, h_cam_ref=h_cam_ref)


# --- planar pose estimation -------------------------------------------------


class PlateImageFit(NamedTuple):
    """Camera pose over the plate estimated from target-mark observations.

    ``iterations`` counts Levenberg-Marquardt iterations, the last one
    included; the damping starts at 1e-6. ``stop`` says why the refinement
    ended: ``"step_tol"`` (the cost is flat to rounding: a trial step fell
    below the step tolerance, or an accepted trial did not lower the cost) or
    ``"no_descent"`` (the damping reached 1e12 while every trial step stayed
    above the tolerance and raised the cost beyond its rounding error).
    ``h_cam_ref`` carries the last accepted rotation, re-orthonormalised once.
    """

    h_cam_ref: RigidTransform
    rms_px: float
    iterations: int
    stop: str


def _pose_jacobian(model: CameraModel, q: Array, pc: Array) -> Array:
    """Jacobian of the pixel residual of plate points p at pose (r, t), (2n, 6).

    ``q = p r^T`` and ``pc = q + t`` are the rotated and the camera-frame
    points, as the residual computes them. Columns are the pose update
    (dw, dt) applied as ``exp([dw]x) r`` and ``t + dt``; rows follow the
    residual order [row0, col0, row1, col1, ...]. The chain is
    d pc = -[q]x dw + dt, the perspective division (x, y) = (X/Z, Y/Z), the
    radial factor f(r^2) = 1 + k1 r^2 + k2 r^4 + k3 r^6
    (d xd/dx = f + 2 x^2 f', d xd/dy = 2 x y f', f' = df/d(r^2)), and the
    pixel scale (row from yd, column from xd).
    """
    iz = 1.0 / pc[:, 2]
    x = pc[:, 0] * iz
    y = pc[:, 1] * iz
    qx, qy, qz = q.T
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    # d(x, y)/d(dw, dt), (6, n) each: a row a of the division Jacobian gives q x a for dw
    dx = np.array([-x * qy, qz + x * qx, -qy, one, zero, -x]) * iz
    dy = np.array([-y * qy - qz, y * qx, qx, zero, one, -y]) * iz

    k1, k2, k3 = model.k
    r2 = x * x + y * y
    f = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    fp2 = 2.0 * (k1 + r2 * (2.0 * k2 + 3.0 * r2 * k3))  # 2 f'
    cross = x * y * fp2
    jac = np.empty((x.size, 2, 6))
    jac[:, 0] = ((model.focal_mm / model.sy_mm) * (cross * dx + (f + y * y * fp2) * dy)).T
    jac[:, 1] = ((model.focal_mm / model.sx_mm) * ((f + x * x * fp2) * dx + cross * dy)).T
    return jac.reshape(-1, 6)


def _homography_dlt(plane_xy: Array, norm_xy: Array) -> Array:
    def normalizer(pts: Array) -> Array:
        mean = pts.mean(axis=0)
        d = pts - mean
        # the mean distance from the centroid, rounded as np.linalg.norm(d, axis=1) rounds
        scale = math.sqrt(2.0) / max(np.sqrt((d * d).sum(axis=1)).mean(), 1e-12)
        t = np.array(
            [[scale, 0.0, -scale * mean[0]], [0.0, scale, -scale * mean[1]], [0.0, 0.0, 1.0]]
        )
        return t

    t_pln = normalizer(plane_xy)
    t_img = normalizer(norm_xy)
    pln = np.concatenate([plane_xy, np.ones((plane_xy.shape[0], 1))], axis=1) @ t_pln.T
    img = np.concatenate([norm_xy, np.ones((norm_xy.shape[0], 1))], axis=1) @ t_img.T

    n = pln.shape[0]
    a = np.zeros((2 * n, 9))
    a[0::2, 0:3] = pln
    a[0::2, 6:9] = -img[:, [0]] * pln
    a[1::2, 3:6] = pln
    a[1::2, 6:9] = -img[:, [1]] * pln
    _, _, vt = np.linalg.svd(a)
    h = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_img) @ h @ t_pln
    return h / h[2, 2]


def _pose_from_homography(h: Array) -> tuple[Array, Array]:
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    lam = 2.0 / (norm(h1) + norm(h2))
    # h[2, 2] = 1 (see _homography_dlt), so t[2] = lam > 0: the plate is in front
    r1, r2, t = lam * h1, lam * h2, lam * h3
    r = nearest_rotation(np.array([r1, r2, cross3(r1, r2)]).T)
    return r, t


def estimate_plate_pose_from_image(
    model: CameraModel,
    observed: Sequence[tuple[ImagePoint, Sequence[float] | Array]],
) -> PlateImageFit:
    """Pose of the plate frame in the camera from coplanar mark observations.

    Homography decomposition (Zhang 2000) provides the initial pose. A
    Levenberg-Marquardt iteration on the pixel reprojection error refines it,
    with Marquardt's diagonal scaling of the damping and the analytic Jacobian
    of the projection (``_pose_jacobian``). The damping starts at 1e-6: a
    top-down plate view has a near-degenerate tilt/shift direction, along
    which a larger start shrinks the first steps only a few times per
    iteration. It falls 0.3x after an accepted step (to no less than 1e-12)
    and rises 10x after a rejected one. A trial step is accepted when the
    cost does not rise beyond its rounding error (each residual counted at
    8 ulp of its pixel coordinate); trial poses that put a mark behind the
    camera are rejected like steps that raise it. Each trial pose is
    projected once, and the accepted projection also feeds the next
    Jacobian. The trial rotation ``exp([dw]x) r`` stays orthonormal to
    rounding; it is re-orthonormalised once, on the returned pose.

    The fit stops with ``stop == "step_tol"`` when the cost is flat to
    rounding: a trial step falls below 1e-10 in every component, accepted or
    not, or an accepted trial does not lower the cost. It stops with
    ``stop == "no_descent"`` when the damping reaches 1e12 with no trial step
    accepted. The cap is 100 iterations.

    Raises:
        ValueError: a reference mark that is not a finite 3-vector.
        DegenerateConfiguration: fewer than 4 marks, non-coplanar references,
            collinear layout, or an initial pose with marks behind the camera.
        NonConvergence: neither stop rule met within 100 iterations.
    """
    n = len(observed)
    if n < 4:
        raise DegenerateConfiguration(
            f"estimate_plate_pose_from_image: need at least 4 marks, got {n}"
        )
    rc_obs = np.array([[ip.row, ip.col] for ip, _ in observed], dtype=np.float64)
    ref_pts = np.array([p for _, p in observed], dtype=np.float64)
    if ref_pts.shape != (n, 3) or not np.isfinite(ref_pts).all():
        raise ValueError(
            f"estimate_plate_pose_from_image: reference marks must be finite 3-vectors, "
            f"got an array of shape {ref_pts.shape}"
        )
    if np.abs(ref_pts[:, 2]).max() > 1e-9:
        raise DegenerateConfiguration(
            "estimate_plate_pose_from_image: reference marks must lie in the plate plane"
        )
    centered = ref_pts[:, :2] - ref_pts[:, :2].mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= 1e-6:
        raise DegenerateConfiguration("estimate_plate_pose_from_image: marks are collinear")

    norm_xy = model.pixel_to_normalized_array(rc_obs)
    h = _homography_dlt(ref_pts[:, :2], norm_xy)
    r, t = _pose_from_homography(h)

    def reproject(rm: Array, tv: Array) -> tuple[Array, Array, Array] | None:
        # (residual, rotated points, camera-frame points), or None behind the camera
        q = ref_pts @ rm.T
        pc = q + tv
        z = pc[:, 2]
        if (z <= _MIN_DEPTH_MM).any():
            return None
        rc = model.normalized_to_pixel_array(pc[:, :2] / z[:, None])
        return (rc - rc_obs).ravel(), q, pc

    projection = reproject(r, t)
    if projection is None:
        raise DegenerateConfiguration(
            "estimate_plate_pose_from_image: initial pose places marks behind the camera"
        )
    res, q, pc = projection
    cost = float(res @ res)
    # rounding error of each residual: a few ulp of its pixel coordinate
    res_err = _POSE_RESIDUAL_ULPS * np.finfo(np.float64).eps * np.abs(rc_obs).ravel()
    lam = _POSE_LAMBDA0
    iterations = 0

    for iterations in range(1, _POSE_MAX_ITER + 1):
        jac = _pose_jacobian(model, q, pc)
        g = jac.T @ res
        a = jac.T @ jac
        diag = np.diag(a)
        cost_err = 2.0 * float(np.abs(res) @ res_err)  # rounding error of the cost
        stop = "no_descent"  # unless a trial step is accepted or falls below tolerance
        while lam < 1e12:
            try:
                step = np.linalg.solve(a + np.diag(lam * diag + 1e-12), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            small = float(np.abs(step).max()) < _POSE_STEP_TOL
            r_new = rotation_from_rotvec(step[:3]) @ r
            t_new = t + step[3:]
            projection = reproject(r_new, t_new)
            if projection is not None:
                res_new = projection[0]
                cost_new = float(res_new @ res_new)
                if cost_new < cost + cost_err:
                    # not above the cost beyond its rounding error: a pose no
                    # worse, and the fit ends unless the cost fell
                    descent = cost_new < cost
                    r, t, cost = r_new, t_new, cost_new
                    res, q, pc = projection
                    lam = max(lam * 0.3, 1e-12)
                    stop = "" if descent and not small else "step_tol"
                    break
            if small:
                # the cost is flat to rounding within the tolerance: converged
                stop = "step_tol"
                break
            lam *= 10.0
        if stop:
            break
    else:
        raise NonConvergence(
            f"estimate_plate_pose_from_image: no convergence in {_POSE_MAX_ITER} iterations"
        )

    rms = math.sqrt(cost / n)
    transform = RigidTransform(nearest_rotation(r), t, source=frames.REF, dest=frames.CAM)
    return PlateImageFit(transform, rms, iterations, stop)
