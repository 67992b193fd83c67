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
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import frames
from .errors import DegenerateConfiguration, DegenerateViewingGeometry, NonConvergence
from .geometry import (
    MIN_PLANAR_SPREAD_MM,
    RigidTransform,
    _renormalized,
    apply,
    compose,
    cross3,
    invert,
    nearest_rotation,
    norm,
    planar_spread,
    rotation_from_rotvec,
)

Array = NDArray[np.float64]

_MIN_DEPTH_MM = 1e-9
_MAX_IMAGE_SIZE = 2**53
_MAX_INCIDENCE_DEG = 89.0
_COS_MAX_INCIDENCE = math.cos(math.radians(_MAX_INCIDENCE_DEG))
_POSE_MAX_ITER = 500
_POSE_LAMBDA0 = 1e-6
_POSE_RESIDUAL_ULPS = 8.0
_POSE_RESIDUAL_ERR = _POSE_RESIDUAL_ULPS * float(np.finfo(np.float64).eps)
_POSE_STEP_TOL = 1e-10
# the fit ends once every pose component is known to this fraction of its sigma
_POSE_SIGMA_KAPPA = 1e-3
_POSE_RIDGE = 1e-12 * np.eye(6)
_UNDISTORT_MAX_ITER = 50
_UNDISTORT_RTOL = 4.0 * np.finfo(np.float64).eps


def _radial_factor(r2: Array, k1: float, k2: float, k3: float) -> Array:
    """The distortion's scale f(r^2) = 1 + k1 r^2 + k2 r^4 + k3 r^6 per squared radius."""
    return 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))


def distort_radial(xy: Array, k1: float, k2: float, k3: float) -> Array:
    """Forward radial distortion of normalized image coordinates, shape (n, 2)."""
    xy = np.asarray(xy, dtype=np.float64)
    return xy * _radial_factor((xy * xy).sum(axis=1), k1, k2, k3)[:, None]


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
        ru = rd / _radial_factor(ru * ru, k1, k2, k3)
        if (np.abs(ru - ru_prev) <= tol).all():
            break
    else:
        raise NonConvergence(
            f"undistortion did not converge within {_UNDISTORT_MAX_ITER} iterations"
        )
    scale = np.divide(ru, rd, out=np.ones_like(rd), where=rd > 0.0)
    return xy * scale[:, None]


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
        # up to 2**53 px, every pixel coordinate of the sensor is an exact float
        huge = [name for name in ("rows", "cols") if getattr(self, name) > _MAX_IMAGE_SIZE]
        if huge:
            raise ValueError(f"image size must be at most 2**53 px: {', '.join(huge)}")
        object.__setattr__(self, "k", tuple(float(v) for v in self.k))
        # per (row, col) axis: the pixel pitch and principal point, for the
        # pixel conversions and the pose Jacobian, and the last pixel
        consts = {
            "_pitch_rc": [self.sy_mm, self.sx_mm],
            "_center_rc": [self.cy_px, self.cx_px],
            "_last_rc": [self.rows - 1, self.cols - 1],
        }
        for name, value in consts.items():
            value = np.array(value, dtype=np.float64)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        self._check_invertible()

    def _check_invertible(self) -> None:
        """Construction invariant: undistortion must round-trip the forward
        distortion within 1e-6 px over the sensor, checked on an 11 x 11 grid;
        finite but extreme parameters can overflow on the way: not invertible.
        The same undistortion gives the read-only rays ``_probe_rays`` (6, 3)
        of ``build_rectification_map``: the image center plus and minus half
        a row, then the four corners (grid points 0, 10, 110 and 120).
        """
        r, c = (self.rows - 1) / 2.0, (self.cols - 1) / 2.0
        pixels = np.empty((123, 2))  # the grid row by row, then the two center pixels
        pixels[:121, 0] = np.linspace(0.0, self.rows - 1.0, 11).repeat(11)
        pixels[:121, 1] = np.tile(np.linspace(0.0, self.cols - 1.0, 11), 11)
        pixels[121:] = [[r + 0.5, c], [r - 0.5, c]]
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                xy = self.pixel_to_normalized_array(pixels)
                err = np.abs(self.normalized_to_pixel_array(xy[:121]) - pixels[:121]).max()
        except (NonConvergence, FloatingPointError) as e:
            raise ValueError(f"distortion not invertible over the sensor ({e})") from None
        if err > 1e-6:
            raise ValueError(
                f"distortion not invertible over the sensor (round-trip error {err:.3e} px)"
            )
        rays = np.ones((6, 3))
        rays[:, :2] = xy[[121, 122, 0, 10, 110, 120]]
        rays.setflags(write=False)
        object.__setattr__(self, "_probe_rays", rays)

    def normalized_to_pixel_array(self, xy: Array) -> Array:
        """Distort normalized coordinates and convert to (row, col) pairs, (n, 2)."""
        return self._distorted_to_pixel(distort_radial(np.atleast_2d(xy), *self.k))

    def _distorted_to_pixel(self, d: Array) -> Array:
        # (row, col) pairs of (n, 2) distorted normalized coordinates
        return d[:, 1::-1] * self.focal_mm / self._pitch_rc + self._center_rc

    def pixel_to_normalized_array(self, rowcol: Array) -> Array:
        """Undistorted normalized coordinates for (row, col) pairs, (n, 2)."""
        rowcol = np.atleast_2d(np.asarray(rowcol, dtype=np.float64))
        xy = (rowcol[:, 1::-1] - self._center_rc[::-1]) * self._pitch_rc[::-1] / self.focal_mm
        return undistort_radial(xy, *self.k)

    def contains_points(self, rowcol: Array) -> Array:
        """Per (row, col) pair of an (n, 2) array, whether it lies on the
        sensor, 0 <= row <= rows - 1 and 0 <= col <= cols - 1; NaN is outside."""
        rc = np.asarray(rowcol, dtype=np.float64)
        on = (0.0 <= rc) & (rc <= self._last_rc)
        return on[:, 0] & on[:, 1]


def project_points(model: CameraModel, pts_cam: Array) -> tuple[Array, Array]:
    """Project camera-frame points; returns ((n, 2) row/col array, in-front mask).

    Points behind the camera get NaN coordinates and a False mask entry so
    simulator visibility checks can proceed without raising. They are projected
    from (0, 0) with the rest: every step works row by row, so each point in
    front gets the pixels it gets alone.
    """
    pc = np.atleast_2d(np.asarray(pts_cam, dtype=np.float64))
    z = pc[:, 2]
    in_front = z > _MIN_DEPTH_MM
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = pc[:, :2] / z[:, None]
    behind = ~in_front
    xy[behind] = 0.0
    rc = model.normalized_to_pixel_array(xy)
    rc[behind] = np.nan
    return rc, in_front


def _ray_hits(h_ref_cam: RigidTransform, dirs: Array) -> Array:
    """Intersect (n, 3) camera-frame rays with the plate plane z=0, in plate
    coordinates, (n, 3)."""
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
        xy_n = self.model.pixel_to_normalized_array(rowcol)
        rays = np.concatenate([xy_n, np.ones((xy_n.shape[0], 1))], axis=1)
        hits_ref = _ray_hits(invert(self.h_cam_ref), rays)
        return apply(self.h_scn_ref, hits_ref)[:, :2]


def build_rectification_map(model: CameraModel, h_cam_ref: RigidTransform) -> SceneFrame:
    """Construct the scene frame and rectification map for a plate-viewing pose.

    The scene x-axis is the normalized in-plane direction of increasing image
    row at the image center, the z-axis points from the plate plane toward the
    camera, y completes the right-handed basis (the projected column
    direction), and the origin is the componentwise minimum of the projected
    image corners, which places the whole footprint in the positive quadrant.
    Both row probes hit the plate plane, so the row direction's plate-normal
    component is rounding alone and is set to 0: the basis is then
    orthonormal to rounding as built, and is used without re-orthonormalising
    (the ``RigidTransform`` still validates it).
    The rays of these six probe pixels depend on the camera alone: the camera
    undistorts them once, when it is built (``CameraModel._check_invertible``),
    so building a map undistorts nothing.

    Raises:
        DegenerateViewingGeometry: camera center in the plate plane, incidence
            beyond 89 degrees, or the optical axis pointing away from it.
    """
    h_ref_cam = invert(h_cam_ref)
    c = h_ref_cam.translation
    c_z = float(c[2])
    if abs(c_z) < 1e-6:
        raise DegenerateViewingGeometry("camera center lies in the plate plane")
    sigma = 1.0 if c_z > 0.0 else -1.0
    # z of the optical axis (0, 0, 1) in plate coordinates
    axis_z = float(h_ref_cam.rotation[2, 2])
    if axis_z * sigma >= 0.0:
        raise DegenerateViewingGeometry("optical axis points away from the plate plane")
    if abs(axis_z) < _COS_MAX_INCIDENCE:
        raise DegenerateViewingGeometry(
            f"incidence angle beyond {_MAX_INCIDENCE_DEG} degrees"
        )

    hits = _ray_hits(h_ref_cam, model._probe_rays)

    e_z = np.array([0.0, 0.0, sigma])
    row_dir = hits[0] - hits[1]
    row_dir[2] = 0.0  # both hits lie in the plate plane
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
    h_ref_scn = RigidTransform(r_ref_scn, origin, source=frames.SCN, dest=h_cam_ref.source)
    h_scn_ref = invert(h_ref_scn)
    # the corners' plane hits in the scene frame: what map_image_points gives
    # for the corner pixels, without undistorting them a second time
    corner_scn = apply(h_scn_ref, corners)
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
    ended: ``"sigma"`` (the pose is known to 1e-3 of its sigma: the undamped
    Gauss-Newton step would move no pose component by more), ``"step_tol"``
    (the cost is flat to rounding: a trial step fell below the step
    tolerance, or an accepted trial did not lower the cost) or
    ``"no_descent"`` (the damping reached 1e12 while every trial step stayed
    above the tolerance and raised the cost beyond its rounding error).
    ``h_cam_ref`` carries the last accepted rotation, re-orthonormalised only
    if its drift |R^T R - I|_F passes 1e-12 (the rule ``compose`` keeps).
    """

    h_cam_ref: RigidTransform
    rms_px: float
    iterations: int
    stop: str


class _PlateProjection(NamedTuple):
    """Plate points projected at one pose, with the terms of the projection
    that the pose Jacobian reuses: the rotated points ``q = p r^T``, the
    depths ``z``, the undistorted normalized coordinates ``xy``, their
    squared radii ``r2`` and the distortion's scale ``f`` = f(r2)."""

    rc: Array
    q: Array
    z: Array
    xy: Array
    r2: Array
    f: Array


def _project_plate(
    model: CameraModel, ref_pts: Array, r: Array, t: Array
) -> _PlateProjection | None:
    """Project (n, 3) plate points at the pose (r, t); None when a point is
    not in front of the camera. The pixels are ``normalized_to_pixel_array``'s,
    with its distortion written out so that its r^2 and f(r^2) are kept."""
    q = ref_pts @ r.T
    pc = q + t
    z = pc[:, 2]
    if (z <= _MIN_DEPTH_MM).any():
        return None
    xy = pc[:, :2] / z[:, None]
    r2 = (xy * xy).sum(axis=1)
    f = _radial_factor(r2, *model.k)
    return _PlateProjection(model._distorted_to_pixel(xy * f[:, None]), q, z, xy, r2, f)


# d pc / d(dw, dt) = [-[q]x, I] is q @ _SKEW + _EYE, each (3, 6) block flattened row by row
_SKEW = np.zeros((3, 3, 6))
_SKEW[2, 0, 1] = _SKEW[0, 1, 2] = _SKEW[1, 2, 0] = 1.0
_SKEW[1, 0, 2] = _SKEW[2, 1, 0] = _SKEW[0, 2, 1] = -1.0
_SKEW = _SKEW.reshape(3, 18)
_EYE = np.hstack([np.zeros((3, 3)), np.eye(3)])
_SWAP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])  # e_i: the row follows y, the column x


def _pose_jacobian(model: CameraModel, p: _PlateProjection) -> Array:
    """Jacobian of the pixel residual at the pose of the projection ``p``, (2n, 6).

    Columns are the pose update (dw, dt) applied as ``exp([dw]x) r`` and
    ``t + dt``; rows follow the residual order [row0, col0, row1, col1, ...].
    Each point's (2, 6) block is one stacked product ``m c``. Here
    ``c = [-[q]x, I]`` is d pc / d(dw, dt), and the (2, 3) block m chains the
    perspective division ``[I, -(x, y)] / z``, the (2, 2) distortion Jacobian
    ``f I + 2 f' (x, y) (x, y)^T`` with ``f' = df/d(r^2)``, and the pixel
    scale (row from yd, column from xd); r^2 and f are the projection's own.
    Multiplied out, row i of m is
    ``s_i (c_i (2 f' x, 2 f' y, -(f + 2 f' r^2)) + f e_i) / z``, where ``s_i``
    is the axis's pixel scale, ``c_i`` the coordinate it follows (y for the
    row, x for the column) and ``e_i`` the unit vector of that coordinate.
    """
    k1, k2, k3 = model.k
    n = p.z.shape[0]
    scale = model.focal_mm / model._pitch_rc
    iz = 1.0 / p.z
    r2 = p.r2
    f_z = p.f * iz
    fp2_z = (2.0 * k1 + r2 * (4.0 * k2 + 6.0 * k3 * r2)) * iz  # 2 f' / z
    w = np.empty((n, 3))
    w[:, :2] = fp2_z[:, None] * p.xy
    w[:, 2] = -(fp2_z * r2 + f_z)
    m = (p.xy[:, ::-1] * scale)[:, :, None] * w[:, None, :] + f_z[:, None, None] * (
        scale[:, None] * _SWAP
    )
    c = (p.q @ _SKEW).reshape(n, 3, 6) + _EYE
    return (m @ c).reshape(-1, 6)


def _homography_dlt(plane_xy: Array, norm_xy: Array) -> Array:
    """The plate-to-image homography h, h[2, 2] = 1, by the normalised direct
    linear transform (Hartley 1997): the plate and the image points are
    moved to their centroids and scaled to a mean distance of sqrt(2) in one
    pass over the (n, 4) array of both, the 2n x 9 system is built from the
    normalised coordinates, and its null vector is mapped back through the
    plate similarity and the closed-form inverse of the image similarity."""
    pts = np.concatenate([plane_xy, norm_xy], axis=1)
    n = len(pts)
    # sum / n: the arithmetic of mean(axis=0) without its dispatch
    mean = pts.sum(axis=0) / n
    d = pts - mean
    d2 = d * d
    # each set's mean distance from its centroid, rounded as np.linalg.norm(., axis=1) rounds
    dist = np.sqrt(d2[:, 0::2] + d2[:, 1::2]).sum(axis=0) / n
    scale = math.sqrt(2.0) / np.maximum(dist, 1e-12)
    u = d * scale.repeat(2)
    pln, img = u[:, :2], u[:, 2:]

    a = np.zeros((u.shape[0], 2, 9))
    a[:, 0, 0:2] = pln
    a[:, 0, 2] = 1.0
    a[:, 1, 3:5] = pln
    a[:, 1, 5] = 1.0
    a[:, :, 6:8] = -img[:, :, None] * pln[:, None, :]
    a[:, :, 8] = -img
    # the full SVD: four marks give an 8 x 9 system, whose null vector is the ninth row of vt
    _, _, vt = np.linalg.svd(a.reshape(-1, 9))
    # the similarities from Python floats, which round as numpy scalars do
    s_pln, s_img = scale.tolist()
    m_x, m_y, m_u, m_v = mean.tolist()
    t_pln = np.array([[s_pln, 0.0, -s_pln * m_x], [0.0, s_pln, -s_pln * m_y], [0.0, 0.0, 1.0]])
    t_img_inv = np.array([[1.0 / s_img, 0.0, m_u], [0.0, 1.0 / s_img, m_v], [0.0, 0.0, 1.0]])
    h = t_img_inv @ vt[-1].reshape(3, 3) @ t_pln
    return h / h[2, 2]


def _pose_from_homography(h: Array) -> tuple[Array, Array]:
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    lam = 2.0 / (norm(h1) + norm(h2))
    # h[2, 2] = 1 (see _homography_dlt), so t[2] = lam > 0: the plate is in front
    r1, r2, t = lam * h1, lam * h2, lam * h3
    r = nearest_rotation(np.array([r1, r2, cross3(r1, r2)]).T)
    return r, t


def estimate_plate_pose_from_image(
    model: CameraModel, image_points: Array, plate_points: Array
) -> PlateImageFit:
    """Pose of the plate frame in the camera from coplanar marks: their (n, 2)
    image points (row, col) and their (n, 3) points in the plate frame.

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
    projected once (``_project_plate``): that one projection gives the
    residual and, once the trial is accepted, the terms of the next Jacobian,
    so each iteration forms one Jacobian and projects no pose twice. The
    trial rotation ``exp([dw]x) r`` stays orthonormal to rounding, so the
    returned rotation is re-orthonormalised only if its drift |R^T R - I|_F
    passes 1e-12, the rule ``compose`` keeps.

    Each iteration first tests the sigma stop on the accepted pose, from the
    J, g = J^T r and A = J^T J it forms anyway: with the undamped Gauss-Newton
    decrement d = g^T (A + 1e-12 I)^-1 g and s^2 = max(cost / (2n - 6), the
    cost's rounding error), the fit returns that pose with ``stop ==
    "sigma"``, and tries no step, when d < kappa^2 s^2, kappa = 1e-3. By
    Cauchy-Schwarz the Gauss-Newton step then moves each pose component by
    less than kappa times its sigma, sqrt(s^2 (A^-1)_ii). A normal matrix
    singular to working precision (a pose driven toward a camera in the plate
    plane) gives no sigma, and the iteration goes on to its trials. The
    stated tolerance: a sigma stop lies within 1e-2 sigma per component of a
    long-run reference (at most 2.1e-3 sigma on 905 seeded stress views and
    on 100 sessions of 0.25 mm bowed random worlds under glass noise). A
    noiseless fit has s^2 at its rounding floor and usually ends by the
    rules below.
    The fit stops with ``stop == "step_tol"`` when the cost is flat to
    rounding: a trial step falls below 1e-10 in every component, accepted or
    not, or an accepted trial does not lower the cost. It stops with
    ``stop == "no_descent"`` when the damping reaches 1e12 with no trial step
    accepted. The cap is 500 iterations: a poor homography start on a view
    with few marks can take a hundred iterations or more of slow descent.

    Raises:
        ValueError: arrays of other shapes, or a non-finite value.
        DegenerateConfiguration: fewer than 4 marks, non-coplanar references,
            collinear layout, or an initial pose with marks behind the camera.
        NonConvergence: no stop rule met within 500 iterations.
    """
    rc_obs = np.asarray(image_points, dtype=np.float64)
    ref_pts = np.asarray(plate_points, dtype=np.float64)
    # a 0-d array has no length: it fails the shape test below
    sized = rc_obs.ndim > 0 and ref_pts.ndim > 0
    n = len(rc_obs) if sized else 0
    if sized and n < 4:
        raise DegenerateConfiguration(
            f"estimate_plate_pose_from_image: need at least 4 marks, got {n}"
        )
    shapes = sized and rc_obs.shape == (n, 2) and ref_pts.shape == (n, 3)
    if not (shapes and np.isfinite(rc_obs).all() and np.isfinite(ref_pts).all()):
        raise ValueError(
            f"estimate_plate_pose_from_image: need finite (n, 2) image points and (n, 3) "
            f"plate points, got arrays of shape {rc_obs.shape} and {ref_pts.shape}"
        )
    if np.abs(ref_pts[:, 2]).max() > 1e-9:
        raise DegenerateConfiguration(
            "estimate_plate_pose_from_image: reference marks must lie in the plate plane"
        )
    if planar_spread(ref_pts[:, :2]) <= MIN_PLANAR_SPREAD_MM:
        raise DegenerateConfiguration("estimate_plate_pose_from_image: marks are collinear")

    norm_xy = model.pixel_to_normalized_array(rc_obs)
    h = _homography_dlt(ref_pts[:, :2], norm_xy)
    r, t = _pose_from_homography(h)

    projection = _project_plate(model, ref_pts, r, t)
    if projection is None:
        raise DegenerateConfiguration(
            "estimate_plate_pose_from_image: initial pose places marks behind the camera"
        )
    res = (projection.rc - rc_obs).ravel()
    cost = float(res @ res)
    # rounding error of each residual: a few ulp of its pixel coordinate
    res_err = _POSE_RESIDUAL_ERR * np.abs(rc_obs).ravel()
    lam = _POSE_LAMBDA0
    iterations = 0
    # the damped normal matrix a + diag(lam diag(a) + 1e-12), rebuilt in place
    # per trial: a + 0.0 (what adding the diagonal matrix's zeros gives), then
    # the damping added to its diagonal
    damped = np.empty((6, 6))
    damped_diag = damped.reshape(36)[::7]

    for iterations in range(1, _POSE_MAX_ITER + 1):
        jac = _pose_jacobian(model, projection)
        neg_g = -(jac.T @ res)
        a = jac.T @ jac
        diag = a.diagonal()
        cost_err = 2.0 * float(np.abs(res) @ res_err)  # rounding error of the cost
        # the undamped Gauss-Newton decrement g^T (a + 1e-12 I)^-1 g against
        # kappa^2 s^2: below it, no pose component would move by kappa sigma
        try:
            decrement = float(neg_g @ np.linalg.solve(a + _POSE_RIDGE, neg_g))
        except np.linalg.LinAlgError:
            # singular to working precision: some pose component has no sigma
            decrement = math.inf
        if decrement < _POSE_SIGMA_KAPPA**2 * max(cost / (2 * n - 6), cost_err):
            stop = "sigma"
            break
        stop = "no_descent"  # unless a trial step is accepted or falls below tolerance
        while lam < 1e12:
            np.add(a, 0.0, out=damped)
            damped_diag += lam * diag + 1e-12
            try:
                step = np.linalg.solve(damped, neg_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            small = all(-_POSE_STEP_TOL < x < _POSE_STEP_TOL for x in step.tolist())
            r_new = rotation_from_rotvec(step[:3]) @ r
            t_new = t + step[3:]
            trial = _project_plate(model, ref_pts, r_new, t_new)
            if trial is not None:
                res_new = (trial.rc - rc_obs).ravel()
                cost_new = float(res_new @ res_new)
                if cost_new < cost + cost_err:
                    # not above the cost beyond its rounding error: a pose no
                    # worse, and the fit ends unless the cost fell
                    descent = cost_new < cost
                    r, t, cost, res, projection = r_new, t_new, cost_new, res_new, trial
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
    transform = RigidTransform(_renormalized(r), t, source=frames.REF, dest=frames.CAM)
    return PlateImageFit(transform, rms, iterations, stop)
