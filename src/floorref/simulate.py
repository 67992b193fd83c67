"""Deterministic synthetic rig with known ground truth.

Generates tracker measurements, plate-target image observations, and robot
motion for referencing sessions and mark-measurement experiments. The world
holds the true hand-eye transform; faults (plate non-planarity, nest offset
error, floor inclination) corrupt the observations, never the truth, so every
downstream estimate can be scored against it.

Rig geometry values (plate size, camera height, mark layout) are demo choices
of this simulator, not measured properties of any physical system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import frames
from .camera import CameraModel, project_points
from .errors import (
    DegenerateConfiguration,
    DegenerateMotion,
    FloorRefError,
    MarkNotVisible,
    TargetNotVisible,
)
from .geometry import (
    RigidTransform,
    apply,
    compose,
    compose_rotations,
    cross3,
    invert,
    norm,
    rotation_about_axis,
    rotation_about_x,
    rotation_about_y,
    rotation_about_z,
    rotations_about_z,
    triangle_area,
)
from .pipeline import ReferencingSession
from .plate import NEST_IDS, ReferencingPlate

Array = NDArray[np.float64]

# substream tags for the counter-based generator
STREAM_SESSION = 0
STREAM_MARK = 1
STREAM_EXPERIMENT = 2
STREAM_WORLD = 3

_SUPPORT_TOL_MM = 1e-12
_SUPPORT_MAX_ITER = 100
_TRAVEL_MM = 220.0  # robot travel between the two placements of a session

# saddle-shaped non-planarity over normalized plate coordinates; scaled so the
# configured amplitude is the peak |z| deviation over the plate
_DEFORM_CU = 0.55
_DEFORM_CUV = 0.85
_DEFORM_CV = -0.6


def _deform_shape(u: Array | float, v: Array | float) -> Array | float:
    return _DEFORM_CU * u * u + _DEFORM_CUV * u * v + _DEFORM_CV * v * v


def _deform_peak() -> float:
    grid = np.linspace(-1.0, 1.0, 201)
    uu, vv = np.meshgrid(grid, grid)
    return float(np.max(np.abs(_deform_shape(uu, vv))))


_DEFORM_PEAK = _deform_peak()


def rng_substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise and fault knobs.

    Attributes:
        tracker_sigma_mm: isotropic tracker noise (default matches a mid-range
            laser tracker specified below 35 um)
        image_sigma_px: detection noise on image points
        nest_offset_error_mm: systematic error on the seated smr z-offset

    The plate non-planarity is a property of the world
    (``SimWorld.deformation_amplitude_mm``), not of the noise.
    """

    tracker_sigma_mm: float = 0.035
    image_sigma_px: float = 0.0
    nest_offset_error_mm: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tracker_sigma_mm", "image_sigma_px", "nest_offset_error_mm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tracker_sigma_mm < 0.0 or self.image_sigma_px < 0.0:
            raise ValueError("noise sigmas must be non-negative")


NO_NOISE = NoiseConfig(tracker_sigma_mm=0.0)
GLASS_NOISE = NoiseConfig(tracker_sigma_mm=0.035, image_sigma_px=0.05)


@dataclass(frozen=True)
class RobotModel:
    """Differential-drive robot: smr above the wheel plane, three contacts."""

    smr_height_mm: float
    wheel_contacts_xy_mm: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.smr_height_mm):
            raise ValueError(f"smr_height_mm must be finite, got {self.smr_height_mm}")
        if self.smr_height_mm <= 0.0:
            raise ValueError("smr height must be positive")
        if len(self.wheel_contacts_xy_mm) != 3:
            raise ValueError("robot model needs exactly three wheel contacts")
        a, b, c = (np.array([*w, 0.0], dtype=np.float64) for w in self.wheel_contacts_xy_mm)
        area = triangle_area(a, b, c)
        if not math.isfinite(area):
            raise ValueError("wheel contact triangle area overflows the float range")
        if area < 1e3:
            raise ValueError("wheel contacts are (near-)collinear")
        object.__setattr__(
            self,
            "wheel_contacts_xy_mm",
            tuple((float(x), float(y)) for x, y in self.wheel_contacts_xy_mm),
        )


@dataclass(frozen=True)
class RobotPlacement:
    """Planar robot pose on the supporting surface; z, roll, and pitch follow
    passively from the wheel contacts."""

    x_mm: float
    y_mm: float
    yaw_rad: float


@dataclass(frozen=True, eq=False)
class SimWorld:
    """Synthetic rig: true hand-eye, true plate pose, robot, faults, seed."""

    camera: CameraModel
    plate: ReferencingPlate
    robot: RobotModel
    h_rob_cam_true: RigidTransform
    plate_x_mm: float
    plate_y_mm: float
    plate_yaw_rad: float
    floor_inclination_rad: float = 0.0
    floor_azimuth_rad: float = 0.0
    deformation_amplitude_mm: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.h_rob_cam_true.source != frames.CAM or self.h_rob_cam_true.dest != frames.ROB:
            raise ValueError("ground-truth hand-eye must map cam -> rob")
        if not math.isfinite(self.deformation_amplitude_mm):
            raise ValueError(f"deformation_amplitude_mm must be finite, got {self.deformation_amplitude_mm}")
        if self.deformation_amplitude_mm < 0.0:
            raise ValueError("deformation amplitude must be non-negative")

    @functools.cached_property
    def h_abs_ref(self) -> RigidTransform:
        """True plate pose: plate lying flat on the floor, surface z up."""
        r = rotation_about_z(self.plate_yaw_rad) @ rotation_about_x(math.pi)
        t = np.array([self.plate_x_mm, self.plate_y_mm, 0.0])
        return RigidTransform(r, t, source=frames.REF, dest=frames.ABS)

    @functools.cached_property
    def _marks_abs(self) -> Array:
        # the physical marks in the tracker frame, read-only: each plate mark
        # lifted by the surface's rise (plate z points into the plate)
        pts = self.plate.mark_points.copy()
        pts[:, 2] = -np.asarray(self.surface_rise_pcs(pts[:, 0], pts[:, 1]))
        marks = apply(self.h_abs_ref, pts)
        marks.setflags(write=False)
        return marks

    @functools.cached_property
    def camera_ground_offset(self) -> Array:
        """Footprint center of the camera principal ray in the robot frame (xy,
        mm), for a robot standing on flat ground; read-only, computed once.

        Raises:
            DegenerateConfiguration: the camera does not look down.
        """
        t = self.h_rob_cam_true.translation
        axis = self.h_rob_cam_true.rotation @ np.array([0.0, 0.0, 1.0])
        if axis[2] >= -1e-6:
            raise DegenerateConfiguration("camera_ground_offset: camera does not look down")
        s = (-self.robot.smr_height_mm - t[2]) / axis[2]
        offset = (t + s * axis)[:2].copy()
        offset.setflags(write=False)
        return offset

    # --- surfaces -----------------------------------------------------------

    def surface_rise_pcs(self, px: Array | float, py: Array | float) -> Array | float:
        """Upward plate-surface deviation (mm) at plate coordinates."""
        if self.deformation_amplitude_mm == 0.0:
            return np.zeros_like(np.asarray(px, dtype=np.float64)) + 0.0
        return self._rise(np.asarray(px, dtype=np.float64), np.asarray(py, dtype=np.float64))

    def _rise(self, px: Array, py: Array) -> Array:
        # surface_rise_pcs of a deformed plate, on float arrays
        ex, ey = self.plate.extent_mm
        u = (px - ex / 2.0) / (ex / 2.0)
        v = (py - ey / 2.0) / (ey / 2.0)
        return self.deformation_amplitude_mm * _deform_shape(u, v) / _DEFORM_PEAK

    def plate_surface_z(self, x: Array | float, y: Array | float) -> Array | float:
        """World height of the plate top surface (flush with the floor plane):
        the plate's rise where (x, y) lies on its extent, 0 off it."""
        if self.deformation_amplitude_mm == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64)) + 0.0
        c, s = math.cos(-self.plate_yaw_rad), math.sin(-self.plate_yaw_rad)
        dx = np.asarray(x, dtype=np.float64) - self.plate_x_mm
        dy = np.asarray(y, dtype=np.float64) - self.plate_y_mm
        px = c * dx - s * dy
        py = -(s * dx + c * dy)  # plate frame is mirrored about its x-axis
        ex, ey = self.plate.extent_mm
        inside = (0.0 <= px) & (px <= ex) & (0.0 <= py) & (py <= ey)
        return np.where(inside, self._rise(px, py), 0.0)

    def floor_surface_z(self, x: Array | float, y: Array | float) -> Array | float:
        """World height of the experiment floor (possibly inclined)."""
        if self.floor_inclination_rad == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64)) + 0.0
        g = math.tan(self.floor_inclination_rad)
        ca, sa = math.cos(self.floor_azimuth_rad), math.sin(self.floor_azimuth_rad)
        return g * (ca * np.asarray(x, dtype=np.float64) + sa * np.asarray(y, dtype=np.float64))

    # --- true geometry ------------------------------------------------------

    def true_smr_points_ref(self, nest_offset_error_mm: float) -> Array:
        """Physical seated-smr centers in plate coordinates, all three nests."""
        pts = self.plate.nest_points.copy()
        pts[:, 2] -= self.surface_rise_pcs(pts[:, 0], pts[:, 1])  # seats ride on the deformed surface
        pts[:, 2] -= self.plate.delta_mm + nest_offset_error_mm
        return pts


def inject_wooden_plate(world: SimWorld, amplitude_mm: float) -> SimWorld:
    """World with a smooth quadratic plate deformation of the given peak
    amplitude (``SimWorld`` rejects a negative one). The fault corrupts the
    observations; the true hand-eye is untouched. A world config sets the same
    amplitude through ``noise.plate_amplitude_mm``."""
    return replace(world, deformation_amplitude_mm=amplitude_mm)


# --- robot support pose ------------------------------------------------------


class SupportPoses(NamedTuple):
    """True robot poses for a stack of placements on one surface.

    ``rotation`` (n, 3, 3) and ``translation`` (n, 3) map robot to tracker
    coordinates, and ``error`` holds, per row, None or the
    ``DegenerateConfiguration`` the row fails with (singular contact plane, or
    contacts not settled within 100 iterations). A failed row's pose is NaN.
    """

    rotation: Array
    translation: Array
    error: tuple[DegenerateConfiguration | None, ...]


@np.errstate(over="ignore", invalid="ignore")
def support_poses(world: SimWorld, xy: Array, rz: Array, surface: str) -> SupportPoses:
    """True robot poses with all three wheels on the named surface ("plate"
    or "floor"), for (n, 2) robot positions and the (n, 3, 3) rotations
    ``rotations_about_z`` gives for their headings (the caller builds them
    once and may share them).

    Each row alternates between fitting the support plane through its wheel
    contacts and reposing the rigid wheel triangle on that plane until the
    contacts sit on the surface within 1e-12 mm. A row that has settled keeps
    its contacts, so it repeats its settling iteration bit for bit until every
    row has settled or failed; the poses are the last iteration's arrays. Every
    operation is taken row by row, so each row equals a one-row call. A row
    that overflows (a surface near the float range) fails alone, with no numpy
    warning.
    """
    surf = world.plate_surface_z if surface == "plate" else world.floor_surface_z
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    x0, y0 = xy[:, 0], xy[:, 1]
    n_rows = rz.shape[0]
    wheels_xy = np.array(world.robot.wheel_contacts_xy_mm)
    wheel_x, wheel_y = wheels_xy[None, :, 0, None], wheels_xy[None, :, 1, None]
    h = world.robot.smr_height_mm

    heading = np.ascontiguousarray(rz[:, :, 0])
    # rows (x, y, 1) of the three contacts, for the plane z = a x + b y + d
    a_mat = np.ones((n_rows, 3, 3))
    a_mat[..., :2] = wheels_xy @ np.swapaxes(np.ascontiguousarray(rz[:, :2, :2]), 1, 2)
    a_mat[..., :2] += xy[:, None, :]
    contact_z = np.asarray(surf(a_mat[..., 0], a_mat[..., 1]), dtype=np.float64)
    origin = np.empty((n_rows, 3))
    origin[:, :2] = xy

    error: list[DegenerateConfiguration | None] = [None] * n_rows
    failed = np.zeros(n_rows, dtype=bool)  # a singular contact plane; its contacts stay
    for _ in range(_SUPPORT_MAX_ITER):
        try:
            coeffs = np.linalg.solve(a_mat, contact_z[..., None])[..., 0]
        except np.linalg.LinAlgError:
            coeffs = np.full((n_rows, 3), np.nan)
            for k in range(n_rows):
                try:
                    coeffs[k] = np.linalg.solve(a_mat[k], contact_z[k])
                except np.linalg.LinAlgError as e:
                    error[k] = DegenerateConfiguration(f"pose_on_surface: contact plane singular: {e}")
                    failed[k] = True
        # row_dots inline: the same stacked vector products on the same
        # contiguous rows; the frame's columns x_r, y_r, n written in place
        n = np.ones((n_rows, 3))
        n[:, :2] = -coeffs[:, :2]
        n /= np.sqrt((n[:, None, :] @ n[:, :, None])[:, 0])
        x_r = heading - (heading[:, None, :] @ n[:, :, None])[:, 0] * n
        x_r /= np.sqrt((x_r[:, None, :] @ x_r[:, :, None])[:, 0])
        frame = np.empty((n_rows, 3, 3))
        frame[:, :, 0] = x_r
        frame[:, :, 1] = y_r = cross3(n.T, x_r.T).T
        frame[:, :, 2] = n
        origin[:, 2] = coeffs[:, 0] * x0 + coeffs[:, 1] * y0 + coeffs[:, 2]
        contacts = origin[:, None, :] + wheel_x * x_r[:, None, :] + wheel_y * y_r[:, None, :]
        surf_z = np.asarray(surf(contacts[..., 0], contacts[..., 1]), dtype=np.float64)
        settled = np.abs(surf_z - contacts[..., 2]).max(axis=1) < _SUPPORT_TOL_MM
        moving = ~(settled | failed)
        if not moving.any():
            break
        a_mat[moving, :, :2] = contacts[moving, :, :2]
        contact_z[moving] = surf_z[moving]
    for i in np.flatnonzero(moving):
        error[i] = DegenerateConfiguration(
            f"pose_on_surface: wheel contacts did not settle within {_SUPPORT_MAX_ITER} iterations"
        )
    translation = origin + h * n
    frame[~settled] = translation[~settled] = np.nan
    return SupportPoses(frame, translation, tuple(error))


def _support_pose(poses: SupportPoses, i: int) -> RigidTransform:
    # row i of a support_poses result as a robot pose, or its error raised
    if poses.error[i] is not None:
        raise poses.error[i]
    return RigidTransform(
        poses.rotation[i], poses.translation[i], source=frames.ROB, dest=frames.ABS
    )


def pose_on_surface(world: SimWorld, placement: RobotPlacement, surface: str) -> RigidTransform:
    """True robot pose with all three wheels on the named surface
    ("plate" or "floor"): the one-row case of ``support_poses``.

    Raises:
        DegenerateConfiguration: singular contact plane, or contacts not
            settled within 100 iterations.
    """
    poses = support_poses(
        world,
        np.array([[placement.x_mm, placement.y_mm]]),
        rotations_about_z([placement.yaw_rad]),
        surface,
    )
    return _support_pose(poses, 0)


# --- observation generation ---------------------------------------------------


def simulate_referencing_session(
    world: SimWorld,
    noise: NoiseConfig,
    placement0: RobotPlacement,
    placement1: RobotPlacement,
    *,
    trial: int = 0,
) -> ReferencingSession:
    """One complete synthetic referencing run.

    Tracker points for the three seated smrs and the robot smr at both
    placements, plus the plate-target image observation captured at placement
    0, all with configured noise applied. Identical (world, noise, placements,
    trial) yield bit-identical sessions.

    Raises:
        DegenerateMotion: coincident placements.
        DegenerateConfiguration: a placement without a settled support pose.
        TargetNotVisible: fewer than 4 target marks in the camera view.
    """
    return _simulate_session(world, noise, placement0, placement1, trial)[0]


def simulate_session_with_truth(
    world: SimWorld,
    noise: NoiseConfig,
    placement0: RobotPlacement,
    placement1: RobotPlacement,
) -> tuple[ReferencingSession, dict[str, RigidTransform]]:
    """``simulate_referencing_session`` of trial 0 together with the session's
    true transforms (``rob_H_cam``, ``abs_H_ref``, ``abs_H_rob_0``,
    ``abs_H_rob_1``), for embedding as file provenance. Both robot poses come
    from one two-row ``support_poses`` call; each equals ``pose_on_surface``
    on the plate.

    Raises:
        DegenerateMotion, DegenerateConfiguration, TargetNotVisible: as
            ``simulate_referencing_session``.
    """
    session, both, pose0 = _simulate_session(world, noise, placement0, placement1, 0)
    truth = {
        "rob_H_cam": world.h_rob_cam_true,
        "abs_H_ref": world.h_abs_ref,
        "abs_H_rob_0": pose0,
        "abs_H_rob_1": _support_pose(both, 1),
    }
    return session, truth


def _simulate_session(
    world: SimWorld,
    noise: NoiseConfig,
    placement0: RobotPlacement,
    placement1: RobotPlacement,
    trial: int,
) -> tuple[ReferencingSession, SupportPoses, RigidTransform]:
    # the session, both support poses and the robot pose at placement 0; the
    # pose at placement 1 gives only its tracker point, so it is built as a
    # transform only for the truth, but its error is raised here
    dx = placement1.x_mm - placement0.x_mm
    dy = placement1.y_mm - placement0.y_mm
    if math.hypot(dx, dy) < 1e-9:
        raise DegenerateMotion("simulate_referencing_session: placements coincide")

    rng = rng_substream(world.seed, STREAM_SESSION, trial)
    h_abs_ref = world.h_abs_ref

    # tracker: seated smrs in canonical nest order, then robot positions 0 and
    # 1; their noise in one draw (the same stream as one draw per point)
    tracker_noise = rng.normal(0.0, noise.tracker_sigma_mm, size=(len(NEST_IDS) + 2, 3))
    smr_ref = world.true_smr_points_ref(noise.nest_offset_error_mm)
    nest_points = apply(h_abs_ref, smr_ref) + tracker_noise[: len(NEST_IDS)]
    both = support_poses(
        world,
        np.array([[placement0.x_mm, placement0.y_mm], [placement1.x_mm, placement1.y_mm]]),
        rotations_about_z([placement0.yaw_rad, placement1.yaw_rad]),
        "plate",
    )
    pose0 = _support_pose(both, 0)
    if both.error[1] is not None:
        raise both.error[1]
    robot_points = both.translation + tracker_noise[len(NEST_IDS) :]

    # plate-target image at placement 0
    mark_ids = world.plate.mark_ids
    h_cam_abs = invert(compose(pose0, world.h_rob_cam_true))
    rc, in_front = project_points(world.camera, apply(h_cam_abs, world._marks_abs))
    # noise is drawn for each mark whose true point is on the sensor, in mark
    # order and in one call (the same stream as one draw per mark); a mark
    # whose noisy point falls off the sensor is not observed
    visible = np.flatnonzero(in_front & world.camera.contains_points(rc))
    noisy = rc[visible] + rng.normal(0.0, noise.image_sigma_px, size=(visible.size, 2))
    on_sensor = world.camera.contains_points(noisy)
    seen = visible[on_sensor]
    if seen.size < 4:
        raise TargetNotVisible(
            f"simulate_referencing_session: only {seen.size} of {len(mark_ids)} "
            f"target marks visible at placement 0"
        )

    session = ReferencingSession(
        camera=world.camera,
        plate=world.plate,
        mark_ids=tuple(mark_ids[i] for i in seen.tolist()),
        image_points=noisy[on_sensor],
        nest_points=nest_points,
        robot_points=robot_points,
    )
    return session, both, pose0


class MarkViews(NamedTuple):
    """Noise-free views of one floor mark from a stack of placements.

    ``rowcol`` (n, 2) holds the true image points (NaN behind the camera),
    ``smr_abs`` (n, 3) the true robot smr positions, and ``error`` per row None
    or the error the row fails with: ``DegenerateConfiguration`` from its
    support pose or ``MarkNotVisible``.
    """

    rowcol: Array
    smr_abs: Array
    error: tuple[FloorRefError | None, ...]


def mark_views(
    world: SimWorld, xy: Array, rz: Array, yaw_rad: Sequence[float] | Array, mark_abs: Array
) -> MarkViews:
    """True image points of a floor mark seen from (n, 2) robot positions on
    the experiment floor, each row equal to a one-row call. The headings come
    as their (n, 3, 3) ``rotations_about_z`` stack, which the support poses
    use, and as (n,) angles in radians, which only a ``MarkNotVisible``
    message reads.

    The camera pose of each row is ``invert(compose(support pose, true
    hand-eye))`` taken row by row; the mark goes into every camera frame and
    then through one projection.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    support = support_poses(world, xy, rz, "floor")
    h_rob_cam = world.h_rob_cam_true
    # h_abs_cam = compose(h_abs_rob, h_rob_cam), then its inverse applied to the mark
    r_abs_cam = compose_rotations(support.rotation, h_rob_cam.rotation)
    t_abs_cam = (support.rotation @ h_rob_cam.translation[:, None])[..., 0] + support.translation
    t_cam_abs = -(np.swapaxes(r_abs_cam, 1, 2) @ t_abs_cam[..., None])[..., 0]
    mark = np.asarray(mark_abs, dtype=np.float64).reshape(1, 1, 3)
    p_cam = (mark @ r_abs_cam)[:, 0] + t_cam_abs
    rc, in_front = project_points(world.camera, p_cam)
    visible = in_front & world.camera.contains_points(rc)
    error: list[FloorRefError | None] = list(support.error)
    for i in np.flatnonzero(~visible):
        if error[i] is None:
            error[i] = MarkNotVisible(
                f"simulate_mark_observation: mark not visible at placement "
                f"({xy[i, 0]:.0f}, {xy[i, 1]:.0f}, yaw {math.degrees(yaw_rad[i]):.0f} deg)"
            )
    return MarkViews(rc, support.translation, tuple(error))


def simulate_mark_observation(
    world: SimWorld,
    noise: NoiseConfig,
    placement: RobotPlacement,
    mark_abs: Array,
) -> tuple[Array, Array]:
    """Image point (row, col) of a floor mark plus the robot smr tracker point
    at a placement on the experiment floor (a one-row ``mark_views`` plus
    noise from the mark stream of trial 0).

    Raises:
        MarkNotVisible: mark outside the camera view at this placement.
        DegenerateConfiguration: no settled support pose.
    """
    rng = rng_substream(world.seed, STREAM_MARK, 0)
    yaw = [placement.yaw_rad]
    views = mark_views(
        world, np.array([[placement.x_mm, placement.y_mm]]), rotations_about_z(yaw), yaw, mark_abs
    )
    if views.error[0] is not None:
        raise views.error[0]
    rowcol = views.rowcol[0] + rng.normal(0.0, noise.image_sigma_px, size=2)
    smr = views.smr_abs[0] + rng.normal(0.0, noise.tracker_sigma_mm, size=3)
    return rowcol, smr


# --- demo rig ------------------------------------------------------------------
# Each part is built and checked once per process, on first use; the values
# are immutable, so every world shares them.


@functools.cache
def demo_camera() -> CameraModel:
    return CameraModel(
        focal_mm=12.0,
        sx_mm=0.00345,
        sy_mm=0.00345,
        cx_px=1224.0,
        cy_px=1024.0,
        k=(-0.03, 0.0005, 0.0),
        rows=2048,
        cols=2448,
    )


@functools.cache
def demo_plate() -> ReferencingPlate:
    grid = [(i, j) for i in range(5) for j in range(5)]
    return ReferencingPlate(
        mark_ids=tuple(f"m{i}{j}" for i, j in grid),
        mark_points=[[380.0 + 12.0 * (j - 2), 240.0 + 12.0 * (i - 2), 0.0] for i, j in grid],
        nest_points=[[45.0, 50.0, 0.0], [555.0, 85.0, 0.0], [280.0, 355.0, 0.0]],
        delta_mm=19.05,
        extent_mm=(600.0, 400.0),
    )


@functools.cache
def demo_robot() -> RobotModel:
    return RobotModel(
        smr_height_mm=400.0,
        wheel_contacts_xy_mm=((0.0, 120.0), (0.0, -120.0), (160.0, 0.0)),
    )


def demo_hand_eye() -> RigidTransform:
    base = rotation_about_x(math.pi)
    tweak = (
        rotation_about_z(0.12)
        @ rotation_about_x(0.010)
        @ rotation_about_y(-0.014)
    )
    return RigidTransform(
        base @ tweak, np.array([170.0, 25.0, -250.0]), source=frames.CAM, dest=frames.ROB
    )


def demo_world(seed: int = 0) -> SimWorld:
    return SimWorld(
        camera=demo_camera(),
        plate=demo_plate(),
        robot=demo_robot(),
        h_rob_cam_true=demo_hand_eye(),
        plate_x_mm=0.0,
        plate_y_mm=0.0,
        plate_yaw_rad=0.0,
        seed=seed,
    )


def random_world(seed: int) -> SimWorld:
    """Demo rig with randomized true hand-eye and plate pose (per-seed truth)."""
    rng = rng_substream(seed, STREAM_WORLD)
    tilt_axis = rng.normal(size=3)
    tilt_axis[2] = 0.0
    tilt_axis /= norm(tilt_axis)
    tilt = rotation_about_axis(tilt_axis, rng.uniform(-0.025, 0.025))
    spin = rotation_about_z(rng.uniform(-math.pi, math.pi))
    r = rotation_about_x(math.pi) @ spin @ tilt
    t = np.array([170.0, 25.0, -250.0]) + rng.uniform(-10.0, 10.0, size=3)
    hand_eye = RigidTransform(r, t, source=frames.CAM, dest=frames.ROB)
    return SimWorld(
        camera=demo_camera(),
        plate=demo_plate(),
        robot=demo_robot(),
        h_rob_cam_true=hand_eye,
        plate_x_mm=float(rng.uniform(-1500.0, 1500.0)),
        plate_y_mm=float(rng.uniform(-1500.0, 1500.0)),
        plate_yaw_rad=float(rng.uniform(-math.pi, math.pi)),
        seed=seed,
    )


def default_placements(
    world: SimWorld, *, reverse: bool = False
) -> tuple[RobotPlacement, RobotPlacement]:
    """Placement pair covering the plate target at position 0, with the robot
    heading along the plate (reversed heading for instrument-reversal runs).

    Raises:
        ValueError: a plate without marks.
    """
    center = world.plate._mark_center
    if center is None:
        raise ValueError("default_placements: the plate has no marks to cover")
    center_abs = apply(world.h_abs_ref, center)
    yaw = world.plate_yaw_rad + (math.pi if reverse else 0.0)
    g0 = world.camera_ground_offset
    c, s = math.cos(yaw), math.sin(yaw)
    rot2 = np.array([[c, -s], [s, c]])
    xy0 = center_abs[:2] - rot2 @ g0
    xy1 = xy0 + _TRAVEL_MM * np.array([c, s])
    return (
        RobotPlacement(float(xy0[0]), float(xy0[1]), yaw),
        RobotPlacement(float(xy1[0]), float(xy1[1]), yaw),
    )


def experiment_placements(
    world: SimWorld, mark_abs: Array, rz: Array, offset_xy: Array
) -> Array:
    """Robot positions (n, 2) putting the mark near the camera footprint
    center plus (n, 2) offsets, at the headings of an (n, 3, 3)
    ``rotations_about_z`` stack, using the true rig geometry."""
    g0 = world.camera_ground_offset
    rot2 = np.ascontiguousarray(rz[:, :2, :2])
    off = np.asarray(offset_xy, dtype=np.float64).reshape(-1, 2)
    return np.asarray(mark_abs, dtype=np.float64)[:2] + off - rot2 @ g0


def experiment_placement(
    world: SimWorld, mark_abs: Array, yaw_rad: float, offset_xy: Iterable[float]
) -> RobotPlacement:
    """Placement putting the mark near the camera footprint center plus an
    offset, using the true rig geometry (one row of ``experiment_placements``)."""
    xy = experiment_placements(world, mark_abs, rotations_about_z([yaw_rad]), [tuple(offset_xy)])[0]
    return RobotPlacement(float(xy[0]), float(xy[1]), yaw_rad)
