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

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from . import frames
from .camera import CameraModel, ImagePoint, project_points
from .errors import DegenerateConfiguration, DegenerateMotion, MarkNotVisible, TargetNotVisible
from .geometry import (
    RigidTransform,
    apply,
    compose,
    invert,
    rotation_about_axis,
    rotation_about_x,
    rotation_about_y,
    rotation_about_z,
    triangle_area,
)
from .pipeline import ROBOT_SMR_ID, ReferencingSession, TrackerMeasurement
from .plate import NEST_IDS, ReferencingPlate

Array = NDArray[np.float64]

# substream tags for the counter-based generator
STREAM_SESSION = 0
STREAM_MARK = 1
STREAM_EXPERIMENT = 2
STREAM_WORLD = 3

_SUPPORT_TOL_MM = 1e-12
_SUPPORT_MAX_ITER = 100

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
        plate_amplitude_mm: plate non-planarity amplitude wired to
            inject_wooden_plate by the CLI
    """

    tracker_sigma_mm: float = 0.035
    image_sigma_px: float = 0.0
    nest_offset_error_mm: float = 0.0
    plate_amplitude_mm: float = 0.0

    def __post_init__(self) -> None:
        if self.tracker_sigma_mm < 0.0 or self.image_sigma_px < 0.0:
            raise ValueError("noise sigmas must be non-negative")
        if self.plate_amplitude_mm < 0.0:
            raise ValueError("plate amplitude must be non-negative")


NO_NOISE = NoiseConfig(tracker_sigma_mm=0.0)
GLASS_NOISE = NoiseConfig(tracker_sigma_mm=0.035, image_sigma_px=0.05)


@dataclass(frozen=True)
class RobotModel:
    """Differential-drive robot: smr above the wheel plane, three contacts."""

    smr_height_mm: float
    wheel_contacts_xy_mm: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.smr_height_mm <= 0.0:
            raise ValueError("smr height must be positive")
        if len(self.wheel_contacts_xy_mm) != 3:
            raise ValueError("robot model needs exactly three wheel contacts")
        a, b, c = (np.array([*w, 0.0], dtype=np.float64) for w in self.wheel_contacts_xy_mm)
        area = triangle_area(a, b, c)
        if area < 1e3:
            raise ValueError("wheel contacts are (near-)collinear")
        object.__setattr__(
            self,
            "wheel_contacts_xy_mm",
            tuple((float(x), float(y)) for x, y in self.wheel_contacts_xy_mm),
        )

    @property
    def wheel_contacts_rob(self) -> Array:
        xy = np.array(self.wheel_contacts_xy_mm, dtype=np.float64)
        return np.column_stack([xy, np.full(3, -self.smr_height_mm)])


@dataclass(frozen=True)
class RobotPlacement:
    """Planar robot pose on the supporting surface; z, roll, and pitch follow
    passively from the wheel contacts."""

    x_mm: float
    y_mm: float
    yaw_rad: float


@dataclass(frozen=True)
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
        if self.deformation_amplitude_mm < 0.0:
            raise ValueError("deformation amplitude must be non-negative")

    @property
    def h_abs_ref(self) -> RigidTransform:
        """True plate pose: plate lying flat on the floor, surface z up."""
        r = rotation_about_z(self.plate_yaw_rad) @ rotation_about_x(math.pi)
        t = np.array([self.plate_x_mm, self.plate_y_mm, 0.0])
        return RigidTransform(r, t, source=frames.REF, dest=frames.ABS)

    # --- surfaces -----------------------------------------------------------

    def _plate_uv(self, x: Array, y: Array) -> tuple[Array, Array]:
        c, s = math.cos(-self.plate_yaw_rad), math.sin(-self.plate_yaw_rad)
        dx = np.asarray(x, dtype=np.float64) - self.plate_x_mm
        dy = np.asarray(y, dtype=np.float64) - self.plate_y_mm
        px = c * dx - s * dy
        py = -(s * dx + c * dy)  # plate frame is mirrored about its x-axis
        ex, ey = self.plate.extent_mm
        return (px - ex / 2.0) / (ex / 2.0), (py - ey / 2.0) / (ey / 2.0)

    def surface_rise_pcs(self, px: Array | float, py: Array | float) -> Array | float:
        """Upward plate-surface deviation (mm) at plate coordinates."""
        if self.deformation_amplitude_mm == 0.0:
            return np.zeros_like(np.asarray(px, dtype=np.float64)) + 0.0
        ex, ey = self.plate.extent_mm
        u = (np.asarray(px, dtype=np.float64) - ex / 2.0) / (ex / 2.0)
        v = (np.asarray(py, dtype=np.float64) - ey / 2.0) / (ey / 2.0)
        return self.deformation_amplitude_mm * _deform_shape(u, v) / _DEFORM_PEAK

    def plate_surface_z(self, x: Array | float, y: Array | float) -> Array | float:
        """World height of the plate top surface (flush with the floor plane)."""
        if self.deformation_amplitude_mm == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64)) + 0.0
        u, v = self._plate_uv(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
        inside = (np.abs(u) <= 1.0) & (np.abs(v) <= 1.0)
        rise = self.deformation_amplitude_mm * _deform_shape(u, v) / _DEFORM_PEAK
        return np.where(inside, rise, 0.0)

    def floor_surface_z(self, x: Array | float, y: Array | float) -> Array | float:
        """World height of the experiment floor (possibly inclined)."""
        if self.floor_inclination_rad == 0.0:
            return np.zeros_like(np.asarray(x, dtype=np.float64)) + 0.0
        g = math.tan(self.floor_inclination_rad)
        ca, sa = math.cos(self.floor_azimuth_rad), math.sin(self.floor_azimuth_rad)
        return g * (ca * np.asarray(x, dtype=np.float64) + sa * np.asarray(y, dtype=np.float64))

    # --- true geometry ------------------------------------------------------

    def mark_z_offsets(self) -> dict[str, float]:
        """Per-mark surface deviation of the (possibly deformed) plate, mm."""
        out = {}
        for mark_id, p in self.plate.marks.items():
            out[mark_id] = float(np.asarray(self.surface_rise_pcs(p[0], p[1])))
        return out

    def true_mark_points_ref(self) -> tuple[list[str], Array]:
        """Physical mark positions in plate coordinates (z into the plate)."""
        ids, pts = self.plate.mark_array()
        pts = pts.copy()
        rises = self.mark_z_offsets()
        for i, mark_id in enumerate(ids):
            pts[i, 2] = -rises[mark_id]
        return ids, pts

    def true_smr_points_ref(self, nest_offset_error_mm: float = 0.0) -> Array:
        """Physical seated-smr centers in plate coordinates, all three nests."""
        pts = []
        for nest_id in NEST_IDS:
            nest = self.plate.nests[nest_id].copy()
            rise = float(np.asarray(self.surface_rise_pcs(nest[0], nest[1])))
            nest[2] -= rise  # seat rides on the deformed surface
            nest[2] -= self.plate.delta_mm + nest_offset_error_mm
            pts.append(nest)
        return np.array(pts)


def inject_wooden_plate(world: SimWorld, amplitude_mm: float) -> SimWorld:
    """World with a smooth quadratic plate deformation of the given peak
    amplitude. The fault corrupts the observations; the true hand-eye is
    untouched."""
    if amplitude_mm < 0.0:
        raise ValueError("deformation amplitude must be non-negative")
    return replace(world, deformation_amplitude_mm=amplitude_mm)


# --- robot support pose ------------------------------------------------------


def pose_on_surface(world: SimWorld, placement: RobotPlacement, surface: str) -> RigidTransform:
    """True robot pose with all three wheels on the named surface
    ("plate" or "floor").

    Alternates between fitting the support plane through the wheel contacts
    and reposing the rigid wheel triangle on that plane until the contacts sit
    on the surface within 1e-12 mm.
    """
    surf = world.plate_surface_z if surface == "plate" else world.floor_surface_z
    wheels_xy = np.array(world.robot.wheel_contacts_xy_mm)
    h = world.robot.smr_height_mm
    x0, y0, yaw = placement.x_mm, placement.y_mm, placement.yaw_rad
    heading = np.array([math.cos(yaw), math.sin(yaw), 0.0])

    c, s = math.cos(yaw), math.sin(yaw)
    rot2 = np.array([[c, -s], [s, c]])
    contact_xy = wheels_xy @ rot2.T + [x0, y0]
    contact_z = np.asarray(surf(contact_xy[:, 0], contact_xy[:, 1]), dtype=np.float64)

    for _ in range(_SUPPORT_MAX_ITER):
        # plane z = a x + b y + d through the three contacts
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
        origin = np.array([x0, y0, coeffs[0] * x0 + coeffs[1] * y0 + coeffs[2]])
        t = origin + h * n
        r = np.column_stack([x_r, y_r, n])
        contacts = origin + np.outer(wheels_xy[:, 0], x_r) + np.outer(wheels_xy[:, 1], y_r)
        surf_z = np.asarray(surf(contacts[:, 0], contacts[:, 1]), dtype=np.float64)
        gap = float(np.max(np.abs(surf_z - contacts[:, 2])))
        if gap < _SUPPORT_TOL_MM:
            return RigidTransform(r, t, source=frames.ROB, dest=frames.ABS)
        contact_xy = contacts[:, :2]
        contact_z = surf_z
    raise DegenerateConfiguration(
        f"pose_on_surface: wheel contacts did not settle within {_SUPPORT_MAX_ITER} iterations"
    )


def camera_ground_offset(world: SimWorld) -> Array:
    """Footprint center of the camera principal ray in the robot frame (xy, mm),
    for a robot standing on flat ground."""
    t = world.h_rob_cam_true.translation
    axis = world.h_rob_cam_true.rotation @ np.array([0.0, 0.0, 1.0])
    if axis[2] >= -1e-6:
        raise DegenerateConfiguration("camera_ground_offset: camera does not look down")
    s = (-world.robot.smr_height_mm - t[2]) / axis[2]
    hit = t + s * axis
    return hit[:2].copy()


# --- observation generation ---------------------------------------------------


def _tracker_noise(rng: np.random.Generator, sigma: float) -> Array:
    return rng.normal(0.0, sigma, size=3)


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
        TargetNotVisible: fewer than 4 target marks in the camera view.
    """
    dx = placement1.x_mm - placement0.x_mm
    dy = placement1.y_mm - placement0.y_mm
    if math.hypot(dx, dy) < 1e-9:
        raise DegenerateMotion("simulate_referencing_session: placements coincide")

    rng = rng_substream(world.seed, STREAM_SESSION, trial)
    h_abs_ref = world.h_abs_ref

    # tracker: seated smrs in canonical nest order, then robot positions 0 and 1
    smr_ref = world.true_smr_points_ref(noise.nest_offset_error_mm)
    smr_abs = apply(h_abs_ref, smr_ref)
    tracker: list[TrackerMeasurement] = []
    for i, nest_id in enumerate(NEST_IDS):
        tracker.append(
            TrackerMeasurement(
                nest_id, smr_abs[i] + _tracker_noise(rng, noise.tracker_sigma_mm)
            )
        )
    poses = []
    for index, placement in enumerate((placement0, placement1)):
        h_abs_rob = pose_on_surface(world, placement, "plate")
        poses.append(h_abs_rob)
        tracker.append(
            TrackerMeasurement(
                ROBOT_SMR_ID,
                h_abs_rob.translation + _tracker_noise(rng, noise.tracker_sigma_mm),
                position_index=index,
            )
        )

    # plate-target image at placement 0
    mark_ids, marks_ref = world.true_mark_points_ref()
    marks_abs = apply(h_abs_ref, marks_ref)
    h_cam_abs = invert(compose(poses[0], world.h_rob_cam_true))
    rc, in_front = project_points(world.camera, h_cam_abs, marks_abs)
    observation: list[tuple[str, ImagePoint]] = []
    for i, mark_id in enumerate(mark_ids):
        if not in_front[i]:
            continue
        ip = ImagePoint(rc[i, 0], rc[i, 1])
        if not world.camera.contains(ip):
            continue
        noisy = rc[i] + rng.normal(0.0, noise.image_sigma_px, size=2)
        observation.append((mark_id, ImagePoint(float(noisy[0]), float(noisy[1]))))
    if len(observation) < 4:
        raise TargetNotVisible(
            f"simulate_referencing_session: only {len(observation)} of {len(mark_ids)} "
            f"target marks visible at placement 0"
        )

    return ReferencingSession(
        camera=world.camera,
        plate=world.plate,
        image_observation=tuple(observation),
        tracker=tuple(tracker),
    )


def simulate_mark_observation(
    world: SimWorld,
    noise: NoiseConfig,
    placement: RobotPlacement,
    mark_abs: Array,
    *,
    trial: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[ImagePoint, TrackerMeasurement]:
    """Image point of a floor mark plus the robot smr tracker reading at a
    placement on the experiment floor.

    Raises:
        MarkNotVisible: mark outside the camera view at this placement.
    """
    if rng is None:
        rng = rng_substream(world.seed, STREAM_MARK, trial)
    h_abs_rob = pose_on_surface(world, placement, "floor")
    h_cam_abs = invert(compose(h_abs_rob, world.h_rob_cam_true))
    rc, in_front = project_points(world.camera, h_cam_abs, np.asarray(mark_abs, dtype=np.float64))
    ip_true = ImagePoint(float(rc[0, 0]), float(rc[0, 1])) if in_front[0] else None
    if ip_true is None or not world.camera.contains(ip_true):
        raise MarkNotVisible(
            f"simulate_mark_observation: mark not visible at placement "
            f"({placement.x_mm:.0f}, {placement.y_mm:.0f}, yaw {math.degrees(placement.yaw_rad):.0f} deg)"
        )
    noisy = rc[0] + rng.normal(0.0, noise.image_sigma_px, size=2)
    smr = TrackerMeasurement(
        ROBOT_SMR_ID,
        h_abs_rob.translation + _tracker_noise(rng, noise.tracker_sigma_mm),
        position_index=0,
    )
    return ImagePoint(float(noisy[0]), float(noisy[1])), smr


# --- demo rig ------------------------------------------------------------------


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


def demo_plate() -> ReferencingPlate:
    marks = {}
    for i in range(5):
        for j in range(5):
            marks[f"m{i}{j}"] = np.array(
                [380.0 + 12.0 * (j - 2), 240.0 + 12.0 * (i - 2), 0.0]
            )
    return ReferencingPlate(
        marks=marks,
        nests={
            "r": np.array([45.0, 50.0, 0.0]),
            "g": np.array([555.0, 85.0, 0.0]),
            "b": np.array([280.0, 355.0, 0.0]),
        },
        delta_mm=19.05,
        extent_mm=(600.0, 400.0),
    )


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
    tilt_axis /= np.linalg.norm(tilt_axis)
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


def target_center_ref(world: SimWorld) -> Array:
    _, pts = world.plate.mark_array()
    return pts.mean(axis=0)


def default_placements(
    world: SimWorld, *, reverse: bool = False, travel_mm: float = 220.0
) -> tuple[RobotPlacement, RobotPlacement]:
    """Placement pair covering the plate target at position 0, with the robot
    heading along the plate (reversed heading for instrument-reversal runs)."""
    center = target_center_ref(world)
    center_abs = apply(world.h_abs_ref, center)
    yaw = world.plate_yaw_rad + (math.pi if reverse else 0.0)
    g0 = camera_ground_offset(world)
    c, s = math.cos(yaw), math.sin(yaw)
    rot2 = np.array([[c, -s], [s, c]])
    xy0 = center_abs[:2] - rot2 @ g0
    xy1 = xy0 + travel_mm * np.array([c, s])
    return (
        RobotPlacement(float(xy0[0]), float(xy0[1]), yaw),
        RobotPlacement(float(xy1[0]), float(xy1[1]), yaw),
    )


def ground_truth_poses(
    world: SimWorld, placement0: RobotPlacement, placement1: RobotPlacement
) -> dict[str, RigidTransform]:
    """True transforms for a session, for embedding as file provenance."""
    return {
        "rob_H_cam": world.h_rob_cam_true,
        "abs_H_ref": world.h_abs_ref,
        "abs_H_rob_0": pose_on_surface(world, placement0, "plate"),
        "abs_H_rob_1": pose_on_surface(world, placement1, "plate"),
    }


def experiment_placement(
    world: SimWorld, mark_abs: Array, yaw_rad: float, offset_xy: Iterable[float]
) -> RobotPlacement:
    """Placement putting the mark near the camera footprint center plus an
    offset, using the true rig geometry."""
    g0 = camera_ground_offset(world)
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    rot2 = np.array([[c, -s], [s, c]])
    off = np.asarray(tuple(offset_xy), dtype=np.float64)
    xy = np.asarray(mark_abs, dtype=np.float64)[:2] + off - rot2 @ g0
    return RobotPlacement(float(xy[0]), float(xy[1]), yaw_rad)
