"""The referencing pipeline: plate pose, robot pose, and their composition into
the robot-to-camera transform.

One referencing run consumes a session (tracker points, one plate image, two
robot positions), estimates the camera-over-plate pose from the image, builds
the scene frame, registers the plate reflector points into the tracker frame,
assembles the robot basis from the plate normal and the displacement between
the two robot positions, and composes everything into the hand-eye transform.
Every stage's residual is kept on the result so systematic faults remain
attributable afterwards.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import frames
from .camera import CameraModel, SceneFrame, build_rectification_map, estimate_plate_pose_from_image
from .errors import DegenerateConfiguration, DegenerateMotion, FloorRefError, InconsistentRuns
from .geometry import (
    RigidTransform,
    apply,
    as_point3,
    chordal_mean,
    compose,
    cross3,
    invert,
    norm,
    register_points,
    transform_gap,
    triangle_area,
)
from .plate import MIN_NEST_TRIANGLE_MM2, ReferencingPlate, smr_points

log = logging.getLogger(__name__)

Array = NDArray[np.float64]

MIN_DISPLACEMENT_MM = 50.0
MIN_PROJECTED_DISPLACEMENT_MM = 10.0
SUSPECT_REGISTRATION_RMS_MM = 0.5
REVERSAL_MAX_TRANSLATION_MM = 2.0
REVERSAL_MAX_ROTATION_RAD = np.radians(1.0)


class OffSensorPoint(ValueError):
    """A session's image point off its camera's sensor; ``index`` is its row
    of ``image_points``, so a decoder can name the entry it read it from."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class ReferencingSession:
    """The measurements of one referencing run. The constructor checks them
    (``ValueError``; ``MarkNotOnPlate`` for an id not on the plate,
    ``OffSensorPoint`` for an image point off the sensor)
    and stores the arrays as read-only float copies. It also keeps the plate
    points of the observed marks, in ``mark_ids`` order, which its check of
    the ids looks up, for the image fit.

    Attributes:
        camera: calibrated camera model
        plate: measured referencing plate (template marks, measured nests)
        mark_ids: ids of the observed marks, each on the plate and listed once
        image_points: (n, 2) image points (row, col) of those marks on the
            camera's sensor, captured at robot position 0
        nest_points: (3, 3) finite tracker points of the smrs seated in nests
            r, g and b
        robot_points: (2, 3) finite tracker points of the robot smr at
            positions 0 and 1
    """

    camera: CameraModel
    plate: ReferencingPlate
    mark_ids: tuple[str, ...]
    image_points: Array
    nest_points: Array
    robot_points: Array

    def __post_init__(self) -> None:
        mark_ids = tuple(self.mark_ids)
        if len(set(mark_ids)) != len(mark_ids):
            raise ValueError("mark ids must be listed once each")
        mark_points = self.plate.mark_points[self.plate.mark_rows(mark_ids)]
        mark_points.setflags(write=False)
        object.__setattr__(self, "_mark_points", mark_points)
        object.__setattr__(self, "mark_ids", mark_ids)
        shapes = {"image_points": (len(mark_ids), 2), "nest_points": (3, 3), "robot_points": (2, 3)}
        for name, shape in shapes.items():
            a = np.array(getattr(self, name), dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        off = np.flatnonzero(~self.camera.contains_points(self.image_points))
        if off.size:
            row, col = self.image_points[off[0]].tolist()
            raise OffSensorPoint(
                f"image point {off[0]} (row {row}, col {col}) is off the "
                f"{self.camera.rows}x{self.camera.cols} px sensor",
                int(off[0]),
            )


class PlatePoseEstimate(NamedTuple):
    """Plate pose in the tracker frame with its diagnostics and intermediates."""

    h_abs_scn: RigidTransform
    registration_rms_mm: float
    suspect: bool
    reprojection_rms_px: float
    scene: SceneFrame


@dataclass(frozen=True, eq=False)
class ReferencingResult:
    """Hand-eye calibration result with all chain intermediates and residuals.

    ``h_rob_cam`` of a pipeline result (``from_chain``) is the exact
    composition of the stored intermediates; an averaged or loaded result
    stores its hand-eye as given. ``h_rob_scn`` (scene to robot) is derived
    from ``h_rob_cam`` and ``scene`` either way, so a hand-eye swapped in with
    ``dataclasses.replace`` carries its own. The camera pose over the plate is
    ``scene.h_cam_ref``.
    """

    h_rob_cam: RigidTransform
    scene: SceneFrame
    h_abs_scn: RigidTransform
    h_abs_rob: RigidTransform
    registration_rms_mm: float
    reprojection_rms_px: float
    suspect: bool
    reversal_of: tuple["ReferencingResult", "ReferencingResult"] | None = None

    @classmethod
    def from_chain(cls, plate: PlatePoseEstimate, h_abs_rob: RigidTransform) -> "ReferencingResult":
        h_rob_cam = compose(compose(invert(h_abs_rob), plate.h_abs_scn), plate.scene.h_scn_cam)
        return cls(h_rob_cam=h_rob_cam, h_abs_rob=h_abs_rob, **plate._asdict())

    @functools.cached_property
    def h_rob_scn(self) -> RigidTransform:
        return compose(self.h_rob_cam, invert(self.scene.h_scn_cam))


def plate_normal(
    p_r: Sequence[float] | Array,
    p_g: Sequence[float] | Array,
    p_b: Sequence[float] | Array,
    camera_axis: Sequence[float] | Array,
) -> Array:
    """Unit normal of the plate surface from the three tracker points, directed
    against the camera's viewing direction.

    The raw cross product (P_b - P_r) x (P_g - P_r) depends on the nest
    configuration, so its sign is corrected: the returned normal has a
    non-positive dot product with the camera's optical axis (in tracker
    coordinates). Callers own the 100 mm^2 minimum-area guard (the pipeline
    enforces it on the tracker points); this function rejects only truly
    collinear configurations.

    Raises:
        DegenerateConfiguration: collinear points.
    """
    p_r = as_point3(p_r)
    p_g = as_point3(p_g)
    p_b = as_point3(p_b)
    raw = cross3(p_b - p_r, p_g - p_r)
    scale = max(norm(p_b - p_r), norm(p_g - p_r), 1e-30)
    raw_norm = norm(raw)
    if raw_norm <= 1e-12 * scale * scale:
        raise DegenerateConfiguration("plate_normal: nest points are collinear")
    n = raw / raw_norm
    dot = float(n @ as_point3(camera_axis))
    log.debug("plate_normal: n . camera axis = %+.3e, flipped=%s", dot, dot > 0.0)
    return -n if dot > 0.0 else n


def estimate_plate_pose(session: ReferencingSession) -> PlatePoseEstimate:
    """Plate pose in the tracker frame via image pose, scene construction, and
    three-point registration of the seated smr positions.

    A registration RMS above 0.5 mm is flagged as suspect (setup fault or a
    deformed plate) but does not fail the run.
    """
    fit = estimate_plate_pose_from_image(session.camera, session.image_points, session._mark_points)
    log.debug(
        "estimate_plate_pose: image fit stopped by %s after %d iterations, RMS %.4f px",
        fit.stop,
        fit.iterations,
        fit.rms_px,
    )
    scene = build_rectification_map(session.camera, fit.h_cam_ref)

    p_scn = apply(scene.h_scn_ref, smr_points(session.plate))
    registration = register_points(p_scn, session.nest_points, frames.SCN, frames.ABS)
    suspect = registration.rms_mm > SUSPECT_REGISTRATION_RMS_MM
    if suspect:
        log.warning(
            "estimate_plate_pose: registration RMS %.3f mm above %.1f mm, result suspect",
            registration.rms_mm,
            SUSPECT_REGISTRATION_RMS_MM,
        )
    return PlatePoseEstimate(
        h_abs_scn=registration.transform,
        registration_rms_mm=registration.rms_mm,
        suspect=suspect,
        reprojection_rms_px=fit.rms_px,
        scene=scene,
    )


def estimate_robot_pose(session: ReferencingSession, n: Sequence[float] | Array) -> RigidTransform:
    """Robot pose in the tracker frame from the plate normal and two positions.

    The heading is the displacement between the two robot smr positions with
    its normal component projected out; the basis [v_perp, n x v_perp, n]
    together with position 0 forms the pose (the image is bound to position 0).

    Raises:
        DegenerateMotion: displacement too short or parallel to the normal.
    """
    n = as_point3(n)
    p0, p1 = session.robot_points
    v = p1 - p0
    dist = float(norm(v))
    if dist <= MIN_DISPLACEMENT_MM:
        raise DegenerateMotion(
            f"robot displacement {dist:.1f} mm at or below {MIN_DISPLACEMENT_MM} mm"
        )
    v_perp = v - float(v @ n) * n
    norm_perp = float(norm(v_perp))
    if norm_perp <= MIN_PROJECTED_DISPLACEMENT_MM:
        raise DegenerateMotion(
            f"in-plane robot displacement {norm_perp:.1f} mm at or below "
            f"{MIN_PROJECTED_DISPLACEMENT_MM} mm (motion parallel to the plate normal)"
        )
    v_perp = v_perp / norm_perp
    r = np.empty((3, 3))  # columns v_perp, n x v_perp, n
    r[:, 0] = v_perp
    r[:, 1] = cross3(n, v_perp)
    r[:, 2] = n
    return RigidTransform(r, p0, source=frames.ROB, dest=frames.ABS)


_E_Z = np.array([0.0, 0.0, 1.0])
_E_Z.setflags(write=False)


def compute_rob_h_cam(session: ReferencingSession) -> ReferencingResult:
    """Run the full referencing chain on one session.

    Errors from any stage are re-raised with the stage name prefixed, keeping
    the concrete type for caller dispatch; a numpy solver failure, overflow or
    invalid value inside a stage is degenerate geometry. The stages run under
    one ``np.errstate``, and ``stage`` names the one running.
    """
    stage = "estimate_plate_pose"
    try:
        with np.errstate(over="raise", invalid="raise"):
            plate_est = estimate_plate_pose(session)

            stage = "plate_normal"
            area = triangle_area(*session.nest_points)
            if area <= MIN_NEST_TRIANGLE_MM2:
                raise DegenerateConfiguration(
                    f"nest triangle area {area:.2f} mm^2 at or below {MIN_NEST_TRIANGLE_MM2} mm^2"
                )
            # Optical axis in tracker coordinates, available once the plate
            # pose is known; keeps the sign rule independent of the tracker gauge.
            axis_scn = plate_est.scene.h_scn_cam.rotation @ _E_Z
            axis_abs = plate_est.h_abs_scn.rotation @ axis_scn
            n = plate_normal(*session.nest_points, camera_axis=axis_abs)

            stage = "estimate_robot_pose"
            h_abs_rob = estimate_robot_pose(session, n)

            stage = "compose"
            return ReferencingResult.from_chain(plate_est, h_abs_rob)
    except FloorRefError as e:
        raise type(e)(f"{stage}: {e}") from e
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        raise DegenerateConfiguration(f"{stage}: {e}") from e


def reversal_average(run_a: ReferencingResult, run_b: ReferencingResult) -> ReferencingResult:
    """Instrument-reversal average of two runs of the same rig.

    Translations are averaged componentwise and rotations through the chordal
    mean; errors that flip with the heading cancel. A plate bow's translation
    error does; its rotation bias does not: the bow rolls the robot between
    its two placements, and the yaw error this gives (about -6.1 mrad per mm
    of bow) is the same in both runs, so it stays in the average. Both source
    runs are retained on the result and the residual fields carry the worse
    of the two.

    Raises:
        InconsistentRuns: the two hand-eye estimates differ by more than 2 mm
            or 1 degree, which signals a setup fault rather than noise.
    """
    a = run_a.h_rob_cam
    b = run_b.h_rob_cam
    dt, dr = transform_gap(a, b)
    if dt > REVERSAL_MAX_TRANSLATION_MM or dr > REVERSAL_MAX_ROTATION_RAD:
        raise InconsistentRuns(
            f"reversal runs differ by {dt:.3f} mm / {np.degrees(dr):.3f} deg "
            f"(limits {REVERSAL_MAX_TRANSLATION_MM} mm / "
            f"{np.degrees(REVERSAL_MAX_ROTATION_RAD):.0f} deg)"
        )
    averaged = RigidTransform(
        chordal_mean([a.rotation, b.rotation]),
        (a.translation + b.translation) / 2.0,
        source=a.source,
        dest=a.dest,
    )
    return replace(
        run_a,
        h_rob_cam=averaged,
        registration_rms_mm=max(run_a.registration_rms_mm, run_b.registration_rms_mm),
        reprojection_rms_px=max(run_a.reprojection_rms_px, run_b.reprojection_rms_px),
        suspect=run_a.suspect or run_b.suspect,
        reversal_of=(run_a, run_b),
    )
