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

import logging
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import frames
from .camera import CameraModel, ImagePoint, SceneFrame, build_rectification_map, estimate_plate_pose_from_image
from .errors import (
    DegenerateConfiguration,
    DegenerateMotion,
    FloorRefError,
    InconsistentRuns,
    MissingMeasurement,
)
from .geometry import (
    RigidTransform,
    apply,
    as_point3,
    chordal_mean,
    compose,
    invert,
    register_points,
    transform_gap,
    triangle_area,
)
from .plate import NEST_IDS, ReferencingPlate, smr_points

log = logging.getLogger(__name__)

Array = NDArray[np.float64]

ROBOT_SMR_ID = "robot_smr"
MIN_DISPLACEMENT_MM = 50.0
MIN_PROJECTED_DISPLACEMENT_MM = 10.0
SUSPECT_REGISTRATION_RMS_MM = 0.5
REVERSAL_MAX_TRANSLATION_MM = 2.0
REVERSAL_MAX_ROTATION_RAD = np.radians(1.0)
MIN_NORMAL_TRIANGLE_MM2 = 100.0


@dataclass(frozen=True)
class TrackerMeasurement:
    """One laser-tracker point: a nest smr or the robot smr at a position index."""

    point_id: str
    position: Array
    position_index: int | None = None

    def __post_init__(self) -> None:
        p = as_point3(self.position)
        p.setflags(write=False)
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class ReferencingSession:
    """The full observation bundle of one referencing run.

    Attributes:
        camera: calibrated camera model
        plate: measured referencing plate (template marks, measured nests)
        image_observation: (mark id, image point) pairs captured at robot
            position 0
        tracker: smr measurements for the three nests plus the robot smr at
            position indices 0 and 1
    """

    camera: CameraModel
    plate: ReferencingPlate
    image_observation: tuple[tuple[str, ImagePoint], ...]
    tracker: tuple[TrackerMeasurement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "image_observation", tuple(self.image_observation))
        object.__setattr__(self, "tracker", tuple(self.tracker))

    def nest_position(self, nest_id: str) -> Array:
        hits = [m for m in self.tracker if m.point_id == nest_id]
        if not hits:
            raise MissingMeasurement(f"no tracker measurement for nest {nest_id!r}")
        if len(hits) > 1:
            raise MissingMeasurement(
                f"expected exactly one tracker measurement for nest {nest_id!r}, got {len(hits)}"
            )
        return hits[0].position

    def nest_positions(self) -> Array:
        return np.array([self.nest_position(nid) for nid in NEST_IDS])

    def robot_position(self, index: int) -> Array:
        hits = [
            m
            for m in self.tracker
            if m.point_id == ROBOT_SMR_ID and m.position_index == index
        ]
        if not hits:
            raise MissingMeasurement(f"robot smr at position {index} missing")
        if len(hits) > 1:
            raise MissingMeasurement(
                f"expected exactly one robot smr measurement at position {index}, got {len(hits)}"
            )
        return hits[0].position


class PlatePoseEstimate(NamedTuple):
    """Plate pose in the tracker frame with its diagnostics and intermediates."""

    h_abs_scn: RigidTransform
    registration_rms_mm: float
    suspect: bool
    h_cam_ref: RigidTransform
    reprojection_rms_px: float
    scene: SceneFrame


@dataclass(frozen=True)
class ReferencingResult:
    """Hand-eye calibration result with all chain intermediates and residuals.

    ``h_rob_cam`` of a pipeline result is the exact composition of the stored
    intermediates; averaged or externally loaded results keep ``h_rob_scn``
    consistent with ``h_rob_cam`` through the stored scene frame instead.
    """

    h_rob_cam: RigidTransform
    h_rob_scn: RigidTransform
    scene: SceneFrame
    h_abs_scn: RigidTransform
    h_abs_rob: RigidTransform
    h_cam_ref: RigidTransform
    registration_rms_mm: float
    reprojection_rms_px: float
    suspect: bool
    reversal_of: tuple["ReferencingResult", "ReferencingResult"] | None = None

    @classmethod
    def from_chain(
        cls,
        scene: SceneFrame,
        h_abs_scn: RigidTransform,
        h_abs_rob: RigidTransform,
        registration_rms_mm: float,
        reprojection_rms_px: float,
        suspect: bool,
    ) -> "ReferencingResult":
        h_rob_abs = invert(h_abs_rob)
        h_rob_scn = compose(h_rob_abs, h_abs_scn)
        h_rob_cam = compose(h_rob_scn, scene.h_scn_cam)
        return cls(
            h_rob_cam=h_rob_cam,
            h_rob_scn=h_rob_scn,
            scene=scene,
            h_abs_scn=h_abs_scn,
            h_abs_rob=h_abs_rob,
            h_cam_ref=scene.h_cam_ref,
            registration_rms_mm=registration_rms_mm,
            reprojection_rms_px=reprojection_rms_px,
            suspect=suspect,
        )

    def with_hand_eye(self, h_rob_cam: RigidTransform) -> "ReferencingResult":
        """Same run with a replaced hand-eye; the scene chain is recomputed so
        mark measurement stays consistent with the new transform."""
        h_rob_scn = compose(h_rob_cam, invert(self.scene.h_scn_cam))
        return replace(self, h_rob_cam=h_rob_cam, h_rob_scn=h_rob_scn)


def plate_normal(
    p_r: Sequence[float] | Array,
    p_g: Sequence[float] | Array,
    p_b: Sequence[float] | Array,
    camera_axis: Sequence[float] | Array | None = None,
) -> Array:
    """Unit normal of the plate surface from the three tracker points, directed
    upward.

    The raw cross product (P_b - P_r) x (P_g - P_r) depends on the nest
    configuration, so its sign is corrected: against the viewing direction when
    the camera axis (in tracker coordinates) is supplied, otherwise to positive
    world z for a floor-mounted plate. The applied rule is logged. Callers own
    the 100 mm^2 minimum-area guard (the pipeline enforces it on the tracker
    points); this function rejects only truly collinear configurations.

    Raises:
        DegenerateConfiguration: collinear points.
    """
    p_r = as_point3(p_r)
    p_g = as_point3(p_g)
    p_b = as_point3(p_b)
    raw = np.cross(p_b - p_r, p_g - p_r)
    scale = max(np.linalg.norm(p_b - p_r), np.linalg.norm(p_g - p_r), 1e-30)
    if np.linalg.norm(raw) <= 1e-12 * scale * scale:
        raise DegenerateConfiguration("plate_normal: nest points are collinear")
    n = raw / np.linalg.norm(raw)
    if camera_axis is not None:
        axis = as_point3(camera_axis)
        flipped = float(n @ axis) > 0.0
        rule = f"camera-axis rule (n . axis = {float(n @ axis):+.3e})"
    else:
        flipped = n[2] < 0.0
        rule = f"floor-mounted rule (n_z = {n[2]:+.3e})"
    if flipped:
        n = -n
    log.debug("plate_normal: %s, flipped=%s", rule, flipped)
    return n


def estimate_plate_pose(session: ReferencingSession) -> PlatePoseEstimate:
    """Plate pose in the tracker frame via image pose, scene construction, and
    three-point registration of the seated smr positions.

    A registration RMS above 0.5 mm is flagged as suspect (setup fault or a
    deformed plate) but does not fail the run.
    """
    observed = []
    for mark_id, ip in session.image_observation:
        if mark_id not in session.plate.marks:
            raise MissingMeasurement(f"observed mark {mark_id!r} not on the plate")
        observed.append((ip, session.plate.marks[mark_id]))
    fit = estimate_plate_pose_from_image(session.camera, observed)
    scene = build_rectification_map(session.camera, fit.h_cam_ref)

    p_ref = smr_points(session.plate)
    p_scn = apply(scene.h_scn_ref, p_ref)
    p_abs = session.nest_positions()
    registration = register_points(p_scn, p_abs, frames.SCN, frames.ABS)
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
        h_cam_ref=fit.h_cam_ref,
        reprojection_rms_px=fit.rms_px,
        scene=scene,
    )


def estimate_robot_pose(session: ReferencingSession, n: Sequence[float] | Array) -> RigidTransform:
    """Robot pose in the tracker frame from the plate normal and two positions.

    The heading is the displacement between the two robot smr positions with
    its normal component projected out; the basis [v_perp, n x v_perp, n]
    together with position 0 forms the pose (the image is bound to position 0).

    Raises:
        MissingMeasurement: a robot position is absent.
        DegenerateMotion: displacement too short or parallel to the normal.
    """
    n = as_point3(n)
    p0 = session.robot_position(0)
    p1 = session.robot_position(1)
    v = p1 - p0
    dist = float(np.linalg.norm(v))
    if dist <= MIN_DISPLACEMENT_MM:
        raise DegenerateMotion(
            f"robot displacement {dist:.1f} mm at or below {MIN_DISPLACEMENT_MM} mm"
        )
    v_perp = v - float(v @ n) * n
    norm_perp = float(np.linalg.norm(v_perp))
    if norm_perp <= MIN_PROJECTED_DISPLACEMENT_MM:
        raise DegenerateMotion(
            f"in-plane robot displacement {norm_perp:.1f} mm at or below "
            f"{MIN_PROJECTED_DISPLACEMENT_MM} mm (motion parallel to the plate normal)"
        )
    v_perp = v_perp / norm_perp
    c = np.cross(n, v_perp)
    r = np.column_stack([v_perp, c, n])
    return RigidTransform(r, p0, source=frames.ROB, dest=frames.ABS)


@contextmanager
def _stage(name: str) -> Iterator[None]:
    # Re-raise package errors with the pipeline stage name prefixed, keeping
    # the concrete type for caller dispatch; a numpy solver failure, overflow
    # or invalid value inside a stage is degenerate geometry.
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloorRefError as e:
        raise type(e)(f"{name}: {e}") from e
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        raise DegenerateConfiguration(f"{name}: {e}") from e


def compute_rob_h_cam(session: ReferencingSession) -> ReferencingResult:
    """Run the full referencing chain on one session.

    Errors from any stage are re-raised with the stage name prefixed.
    """
    with _stage("estimate_plate_pose"):
        plate_est = estimate_plate_pose(session)

    with _stage("plate_normal"):
        p_abs = session.nest_positions()
        area = triangle_area(p_abs[0], p_abs[1], p_abs[2])
        if area <= MIN_NORMAL_TRIANGLE_MM2:
            raise DegenerateConfiguration(
                f"nest triangle area {area:.2f} mm^2 at or below "
                f"{MIN_NORMAL_TRIANGLE_MM2} mm^2"
            )
        # Optical axis in tracker coordinates, available once the plate pose
        # is known; keeps the sign rule independent of the tracker gauge.
        axis_scn = plate_est.scene.h_scn_cam.rotation @ np.array([0.0, 0.0, 1.0])
        axis_abs = plate_est.h_abs_scn.rotation @ axis_scn
        n = plate_normal(p_abs[0], p_abs[1], p_abs[2], camera_axis=axis_abs)

    with _stage("estimate_robot_pose"):
        h_abs_rob = estimate_robot_pose(session, n)

    with _stage("compose"):
        return ReferencingResult.from_chain(
            scene=plate_est.scene,
            h_abs_scn=plate_est.h_abs_scn,
            h_abs_rob=h_abs_rob,
            registration_rms_mm=plate_est.registration_rms_mm,
            reprojection_rms_px=plate_est.reprojection_rms_px,
            suspect=plate_est.suspect,
        )


def reversal_average(run_a: ReferencingResult, run_b: ReferencingResult) -> ReferencingResult:
    """Instrument-reversal average of two runs of the same rig.

    Translations are averaged componentwise and rotations through the chordal
    mean; heading-symmetric systematic errors cancel. Both source runs are
    retained on the result and the residual fields carry the worse of the two.

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
    merged = run_a.with_hand_eye(averaged)
    return replace(
        merged,
        registration_rms_mm=max(run_a.registration_rms_mm, run_b.registration_rms_mm),
        reprojection_rms_px=max(run_a.reprojection_rms_px, run_b.reprojection_rms_px),
        suspect=run_a.suspect or run_b.suspect,
        reversal_of=(run_a, run_b),
    )
