"""JSON document schemas: sessions, results, world configs, and plans.

Strict by default: unknown keys are rejected so typos fail loudly; lenient
mode tolerates them for forward compatibility. Pose matrices serialize at full
float precision (they must round-trip exactly); human-facing reports round to
nine decimals elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from . import frames
from .camera import CameraModel, ImagePoint
from .errors import SchemaError
from .experiment import ExperimentPlan
from .geometry import (
    RigidTransform,
    compose,
    invert,
    quaternion_to_rotation,
    rotation_to_quaternion,
    transform_gap,
)
from .pipeline import ReferencingResult, ReferencingSession, TrackerMeasurement
from .plate import NEST_IDS, ReferencingPlate
from .simulate import NoiseConfig, RobotModel, RobotPlacement, SimWorld
from .camera import build_rectification_map

TOOL_NAME = "floorref"
TOOL_VERSION = "0.1.0"

_NUM = (int, float)


def read_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read JSON document {path}: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return doc


def write_json(doc: Mapping[str, Any], path: str | Path) -> None:
    # newline pinned so outputs stay byte-identical across platforms
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance(inputs: Mapping[str, str | Path], seed: int | None) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "seed": seed,
        "inputs": {role: f"sha256:{file_sha256(p)}" for role, p in sorted(inputs.items())},
    }


def _check_keys(
    doc: Mapping[str, Any], where: str, required: set[str], optional: set[str], lenient: bool
) -> None:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected an object")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    if not lenient:
        unknown = set(doc) - required - optional
        if unknown:
            raise SchemaError(f"{where}: unknown keys {sorted(unknown)} (strict mode)")


def _path(where: str, key: str | int) -> str:
    return f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"


# The readers below are the only places a document value becomes a Python
# value. Each names the full field path in its SchemaError; bools are not
# numbers and strings are never parsed.


def _finite(v: Any) -> float | None:
    if isinstance(v, _NUM) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(f):
            return f
    return None


def _number(doc: Mapping[str, Any], where: str, key: str, default: float | None = None) -> float:
    v = doc.get(key, default)
    f = _finite(v)
    if f is None:
        raise SchemaError(f"{where}.{key}: expected a finite number, got {v!r}")
    return f


def _integer(doc: Mapping[str, Any], where: str, key: str, default: int | None = None) -> int:
    v = doc.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _flag(doc: Mapping[str, Any], where: str, key: str) -> bool:
    v = doc.get(key)
    if not isinstance(v, bool):
        raise SchemaError(f"{where}.{key}: expected true or false, got {v!r}")
    return v


def _text(doc: Mapping[str, Any], where: str, key: str) -> str:
    v = doc.get(key)
    if not isinstance(v, str):
        raise SchemaError(f"{where}.{key}: expected a string, got {v!r}")
    return v


def _array(doc: Any, where: str, key: str | int, n: int | None = None) -> list:
    v = doc[key]
    if not isinstance(v, list) or (n is not None and len(v) != n):
        size = "" if n is None else f" of {n}"
        raise SchemaError(f"{_path(where, key)}: expected an array{size}, got {v!r}")
    return v


def _numbers(doc: Any, where: str, key: str | int, n: int | None = None) -> tuple[float, ...]:
    out = tuple(_finite(v) for v in _array(doc, where, key, n))
    if None in out:
        i = out.index(None)
        v = doc[key][i]
        raise SchemaError(f"{_path(where, key)}[{i}]: expected a finite number, got {v!r}")
    return out


def _objects(
    doc: Mapping[str, Any],
    where: str,
    key: str,
    required: set[str],
    optional: set[str],
    lenient: bool,
) -> Iterator[tuple[str, Mapping[str, Any]]]:
    """Yield (path, entry) for each object of an array, its keys checked."""
    for i, entry in enumerate(_array(doc, where, key)):
        w = f"{where}.{key}[{i}]"
        _check_keys(entry, w, required, optional, lenient)
        yield w, entry


def _transform(doc: Any, where: str, key: str, source: str, dest: str) -> RigidTransform:
    w = _path(where, key)
    rows = _array(doc, where, key, 4)
    try:
        return RigidTransform.from_matrix(
            np.array([_numbers(rows, w, i, 4) for i in range(4)]), source=source, dest=dest
        )
    except ValueError as e:
        raise SchemaError(f"{w}: {e}") from e


# --- camera ---------------------------------------------------------------


def camera_to_dict(model: CameraModel) -> dict:
    return {
        "focal_mm": model.focal_mm,
        "sx_mm": model.sx_mm,
        "sy_mm": model.sy_mm,
        "cx_px": model.cx_px,
        "cy_px": model.cy_px,
        "k": list(model.k),
        "rows": model.rows,
        "cols": model.cols,
    }


def camera_from_dict(doc: Mapping[str, Any], lenient: bool = False) -> CameraModel:
    where = "camera"
    keys = {"focal_mm", "sx_mm", "sy_mm", "cx_px", "cy_px", "k", "rows", "cols"}
    _check_keys(doc, where, keys, set(), lenient)
    try:
        return CameraModel(
            focal_mm=_number(doc, where, "focal_mm"),
            sx_mm=_number(doc, where, "sx_mm"),
            sy_mm=_number(doc, where, "sy_mm"),
            cx_px=_number(doc, where, "cx_px"),
            cy_px=_number(doc, where, "cy_px"),
            k=_numbers(doc, where, "k", 3),
            rows=_integer(doc, where, "rows"),
            cols=_integer(doc, where, "cols"),
        )
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


# --- plate ----------------------------------------------------------------


def plate_to_dict(plate: ReferencingPlate) -> dict:
    return {
        "marks": [
            {"id": mark_id, "x": float(p[0]), "y": float(p[1])}
            for mark_id, p in plate.marks.items()
        ],
        "nests": {nid: [float(v) for v in plate.nests[nid]] for nid in NEST_IDS},
        "delta_mm": plate.delta_mm,
        "extent_mm": list(plate.extent_mm),
    }


def plate_from_dict(doc: Mapping[str, Any], lenient: bool = False) -> ReferencingPlate:
    where = "plate"
    _check_keys(doc, where, {"marks", "nests", "delta_mm", "extent_mm"}, set(), lenient)
    marks = {}
    for w, entry in _objects(doc, where, "marks", {"id", "x", "y"}, set(), lenient):
        mark_id = _text(entry, w, "id")
        if mark_id in marks:
            raise SchemaError(f"{w}.id: duplicate mark id {mark_id!r}")
        marks[mark_id] = np.array([_number(entry, w, "x"), _number(entry, w, "y"), 0.0])
    _check_keys(doc["nests"], f"{where}.nests", set(NEST_IDS), set(), lenient)
    nests = {nid: np.array(_numbers(doc["nests"], f"{where}.nests", nid, 3)) for nid in NEST_IDS}
    try:
        return ReferencingPlate(
            marks=marks,
            nests=nests,
            delta_mm=_number(doc, where, "delta_mm"),
            extent_mm=_numbers(doc, where, "extent_mm", 2),
        )
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


# --- session ---------------------------------------------------------------


def session_to_dict(
    session: ReferencingSession,
    ground_truth: Mapping[str, RigidTransform] | None = None,
    prov: Mapping[str, Any] | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "camera": camera_to_dict(session.camera),
        "plate": plate_to_dict(session.plate),
        "tracker_measurements": [
            {
                "id": m.point_id,
                "x": float(m.position[0]),
                "y": float(m.position[1]),
                "z": float(m.position[2]),
                "position_index": m.position_index,
            }
            for m in session.tracker
        ],
        "image_observation": [
            {"mark_id": mark_id, "row": ip.row, "col": ip.col}
            for mark_id, ip in session.image_observation
        ],
    }
    if ground_truth is not None:
        doc["ground_truth"] = {
            name: h.matrix.tolist() for name, h in ground_truth.items()
        }
    if prov is not None:
        doc["provenance"] = dict(prov)
    return doc


def session_from_dict(doc: Mapping[str, Any], lenient: bool = False) -> ReferencingSession:
    where = "session"
    required = {"camera", "plate", "tracker_measurements", "image_observation"}
    _check_keys(doc, where, required, {"ground_truth", "provenance"}, lenient)
    camera = camera_from_dict(doc["camera"], lenient)
    plate = plate_from_dict(doc["plate"], lenient)
    tracker = []
    entries = _objects(
        doc, where, "tracker_measurements", {"id", "x", "y", "z"}, {"position_index"}, lenient
    )
    for w, entry in entries:
        idx = entry.get("position_index")
        tracker.append(
            TrackerMeasurement(
                _text(entry, w, "id"),
                np.array([_number(entry, w, "x"), _number(entry, w, "y"), _number(entry, w, "z")]),
                position_index=None if idx is None else _integer(entry, w, "position_index"),
            )
        )
    observation: dict[str, ImagePoint] = {}
    entries = _objects(doc, where, "image_observation", {"mark_id", "row", "col"}, set(), lenient)
    for w, entry in entries:
        mark_id = _text(entry, w, "mark_id")
        if mark_id in observation:
            raise SchemaError(f"{w}.mark_id: duplicate mark id {mark_id!r}")
        if mark_id not in plate.marks:
            raise SchemaError(f"{w}.mark_id: mark {mark_id!r} is not on the plate")
        observation[mark_id] = ImagePoint(_number(entry, w, "row"), _number(entry, w, "col"))
    points = list(observation.values())
    rowcol = np.reshape([(p.row, p.col) for p in points], (-1, 2))
    off = np.flatnonzero(~camera.contains_points(rowcol))
    if off.size:
        p = points[off[0]]
        raise SchemaError(
            f"{where}.image_observation[{off[0]}]: point (row {p.row}, col {p.col}) is off "
            f"the {camera.rows}x{camera.cols} px sensor"
        )
    return ReferencingSession(
        camera=camera,
        plate=plate,
        image_observation=tuple(observation.items()),
        tracker=tuple(tracker),
    )


def session_ground_truth(
    doc: Mapping[str, Any], lenient: bool = False
) -> dict[str, RigidTransform] | None:
    block = doc.get("ground_truth")
    if block is None:
        return None
    where = "session.ground_truth"
    tags = {
        "rob_H_cam": (frames.CAM, frames.ROB),
        "abs_H_ref": (frames.REF, frames.ABS),
        "abs_H_rob_0": (frames.ROB, frames.ABS),
        "abs_H_rob_1": (frames.ROB, frames.ABS),
    }
    _check_keys(block, where, set(), set(tags), lenient)
    return {name: _transform(block, where, name, *tags[name]) for name in tags if name in block}


# --- result ----------------------------------------------------------------


def result_to_dict(result: ReferencingResult, prov: Mapping[str, Any] | None = None) -> dict:
    h = result.h_rob_cam
    doc: dict[str, Any] = {
        "units": "mm",
        "rob_H_cam": h.matrix.tolist(),
        "rotation_quaternion_wxyz": rotation_to_quaternion(h.rotation).tolist(),
        "frames": {"source": h.source, "dest": h.dest},
        "residuals": {
            "registration_rms_mm": result.registration_rms_mm,
            "reprojection_rms_px": result.reprojection_rms_px,
            "suspect": result.suspect,
        },
        "intermediates": {
            "cam_H_ref": result.h_cam_ref.matrix.tolist(),
            "abs_H_scn": result.h_abs_scn.matrix.tolist(),
            "abs_H_rob": result.h_abs_rob.matrix.tolist(),
            "scn_H_cam": result.scene.h_scn_cam.matrix.tolist(),
        },
    }
    if result.reversal_of is not None:
        a, b = result.reversal_of
        dt, dr = transform_gap(a.h_rob_cam, b.h_rob_cam)
        doc["reversal"] = {
            "delta_translation_mm": dt,
            "delta_rotation_deg": math.degrees(dr),
            "run_residuals": [
                {
                    "registration_rms_mm": r.registration_rms_mm,
                    "reprojection_rms_px": r.reprojection_rms_px,
                }
                for r in (a, b)
            ],
        }
    if prov is not None:
        doc["provenance"] = dict(prov)
    return doc


def result_from_dict(
    doc: Mapping[str, Any], camera: CameraModel, lenient: bool = False
) -> ReferencingResult:
    where = "result"
    required = {
        "units", "rob_H_cam", "rotation_quaternion_wxyz", "frames", "residuals", "intermediates"
    }
    _check_keys(doc, where, required, {"reversal", "provenance"}, lenient)
    if doc["units"] != "mm":
        raise SchemaError(f"{where}.units: expected 'mm', got {doc['units']!r}")
    frames_doc = doc["frames"]
    _check_keys(frames_doc, f"{where}.frames", {"source", "dest"}, set(), lenient)
    if frames_doc["source"] != frames.CAM or frames_doc["dest"] != frames.ROB:
        raise SchemaError(
            f"{where}.frames: expected cam -> rob, got "
            f"{frames_doc['source']!r} -> {frames_doc['dest']!r}"
        )
    h_rob_cam = _transform(doc, where, "rob_H_cam", frames.CAM, frames.ROB)
    quat = _numbers(doc, where, "rotation_quaternion_wxyz", 4)
    if not any(quat) or np.max(np.abs(quaternion_to_rotation(quat) - h_rob_cam.rotation)) > 1e-9:
        raise SchemaError(f"{where}.rotation_quaternion_wxyz: disagrees with rob_H_cam beyond 1e-9")

    inter, w = doc["intermediates"], f"{where}.intermediates"
    _check_keys(inter, w, {"cam_H_ref", "abs_H_scn", "abs_H_rob", "scn_H_cam"}, set(), lenient)
    h_cam_ref = _transform(inter, w, "cam_H_ref", frames.REF, frames.CAM)
    h_abs_scn = _transform(inter, w, "abs_H_scn", frames.SCN, frames.ABS)
    h_abs_rob = _transform(inter, w, "abs_H_rob", frames.ROB, frames.ABS)
    h_scn_cam_stored = _transform(inter, w, "scn_H_cam", frames.CAM, frames.SCN)

    scene = build_rectification_map(camera, h_cam_ref)
    if np.max(np.abs(scene.h_scn_cam.matrix - h_scn_cam_stored.matrix)) > 1e-9:
        raise SchemaError(
            f"{where}: stored scn_H_cam does not match the camera model and cam_H_ref"
        )

    residuals, w = doc["residuals"], f"{where}.residuals"
    keys = {"registration_rms_mm", "reprojection_rms_px", "suspect"}
    _check_keys(residuals, w, keys, set(), lenient)
    return ReferencingResult(
        h_rob_cam=h_rob_cam,
        h_rob_scn=compose(h_rob_cam, invert(scene.h_scn_cam)),
        scene=scene,
        h_abs_scn=h_abs_scn,
        h_abs_rob=h_abs_rob,
        h_cam_ref=h_cam_ref,
        registration_rms_mm=_number(residuals, w, "registration_rms_mm"),
        reprojection_rms_px=_number(residuals, w, "reprojection_rms_px"),
        suspect=_flag(residuals, w, "suspect"),
    )


# --- world config ----------------------------------------------------------


def world_to_dict(world: SimWorld, noise: NoiseConfig, placements: tuple[RobotPlacement, RobotPlacement] | None = None) -> dict:
    doc: dict[str, Any] = {
        "camera": camera_to_dict(world.camera),
        "plate": plate_to_dict(world.plate),
        "robot": {
            "smr_height_mm": world.robot.smr_height_mm,
            "wheel_contacts_xy_mm": [list(w) for w in world.robot.wheel_contacts_xy_mm],
        },
        "hand_eye": {"matrix": world.h_rob_cam_true.matrix.tolist()},
        "plate_pose": {
            "x_mm": world.plate_x_mm,
            "y_mm": world.plate_y_mm,
            "yaw_deg": math.degrees(world.plate_yaw_rad),
        },
        "floor": {
            "inclination_deg": math.degrees(world.floor_inclination_rad),
            "azimuth_deg": math.degrees(world.floor_azimuth_rad),
        },
        "noise": {
            "tracker_sigma_mm": noise.tracker_sigma_mm,
            "image_sigma_px": noise.image_sigma_px,
            "nest_offset_error_mm": noise.nest_offset_error_mm,
            "plate_amplitude_mm": noise.plate_amplitude_mm,
        },
        "seed": world.seed,
    }
    if placements is not None:
        doc["placements"] = {
            f"position{i}": {
                "x_mm": p.x_mm,
                "y_mm": p.y_mm,
                "yaw_deg": math.degrees(p.yaw_rad),
            }
            for i, p in enumerate(placements)
        }
    return doc


def _planar_pose(doc: Mapping[str, Any], where: str, lenient: bool) -> RobotPlacement:
    _check_keys(doc, where, {"x_mm", "y_mm", "yaw_deg"}, set(), lenient)
    return RobotPlacement(
        _number(doc, where, "x_mm"),
        _number(doc, where, "y_mm"),
        math.radians(_number(doc, where, "yaw_deg")),
    )


def world_from_dict(
    doc: Mapping[str, Any], lenient: bool = False
) -> tuple[SimWorld, NoiseConfig, tuple[RobotPlacement, RobotPlacement] | None]:
    where = "world"
    required = {"camera", "plate", "robot", "hand_eye", "plate_pose"}
    _check_keys(doc, where, required, {"floor", "noise", "seed", "placements"}, lenient)
    camera = camera_from_dict(doc["camera"], lenient)
    plate = plate_from_dict(doc["plate"], lenient)

    robot_doc, w = doc["robot"], f"{where}.robot"
    _check_keys(robot_doc, w, {"smr_height_mm", "wheel_contacts_xy_mm"}, set(), lenient)
    contacts = _array(robot_doc, w, "wheel_contacts_xy_mm", 3)
    try:
        robot = RobotModel(
            smr_height_mm=_number(robot_doc, w, "smr_height_mm"),
            wheel_contacts_xy_mm=tuple(
                _numbers(contacts, f"{w}.wheel_contacts_xy_mm", i, 2) for i in range(3)
            ),
        )
    except ValueError as e:
        raise SchemaError(f"{where}.robot: {e}") from e

    hand_eye_doc = doc["hand_eye"]
    _check_keys(hand_eye_doc, f"{where}.hand_eye", {"matrix"}, set(), lenient)
    hand_eye = _transform(hand_eye_doc, f"{where}.hand_eye", "matrix", frames.CAM, frames.ROB)

    plate_pose = _planar_pose(doc["plate_pose"], f"{where}.plate_pose", lenient)

    floor_doc, wf = doc.get("floor", {}), f"{where}.floor"
    _check_keys(floor_doc, wf, set(), {"inclination_deg", "azimuth_deg"}, lenient)

    noise_doc, w = doc.get("noise", {}), f"{where}.noise"
    keys = {"tracker_sigma_mm", "image_sigma_px", "nest_offset_error_mm", "plate_amplitude_mm"}
    _check_keys(noise_doc, w, set(), keys, lenient)
    try:
        noise = NoiseConfig(
            tracker_sigma_mm=_number(noise_doc, w, "tracker_sigma_mm", 0.035),
            image_sigma_px=_number(noise_doc, w, "image_sigma_px", 0.0),
            nest_offset_error_mm=_number(noise_doc, w, "nest_offset_error_mm", 0.0),
            plate_amplitude_mm=_number(noise_doc, w, "plate_amplitude_mm", 0.0),
        )
    except ValueError as e:
        raise SchemaError(f"{w}: {e}") from e

    try:
        world = SimWorld(
            camera=camera,
            plate=plate,
            robot=robot,
            h_rob_cam_true=hand_eye,
            plate_x_mm=plate_pose.x_mm,
            plate_y_mm=plate_pose.y_mm,
            plate_yaw_rad=plate_pose.yaw_rad,
            floor_inclination_rad=math.radians(_number(floor_doc, wf, "inclination_deg", 0.0)),
            floor_azimuth_rad=math.radians(_number(floor_doc, wf, "azimuth_deg", 0.0)),
            seed=_integer(doc, where, "seed", 0),
        )
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e

    placements = None
    if "placements" in doc:
        pl_doc = doc["placements"]
        _check_keys(pl_doc, f"{where}.placements", {"position0", "position1"}, set(), lenient)
        placements = (
            _planar_pose(pl_doc["position0"], f"{where}.placements.position0", lenient),
            _planar_pose(pl_doc["position1"], f"{where}.placements.position1", lenient),
        )
    return world, noise, placements


# --- experiment plan ---------------------------------------------------------


def plan_to_dict(plan: ExperimentPlan) -> dict:
    return {
        "mark_xy_mm": list(plan.mark_xy_mm),
        "yaw_deg_list": list(plan.yaw_deg_list),
        "repeats": plan.repeats,
        "max_offset_mm": plan.max_offset_mm,
        "yaw_jitter_deg": plan.yaw_jitter_deg,
    }


def plan_from_dict(doc: Mapping[str, Any], lenient: bool = False) -> ExperimentPlan:
    where = "plan"
    optional = {"yaw_deg_list", "repeats", "max_offset_mm", "yaw_jitter_deg"}
    _check_keys(doc, where, {"mark_xy_mm"}, optional, lenient)
    kwargs: dict[str, Any] = {"mark_xy_mm": _numbers(doc, where, "mark_xy_mm", 2)}
    if "yaw_deg_list" in doc:
        kwargs["yaw_deg_list"] = _numbers(doc, where, "yaw_deg_list")
    if "repeats" in doc:
        kwargs["repeats"] = _integer(doc, where, "repeats")
    if "max_offset_mm" in doc:
        kwargs["max_offset_mm"] = _number(doc, where, "max_offset_mm")
    if "yaw_jitter_deg" in doc:
        kwargs["yaw_jitter_deg"] = _number(doc, where, "yaw_jitter_deg")
    try:
        return ExperimentPlan(**kwargs)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e
