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
from typing import Any, Mapping

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
    rotation_distance,
    rotation_to_quaternion,
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


def _number(doc: Mapping[str, Any], where: str, key: str) -> float:
    v = doc.get(key)
    if not isinstance(v, _NUM) or isinstance(v, bool) or not math.isfinite(float(v)):
        raise SchemaError(f"{where}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _integer(doc: Mapping[str, Any], where: str, key: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _matrix4(value: Any, where: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: expected a 4x4 matrix: {e}") from e
    if m.shape != (4, 4) or not np.all(np.isfinite(m)):
        raise SchemaError(f"{where}: expected a finite 4x4 matrix")
    return m


def _transform(value: Any, where: str, source: str, dest: str) -> RigidTransform:
    try:
        return RigidTransform.from_matrix(_matrix4(value, where), source=source, dest=dest)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


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
    _check_keys(
        doc,
        where,
        {"focal_mm", "sx_mm", "sy_mm", "cx_px", "cy_px", "k", "rows", "cols"},
        set(),
        lenient,
    )
    k = doc.get("k")
    if not isinstance(k, list) or len(k) != 3:
        raise SchemaError(f"{where}.k: expected an array of 3 coefficients")
    try:
        return CameraModel(
            focal_mm=_number(doc, where, "focal_mm"),
            sx_mm=_number(doc, where, "sx_mm"),
            sy_mm=_number(doc, where, "sy_mm"),
            cx_px=_number(doc, where, "cx_px"),
            cy_px=_number(doc, where, "cy_px"),
            k=tuple(float(v) for v in k),
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
    if not isinstance(doc["marks"], list):
        raise SchemaError(f"{where}.marks: expected an array")
    for i, entry in enumerate(doc["marks"]):
        _check_keys(entry, f"{where}.marks[{i}]", {"id", "x", "y"}, set(), lenient)
        marks[str(entry["id"])] = np.array(
            [_number(entry, f"{where}.marks[{i}]", "x"), _number(entry, f"{where}.marks[{i}]", "y"), 0.0]
        )
    nests_doc = doc["nests"]
    _check_keys(nests_doc, f"{where}.nests", set(NEST_IDS), set(), lenient)
    nests = {}
    for nid in NEST_IDS:
        v = nests_doc[nid]
        if not isinstance(v, list) or len(v) != 3:
            raise SchemaError(f"{where}.nests.{nid}: expected [x, y, z]")
        nests[nid] = np.array([float(c) for c in v])
    extent = doc["extent_mm"]
    if not isinstance(extent, list) or len(extent) != 2:
        raise SchemaError(f"{where}.extent_mm: expected [x, y]")
    try:
        return ReferencingPlate(
            marks=marks,
            nests=nests,
            delta_mm=_number(doc, where, "delta_mm"),
            extent_mm=(float(extent[0]), float(extent[1])),
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
    _check_keys(
        doc,
        where,
        {"camera", "plate", "tracker_measurements", "image_observation"},
        {"ground_truth", "provenance"},
        lenient,
    )
    camera = camera_from_dict(doc["camera"], lenient)
    plate = plate_from_dict(doc["plate"], lenient)
    tracker = []
    if not isinstance(doc["tracker_measurements"], list):
        raise SchemaError(f"{where}.tracker_measurements: expected an array")
    for i, entry in enumerate(doc["tracker_measurements"]):
        w = f"{where}.tracker_measurements[{i}]"
        _check_keys(entry, w, {"id", "x", "y", "z"}, {"position_index"}, lenient)
        idx = entry.get("position_index")
        if idx is not None and not isinstance(idx, int):
            raise SchemaError(f"{w}.position_index: expected an integer or null")
        tracker.append(
            TrackerMeasurement(
                str(entry["id"]),
                np.array([_number(entry, w, "x"), _number(entry, w, "y"), _number(entry, w, "z")]),
                position_index=idx,
            )
        )
    observation = []
    if not isinstance(doc["image_observation"], list):
        raise SchemaError(f"{where}.image_observation: expected an array")
    seen: set[str] = set()
    for i, entry in enumerate(doc["image_observation"]):
        w = f"{where}.image_observation[{i}]"
        _check_keys(entry, w, {"mark_id", "row", "col"}, set(), lenient)
        mark_id = str(entry["mark_id"])
        if mark_id in seen:
            raise SchemaError(f"{w}.mark_id: duplicate mark id {mark_id!r}")
        seen.add(mark_id)
        observation.append(
            (mark_id, ImagePoint(_number(entry, w, "row"), _number(entry, w, "col")))
        )
    return ReferencingSession(
        camera=camera,
        plate=plate,
        image_observation=tuple(observation),
        tracker=tuple(tracker),
    )


def session_ground_truth(doc: Mapping[str, Any]) -> dict[str, RigidTransform] | None:
    block = doc.get("ground_truth")
    if block is None:
        return None
    tags = {
        "rob_H_cam": (frames.CAM, frames.ROB),
        "abs_H_ref": (frames.REF, frames.ABS),
        "abs_H_rob_0": (frames.ROB, frames.ABS),
        "abs_H_rob_1": (frames.ROB, frames.ABS),
    }
    out = {}
    for name, value in block.items():
        source, dest = tags.get(name, ("?", "?"))
        out[name] = _transform(value, f"session.ground_truth.{name}", source, dest)
    return out


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
        doc["reversal"] = {
            "delta_translation_mm": float(
                np.linalg.norm(a.h_rob_cam.translation - b.h_rob_cam.translation)
            ),
            "delta_rotation_deg": math.degrees(
                rotation_distance(a.h_rob_cam.rotation, b.h_rob_cam.rotation)
            ),
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
    _check_keys(
        doc,
        where,
        {"units", "rob_H_cam", "rotation_quaternion_wxyz", "frames", "residuals", "intermediates"},
        {"reversal", "provenance"},
        lenient,
    )
    if doc["units"] != "mm":
        raise SchemaError(f"{where}.units: expected 'mm', got {doc['units']!r}")
    frames_doc = doc["frames"]
    _check_keys(frames_doc, f"{where}.frames", {"source", "dest"}, set(), lenient)
    if frames_doc["source"] != frames.CAM or frames_doc["dest"] != frames.ROB:
        raise SchemaError(
            f"{where}.frames: expected cam -> rob, got "
            f"{frames_doc['source']!r} -> {frames_doc['dest']!r}"
        )
    h_rob_cam = _transform(doc["rob_H_cam"], f"{where}.rob_H_cam", frames.CAM, frames.ROB)
    quat = np.asarray(doc["rotation_quaternion_wxyz"], dtype=np.float64)
    if quat.shape != (4,):
        raise SchemaError(f"{where}.rotation_quaternion_wxyz: expected 4 values")
    if np.max(np.abs(quaternion_to_rotation(quat) - h_rob_cam.rotation)) > 1e-9:
        raise SchemaError(f"{where}: matrix and quaternion disagree beyond 1e-9")

    inter = doc["intermediates"]
    _check_keys(
        inter, f"{where}.intermediates", {"cam_H_ref", "abs_H_scn", "abs_H_rob", "scn_H_cam"}, set(), lenient
    )
    h_cam_ref = _transform(inter["cam_H_ref"], f"{where}.intermediates.cam_H_ref", frames.REF, frames.CAM)
    h_abs_scn = _transform(inter["abs_H_scn"], f"{where}.intermediates.abs_H_scn", frames.SCN, frames.ABS)
    h_abs_rob = _transform(inter["abs_H_rob"], f"{where}.intermediates.abs_H_rob", frames.ROB, frames.ABS)
    h_scn_cam_stored = _transform(
        inter["scn_H_cam"], f"{where}.intermediates.scn_H_cam", frames.CAM, frames.SCN
    )

    scene = build_rectification_map(camera, h_cam_ref)
    if np.max(np.abs(scene.h_scn_cam.matrix - h_scn_cam_stored.matrix)) > 1e-9:
        raise SchemaError(
            f"{where}: stored scn_H_cam does not match the camera model and cam_H_ref"
        )

    residuals = doc["residuals"]
    _check_keys(
        residuals,
        f"{where}.residuals",
        {"registration_rms_mm", "reprojection_rms_px", "suspect"},
        set(),
        lenient,
    )
    return ReferencingResult(
        h_rob_cam=h_rob_cam,
        h_rob_scn=compose(h_rob_cam, invert(scene.h_scn_cam)),
        scene=scene,
        h_abs_scn=h_abs_scn,
        h_abs_rob=h_abs_rob,
        h_cam_ref=h_cam_ref,
        registration_rms_mm=_number(residuals, f"{where}.residuals", "registration_rms_mm"),
        reprojection_rms_px=_number(residuals, f"{where}.residuals", "reprojection_rms_px"),
        suspect=bool(residuals["suspect"]),
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


def _placement_from_dict(doc: Mapping[str, Any], where: str, lenient: bool) -> RobotPlacement:
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
    _check_keys(
        doc,
        where,
        {"camera", "plate", "robot", "hand_eye", "plate_pose"},
        {"floor", "noise", "seed", "placements"},
        lenient,
    )
    camera = camera_from_dict(doc["camera"], lenient)
    plate = plate_from_dict(doc["plate"], lenient)

    robot_doc = doc["robot"]
    _check_keys(robot_doc, f"{where}.robot", {"smr_height_mm", "wheel_contacts_xy_mm"}, set(), lenient)
    contacts = robot_doc["wheel_contacts_xy_mm"]
    if not isinstance(contacts, list) or len(contacts) != 3:
        raise SchemaError(f"{where}.robot.wheel_contacts_xy_mm: expected 3 [x, y] pairs")
    try:
        robot = RobotModel(
            smr_height_mm=_number(robot_doc, f"{where}.robot", "smr_height_mm"),
            wheel_contacts_xy_mm=tuple((float(w[0]), float(w[1])) for w in contacts),
        )
    except (ValueError, TypeError, IndexError) as e:
        raise SchemaError(f"{where}.robot: {e}") from e

    hand_eye_doc = doc["hand_eye"]
    _check_keys(hand_eye_doc, f"{where}.hand_eye", {"matrix"}, set(), lenient)
    hand_eye = _transform(hand_eye_doc["matrix"], f"{where}.hand_eye.matrix", frames.CAM, frames.ROB)

    pose_doc = doc["plate_pose"]
    _check_keys(pose_doc, f"{where}.plate_pose", {"x_mm", "y_mm", "yaw_deg"}, set(), lenient)

    floor_doc = doc.get("floor", {"inclination_deg": 0.0, "azimuth_deg": 0.0})
    _check_keys(floor_doc, f"{where}.floor", set(), {"inclination_deg", "azimuth_deg"}, lenient)

    noise_doc = doc.get("noise", {})
    _check_keys(
        noise_doc,
        f"{where}.noise",
        set(),
        {"tracker_sigma_mm", "image_sigma_px", "nest_offset_error_mm", "plate_amplitude_mm"},
        lenient,
    )
    try:
        noise = NoiseConfig(
            tracker_sigma_mm=float(noise_doc.get("tracker_sigma_mm", 0.035)),
            image_sigma_px=float(noise_doc.get("image_sigma_px", 0.0)),
            nest_offset_error_mm=float(noise_doc.get("nest_offset_error_mm", 0.0)),
            plate_amplitude_mm=float(noise_doc.get("plate_amplitude_mm", 0.0)),
        )
    except ValueError as e:
        raise SchemaError(f"{where}.noise: {e}") from e

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError(f"{where}.seed: expected an integer")

    try:
        world = SimWorld(
            camera=camera,
            plate=plate,
            robot=robot,
            h_rob_cam_true=hand_eye,
            plate_x_mm=_number(pose_doc, f"{where}.plate_pose", "x_mm"),
            plate_y_mm=_number(pose_doc, f"{where}.plate_pose", "y_mm"),
            plate_yaw_rad=math.radians(_number(pose_doc, f"{where}.plate_pose", "yaw_deg")),
            floor_inclination_rad=math.radians(float(floor_doc.get("inclination_deg", 0.0))),
            floor_azimuth_rad=math.radians(float(floor_doc.get("azimuth_deg", 0.0))),
            seed=seed,
        )
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e

    placements = None
    if "placements" in doc:
        pl_doc = doc["placements"]
        _check_keys(pl_doc, f"{where}.placements", {"position0", "position1"}, set(), lenient)
        placements = (
            _placement_from_dict(pl_doc["position0"], f"{where}.placements.position0", lenient),
            _placement_from_dict(pl_doc["position1"], f"{where}.placements.position1", lenient),
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
    _check_keys(
        doc,
        where,
        {"mark_xy_mm"},
        {"yaw_deg_list", "repeats", "max_offset_mm", "yaw_jitter_deg"},
        lenient,
    )
    mark = doc["mark_xy_mm"]
    if not isinstance(mark, list) or len(mark) != 2:
        raise SchemaError(f"{where}.mark_xy_mm: expected [x, y]")
    kwargs: dict[str, Any] = {"mark_xy_mm": (float(mark[0]), float(mark[1]))}
    if "yaw_deg_list" in doc:
        yaws = doc["yaw_deg_list"]
        if not isinstance(yaws, list):
            raise SchemaError(f"{where}.yaw_deg_list: expected an array")
        kwargs["yaw_deg_list"] = tuple(float(v) for v in yaws)
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
