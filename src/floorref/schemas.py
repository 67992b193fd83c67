"""JSON document schemas: sessions, results, world configs, and plans.

Every decoder rejects a missing or unknown key with a SchemaError that names
the object's field path and the key, so a typo fails loudly. Each check on
an array runs over the whole array and names its first failing entry: a
document with one fault gets that fault's message, and a document with two
gets the message of the check that runs first. Pose matrices serialize at
full float precision (they must round-trip exactly); human-facing reports
round to nine decimals elsewhere.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from . import __version__, frames
from .camera import CameraModel, build_rectification_map
from .errors import DegenerateViewingGeometry, SchemaError
from .experiment import ExperimentPlan
from .geometry import (
    RigidTransform,
    quaternion_to_rotation,
    rotation_to_quaternion,
    transform_gap,
)
from .pipeline import OffSensorPoint, ReferencingResult, ReferencingSession
from .plate import NEST_IDS, MarkNotOnPlate, ReferencingPlate
from .simulate import NoiseConfig, RobotModel, RobotPlacement, SimWorld

Array = NDArray[np.float64]

TOOL_NAME = "floorref"

_NUM = (int, float)


def read_json(path: str | Path, digests: dict[str | Path, str] | None = None) -> dict:
    """The JSON object in a file, which is opened once. Its bytes are decoded
    as a UTF-8 text file reads them; with ``digests``, their sha256 is stored
    there under ``path``, for ``provenance``."""
    # ValueError: malformed JSON, bytes that are not UTF-8, or an integer
    # beyond Python's digit limit; RecursionError: nesting beyond the stack
    try:
        with open(path, "rb") as f:
            data = f.read()
        doc = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as e:
        raise SchemaError(f"cannot read JSON document {path}: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    return doc


def write_json(doc: Mapping[str, Any], path: str | Path) -> None:
    pieces: list[str] = []
    _json_pieces(doc, "", pieces.append)
    pieces.append("\n")
    # newline pinned so outputs stay byte-identical across platforms
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(pieces))


# The text of ``json.dumps(value, indent=2)``, appended piece by piece to one
# list and joined once (with an indent, json encodes through generators in
# pure Python). What documents hold is spelled here as json spells it: str
# keys, and in a container its strings (ASCII-escaped) and its finite floats
# (by ``float.__repr__``); ints, bools and None anywhere. Every other key or
# scalar (a top-level string, an ``np.float64``, NaN, the infinities, a
# non-str key, a value json refuses) goes to ``json.dumps``, which spells it
# or raises its own TypeError. Unlike json, a container that
# holds itself is not detected: it ends in RecursionError, and no document
# holds one.


def _key_text(key: Any) -> str:
    # the text of {key: 0} between the brace and the value
    return json.dumps({key: 0})[1:-4]


def _json_pieces(value: Any, indent: str, append: Callable[[str], None]) -> None:
    """Append the text of a value whose first line is indented by ``indent``.
    A container writes its finite floats and its strings, most of a
    document's values, in place."""
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = indent + "  "
        lead, separator = "{\n" + inner, ",\n" + inner
        for k, v in value.items():
            append(lead + (encode_basestring_ascii(k) if type(k) is str else _key_text(k)) + ": ")
            lead = separator
            if type(v) is float and math.isfinite(v):
                append(float.__repr__(v))
            elif type(v) is str:
                append(encode_basestring_ascii(v))
            else:
                _json_pieces(v, inner, append)
        append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = indent + "  "
        lead, separator = "[\n" + inner, ",\n" + inner
        for v in value:
            append(lead)
            lead = separator
            if type(v) is float and math.isfinite(v):
                append(float.__repr__(v))
            elif type(v) is str:
                append(encode_basestring_ascii(v))
            else:
                _json_pieces(v, inner, append)
        append("\n" + indent + "]")
    else:
        append(_scalar_text(value))


def _scalar_text(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def provenance(
    inputs: Mapping[str, str | Path], seed: int | None, digests: Mapping[str | Path, str]
) -> dict:
    """The provenance block of an output: each input role's file by the
    sha256 that its reader stored in ``digests`` when it decoded the file."""
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "seed": seed,
        "inputs": {role: f"sha256:{digests[p]}" for role, p in sorted(inputs.items())},
    }


def _key_fault(doc: Any, required: set[str], optional: set[str]) -> str | None:
    """What is wrong with the keys of an object, or None."""
    if not isinstance(doc, (dict, Mapping)):  # dict first: the ABC check is slow
        return "expected an object"
    missing = required.difference(doc)
    if missing:
        return f"missing keys {sorted(missing)}"
    # with every required key present, only a larger object holds another key
    unknown = set(doc) - required - optional if len(doc) > len(required) else None
    return f"unknown keys {sorted(unknown)}" if unknown else None


def _check_keys(doc: Any, where: str, required: set[str], optional: set[str]) -> None:
    fault = _key_fault(doc, required, optional)
    if fault:
        raise SchemaError(f"{where}: {fault}")


def _path(where: str, key: str | int) -> str:
    return f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"


# The readers below are the only places a document value becomes a Python
# value. Each names the full field path in its SchemaError; bools are not
# numbers and strings are never parsed.


def _finite(v: Any) -> float | None:
    if type(v) is float:  # what JSON decoding gives for most numbers
        return v if math.isfinite(v) else None
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


# An array is read in one path, in this check order: every entry's keys (or,
# for rows, every row's length), then its labels (ids, position indices, mark
# membership), then all its numbers as one flat list through ``_floats``.


def _floats(values: list, path: Callable[[int], str]) -> list[float]:
    """The ``_finite`` reading of each value; a SchemaError names the first
    value that has none by ``path(i)``."""
    # a finite float, what JSON decoding gives for most numbers, reads as itself
    out = [v if type(v) is float and math.isfinite(v) else _finite(v) for v in values]
    if None in out:
        i = out.index(None)
        raise SchemaError(f"{path(i)}: expected a finite number, got {values[i]!r}")
    return out


def _numbers(doc: Any, where: str, key: str | int, n: int | None = None) -> tuple[float, ...]:
    w = _path(where, key)
    return tuple(_floats(_array(doc, where, key, n), lambda i: f"{w}[{i}]"))


def _rows(doc: Any, where: str, key: str, n: int, width: int) -> Array:
    """The (n, width) numbers of an array of n arrays of ``width`` numbers."""
    rows, w = _array(doc, where, key, n), _path(where, key)
    flat = [v for i in range(n) for v in _array(rows, w, i, width)]
    return np.array(_floats(flat, lambda i: f"{w}[{i // width}][{i % width}]")).reshape(n, width)


def _entries(
    doc: Mapping[str, Any], where: str, key: str, required: set[str], optional: set[str]
) -> list:
    """The objects of an array, each one's keys checked."""
    entries = _array(doc, where, key)
    for i, entry in enumerate(entries):
        fault = _key_fault(entry, required, optional)
        if fault:
            raise SchemaError(f"{where}.{key}[{i}]: {fault}")
    return entries


def _entry_numbers(entries: list, where: str, names: tuple[str, ...]) -> Array:
    """The (n, len(names)) numbers under ``names`` of the entries of the
    array at ``where``."""
    n = len(names)
    flat = [entry[name] for entry in entries for name in names]
    return np.array(_floats(flat, lambda i: f"{where}[{i // n}].{names[i % n]}")).reshape(-1, n)


def _mark_ids(entries: list, where: str, key: str) -> list[str]:
    """The mark id under ``key`` of each entry of the array at ``where``,
    each listed once."""
    ids = [entry[key] for entry in entries]
    first: dict[str, int] = {}
    for i, mark_id in enumerate(ids):
        if not isinstance(mark_id, str):
            raise SchemaError(f"{where}[{i}].{key}: expected a string, got {mark_id!r}")
        if first.setdefault(mark_id, i) != i:
            raise SchemaError(f"{where}[{i}].{key}: duplicate mark id {mark_id!r}")
    return ids


def _transform(doc: Any, where: str, key: str, source: str, dest: str) -> RigidTransform:
    m = _rows(doc, where, key, 4, 4)
    try:
        return RigidTransform.from_matrix(m, source=source, dest=dest)
    except ValueError as e:
        raise SchemaError(f"{_path(where, key)}: {e}") from e


def _check_provenance(block: Any, where: str) -> None:
    # the block ``provenance`` writes; nothing reads its values back
    _check_keys(block, where, {"tool", "version", "seed", "inputs"}, set())
    _text(block, where, "tool")
    _text(block, where, "version")
    if block["seed"] is not None and _integer(block, where, "seed") < 0:
        raise SchemaError(f"{where}.seed: expected a non-negative integer, got {block['seed']}")
    inputs = block["inputs"]
    if not isinstance(inputs, Mapping):
        raise SchemaError(f"{where}.inputs: expected an object")
    for role in inputs:
        _text(inputs, f"{where}.inputs", role)


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


def camera_from_dict(doc: Mapping[str, Any]) -> CameraModel:
    where = "camera"
    keys = {"focal_mm", "sx_mm", "sy_mm", "cx_px", "cy_px", "k", "rows", "cols"}
    _check_keys(doc, where, keys, set())
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
    marks = zip(plate.mark_ids, plate.mark_points.tolist())
    return {
        "marks": [{"id": mark_id, "x": x, "y": y} for mark_id, (x, y, _) in marks],
        "nests": dict(zip(NEST_IDS, plate.nest_points.tolist())),
        "delta_mm": plate.delta_mm,
        "extent_mm": list(plate.extent_mm),
    }


def plate_from_dict(doc: Mapping[str, Any]) -> ReferencingPlate:
    where = "plate"
    _check_keys(doc, where, {"marks", "nests", "delta_mm", "extent_mm"}, set())
    if doc["marks"] == []:
        raise SchemaError(f"{where}.marks: expected at least one mark, got []")
    marks = _entries(doc, where, "marks", {"id", "x", "y"}, set())
    ids = _mark_ids(marks, f"{where}.marks", "id")
    xy = _entry_numbers(marks, f"{where}.marks", ("x", "y"))
    _check_keys(doc["nests"], f"{where}.nests", set(NEST_IDS), set())
    try:
        return ReferencingPlate(
            mark_ids=ids,
            mark_points=np.column_stack([xy, np.zeros(len(ids))]),
            nest_points=[_numbers(doc["nests"], f"{where}.nests", nid, 3) for nid in NEST_IDS],
            delta_mm=_number(doc, where, "delta_mm"),
            extent_mm=_numbers(doc, where, "extent_mm", 2),
        )
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


# --- session ---------------------------------------------------------------

# (id, position_index) of each tracker point a session holds: the smrs seated
# in the nests, without an index, then the robot smr at positions 0 and 1;
# the rows of a session's nest_points and then its robot_points
_TRACKER_POINTS = (*((nest_id, None) for nest_id in NEST_IDS), ("robot_smr", 0), ("robot_smr", 1))


def _tracker_point(point: tuple[str, int | None]) -> str:
    point_id, index = point
    return repr(point_id) if index is None else f"{point_id!r} at position index {index}"


def session_to_dict(
    session: ReferencingSession,
    ground_truth: Mapping[str, RigidTransform] | None = None,
    prov: Mapping[str, Any] | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "camera": camera_to_dict(session.camera),
        "plate": plate_to_dict(session.plate),
        "tracker_measurements": [
            {"id": point_id, "x": x, "y": y, "z": z, "position_index": index}
            for (point_id, index), (x, y, z) in zip(
                _TRACKER_POINTS, [*session.nest_points.tolist(), *session.robot_points.tolist()]
            )
        ],
        "image_observation": [
            {"mark_id": mark_id, "row": row, "col": col}
            for mark_id, (row, col) in zip(session.mark_ids, session.image_points.tolist())
        ],
    }
    if ground_truth is not None:
        doc["ground_truth"] = {
            name: h.matrix.tolist() for name, h in ground_truth.items()
        }
    if prov is not None:
        doc["provenance"] = dict(prov)
    return doc


def _tracker_points(doc: Mapping[str, Any], where: str) -> Array:
    """The (5, 3) tracker points of a session in ``_TRACKER_POINTS`` order."""
    w = f"{where}.tracker_measurements"
    keys = {"id", "x", "y", "z"}
    entries = _entries(doc, where, "tracker_measurements", keys, {"position_index"})
    points: list[tuple[str, int | None]] = []
    for i, entry in enumerate(entries):
        wi = f"{w}[{i}]"
        point_id, index = _text(entry, wi, "id"), entry.get("position_index")
        point = (point_id, None if index is None else _integer(entry, wi, "position_index"))
        if point not in _TRACKER_POINTS:
            raise SchemaError(
                f"{wi}: {_tracker_point(point)} is not a tracker point of a session (nests 'r', "
                f"'g' and 'b' without a position index, 'robot_smr' at position index 0 and 1)"
            )
        if point in points:
            raise SchemaError(f"{wi}: second reading of {_tracker_point(point)}")
        points.append(point)
    for point in _TRACKER_POINTS:
        if point not in points:
            raise SchemaError(f"{w}: no reading of {_tracker_point(point)}")
    xyz = _entry_numbers(entries, w, ("x", "y", "z"))
    return xyz[[points.index(point) for point in _TRACKER_POINTS]]


def _image_observation(doc: Mapping[str, Any], where: str) -> tuple[tuple[str, ...], Array]:
    """The observed mark ids of a session, each listed once, and their (n, 2)
    image points; the ``ReferencingSession`` constructor looks the ids up on
    the plate."""
    w = f"{where}.image_observation"
    entries = _entries(doc, where, "image_observation", {"mark_id", "row", "col"}, set())
    mark_ids = _mark_ids(entries, w, "mark_id")
    return tuple(mark_ids), _entry_numbers(entries, w, ("row", "col"))


def session_from_dict(doc: Mapping[str, Any]) -> ReferencingSession:
    where = "session"
    required = {"camera", "plate", "tracker_measurements", "image_observation"}
    _check_keys(doc, where, required, {"ground_truth", "provenance"})
    camera = camera_from_dict(doc["camera"])
    plate = plate_from_dict(doc["plate"])
    points = _tracker_points(doc, where)
    mark_ids, rowcol = _image_observation(doc, where)
    try:
        session = ReferencingSession(
            camera=camera,
            plate=plate,
            mark_ids=mark_ids,
            image_points=rowcol,
            nest_points=points[:3],
            robot_points=points[3:],
        )
    except MarkNotOnPlate as e:
        raise SchemaError(f"{where}.image_observation[{e.index}].mark_id: {e}") from None
    except OffSensorPoint as e:
        row, col = rowcol[e.index].tolist()
        raise SchemaError(
            f"{where}.image_observation[{e.index}]: point (row {row}, col {col}) is off "
            f"the {camera.rows}x{camera.cols} px sensor"
        ) from e
    if "provenance" in doc:
        _check_provenance(doc["provenance"], f"{where}.provenance")
    return session


def session_ground_truth(doc: Mapping[str, Any]) -> dict[str, RigidTransform] | None:
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
    _check_keys(block, where, set(), set(tags))
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
            "cam_H_ref": result.scene.h_cam_ref.matrix.tolist(),
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


def _check_reversal(block: Any, where: str) -> None:
    # the gap and the run residuals ``result_to_dict`` writes; a loaded result
    # keeps neither run
    _check_keys(block, where, {"delta_translation_mm", "delta_rotation_deg", "run_residuals"}, set())
    _number(block, where, "delta_translation_mm")
    _number(block, where, "delta_rotation_deg")
    _array(block, where, "run_residuals", 2)
    keys = ("registration_rms_mm", "reprojection_rms_px")
    runs = _entries(block, where, "run_residuals", set(keys), set())
    _entry_numbers(runs, f"{where}.run_residuals", keys)


def result_from_dict(doc: Mapping[str, Any], camera: CameraModel) -> ReferencingResult:
    where = "result"
    required = {
        "units", "rob_H_cam", "rotation_quaternion_wxyz", "frames", "residuals", "intermediates"
    }
    _check_keys(doc, where, required, {"reversal", "provenance"})
    if doc["units"] != "mm":
        raise SchemaError(f"{where}.units: expected 'mm', got {doc['units']!r}")
    frames_doc = doc["frames"]
    _check_keys(frames_doc, f"{where}.frames", {"source", "dest"}, set())
    if frames_doc["source"] != frames.CAM or frames_doc["dest"] != frames.ROB:
        raise SchemaError(
            f"{where}.frames: expected cam -> rob, got "
            f"{frames_doc['source']!r} -> {frames_doc['dest']!r}"
        )
    h_rob_cam = _transform(doc, where, "rob_H_cam", frames.CAM, frames.ROB)
    quat = _numbers(doc, where, "rotation_quaternion_wxyz", 4)
    try:
        r_quat = quaternion_to_rotation(quat)
    except ValueError as e:
        raise SchemaError(f"{where}.rotation_quaternion_wxyz: {e}") from e
    if np.max(np.abs(r_quat - h_rob_cam.rotation)) > 1e-9:
        raise SchemaError(f"{where}.rotation_quaternion_wxyz: disagrees with rob_H_cam beyond 1e-9")

    inter, w = doc["intermediates"], f"{where}.intermediates"
    _check_keys(inter, w, {"cam_H_ref", "abs_H_scn", "abs_H_rob", "scn_H_cam"}, set())
    h_cam_ref = _transform(inter, w, "cam_H_ref", frames.REF, frames.CAM)
    h_abs_scn = _transform(inter, w, "abs_H_scn", frames.SCN, frames.ABS)
    h_abs_rob = _transform(inter, w, "abs_H_rob", frames.ROB, frames.ABS)
    h_scn_cam_stored = _transform(inter, w, "scn_H_cam", frames.CAM, frames.SCN)

    try:
        scene = build_rectification_map(camera, h_cam_ref)
    except DegenerateViewingGeometry as e:
        raise SchemaError(f"{w}.cam_H_ref: {e}") from e
    if np.max(np.abs(scene.h_scn_cam.matrix - h_scn_cam_stored.matrix)) > 1e-9:
        raise SchemaError(
            f"{where}: stored scn_H_cam does not match the camera model and cam_H_ref"
        )

    residuals, w = doc["residuals"], f"{where}.residuals"
    keys = {"registration_rms_mm", "reprojection_rms_px", "suspect"}
    _check_keys(residuals, w, keys, set())
    result = ReferencingResult(
        h_rob_cam=h_rob_cam,
        scene=scene,
        h_abs_scn=h_abs_scn,
        h_abs_rob=h_abs_rob,
        registration_rms_mm=_number(residuals, w, "registration_rms_mm"),
        reprojection_rms_px=_number(residuals, w, "reprojection_rms_px"),
        suspect=_flag(residuals, w, "suspect"),
    )
    if "reversal" in doc:
        _check_reversal(doc["reversal"], f"{where}.reversal")
    if "provenance" in doc:
        _check_provenance(doc["provenance"], f"{where}.provenance")
    return result


# --- world config ----------------------------------------------------------


def _planar_pose(doc: Mapping[str, Any], where: str) -> RobotPlacement:
    _check_keys(doc, where, {"x_mm", "y_mm", "yaw_deg"}, set())
    return RobotPlacement(
        _number(doc, where, "x_mm"),
        _number(doc, where, "y_mm"),
        math.radians(_number(doc, where, "yaw_deg")),
    )


def world_from_dict(
    doc: Mapping[str, Any]
) -> tuple[SimWorld, NoiseConfig, tuple[RobotPlacement, RobotPlacement] | None]:
    """World, noise and optional placements of a world config. The config's
    ``noise.plate_amplitude_mm`` is the world's plate bow
    (``SimWorld.deformation_amplitude_mm``): the returned world is bowed."""
    where = "world"
    required = {"camera", "plate", "robot", "hand_eye", "plate_pose"}
    _check_keys(doc, where, required, {"floor", "noise", "seed", "placements"})
    camera = camera_from_dict(doc["camera"])
    plate = plate_from_dict(doc["plate"])

    robot_doc, w = doc["robot"], f"{where}.robot"
    _check_keys(robot_doc, w, {"smr_height_mm", "wheel_contacts_xy_mm"}, set())
    try:
        robot = RobotModel(
            smr_height_mm=_number(robot_doc, w, "smr_height_mm"),
            wheel_contacts_xy_mm=_rows(robot_doc, w, "wheel_contacts_xy_mm", 3, 2),
        )
    except ValueError as e:
        raise SchemaError(f"{where}.robot: {e}") from e

    hand_eye_doc = doc["hand_eye"]
    _check_keys(hand_eye_doc, f"{where}.hand_eye", {"matrix"}, set())
    hand_eye = _transform(hand_eye_doc, f"{where}.hand_eye", "matrix", frames.CAM, frames.ROB)

    plate_pose = _planar_pose(doc["plate_pose"], f"{where}.plate_pose")

    floor_doc, wf = doc.get("floor", {}), f"{where}.floor"
    _check_keys(floor_doc, wf, set(), {"inclination_deg", "azimuth_deg"})

    noise_doc, w = doc.get("noise", {}), f"{where}.noise"
    sigmas = ("tracker_sigma_mm", "image_sigma_px", "nest_offset_error_mm")
    _check_keys(noise_doc, w, set(), {*sigmas, "plate_amplitude_mm"})
    try:
        # an absent key takes NoiseConfig's default
        noise = NoiseConfig(**{k: _number(noise_doc, w, k) for k in sigmas if k in noise_doc})
    except ValueError as e:
        raise SchemaError(f"{w}: {e}") from e
    amplitude = _number(noise_doc, w, "plate_amplitude_mm", 0.0)
    seed = _integer(doc, where, "seed", 0)
    if seed < 0:
        raise SchemaError(f"{where}.seed: expected a non-negative integer, got {seed}")

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
            deformation_amplitude_mm=amplitude,
            seed=seed,
        )
    except ValueError as e:
        # the hand-eye's frames are fixed by _transform: the world rejects
        # only the plate amplitude and the floor angles, whose messages start
        # "floor inclination" or "floor azimuth"
        words = str(e).split(maxsplit=2)
        key = f"{wf}.{words[1]}_deg" if words[0] == "floor" else f"{w}.plate_amplitude_mm"
        raise SchemaError(f"{key}: {e}") from e

    placements = None
    if "placements" in doc:
        pl_doc = doc["placements"]
        _check_keys(pl_doc, f"{where}.placements", {"position0", "position1"}, set())
        placements = (
            _planar_pose(pl_doc["position0"], f"{where}.placements.position0"),
            _planar_pose(pl_doc["position1"], f"{where}.placements.position1"),
        )
    return world, noise, placements


# --- experiment plan ---------------------------------------------------------


def plan_from_dict(doc: Mapping[str, Any]) -> ExperimentPlan:
    where = "plan"
    # reader of each optional key; an absent key takes ExperimentPlan's default
    optional = {
        "yaw_deg_list": _numbers,
        "repeats": _integer,
        "max_offset_mm": _number,
        "yaw_jitter_deg": _number,
    }
    _check_keys(doc, where, {"mark_xy_mm"}, set(optional))
    kwargs: dict[str, Any] = {"mark_xy_mm": _numbers(doc, where, "mark_xy_mm", 2)}
    kwargs.update((key, read(doc, where, key)) for key, read in optional.items() if key in doc)
    try:
        return ExperimentPlan(**kwargs)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e
