import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorref.cli import main
from floorref.errors import SchemaError
from floorref.pipeline import compute_rob_h_cam
from floorref.schemas import (
    camera_from_dict,
    camera_to_dict,
    plan_from_dict,
    plan_to_dict,
    plate_from_dict,
    plate_to_dict,
    read_json,
    result_from_dict,
    result_to_dict,
    session_from_dict,
    session_ground_truth,
    session_to_dict,
    world_from_dict,
    world_to_dict,
    write_json,
)
from floorref.experiment import ExperimentPlan
from floorref.simulate import GLASS_NOISE, default_placements


class TestCameraSchema:
    def test_round_trip(self, world):
        doc = camera_to_dict(world.camera)
        assert camera_from_dict(doc) == world.camera

    def test_unknown_key_strict(self, world):
        doc = camera_to_dict(world.camera)
        doc["zoom"] = 2
        with pytest.raises(SchemaError, match="unknown keys"):
            camera_from_dict(doc)
        assert camera_from_dict(doc, lenient=True) == world.camera

    def test_missing_key(self, world):
        doc = camera_to_dict(world.camera)
        del doc["focal_mm"]
        with pytest.raises(SchemaError, match="missing keys"):
            camera_from_dict(doc)

    def test_bad_number(self, world):
        doc = camera_to_dict(world.camera)
        doc["focal_mm"] = "twelve"
        with pytest.raises(SchemaError):
            camera_from_dict(doc)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("value", [2.5, 2048.0, True, "2048"])
    def test_non_integer_size_rejected(self, world, key, value):
        doc = camera_to_dict(world.camera)
        doc[key] = value
        with pytest.raises(SchemaError, match=rf"camera\.{key}: expected an integer"):
            camera_from_dict(doc)


class TestPlateSchema:
    def test_round_trip(self, world):
        doc = plate_to_dict(world.plate)
        plate = plate_from_dict(doc)
        assert plate.marks.keys() == world.plate.marks.keys()
        for k in plate.marks:
            assert np.array_equal(plate.marks[k], world.plate.marks[k])
        for nid in ("r", "g", "b"):
            assert np.array_equal(plate.nests[nid], world.plate.nests[nid])
        assert plate.delta_mm == world.plate.delta_mm

    def test_invalid_nest_shape(self, world):
        doc = plate_to_dict(world.plate)
        doc["nests"]["r"] = [1.0, 2.0]
        with pytest.raises(SchemaError):
            plate_from_dict(doc)


class TestSessionSchema:
    def test_round_trip(self, world, noiseless_session):
        doc = session_to_dict(noiseless_session)
        parsed = session_from_dict(doc)
        assert parsed.camera == noiseless_session.camera
        assert len(parsed.tracker) == len(noiseless_session.tracker)
        for a, b in zip(parsed.tracker, noiseless_session.tracker):
            assert a.point_id == b.point_id
            assert a.position_index == b.position_index
            assert np.array_equal(a.position, b.position)
        for (ida, ipa), (idb, ipb) in zip(
            parsed.image_observation, noiseless_session.image_observation
        ):
            assert ida == idb and ipa == ipb

    def test_parsed_session_calibrates_identically(self, noiseless_session):
        parsed = session_from_dict(session_to_dict(noiseless_session))
        a = compute_rob_h_cam(noiseless_session)
        b = compute_rob_h_cam(parsed)
        assert np.array_equal(a.h_rob_cam.matrix, b.h_rob_cam.matrix)

    def test_strict_unknown_key(self, noiseless_session):
        doc = session_to_dict(noiseless_session)
        doc["tracker_measurements"][0]["quality"] = 1.0
        with pytest.raises(SchemaError):
            session_from_dict(doc)
        session_from_dict(doc, lenient=True)

    def test_duplicate_mark_id_rejected(self, noiseless_session):
        doc = session_to_dict(noiseless_session)
        entries = doc["image_observation"]
        entries.append(dict(entries[3]))
        with pytest.raises(
            SchemaError, match=rf"session\.image_observation\[{len(entries) - 1}\]\.mark_id"
        ):
            session_from_dict(doc)


class TestResultSchema:
    def test_round_trip_bit_compatible(self, world, noiseless_result):
        doc = json.loads(json.dumps(result_to_dict(noiseless_result)))
        parsed = result_from_dict(doc, world.camera)
        assert np.array_equal(parsed.h_rob_cam.matrix, noiseless_result.h_rob_cam.matrix)
        assert parsed.registration_rms_mm == noiseless_result.registration_rms_mm
        assert parsed.reprojection_rms_px == noiseless_result.reprojection_rms_px

    def test_quaternion_disagreement_rejected(self, world, noiseless_result):
        doc = result_to_dict(noiseless_result)
        doc["rotation_quaternion_wxyz"][1] += 1e-6
        with pytest.raises(SchemaError, match="quaternion"):
            result_from_dict(doc, world.camera)

    def test_units_enforced(self, world, noiseless_result):
        doc = result_to_dict(noiseless_result)
        doc["units"] = "m"
        with pytest.raises(SchemaError, match="units"):
            result_from_dict(doc, world.camera)

    def test_scene_mismatch_rejected(self, world, noiseless_result):
        doc = result_to_dict(noiseless_result)
        doc["intermediates"]["scn_H_cam"][0][3] += 5.0
        with pytest.raises(SchemaError, match="scn_H_cam"):
            result_from_dict(doc, world.camera)

    def test_reversal_block_serialized(self, noiseless_result, world):
        from floorref.pipeline import reversal_average

        merged = reversal_average(noiseless_result, noiseless_result)
        doc = result_to_dict(merged)
        assert doc["reversal"]["delta_translation_mm"] == 0.0
        parsed = result_from_dict(doc, world.camera)
        assert np.array_equal(parsed.h_rob_cam.matrix, merged.h_rob_cam.matrix)


class TestWorldSchema:
    def test_round_trip(self, world):
        placements = default_placements(world)
        doc = world_to_dict(world, GLASS_NOISE, placements)
        w2, noise, pl = world_from_dict(doc)
        assert w2.camera == world.camera
        assert np.array_equal(w2.h_rob_cam_true.matrix, world.h_rob_cam_true.matrix)
        assert noise == GLASS_NOISE
        assert pl is not None
        assert abs(pl[0].x_mm - placements[0].x_mm) < 1e-12
        assert abs(pl[0].yaw_rad - placements[0].yaw_rad) < 1e-12

    def test_defaults_for_optional_blocks(self, world):
        doc = world_to_dict(world, GLASS_NOISE)
        del doc["floor"]
        del doc["noise"]
        del doc["seed"]
        w2, noise, pl = world_from_dict(doc)
        assert w2.floor_inclination_rad == 0.0
        assert noise.tracker_sigma_mm == 0.035
        assert pl is None

    def test_bad_hand_eye_matrix(self, world):
        doc = world_to_dict(world, GLASS_NOISE)
        doc["hand_eye"]["matrix"][0][0] = 5.0
        with pytest.raises(SchemaError):
            world_from_dict(doc)

    def test_negative_noise_rejected(self, world):
        doc = world_to_dict(world, GLASS_NOISE)
        doc["noise"]["tracker_sigma_mm"] = -1.0
        with pytest.raises(SchemaError):
            world_from_dict(doc)


class TestPlanSchema:
    def test_round_trip(self):
        plan = ExperimentPlan(mark_xy_mm=(10.0, 20.0), repeats=3)
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_defaults(self):
        plan = plan_from_dict({"mark_xy_mm": [1.0, 2.0]})
        assert plan.repeats == 5
        assert len(plan.yaw_deg_list) == 8

    def test_empty_yaw_list_rejected(self):
        with pytest.raises(SchemaError):
            plan_from_dict({"mark_xy_mm": [1.0, 2.0], "yaw_deg_list": []})


def test_json_file_round_trip(tmp_path, world, noiseless_session):
    path = tmp_path / "session.json"
    write_json(session_to_dict(noiseless_session), path)
    doc = read_json(path)
    parsed = session_from_dict(doc)
    assert np.array_equal(parsed.tracker[0].position, noiseless_session.tracker[0].position)


def test_read_json_rejects_non_object(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError):
        read_json(path)
    path.write_text("{broken")
    with pytest.raises(SchemaError):
        read_json(path)


# --- malformed fields --------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def quick_start_docs(tmp_path_factory):
    """The session, result, world and plan documents of the README quick start."""
    d = tmp_path_factory.mktemp("quick_start")
    world = str(CONFIGS / "world.json")
    a, b, r = str(d / "a.json"), str(d / "b.json"), str(d / "r.json")
    assert main(["simulate", world, "--seed", "7", "--out", a]) == 0
    assert main(["simulate", world, "--seed", "8", "--reverse", "--out", b]) == 0
    assert main(["calibrate", a, "--reversal", b, "--out", r]) == 0
    return {
        "session": read_json(a),
        "result": read_json(r),
        "world": read_json(world),
        "plan": read_json(CONFIGS / "plan.json"),
    }


def _decode(kind, doc, docs):
    if kind == "session":
        session_from_dict(doc)
        session_ground_truth(doc)
    elif kind == "result":
        result_from_dict(doc, camera_from_dict(docs["world"]["camera"]))
    elif kind == "world":
        world_from_dict(doc)
    else:
        plan_from_dict(doc)


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return mutate


def _repeat_plate_mark(doc):
    doc["plate"]["marks"].append(dict(doc["plate"]["marks"][0]))


def _unknown_truth_key(doc):
    doc["ground_truth"]["rob_H_rob"] = doc["ground_truth"]["rob_H_cam"]


# (document, mutation, field path the decoder's SchemaError must start with)
MALFORMED = [
    ("session", _set(["camera", "k", 1], "0.01"), "camera.k[1]"),
    ("session", _set(["plate", "nests", "g", 2], True), "plate.nests.g[2]"),
    ("session", _set(["plate", "extent_mm", 0], "600"), "plate.extent_mm[0]"),
    (
        "session",
        _set(["tracker_measurements", 3, "position_index"], True),
        "session.tracker_measurements[3].position_index",
    ),
    (
        "world",
        _set(["robot", "wheel_contacts_xy_mm", 1, 0], "100"),
        "world.robot.wheel_contacts_xy_mm[1][0]",
    ),
    ("world", _set(["noise", "tracker_sigma_mm"], "0.035"), "world.noise.tracker_sigma_mm"),
    ("world", _set(["noise", "image_sigma_px"], math.nan), "world.noise.image_sigma_px"),
    ("world", _set(["noise", "nest_offset_error_mm"], True), "world.noise.nest_offset_error_mm"),
    ("world", _set(["noise", "plate_amplitude_mm"], "0"), "world.noise.plate_amplitude_mm"),
    ("world", _set(["floor", "inclination_deg"], math.inf), "world.floor.inclination_deg"),
    ("world", _set(["floor", "azimuth_deg"], True), "world.floor.azimuth_deg"),
    ("world", _set(["hand_eye", "matrix", 3, 3], True), "world.hand_eye.matrix[3][3]"),
    ("result", _set(["residuals", "suspect"], "no"), "result.residuals.suspect"),
    ("result", _set(["rotation_quaternion_wxyz", 0], "a"), "result.rotation_quaternion_wxyz[0]"),
    ("plan", _set(["mark_xy_mm", 0], "a"), "plan.mark_xy_mm[0]"),
    ("plan", _set(["yaw_deg_list", 2], "90"), "plan.yaw_deg_list[2]"),
    ("plan", _set(["max_offset_mm"], 10**400), "plan.max_offset_mm"),  # beyond the float range
    ("result", _set(["rotation_quaternion_wxyz"], [0, 0, 0, 0]), "result.rotation_quaternion_wxyz"),
    ("session", _repeat_plate_mark, "plate.marks[25].id"),
    ("session", _unknown_truth_key, "session.ground_truth"),
    ("session", _set(["image_observation", 2, "row"], 20000.0), "session.image_observation[2]"),
    ("session", _set(["image_observation", 3, "mark_id"], "Z9"), "session.image_observation[3].mark_id"),
]


@pytest.mark.parametrize(
    "kind, mutate, field", MALFORMED, ids=[field for _, _, field in MALFORMED]
)
def test_malformed_field_names_its_path(quick_start_docs, kind, mutate, field):
    doc = copy.deepcopy(quick_start_docs[kind])
    _decode(kind, doc, quick_start_docs)  # the unmodified document decodes
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        _decode(kind, doc, quick_start_docs)
    assert str(info.value).startswith(f"{field}:")


ID_FIELDS = [
    (["plate", "marks", 1, "id"], "plate.marks[1].id"),
    (["tracker_measurements", 2, "id"], "session.tracker_measurements[2].id"),
    (["image_observation", 3, "mark_id"], "session.image_observation[3].mark_id"),
]


@pytest.mark.parametrize("junk", [True, 0, ["r"]], ids=["true", "zero", "list"])
@pytest.mark.parametrize("path, field", ID_FIELDS, ids=[field for _, field in ID_FIELDS])
def test_non_string_id_names_its_path(quick_start_docs, path, field, junk):
    doc = copy.deepcopy(quick_start_docs["session"])
    _set(path, junk)(doc)
    with pytest.raises(SchemaError, match=r"expected a string") as info:
        session_from_dict(doc)
    assert str(info.value).startswith(f"{field}:")


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path


_JUNK = st.one_of(
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3), st.none()), max_size=5),
)


@pytest.mark.parametrize("kind", ["session", "result", "world", "plan"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_junk_leaf_decodes_or_raises_schema_error(quick_start_docs, kind, data):
    doc = copy.deepcopy(quick_start_docs[kind])
    path = data.draw(st.sampled_from(sorted(_leaves(doc), key=repr)))
    _set(path, data.draw(_JUNK))(doc)
    try:
        _decode(kind, doc, quick_start_docs)
    except SchemaError:
        pass
