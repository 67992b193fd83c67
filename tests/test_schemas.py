import copy
import json
import math
import re
import warnings
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
    plate_from_dict,
    plate_to_dict,
    read_json,
    result_from_dict,
    result_to_dict,
    session_from_dict,
    session_ground_truth,
    session_to_dict,
    world_from_dict,
    write_json,
)
from floorref.experiment import ExperimentPlan
from floorref.plate import ReferencingPlate
from floorref.simulate import (
    GLASS_NOISE,
    default_placements,
    demo_world,
    inject_wooden_plate,
    simulate_referencing_session,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestCameraSchema:
    def test_round_trip(self, world):
        doc = camera_to_dict(world.camera)
        assert camera_from_dict(doc) == world.camera

    def test_unknown_key_strict(self, world):
        doc = camera_to_dict(world.camera)
        doc["zoom"] = 2
        with pytest.raises(SchemaError, match=r"^camera: unknown keys \['zoom'\]$"):
            camera_from_dict(doc)

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
        assert plate.mark_ids == world.plate.mark_ids
        assert np.array_equal(plate.mark_points, world.plate.mark_points)
        assert np.array_equal(plate.nest_points, world.plate.nest_points)
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
        assert parsed.mark_ids == noiseless_session.mark_ids
        for name in ("image_points", "nest_points", "robot_points"):
            assert np.array_equal(getattr(parsed, name), getattr(noiseless_session, name))
        assert [(m["id"], m["position_index"]) for m in doc["tracker_measurements"]] == [
            ("r", None),
            ("g", None),
            ("b", None),
            ("robot_smr", 0),
            ("robot_smr", 1),
        ]

    def test_shuffled_tracker_entries_decode_to_the_same_arrays(self, noiseless_session):
        doc = session_to_dict(noiseless_session)
        shuffled = copy.deepcopy(doc)
        shuffled["tracker_measurements"] = [doc["tracker_measurements"][i] for i in (4, 1, 3, 0, 2)]
        parsed = session_from_dict(shuffled)
        assert np.array_equal(parsed.nest_points, noiseless_session.nest_points)
        assert np.array_equal(parsed.robot_points, noiseless_session.robot_points)
        # re-encoded in canonical order: r, g, b, then the robot smr at 0 and 1
        assert json.dumps(session_to_dict(parsed)) == json.dumps(doc)

    def test_parsed_session_calibrates_identically(self, noiseless_session):
        parsed = session_from_dict(session_to_dict(noiseless_session))
        a = compute_rob_h_cam(noiseless_session)
        b = compute_rob_h_cam(parsed)
        assert np.array_equal(a.h_rob_cam.matrix, b.h_rob_cam.matrix)

    def test_strict_unknown_key(self, noiseless_session):
        doc = session_to_dict(noiseless_session)
        doc["tracker_measurements"][0]["quality"] = 1.0
        with pytest.raises(
            SchemaError, match=r"^session\.tracker_measurements\[0\]: unknown keys \['quality'\]$"
        ):
            session_from_dict(doc)

    def test_duplicate_mark_id_rejected(self, noiseless_session):
        doc = session_to_dict(noiseless_session)
        entries = doc["image_observation"]
        entries.append(dict(entries[3]))
        with pytest.raises(
            SchemaError, match=rf"session\.image_observation\[{len(entries) - 1}\]\.mark_id"
        ):
            session_from_dict(doc)

    def test_one_mark_id_look_up_per_session(self, noiseless_session, call_counts):
        doc = session_to_dict(noiseless_session)
        counts = call_counts((ReferencingPlate, "mark_rows"))
        session_from_dict(doc)
        assert counts["mark_rows"] == 1
        doc["image_observation"][3]["mark_id"] = "Z9"
        with pytest.raises(
            SchemaError, match=r"^session\.image_observation\[3\]\.mark_id: mark 'Z9' is not on the plate$"
        ):
            session_from_dict(doc)
        assert counts["mark_rows"] == 2


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


def _world_config():
    return read_json(CONFIGS / "world.json")


def _assert_demo_rig(world, noise, amplitude_mm):
    # configs/world.json is the rig of demo_world(42) under GLASS_NOISE
    demo = demo_world(42)
    assert world.camera == demo.camera
    assert world.robot == demo.robot
    assert world.plate.mark_ids == demo.plate.mark_ids
    for name in ("mark_points", "nest_points"):
        assert np.array_equal(getattr(world.plate, name), getattr(demo.plate, name))
    assert world.plate.delta_mm == demo.plate.delta_mm
    assert world.plate.extent_mm == demo.plate.extent_mm
    assert np.array_equal(world.h_rob_cam_true.matrix, demo.h_rob_cam_true.matrix)
    pose = ("plate_x_mm", "plate_y_mm", "plate_yaw_rad", "floor_inclination_rad", "floor_azimuth_rad")
    assert [getattr(world, k) for k in pose] == [getattr(demo, k) for k in pose]
    assert world.seed == demo.seed
    assert world.deformation_amplitude_mm == amplitude_mm
    assert noise == GLASS_NOISE


class TestWorldSchema:
    def test_round_trip(self):
        doc = _world_config()
        w, _, _ = world_from_dict(doc)
        placements = default_placements(w)
        doc["placements"] = {
            f"position{i}": {"x_mm": p.x_mm, "y_mm": p.y_mm, "yaw_deg": math.degrees(p.yaw_rad)}
            for i, p in enumerate(placements)
        }
        w2, noise, pl = world_from_dict(doc)
        _assert_demo_rig(w2, noise, 0.0)
        assert pl is not None
        for got, want in zip(pl, placements):
            assert (got.x_mm, got.y_mm) == (want.x_mm, want.y_mm)
            assert abs(got.yaw_rad - want.yaw_rad) < 1e-12

    def test_defaults_for_optional_blocks(self):
        doc = _world_config()
        del doc["floor"]
        del doc["noise"]
        del doc["seed"]
        w2, noise, pl = world_from_dict(doc)
        assert w2.floor_inclination_rad == 0.0
        assert noise.tracker_sigma_mm == 0.035
        assert pl is None

    def test_bad_hand_eye_matrix(self):
        doc = _world_config()
        doc["hand_eye"]["matrix"][0][0] = 5.0
        with pytest.raises(SchemaError):
            world_from_dict(doc)

    def test_wooden_config_is_the_bowed_world(self):
        # the config's plate bow goes onto the world: it is the demo rig with
        # a 1 mm bow, and its sessions are those of the flat world bowed by
        # inject_wooden_plate
        doc = read_json(CONFIGS / "world_wooden.json")
        world, noise, placements = world_from_dict(doc)
        assert world.deformation_amplitude_mm == doc["noise"]["plate_amplitude_mm"] == 1.0
        _assert_demo_rig(world, noise, 1.0)
        assert placements is None
        flat, _, _ = world_from_dict({**doc, "noise": {**doc["noise"], "plate_amplitude_mm": 0.0}})
        injected = inject_wooden_plate(flat, 1.0)
        for reverse in (False, True):
            pair = default_placements(world, reverse=reverse)
            sessions = [simulate_referencing_session(w, noise, *pair) for w in (world, injected)]
            assert session_to_dict(sessions[0]) == session_to_dict(sessions[1])

    def test_negative_plate_amplitude_names_its_field(self):
        doc = _world_config()
        doc["noise"]["plate_amplitude_mm"] = -0.5
        with pytest.raises(SchemaError, match=r"^world\.noise\.plate_amplitude_mm: .*non-negative"):
            world_from_dict(doc)

    def test_negative_noise_rejected(self):
        doc = _world_config()
        doc["noise"]["tracker_sigma_mm"] = -1.0
        with pytest.raises(SchemaError):
            world_from_dict(doc)


class TestPlanSchema:
    def test_round_trip(self):
        plan = plan_from_dict(read_json(CONFIGS / "plan.json"))
        assert plan == ExperimentPlan(mark_xy_mm=(1200.0, 900.0))

    def test_defaults(self):
        plan = plan_from_dict({"mark_xy_mm": [1.0, 2.0]})
        assert plan.repeats == 5
        assert len(plan.yaw_deg_list) == 8

    def test_empty_yaw_list_rejected(self):
        with pytest.raises(SchemaError):
            plan_from_dict({"mark_xy_mm": [1.0, 2.0], "yaw_deg_list": []})

    @pytest.mark.parametrize(
        "yaw, text", [(22.5, "22.50"), (999967.5, "999967.50"), (1000012.5, "1.00001e+06"), (1e300, "1e+300")]
    )
    def test_unmapped_yaw_names_its_entry(self, yaw, text):
        with pytest.raises(SchemaError) as info:
            plan_from_dict({"mark_xy_mm": [1.0, 2.0], "yaw_deg_list": [0.0, yaw]})
        assert str(info.value) == (
            f"plan: yaw_deg_list[1]: yaw {text} deg is not within 10 deg of any direction"
        )


def test_json_file_round_trip(tmp_path, world, noiseless_session):
    path = tmp_path / "session.json"
    write_json(session_to_dict(noiseless_session), path)
    doc = read_json(path)
    parsed = session_from_dict(doc)
    assert np.array_equal(parsed.nest_points, noiseless_session.nest_points)


def test_read_json_rejects_non_object(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError):
        read_json(path)
    path.write_text("{broken")
    with pytest.raises(SchemaError):
        read_json(path)


# --- malformed fields --------------------------------------------------------


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


def _delete(path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]

    return mutate


def _repeat(path, index):
    def mutate(doc):
        for key in path:
            doc = doc[key]
        doc.append(dict(doc[index]))

    return mutate


def _repeat_plate_mark(doc):
    doc["plate"]["marks"].append(dict(doc["plate"]["marks"][0]))


def _unknown_truth_key(doc):
    doc["ground_truth"]["rob_H_rob"] = doc["ground_truth"]["rob_H_cam"]


# (document, mutation, field path the decoder's SchemaError must start with)
MALFORMED = [
    ("session", _set(["camera", "k", 1], "0.01"), "camera.k[1]"),
    ("world", _set(["camera", "cols"], 10**400), "camera"),  # an int beyond the float range
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
    ("world", _set(["seed"], -5), "world.seed"),
    ("result", _set(["residuals", "suspect"], "no"), "result.residuals.suspect"),
    ("result", _set(["rotation_quaternion_wxyz", 0], "a"), "result.rotation_quaternion_wxyz[0]"),
    ("plan", _set(["mark_xy_mm", 0], "a"), "plan.mark_xy_mm[0]"),
    ("plan", _set(["yaw_deg_list", 2], "90"), "plan.yaw_deg_list[2]"),
    ("plan", _set(["max_offset_mm"], 10**400), "plan.max_offset_mm"),  # beyond the float range
    ("result", _set(["rotation_quaternion_wxyz"], [0, 0, 0, 0]), "result.rotation_quaternion_wxyz"),
    # a camera pose that cannot view the plate is a bad document, not bad geometry
    ("result", _set(["intermediates", "cam_H_ref", 2, 3], -1e300), "result.intermediates.cam_H_ref"),
    ("session", _repeat_plate_mark, "plate.marks[25].id"),
    ("session", _set(["plate", "marks"], []), "plate.marks"),
    ("world", _set(["plate", "marks"], []), "plate.marks"),
    ("session", _unknown_truth_key, "session.ground_truth"),
    ("session", _set(["image_observation", 2, "row"], 20000.0), "session.image_observation[2]"),
    ("session", _set(["image_observation", 3, "mark_id"], "Z9"), "session.image_observation[3].mark_id"),
    # a session holds one reading of each nest and of the robot smr at positions 0 and 1
    ("session", _delete(["tracker_measurements", 1]), "session.tracker_measurements"),
    ("session", _repeat(["tracker_measurements"], 0), "session.tracker_measurements[5]"),
    ("session", _set(["tracker_measurements", 2, "id"], "x"), "session.tracker_measurements[2]"),
    ("session", _set(["tracker_measurements", 0, "position_index"], 0), "session.tracker_measurements[0]"),
    ("session", _set(["tracker_measurements", 4, "position_index"], 5), "session.tracker_measurements[4]"),
    # every mark and nest lies on the plate's extent (the decoder names extent_mm)
    ("session", _set(["plate", "extent_mm"], [0, 0]), "plate"),
    ("session", _set(["plate", "extent_mm"], [1e-300, 400]), "plate"),
    ("world", _set(["plate", "extent_mm"], [-600, 400]), "plate"),
    # the reversal and provenance blocks hold what the tool writes there
    ("result", _set(["reversal"], "garbage"), "result.reversal"),
    ("result", _set(["reversal", "extra"], 1), "result.reversal"),
    ("result", _set(["reversal", "delta_rotation_deg"], "0"), "result.reversal.delta_rotation_deg"),
    ("result", _set(["reversal", "run_residuals"], []), "result.reversal.run_residuals"),
    (
        "result",
        _set(["reversal", "run_residuals", 1, "reprojection_rms_px"], None),
        "result.reversal.run_residuals[1].reprojection_rms_px",
    ),
    ("result", _set(["provenance"], 17), "result.provenance"),
    ("result", _set(["provenance", "version"], 1), "result.provenance.version"),
    ("session", _set(["provenance", "operator"], "me"), "session.provenance"),
    ("session", _set(["provenance", "seed"], "seven"), "session.provenance.seed"),
    ("session", _set(["provenance", "seed"], -1), "session.provenance.seed"),
    ("session", _set(["provenance", "inputs"], ["world"]), "session.provenance.inputs"),
    ("session", _set(["provenance", "inputs", "world"], 5), "session.provenance.inputs.world"),
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


# (document, mutations, message) of documents with two faults in one array:
# each check runs over the whole array, so the check that runs first names its
# fault (keys, then labels, then numbers), wherever the other fault sits. A
# mark id off the plate is found by the session constructor's one look-up of
# the ids, after the numbers are read
TWO_FAULTS = [
    (
        "session",
        [_set(["plate", "marks", 2, "x"], math.nan), _set(["plate", "marks", 17], "m17")],
        "plate.marks[17]: expected an object",
    ),
    (
        "session",
        [_set(["image_observation", 5, "row"], []), _set(["image_observation", 20, "mark_id"], True)],
        "session.image_observation[20].mark_id: expected a string, got True",
    ),
    (
        "session",
        [_set(["image_observation", 5, "row"], []), _set(["image_observation", 20, "mark_id"], "Z9")],
        "session.image_observation[5].row: expected a finite number, got []",
    ),
    (
        "session",
        [
            _set(["tracker_measurements", 0, "x"], "x"),
            _set(["tracker_measurements", 4, "position_index"], True),
        ],
        "session.tracker_measurements[4].position_index: expected an integer, got True",
    ),
    (
        "session",
        [_set(["ground_truth", "rob_H_cam", 0, 0], None), _set(["ground_truth", "rob_H_cam", 3], [])],
        "session.ground_truth.rob_H_cam[3]: expected an array of 4, got []",
    ),
]


@pytest.mark.parametrize(
    "kind, mutations, message", TWO_FAULTS, ids=[message.split(":")[0] for _, _, message in TWO_FAULTS]
)
def test_two_faults_name_the_check_that_runs_first(quick_start_docs, kind, mutations, message):
    doc = copy.deepcopy(quick_start_docs[kind])
    for mutate in mutations:
        mutate(doc)
    with pytest.raises(SchemaError) as info:
        _decode(kind, doc, quick_start_docs)
    assert str(info.value) == message


# numbers within the float range whose geometry overflows it
EXTREME = [
    ("session", ["plate", "nests", "r", 0], 1e300, "plate", "nest triangle area overflows"),
    ("session", ["plate", "nests", "b", 2], -1e300, "plate", "nest triangle area overflows"),
    ("world", ["plate", "nests", "g", 1], 1e300, "plate", "nest triangle area overflows"),
    (
        "world",
        ["robot", "wheel_contacts_xy_mm", 1, 0],
        -1e300,
        "world.robot",
        "wheel contact triangle area overflows",
    ),
    (
        "world",
        ["robot", "wheel_contacts_xy_mm", 2, 0],
        1e300,
        "world.robot",
        "wheel contact triangle area overflows",
    ),
    ("result", ["rotation_quaternion_wxyz", 0], 1e300, "result.rotation_quaternion_wxyz", "norm"),
    ("result", ["rotation_quaternion_wxyz", 3], -1e300, "result.rotation_quaternion_wxyz", "norm"),
    ("result", ["intermediates", "cam_H_ref", 0, 3], 1e300, "result.intermediates.cam_H_ref", "row direction"),
    ("result", ["intermediates", "cam_H_ref", 1, 3], 1e300, "result.intermediates.cam_H_ref", "row direction"),
    ("result", ["intermediates", "cam_H_ref", 2, 3], 1e300, "result.intermediates.cam_H_ref", "row direction"),
]


@pytest.mark.parametrize(
    "kind, path, value, field, reason",
    EXTREME,
    ids=[f"{kind}.{'.'.join(map(str, path))}={value:g}" for kind, path, value, _, _ in EXTREME],
)
def test_extreme_number_names_its_field_without_warning(quick_start_docs, kind, path, value, field, reason):
    doc = copy.deepcopy(quick_start_docs[kind])
    _set(path, value)(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match=reason) as info:
            _decode(kind, doc, quick_start_docs)
    assert str(info.value).startswith(f"{field}:")


def _numeric_leaves(doc):
    for path in _leaves(doc):
        v = doc
        for key in path:
            v = v[key]
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            yield path


@pytest.mark.parametrize("kind", ["session", "result", "world", "plan"])
def test_every_extreme_number_decodes_or_raises_schema_error(quick_start_docs, kind):
    # each numeric leaf set to +-1e300 or 1e-300 in turn: a decoded document
    # or a SchemaError, never a numpy warning or another exception
    for path in _numeric_leaves(quick_start_docs[kind]):
        for value in (1e300, -1e300, 1e-300):
            doc = copy.deepcopy(quick_start_docs[kind])
            _set(path, value)(doc)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    _decode(kind, doc, quick_start_docs)
                except SchemaError:
                    pass


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


def _containers(value, path=()):
    """Paths of every object and array of a document, the root included."""
    if isinstance(value, (dict, list)):
        yield path
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, v in items:
            yield from _containers(v, path + (key,))


def _keys(value):
    if isinstance(value, dict):
        yield from value
    if isinstance(value, (dict, list)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _keys(v)


@pytest.mark.parametrize("kind", ["session", "result", "world", "plan"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_structural_mutation_decodes_or_raises_schema_error(quick_start_docs, kind, data):
    # a key deleted, a key added or an array resized anywhere in a document:
    # a decoded document or a SchemaError, never another exception or a warning
    doc = copy.deepcopy(quick_start_docs[kind])
    node = doc
    for key in data.draw(st.sampled_from(sorted(_containers(doc), key=repr))):
        node = node[key]
    if isinstance(node, dict):
        if node and data.draw(st.booleans()):
            del node[data.draw(st.sampled_from(sorted(node)))]
        else:
            # every key of the documents, and the one optional key they leave out
            known = sorted({k for d in quick_start_docs.values() for k in _keys(d)} | {"placements"})
            key = data.draw(st.one_of(st.sampled_from(known), st.text(max_size=6)))
            node[key] = data.draw(
                st.one_of(_JUNK, st.sampled_from([copy.deepcopy(v) for v in node.values()] or [{}]))
            )
    else:
        size = data.draw(st.integers(0, len(node) + 3))
        extra = [copy.deepcopy(node[-1]) if node else None for _ in range(size - len(node))]
        node[:] = node[:size] + extra
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _decode(kind, doc, quick_start_docs)
        except SchemaError:
            pass


# --- the JSON writer -----------------------------------------------------------

_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(2**64), 0]),
    st.floats(),  # NaN and the infinities included
    st.floats().map(np.float64),
    st.text(),  # non-ASCII and control characters included
)
_JSON_KEYS = st.one_of(st.text(max_size=5), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=5))
def test_write_json_text_is_json_dumps_with_indent_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(doc, path)
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("ascii")


def test_write_json_special_values_and_refusals(tmp_path):
    path = tmp_path / "doc.json"
    doc = {
        "empty": [[], {}, [[{}]], {"e": {"f": []}}],
        "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(0.1), np.float64(math.nan)],
        "keys": {math.nan: 1, -math.inf: 2, 1.5: 3, 10**30: 4, True: 5, None: 6},
        "ints": [10**400, -(2**64), True, False, None],
        "text": ("é\x00\u2028\ud83d\"\\/", ""),
        "nan": math.nan,
    }
    write_json(doc, path)
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    for bad, message in [
        ({"a": {1, 2}}, "Object of type set is not JSON serializable"),
        ({"a": np.int64(1)}, "Object of type int64 is not JSON serializable"),
        ({("a",): 1}, "keys must be str, int, float, bool or None, not tuple"),
    ]:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            write_json(bad, path)


# --- numbers read from arrays -------------------------------------------------


def _plate_mark(out, mark_id):
    # the plate point of a mark of a decoded session or world
    plate = out[0].plate
    return plate.mark_points[plate.mark_rows([mark_id])[0]]


# A number that a decoder reads from an array (of objects or of rows), the
# decoded number it becomes, and its field path: it is read as a lone number
# is, by the same rules and with the same message.
ARRAY_VALUES = [
    ("session", ["plate", "marks", 3, "x"], lambda out: _plate_mark(out, "m03")[0], "plate.marks[3].x"),
    ("world", ["plate", "marks", 3, "y"], lambda out: _plate_mark(out, "m03")[1], "plate.marks[3].y"),
    (
        "session",
        ["image_observation", 3, "col"],
        lambda out: out[0].image_points[3, 1],
        "session.image_observation[3].col",
    ),
    (
        "session",
        ["tracker_measurements", 3, "y"],  # the robot smr at position 0
        lambda out: out[0].robot_points[0, 1],
        "session.tracker_measurements[3].y",
    ),
    (
        "session",
        ["ground_truth", "rob_H_cam", 0, 3],
        lambda out: out[1]["rob_H_cam"].translation[0],
        "session.ground_truth.rob_H_cam[0][3]",
    ),
    (
        "result",
        ["intermediates", "abs_H_rob", 1, 3],
        lambda out: out.h_abs_rob.translation[1],
        "result.intermediates.abs_H_rob[1][3]",
    ),
]
_ARRAY_VALUE_IDS = [field for _, _, _, field in ARRAY_VALUES]


def _decoded(kind, doc, docs):
    if kind == "session":
        return session_from_dict(doc), session_ground_truth(doc)
    if kind == "result":
        return result_from_dict(doc, camera_from_dict(docs["world"]["camera"]))
    return world_from_dict(doc)


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "true", "1" + "0" * 400])
@pytest.mark.parametrize("kind, path, read, field", ARRAY_VALUES, ids=_ARRAY_VALUE_IDS)
def test_array_value_refused_as_a_lone_number_is(quick_start_docs, kind, path, read, field, literal):
    doc = copy.deepcopy(quick_start_docs[kind])
    value = json.loads(literal)  # what json.load gives for the literal in a file
    _set(path, value)(doc)
    with pytest.raises(SchemaError) as info:
        _decoded(kind, doc, quick_start_docs)
    assert str(info.value) == f"{field}: expected a finite number, got {value!r}"


@pytest.mark.parametrize("kind, path, read, field", ARRAY_VALUES, ids=_ARRAY_VALUE_IDS)
def test_array_value_reads_ints_and_negative_zero_as_a_lone_number_does(quick_start_docs, kind, path, read, field):
    doc = quick_start_docs[kind]
    assert read(_decoded(kind, doc, quick_start_docs)) == _value_at(doc, path)  # the path reads it
    number = round(_value_at(doc, path))
    for value, as_float in [(number, float(number)), (-0.0, -0.0)]:
        decoded = []
        for v in (value, as_float):
            edited = copy.deepcopy(doc)
            _set(path, v)(edited)
            decoded.append(read(_decoded(kind, edited, quick_start_docs)))
        assert decoded[0] == decoded[1] == as_float
        assert np.signbit(decoded[0]) == np.signbit(as_float)
