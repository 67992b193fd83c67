import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from floorref import camera, cli
from floorref.cli import main
from floorref.experiment import fit_circle
from floorref.geometry import rotation_distance
from floorref.schemas import read_json, write_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def quiet_world(tmp_path):
    """Shipped demo world with all noise zeroed."""
    doc = read_json(CONFIGS / "world.json")
    doc["noise"] = {
        "tracker_sigma_mm": 0.0,
        "image_sigma_px": 0.0,
        "nest_offset_error_mm": 0.0,
        "plate_amplitude_mm": 0.0,
    }
    path = tmp_path / "world_quiet.json"
    write_json(doc, path)
    return path


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run("simulate", CONFIGS / "world.json", "--out", a, "--seed", 42) == 0
        assert run("simulate", CONFIGS / "world.json", "--out", b, "--seed", 42) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_baseline_exits_3_with_stage(self, tmp_path, capsys):
        doc = read_json(CONFIGS / "world.json")
        doc["placements"] = {
            "position0": {"x_mm": 100.0, "y_mm": -200.0, "yaw_deg": 0.0},
            "position1": {"x_mm": 100.0, "y_mm": -200.0, "yaw_deg": 0.0},
        }
        world = tmp_path / "world.json"
        write_json(doc, world)
        assert run("simulate", world, "--out", tmp_path / "s.json") == 3
        assert "simulate_referencing_session" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        doc = read_json(CONFIGS / "world.json")
        doc["unexpected"] = True
        world = tmp_path / "world.json"
        write_json(doc, world)
        assert run("simulate", world, "--out", tmp_path / "s.json") == 2
        assert "error: world: unknown keys ['unexpected']" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("extent", [[0, 0], [1e-300, 400], [-600, 400]], ids=["zero", "tiny", "negative"])
    def test_nest_off_the_plate_extent_exit_2(self, tmp_path, capsys, extent):
        doc = read_json(CONFIGS / "world_wooden.json")
        doc["plate"]["extent_mm"] = extent
        world = tmp_path / "world.json"
        write_json(doc, world)
        assert run("simulate", world, "--out", tmp_path / "s.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: plate: nest 'r' at (45, 50) mm is off the plate: extent_mm (")
        assert not (tmp_path / "s.json").exists()

    def test_empty_plate_marks_exit_2(self, tmp_path, capsys):
        doc = read_json(CONFIGS / "world.json")
        doc["plate"]["marks"] = []
        world = tmp_path / "world.json"
        write_json(doc, world)
        assert run("simulate", world, "--out", tmp_path / "s.json") == 2
        assert capsys.readouterr().err == "error: plate.marks: expected at least one mark, got []\n"
        assert not (tmp_path / "s.json").exists()

    def test_overflowing_plate_bow_exit_3_without_warning(self, tmp_path, capsys):
        # the support-pose solve overflows: the placement's row fails with its
        # typed error, and numpy prints nothing (a warning is an error here)
        doc = read_json(CONFIGS / "world.json")
        doc["noise"]["plate_amplitude_mm"] = 1e300
        world = tmp_path / "world.json"
        write_json(doc, world)
        assert run("simulate", world, "--out", tmp_path / "s.json") == 3
        assert capsys.readouterr().err == "error: pose_on_surface: contact plane singular: Singular matrix\n"
        assert not (tmp_path / "s.json").exists()

    def test_demo_config_calibrates_accurately(self, tmp_path):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        assert run("simulate", CONFIGS / "world.json", "--out", session, "--seed", 7) == 0
        assert run("calibrate", session, "--out", result) == 0
        doc = read_json(result)
        truth = np.array(read_json(session)["ground_truth"]["rob_H_cam"])
        est = np.array(doc["rob_H_cam"])
        assert np.linalg.norm(est[:3, 3] - truth[:3, 3]) < 0.3
        assert rotation_distance(est[:3, :3], truth[:3, :3]) < np.radians(0.1)


class TestCalibrate:
    def test_noiseless_matches_ground_truth(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        assert run("simulate", quiet_world, "--out", session) == 0
        assert run("calibrate", session, "--out", result) == 0
        out = capsys.readouterr().out
        assert "vs_truth_translation_mm" in out
        doc = read_json(result)
        truth = np.array(read_json(session)["ground_truth"]["rob_H_cam"])
        est = np.array(doc["rob_H_cam"])
        assert np.max(np.abs(est[:3, 3] - truth[:3, 3])) < 1e-6

    def test_result_round_trip_bit_compatible(self, tmp_path, quiet_world):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        doc = read_json(result)
        rewritten = tmp_path / "result2.json"
        write_json(doc, rewritten)
        assert json.loads(result.read_text())["rob_H_cam"] == json.loads(
            rewritten.read_text()
        )["rob_H_cam"]

    def test_collinear_nests_exit_4_naming_register_points(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        z = None
        for entry in doc["tracker_measurements"]:
            if entry["id"] in ("r", "g", "b"):
                if z is None:
                    z = entry["z"]
                entry["y"] = 2.0 * entry["x"]  # tracker points forced onto a line
                entry["z"] = z
        bad = tmp_path / "bad.json"
        write_json(doc, bad)
        assert run("calibrate", bad, "--out", tmp_path / "r.json") == 4
        assert "register_points" in capsys.readouterr().err

    def test_non_integer_camera_rows_exit_2(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        doc["camera"]["rows"] = 2.5
        bad = tmp_path / "bad.json"
        write_json(doc, bad)
        assert run("calibrate", bad, "--out", tmp_path / "r.json") == 2
        assert "camera.rows" in capsys.readouterr().err

    def test_off_sensor_observation_exit_2(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        doc["image_observation"][4]["row"] = 20000.0  # the sensor has 2048 rows
        bad = tmp_path / "bad.json"
        write_json(doc, bad)
        assert run("calibrate", bad, "--out", tmp_path / "r.json") == 2
        col, camera = doc["image_observation"][4]["col"], doc["camera"]
        assert capsys.readouterr().err == (
            f"error: session.image_observation[4]: point (row 20000.0, col {col}) is off "
            f"the {camera['rows']}x{camera['cols']} px sensor\n"
        )

    def test_observed_mark_not_on_plate_exit_2(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        doc["image_observation"][4]["mark_id"] = "Z9"
        bad = tmp_path / "bad.json"
        write_json(doc, bad)
        assert run("calibrate", bad, "--out", tmp_path / "r.json") == 2
        assert "error: session.image_observation[4].mark_id:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.pop(1), "session.tracker_measurements: no reading of 'g'"),
            (lambda t: t.append(dict(t[0])), "session.tracker_measurements[5]: second reading of 'r'"),
            (lambda t: t[2].update(id="x"), "session.tracker_measurements[2]: 'x' is not a tracker point"),
            (
                lambda t: t[0].update(position_index=0),
                "session.tracker_measurements[0]: 'r' at position index 0 is not a tracker point",
            ),
            (
                lambda t: t[4].update(position_index=5),
                "session.tracker_measurements[4]: 'robot_smr' at position index 5 is not a tracker point",
            ),
        ],
        ids=["missing-nest", "second-nest-reading", "unknown-id", "nest-with-index", "robot-index-5"],
    )
    def test_tracker_entry_not_one_of_the_five_points_exit_2(self, tmp_path, quiet_world, capsys, edit, message):
        session = tmp_path / "session.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        edit(doc["tracker_measurements"])
        bad = tmp_path / "bad.json"
        write_json(doc, bad)
        assert run("calibrate", bad, "--out", tmp_path / "r.json") == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["plate"].update(delta_mm=1e300),
            lambda doc: doc["ground_truth"]["rob_H_cam"][0].__setitem__(3, 1e300),
        ],
        ids=["plate-delta", "truth-translation"],
    )
    def test_gap_to_truth_beyond_the_float_range_is_inf_without_warning(self, tmp_path, quiet_world, capsys, edit):
        # the translation gap overflows: it prints as inf, and numpy prints
        # nothing (a warning is an error here)
        session = tmp_path / "s.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        edit(doc)
        write_json(doc, session)
        capsys.readouterr()
        assert run("calibrate", session, "--out", tmp_path / "r.json") == 0
        assert "\nvs_truth_translation_mm           inf\n" in capsys.readouterr().out

    def test_solver_failure_exit_4_naming_stage(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        doc["camera"]["focal_mm"] = 1e308  # overflows the plate-pose fit's projection
        bad = tmp_path / "bad.json"
        write_json(doc, bad)
        assert run("calibrate", bad, "--out", tmp_path / "r.json") == 4
        assert "error: estimate_plate_pose:" in capsys.readouterr().err

    def test_reversal_flow(self, tmp_path, capsys):
        session_a = tmp_path / "a.json"
        session_b = tmp_path / "b.json"
        result = tmp_path / "result.json"
        assert run("simulate", CONFIGS / "world.json", "--out", session_a, "--seed", 5) == 0
        assert (
            run("simulate", CONFIGS / "world.json", "--out", session_b, "--seed", 6, "--reverse")
            == 0
        )
        assert run("calibrate", session_a, "--out", result, "--reversal", session_b) == 0
        out = capsys.readouterr().out
        assert "reversal_delta_translation_mm" in out
        assert "reversal" in read_json(result)

    def test_inconsistent_reversal_exit_5(self, tmp_path, quiet_world):
        session_a = tmp_path / "a.json"
        run("simulate", quiet_world, "--out", session_a)
        doc = read_json(session_a)
        for entry in doc["tracker_measurements"]:
            if entry["id"] == "robot_smr" and entry["position_index"] == 1:
                entry["y"] += 80.0  # bend the heading: runs disagree far beyond noise
        session_b = tmp_path / "b.json"
        write_json(doc, session_b)
        assert run("calibrate", session_a, "--out", tmp_path / "r.json", "--reversal", session_b) == 5

    def test_wooden_config_reversal_exit_5_single_session_runs(self, tmp_path, capsys):
        # the README's wooden-plate commands: the 1 mm bow puts the reversal
        # runs 3.165 mm apart (limit 2 mm); one session still calibrates
        wooden = CONFIGS / "world_wooden.json"
        session_a, session_b = tmp_path / "session_a.json", tmp_path / "session_b.json"
        result = tmp_path / "result.json"
        assert run("simulate", wooden, "--seed", 7, "--out", session_a) == 0
        assert run("simulate", wooden, "--seed", 8, "--reverse", "--out", session_b) == 0
        capsys.readouterr()
        assert run("calibrate", session_a, "--reversal", session_b, "--out", result) == 5
        assert "error: reversal runs differ by 3.165 mm" in capsys.readouterr().err
        assert not result.exists()
        assert run("calibrate", session_a, "--out", result) == 0
        out = tmp_path / "out"
        assert run("experiment", wooden, result, "--plan", CONFIGS / "plan.json", "--out-dir", out) == 0
        overall = read_json(out / "report.json")["trials"][0]["overall"]
        assert overall["diameter_mm"] == pytest.approx(3.72, abs=0.005)


class TestExperiment:
    def test_full_run_outputs(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        out_dir = tmp_path / "out"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        code = run(
            "experiment", CONFIGS / "world.json", result, "--plan", CONFIGS / "plan.json",
            "--out-dir", out_dir, "--seed", 3,
        )
        assert code == 0
        for name in ("report.csv", "report.json", "clusters.svg", "measurements.csv"):
            assert (out_dir / name).exists()
        assert "overall:" in capsys.readouterr().out
        # glass noise profile keeps the overall enclosing diameter well below
        # the sub-millimeter target
        report = read_json(out_dir / "report.json")["trials"][0]
        assert report["overall"]["diameter_mm"] < 0.747

    def test_corrupted_calibration_shows_circle(self, tmp_path, quiet_world):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        doc = read_json(result)
        h = np.array(doc["rob_H_cam"])
        h[:3, 3] += h[:3, :3] @ np.array([1.0, 0.0, 0.0])  # +1 mm along camera x
        doc["rob_H_cam"] = h.tolist()
        corrupted = tmp_path / "corrupted.json"
        write_json(doc, corrupted)
        out_dir = tmp_path / "out"
        code = run(
            "experiment", quiet_world, corrupted, "--plan", CONFIGS / "plan.json",
            "--out-dir", out_dir,
        )
        assert code == 0
        report = read_json(out_dir / "report.json")["trials"][0]
        means = np.array(
            [[d["mean_x_mm"], d["mean_y_mm"]] for d in report["directions"]]
        )
        circle = fit_circle(means)
        assert abs(circle.radius_mm - 1.0) < 0.1
        svg = (out_dir / "clusters.svg").read_text()
        assert svg.count("<circle") >= 40

    def test_empty_yaw_list_exit_2(self, tmp_path, quiet_world):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        plan = tmp_path / "plan.json"
        write_json({"mark_xy_mm": [1200.0, 900.0], "yaw_deg_list": []}, plan)
        assert (
            run(
                "experiment", quiet_world, result, "--plan", plan,
                "--out-dir", tmp_path / "out",
            )
            == 2
        )

    def test_yaw_past_direction_band_exit_2(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        plan = tmp_path / "plan.json"
        write_json({"mark_xy_mm": [1200.0, 900.0], "yaw_jitter_deg": 30.0}, plan)
        code = run("experiment", quiet_world, result, "--plan", plan, "--out-dir", tmp_path / "out")
        assert code == 2
        assert "error: plan: yaw_jitter_deg 30: six times the jitter" in capsys.readouterr().err

    def test_mark_out_of_view_exit_3(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        plan = tmp_path / "plan.json"
        write_json({"mark_xy_mm": [1500.0, 700.0], "max_offset_mm": 300.0}, plan)
        code = run("experiment", quiet_world, result, "--plan", plan, "--out-dir", tmp_path / "out")
        assert code == 3
        assert "mark not visible" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_trials_make_multiple_panels(self, tmp_path, quiet_world):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        out_dir = tmp_path / "out"
        code = run(
            "experiment", CONFIGS / "world.json", result, "--plan", CONFIGS / "plan.json",
            "--out-dir", out_dir, "--trials", 3,
        )
        assert code == 0
        assert len(read_json(out_dir / "report.json")["trials"]) == 3


class TestMetrics:
    def test_metrics_over_measurement_csv(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        result = tmp_path / "result.json"
        out_dir = tmp_path / "out"
        run("simulate", quiet_world, "--out", session)
        run("calibrate", session, "--out", result)
        run(
            "experiment", CONFIGS / "world.json", result, "--plan", CONFIGS / "plan.json",
            "--out-dir", out_dir,
        )
        capsys.readouterr()
        metrics_dir = tmp_path / "metrics"
        assert run("metrics", out_dir / "measurements.csv", "--out-dir", metrics_dir) == 0
        assert (metrics_dir / "report.csv").read_text() == (out_dir / "report.csv").read_text()

    def test_bad_csv_exit_2(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("not,a,measurement,file\n")
        assert run("metrics", bad, "--out-dir", tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "column, value", [("yaw_deg", "nan"), ("x_mm", "inf"), ("z_mm", "-inf")]
    )
    def test_non_finite_csv_value_exit_2(self, tmp_path, capsys, column, value):
        good = tmp_path / "good.csv"
        measurements = [
            f"{direction},{yaw},{1000.0 + i},{900.0 - i},0.0,0"
            for i, (direction, yaw) in enumerate([("up", 0.0), ("left", 90.0), ("down", 180.0)])
        ]
        good.write_text("direction,yaw_deg,x_mm,y_mm,z_mm,trial\n" + "\n".join(measurements) + "\n")
        assert run("metrics", good, "--out-dir", tmp_path / "good_out") == 0
        rows = [line.split(",") for line in good.read_text().splitlines()]
        rows[3][rows[0].index(column)] = value
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
        capsys.readouterr()
        assert run("metrics", bad, "--out-dir", tmp_path / "out") == 2
        assert f"bad.csv:4: {column}: expected a finite number" in capsys.readouterr().err

    # the README's large-value examples: every figure is representable, though
    # its squares (about 1e200) or its sums (about 1.7e308) are not
    @pytest.mark.parametrize(
        "rows",
        [
            [
                "up,0.0,1e200,900.0,0.0,0", "up,0.0,3e200,900.0,0.0,0",
                "down,180.0,-1e200,900.0,0.0,0", "down,180.0,-3e200,900.0,0.0,0",
            ],
            ["up,0.0,1.7e308,900.0,0.0,0", "up,0.5,1.6e308,900.0,0.0,0"],
        ],
        ids=["1e200", "1.7e308"],
    )
    def test_large_values_write_every_output(self, tmp_path, capsys, rows):
        path = tmp_path / "m.csv"
        path.write_text("direction,yaw_deg,x_mm,y_mm,z_mm,trial\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "out"
        assert run("metrics", path, "--out-dir", out_dir) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out_dir.iterdir()) == ["clusters.svg", "report.csv", "report.json"]
        svg = (out_dir / "clusters.svg").read_text()
        assert "nan" not in svg and "inf" not in svg


class TestRepeatedCalls:
    """main() may be called again in one process: the parser is built once and
    nothing else carries over from one call to the next."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_leak_into_the_next_call(self, tmp_path):
        first, other, again = (tmp_path / f"{name}.json" for name in ("first", "other", "again"))
        assert run("simulate", CONFIGS / "world.json", "--out", first) == 0
        assert run("simulate", CONFIGS / "world.json", "--out", other, "--seed", 5, "--reverse") == 0
        assert run("simulate", CONFIGS / "world.json", "--out", again) == 0
        assert other.read_bytes() != first.read_bytes()
        assert again.read_bytes() == first.read_bytes()

    def test_log_lines_go_to_the_stderr_of_their_call(self, tmp_path):
        def stderr_of(*argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert run(*argv) == 0
            return err.getvalue()

        session = tmp_path / "s.json"
        assert stderr_of("simulate", CONFIGS / "world.json", "--out", session) == ""
        far = _edited(session, tmp_path / "far.json", _far_smrs)
        err = stderr_of("calibrate", far, "--out", tmp_path / "r.json")
        assert err.startswith("floorref.pipeline WARNING estimate_plate_pose: registration RMS ")
        assert err.endswith(" mm above 0.5 mm, result suspect\n")

    def test_command_looked_up_at_call_time(self, tmp_path, monkeypatch):
        assert run("simulate", CONFIGS / "world.json", "--out", tmp_path / "s.json") == 0
        seen = []

        def replacement(args):
            seen.append(args.out)
            return 7

        monkeypatch.setattr(cli, "cmd_simulate", replacement)
        assert run("simulate", CONFIGS / "world.json", "--out", tmp_path / "t.json") == 7
        assert seen == [str(tmp_path / "t.json")]
        assert not (tmp_path / "t.json").exists()


# --- exit-code table -----------------------------------------------------------

WORLD = CONFIGS / "world.json"
PLAN = CONFIGS / "plan.json"
DIRECTION_YAWS = [("up", 0.0), ("left", 90.0), ("down", 180.0), ("right", -90.0)]


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """Sessions a (seed 5) and b (seed 6, reversed) of the demo world and the
    calibration result of a."""
    d = tmp_path_factory.mktemp("calibrated")
    assert run("simulate", WORLD, "--out", d / "a.json", "--seed", 5) == 0
    assert run("simulate", WORLD, "--out", d / "b.json", "--seed", 6, "--reverse") == 0
    assert run("calibrate", d / "a.json", "--out", d / "result.json") == 0
    return d


def _edited(src, dst, edit):
    doc = read_json(src)
    edit(doc)
    write_json(doc, dst)
    return dst


def _far_smrs(doc):
    # the seated smrs far off the nests: calibrate exits 0 with a suspect fit
    doc["plate"]["delta_mm"] = 1e300


def _junk_truth(doc):
    doc["ground_truth"]["rob_H_cam"] = "junk"


def _huge_csv(path):
    # finite, so the CSV reader takes it, but the cluster statistics overflow
    rows = [
        f"{direction},{yaw},{sign * 1e308},900.0,0.0,0"
        for sign, (direction, yaw) in zip((1, -1, 1, -1), DIRECTION_YAWS)
    ]
    path.write_text("direction,yaw_deg,x_mm,y_mm,z_mm,trial\n" + "\n".join(rows) + "\n")
    return path


def _written(path, data):
    path.write_bytes(data)
    return path


# a document whose one string is Latin-1, not UTF-8
LATIN1_JSON = '{"note": "\u00e9"}'.encode("latin-1")
LATIN1_MESSAGE = "latin1.json: 'utf-8' codec can't decode byte 0xe9"
CSV_HEADER = b"direction,yaw_deg,x_mm,y_mm,z_mm,trial\n"


def _experiment(result, plan, *extra):
    return ("experiment", WORLD, result, "--plan", plan, "--out-dir", "OUT", *extra)


def _calibrate(a, b):
    return ("calibrate", a, "--reversal", b, "--out", "OUT")


# the option that once let unknown JSON keys through; every command refuses it
REMOVED_FLAG = "--lenient"
TRUTH_MESSAGE = "error: session.ground_truth.rob_H_cam: expected an array of 4, got 'junk'"

# case: (argv over the calibrated directory c and a scratch directory t, text
# that stderr must hold). "OUT" stands for the output path: it must not exist
# after the failed command. No stderr line, the scratch paths aside, may pass
# 200 characters: a number from the input is printed in bounded form.
EXIT_2_CASES = {
    "trials-zero": (
        lambda c, t: _experiment(c / "result.json", PLAN, "--trials", 0),
        "argument --trials: must be at least 1, got 0",
    ),
    "trials-negative": (
        lambda c, t: _experiment(c / "result.json", PLAN, "--trials", -2),
        "argument --trials: must be at least 1, got -2",
    ),
    "seed-negative-simulate": (
        lambda c, t: ("simulate", WORLD, "--out", "OUT", "--seed", -1),
        "argument --seed: must be at least 0, got -1",
    ),
    "seed-negative-experiment": (
        lambda c, t: _experiment(c / "result.json", PLAN, "--seed", -3),
        "argument --seed: must be at least 0, got -3",
    ),
    "seed-negative-world": (
        lambda c, t: (
            "simulate", _edited(WORLD, t / "w.json", lambda d: d.update(seed=-5)), "--out", "OUT"
        ),
        "error: world.seed: expected a non-negative integer, got -5",
    ),
    "reversal-ground-truth": (
        lambda c, t: _calibrate(c / "a.json", _edited(c / "b.json", t / "b.json", _junk_truth)),
        TRUTH_MESSAGE,
    ),
    "session-ground-truth": (
        lambda c, t: _calibrate(_edited(c / "a.json", t / "a.json", _junk_truth), c / "b.json"),
        TRUTH_MESSAGE,
    ),
    "metrics-overflow": (
        lambda c, t: ("metrics", _huge_csv(t / "m.csv"), "--out-dir", "OUT"),
        "error: cluster_metrics: measurement coordinates too large, a metric overflows",
    ),
    "camera-size-beyond-float-range": (
        lambda c, t: (
            "simulate",
            _edited(WORLD, t / "w.json", lambda d: d["camera"].update(cols=10**400)),
            "--out",
            "OUT",
        ),
        "error: camera: image size must be at most 2**53 px: cols",
    ),
    "unknown-world-key": (
        lambda c, t: (
            "simulate",
            _edited(WORLD, t / "w.json", lambda d: d["plate_pose"].update(roll_deg=0.0)),
            "--out",
            "OUT",
        ),
        "error: world.plate_pose: unknown keys ['roll_deg']",
    ),
    "unknown-session-key": (
        lambda c, t: (
            "calibrate",
            _edited(c / "a.json", t / "a.json", lambda d: d["tracker_measurements"][2].update(q=1)),
            "--out",
            "OUT",
        ),
        "error: session.tracker_measurements[2]: unknown keys ['q']",
    ),
    "unknown-result-key": (
        lambda c, t: _experiment(
            _edited(c / "result.json", t / "r.json", lambda d: d["residuals"].update(note="x")), PLAN
        ),
        "error: result.residuals: unknown keys ['note']",
    ),
    "unknown-plan-key": (
        lambda c, t: _experiment(
            c / "result.json", _edited(PLAN, t / "p.json", lambda d: d.update(repeat=5))
        ),
        "error: plan: unknown keys ['repeat']",
    ),
    "world-not-utf8": (
        lambda c, t: ("simulate", _written(t / "world-latin1.json", LATIN1_JSON), "--out", "OUT"),
        LATIN1_MESSAGE,
    ),
    "session-not-utf8": (
        lambda c, t: ("calibrate", _written(t / "session-latin1.json", LATIN1_JSON), "--out", "OUT"),
        LATIN1_MESSAGE,
    ),
    "result-not-utf8": (
        lambda c, t: _experiment(_written(t / "result-latin1.json", LATIN1_JSON), PLAN),
        LATIN1_MESSAGE,
    ),
    "plan-not-utf8": (
        lambda c, t: _experiment(c / "result.json", _written(t / "plan-latin1.json", LATIN1_JSON)),
        LATIN1_MESSAGE,
    ),
    "json-nested-too-deep": (
        lambda c, t: (
            "calibrate",
            _written(t / "deep.json", b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
            "--out",
            "OUT",
        ),
        "deep.json: maximum recursion depth exceeded",
    ),
    "json-integer-too-long": (
        lambda c, t: (
            "simulate", _written(t / "long.json", b'{"seed": 1' + b"0" * 5000 + b"}"), "--out", "OUT"
        ),
        "long.json: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "csv-not-utf8": (
        lambda c, t: (
            "metrics",
            _written(t / "m-latin1.csv", CSV_HEADER + "up\u00e9,0.0,1,2,0,0\n".encode("latin-1")),
            "--out-dir",
            "OUT",
        ),
        "m-latin1.csv: 'utf-8' codec can't decode byte 0xe9",
    ),
    "csv-field-too-long": (
        lambda c, t: (
            "metrics",
            _written(t / "long-field.csv", CSV_HEADER + b"up,0.0," + b"1" * 200_000 + b",2,0,0\n"),
            "--out-dir",
            "OUT",
        ),
        "long-field.csv: field larger than field limit (131072)",
    ),
    "csv-header-only": (
        lambda c, t: ("metrics", _written(t / "header-only.csv", CSV_HEADER), "--out-dir", "OUT"),
        "header-only.csv: no measurements after the header",
    ),
    "plan-yaw-beyond-1e6": (
        lambda c, t: _experiment(
            c / "result.json", _edited(PLAN, t / "p.json", lambda d: d["yaw_deg_list"].insert(3, 1e300))
        ),
        "error: plan: yaw_deg_list[3]: yaw 1e+300 deg is not within 10 deg of any direction",
    ),
    "csv-yaw-beyond-1e6": (
        lambda c, t: (
            "metrics",
            _written(t / "huge-yaw.csv", CSV_HEADER + b"up,0.0,1,2,0,0\nup,1e300,1,2,0,0\n"),
            "--out-dir",
            "OUT",
        ),
        "huge-yaw.csv:3: yaw 1e+300 deg inconsistent with direction 'up'",
    ),
    "removed-flag-simulate": (
        lambda c, t: ("simulate", WORLD, "--out", "OUT", REMOVED_FLAG),
        f"unrecognized arguments: {REMOVED_FLAG}",
    ),
    "removed-flag-calibrate": (
        lambda c, t: ("calibrate", c / "a.json", "--out", "OUT", REMOVED_FLAG),
        f"unrecognized arguments: {REMOVED_FLAG}",
    ),
    "removed-flag-experiment": (
        lambda c, t: _experiment(c / "result.json", PLAN, REMOVED_FLAG),
        f"unrecognized arguments: {REMOVED_FLAG}",
    ),
}


@pytest.mark.parametrize("case", sorted(EXIT_2_CASES))
def test_exit_2_table(case, calibrated, tmp_path, capsys):
    build, message = EXIT_2_CASES[case]
    out = tmp_path / "out"
    argv = [out if a == "OUT" else a for a in build(calibrated, tmp_path)]
    capsys.readouterr()
    try:
        code = run(*argv)
    except SystemExit as e:  # argparse rejects the command line
        code = e.code
    err = capsys.readouterr().err
    assert max(len(line.replace(str(tmp_path), "")) for line in err.splitlines()) <= 200
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def _small_csv(path):
    rows = [f"{direction},{yaw},{1000.0 + i},900.0,0.0,0" for i, (direction, yaw) in enumerate(DIRECTION_YAWS)]
    path.write_text("direction,yaw_deg,x_mm,y_mm,z_mm,trial\n" + "\n".join(rows) + "\n")
    return path


# case: (argv over the calibrated directory c and a scratch directory t, the
# output path that cannot be written, the reason stderr gives)
UNWRITABLE_CASES = {
    "calibrate-out-in-missing-directory": (
        lambda c, t: ("calibrate", c / "a.json", "--out", t / "missing" / "r.json"),
        lambda t: t / "missing" / "r.json",
        "No such file or directory",
    ),
    "metrics-out-dir-is-a-file": (
        lambda c, t: ("metrics", _small_csv(t / "m.csv"), "--out-dir", t / "m.csv"),
        lambda t: t / "m.csv",
        "File exists",
    ),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_CASES))
def test_unwritable_output_exit_2(case, calibrated, tmp_path, capsys):
    build, path, reason = UNWRITABLE_CASES[case]
    argv = build(calibrated, tmp_path)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {path(tmp_path)}: {reason}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["a", "b"])
def test_ground_truth_decoded_before_the_pipeline(bad, calibrated, tmp_path, call_counts):
    counts = call_counts((cli, "compute_rob_h_cam"))
    a, b = (
        _edited(calibrated / f"{s}.json", tmp_path / f"{s}.json", _junk_truth) if s == bad
        else calibrated / f"{s}.json"
        for s in "ab"
    )
    assert run("calibrate", a, "--reversal", b, "--out", tmp_path / "r.json") == 2
    assert counts["compute_rob_h_cam"] == 0


def _unseen_camera(doc):
    doc["camera"]["k"][2] = 1.25e-7


def test_undistortions_per_command(calibrated, tmp_path, call_counts):
    # A camera undistorts its fixed sensor pixels once, in its construction
    # check, and a rectification map undistorts nothing: a reversal
    # calibration undistorts 4 times (two session cameras, two image fits), a
    # two-trial experiment on its result 3 times (the world's camera, one mark
    # rectification per trial). The camera is one no other test builds, so no
    # per-process cache could hold its rays.
    sources = (calibrated / "a.json", calibrated / "b.json", WORLD)
    a, b, world = (_edited(p, tmp_path / p.name, _unseen_camera) for p in sources)
    counts = call_counts((camera, "undistort_radial"))
    assert run("calibrate", a, "--reversal", b, "--out", tmp_path / "r.json") == 0
    assert counts["undistort_radial"] == 4
    counts.clear()
    experiment = ("experiment", world, tmp_path / "r.json", "--plan", PLAN)
    assert run(*experiment, "--out-dir", tmp_path / "out", "--trials", 2) == 0
    assert counts["undistort_radial"] == 3
