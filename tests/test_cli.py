import json
from pathlib import Path

import numpy as np
import pytest

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

    def test_config_error_exits_2(self, tmp_path):
        doc = read_json(CONFIGS / "world.json")
        doc["unexpected"] = True
        world = tmp_path / "world.json"
        write_json(doc, world)
        assert run("simulate", world, "--out", tmp_path / "s.json") == 2
        # lenient mode tolerates the unknown key
        assert run("simulate", world, "--out", tmp_path / "s.json", "--lenient") == 0

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
        assert "error: session.image_observation[4]:" in capsys.readouterr().err

    def test_observed_mark_not_on_plate_exit_2(self, tmp_path, quiet_world, capsys):
        session = tmp_path / "session.json"
        run("simulate", quiet_world, "--out", session)
        doc = read_json(session)
        doc["image_observation"][4]["mark_id"] = "Z9"
        bad = tmp_path / "bad.json"
        write_json(doc, bad)
        assert run("calibrate", bad, "--out", tmp_path / "r.json") == 2
        assert "error: session.image_observation[4].mark_id:" in capsys.readouterr().err

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
