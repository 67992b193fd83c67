import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from floorref.errors import SchemaError
from floorref.experiment import MarkMeasurement, cluster_metrics
from floorref.report import (
    CSV_HEADER,
    read_measurements_csv,
    report_to_dict,
    summary_line,
    write_clusters_svg,
    write_measurements_csv,
    write_report_csv,
)


def sample_measurements():
    rng = np.random.default_rng(4)
    out = []
    nominal = {"up": 0.0, "left": 90.0, "down": 180.0, "right": -90.0}
    for t in range(3):
        for d, yaw in nominal.items():
            out.append(
                MarkMeasurement(
                    d,
                    yaw + rng.normal(0, 0.5),
                    np.array([rng.normal(100, 0.1), rng.normal(200, 0.1), 0.0]),
                    t,
                )
            )
    return out


def test_report_csv_layout(tmp_path):
    report = cluster_metrics(sample_measurements())
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == list(CSV_HEADER)
    assert rows[1][0] == "left"  # table row order
    assert [r[0] for r in rows[1:5]] == ["left", "right", "up", "down"]
    assert rows[5][0] == "all"
    assert rows[5][6] == ""  # no angle range on the overall row
    assert rows[6][0].startswith("Mean L2-distance between cluster means")
    # nine-decimal fixed formatting
    assert len(rows[1][1].split(".")[1]) == 9


def test_report_json_full_precision():
    report = cluster_metrics(sample_measurements())
    doc = report_to_dict(report)
    assert doc["overall"]["count"] == 12
    assert doc["mean_intercluster_l2_mm"] == report.mean_intercluster_l2_mm
    assert doc["directions"][0]["direction"] == "left"
    assert doc["directions"][0]["diameter_mm"] == 2.0 * doc["directions"][0]["radius_mm"]


def test_measurements_csv_round_trip(tmp_path):
    ms = sample_measurements()
    path = tmp_path / "m.csv"
    write_measurements_csv(ms, path)
    back = read_measurements_csv(path)
    assert len(back) == len(ms)
    for a, b in zip(back, ms):
        assert a.direction == b.direction
        assert a.yaw_deg == b.yaw_deg
        assert np.array_equal(a.position, b.position)
        assert a.trial == b.trial


def test_numpy_scalar_record_round_trips(tmp_path):
    m = MarkMeasurement("up", np.float64(0.5), np.array([1.0, 2.0, 0.0]), np.int64(3))
    assert (type(m.yaw_deg), type(m.trial)) == (float, int)
    path = tmp_path / "m.csv"
    write_measurements_csv([m], path)
    (back,) = read_measurements_csv(path)
    assert (back.direction, back.yaw_deg, back.trial) == ("up", 0.5, 3)
    assert np.array_equal(back.position, m.position)


@pytest.mark.parametrize("trial", [1.5, True, "0"])
def test_non_integer_trial_refused(trial):
    with pytest.raises(ValueError, match=rf"^trial must be an integer, got {trial!r}$"):
        MarkMeasurement("up", 0.0, np.zeros(3), trial)


# two bad records of a measurement CSV (line number -> row): the error names the
# first bad line, whichever of the checks each one fails
BAD_RECORDS = [
    ({5: "up,25.0,1,2,0,0", 9: "sideways,0.0,1,2,0,0"}, "5: yaw 25.00 deg inconsistent with direction 'up'"),
    ({5: "sideways,0.0,1,2,0,0", 9: "up,25.0,1,2,0,0"}, "5: unknown direction 'sideways'"),
    ({5: "up,0.0,1,2,0", 9: "up,25.0,1,2,0,0"}, "5: expected 6 columns, got 5"),
    ({7: "up,0.0,1,inf,0,0", 9: "up,25.0,1,2,0,0"}, "7: y_mm: expected a finite number, got 'inf'"),
    ({7: "up,0.0,1,2,0,zero", 8: "up,0.0,1,nan,0,0"}, "7: invalid literal for int() with base 10: 'zero'"),
    ({6: "up,0.0,1,2,1e999,0"}, "6: z_mm: expected a finite number, got '1e999'"),
    # a record fault on an earlier line than a parse fault
    ({5: "up,25.0,1,2,0,0", 9: "up,0.0,1,2,0"}, "5: yaw 25.00 deg inconsistent with direction 'up'"),
    ({5: "sideways,0.0,1,2,0,0", 8: "up,0.0,x,2,0,0"}, "5: unknown direction 'sideways'"),
]


def _case_ids(cases):
    # each case's message; a message an earlier case has also names the
    # case's later bad line, so that every id is unique
    ids = []
    for rows, message in cases:
        ids.append(f"{message} (line {max(rows)} also bad)" if message in ids else message)
    return ids


@pytest.mark.parametrize("rows, message", BAD_RECORDS, ids=_case_ids(BAD_RECORDS))
def test_measurements_csv_names_the_first_bad_line(tmp_path, rows, message):
    path = tmp_path / "m.csv"
    write_measurements_csv(sample_measurements(), path)
    lines = path.read_text().splitlines()
    for number, row in rows.items():
        lines[number - 1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as info:
        read_measurements_csv(path)
    assert str(info.value) == f"{path}:{message}"


def test_svg_is_wellformed_and_has_points(tmp_path):
    ms = sample_measurements()
    path = tmp_path / "clusters.svg"
    write_clusters_svg([("run 0", ms), ("run 1", ms)], path, desc='{"a": "<b> & c"}')
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert [e.text for e in root.iter() if e.tag.endswith("desc")] == ['{"a": "<b> & c"}']
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) >= 2 * len(ms)


def test_summary_line_contains_diameter():
    report = cluster_metrics(sample_measurements())
    line = summary_line(report)
    assert "enclosing_diameter=" in line
    assert f"n={report.overall.count}" in line
