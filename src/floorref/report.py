"""Report writers: cluster-metric CSV/JSON in the table layout, raw measurement
CSV, and a dependency-free SVG scatter of the clusters.

Metric values in the CSV are fixed to nine decimals (byte-stable across
platforms) and angle ranges print at two; the JSON report and the measurement
CSV keep full float precision.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import SchemaError
from .experiment import (
    DIRECTIONS,
    ClusterReport,
    DirectionStats,
    MarkMeasurement,
    _record_fault,
    _records,
)

CSV_HEADER = (
    "Direction",
    "Mean X [mm]",
    "Mean Y [mm]",
    "Max from Mean [mm]",
    "Mean from Mean [mm]",
    "Cluster Radius [mm]",
    "Approach Angle Range [deg]",
)
MEASUREMENT_COLUMNS = ("direction", "yaw_deg", "x_mm", "y_mm", "z_mm", "trial")

_COLORS = dict(
    zip(
        DIRECTIONS,
        ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"),
    )
)


def _fmt9(v: float) -> str:
    return f"{v:.9f}"


def _angle_range(stats: DirectionStats) -> str:
    return f"[{stats.yaw_min_deg:.2f}, {stats.yaw_max_deg:.2f}]"


def _stats_row(stats: DirectionStats) -> list[str]:
    return [
        stats.direction,
        _fmt9(stats.mean_x_mm),
        _fmt9(stats.mean_y_mm),
        _fmt9(stats.max_from_mean_mm),
        _fmt9(stats.mean_from_mean_mm),
        _fmt9(stats.radius_mm),
        _angle_range(stats),
    ]


def write_report_csv(report: ClusterReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for stats in report.directions:
            writer.writerow(_stats_row(stats))
        overall = _stats_row(report.overall)
        overall[6] = ""  # the overall row reports no approach-angle range
        writer.writerow(overall)
        writer.writerow(
            ["Mean L2-distance between cluster means [mm]", _fmt9(report.mean_intercluster_l2_mm)]
        )


def _stats_dict(stats: DirectionStats) -> dict:
    return {
        "direction": stats.direction,
        "count": stats.count,
        "mean_x_mm": stats.mean_x_mm,
        "mean_y_mm": stats.mean_y_mm,
        "max_from_mean_mm": stats.max_from_mean_mm,
        "mean_from_mean_mm": stats.mean_from_mean_mm,
        "radius_mm": stats.radius_mm,
        "diameter_mm": stats.diameter_mm,
        "yaw_min_deg": stats.yaw_min_deg,
        "yaw_max_deg": stats.yaw_max_deg,
    }


def report_to_dict(report: ClusterReport) -> dict:
    return {
        "directions": [_stats_dict(s) for s in report.directions],
        "overall": _stats_dict(report.overall),
        "mean_intercluster_l2_mm": report.mean_intercluster_l2_mm,
    }


def write_measurements_csv(measurements: Sequence[MarkMeasurement], path: str | Path) -> None:
    positions = np.reshape([m.position for m in measurements], (-1, 3)).tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MEASUREMENT_COLUMNS)
        writer.writerows(
            [m.direction, repr(m.yaw_deg), repr(x), repr(y), repr(z), m.trial]
            for m, (x, y, z) in zip(measurements, positions)
        )


def read_measurements_csv(
    path: str | Path, digests: dict[str | Path, str] | None = None
) -> list[MarkMeasurement]:
    """The records of a measurement CSV, read in one pass in file order: each
    row's column count, its four finite numbers and its integer trial, up to
    the first malformed row. The record rule (``_record_fault``, as
    ``run_experiment`` runs it) then runs over the rows before that row, so
    the error names the first bad line, whichever check that line fails. A
    file with a header and no rows holds no measurement, and is refused with
    its name. The file is opened once; with ``digests``, the sha256 of the
    bytes read is stored there under ``path``, for ``schemas.provenance``."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        rows = list(csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise SchemaError(f"cannot read measurement CSV {path}: {e}") from e
    if not rows or tuple(rows[0]) != MEASUREMENT_COLUMNS:
        raise SchemaError(f"{path}: expected header {','.join(MEASUREMENT_COLUMNS)}")
    if len(rows) == 1:
        raise SchemaError(f"{path}: no measurements after the header")
    values: list[list[float]] = []
    trials: list[int] = []
    row_fault = None
    for i, row in enumerate(rows[1:]):
        if len(row) != 6:
            row_fault = i, f"expected 6 columns, got {len(row)}"
            break
        try:
            # a row's numbers are kept when its trial fails, so that a
            # non-finite number on that row is named before the trial
            values.append([float(v) for v in row[1:5]])
            trials.append(int(row[5]))
        except ValueError as e:
            row_fault = i, str(e)
            break
    array = np.reshape(values, (-1, 4))
    # a non-finite number lies on or before the row of a fault the loop met
    if not np.isfinite(array).all():
        i, k = np.argwhere(~np.isfinite(array))[0].tolist()
        row_fault = i, f"{MEASUREMENT_COLUMNS[k + 1]}: expected a finite number, got {rows[i + 1][k + 1]!r}"
    n = len(trials) if row_fault is None else row_fault[0]
    directions = [row[0] for row in rows[1 : n + 1]]
    yaw_deg, positions = array[:n, 0], array[:n, 1:].copy()
    fault = _record_fault(directions, yaw_deg, positions) or row_fault
    if fault is not None:
        raise SchemaError(f"{path}:{fault[0] + 2}: {fault[1]}")
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    return _records(directions, yaw_deg, positions, trials)


# --- SVG -----------------------------------------------------------------------


def _nice_step(span_mm: float) -> float:
    raw = span_mm / 4.0
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _panel_svg(
    title: str, measurements: Sequence[MarkMeasurement], x0: float, y0: float, size: float
) -> list[str]:
    xy = np.array([m.position[:2] for m in measurements])
    e = 0
    with np.errstate(over="ignore", invalid="ignore"):
        rel = xy - xy.mean(axis=0)
        spread = 2.0 * float(np.max(np.abs(rel))) * 1.15
    if not math.isfinite(spread):
        # coordinates near the float range overflow the mean or the spread:
        # the same on the points scaled by an exact 2**-e, which moves no
        # drawn point; only the grid label is scaled back
        e = math.frexp(float(np.abs(xy).max()))[1]
        xy = np.ldexp(xy, -e)
        rel = xy - xy.mean(axis=0)
        spread = 2.0 * float(np.max(np.abs(rel))) * 1.15
    span = max(1e-6, spread)
    scale = size / span
    px = (x0 + size / 2.0 + rel[:, 0] * scale).tolist()
    py = (y0 + size / 2.0 - rel[:, 1] * scale).tolist()

    parts = [
        f'<rect x="{x0}" y="{y0}" width="{size}" height="{size}" fill="white" stroke="#333"/>',
        f'<text x="{x0 + size / 2:.1f}" y="{y0 - 8:.1f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{title}</text>',
    ]
    step = _nice_step(span)
    n_lines = int(span / 2.0 / step) + 1
    for k in range(-n_lines, n_lines + 1):
        offset = k * step * scale
        if abs(offset) > size / 2.0:
            continue
        cx = x0 + size / 2.0 + offset
        cy = y0 + size / 2.0 + offset
        stroke = "#bbb" if k else "#666"
        parts.append(
            f'<line x1="{cx:.2f}" y1="{y0}" x2="{cx:.2f}" y2="{y0 + size}" '
            f'stroke="{stroke}" stroke-width="0.5"/>'
        )
        parts.append(
            f'<line x1="{x0}" y1="{cy:.2f}" x2="{x0 + size}" y2="{cy:.2f}" '
            f'stroke="{stroke}" stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{x0 + size - 4:.1f}" y="{y0 + size - 6:.1f}" text-anchor="end" '
        f'font-size="10" font-family="sans-serif" fill="#555">grid {math.ldexp(step, e):g} mm</text>'
    )
    parts.extend(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{_COLORS[m.direction]}" fill-opacity="0.8"/>'
        for m, x, y in zip(measurements, px, py)
    )
    return parts


def write_clusters_svg(
    panels: Sequence[tuple[str, Sequence[MarkMeasurement]]],
    path: str | Path,
    desc: str,
) -> None:
    """Scatter of measurements normalized to each panel's overall mean, one
    panel per run, two panels per row, with a shared direction legend. The
    desc string (e.g. provenance JSON) is embedded as SVG metadata."""
    if not panels:
        raise ValueError("write_clusters_svg: need at least one panel")
    panel_size = 320.0
    margin = 50.0
    per_row = 2 if len(panels) > 1 else 1
    n_rows = (len(panels) + per_row - 1) // per_row
    width = margin + per_row * (panel_size + margin)
    height = margin + n_rows * (panel_size + margin) + 30.0

    escaped = desc.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<desc>{escaped}</desc>",
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for i, (title, measurements) in enumerate(panels):
        row, col = divmod(i, per_row)
        x0 = margin + col * (panel_size + margin)
        y0 = margin + row * (panel_size + margin)
        parts.extend(_panel_svg(title, measurements, x0, y0, panel_size))
    lx = margin
    ly = height - 12.0
    for direction, color in _COLORS.items():
        parts.append(f'<circle cx="{lx:.1f}" cy="{ly - 4:.1f}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 8:.1f}" y="{ly:.1f}" font-size="11" '
            f'font-family="sans-serif">{direction}</text>'
        )
        lx += 9.0 * len(direction) + 30.0
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts))
        f.write("\n")


def summary_line(report: ClusterReport) -> str:
    o = report.overall
    return (
        f"overall: n={o.count} enclosing_diameter={_fmt9(o.diameter_mm)} mm "
        f"max_from_mean={_fmt9(o.max_from_mean_mm)} mm "
        f"mean_from_mean={_fmt9(o.mean_from_mean_mm)} mm "
        f"inter_cluster_mean_l2={_fmt9(report.mean_intercluster_l2_mm)} mm"
    )


def residual_table(residuals: Mapping[str, float | bool]) -> str:
    lines = ["quantity                          value"]
    for key, value in residuals.items():
        text = ("yes" if value else "no") if isinstance(value, bool) else _fmt9(value)
        lines.append(f"{key:<32}  {text}")
    return "\n".join(lines)
