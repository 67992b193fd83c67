"""Report writers: cluster-metric CSV/JSON in the table layout, raw measurement
CSV, and a dependency-free SVG scatter of the clusters.

Metric values in the CSV are fixed to nine decimals (byte-stable across
platforms) and angle ranges print at two; the JSON report and the measurement
CSV keep full float precision.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import SchemaError
from .experiment import ClusterReport, DirectionStats, MarkMeasurement

CSV_HEADER = (
    "Direction",
    "Mean X [mm]",
    "Mean Y [mm]",
    "Max from Mean [mm]",
    "Mean from Mean [mm]",
    "Cluster Radius [mm]",
    "Approach Angle Range [deg]",
)

_COLORS = {
    "left": "#1f77b4",
    "right": "#ff7f0e",
    "up": "#2ca02c",
    "down": "#d62728",
    "upleft": "#9467bd",
    "upright": "#8c564b",
    "downleft": "#e377c2",
    "downright": "#7f7f7f",
}


def _fmt9(v: float) -> str:
    return f"{v:.9f}"


def _angle_range(stats: DirectionStats) -> str:
    if stats.yaw_min_deg is None or stats.yaw_max_deg is None:
        return ""
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
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["direction", "yaw_deg", "x_mm", "y_mm", "z_mm", "trial"])
        for m in measurements:
            writer.writerow(
                [
                    m.direction,
                    repr(m.yaw_deg),
                    repr(float(m.position[0])),
                    repr(float(m.position[1])),
                    repr(float(m.position[2])),
                    m.trial,
                ]
            )


def read_measurements_csv(path: str | Path) -> list[MarkMeasurement]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise SchemaError(f"cannot read measurement CSV {path}: {e}") from e
    header = ["direction", "yaw_deg", "x_mm", "y_mm", "z_mm", "trial"]
    if not rows or rows[0] != header:
        raise SchemaError(f"{path}: expected header direction,yaw_deg,x_mm,y_mm,z_mm,trial")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 6:
            raise SchemaError(f"{path}:{i}: expected 6 columns, got {len(row)}")
        try:
            values = [float(v) for v in row[1:5]]
            for name, text, v in zip(header[1:5], row[1:5], values):
                if not math.isfinite(v):
                    raise SchemaError(f"{path}:{i}: {name}: expected a finite number, got {text!r}")
            yaw, x, y, z = values
            out.append(
                MarkMeasurement(
                    direction=row[0], yaw_deg=yaw, position=np.array([x, y, z]), trial=int(row[5])
                )
            )
        except ValueError as e:
            raise SchemaError(f"{path}:{i}: {e}") from e
    return out


# --- SVG -----------------------------------------------------------------------


def _nice_step(span_mm: float) -> float:
    if span_mm <= 0.0:
        return 1.0
    raw = span_mm / 4.0
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _panel_svg(
    title: str, measurements: Sequence[MarkMeasurement], x0: float, y0: float, size: float
) -> list[str]:
    xy = np.array([m.position[:2] for m in measurements])
    center = xy.mean(axis=0)
    rel = xy - center
    span = max(1e-6, 2.0 * float(np.max(np.abs(rel))) * 1.15)
    scale = size / span

    def to_px(p: np.ndarray) -> tuple[float, float]:
        return (x0 + size / 2.0 + p[0] * scale, y0 + size / 2.0 - p[1] * scale)

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
        f'font-size="10" font-family="sans-serif" fill="#555">grid {step:g} mm</text>'
    )
    for m in measurements:
        px, py = to_px(m.position[:2] - center)
        color = _COLORS.get(m.direction, "#000")
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}" fill-opacity="0.8"/>')
    return parts


def write_clusters_svg(
    panels: Sequence[tuple[str, Sequence[MarkMeasurement]]],
    path: str | Path,
    desc: str | None = None,
) -> None:
    """Scatter of measurements normalized to each panel's overall mean, one
    panel per run, two panels per row, with a shared direction legend. An
    optional desc string (e.g. provenance JSON) is embedded as SVG metadata."""
    if not panels:
        raise ValueError("write_clusters_svg: need at least one panel")
    panel_size = 320.0
    margin = 50.0
    per_row = 2 if len(panels) > 1 else 1
    n_rows = (len(panels) + per_row - 1) // per_row
    width = margin + per_row * (panel_size + margin)
    height = margin + n_rows * (panel_size + margin) + 30.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if desc is not None:
        escaped = desc.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.insert(1, f"<desc>{escaped}</desc>")
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


def residual_table(residuals: Mapping[str, Any]) -> str:
    lines = ["quantity                          value"]
    for key, value in residuals.items():
        if isinstance(value, bool):
            text = "yes" if value else "no"
        elif isinstance(value, float):
            text = _fmt9(value)
        else:
            text = str(value)
        lines.append(f"{key:<32}  {text}")
    return "\n".join(lines)
