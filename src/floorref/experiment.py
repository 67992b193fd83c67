"""Eight-direction repeated mark measurement and its cluster metric suite.

A mark on the floor is measured from several approach headings; each recovered
position is labeled by direction and the per-direction clusters are summarized
by mean position, max/mean distance from the mean, the minimal enclosing
circle, the approach-angle range, plus the mean pairwise distance between
cluster means. All distance metrics live in the tracker xy-plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyCluster, EmptyInput, FloorRefError, MetricOverflow, OutOfBounds, number_text
from .geometry import RigidTransform, rotations_about_z
from .pipeline import ReferencingResult
from .simulate import (
    NoiseConfig,
    SimWorld,
    STREAM_EXPERIMENT,
    experiment_placements,
    mark_views,
    rng_substream,
)

Array = NDArray[np.float64]

# canonical report row order and nominal approach yaws
DIRECTIONS = ("left", "right", "up", "down", "upleft", "upright", "downleft", "downright")
DIRECTION_YAW_DEG = {
    "up": 0.0,
    "upleft": 45.0,
    "left": 90.0,
    "downleft": 135.0,
    "down": 180.0,
    "downright": -135.0,
    "right": -90.0,
    "upright": -45.0,
}
DIRECTION_TOLERANCE_DEG = 10.0
_DIRECTION_INDEX = {d: i for i, d in enumerate(DIRECTIONS)}


def _wrap_deg(a: float | Array) -> float | Array:
    """Angle or angles in degrees wrapped to [-180, 180)."""
    return (a + 180.0) % 360.0 - 180.0


def direction_for_yaw(yaw_deg: float) -> str:
    """Direction label whose nominal yaw is within +-10 degrees of the input."""
    for label, nominal in DIRECTION_YAW_DEG.items():
        if abs(_wrap_deg(yaw_deg - nominal)) <= DIRECTION_TOLERANCE_DEG:
            return label
    raise ValueError(f"yaw {number_text(yaw_deg, '.2f')} deg is not within 10 deg of any direction")


@dataclass(frozen=True, eq=False)
class MarkMeasurement:
    """One recovered mark position with its approach direction; the yaw and
    the trial are stored as Python numbers, as ``run_experiment`` makes them."""

    direction: str
    yaw_deg: float
    position: Array
    trial: int

    def __post_init__(self) -> None:
        p = np.asarray(self.position, dtype=np.float64)
        if p.shape != (3,):
            raise ValueError(f"expected a 3-vector, got shape {p.shape}")
        if not isinstance(self.trial, (int, np.integer)) or isinstance(self.trial, bool):
            raise ValueError(f"trial must be an integer, got {self.trial!r}")
        yaw = float(self.yaw_deg)
        fault = _record_fault((self.direction,), np.array([yaw]), p[None])
        if fault is not None:
            raise ValueError(fault[1])
        p.setflags(write=False)
        self.__dict__.update(position=p, yaw_deg=yaw, trial=int(self.trial))


@dataclass(frozen=True)
class ExperimentPlan:
    """Mark position, approach yaw list, repeats, and footprint offsets.

    Six standard deviations of yaw jitter must stay inside the 10 degree band
    of each planned yaw's direction, so whether a plan runs does not depend on
    the seed. The constructor stores that direction of each planned yaw, in
    order, as ``directions``.
    """

    mark_xy_mm: tuple[float, float]
    yaw_deg_list: tuple[float, ...] = tuple(DIRECTION_YAW_DEG[d] for d in DIRECTIONS)
    repeats: int = 5
    max_offset_mm: float = 12.0
    yaw_jitter_deg: float = 0.15

    def __post_init__(self) -> None:
        if len(self.mark_xy_mm) != 2:
            raise ValueError(f"mark_xy_mm must hold 2 numbers, got {len(self.mark_xy_mm)}")
        if not isinstance(self.repeats, (int, np.integer)) or isinstance(self.repeats, bool):
            raise ValueError(f"repeats must be an integer, got {self.repeats!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not self.yaw_deg_list:
            raise ValueError("yaw list must not be empty")
        directions = []
        for i, yaw in enumerate(self.yaw_deg_list):
            try:
                direction = direction_for_yaw(yaw)
            except ValueError as e:
                raise ValueError(f"yaw_deg_list[{i}]: {e}") from None
            margin = DIRECTION_TOLERANCE_DEG - abs(_wrap_deg(yaw - DIRECTION_YAW_DEG[direction]))
            if not 6.0 * self.yaw_jitter_deg <= margin:  # NaN fails
                raise ValueError(
                    f"yaw_jitter_deg {self.yaw_jitter_deg:g}: six times the jitter must fit in the "
                    f"{margin:.2f} deg between yaw {yaw:g} deg and the edge of the "
                    f"{DIRECTION_TOLERANCE_DEG:g} deg band of direction {direction!r}"
                )
            directions.append(direction)
        if not 0.0 <= self.max_offset_mm < math.inf:
            raise ValueError(f"max_offset_mm must be finite and non-negative, got {self.max_offset_mm}")
        if self.yaw_jitter_deg < 0.0:
            raise ValueError(f"yaw_jitter_deg must be non-negative, got {self.yaw_jitter_deg}")
        if not all(map(math.isfinite, self.mark_xy_mm)):
            raise ValueError(f"mark_xy_mm must be finite, got {self.mark_xy_mm}")
        object.__setattr__(self, "mark_xy_mm", tuple(float(v) for v in self.mark_xy_mm))
        object.__setattr__(self, "yaw_deg_list", tuple(float(v) for v in self.yaw_deg_list))
        object.__setattr__(self, "directions", tuple(directions))


def _measure_marks(
    result: ReferencingResult, rowcol: Array, r_abs_rob: Array, t_abs_rob: Array
) -> Array:
    """Tracker positions (n, 3) of marks seen at (n, 2) image points from robot
    poses with rotations (n, 3, 3) and translations (n, 3).

    One rectification of all points, then the robot and tracker transforms row
    by row (a stack of vector products, which round like the one-point form).
    """
    xy = result.scene.map_image_points(rowcol)
    p_scn = np.zeros((xy.shape[0], 1, 3))
    p_scn[:, 0, :2] = xy
    h = result.h_rob_scn
    p_rob = (p_scn @ h.rotation.T) + h.translation
    return (p_rob @ np.swapaxes(r_abs_rob, 1, 2))[:, 0] + t_abs_rob


def measure_mark(result: ReferencingResult, image_point: Array, h_abs_rob: RigidTransform) -> Array:
    """Mark position in tracker coordinates from one (row, col) image point.

    Rectifies the image point into the scene plane (z = 0 by construction),
    lifts it into the robot frame through the calibrated chain, and transforms
    it with the measurement-time robot pose.

    Raises:
        OutOfBounds: image point outside the sensor.
    """
    rowcol = np.asarray(image_point, dtype=np.float64).reshape(1, 2)
    if not result.scene.model.contains_points(rowcol)[0]:
        raise _off_sensor(*rowcol[0])
    return _measure_marks(result, rowcol, h_abs_rob.rotation[None], h_abs_rob.translation[None])[0]


def _off_sensor(row: float, col: float) -> OutOfBounds:
    return OutOfBounds(
        f"measure_mark: image point ({number_text(row, '.1f')}, {number_text(col, '.1f')}) outside the sensor"
    )


def run_experiment(
    world: SimWorld,
    noise: NoiseConfig,
    plan: ExperimentPlan,
    result: ReferencingResult,
    *,
    seed: int | None = None,
) -> list[MarkMeasurement]:
    """Repeated mark measurement over all planned approach directions.

    Each measurement drives the robot to a placement that keeps the mark in
    view with a random footprint offset, images the mark, and recovers its
    tracker-frame position through the supplied calibration. The
    measurement-time robot pose uses the noisy smr reading with a flat-floor
    attitude assumption (no pitch/roll sensing). Deterministic per seed, with
    independent substreams per repeat.

    All repeats x directions go through one batched pass. The random numbers
    are drawn first, in per-measurement order from each repeat's substream
    (yaw jitter, offset angle and radius, image noise, tracker noise): each
    substream's first jitter alone, then per measurement two uniforms and six
    standard normals written in place, its five noise normals and the next
    measurement's jitter (the last measurement's sixth normal is unused).
    The stream is the one that one draw per number gives. They are scaled as
    ``Generator.uniform`` (low + (high - low) u) and ``Generator.normal``
    (loc + scale z) scale their draws. The direction labels are the plan's
    (``ExperimentPlan.directions``). The geometry then runs on arrays: the
    placements, the floor support poses (``simulate.mark_views``), one
    projection, one rectification of the noisy image points and one
    robot-to-tracker transform. One stack of heading rotations
    (``rotations_about_z``) serves the placements, the support poses and the
    robot attitude; the offset directions are ``math.cos`` and ``math.sin``
    of each offset angle. If measurements fail, the
    error of the first one in repeat-then-direction order is raised, as a
    one-at-a-time loop would.

    The records are then checked once per array by the record rule
    (``_record_fault``), the rule the ``MarkMeasurement`` constructor runs on
    one record: each yaw within 10 degrees of its direction's nominal
    yaw after wrapping, and each position finite. The first failing record
    raises the rule's error (its yaw before its position), after any failure
    of the geometry pass. The records share one read-only position array.

    Raises:
        MarkNotVisible: plan geometry pushes the mark out of view.
        OutOfBounds: image noise pushes a mark image off the sensor.
        DegenerateConfiguration: a support pose on the floor that is not
            finite (a placement near the float range).
        DegenerateViewingGeometry: an image point does not rectify onto the
            scene plane.
        ValueError: yaw jitter pushes a yaw out of its direction's band, or a
            position is not finite.
    """
    base_seed = world.seed if seed is None else seed
    x, y = plan.mark_xy_mm
    mark_abs = np.array([x, y, float(world.floor_surface_z(x, y))])
    yaws = plan.yaw_deg_list
    count = plan.repeats * len(yaws)
    uniform = np.empty((count, 2))
    # per measurement k, z[6k] is its jitter and z[6k + 1 : 6k + 6] its five
    # normals; one draw of six fills the normals and the next jitter. A
    # substream's last draw puts an unused normal in the next substream's
    # first jitter, which that substream's first draw overwrites, or in the
    # spare last entry
    z = np.empty(6 * count + 1)
    k = 0
    for trial in range(plan.repeats):
        rng = rng_substream(base_seed, STREAM_EXPERIMENT, trial)
        rng.standard_normal(out=z[6 * k : 6 * k + 1])
        for _ in yaws:
            rng.random(out=uniform[k])
            rng.standard_normal(out=z[6 * k + 1 : 6 * k + 7])
            k += 1
    draws = z[: 6 * count].reshape(count, 6)
    jitter, normal = draws[:, 0], draws[:, 1:]
    yaw_deg = np.tile(yaws, plan.repeats) + plan.yaw_jitter_deg * jitter
    theta = (2.0 * math.pi * uniform[:, 0]).tolist()
    # columns (cos, sin) of the offset angle, from math as in the one-angle form
    offset = np.empty((count, 2))
    offset[:, 0] = list(map(math.cos, theta))
    offset[:, 1] = list(map(math.sin, theta))
    offset *= plan.max_offset_mm * np.sqrt(uniform[:, 1:])
    image_noise = 0.0 + noise.image_sigma_px * normal[:, :2]
    tracker_noise = 0.0 + noise.tracker_sigma_mm * normal[:, 2:]

    yaw_rad = np.radians(yaw_deg)
    # the heading rotations, also the measurement-time robot attitude (flat
    # floor assumption)
    r_abs_rob = rotations_about_z(yaw_rad)
    xy = experiment_placements(world, mark_abs, r_abs_rob, offset)
    views = mark_views(world, xy, r_abs_rob, yaw_rad, mark_abs)
    rowcol = views.rowcol + image_noise
    smr = views.smr_abs + tracker_noise

    failed = ~result.scene.model.contains_points(rowcol)
    failed |= np.array([e is not None for e in views.error])
    first = int(np.argmax(failed)) if failed.any() else count
    try:
        positions = _measure_marks(result, rowcol[:first], r_abs_rob[:first], smr[:first])
    except FloorRefError:
        # raise the error of the first measurement that fails on its own
        for i in range(first):
            _measure_marks(result, rowcol[i : i + 1], r_abs_rob[i : i + 1], smr[i : i + 1])
        raise
    if first < count:
        raise views.error[first] or _off_sensor(*rowcol[first])

    directions = plan.directions * plan.repeats
    trials = [k // len(yaws) for k in range(count)]
    fault = _record_fault(directions, yaw_deg, positions)
    if fault is not None:
        raise ValueError(fault[1])
    return _records(directions, yaw_deg, positions, trials)


def _record_fault(directions: Sequence[str], yaw_deg: Array, positions: Array) -> tuple[int, str] | None:
    """The index and message of the first record that breaks the record rule,
    or None. A record has a known direction, then a yaw within 10 degrees of
    that direction's nominal yaw after wrapping, then a finite position."""
    nominal = np.array([DIRECTION_YAW_DEG.get(d, math.nan) for d in directions])
    with np.errstate(invalid="ignore"):  # an infinite yaw wraps to NaN, which fails
        bad_yaw = ~(np.abs(_wrap_deg(yaw_deg - nominal)) <= DIRECTION_TOLERANCE_DEG)
    bad = bad_yaw | ~np.isfinite(positions).all(axis=1)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if directions[k] not in DIRECTION_YAW_DEG:
        return k, f"unknown direction {directions[k]!r}"
    if bad_yaw[k]:
        yaw = number_text(float(yaw_deg[k]), ".2f")
        return k, f"yaw {yaw} deg inconsistent with direction {directions[k]!r}"
    return k, f"point components must be finite, got {positions[k]}"


def _records(
    directions: Sequence[str], yaw_deg: Array, positions: Array, trials: Sequence[int]
) -> list[MarkMeasurement]:
    # records that have passed _record_fault, built without a second check;
    # they share the position array, made read-only
    positions.setflags(write=False)
    records = []
    for direction, yaw, position, trial in zip(directions, yaw_deg.tolist(), positions, trials):
        m = object.__new__(MarkMeasurement)
        m.__dict__.update(direction=direction, yaw_deg=yaw, position=position, trial=trial)
        records.append(m)
    return records


# --- metrics -------------------------------------------------------------------


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@functools.lru_cache(maxsize=128)
def _permutation(n: int) -> tuple[int, ...]:
    """Deterministic Fisher-Yates permutation of range(n) driven by a fixed
    64-bit LCG (cached per n: every n-point circle uses the same order)."""
    idx = list(range(n))
    state = 0x853C49E6748FEA9B
    for i in range(n - 1, 0, -1):
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        j = (state >> 16) % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return tuple(idx)


def enclosing_circle(points: Array) -> tuple[float, float, float]:
    """Center x, center y and radius of the smallest circle containing all
    points of a non-empty (n, 2) float64 array.

    Randomized incremental construction (Welzl 1991, with one- and two-point
    boundary passes); expected linear time, deterministic permutation. A point
    is inside a circle of radius r when its distance from the center is at
    most r (1 + 1e-14) + 1e-14; that bound is computed once per circle.

    The circle constructions are written out in the loop, with no call per
    circle: the diameter circle of two points, and the circumcircle of three,
    evaluated about their bounding-box midpoint for conditioning. Its radius is
    the largest distance from the center to a defining point. A collinear
    triple has no circumcircle and takes the widest of its three diameter
    circles (the first on a tie).

    Squared distances overflow beyond about 1.3e154: when the radius comes out
    infinite or NaN for finite points, the construction is redone on the
    points scaled by an exact power of two into [-1, 1] and its circle scaled
    back, so a representable radius is returned as a finite one.

    Raises:
        ValueError: points is not a non-empty (n, 2) array.
    """
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
        raise ValueError(f"enclosing_circle expects a non-empty (n, 2) array, got shape {points.shape}")
    rows = points.tolist()  # Python floats: scalar arithmetic without numpy scalars
    pts = [rows[i] for i in _permutation(len(rows))]
    sqrt = math.sqrt

    cx, cy = pts[0]
    r = 0.0
    lim = r * (1.0 + 1e-14) + 1e-14
    for i, (px, py) in enumerate(pts[1:], 1):
        dx = px - cx
        dy = py - cy
        if sqrt(dx * dx + dy * dy) <= lim:
            continue
        # p_i lies on the boundary of the circle over pts[:i+1]
        cx, cy, r = px, py, 0.0
        lim = r * (1.0 + 1e-14) + 1e-14
        for j in range(i):
            qx, qy = pts[j]
            dx = qx - cx
            dy = qy - cy
            if sqrt(dx * dx + dy * dy) <= lim:
                continue
            # p_i and p_j both lie on the boundary: their diameter circle
            cx = (px + qx) / 2.0
            cy = (py + qy) / 2.0
            dx, dy = cx - px, cy - py
            ex, ey = cx - qx, cy - qy
            r = max(sqrt(dx * dx + dy * dy), sqrt(ex * ex + ey * ey))
            lim = r * (1.0 + 1e-14) + 1e-14
            for k in range(j):
                sx, sy = pts[k]
                dx = sx - cx
                dy = sy - cy
                if sqrt(dx * dx + dy * dy) <= lim:
                    continue
                # the circumcircle of p_i, p_j and p_k
                ox = (min(px, qx, sx) + max(px, qx, sx)) / 2.0
                oy = (min(py, qy, sy) + max(py, qy, sy)) / 2.0
                a0, a1 = px - ox, py - oy
                b0, b1 = qx - ox, qy - oy
                c0, c1 = sx - ox, sy - oy
                d = (a0 * (b1 - c1) + b0 * (c1 - a1) + c0 * (a1 - b1)) * 2.0
                if d == 0.0:  # collinear: the widest diameter circle of the three
                    circles = []
                    for ax, ay, bx, by in ((px, py, qx, qy), (px, py, sx, sy), (qx, qy, sx, sy)):
                        mx = (ax + bx) / 2.0
                        my = (ay + by) / 2.0
                        dx, dy = mx - ax, my - ay
                        ex, ey = mx - bx, my - by
                        circles.append((mx, my, max(sqrt(dx * dx + dy * dy), sqrt(ex * ex + ey * ey))))
                    cx, cy, r = max(circles, key=lambda c: c[2])
                else:
                    aa, bb, cc = a0 * a0 + a1 * a1, b0 * b0 + b1 * b1, c0 * c0 + c1 * c1
                    cx = ox + (aa * (b1 - c1) + bb * (c1 - a1) + cc * (a1 - b1)) / d
                    cy = oy + (aa * (c0 - b0) + bb * (a0 - c0) + cc * (b0 - a0)) / d
                    dx, dy = cx - px, cy - py
                    ex, ey = cx - qx, cy - qy
                    fx, fy = cx - sx, cy - sy
                    r = max(sqrt(dx * dx + dy * dy), sqrt(ex * ex + ey * ey), sqrt(fx * fx + fy * fy))
                lim = r * (1.0 + 1e-14) + 1e-14
    if not math.isfinite(r) and np.isfinite(points).all():
        e = math.frexp(float(np.abs(points).max()))[1]
        cx, cy, r = enclosing_circle(np.ldexp(points, -e))
        # two exact factors: 2.0 ** e alone overflows for e = 1024
        f1, f2 = 2.0 ** (e // 2), 2.0 ** (e - e // 2)
        return cx * f1 * f2, cy * f1 * f2, r * f1 * f2
    return float(cx), float(cy), float(r)


class Circle(NamedTuple):
    center: Array
    radius_mm: float


def min_enclosing_circle(points: Sequence[Sequence[float]] | Array) -> Circle:
    """Smallest circle containing all 2D points.

    Raises:
        EmptyInput: no points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise EmptyInput("min_enclosing_circle: no points")
    cx, cy, r = enclosing_circle(pts)
    return Circle(np.array([cx, cy]), r)


def fit_circle(points: Sequence[Sequence[float]] | Array) -> Circle:
    """Algebraic least-squares circle through 2D points (Kasa fit)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 3:
        raise EmptyInput("fit_circle: need at least 3 points")
    a = np.column_stack([2.0 * pts, np.ones(pts.shape[0])])
    b = np.sum(pts * pts, axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    center = sol[:2]
    radius = math.sqrt(max(0.0, sol[2] + float(center @ center)))
    return Circle(center, radius)


class DirectionStats(NamedTuple):
    """Cluster summary for one approach direction (xy-plane metrics, mm)."""

    direction: str
    count: int
    mean_x_mm: float
    mean_y_mm: float
    max_from_mean_mm: float
    mean_from_mean_mm: float
    radius_mm: float
    yaw_min_deg: float
    yaw_max_deg: float

    @property
    def diameter_mm(self) -> float:
        return 2.0 * self.radius_mm


class ClusterReport(NamedTuple):
    """Per-direction and overall repeatability metrics."""

    directions: tuple[DirectionStats, ...]
    overall: DirectionStats
    mean_intercluster_l2_mm: float


def _cluster_stats(xy: Array, yaws_deg: Array) -> Array:
    """Rows of (mean x, mean y, max and mean distance from the mean, yaw min,
    yaw max) for k clusters of one size s: xy (k, s, 2), yaws (k, s) degrees.

    Each reduction runs along one cluster's row, so every figure rounds as the
    same reduction over that cluster alone does. The means are sums divided by
    s and the distances square roots of summed squares, the arithmetic of
    ``mean`` and of ``np.linalg.norm`` along an axis, without their wrappers.
    The yaw range is taken around the circular mean, robust to the +-180 wrap.

    The distances square the coordinates, which overflows beyond about
    1.3e154, and the mean sums them, which can overflow near the float range:
    a cluster of finite points whose distances come out infinite or NaN (as a
    non-finite mean makes them) has them, and a non-finite mean, redone on its
    points scaled by an exact power of two into [-1, 1], then scaled back, as
    ``enclosing_circle`` does.
    """
    k, size = yaws_deg.shape
    mean = xy.sum(axis=1) / size
    d = xy - mean[:, None]
    dists = np.sqrt((d * d).sum(axis=2))
    if not np.isfinite(dists).all():
        redo = ~np.isfinite(dists).all(axis=1) & np.isfinite(xy).all(axis=(1, 2))
        e = np.frexp(np.abs(xy[redo]).max(axis=(1, 2)))[1]
        scaled = np.ldexp(xy[redo], -e[:, None, None])
        m = scaled.sum(axis=1) / size
        d = scaled - m[:, None]
        dists[redo] = np.ldexp(np.sqrt((d * d).sum(axis=2)), e[:, None])
        # a finite mean keeps its value: the scaling can flush tiny points to zero
        mean[redo] = np.where(np.isfinite(mean[redo]), mean[redo], np.ldexp(m, e[:, None]))
    rad = np.radians(yaws_deg)
    sin_mean = (np.sin(rad).sum(axis=1) / size).tolist()
    cos_mean = (np.cos(rad).sum(axis=1) / size).tolist()
    # math.atan2: numpy's arctan2 can differ from it in the last place
    yaw_mean = np.degrees([math.atan2(y, x) for y, x in zip(sin_mean, cos_mean)])
    rel = _wrap_deg(yaws_deg - yaw_mean[:, None])
    table = np.empty((k, 6))
    table[:, :2] = mean
    table[:, 2] = dists.max(axis=1)
    table[:, 3] = dists.sum(axis=1) / size
    table[:, 4] = yaw_mean + rel.min(axis=1)
    table[:, 5] = yaw_mean + rel.max(axis=1)
    return table


def _mean_length(d: Array) -> float:
    """Mean length of the rows of an (m, 2) array."""
    # squared lengths as dot products, the form np.linalg.norm takes for one
    # vector (an elementwise x*x + y*y can differ in the last place)
    return float(np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]).sum() / d.shape[0])


@functools.lru_cache(maxsize=len(DIRECTIONS) + 1)
def _pairs(k: int) -> tuple[Array, Array]:
    """Read-only row indices (i, j), i < j, of the unordered pairs of k rows
    (cached per k, as ``np.triu_indices(k, 1)`` gives them)."""
    i, j = np.triu_indices(k, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def cluster_metrics(measurements: Sequence[MarkMeasurement]) -> ClusterReport:
    """Per-direction and overall cluster report over labeled measurements.

    Metrics use xy only; the approach-angle range is the min/max yaw per
    cluster around its circular mean; the inter-cluster statistic is the mean
    L2 distance over all unordered pairs of cluster means.

    The statistics of all clusters of one size are computed together, as
    (k, size) arrays reduced along each cluster's row (one pass when every
    direction has the same count), so each figure is the one a cluster alone
    gives; means and lengths are taken as ``mean`` and ``np.linalg.norm``
    take them (a sum, then a division; a square root of summed squares), with
    no call to either. The pairs of cluster means come from indices cached
    per cluster count. The enclosing circle is one ``enclosing_circle`` call
    per cluster and one for all points, with its two- and three-point
    constructions written out in that function's loop.

    Raises:
        EmptyCluster: no measurements.
        MetricOverflow: a figure is not finite (coordinates near the float range).
    """
    if not measurements:
        raise EmptyCluster("cluster_metrics: no measurements")
    all_xy = np.array([m.position[:2] for m in measurements])
    all_yaws = np.array([m.yaw_deg for m in measurements])
    # members of each direction in input order, directions in canonical order
    index = np.array([_DIRECTION_INDEX[m.direction] for m in measurements])
    grouped = np.argsort(index, kind="stable")
    bounds = np.searchsorted(index[grouped], np.arange(len(DIRECTIONS) + 1))
    sizes = np.diff(bounds)
    present = np.flatnonzero(sizes)
    counts = sizes[present]
    table = np.empty((present.size, 6))
    # coordinates near the float range overflow the sums: the figures turn
    # inf or nan, with no warning, and are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for size in sorted(set(counts.tolist())):
            rows = np.flatnonzero(counts == size)
            members = grouped[bounds[present[rows], None] + np.arange(size)]
            table[rows] = _cluster_stats(all_xy[members], all_yaws[members])
        overall_row = _cluster_stats(all_xy[None], all_yaws[None])[0].tolist()
        if present.size >= 2:
            i, j = _pairs(present.size)
            d = table[i, :2] - table[j, :2]
            inter = _mean_length(d)
            if not math.isfinite(inter) and np.isfinite(d).all():
                # squares overflow: the same on d scaled into [-1, 1] by 2**-e
                e = int(np.frexp(np.abs(d).max())[1])
                inter = float(np.ldexp(_mean_length(np.ldexp(d, -e)), e))
        else:
            inter = 0.0
    radii = [enclosing_circle(all_xy[grouped[bounds[d] : bounds[d + 1]]])[2] for d in present.tolist()]
    overall_radius = enclosing_circle(all_xy)[2]
    figures = [*overall_row, *radii, overall_radius, inter]
    if not (np.isfinite(table).all() and all(map(math.isfinite, figures))):
        raise MetricOverflow(
            "cluster_metrics: measurement coordinates too large, a metric overflows the float range"
        )

    # a table row is a cluster's figures in field order, the radius aside
    stats = tuple(
        DirectionStats(DIRECTIONS[d], count, *row[:4], radius, *row[4:])
        for d, count, row, radius in zip(present.tolist(), counts.tolist(), table.tolist(), radii)
    )
    overall = DirectionStats("all", len(measurements), *overall_row[:4], overall_radius, *overall_row[4:])
    return ClusterReport(stats, overall, inter)
