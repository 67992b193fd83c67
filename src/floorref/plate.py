"""Referencing-plate geometry and the nest-to-smr offset.

The plate frame (``ref``) has the target surface as its xy-plane with z
mounting into the plate, so the reflector center of an smr seated in a flush
nest sits at the nest center minus (0, 0, delta): a pure z-shift toward the
camera-facing side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .errors import UnknownNest
from .geometry import as_point3, triangle_area

Array = NDArray[np.float64]

NEST_IDS = ("r", "g", "b")
MIN_NEST_TRIANGLE_MM2 = 100.0


@dataclass(frozen=True, eq=False)
class ReferencingPlate:
    """Dual-modality referencing plate: camera target marks plus reflector nests.

    A plate is immutable: ``marks`` and ``nests`` are read-only mappings of
    read-only arrays, so one plate can be shared by every world that uses it.

    Attributes:
        marks: mark id -> (x, y, 0) position on the plate surface, mm
        nests: nest id in {r, g, b} -> nest ring center in plate coordinates, mm
        delta_mm: z-offset from nest ring plane to a seated smr center, >= 0
        extent_mm: bounding rectangle (x extent, y extent) of the plate, mm;
            every mark and nest lies in 0 <= x <= x extent, 0 <= y <= y extent
    """

    marks: Mapping[str, Array]
    nests: Mapping[str, Array]
    delta_mm: float
    extent_mm: tuple[float, float]

    def __post_init__(self) -> None:
        marks = _checked_marks(self.marks)
        nests = {}
        for nest_id in NEST_IDS:
            if nest_id not in self.nests:
                raise UnknownNest(f"plate is missing nest {nest_id!r}")
        for nest_id, p in self.nests.items():
            if nest_id not in NEST_IDS:
                raise UnknownNest(f"unknown nest id {nest_id!r}")
            p = as_point3(p)
            p.setflags(write=False)
            nests[nest_id] = p
        if self.delta_mm < 0.0:
            raise ValueError(f"nest offset must be non-negative, got {self.delta_mm}")
        area = triangle_area(nests["r"], nests["g"], nests["b"])
        if not math.isfinite(area):
            raise ValueError("nest triangle area overflows the float range")
        if area <= MIN_NEST_TRIANGLE_MM2:
            raise ValueError(
                f"nest triangle area {area:.1f} mm^2 below {MIN_NEST_TRIANGLE_MM2} mm^2"
            )
        ex, ey = extent = tuple(float(v) for v in self.extent_mm)
        # one stacked check; only when it fails does the loop name the first
        # point off the extent, nests before marks
        xy = np.array([*nests.values(), *marks.values()])[:, :2]
        if not ((0.0 <= xy) & (xy <= extent)).all():
            for what, points in (("nest", nests), ("mark", marks)):
                for point_id, (x, y, _) in zip(points, np.reshape(list(points.values()), (-1, 3)).tolist()):
                    if not (0.0 <= x <= ex and 0.0 <= y <= ey):
                        raise ValueError(
                            f"{what} {point_id!r} at ({x:g}, {y:g}) mm is off the plate: extent_mm "
                            f"({ex:g}, {ey:g}) requires 0 <= x <= {ex:g} and 0 <= y <= {ey:g}"
                        )
        object.__setattr__(self, "marks", MappingProxyType(marks))
        object.__setattr__(self, "nests", MappingProxyType(nests))
        object.__setattr__(self, "extent_mm", extent)
        # the marks stacked in id order, (n, 3), and their centroid (None
        # without marks), built once from the plate's own marks
        stack = np.array(list(marks.values()), dtype=np.float64).reshape(len(marks), 3)
        stack.setflags(write=False)
        object.__setattr__(self, "_mark_stack", stack)
        center = tuple(stack.mean(axis=0).tolist()) if marks else None
        object.__setattr__(self, "_mark_center", center)

    def mark_array(self) -> tuple[list[str], Array]:
        return list(self.marks.keys()), self._mark_stack.copy()


def _checked_marks(marks: Mapping[str, Array]) -> dict[str, Array]:
    """Marks as read-only finite 3-vectors on the plate surface, keyed by str id.

    All marks are checked as one stacked array; only when that check fails
    does the per-mark loop run, to raise the error of the first bad mark.
    """
    ids = [str(mark_id) for mark_id in marks]
    try:
        stack = np.array(list(marks.values()), dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        stack = np.empty(0)  # ragged or not numeric: the loop names the mark
    if stack.shape == (len(ids), 3) and np.isfinite(stack).all() and (stack[:, 2] == 0.0).all():
        stack.setflags(write=False)
        return dict(zip(ids, stack))
    checked = {}
    for mark_id, p in marks.items():
        p = as_point3(p)
        if p[2] != 0.0:
            raise ValueError(f"mark {mark_id!r} must lie on the plate surface (z=0)")
        p.setflags(write=False)
        checked[str(mark_id)] = p
    return checked


def nest_to_smr(plate: ReferencingPlate, nest_id: str) -> Array:
    """Seated smr center for a nest: the ring center z-shifted by -delta.

    The offset is subtracted because the plate z-axis mounts into the plate;
    only the z component changes.

    Raises:
        UnknownNest: id not in {r, g, b}.
    """
    if nest_id not in NEST_IDS:
        raise UnknownNest(f"nest_to_smr: unknown nest id {nest_id!r}")
    p = plate.nests[nest_id].copy()
    p[2] -= plate.delta_mm
    return p


def smr_points(plate: ReferencingPlate) -> Array:
    """Seated smr centers for all three nests in canonical (r, g, b) order."""
    return np.array([nest_to_smr(plate, nid) for nid in NEST_IDS])
