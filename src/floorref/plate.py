"""Referencing-plate geometry and the nest-to-smr offset.

The plate frame (``ref``) has the target surface as its xy-plane with z
mounting into the plate, so the reflector center of an smr seated in a flush
nest sits at the nest center minus (0, 0, delta): a pure z-shift toward the
camera-facing side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import triangle_area

Array = NDArray[np.float64]

NEST_IDS = ("r", "g", "b")
MIN_NEST_TRIANGLE_MM2 = 100.0


class MarkNotOnPlate(ValueError):
    """An id that ``ReferencingPlate.mark_rows`` does not find; ``index`` is
    its position among the ids asked for, so a decoder can name the entry it
    read it from."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class ReferencingPlate:
    """Dual-modality referencing plate: camera target marks plus reflector nests.

    A plate is its arrays. The constructor checks them once (``ValueError``
    naming the first failing mark or nest) and stores them as read-only float
    copies, so one plate can be shared by every world that uses it.

    Attributes:
        mark_ids: ids of the target marks, each stored as ``str(id)`` and
            listed once
        mark_points: (n, 3) finite (x, y, 0) positions of those marks on the
            plate surface, mm
        nest_points: (3, 3) finite ring centers of nests r, g and b
            (``NEST_IDS`` order) in plate coordinates, mm
        delta_mm: z-offset from nest ring plane to a seated smr center, >= 0
        extent_mm: bounding rectangle (x extent, y extent) of the plate, mm;
            every mark and nest lies in 0 <= x <= x extent, 0 <= y <= y extent
    """

    mark_ids: tuple[str, ...]
    mark_points: Array
    nest_points: Array
    delta_mm: float
    extent_mm: tuple[float, float]

    def __post_init__(self) -> None:
        mark_ids = tuple(str(mark_id) for mark_id in self.mark_ids)
        rows = dict(zip(mark_ids, range(len(mark_ids))))
        if len(rows) != len(mark_ids):
            raise ValueError("mark ids must be listed once each")
        object.__setattr__(self, "mark_ids", mark_ids)
        object.__setattr__(self, "_rows", rows)
        for name, shape in {"mark_points": (len(mark_ids), 3), "nest_points": (3, 3)}.items():
            a = np.array(getattr(self, name), dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        marks, nests = self.mark_points, self.nest_points
        # each check names its first failing row
        for i in np.flatnonzero(~np.isfinite(marks).all(axis=1))[:1]:
            raise ValueError(f"mark {mark_ids[i]!r}: point components must be finite, got {marks[i]}")
        for i in np.flatnonzero(marks[:, 2] != 0.0)[:1]:
            raise ValueError(f"mark {mark_ids[i]!r} must lie on the plate surface (z=0)")
        for i in np.flatnonzero(~np.isfinite(nests).all(axis=1))[:1]:
            raise ValueError(f"nest {NEST_IDS[i]!r}: point components must be finite, got {nests[i]}")
        if not math.isfinite(self.delta_mm):
            raise ValueError(f"delta_mm must be finite, got {self.delta_mm}")
        if self.delta_mm < 0.0:
            raise ValueError(f"nest offset must be non-negative, got {self.delta_mm}")
        area = triangle_area(*nests)
        if not math.isfinite(area):
            raise ValueError("nest triangle area overflows the float range")
        if area <= MIN_NEST_TRIANGLE_MM2:
            raise ValueError(
                f"nest triangle area {area:.1f} mm^2 below {MIN_NEST_TRIANGLE_MM2} mm^2"
            )
        extent = tuple(float(v) for v in self.extent_mm)
        if len(extent) != 2:
            raise ValueError(f"extent_mm must hold 2 values, got {len(extent)}")
        ex, ey = extent
        for what, ids, points in (("nest", NEST_IDS, nests), ("mark", mark_ids, marks)):
            xy = points[:, :2]
            for i in np.flatnonzero(~((0.0 <= xy) & (xy <= extent)).all(axis=1))[:1]:
                x, y = xy[i].tolist()
                raise ValueError(
                    f"{what} {ids[i]!r} at ({x:g}, {y:g}) mm is off the plate: extent_mm "
                    f"({ex:g}, {ey:g}) requires 0 <= x <= {ex:g} and 0 <= y <= {ey:g}"
                )
        object.__setattr__(self, "extent_mm", extent)
        # the marks' centroid (None without marks), built once for default_placements
        center = tuple(marks.mean(axis=0).tolist()) if len(marks) else None
        object.__setattr__(self, "_mark_center", center)

    def mark_rows(self, mark_ids: Sequence[str]) -> list[int]:
        """The row of ``mark_points`` of each id.

        Raises:
            MarkNotOnPlate: the first id not on the plate, named.
        """
        try:
            return [self._rows[mark_id] for mark_id in mark_ids]
        except KeyError as e:
            mark_id = e.args[0]
            message = f"mark {mark_id!r} is not on the plate"
            raise MarkNotOnPlate(message, mark_ids.index(mark_id)) from None


def smr_points(plate: ReferencingPlate) -> Array:
    """Seated smr centers for all three nests in canonical (r, g, b) order:
    each ring center shifted by -delta in z, the only component that changes."""
    p = plate.nest_points.copy()
    p[:, 2] -= plate.delta_mm
    return p
