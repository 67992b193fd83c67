"""Referencing-plate geometry, stereo nest triangulation, and the nest-to-smr offset.

The plate frame (``ref``) has the target surface as its xy-plane with z
mounting into the plate, so the reflector center of an smr seated in a flush
nest sits at the nest center minus (0, 0, delta): a pure z-shift toward the
camera-facing side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .camera import CameraModel, ImagePoint
from .errors import DegenerateConfiguration, ExcessiveGap, ParallelRays, UnknownNest
from .geometry import RigidTransform, as_point3, triangle_area

Array = NDArray[np.float64]

NEST_IDS = ("r", "g", "b")
MAX_RAY_GAP_MM = 0.5
MIN_BASELINE_MM = 10.0
MIN_NEST_TRIANGLE_MM2 = 100.0


@dataclass(frozen=True)
class ReferencingPlate:
    """Dual-modality referencing plate: camera target marks plus reflector nests.

    Attributes:
        marks: mark id -> (x, y, 0) position on the plate surface, mm
        nests: nest id in {r, g, b} -> nest ring center in plate coordinates, mm
        delta_mm: z-offset from nest ring plane to a seated smr center, >= 0
        extent_mm: bounding rectangle (x extent, y extent) of the plate, mm
    """

    marks: Mapping[str, Array]
    nests: Mapping[str, Array]
    delta_mm: float
    extent_mm: tuple[float, float]

    def __post_init__(self) -> None:
        marks = {}
        for mark_id, p in self.marks.items():
            p = as_point3(p)
            if p[2] != 0.0:
                raise ValueError(f"mark {mark_id!r} must lie on the plate surface (z=0)")
            p.setflags(write=False)
            marks[str(mark_id)] = p
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
        if area <= MIN_NEST_TRIANGLE_MM2:
            raise ValueError(
                f"nest triangle area {area:.1f} mm^2 below {MIN_NEST_TRIANGLE_MM2} mm^2"
            )
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "nests", nests)
        object.__setattr__(self, "extent_mm", tuple(float(v) for v in self.extent_mm))

    def mark_array(self) -> tuple[list[str], Array]:
        ids = list(self.marks.keys())
        return ids, np.array([self.marks[i] for i in ids])


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


@dataclass(frozen=True)
class StereoObservation:
    """One nest-measuring stereo pair: two plate-frame camera poses plus, per
    nest, the observed ring-center image point in each view."""

    h_ref_cam0: RigidTransform
    h_ref_cam1: RigidTransform
    nest_images: Mapping[str, tuple[ImagePoint, ImagePoint]]

    def __post_init__(self) -> None:
        baseline = float(
            np.linalg.norm(self.h_ref_cam0.translation - self.h_ref_cam1.translation)
        )
        if baseline <= MIN_BASELINE_MM:
            raise ValueError(
                f"stereo baseline {baseline:.2f} mm below {MIN_BASELINE_MM} mm"
            )
        for nest_id in self.nest_images:
            if nest_id not in NEST_IDS:
                raise UnknownNest(f"unknown nest id {nest_id!r} in stereo observation")
        object.__setattr__(self, "nest_images", dict(self.nest_images))


class TriangulatedNest(NamedTuple):
    """Midpoint triangulation result: plate-frame point plus the ray gap."""

    point: Array
    gap_mm: float


def _ray(model: CameraModel, h_ref_cam: RigidTransform, ip: ImagePoint) -> tuple[Array, Array]:
    x, y = model.pixel_to_normalized(ip)
    d = h_ref_cam.rotation @ np.array([x, y, 1.0])
    return h_ref_cam.translation, d / np.linalg.norm(d)


def triangulate_nest(
    model: CameraModel, obs: StereoObservation, nest_id: str
) -> TriangulatedNest:
    """Midpoint of the common perpendicular between the two nest rays.

    The residual gap between the rays is reported; it doubles as a
    miscorrespondence diagnostic.

    Raises:
        UnknownNest: nest not observed in both views.
        ParallelRays: rays too close to parallel for a defined midpoint.
        ExcessiveGap: ray gap above 0.5 mm.
    """
    if nest_id not in obs.nest_images:
        raise UnknownNest(f"triangulate_nest: nest {nest_id!r} not observed")
    ip0, ip1 = obs.nest_images[nest_id]
    o0, d0 = _ray(model, obs.h_ref_cam0, ip0)
    o1, d1 = _ray(model, obs.h_ref_cam1, ip1)

    b = o1 - o0
    d00 = float(d0 @ d0)
    d01 = float(d0 @ d1)
    d11 = float(d1 @ d1)
    denom = d00 * d11 - d01 * d01
    if denom < 1e-12:
        raise ParallelRays(f"triangulate_nest: rays for nest {nest_id!r} are parallel")
    s = (float(b @ d0) * d11 - float(b @ d1) * d01) / denom
    t = (float(b @ d0) * d01 - float(b @ d1) * d00) / denom
    if s <= 0.0 or t <= 0.0:
        raise DegenerateConfiguration(
            f"triangulate_nest: nest {nest_id!r} triangulates behind a camera"
        )
    p0 = o0 + s * d0
    p1 = o1 + t * d1
    gap = float(np.linalg.norm(p0 - p1))
    if gap > MAX_RAY_GAP_MM:
        raise ExcessiveGap(
            f"triangulate_nest: nest {nest_id!r} ray gap {gap:.3f} mm exceeds "
            f"{MAX_RAY_GAP_MM} mm"
        )
    return TriangulatedNest(point=(p0 + p1) / 2.0, gap_mm=gap)


def measure_plate(
    model: CameraModel, obs: StereoObservation, plate_template: ReferencingPlate
) -> ReferencingPlate:
    """One-time plate measurement: triangulated nest centers replace the nominal
    template values; target marks stay template-given.

    Raises:
        UnknownNest: a nest missing from the observation.
        ParallelRays, ExcessiveGap: propagated from triangulation.
    """
    nests = {}
    for nest_id in NEST_IDS:
        nests[nest_id] = triangulate_nest(model, obs, nest_id).point
    return replace(plate_template, nests=nests)
