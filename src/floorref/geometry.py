"""Exact SE(3)/SO(3) algebra, homogeneous points, and rigid point-set registration.

Conventions
-----------
A transform with tags ``(source="a", dest="b")`` maps a-frame coordinates into
b-frame coordinates. Points are millimeter 3-vectors; homogeneous points are
4-vectors whose last component is exactly 1. All values are immutable: the
wrapped arrays are marked read-only and every operation returns a new value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateConfiguration, FrameMismatch, LengthMismatch

ROTATION_TOL = 1e-9
_RENORM_TRIGGER = 1e-12

Array = NDArray[np.float64]


def point3(x: float, y: float, z: float) -> Array:
    """Build a finite 3D point (mm)."""
    p = np.array([x, y, z], dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point components must be finite, got {p}")
    return p


def as_point3(p: Sequence[float] | Array) -> Array:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point components must be finite, got {p}")
    return p


def to_homogeneous(p: Sequence[float] | Array) -> Array:
    """Append the unit homogeneous coordinate."""
    return np.append(as_point3(p), 1.0)


def triangle_area(a: Array, b: Array, c: Array) -> float:
    """Area of the triangle with 3D vertices a, b, c (mm^2)."""
    return 0.5 * float(np.linalg.norm(np.cross(b - a, c - a)))


# --- rotations ------------------------------------------------------------


def validate_rotation(r: Array, tol: float = ROTATION_TOL) -> None:
    """Check orthonormality (Frobenius) and det = +1 within tol."""
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("rotation entries must be finite")
    err = np.linalg.norm(r.T @ r - np.eye(3))
    if err > tol:
        raise ValueError(f"matrix not orthonormal: |R^T R - I|_F = {err:.3e}")
    det = np.linalg.det(r)
    if abs(det - 1.0) > tol:
        raise ValueError(f"matrix not a proper rotation: det = {det!r}")


def nearest_rotation(m: Array) -> Array:
    """Nearest SO(3) element in the Frobenius sense (SVD polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u = u.copy()
        u[:, 2] *= -1.0
        r = u @ vt
    return r


def rotation_about_x(angle_rad: float) -> Array:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_about_y(angle_rad: float) -> Array:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_about_z(angle_rad: float) -> Array:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotations_about_z(angles_rad: Sequence[float] | Array) -> Array:
    """Stack of ``rotation_about_z`` matrices, (n, 3, 3), equal to it entry for entry.

    Cosine and sine come from ``math`` element by element, as in the one-angle
    form; numpy's vectorized float64 sin/cos may round differently on some CPUs.
    """
    angles = np.asarray(angles_rad, dtype=np.float64).reshape(-1).tolist()
    r = np.zeros((len(angles), 3, 3))
    r[:, 0, 0] = r[:, 1, 1] = [math.cos(a) for a in angles]
    r[:, 1, 0] = [math.sin(a) for a in angles]
    r[:, 0, 1] = -r[:, 1, 0]
    r[:, 2, 2] = 1.0
    return r


def rotation_from_rotvec(w: Sequence[float] | Array) -> Array:
    """Rotation exp([w]x) of a rotation vector w (axis times angle in rad), Rodrigues form.

    Below 1e-12 rad the second-order series I + K + K^2/2 replaces the
    division by the angle.
    """
    w = np.asarray(w, dtype=np.float64)
    angle = float(np.linalg.norm(w))
    if angle < 1e-12:
        k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        return np.eye(3) + k + 0.5 * (k @ k)
    a = w / angle
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rotation_about_axis(axis: Sequence[float] | Array, angle_rad: float) -> Array:
    """Rotation by angle_rad about an arbitrary axis (Rodrigues form)."""
    a = as_point3(axis)
    n = np.linalg.norm(a)
    if n < 1e-15:
        raise ValueError("rotation axis must be nonzero")
    return rotation_from_rotvec(a * (angle_rad / n))


def rotation_distance(a: Array, b: Array) -> float:
    """Geodesic angle between two rotations, clamped to [0, pi].

    Equal to arccos((trace(a^T b) - 1) / 2) but evaluated through atan2 of the
    skew part, which resolves angles far below the 1e-8 conditioning floor of
    the arccos form.
    """
    validate_rotation(np.asarray(a, dtype=np.float64))
    validate_rotation(np.asarray(b, dtype=np.float64))
    d = a.T @ b
    cos_term = (np.trace(d) - 1.0) / 2.0
    sin_term = 0.5 * math.sqrt(
        (d[2, 1] - d[1, 2]) ** 2 + (d[0, 2] - d[2, 0]) ** 2 + (d[1, 0] - d[0, 1]) ** 2
    )
    return min(math.pi, max(0.0, math.atan2(sin_term, cos_term)))


def rotation_to_quaternion(r: Array) -> Array:
    """Unit quaternion (w, x, y, z) with w >= 0 for a rotation matrix."""
    r = np.asarray(r, dtype=np.float64)
    t = np.trace(r)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(0.0, 1.0 + r[i, i] - r[j, j] - r[k, k])) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q: Sequence[float] | Array) -> Array:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ValueError(f"quaternion must be a 4-vector, got shape {q.shape}")
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# --- rigid transforms -----------------------------------------------------


def _frozen(a: Array) -> Array:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """SE(3) element mapping source-frame coordinates to dest-frame coordinates.

    Attributes:
        rotation: (3, 3) proper orthonormal matrix
        translation: (3,) vector, mm
        source: frame tag of inputs
        dest: frame tag of outputs
    """

    rotation: Array
    translation: Array
    source: str
    dest: str

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=np.float64)
        t = as_point3(self.translation)
        validate_rotation(r)
        object.__setattr__(self, "rotation", _frozen(r))
        object.__setattr__(self, "translation", _frozen(t))

    @classmethod
    def identity(cls, frame: str) -> RigidTransform:
        return cls(np.eye(3), np.zeros(3), source=frame, dest=frame)

    @classmethod
    def from_matrix(cls, m: Array, source: str, dest: str) -> RigidTransform:
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"homogeneous matrix must be 4x4, got {m.shape}")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
            raise ValueError(f"last row must be (0, 0, 0, 1), got {m[3]}")
        return cls(m[:3, :3], m[:3, 3], source=source, dest=dest)

    @property
    def matrix(self) -> Array:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def retagged(self, source: str, dest: str) -> RigidTransform:
        """Same mapping, new frame tags (simulator-internal relabeling)."""
        return RigidTransform(self.rotation, self.translation, source=source, dest=dest)

    def __matmul__(self, other: RigidTransform) -> RigidTransform:
        return compose(self, other)

    def __repr__(self) -> str:
        t = self.translation
        return (
            f"RigidTransform({self.source!r}->{self.dest!r}, "
            f"t=[{t[0]:.6g}, {t[1]:.6g}, {t[2]:.6g}] mm)"
        )


def compose(h_bc: RigidTransform, h_ab: RigidTransform) -> RigidTransform:
    """Chain two transforms: (b->c) after (a->b) gives (a->c).

    The rotation product is re-orthonormalized when accumulated drift exceeds
    the renormalization trigger, keeping long chains inside the type invariant.

    Raises:
        FrameMismatch: if the inner frames differ.
    """
    if h_bc.source != h_ab.dest:
        raise FrameMismatch(
            f"compose: inner frames differ ({h_ab.source}->{h_ab.dest} then "
            f"{h_bc.source}->{h_bc.dest})"
        )
    r = h_bc.rotation @ h_ab.rotation
    if np.linalg.norm(r.T @ r - np.eye(3)) > _RENORM_TRIGGER:
        r = nearest_rotation(r)
    t = h_bc.rotation @ h_ab.translation + h_bc.translation
    return RigidTransform(r, t, source=h_ab.source, dest=h_bc.dest)


def row_dots(a: Array, b: Array) -> Array:
    """Dot products of matching rows of two (n, k) arrays, (n,).

    Evaluated as a stack of vector products, which round like the one-row
    ``a @ b`` (a BLAS dot); an elementwise sum of products may not.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def compose_rotations(r_bc: Array, r_ab: Array) -> Array:
    """Rotation part of ``compose`` for a stack of (n, 3, 3) rotations after
    one (3, 3) rotation, row for row equal to it: a product whose
    |R^T R - I|_F exceeds the renormalization trigger is replaced by its
    nearest rotation. Rows with non-finite entries pass through unchanged.
    """
    r = np.asarray(r_bc, dtype=np.float64) @ np.asarray(r_ab, dtype=np.float64)
    off = (np.swapaxes(r, 1, 2) @ r - np.eye(3)).reshape(-1, 9)
    drift = np.sqrt(row_dots(off, off))
    for i in np.flatnonzero(drift > _RENORM_TRIGGER):
        r[i] = nearest_rotation(r[i])
    return r


def invert(h: RigidTransform) -> RigidTransform:
    """Analytic SE(3) inverse (R^T, -R^T t) with swapped frame tags."""
    rt = h.rotation.T
    return RigidTransform(rt, -(rt @ h.translation), source=h.dest, dest=h.source)


def transform_gap(a: RigidTransform, b: RigidTransform) -> tuple[float, float]:
    """Distance between two transforms: translation gap (mm) and geodesic
    rotation gap (rad)."""
    return (
        float(np.linalg.norm(a.translation - b.translation)),
        rotation_distance(a.rotation, b.rotation),
    )


def apply(h: RigidTransform, p: Sequence[float] | Array, frame: str | None = None) -> Array:
    """Transform points into the destination frame.

    Accepts a 3-vector, a 4-vector with unit homogeneous coordinate, or (N, 3)
    and (N, 4) stacks thereof; the output matches the input shape and any
    homogeneous coordinate is exactly 1. Passing ``frame`` asserts the points'
    frame against the transform source.

    Raises:
        FrameMismatch: if ``frame`` is given and differs from ``h.source``.
    """
    if frame is not None and frame != h.source:
        raise FrameMismatch(f"apply: point frame {frame!r} != transform source {h.source!r}")
    p = np.asarray(p, dtype=np.float64)
    squeeze = p.ndim == 1
    pts = np.atleast_2d(p)
    if pts.shape[1] == 4:
        if np.max(np.abs(pts[:, 3] - 1.0)) > 1e-12:
            raise ValueError("homogeneous points must have w == 1")
        out = pts.copy()
        out[:, :3] = pts[:, :3] @ h.rotation.T + h.translation
        out[:, 3] = 1.0
    elif pts.shape[1] == 3:
        out = pts @ h.rotation.T + h.translation
    else:
        raise ValueError(f"points must be 3- or 4-vectors, got shape {p.shape}")
    return out[0] if squeeze else out


# --- rigid point-set registration ------------------------------------------


class Registration(NamedTuple):
    """Least-squares rigid alignment and its residual RMS (mm)."""

    transform: RigidTransform
    rms_mm: float


def _rank2_check(pts: Array, label: str) -> None:
    # A well-posed rotation needs planar spread: the second singular value of
    # the centered set must clear the collinearity threshold. (The third is
    # identically zero for any 3-point or coplanar set; only rank < 2 is
    # degenerate.)
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= 1e-6:
        raise DegenerateConfiguration(
            f"register_points: {label} points collinear or coincident "
            f"(spread singular value {sv[1]:.3e} mm)"
        )


def register_points(
    source: Sequence[Sequence[float]] | Array,
    target: Sequence[Sequence[float]] | Array,
    source_frame: str = "src",
    target_frame: str = "dst",
) -> Registration:
    """Least-squares rigid alignment H minimizing sum ||target_i - H source_i||^2.

    SVD-based (Kabsch) solution without scale, determinant-corrected to stay in
    SO(3); n >= 3 points, uniformly weighted.

    Raises:
        LengthMismatch: unequal list lengths.
        DegenerateConfiguration: fewer than 3 points, or collinear/coincident
            source or target points.
    """
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 3 or dst.ndim != 2 or dst.shape[1] != 3:
        raise ValueError("point lists must have shape (n, 3)")
    if src.shape[0] != dst.shape[0]:
        raise LengthMismatch(
            f"register_points: {src.shape[0]} source vs {dst.shape[0]} target points"
        )
    if src.shape[0] < 3:
        raise DegenerateConfiguration(
            f"register_points: need at least 3 points, got {src.shape[0]}"
        )
    _rank2_check(src, "source")
    _rank2_check(dst, "target")

    src_mean = src.mean(axis=0)
    dst_mean = dst.mean(axis=0)
    h = (src - src_mean).T @ (dst - dst_mean)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    r = nearest_rotation(r)
    t = dst_mean - r @ src_mean

    transform = RigidTransform(r, t, source=source_frame, dest=target_frame)
    residuals = dst - (src @ r.T + t)
    rms = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    return Registration(transform, rms)


def chordal_mean(rotations: Sequence[Array]) -> Array:
    """Chordal mean of rotations: nearest SO(3) to the arithmetic matrix mean."""
    if not rotations:
        raise ValueError("chordal_mean: need at least one rotation")
    m = np.mean([np.asarray(r, dtype=np.float64) for r in rotations], axis=0)
    return nearest_rotation(m)
