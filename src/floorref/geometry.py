"""Exact SE(3)/SO(3) algebra and rigid point-set registration.

Conventions
-----------
A transform with tags ``(source="a", dest="b")`` maps a-frame coordinates into
b-frame coordinates. Points are millimeter 3-vectors, or (n, 3) stacks of
them; ``apply`` takes nothing else. All values are immutable: the wrapped
arrays are marked read-only and every operation returns a new value.

Validation
----------
A ``RigidTransform`` is checked where a rotation enters the library: the
public constructor (and so ``from_matrix`` and the schema decoders)
requires rotation entries within 1 + 1e-9 in magnitude (so finite),
|R^T R - I|_F and |det R - 1| within 1e-9, and a finite 3-vector translation.
``compose`` and ``invert`` build their results without the rotation check: a
product of two such rotations is re-orthonormalised once its drift passes
1e-12, and a transpose of a rotation is a rotation, so the rotation invariant
holds without re-checking every internal product. Their translations are still
checked for finite entries (``ValueError``), since a product of finite values
can overflow.

Re-orthonormalisation
---------------------
``nearest_rotation`` (an SVD) runs only where a matrix can be far from
orthonormal: a rotation estimated from data (the homography's columns, the
chordal mean) or a product whose drift |R^T R - I|_F passes 1e-12. A rotation
orthonormal by construction, to rounding, is used as it is: the Kabsch
product of ``register_points``, the scene basis of the rectification map,
and the image fit's last rotation below that drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateConfiguration, FrameMismatch, LengthMismatch

ROTATION_TOL = 1e-9
MIN_PLANAR_SPREAD_MM = 1e-6
_RENORM_TRIGGER = 1e-12

Array = NDArray[np.float64]

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_FLIP_Z = np.diag([1.0, 1.0, -1.0])  # the Kabsch determinant correction
_FLIP_Z.setflags(write=False)
_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])


def cross3(a: Array, b: Array) -> Array:
    """Cross product of two float64 3-vectors, equal to ``np.cross(a, b)``: the
    same products and differences (a1 b2 - a2 b1, ...), as array operations,
    so overflow and invalid values reach ``np.errstate`` as they do there."""
    return a[_YZX] * b[_ZXY] - a[_ZXY] * b[_YZX]


def norm(v: Array) -> np.float64:
    """Euclidean (for a matrix, Frobenius) norm of a float64 array, equal to
    ``np.linalg.norm(v)``: the square root of the dot product of the
    flattened array with itself, as numpy evaluates it."""
    x = v.ravel(order="K")
    return np.sqrt(x.dot(x))


def as_point3(p: Sequence[float] | Array) -> Array:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"point components must be finite, got {p}")
    return p


def triangle_area(a: Array, b: Array, c: Array) -> float:
    """Area of the triangle with 3D vertices a, b, c (mm^2); inf or nan, with no
    warning, when vertices near the float range overflow it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * float(norm(cross3(b - a, c - a)))


# --- rotations ------------------------------------------------------------


def det3(r: Array) -> float:
    """Determinant of a (3, 3) float64 matrix by the cofactor expansion along
    the first row, on Python floats.

    On a matrix whose entries are at most about 1 in magnitude (a rotation, a
    reflection or a near one) it is within a few ulp of ``np.linalg.det``, so
    its sign and the test |det - 1| > ROTATION_TOL come out as with LAPACK's
    value: a matrix with |R^T R - I|_F <= ROTATION_TOL and det > 0 has
    |det - 1| <= (sqrt(3) / 2) ROTATION_TOL, far inside the bound.
    """
    return _cofactor_det(*r.tolist())


def _cofactor_det(row0: list[float], row1: list[float], row2: list[float]) -> float:
    # det3 of a matrix given as its rows of Python floats
    (a, b, c), (d, e, f), (g, h, i) = row0, row1, row2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


_ENTRY_BOUND = 1.0 + ROTATION_TOL


def validate_rotation(r: Array) -> None:
    """Check orthonormality (Frobenius) and det = +1 within ROTATION_TOL."""
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    # bounded entries (NaN fails too) keep R^T R from overflowing
    rows = r.tolist()
    b = _ENTRY_BOUND
    if not all(-b <= x <= b for x in rows[0] + rows[1] + rows[2]):
        raise ValueError("rotation entries must be finite and within [-1, 1]")
    err = norm(r.T @ r - _EYE3)
    if err > ROTATION_TOL:
        raise ValueError(f"matrix not orthonormal: |R^T R - I|_F = {err:.3e}")
    det = _cofactor_det(*rows)
    if abs(det - 1.0) > ROTATION_TOL:
        raise ValueError(f"matrix not a proper rotation: det = {det!r}")


def nearest_rotation(m: Array) -> Array:
    """Nearest SO(3) element in the Frobenius sense (SVD polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    r = u @ vt
    if det3(r) < 0.0:
        u = u.copy()
        u[:, 2] *= -1.0
        r = u @ vt
    return r


def _renormalized(r: Array) -> Array:
    """A near rotation as it is, or its ``nearest_rotation`` once its drift
    |R^T R - I|_F passes 1e-12: the library's one re-orthonormalisation rule."""
    if norm(r.T @ r - _EYE3) > _RENORM_TRIGGER:
        return nearest_rotation(r)
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
    r[:, 0, 0] = r[:, 1, 1] = list(map(math.cos, angles))
    r[:, 1, 0] = list(map(math.sin, angles))
    r[:, 0, 1] = -r[:, 1, 0]
    r[:, 2, 2] = 1.0
    return r


def rotation_from_rotvec(w: Sequence[float] | Array) -> Array:
    """Rotation exp([w]x) of a rotation vector w (axis times angle in rad), Rodrigues form.

    Below 1e-12 rad the second-order series I + K + K^2/2 replaces the
    division by the angle.
    """
    w = np.asarray(w, dtype=np.float64)
    angle = float(norm(w))
    # the skew matrix from Python floats: w / angle rounds as numpy's division
    x, y, z = w.tolist()
    if angle >= 1e-12:
        x, y, z = x / angle, y / angle, z / angle
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    if angle < 1e-12:
        return _EYE3 + k + 0.5 * (k @ k)
    return _EYE3 + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rotation_about_axis(axis: Sequence[float] | Array, angle_rad: float) -> Array:
    """Rotation by angle_rad about an arbitrary axis (Rodrigues form)."""
    a = as_point3(axis)
    n = norm(a)
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
    return q / norm(q)


def quaternion_to_rotation(q: Sequence[float] | Array) -> Array:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ValueError(f"quaternion must be a 4-vector, got shape {q.shape}")
    with np.errstate(over="ignore"):
        length = float(norm(q))
    if not 0.0 < length < math.inf:
        raise ValueError(f"quaternion norm must be positive and finite, got {length!r}")
    w, x, y, z = q / length
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# --- rigid transforms -----------------------------------------------------


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
        # one copy of each array, checked and frozen in place
        r = np.array(self.rotation, dtype=np.float64)
        t = as_point3(np.array(self.translation, dtype=np.float64))
        validate_rotation(r)
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def from_matrix(cls, m: Array, source: str, dest: str) -> RigidTransform:
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"homogeneous matrix must be 4x4, got {m.shape}")
        # the test np.allclose(m[3], (0, 0, 0, 1), atol=1e-12) makes, written
        # out: |a - b| <= atol + rtol |b| with its default rtol 1e-5; NaN fails
        a, b, c, d = m[3].tolist()
        if not (abs(a) <= 1e-12 and abs(b) <= 1e-12 and abs(c) <= 1e-12 and abs(d - 1.0) <= 1e-12 + 1e-5):
            raise ValueError(f"last row must be (0, 0, 0, 1), got {m[3]}")
        return cls(m[:3, :3], m[:3, 3], source=source, dest=dest)

    @property
    def matrix(self) -> Array:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @classmethod
    def _unchecked(cls, r: Array, t: Array, source: str, dest: str) -> RigidTransform:
        # For rotations that hold the invariant by construction (products and
        # transposes of checked ones): no rotation check and no copies, the
        # arrays are frozen in place. The translation is still checked, since
        # finite inputs can overflow to inf in a product.
        t = as_point3(t)
        r.setflags(write=False)
        t.setflags(write=False)
        h = object.__new__(cls)
        object.__setattr__(h, "rotation", r)
        object.__setattr__(h, "translation", t)
        object.__setattr__(h, "source", source)
        object.__setattr__(h, "dest", dest)
        return h

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
    r = _renormalized(h_bc.rotation @ h_ab.rotation)
    t = h_bc.rotation @ h_ab.translation + h_bc.translation
    return RigidTransform._unchecked(r, t, h_ab.source, h_bc.dest)


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
    off = (np.swapaxes(r, 1, 2) @ r - _EYE3).reshape(-1, 9)
    drift = np.sqrt(row_dots(off, off))
    for i in np.flatnonzero(drift > _RENORM_TRIGGER):
        r[i] = nearest_rotation(r[i])
    return r


def invert(h: RigidTransform) -> RigidTransform:
    """Analytic SE(3) inverse (R^T, -R^T t) with swapped frame tags."""
    rt = h.rotation.T
    return RigidTransform._unchecked(rt, -(rt @ h.translation), h.dest, h.source)


def transform_gap(a: RigidTransform, b: RigidTransform) -> tuple[float, float]:
    """Distance between two transforms: translation gap (mm) and geodesic
    rotation gap (rad). The translation gap is inf, with no warning, when it
    is beyond the float range."""
    with np.errstate(over="ignore"):
        dt = float(norm(a.translation - b.translation))
    return dt, rotation_distance(a.rotation, b.rotation)


def apply(h: RigidTransform, p: Sequence[float] | Array) -> Array:
    """Transform a 3-vector, or an (n, 3) stack of them, into the destination
    frame; the output has the input's shape."""
    p = np.asarray(p, dtype=np.float64)
    pts = np.atleast_2d(p)
    if p.ndim > 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be 3-vectors, got shape {p.shape}")
    out = pts @ h.rotation.T + h.translation
    return out[0] if p.ndim == 1 else out


# --- rigid point-set registration ------------------------------------------


class Registration(NamedTuple):
    """Least-squares rigid alignment and its residual RMS (mm)."""

    transform: RigidTransform
    rms_mm: float


def planar_spread(pts: Array) -> float:
    """Second singular value (mm) of an (n, 2) or (n, 3) point set about its
    mean. At or below MIN_PLANAR_SPREAD_MM the points are collinear or
    coincident and fix no plane: the one collinearity rule of the library."""
    # sum / n: the arithmetic of mean(axis=0) without its dispatch
    return float(np.linalg.svd(pts - pts.sum(axis=0) / len(pts), compute_uv=False)[1])


def register_points(
    source: Sequence[Sequence[float]] | Array,
    target: Sequence[Sequence[float]] | Array,
    source_frame: str,
    target_frame: str,
) -> Registration:
    """Least-squares rigid alignment H minimizing sum ||target_i - H source_i||^2.

    SVD-based (Kabsch) solution without scale, determinant-corrected to stay in
    SO(3); n >= 3 points, uniformly weighted. The rotation is the product
    V diag(1, 1, d) U^T of the SVD's orthogonal factors, orthonormal to
    rounding, and is not re-orthonormalised; the ``RigidTransform`` it
    builds still validates it. The source and target rank checks
    (``planar_spread`` of each) run as one stacked SVD, the source named
    first when both fail.

    Raises:
        ValueError: point lists not of shape (n, 3), or a non-finite source or
            target point.
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
    n = src.shape[0]
    if n < 3:
        raise DegenerateConfiguration(f"register_points: need at least 3 points, got {n}")
    for pts, label in ((src, "source"), (dst, "target")):
        if not np.isfinite(pts).all():
            raise ValueError(f"register_points: need finite {label} points")
    # A well-posed rotation needs planar spread: one SVD of both sets about
    # their means gives the planar_spread of each. (The third singular value
    # is identically zero for any 3-point or coplanar set; only rank < 2 is
    # degenerate.)
    both = np.stack([src, dst])
    means = both.sum(axis=1) / n
    centered = both - means[:, None, :]
    spreads = np.linalg.svd(centered, compute_uv=False)[:, 1].tolist()
    for spread, label in zip(spreads, ("source", "target")):
        if spread <= MIN_PLANAR_SPREAD_MM:
            raise DegenerateConfiguration(
                f"register_points: {label} points collinear or coincident "
                f"(spread singular value {spread:.3e} mm)"
            )

    src_mean, dst_mean = means
    h = centered[0].T @ centered[1]
    u, _, vt = np.linalg.svd(h)
    # V diag(1, 1, d) U^T with d = +-1, the sign of det(V U^T) for an
    # orthogonal product: a rotation to rounding, as validated below
    d = _FLIP_Z if det3(vt.T @ u.T) < 0.0 else _EYE3
    r = vt.T @ d @ u.T
    t = dst_mean - r @ src_mean

    transform = RigidTransform(r, t, source=source_frame, dest=target_frame)
    residuals = dst - (src @ r.T + t)
    rms = math.sqrt((residuals**2).sum(axis=1).sum() / n)
    return Registration(transform, rms)


def chordal_mean(rotations: Sequence[Array]) -> Array:
    """Chordal mean of rotations: nearest SO(3) to the arithmetic matrix mean."""
    if not rotations:
        raise ValueError("chordal_mean: need at least one rotation")
    m = np.mean([np.asarray(r, dtype=np.float64) for r in rotations], axis=0)
    return nearest_rotation(m)
