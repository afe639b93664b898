"""World model: domain bounds, obstacle primitives, voxel occupancy with a
Euclidean distance field, and oriented-bounding-box keep-out hulls.

Everything here is immutable after construction and all queries are pure, so
the same environment can be shared by parallel cost evaluations.

The point queries (``SignedDistanceField.query``, ``OrientedHull.signed_distance``)
take (M, 3) points and never broadcast against, or reduce over, the trailing
axis of 3: numpy runs such an operation as one 3-element inner loop per
point, several times slower. ``query`` works on the per-axis planes
``points.T`` (3, M) in one broadcast pass per step, against (3, 1) per-axis
constants; the optimizer passes its samples as the transpose of contiguous
planes, so those planes are read without a copy. ``signed_distance`` reads
per-axis columns. Sums of squares are spelled ``x*x + y*y + z*z``, the
summation order of ``np.linalg.norm``, and clamps are
``np.minimum(np.maximum(...))``, so the results are bit-identical to the
broadcasting forms. The hull rotation stays one matrix product on C-ordered
(M, 3) points, since a hand-written product, or the product of another
layout, can round differently.

``rasterize`` tests each primitive only on the voxel centres inside its
axis-aligned bounding box grown by one voxel on every side; every centre
outside that window lies outside the primitive, and the one-voxel margin
covers any rounding in the bounds. The window's centres are slices of the
same per-axis coordinates the whole grid would use, and ``contains`` judges
each point on its own, so the occupancy grid, and with it the distance
field, has the same bytes as a test of every centre against every
primitive.

``build_sdf`` asks scipy only for the feature transform (the index of each
voxel's nearest occupied voxel) and turns it into distances one axis at a
time, in place: the index plane minus the voxel's own coordinate, times the
resolution as float64, squared and added into one buffer in axis order 0,
1, 2, then one square root. Those are the operations, in the order,
``ndimage.distance_transform_edt`` applies to the same indices, so the
field keeps scipy's bytes while the build holds about 29 traced bytes per
voxel instead of about 50 (scipy's index grid and (3, ...) float64 copy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import CapacityError, OutOfDomainError, ValidationError

DEFAULT_RESOLUTION = 0.5
DEFAULT_MAX_VOXELS = 20_000_000


def _holds_bool(value) -> bool:
    """Whether ``value`` is or holds a boolean, which numpy would read as 1
    or 0; a JSON true or false is not a number."""
    return any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat)


def _vec3(value, name: str) -> np.ndarray:
    if _holds_bool(value):
        raise ValidationError(f"{name} must be a 3-vector of numbers, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a 3-vector of numbers, got {value!r}") from None
    if arr.shape != (3,):
        raise ValidationError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned planning domain with the speed bound for the vehicle."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    v_max: float

    def __post_init__(self):
        object.__setattr__(self, "min_corner", _vec3(self.min_corner, "min_corner"))
        object.__setattr__(self, "max_corner", _vec3(self.max_corner, "max_corner"))
        if not np.all(self.min_corner < self.max_corner):
            raise ValidationError("domain min_corner must be < max_corner componentwise")
        if not self.v_max > 0:
            raise ValidationError("domain v_max must be > 0")

    @property
    def extent(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.all((pts >= self.min_corner) & (pts <= self.max_corner), axis=-1)


@dataclass(frozen=True)
class BoxObstacle:
    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", _vec3(self.min_corner, "box.min"))
        object.__setattr__(self, "max_corner", _vec3(self.max_corner, "box.max"))
        if not np.all(self.min_corner < self.max_corner):
            raise ValidationError("box obstacle min must be < max componentwise")

    def bounds(self) -> tuple:
        """Lower and upper corner of the axis-aligned box holding the primitive."""
        return self.min_corner, self.max_corner

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.all((pts >= self.min_corner) & (pts <= self.max_corner), axis=-1)


@dataclass(frozen=True)
class SphereObstacle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec3(self.center, "sphere.center"))
        if _holds_bool(self.radius) or not 0 <= self.radius < np.inf:
            raise ValidationError(f"sphere radius must be finite and >= 0, got {self.radius!r}")

    def bounds(self) -> tuple:
        """Lower and upper corner of the axis-aligned box holding the primitive."""
        return self.center - self.radius, self.center + self.radius

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.linalg.norm(pts - self.center, axis=-1) <= self.radius


@dataclass(frozen=True)
class CapsuleObstacle:
    """Segment swept by a sphere; models cables and pylon members."""

    endpoint_a: np.ndarray
    endpoint_b: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "endpoint_a", _vec3(self.endpoint_a, "capsule.a"))
        object.__setattr__(self, "endpoint_b", _vec3(self.endpoint_b, "capsule.b"))
        if _holds_bool(self.radius) or not 0 <= self.radius < np.inf:
            raise ValidationError(f"capsule radius must be finite and >= 0, got {self.radius!r}")

    def bounds(self) -> tuple:
        """Lower and upper corner of the axis-aligned box holding the primitive."""
        lo = np.minimum(self.endpoint_a, self.endpoint_b)
        hi = np.maximum(self.endpoint_a, self.endpoint_b)
        return lo - self.radius, hi + self.radius

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        ab = self.endpoint_b - self.endpoint_a
        denom = float(ab @ ab)
        if denom == 0.0:
            closest = self.endpoint_a
        else:
            t = np.clip((pts - self.endpoint_a) @ ab / denom, 0.0, 1.0)
            closest = self.endpoint_a + t[..., None] * ab
        return np.linalg.norm(pts - closest, axis=-1) <= self.radius


@dataclass(frozen=True)
class OrientedHull:
    """Oriented bounding box around protected infrastructure.

    ``rotation`` maps hull-frame coordinates to world frame (columns are the
    hull's local axes expressed in world coordinates).
    """

    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _vec3(self.center, "hull.center"))
        object.__setattr__(self, "half_extents", _vec3(self.half_extents, "hull.half_extents"))
        if _holds_bool(self.rotation):
            raise ValidationError(f"hull rotation must be a 3x3 matrix of numbers, got {self.rotation!r}")
        rot = np.asarray(self.rotation, dtype=float)
        if rot.shape != (3, 3):
            raise ValidationError("hull rotation must be a 3x3 matrix")
        if not (np.abs(rot.T @ rot - np.eye(3)) <= 1e-9).all():  # False on NaN
            raise ValidationError("hull rotation must be orthonormal within 1e-9")
        object.__setattr__(self, "rotation", rot)
        if not np.all(self.half_extents > 0):
            raise ValidationError("hull half_extents must be > 0")

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed Euclidean distance from points to the hull surface.

        Positive outside, negative inside (depth to the nearest face).
        Accepts any leading shape of points.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 3)
        shifted = np.empty(flat.shape)  # C order, whatever the layout of ``points``
        for k, c in enumerate(self.center.tolist()):
            np.subtract(flat[:, k], c, out=shifted[:, k])
        local = shifted @ self.rotation
        hx, hy, hz = self.half_extents.tolist()
        dx = np.abs(local[:, 0]) - hx
        dy = np.abs(local[:, 1]) - hy
        dz = np.abs(local[:, 2]) - hz
        ox, oy, oz = np.maximum(dx, 0.0), np.maximum(dy, 0.0), np.maximum(dz, 0.0)
        outside = np.sqrt(ox * ox + oy * oy + oz * oz)
        inside = np.minimum(np.maximum(np.maximum(dx, dy), dz), 0.0)
        return (outside + inside).reshape(pts.shape[:-1])


@dataclass(frozen=True)
class SafetyParams:
    """Influence radii and weights for the two-term safety cost."""

    r_sdf_min: float
    r_sdf_max: float
    r_ch_max: float
    k_a: float
    k_b: float
    r_uav: float

    def __post_init__(self):
        problems = []
        if not self.r_sdf_min > 0:
            problems.append("r_sdf_min: must be > 0")
        if not self.r_sdf_max > self.r_sdf_min:
            problems.append("r_sdf_max: must be > r_sdf_min")
        if not self.r_ch_max > 0:
            problems.append("r_ch_max: must be > 0")
        if self.k_a < 0:
            problems.append("k_a: must be >= 0")
        if self.k_b < 0:
            problems.append("k_b: must be >= 0")
        if abs(self.k_a + self.k_b - 1.0) > 1e-9:
            problems.append(f"k_b: must equal 1 - k_a, got k_a + k_b = {self.k_a + self.k_b}")
        if self.r_uav < 0:
            problems.append("r_uav: must be >= 0")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class SignedDistanceField:
    """Voxel grid of Euclidean distances from free space to the nearest
    occupied voxel center. Values are 0 exactly on occupied voxels."""

    origin: np.ndarray
    resolution: float
    dims: tuple
    distance: np.ndarray = field(repr=False)

    def query(self, points: np.ndarray, out_of_range: str = "raise") -> np.ndarray:
        """Trilinear interpolation of the distance grid at world points (M, 3).

        Points within one voxel of the grid border are clamped onto it. A
        point farther out, or with a non-finite coordinate, is out of range:
        ``out_of_range`` is either "raise" (OutOfDomainError) or "nan".
        """
        pts = np.asarray(points, dtype=float)
        axes = np.ascontiguousarray(pts.T)  # (3, M); no copy when ``points`` is a plane view
        res = self.resolution
        nx, ny, nz = self.dims
        low = self.origin[:, None]
        n = np.array(self.dims)[:, None]

        # An in-range test, so that a NaN coordinate fails it.
        good = ((axes >= low - res) & (axes <= low + n * res + res)).all(axis=0)
        bad = None if good.all() else ~good
        if bad is not None:
            if out_of_range == "raise":
                raise OutOfDomainError(
                    f"point {pts[bad][0].tolist()} is not finite or lies outside the "
                    "distance field by more than one voxel"
                )
            # Read the bad rows at the origin; they are set to NaN below.
            axes = np.where(good, axes, low)

        g = np.minimum(np.maximum((axes - low) / res - 0.5, 0.0), n - 1.0)
        corner = np.minimum(np.floor(g).astype(np.intp), np.maximum(n - 2, 0))
        fx, fy, fz = fracs = np.minimum(np.maximum(g - corner, 0.0), 1.0)
        gx, gy, gz = 1 - fracs

        # Flat indices into the C-ordered grid: the lower corner, plus one
        # step per axis to the upper corner (no step on a one-voxel axis).
        ix, iy, iz = corner
        base = (ix * ny + iy) * nz + iz
        sx = ny * nz if nx > 1 else 0
        sy = nz if ny > 1 else 0
        sz = 1 if nz > 1 else 0
        d = self.distance
        c000 = d.take(base)
        c100 = d.take(base + sx)
        c010 = d.take(base + sy)
        c110 = d.take(base + (sx + sy))
        c001 = d.take(base + sz)
        c101 = d.take(base + (sx + sz))
        c011 = d.take(base + (sy + sz))
        c111 = d.take(base + (sx + sy + sz))

        c00 = c000 * gx + c100 * fx
        c10 = c010 * gx + c110 * fx
        c01 = c001 * gx + c101 * fx
        c11 = c011 * gx + c111 * fx
        c0 = c00 * gy + c10 * fy
        c1 = c01 * gy + c11 * fy
        out = c0 * gz + c1 * fz

        if bad is not None:
            out = np.where(bad, np.nan, out)
        return out


def rasterize(obstacles, domain: DomainBox, resolution: float, max_voxels: int) -> tuple:
    """Occupancy grid over the domain: a voxel is occupied iff its center
    lies inside any primitive."""
    if resolution <= 0:
        raise ValidationError("resolution must be > 0")
    # Float counts: a tiny resolution gives inf here, not an int overflow.
    counts = [max(np.ceil(e / float(resolution)), 1.0) for e in domain.extent.tolist()]
    n_voxels = counts[0] * counts[1] * counts[2]
    if n_voxels > max_voxels:
        raise CapacityError(
            f"grid of {n_voxels:.6g} voxels exceeds the budget of {max_voxels}; "
            "raise max_voxels or coarsen the resolution"
        )
    dims = tuple(int(n) for n in counts)
    axes = [domain.min_corner[k] + (np.arange(n) + 0.5) * resolution for k, n in enumerate(dims)]
    occupied = np.zeros(dims, dtype=bool)
    for obs in obstacles:
        lo, hi = obs.bounds()
        window = tuple(
            slice(
                np.searchsorted(axis, lo[k] - resolution, side="left"),
                np.searchsorted(axis, hi[k] + resolution, side="right"),
            )
            for k, axis in enumerate(axes)
        )
        if any(w.start >= w.stop for w in window):
            continue
        gx, gy, gz = np.meshgrid(*(axis[w] for axis, w in zip(axes, window)), indexing="ij")
        inside = obs.contains(np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1))
        occupied[window] |= inside.reshape(gx.shape)
    return occupied, dims


def build_sdf(
    obstacles,
    domain: DomainBox,
    resolution: float = DEFAULT_RESOLUTION,
    max_voxels: int = DEFAULT_MAX_VOXELS,
) -> SignedDistanceField:
    """Rasterize primitives and compute the exact Euclidean distance
    transform of free space to occupied voxel centers.

    scipy's feature transform gives each voxel the index of its nearest
    occupied voxel, one int32 plane per axis; the distance is built from
    those planes one axis at a time, in one float64 buffer. Each step is
    the one ``ndimage.distance_transform_edt`` takes (index minus own
    coordinate, times ``resolution`` as float64, squared, summed in axis
    order 0, 1, 2, square root), so the field has scipy's bytes without
    its full index grid and (3, ...) float64 copy.

    With no obstacles every cell holds a sentinel larger than the domain
    diagonal, so queries read as "infinitely far".
    """
    occupied, dims = rasterize(obstacles, domain, resolution, max_voxels)
    if not occupied.any():
        distance = np.full(dims, 2.0 * domain.diagonal + resolution)
    else:
        nearest = ndimage.distance_transform_edt(
            ~occupied, sampling=resolution, return_distances=False, return_indices=True
        )
        distance = np.zeros(dims)
        step = np.empty(dims)
        for axis, n in enumerate(dims):
            shape = [1, 1, 1]
            shape[axis] = n
            plane = nearest[axis]
            plane -= np.arange(n, dtype=plane.dtype).reshape(shape)
            np.multiply(plane, resolution, out=step, dtype=np.float64)
            step *= step
            distance += step
        np.sqrt(distance, out=distance)
    return SignedDistanceField(
        origin=domain.min_corner.copy(),
        resolution=float(resolution),
        dims=dims,
        distance=distance,
    )


@dataclass(frozen=True)
class Environment:
    """Immutable bundle of everything the cost functions need to know
    about the world."""

    domain: DomainBox
    hulls: tuple
    sdf: SignedDistanceField

    def clearance(self, points: np.ndarray, out_of_range: str = "raise") -> np.ndarray:
        return self.sdf.query(points, out_of_range=out_of_range)


def build_environment(
    domain: DomainBox,
    obstacles=(),
    hulls=(),
    resolution: float = DEFAULT_RESOLUTION,
    max_voxels: int = DEFAULT_MAX_VOXELS,
) -> Environment:
    sdf = build_sdf(obstacles, domain, resolution, max_voxels)
    return Environment(domain=domain, hulls=tuple(hulls), sdf=sdf)
