from __future__ import annotations

import importlib
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from riskplan.environment import (
    BoxObstacle,
    CapsuleObstacle,
    DomainBox,
    OrientedHull,
    SafetyParams,
    SignedDistanceField,
    SphereObstacle,
    build_sdf,
    rasterize,
)
from riskplan.errors import CapacityError, OutOfDomainError, ValidationError
from riskplan.scenario import scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]


def brute_force_distances(occupied: np.ndarray, resolution: float) -> np.ndarray:
    """Oracle: exact minimum distance from every voxel center to the set of
    occupied voxel centers, via integer squared distances."""
    dims = occupied.shape
    occ_idx = np.argwhere(occupied)
    out = np.zeros(dims)
    if len(occ_idx) == 0:
        return out
    for idx in np.ndindex(dims):
        delta = occ_idx - np.asarray(idx)
        sq = np.min(np.sum(delta * delta, axis=1))
        out[idx] = np.sqrt(float(sq)) * resolution
    return out


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestDomainAndPrimitives:
    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            DomainBox(min_corner=[0, 0, 0], max_corner=[0, 1, 1], v_max=1.0)
        with pytest.raises(ValidationError):
            DomainBox(min_corner=[0, 0, 0], max_corner=[1, 1, 1], v_max=0.0)

    def test_capsule_contains(self):
        cap = CapsuleObstacle(endpoint_a=[0, 0, 0], endpoint_b=[10, 0, 0], radius=1.0)
        assert cap.contains(np.array([5.0, 0.5, 0.0]))
        assert cap.contains(np.array([-0.5, 0.0, 0.0]))  # end cap
        assert not cap.contains(np.array([5.0, 1.5, 0.0]))
        assert not cap.contains(np.array([12.0, 0.0, 0.0]))

    def test_sphere_contains(self):
        sph = SphereObstacle(center=[1, 1, 1], radius=0.5)
        assert sph.contains(np.array([1.0, 1.25, 1.0]))
        assert not sph.contains(np.array([1.0, 1.75, 1.0]))

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -1.0])
    def test_radius_must_be_finite_and_non_negative(self, radius):
        with pytest.raises(ValidationError, match="sphere radius must be finite and >= 0"):
            SphereObstacle(center=[1, 1, 1], radius=radius)
        with pytest.raises(ValidationError, match="capsule radius must be finite and >= 0"):
            CapsuleObstacle(endpoint_a=[0, 0, 0], endpoint_b=[1, 0, 0], radius=radius)

    def test_zero_radius_accepted(self):
        assert SphereObstacle(center=[1, 1, 1], radius=0.0).contains(np.ones(3))
        cap = CapsuleObstacle(endpoint_a=[0, 0, 0], endpoint_b=[1, 0, 0], radius=0.0)
        assert cap.contains(np.array([0.5, 0.0, 0.0]))


class TestBuildSdf:
    def test_unit_box_distance(self):
        # Unit box centered in a 10 m empty domain: a voxel 2 m from the
        # face reports its brute-force point-to-box-voxel distance.
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[10, 10, 10], v_max=1.0)
        box = BoxObstacle(min_corner=[4.5, 4.5, 4.5], max_corner=[5.5, 5.5, 5.5])
        sdf = build_sdf([box], domain, resolution=0.5)
        # Occupied voxel centers fill [4.75, 5.25]^3; probing along -x from
        # the face at x=4.5, the point 2 m out sits at x=2.5.
        d = sdf.query(np.array([[2.5, 5.25, 5.25]]))[0]
        assert d == pytest.approx(4.75 - 2.5, abs=0.5)

    def test_empty_world_is_sentinel(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[10, 10, 10], v_max=1.0)
        sdf = build_sdf([], domain, resolution=0.5)
        sentinel = 2.0 * domain.diagonal + 0.5
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.5, 9.5, size=(50, 3))
        values = sdf.query(pts)
        assert np.all(values > domain.diagonal)
        assert np.allclose(values, sentinel, rtol=1e-12)

    def test_inside_box_is_zero(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[10, 10, 10], v_max=1.0)
        box = BoxObstacle(min_corner=[4, 4, 4], max_corner=[6, 6, 6])
        sdf = build_sdf([box], domain, resolution=0.5)
        assert sdf.query(np.array([[5.25, 5.25, 5.25]]))[0] == 0.0

    def test_capacity_error(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[10, 10, 10], v_max=1.0)
        with pytest.raises(CapacityError):
            build_sdf([], domain, resolution=0.01, max_voxels=100_000)

    @pytest.mark.parametrize("resolution", [1e-12, 5e-324])
    def test_capacity_error_at_tiny_resolution(self, resolution):
        # 1e-12 wraps an int64 voxel count; 5e-324 makes each count infinite.
        # Both are over any budget and must be refused before allocating.
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[24, 16, 8], v_max=1.0)
        with pytest.raises(CapacityError):
            build_sdf([], domain, resolution=resolution)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distance_transform_matches_brute_force(self, seed):
        # Exact equality against the oracle on random occupancy up to 32^3.
        rng = np.random.default_rng(seed)
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[8, 8, 8], v_max=1.0)
        resolution = 0.5  # 16^3 grid
        n_spheres = rng.integers(1, 4)
        obstacles = [
            SphereObstacle(center=rng.uniform(1, 7, 3), radius=rng.uniform(0.5, 1.5))
            for _ in range(n_spheres)
        ]
        sdf = build_sdf(obstacles, domain, resolution=resolution)
        occupied, dims = rasterize(obstacles, domain, resolution, 10**7)
        oracle = brute_force_distances(occupied, resolution)
        centers = np.argwhere(np.ones(dims, dtype=bool))
        world = domain.min_corner + (centers + 0.5) * resolution
        got = sdf.query(world)
        # Compare integer squared voxel distances for exactness.
        got_sq = np.round((got / resolution) ** 2).astype(int)
        want_sq = np.round((oracle.reshape(-1) / resolution) ** 2).astype(int)
        assert np.array_equal(got_sq, want_sq)
        assert np.allclose(got, oracle.reshape(-1), atol=1e-9)


class TestFieldBytes:
    """``build_sdf`` turns scipy's feature transform into distances one axis
    at a time; the field must be scipy's distance transform byte for byte,
    built in a fraction of scipy's memory."""

    @staticmethod
    def world(rng, resolution, thin_axis=None):
        extent = rng.uniform(2.0, 9.0, 3)
        if thin_axis is not None:
            extent[thin_axis] = rng.uniform(0.2, 0.9) * resolution
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=extent, v_max=1.0)
        # A box reaching one voxel either side of a point in the domain
        # holds a voxel centre, so the grid is never empty.
        lo = rng.uniform(0, extent)
        obstacles = [BoxObstacle(min_corner=lo - resolution, max_corner=lo + resolution)]
        obstacles += [
            SphereObstacle(center=rng.uniform(0, extent), radius=rng.uniform(0.2, 1.5))
            for _ in range(rng.integers(1, 5))
        ]
        return domain, obstacles

    @staticmethod
    def assert_scipy_bytes(obstacles, domain, resolution):
        occupied, _ = rasterize(obstacles, domain, resolution, 10**7)
        want = ndimage.distance_transform_edt(~occupied, sampling=resolution)
        got = build_sdf(obstacles, domain, resolution).distance
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return occupied

    @pytest.mark.parametrize("resolution", [0.5, 0.3, 0.37, 1.1])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_worlds_match_scipy(self, resolution, seed):
        rng = np.random.default_rng(seed)
        domain, obstacles = self.world(rng, resolution)
        occupied = self.assert_scipy_bytes(obstacles, domain, resolution)
        assert occupied.any() and not occupied.all()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("resolution", [0.5, 0.37, 1.1])
    def test_one_voxel_axis_matches_scipy(self, axis, resolution):
        rng = np.random.default_rng(10 + axis)
        domain, obstacles = self.world(rng, resolution, thin_axis=axis)
        occupied = self.assert_scipy_bytes(obstacles, domain, resolution)
        assert occupied.shape[axis] == 1 and occupied.any()

    @pytest.mark.parametrize("resolution", [0.5, 0.3])
    def test_fully_occupied_grid_matches_scipy(self, resolution):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[3, 2, 1.5], v_max=1.0)
        box = BoxObstacle(min_corner=[-1, -1, -1], max_corner=[4, 3, 2.5])
        occupied = self.assert_scipy_bytes([box], domain, resolution)
        assert occupied.all()

    def test_build_peak_memory_per_voxel(self):
        # scipy's own distances hold about 50 traced bytes per voxel (its
        # index grid and a (3, ...) float64 copy); the per-axis build about 29.
        rng = np.random.default_rng(7)
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[60, 40, 16], v_max=1.0)
        obstacles = [
            BoxObstacle(min_corner=(lo := rng.uniform([0, 0, 0], [55, 35, 10])),
                        max_corner=lo + rng.uniform(1.0, 5.0, 3))
            for _ in range(20)
        ] + [
            SphereObstacle(center=rng.uniform([0, 0, 0], [60, 40, 16]), radius=rng.uniform(0.5, 2.0))
            for _ in range(10)
        ]
        build_sdf(obstacles, domain, 0.5)  # first call outside the trace
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sdf = build_sdf(obstacles, domain, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert sdf.dims == (120, 80, 32)
        assert peak / sdf.distance.size < 36


def reference_rasterize(obstacles, domain: DomainBox, resolution: float) -> np.ndarray:
    """Every voxel centre tested against every primitive: the occupancy the
    bounding-box windows of ``rasterize`` must reproduce byte for byte."""
    dims = tuple(max(int(np.ceil(e / resolution)), 1) for e in domain.extent)
    axes = [domain.min_corner[k] + (np.arange(dims[k]) + 0.5) * resolution for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    occupied = np.zeros(dims, dtype=bool)
    for obs in obstacles:
        occupied |= obs.contains(centers).reshape(dims)
    return occupied


def random_world(rng: np.random.Generator) -> tuple:
    """A small domain near the origin, often one voxel thick on an axis, and
    primitives of every type that straddle it, lie outside it, are
    degenerate, or put a box face or a sphere or capsule surface exactly on
    voxel centres."""
    resolution = rng.uniform(0.2, 0.6)
    extent = rng.uniform(0.5, 4.0, 3)
    if rng.random() < 0.3:
        extent[rng.integers(3)] = rng.uniform(0.2, 1.0) * resolution
    origin = rng.uniform(-3.0, 3.0, 3)
    domain = DomainBox(min_corner=origin, max_corner=origin + extent, v_max=1.0)
    dims = [max(int(np.ceil(e / resolution)), 1) for e in domain.extent]
    axes = [origin[k] + (np.arange(dims[k]) + 0.5) * resolution for k in range(3)]

    def centre():
        return np.array([axis[rng.integers(len(axis))] for axis in axes])

    def point():  # anywhere within 2 m of the domain
        return rng.uniform(origin - 2.0, origin + extent + 2.0)

    def on_centre_surface():
        # A centre ``v`` and a point ``c`` that differs from it on axis
        # ``k`` only, so that |v - c| is exactly |v[k] - c[k]|.
        v, k = centre(), rng.integers(3)
        c = v.copy()
        c[k] += rng.uniform(-2.0, 2.0)
        return c, abs(v[k] - c[k]), k

    def centre_box():
        lo, hi = np.empty(3), np.empty(3)
        for k, axis in enumerate(axes):
            i = rng.integers(len(axis))
            j = i + rng.integers(1, 4)
            lo[k] = axis[i]
            hi[k] = axis[j] if j < len(axis) else axis[i] + rng.uniform(0.1, 2.0)
        return BoxObstacle(min_corner=lo, max_corner=hi)

    def surface_sphere():
        c, r, _ = on_centre_surface()
        return SphereObstacle(center=c, radius=r)

    def surface_capsule():
        # A segment parallel to an axis other than the offset's ``k``,
        # spanning the centre's coordinate on it.
        a, r, k = on_centre_surface()
        m = (k + rng.integers(1, 3)) % 3
        a[m] -= rng.uniform(0.0, 2.0)
        b = a.copy()
        b[m] += rng.uniform(2.0, 4.0)
        return CapsuleObstacle(endpoint_a=a, endpoint_b=b, radius=r)

    def centre_segment():
        a = centre()
        b = a.copy()
        m = rng.integers(3)
        b[m] = axes[m][rng.integers(len(axes[m]))]
        return CapsuleObstacle(endpoint_a=a, endpoint_b=b, radius=0.0)

    makers = [
        lambda: BoxObstacle(min_corner=(lo := point()), max_corner=lo + rng.uniform(0.05, 3.0, 3)),
        centre_box,
        lambda: SphereObstacle(center=point(), radius=rng.uniform(0.0, 2.0)),
        lambda: SphereObstacle(center=centre(), radius=0.0),
        surface_sphere,
        lambda: CapsuleObstacle(
            endpoint_a=(a := point()), endpoint_b=a + rng.uniform(-3.0, 3.0, 3),
            radius=rng.uniform(0.0, 1.0),
        ),
        lambda: CapsuleObstacle(endpoint_a=(a := point()), endpoint_b=a, radius=rng.uniform(0, 1)),
        surface_capsule,
        centre_segment,
    ]
    obstacles = [makers[i]() for i in rng.integers(len(makers), size=12)]
    return domain, resolution, obstacles


class TestWindowedRasterize:
    """``rasterize`` tests each primitive only inside its grown bounding box;
    the occupancy must equal the every-centre reference exactly."""

    def test_random_worlds_match_reference(self):
        rng = np.random.default_rng(20)
        thin = outside = 0
        for _ in range(150):
            domain, resolution, obstacles = random_world(rng)
            occupied, dims = rasterize(obstacles, domain, resolution, 10**6)
            assert np.array_equal(occupied, reference_rasterize(obstacles, domain, resolution))
            thin += min(dims) == 1
            for obs in obstacles:
                lo, hi = obs.bounds()
                outside += bool(np.any((hi < domain.min_corner) | (lo > domain.max_corner)))
        # The worlds cover one-voxel axes and primitives wholly outside.
        assert thin >= 10 and outside >= 10

    @pytest.mark.parametrize("world", [7, 8, 9])
    def test_city_worlds_match_reference(self, world):
        perfbench = str(ROOT / "perfbench")
        sys.path.insert(0, perfbench)
        try:
            city = importlib.import_module("city")
        finally:
            sys.path.remove(perfbench)
        data, _ = city.city_scenario(world)
        scn = scenario_from_dict(data, base_dir=ROOT / "scenarios")
        occupied, _ = rasterize(scn.obstacles, scn.domain, scn.resolution, scn.max_voxels)
        want = reference_rasterize(scn.obstacles, scn.domain, scn.resolution)
        assert want.any()
        assert np.array_equal(occupied, want)


class TestQueryDistance:
    def test_occupied_center_is_zero(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[4, 4, 4], v_max=1.0)
        box = BoxObstacle(min_corner=[1.6, 1.6, 1.6], max_corner=[2.4, 2.4, 2.4])
        sdf = build_sdf([box], domain, resolution=0.5)
        assert sdf.query(np.array([[2.25, 2.25, 2.25]]))[0] == 0.0

    def test_midpoint_interpolation(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[4, 1, 1], v_max=1.0)
        box = BoxObstacle(min_corner=[0.0, 0.0, 0.0], max_corner=[0.5, 0.5, 0.5])
        sdf = build_sdf([box], domain, resolution=0.5)
        # Along x the grid holds 0, 0.5, 1.0, ...; halfway between the
        # voxels valued 1.0 and 2.0 the interpolation reads 1.5.
        x_voxel_1 = 0.25 + 2 * 0.5  # center with value 1.0
        d = sdf.query(np.array([[x_voxel_1 + 0.25, 0.25, 0.25]]))[0]
        assert d == pytest.approx(1.25, abs=1e-12)

    def test_against_analytic_sphere(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[16, 16, 16], v_max=1.0)
        center, radius = np.array([8.0, 8.0, 8.0]), 3.0
        resolution = 0.5
        sdf = build_sdf([SphereObstacle(center=center, radius=radius)], domain, resolution)
        rng = np.random.default_rng(3)
        pts = rng.uniform(1, 15, size=(300, 3))
        analytic = np.linalg.norm(pts - center, axis=1) - radius
        outside = analytic > resolution  # skip points at/inside the surface
        got = sdf.query(pts[outside])
        assert np.all(np.abs(got - analytic[outside]) <= resolution)

    def test_out_of_domain_raises(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[4, 4, 4], v_max=1.0)
        sdf = build_sdf([SphereObstacle(center=[2, 2, 2], radius=0.5)], domain, 0.5)
        with pytest.raises(OutOfDomainError):
            sdf.query(np.array([[10.0, 2.0, 2.0]]))
        # Within one voxel of the border: clamped, no error.
        sdf.query(np.array([[4.3, 2.0, 2.0]]))

    def test_interpolation_is_nearly_lipschitz(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[12, 12, 12], v_max=1.0)
        resolution = 0.5
        sdf = build_sdf([SphereObstacle(center=[6, 6, 6], radius=2.0)], domain, resolution)
        rng = np.random.default_rng(5)
        for _ in range(50):
            origin = rng.uniform(1, 11, 3)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            steps = np.linspace(0, 1.0, 21)
            pts = origin + steps[:, None] * direction
            pts = np.clip(pts, 0.1, 11.9)
            values = sdf.query(pts)
            deltas = np.abs(np.diff(values))
            step_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            assert np.all(deltas <= step_len + resolution)


class TestOrientedHull:
    def test_axis_aligned_outside(self):
        hull = OrientedHull(center=[0, 0, 0], half_extents=[1, 1, 1], rotation=np.eye(3))
        assert hull.signed_distance(np.array([[3.0, 0, 0]]))[0] == pytest.approx(2.0)

    def test_inside_depth(self):
        hull = OrientedHull(center=[0, 0, 0], half_extents=[1, 1, 1], rotation=np.eye(3))
        assert hull.signed_distance(np.zeros((1, 3)))[0] == pytest.approx(-1.0)

    def test_rotated_hull(self):
        hull = OrientedHull(
            center=[0, 0, 0], half_extents=[2, 1, 1], rotation=rotation_z(np.pi / 2)
        )
        # The long axis now points along world y; (0, 3, 0) is 1 m past it.
        d = hull.signed_distance(np.array([[0.0, 3, 0]]))[0]
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_corner_distance(self):
        hull = OrientedHull(center=[0, 0, 0], half_extents=[1, 1, 1], rotation=np.eye(3))
        assert hull.signed_distance(np.array([[2.0, 2, 2]]))[0] == pytest.approx(np.sqrt(3.0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rigid_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        hull = OrientedHull(
            center=rng.uniform(-5, 5, 3),
            half_extents=rng.uniform(0.2, 3.0, 3),
            rotation=random_rotation(rng),
        )
        point = rng.uniform(-8, 8, 3)
        q = random_rotation(rng)
        t = rng.uniform(-10, 10, 3)
        moved = OrientedHull(
            center=q @ hull.center + t,
            half_extents=hull.half_extents,
            rotation=q @ hull.rotation,
        )
        d0 = hull.signed_distance(point[None])[0]
        d1 = moved.signed_distance((q @ point + t)[None])[0]
        assert d1 == pytest.approx(d0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sign_matches_containment(self, seed):
        rng = np.random.default_rng(seed)
        rot = random_rotation(rng)
        hull = OrientedHull(
            center=rng.uniform(-2, 2, 3), half_extents=rng.uniform(0.3, 2.0, 3), rotation=rot
        )
        point = rng.uniform(-4, 4, 3)
        local = rot.T @ (point - hull.center)
        inside = bool(np.all(np.abs(local) <= hull.half_extents))
        assert (hull.signed_distance(point[None])[0] <= 0) == inside

    def test_rotation_validation(self):
        with pytest.raises(ValidationError):
            OrientedHull(center=[0, 0, 0], half_extents=[1, 1, 1], rotation=np.ones((3, 3)))

    def test_rotation_check_matches_allclose(self):
        # Reference: np.allclose(R^T R, I, rtol=0, atol=1e-9), on rotations
        # perturbed across the tolerance, scaled ones, and NaN or inf entries.
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(40):
            rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            cases.append(rot + rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-12, -8))
        cases += [np.eye(3) * 1.01, np.zeros((3, 3)), np.ones((3, 3))]
        for bad in (np.nan, np.inf, -np.inf):
            rot = np.eye(3)
            rot[1, 2] = bad
            cases.append(rot)
        outcomes = set()
        for rot in cases:
            with np.errstate(invalid="ignore"):
                expected = np.allclose(rot.T @ rot, np.eye(3), rtol=0.0, atol=1e-9)
            try:
                with np.errstate(invalid="ignore"):
                    OrientedHull(center=[0, 0, 0], half_extents=[1, 1, 1], rotation=rot)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == expected
            outcomes.add(accepted)
        assert outcomes == {True, False}

    def test_rotation_tolerance_is_absolute(self):
        # R^T R is 8e-6 off the identity: inside numpy's default relative
        # tolerance of 1e-5, far outside the 1e-9 the check promises.
        with pytest.raises(ValidationError, match="orthonormal within 1e-9"):
            OrientedHull(
                center=[0, 0, 0], half_extents=[1, 1, 1], rotation=np.diag([1 + 4e-6, 1, 1])
            )


class TestSafetyParams:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValidationError, match="k_b: must equal 1 - k_a"):
            SafetyParams(r_sdf_min=1, r_sdf_max=5, r_ch_max=2, k_a=0.7, k_b=0.5, r_uav=0.5)

    def test_radius_order_enforced(self):
        with pytest.raises(ValidationError, match="r_sdf_max: must be > r_sdf_min"):
            SafetyParams(r_sdf_min=5, r_sdf_max=1, r_ch_max=2, k_a=0.5, k_b=0.5, r_uav=0.5)


# --- per-axis kernels against their broadcasting reference forms ------------


def reference_query(sdf: SignedDistanceField, points: np.ndarray) -> np.ndarray:
    """Trilinear query written with (M, 3) broadcasting; NaN out of range."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    res = sdf.resolution
    dims = np.asarray(sdf.dims)
    upper = sdf.origin + dims * res
    bad = np.any((pts < sdf.origin - res) | (pts > upper + res), axis=-1)
    g = (pts - sdf.origin) / res - 0.5
    g = np.clip(g, 0.0, dims - 1.0)
    i0 = np.minimum(np.floor(g).astype(int), np.maximum(dims - 2, 0))
    frac = np.clip(g - i0, 0.0, 1.0)
    i1 = np.minimum(i0 + 1, dims - 1)
    d = sdf.distance
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
    x1, y1, z1 = i1[:, 0], i1[:, 1], i1[:, 2]
    c00 = d[x0, y0, z0] * (1 - fx) + d[x1, y0, z0] * fx
    c10 = d[x0, y1, z0] * (1 - fx) + d[x1, y1, z0] * fx
    c01 = d[x0, y0, z1] * (1 - fx) + d[x1, y0, z1] * fx
    c11 = d[x0, y1, z1] * (1 - fx) + d[x1, y1, z1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz
    return np.where(bad, np.nan, out)


def reference_hull_distance(hull: OrientedHull, points: np.ndarray) -> np.ndarray:
    """Hull signed distance written with broadcasting over the last axis."""
    local = (np.asarray(points, dtype=float) - hull.center) @ hull.rotation
    d = np.abs(local) - hull.half_extents
    outside = np.linalg.norm(np.maximum(d, 0.0), axis=-1)
    inside = np.minimum(np.max(d, axis=-1), 0.0)
    return outside + inside


def random_field(rng, dims, resolution=0.37) -> SignedDistanceField:
    return SignedDistanceField(
        origin=rng.uniform(-3, 3, 3),
        resolution=resolution,
        dims=tuple(dims),
        distance=rng.uniform(0, 5, dims),
    )


def border_points(sdf: SignedDistanceField) -> np.ndarray:
    """Every combination of the per-axis landmarks: the one-voxel margin,
    the grid faces, the first and last voxel centres and just past the
    margin."""
    res = sdf.resolution
    per_axis = []
    for k in range(3):
        lo = sdf.origin[k]
        hi = lo + sdf.dims[k] * res
        per_axis.append(
            [lo - res - 1e-9, lo - res, lo, lo + res / 2, hi - res / 2, hi, hi + res,
             hi + res + 1e-9]
        )
    grid = np.meshgrid(*per_axis, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


class TestPerAxisKernels:
    @pytest.mark.parametrize("dims", [(7, 5, 4), (6, 1, 5), (1, 4, 3), (2, 2, 1)])
    def test_query_matches_broadcast_reference(self, dims):
        rng = np.random.default_rng(sum(dims))
        sdf = random_field(rng, dims)
        res = sdf.resolution
        upper = sdf.origin + np.asarray(dims) * res
        # Spread to two voxels past every face, so some points are outside
        # the field by more than one voxel.
        pts = rng.uniform(sdf.origin - 2 * res, upper + 2 * res, (500, 3))
        pts = np.vstack([pts, border_points(sdf)])
        want = reference_query(sdf, pts)
        assert np.isnan(want).any() and np.isfinite(want).any()
        assert np.array_equal(sdf.query(pts, out_of_range="nan"), want, equal_nan=True)
        inside = np.isfinite(want)
        assert np.array_equal(sdf.query(pts[inside]), want[inside])
        with pytest.raises(OutOfDomainError):
            sdf.query(pts)

    def test_query_on_built_field_matches_reference(self):
        domain = DomainBox(min_corner=[0, 0, 0], max_corner=[12, 9, 6], v_max=1.0)
        sdf = build_sdf([SphereObstacle(center=[6, 4, 3], radius=1.5)], domain, 0.5)
        pts = np.random.default_rng(2).uniform(-1, 13, (2000, 3))
        want = reference_query(sdf, pts)
        assert np.array_equal(sdf.query(pts, out_of_range="nan"), want, equal_nan=True)

    @pytest.mark.parametrize("rotated", [False, True], ids=["axis-aligned", "rotated"])
    def test_hull_matches_broadcast_reference(self, rotated):
        rng = np.random.default_rng(5)
        for _ in range(20):
            hull = OrientedHull(
                center=rng.uniform(-3, 3, 3),
                half_extents=rng.uniform(0.2, 3.0, 3),
                rotation=random_rotation(rng) if rotated else np.eye(3),
            )
            pts = hull.center + rng.uniform(-6, 6, (400, 3))
            # Points on faces, edges and corners, and the centre itself.
            signs = rng.choice([-1.0, 0.0, 1.0], (100, 3))
            on_box = hull.center + (signs * hull.half_extents) @ hull.rotation.T
            pts = np.vstack([pts, on_box, hull.center])
            assert np.array_equal(hull.signed_distance(pts), reference_hull_distance(hull, pts))
            stacked = pts[:400].reshape(8, 50, 3)
            got = hull.signed_distance(stacked)
            assert got.shape == (8, 50)
            assert np.array_equal(got, reference_hull_distance(hull, stacked))
            assert np.array_equal(
                hull.signed_distance(pts[0]), reference_hull_distance(hull, pts[0])
            )


def per_column_query(sdf: SignedDistanceField, points: np.ndarray, out_of_range="raise"):
    """The query as it was before the plane layout: three per-axis column
    passes and ``1 - f`` spelled out at every use."""
    pts = np.asarray(points, dtype=float)
    res = sdf.resolution
    nx, ny, nz = sdf.dims
    lows = sdf.origin.tolist()
    good = None
    for k, (n, lo) in enumerate(zip(sdf.dims, lows)):
        x = pts[:, k]
        inside = (x >= lo - res) & (x <= lo + n * res + res)
        good = inside if good is None else good & inside
    bad = None if good.all() else ~good
    if bad is not None:
        if out_of_range == "raise":
            raise OutOfDomainError(
                f"point {pts[bad][0].tolist()} is not finite or lies outside the "
                "distance field by more than one voxel"
            )
        pts = np.where(good[:, None], pts, sdf.origin)
    corner, fracs = [], []
    for k, (n, lo) in enumerate(zip(sdf.dims, lows)):
        g = np.minimum(np.maximum((pts[:, k] - lo) / res - 0.5, 0.0), n - 1.0)
        i0 = np.minimum(np.floor(g).astype(np.intp), max(n - 2, 0))
        corner.append(i0)
        fracs.append(np.minimum(np.maximum(g - i0, 0.0), 1.0))
    ix, iy, iz = corner
    base = (ix * ny + iy) * nz + iz
    sx = ny * nz if nx > 1 else 0
    sy = nz if ny > 1 else 0
    sz = 1 if nz > 1 else 0
    d = sdf.distance
    fx, fy, fz = fracs
    c00 = d.take(base) * (1 - fx) + d.take(base + sx) * fx
    c10 = d.take(base + sy) * (1 - fx) + d.take(base + (sx + sy)) * fx
    c01 = d.take(base + sz) * (1 - fx) + d.take(base + (sx + sz)) * fx
    c11 = d.take(base + (sy + sz)) * (1 - fx) + d.take(base + (sx + sy + sz)) * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz
    return out if bad is None else np.where(bad, np.nan, out)


class TestPlaneQuery:
    """The one-pass query over (3, M) planes keeps every bit of the per-column form."""

    @pytest.mark.parametrize("dims", [(48, 32, 16), (7, 5, 4), (6, 1, 5), (1, 4, 3), (1, 1, 1)])
    def test_matches_per_column_form(self, dims):
        rng = np.random.default_rng(sum(dims) + 100)
        sdf = random_field(rng, dims)
        res = sdf.resolution
        upper = sdf.origin + np.asarray(dims) * res
        inside = rng.uniform(sdf.origin - res, upper + res, (3000, 3))
        outside = rng.uniform(sdf.origin - 3 * res, upper + 3 * res, (600, 3))
        pts = np.vstack([inside, outside, border_points(sdf)])
        pts[rng.random(pts.shape) < 0.01] = np.nan
        pts[-1] = [np.inf, -np.inf, np.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = per_column_query(sdf, pts, "nan")
            assert np.isnan(want).any() and np.isfinite(want).any()
            assert np.array_equal(sdf.query(pts, out_of_range="nan"), want, equal_nan=True)
            # A plane view (the transpose of contiguous (3, M) planes), as
            # the optimizer passes its samples.
            view = np.ascontiguousarray(pts.T).T
            assert np.array_equal(sdf.query(view, out_of_range="nan"), want, equal_nan=True)
            good = np.isfinite(want)
            assert np.array_equal(sdf.query(pts[good]), per_column_query(sdf, pts[good]))
            assert np.array_equal(sdf.query(view[good]), want[good])

    def test_raise_mode_names_the_same_point(self):
        rng = np.random.default_rng(8)
        sdf = random_field(rng, (6, 5, 4))
        pts = rng.uniform(sdf.origin, sdf.origin + 1.0, (50, 3))
        for bad_row in ([np.nan, 0.5, 0.5], [sdf.origin[0] - 5.0, 0.0, 0.0]):
            pts[17] = bad_row
            with pytest.raises(OutOfDomainError) as want:
                per_column_query(sdf, pts)
            with pytest.raises(OutOfDomainError) as got:
                sdf.query(np.ascontiguousarray(pts.T).T)
            assert str(got.value) == str(want.value)


class TestNonFiniteQuery:
    """A point with a NaN coordinate is out of range, like one far outside."""

    CASES = {
        "x": [[np.nan, 3.0, 2.0]],
        "y": [[4.0, np.nan, 2.0]],
        "z": [[4.0, 3.0, np.nan]],
        "xyz": [[np.nan, np.nan, np.nan]],
        "mixed": [
            [4.0, 3.0, 2.0],
            [np.nan, 3.0, 2.0],
            [1.0, 7.5, 0.5],
            [4.0, 3.0, np.nan],
            [np.inf, 3.0, 2.0],
            [11.9, 0.1, 3.9],
            [4.0, np.nan, np.nan],
        ],
    }

    @staticmethod
    def field() -> SignedDistanceField:
        # The corridor's grid shape, 48 x 32 x 16 voxels, here of 0.25 m.
        rng = np.random.default_rng(9)
        return SignedDistanceField(
            origin=np.zeros(3), resolution=0.25, dims=(48, 32, 16),
            distance=rng.uniform(0, 5, (48, 32, 16)),
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raise_mode(self, case):
        sdf = self.field()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError):
                sdf.query(np.array(self.CASES[case]))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_nan_mode(self, case):
        sdf = self.field()
        pts = np.array(self.CASES[case])
        good = np.all(np.isfinite(pts), axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sdf.query(pts, out_of_range="nan")
        assert got.shape == (len(pts),)
        assert np.all(np.isnan(got[~good]))
        assert np.array_equal(got[good], sdf.query(pts[good]))
