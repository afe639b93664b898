from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from conftest import AXIS_DIRECTIONS, asymmetric_model, axis_samples, symmetric_model
from riskplan.errors import FitError, ValidationError
from riskplan.pipeline import trajectory_powers
from riskplan.power import (
    PowerQuadricModel,
    PowerSample,
    fit_quadric,
    load_power_samples,
    power_for_directions,
)


def random_unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestFitQuadric:
    def test_symmetric_axes(self):
        # All six axes at 500 W: by symmetry the linear terms vanish and the
        # quadratic ones solve a*P^2 + 1 = 0.
        p0 = 500.0
        model = fit_quadric(axis_samples([p0] * 6))
        assert model.a == pytest.approx(-1.0 / p0**2, rel=1e-12)
        assert model.b == pytest.approx(-1.0 / p0**2, rel=1e-12)
        assert model.c == pytest.approx(-1.0 / p0**2, rel=1e-12)
        assert model.g == pytest.approx(0.0, abs=1e-15)
        assert model.h == pytest.approx(0.0, abs=1e-15)
        assert model.k == pytest.approx(0.0, abs=1e-15)
        assert model.hover_power == pytest.approx(p0)

    def test_vertical_asymmetry_2x2_oracle(self):
        # Oracle: the +-z pair decouples into c*P^2 +- k*P + 1 = 0, a 2x2
        # linear solve in (c, k).
        p_up, p_down = 800.0, 500.0
        model = asymmetric_model()
        a_mat = np.array([[p_up**2, p_up], [p_down**2, -p_down]])
        c, k = np.linalg.solve(a_mat, [-1.0, -1.0])
        assert model.c == pytest.approx(c, rel=1e-9)
        assert model.k == pytest.approx(k, rel=1e-9)
        for direction, power in ((np.array([0.0, 0, 1]), p_up), (np.array([0.0, 0, -1]), p_down)):
            a_coef, b_coef = model.quadratic_coefficients(direction[None, :])
            residual = a_coef[0] * power**2 + b_coef[0] * power + 1.0
            assert abs(residual) < 1e-9

    def test_round_trip_from_known_coefficients(self):
        # Samples generated from a known coefficient set are recovered.
        truth = PowerQuadricModel(
            a=-1 / 640.0**2, b=-1 / 610.0**2, c=-1 / 700.0**2,
            g=1e-5, h=-2e-5, k=2.2e-4, hover_power=600.0,
        )
        rng = np.random.default_rng(11)
        dirs = np.vstack([AXIS_DIRECTIONS, random_unit_vectors(rng, 10)])
        powers, valid = power_for_directions(truth, dirs)
        assert valid.all()
        samples = [PowerSample(direction=d, power=float(p)) for d, p in zip(dirs, powers)]
        fitted = fit_quadric(samples)
        for name in "abcghk":
            got, want = getattr(fitted, name), getattr(truth, name)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-18)

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_quadric(axis_samples()[:5])

    def test_zero_power_rejected(self):
        with pytest.raises(ValidationError):
            PowerSample(direction=[1.0, 0, 0], power=0.0)

    def test_deficient_directions_named(self):
        # All samples in the xy-plane leave the z coefficients unconstrained.
        angles = np.linspace(0, 2 * np.pi, 7)[:-1]
        samples = [
            PowerSample(direction=[np.cos(t), np.sin(t), 0.0], power=600.0) for t in angles
        ]
        with pytest.raises(FitError, match="z"):
            fit_quadric(samples)

    def test_duplicate_conflicting_directions_warn(self):
        samples = axis_samples() + [PowerSample(direction=[1.0, 0, 0], power=700.0)]
        with pytest.warns(UserWarning, match="duplicate"):
            fit_quadric(samples)

    @staticmethod
    def loop_duplicates(samples) -> bool:
        """Reference: the pairwise np.allclose loop the fit used to run."""
        return any(
            np.allclose(a.direction, b.direction, atol=1e-9) and a.power != b.power
            for k, a in enumerate(samples)
            for b in samples[k + 1:]
        )

    def test_duplicate_check_matches_pairwise_allclose(self):
        # Near-copies rotated by 1e-7..1e-4 rad straddle allclose's
        # 1e-9 + 1e-5 * |d| tolerance; powers conflict or agree at random.
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(60):
            dirs = list(random_unit_vectors(rng, 4))
            for d in dirs[:3]:
                axis = np.cross(d, random_unit_vectors(rng, 1)[0])
                axis /= np.linalg.norm(axis)
                theta = 10.0 ** rng.uniform(-7, -4)
                near = d * np.cos(theta) + np.cross(axis, d) * np.sin(theta)
                dirs.append(near / np.linalg.norm(near))
            powers = rng.choice([600.0, 650.0], len(dirs))
            samples = axis_samples() + [
                PowerSample(direction=d, power=p) for d, p in zip(dirs, powers)
            ]
            expected = self.loop_duplicates(samples)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit_quadric(samples)
            warned = any("duplicate" in str(w.message) for w in caught)
            assert warned == expected
            seen.add(expected)
        assert seen == {True, False}


class TestPowerForDirection:
    def test_symmetric_model_uniform_power(self):
        p0 = 500.0
        model = symmetric_model(p0)
        rng = np.random.default_rng(2)
        values, valid = power_for_directions(model, random_unit_vectors(rng, 200))
        assert valid.all()
        assert values == pytest.approx(p0, rel=1e-9)

    def test_anchor_reproduction(self):
        model = asymmetric_model()
        values, valid = power_for_directions(model, AXIS_DIRECTIONS)
        assert valid.all()
        assert values == pytest.approx([s.power for s in axis_samples()], rel=1e-6)

    def test_descent_anchor(self):
        model = asymmetric_model()
        values, _ = power_for_directions(model, np.array([[0.0, 0, -1]]))
        assert values[0] == pytest.approx(500.0, rel=1e-6)

    def test_hover_returns_stored_mean(self):
        # A zero-length segment has no direction, so the emitted power
        # profile falls back to the stored hover power there.
        model = asymmetric_model()
        positions = np.array([[1.0, 2, 3], [2, 2, 3], [2, 2, 3], [2, 2, 4]])
        samples = np.vstack([positions.T, np.ones(4)])  # segment lengths 1, 0, 1
        hover = np.mean([600, 600, 600, 600, 800, 500])
        assert model.hover_power == pytest.approx(hover)
        powers = trajectory_powers(samples, model)
        assert powers == pytest.approx([600.0, 600.0, hover, 800.0], rel=1e-6)

    def test_root_validity_random_models(self):
        # Physically plausible random calibrations: every query returns a
        # positive finite power or is flagged invalid with NaN.
        rng = np.random.default_rng(7)
        for _ in range(20):
            powers = rng.uniform(300, 1500, 6)
            model = fit_quadric(axis_samples(list(powers)))
            dirs = random_unit_vectors(rng, 500)
            values, valid = power_for_directions(model, dirs)
            assert np.all(np.isfinite(values[valid]))
            assert np.all(values[valid] > 0)
            assert np.all(np.isnan(values[~valid]))

    def test_continuity(self):
        # Power varies by < 1% between directions 0.1 degrees apart.
        model = asymmetric_model()
        rng = np.random.default_rng(13)
        angle = np.deg2rad(0.1)
        # small-angle rotation via the Rodrigues formula
        dirs, rotated = [], []
        for d in random_unit_vectors(rng, 300):
            axis = np.cross(d, rng.standard_normal(3))
            norm = np.linalg.norm(axis)
            if norm < 1e-12:
                continue
            axis /= norm
            r = (
                d * np.cos(angle)
                + np.cross(axis, d) * np.sin(angle)
                + axis * (axis @ d) * (1 - np.cos(angle))
            )
            dirs.append(d)
            rotated.append(r / np.linalg.norm(r))
        p1, valid1 = power_for_directions(model, np.array(dirs))
        p2, valid2 = power_for_directions(model, np.array(rotated))
        assert valid1.all() and valid2.all()
        assert np.all(np.abs(p2 - p1) / p1 < 0.01)

    def test_scaling_covariance(self):
        # Scaling all calibration powers by s scales every prediction by s.
        rng = np.random.default_rng(17)
        base_powers = [620.0, 590.0, 615.0, 605.0, 810.0, 490.0]
        s = 2.75
        model_1 = fit_quadric(axis_samples(base_powers))
        model_s = fit_quadric(axis_samples([p * s for p in base_powers]))
        dirs = random_unit_vectors(rng, 200)
        p1, valid = power_for_directions(model_1, dirs)
        ps, _ = power_for_directions(model_s, dirs)
        assert valid.all()
        assert ps == pytest.approx(s * p1, rel=1e-9)


def reference_powers(model, directions):
    """Root pick written with a stacked (M, 2) root array."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    A, B = model.quadratic_coefficients(d)
    powers = np.full(len(d), np.nan)
    linear = np.abs(A) <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lin = -1.0 / B
    lin_ok = linear & (t_lin > 0) & np.isfinite(t_lin)
    powers[lin_ok] = t_lin[lin_ok]
    disc = B * B - 4.0 * A
    quad = ~linear & (disc >= 0)
    sq = np.sqrt(np.where(disc >= 0, disc, 0.0))
    sign = np.where(B >= 0, 1.0, -1.0)
    q = -(B + sign * sq) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(q != 0, q / A, np.nan)
        r2 = np.where(q != 0, 1.0 / q, -sq / (2.0 * A))
    roots = np.stack([r1, r2], axis=-1)
    roots = np.where((roots > 0) & np.isfinite(roots), roots, np.inf)
    best = roots.min(axis=-1)
    quad_ok = quad & np.isfinite(best)
    powers[quad_ok] = best[quad_ok]
    return powers, np.isfinite(powers)


def two_branch_powers(model, directions):
    """``power_for_directions`` as it was before the linear branch became
    conditional: both branches always run, and every root is tested with
    ``isfinite`` besides ``> 0``."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    A, B = model.quadratic_coefficients(d)
    powers = np.full(len(d), np.nan)
    linear = np.abs(A) <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lin = -1.0 / B
    lin_ok = linear & (t_lin > 0) & np.isfinite(t_lin)
    powers[lin_ok] = t_lin[lin_ok]
    disc = B * B - 4.0 * A
    quad = ~linear & (disc >= 0)
    sq = np.sqrt(np.where(disc >= 0, disc, 0.0))
    sign = np.where(B >= 0, 1.0, -1.0)
    q = -(B + sign * sq) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(q != 0, q / A, np.nan)
        r2 = np.where(q != 0, 1.0 / q, -sq / (2.0 * A))
    r1 = np.where((r1 > 0) & np.isfinite(r1), r1, np.inf)
    r2 = np.where((r2 > 0) & np.isfinite(r2), r2, np.inf)
    best = np.minimum(r1, r2)
    quad_ok = quad & np.isfinite(best)
    powers[quad_ok] = best[quad_ok]
    return powers, np.isfinite(powers)


class TestTwoBranchReference:
    @staticmethod
    def check(model, dirs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_valid = power_for_directions(model, dirs)
        want, want_valid = two_branch_powers(model, dirs)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got_valid, want_valid)
        return want_valid

    def test_random_and_zero_directions(self):
        rng = np.random.default_rng(41)
        dirs = np.vstack([random_unit_vectors(rng, 500), AXIS_DIRECTIONS, np.zeros((3, 3))])
        valid = []
        for _ in range(10):
            model = fit_quadric(axis_samples(list(rng.uniform(300, 1500, 6))))
            valid.append(self.check(model, dirs))
        assert np.concatenate(valid).any()
        assert not valid[0][-3:].any()  # the zero direction has no power

    def test_linear_model(self):
        rng = np.random.default_rng(43)
        dirs = np.vstack([random_unit_vectors(rng, 300), AXIS_DIRECTIONS, np.zeros((1, 3))])
        flat = PowerQuadricModel(a=0.0, b=0.0, c=0.0, g=-2e-3, h=1e-3, k=-1e-3, hover_power=500.0)
        valid = self.check(flat, dirs)
        assert valid.any() and not valid.all()
        # |A| <= 1e-12 on a few directions only, beside quadratic ones.
        saddle = PowerQuadricModel(a=-4e-6, b=-4e-6, c=4e-6, g=0.0, h=0.0, k=-3e-3, hover_power=500.0)
        s = np.sqrt(0.5)
        self.check(saddle, np.vstack([[[s, 0.0, s], [-s, 0.0, -s]], dirs]))

    def test_directions_with_no_positive_root(self):
        rng = np.random.default_rng(47)
        dirs = random_unit_vectors(rng, 400)
        # A > 0 and B > 0: both roots are negative.
        both_negative = PowerQuadricModel(1e-5, 1e-5, 1e-5, 1e-2, 1e-2, 1e-2, hover_power=500.0)
        assert not self.check(both_negative, np.abs(dirs)).any()
        # A > 0 and B = 0: no real root.
        no_real = PowerQuadricModel(1e-5, 2e-5, 3e-5, 0.0, 0.0, 0.0, hover_power=500.0)
        assert not self.check(no_real, dirs).any()
        for _ in range(10):
            coeffs = rng.uniform(-1e-5, 1e-5, 3).tolist() + rng.uniform(-1e-2, 1e-2, 3).tolist()
            self.check(PowerQuadricModel(*coeffs, hover_power=500.0), dirs)


class TestRootPickOracle:
    def check(self, model, dirs):
        got, got_valid = power_for_directions(model, dirs)
        want, want_valid = reference_powers(model, dirs)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got_valid, want_valid)
        return want_valid

    def test_random_models_and_directions(self):
        rng = np.random.default_rng(23)
        dirs = np.vstack([random_unit_vectors(rng, 400), AXIS_DIRECTIONS, np.zeros((1, 3))])
        valid = []
        for _ in range(20):
            model = fit_quadric(axis_samples(list(rng.uniform(300, 1500, 6))))
            valid.append(self.check(model, dirs))
            # Unphysical sign patterns reach the no-root and negative-root cases.
            coeffs = rng.uniform(-1e-5, 1e-5, 3).tolist() + rng.uniform(-1e-2, 1e-2, 3).tolist()
            valid.append(self.check(PowerQuadricModel(*coeffs, hover_power=500.0), dirs))
        valid = np.concatenate(valid)
        assert valid.any() and not valid.all()

    def test_linear_branch(self):
        rng = np.random.default_rng(29)
        dirs = np.vstack([random_unit_vectors(rng, 200), AXIS_DIRECTIONS])
        # No quadratic terms: |A| = 0 for every direction.
        flat = PowerQuadricModel(a=0.0, b=0.0, c=0.0, g=-2e-3, h=1e-3, k=-1e-3, hover_power=500.0)
        valid = self.check(flat, dirs)
        assert valid.any() and not valid.all()
        # a = -c: |A| <= 1e-12 exactly where x^2 == z^2, beside quadratic directions.
        saddle = PowerQuadricModel(a=-4e-6, b=-4e-6, c=4e-6, g=0.0, h=0.0, k=-3e-3, hover_power=500.0)
        s = np.sqrt(0.5)
        diagonals = np.array([[s, 0.0, s], [-s, 0.0, s], [s, 0.0, -s], [-s, 0.0, -s]])
        A, _ = saddle.quadratic_coefficients(diagonals)
        assert np.all(np.abs(A) <= 1e-12)
        self.check(saddle, np.vstack([diagonals, dirs]))


class TestCsvLoading:
    def test_load_and_normalize(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("vx,vy,vz,power_w\n2,0,0,600\n0,0,-3,500\n")
        samples = load_power_samples(path)
        assert samples[0].direction == pytest.approx([1, 0, 0])
        assert samples[1].direction == pytest.approx([0, 0, -1])
        assert samples[1].power == 500.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("x,y,z,p\n1,0,0,600\n")
        with pytest.raises(ValidationError):
            load_power_samples(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("vx,vy,vz,power_w\n1,0,0,oops\n")
        with pytest.raises(ValidationError, match=":2"):
            load_power_samples(path)

    @pytest.mark.parametrize(
        "row",
        ["nan,0,0,100", "inf,0,0,100", "0,-inf,0,100", "1,0,0,inf", "1,0,0,nan", "0,0,NaN,-inf"],
    )
    def test_non_finite_row_reports_line(self, tmp_path, row):
        # float() reads nan and inf; a fit through them fails inside the SVD.
        path = tmp_path / "cal.csv"
        path.write_text(f"vx,vy,vz,power_w\n1,0,0,600\n{row}\n0,0,1,800\n")
        with pytest.raises(ValidationError, match=f"cal.csv:3: .*must be finite, got {row}"):
            load_power_samples(path)

    @pytest.mark.parametrize("power", ["-5", "0", "-0.0"])
    def test_non_positive_power_reports_line(self, tmp_path, power):
        path = tmp_path / "cal.csv"
        path.write_text(f"vx,vy,vz,power_w\n1,0,0,600\n0,1,0,{power}\n0,0,1,800\n")
        message = f"cal.csv:3: power must be > 0, got {float(power)}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_power_samples(path)
