from __future__ import annotations

import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.optimize import linprog

from riskplan.costs import _segment_lengths, _segment_steps
from riskplan.errors import ParameterRangeError, ValidationError
from riskplan.nurbs import (
    NurbsCurve4D,
    basis_matrix,
    basis_rows,
    make_clamped_uniform_knots,
    rational_blend,
    sample_uniform,
)


def find_span(knots, degree, u):
    """Reference span search (The NURBS Book, A2.1): the index i with
    knots[i] <= u < knots[i+1], the last span at u_max."""
    n = len(knots) - degree - 2  # index of the last control point
    if u >= knots[n + 1]:
        return n
    if u <= knots[degree]:
        return degree
    low, high = degree, n + 1
    mid = (low + high) // 2
    while u < knots[mid] or u >= knots[mid + 1]:
        if u < knots[mid]:
            high = mid
        else:
            low = mid
        mid = (low + high) // 2
    return mid


def basis_functions(knots, degree, u):
    """Reference scalar basis (The NURBS Book, A2.2): the degree+1 non-zero
    basis values at one parameter u and its knot span."""
    knots = np.asarray(knots, dtype=float)
    span = find_span(knots, degree, u)
    values = np.zeros(degree + 1)
    values[0] = 1.0
    left = np.zeros(degree + 1)
    right = np.zeros(degree + 1)
    for j in range(1, degree + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            temp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        values[j] = saved
    return values, span


def band_of(knots, degree, u):
    """The (cols, values) of ``basis_rows`` at one parameter."""
    _, (cols, values) = basis_rows(knots, degree, [u])
    return cols[:, 0], values[:, 0]


def make_curve(ctrl, weights=None, degree=3):
    ctrl = np.asarray(ctrl, dtype=float)
    if weights is None:
        weights = np.ones(len(ctrl))
    knots = make_clamped_uniform_knots(len(ctrl), degree)
    return NurbsCurve4D(control_points=ctrl, weights=np.asarray(weights, float), degree=degree, knots=knots)


def points(samples):
    """Sampled (x, y, z, speed) rows of sample planes (4, Q)."""
    return samples.T


def segment_lengths(samples):
    return _segment_lengths(_segment_steps(samples[:3]))


def s_curve():
    ctrl = np.array(
        [
            [0, 0, 0, 1.0],
            [3, 0, 0.5, 1.2],
            [6, 4, 1.0, 1.5],
            [9, 4, 1.2, 1.4],
            [12, 0, 1.5, 1.1],
            [15, 0, 2.0, 1.0],
        ]
    )
    weights = np.array([1.0, 0.8, 1.5, 1.2, 0.9, 1.0])
    return make_curve(ctrl, weights)


class TestBasisFunctions:
    def test_linear_interpolation_basis(self):
        cols, values = band_of([0, 0, 1, 1], 1, 0.5)
        assert values == pytest.approx([0.5, 0.5])
        assert cols[-1] == 1  # the span

    def test_degree2_bernstein(self):
        # Single-span quadratic equals the Bernstein polynomials.
        _, values = band_of([0, 0, 0, 1, 1, 1], 2, 0.5)
        assert values == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(42)
        knots = make_clamped_uniform_knots(9, 3)
        _, (_, values) = basis_rows(knots, 3, rng.uniform(0, 1, 1000))
        assert np.all(np.abs(values.sum(axis=0) - 1.0) < 1e-12)
        assert np.all(values >= 0)

    def test_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            basis_rows([0, 0, 0, 1, 1, 1], 2, [1.5])

    def test_nan_parameter(self):
        with pytest.raises(ParameterRangeError):
            basis_rows(make_clamped_uniform_knots(6, 3), 3, [np.nan])

    def test_span_at_endpoints(self):
        knots = make_clamped_uniform_knots(6, 3)
        assert band_of(knots, 3, 0.0)[0][-1] == 3
        assert band_of(knots, 3, 1.0)[0][-1] == 5


class TestKnotConstruction:
    def test_bezier_case(self):
        assert make_clamped_uniform_knots(4, 3) == pytest.approx([0, 0, 0, 0, 1, 1, 1, 1])

    def test_single_interior(self):
        assert make_clamped_uniform_knots(5, 3) == pytest.approx([0, 0, 0, 0, 0.5, 1, 1, 1, 1])

    def test_uniform_interior(self):
        assert make_clamped_uniform_knots(6, 2) == pytest.approx(
            [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1]
        )

    def test_too_few_control_points(self):
        with pytest.raises(ValidationError):
            make_clamped_uniform_knots(3, 3)


class TestEvaluate:
    def test_endpoint_interpolation_exact(self):
        curve = s_curve()
        sampled = points(sample_uniform(curve, 17))
        assert np.array_equal(sampled[0], curve.control_points[0])
        assert np.array_equal(sampled[-1], curve.control_points[-1])

    def test_equal_weights_matches_plain_bspline(self):
        # Independent oracle: scipy's BSpline with vector coefficients.
        ctrl = s_curve().control_points
        curve = make_curve(ctrl)  # unit weights
        spline = BSpline(curve.knots, ctrl, curve.degree)
        samples = sample_uniform(curve, 37)
        for u, point in zip(np.linspace(*curve.param_range, 37), points(samples)):
            assert point == pytest.approx(spline(u), abs=1e-12)

    def test_weight_pull(self):
        base = s_curve()
        heavier = NurbsCurve4D(
            control_points=base.control_points,
            weights=base.weights * np.array([1, 1, 2, 1, 1, 1]),
            degree=base.degree,
            knots=base.knots,
        )
        target = base.control_points[2]
        pulled_somewhere = False
        before, after = sample_uniform(base, 61), sample_uniform(heavier, 61)
        u = np.linspace(*base.param_range, 61)
        inside = (u >= 0.1) & (u <= 0.7)  # support of point 2
        for p_before, p_after in zip(points(before)[inside], points(after)[inside]):
            d_before = np.linalg.norm(p_before - target)
            d_after = np.linalg.norm(p_after - target)
            assert d_after <= d_before + 1e-12
            if d_after < d_before - 1e-9:
                pulled_somewhere = True
        assert pulled_somewhere

    def test_out_of_range(self):
        curve = s_curve()
        with pytest.raises(ParameterRangeError):
            basis_matrix(curve.knots, curve.degree, np.array([0.5, -0.1]))

    def test_nan_parameter(self):
        curve = s_curve()
        with pytest.raises(ParameterRangeError):
            basis_matrix(curve.knots, curve.degree, np.array([0.5, np.nan]))

    def test_convex_hull_property(self):
        # Every sampled point is a convex combination of the control points
        # active on its span; verified by LP feasibility.
        curve = s_curve()
        samples = sample_uniform(curve, 40)
        params = np.linspace(*curve.param_range, 40)
        _, (cols, _) = basis_rows(curve.knots, curve.degree, params)
        for u, active_cols, point in zip(params, cols.T, points(samples)):
            active = curve.control_points[active_cols]
            n_active = len(active)
            a_eq = np.vstack([active.T, np.ones(n_active)])
            b_eq = np.concatenate([point, [1.0]])
            res = linprog(
                c=np.zeros(n_active), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
            )
            assert res.status == 0, f"point at u={u} outside active convex hull"

    def test_local_support(self):
        curve = s_curve()
        p = curve.degree
        i = 2
        moved = curve.control_points.copy()
        moved[i] += np.array([0.0, 1.0, 0.0, 0.2])
        perturbed = NurbsCurve4D(
            control_points=moved, weights=curve.weights, degree=p, knots=curve.knots
        )
        support = (curve.knots[i], curve.knots[i + p + 1])
        original, moved_samples = sample_uniform(curve, 201), sample_uniform(perturbed, 201)
        deltas = np.linalg.norm(points(moved_samples) - points(original), axis=1)
        for u, delta in zip(np.linspace(*curve.param_range, 201), deltas):
            if u <= support[0] or u >= support[1]:
                assert delta < 1e-12, f"u={u} outside support changed by {delta}"

    def test_validation(self):
        ctrl = np.zeros((4, 4))
        knots = make_clamped_uniform_knots(4, 3)
        with pytest.raises(ValidationError):
            NurbsCurve4D(control_points=ctrl, weights=np.array([1, 1, -1, 1.0]), degree=3, knots=knots)
        with pytest.raises(ValidationError):
            NurbsCurve4D(control_points=ctrl, weights=np.ones(4), degree=3, knots=knots[:-1])


class TestSampleUniform:
    def test_straight_line_uniform_segments(self):
        # Uniformly spaced control points on a line, uniform parameterization.
        ctrl = np.column_stack(
            [np.linspace(0, 10, 11), np.zeros(11), np.zeros(11), np.full(11, 2.0)]
        )
        curve = make_curve(ctrl, degree=1)
        samples = sample_uniform(curve, 11)
        assert segment_lengths(samples) == pytest.approx(np.ones(10), abs=1e-9)
        assert samples[3] == pytest.approx(np.full(11, 2.0))

    def test_two_samples(self):
        curve = s_curve()
        samples = sample_uniform(curve, 2)
        assert len(segment_lengths(samples)) == 1
        expected = np.linalg.norm(curve.control_points[-1, :3] - curve.control_points[0, :3])
        assert segment_lengths(samples)[0] == pytest.approx(expected)

    def test_arc_length_close_to_dense_oracle(self):
        # Oracle: chord length at 100k samples converges to true arc length.
        curve = s_curve()
        dense = sample_uniform(curve, 100_001)
        oracle_length = segment_lengths(dense).sum()
        coarse = sample_uniform(curve, 51)
        got = segment_lengths(coarse).sum()
        assert abs(got - oracle_length) / oracle_length < 0.01

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            sample_uniform(s_curve(), 1)


class TestBasisMatrix:
    def test_rows_match_basis_functions(self):
        knots = make_clamped_uniform_knots(7, 3)
        params = np.linspace(0, 1, 23)
        mat = basis_matrix(knots, 3, params)
        assert mat.shape == (23, 7)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        values, span = basis_functions(knots, 3, params[7])
        assert mat[7, span - 3 : span + 1] == pytest.approx(values)

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_bit_identical_to_scalar_recurrence(self, degree):
        rng = np.random.default_rng(degree)
        for n_ctrl in range(degree + 1, 21):
            knots = make_clamped_uniform_knots(n_ctrl, degree)
            param_sets = [np.linspace(0.0, 1.0, n) for n in (2, 50, 200, 2000)]
            param_sets += [rng.uniform(0.0, 1.0, 500), knots[degree:-degree]]
            for params in param_sets:
                want_cols = np.empty((degree + 1, len(params)), dtype=int)
                want_values = np.empty((degree + 1, len(params)))
                want = np.zeros((len(params), n_ctrl))
                for q, u in enumerate(params):
                    want_values[:, q], span = basis_functions(knots, degree, u)
                    want_cols[:, q] = np.arange(span - degree, span + 1)
                    want[q, want_cols[:, q]] = want_values[:, q]
                basis, (cols, values) = basis_rows(knots, degree, params)
                assert np.array_equal(cols, want_cols)
                for got, ref in ((values, want_values), (basis, want),
                                 (basis_matrix(knots, degree, params), want)):
                    assert np.array_equal(got, ref)
                    assert np.array_equal(np.signbit(got), np.signbit(ref))


def reference_blend(basis, weights, control_points):
    """The dense form of ``rational_blend``: one three-operand einsum for the
    numerator, which sums (N_i w_i) P_i over every column in order."""
    den = np.einsum("qc,nc->nq", basis, weights)
    num = np.einsum("qc,nc,ncd->nqd", basis, weights, control_points)
    points = num / den[:, :, None]
    points[:, 0, :] = control_points[:, 0, :]
    points[:, -1, :] = control_points[:, -1, :]
    return points


def planes(rows):
    """Per-coordinate planes (D, N, Q) of points given as rows (N, Q, D)."""
    return np.ascontiguousarray(np.moveaxis(rows, -1, 0))


class TestRationalBlend:
    """The banded numerator keeps every bit of the dense sum."""

    @staticmethod
    def net(rng, n_curves, n_ctrl):
        weights = rng.uniform(0.1, 10.0, (n_curves, n_ctrl))
        ctrl = rng.uniform(-30.0, 30.0, (n_curves, n_ctrl, 4))
        ctrl[rng.random(ctrl.shape) < 0.15] = 0.0
        ctrl[rng.random(ctrl.shape) < 0.15] = -0.0
        ctrl[rng.random((n_curves, n_ctrl)) < 0.1] = -0.0  # whole rows of -0
        return weights, ctrl

    @pytest.mark.parametrize("n_curves", [1, 40])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_bit_identical_to_dense_sum(self, n_curves, degree):
        rng = np.random.default_rng(100 * degree + n_curves)
        for n_ctrl in range(degree + 1, 23):
            knots = make_clamped_uniform_knots(n_ctrl, degree)
            # The knot values: every row's band has an exact zero at an edge.
            param_sets = [np.linspace(0.0, 1.0, n) for n in (2, 50, 200, 2000)]
            param_sets.append(knots[degree:-degree])
            for params in param_sets:
                basis, band = basis_rows(knots, degree, params)
                weights, ctrl = self.net(rng, n_curves, n_ctrl)
                got = rational_blend(basis, band, weights, planes(ctrl))
                want = planes(reference_blend(basis, weights, ctrl))
                assert got.flags.c_contiguous
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_matches_dense_sum(self, bad):
        rng = np.random.default_rng(5)
        knots = make_clamped_uniform_knots(9, 3)
        for params in (np.linspace(0.0, 1.0, 50), knots[3:-3]):
            basis, band = basis_rows(knots, 3, params)
            weights, ctrl = self.net(rng, 6, 9)
            weights[1, 0] = bad
            weights[3, 4] = bad
            weights[5, 8] = bad
            with np.errstate(invalid="ignore"):
                got = rational_blend(basis, band, weights, planes(ctrl))
                want = planes(reference_blend(basis, weights, ctrl))
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.isnan(got[:, [1, 3, 5], 1:-1]).all()
            assert np.array_equal(got, want, equal_nan=True)
