"""Rational B-spline curves over (x, y, z, speed-norm).

Basis evaluation follows the classic knot-span recurrence (The NURBS Book,
algorithm A2.2), vectorised over the sample parameters by ``basis_rows``.
Curves have one evaluator: the basis rows of the sample parameters times the
weighted control net (``rational_blend``). Curves are immutable values and
evaluation is pure, so sampling can run concurrently.

Samples have one format: float64 planes of x, y, z and speed, (4, N, Q) for
N curves and (4, Q) for one. The control net comes in as (4, N, C) planes,
so every step reads and writes contiguous rows. The optimiser's batch decode
(``moo._decode_batch``) writes the planes it scores, and a plan emits rows of
those planes. ``sample_uniform`` samples one curve outside a plan (the seed
check) as a one-member batch; it returns the planes the batch decode would.

By local support (The NURBS Book, section 2.2) a basis row has at most
degree+1 non-zero values, in the adjacent columns of its knot span: the
row's band, which ``basis_rows`` returns with the basis. Both are fixed by
the knots and the sample parameters, so the optimizer builds them once per
plan (``moo.make_context``). ``rational_blend`` sums the numerator over the
band only, in increasing column order from zero, which is the order of a
dense sequential sum; every skipped term is an exact zero, so the sums keep
the bits of the dense sum, and a row's bits do not depend on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterRangeError, ValidationError


def make_clamped_uniform_knots(n_ctrl: int, degree: int) -> np.ndarray:
    """Clamped knot vector on [0, 1] with equally spaced interior knots.

    Length is n_ctrl + degree + 1; end knots repeat degree+1 times so the
    curve interpolates its end control points.
    """
    if n_ctrl < degree + 1:
        raise ValidationError(
            f"need at least degree+1 = {degree + 1} control points, got {n_ctrl}"
        )
    n_interior = n_ctrl - degree - 1
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def basis_rows(knots, degree: int, params) -> tuple[np.ndarray, tuple]:
    """The basis matrix of ``params`` and its band: ``(basis, (cols, values))``.

    ``basis`` (Q, C) holds B[q, i] = N_{i,degree}(params[q]). By local
    support (The NURBS Book, section 2.2) row q is non-zero only in the
    degree+1 columns ``cols[:, q]`` of its knot span, whose values are
    ``values[:, q]``; both are (degree+1, Q), in increasing column order.
    The spans come from one ``searchsorted``, and the values from the A2.2
    recurrence run one degree step at a time over all parameters, with the
    scalar recurrence's operations in its order, so each value has its bits.
    Every parameter must lie in the clamped range
    [knots[degree], knots[-degree-1]].
    """
    knots = np.asarray(knots, dtype=float)
    u = np.asarray(params, dtype=float)
    lo, hi = knots[degree], knots[-degree - 1]
    outside = ~((lo <= u) & (u <= hi))  # also catches NaN
    if outside.any():
        raise ParameterRangeError(
            f"parameter {u[outside.argmax()]} outside curve range [{lo}, {hi}]"
        )
    n_ctrl = len(knots) - degree - 1
    span = np.clip(np.searchsorted(knots, u, side="right") - 1, degree, n_ctrl - 1)
    values = np.zeros((degree + 1, len(u)))
    values[0] = 1.0
    left = np.zeros_like(values)
    right = np.zeros_like(values)
    for j in range(1, degree + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            temp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        values[j] = saved
    cols = span - degree + np.arange(degree + 1)[:, None]
    basis = np.zeros((len(u), n_ctrl))
    basis[np.arange(len(u)), cols] = values
    return basis, (cols, values)


def basis_matrix(knots, degree: int, params: np.ndarray) -> np.ndarray:
    """Dense matrix B with B[q, i] = N_{i,degree}(params[q]): the basis of
    ``basis_rows`` without its band."""
    return basis_rows(knots, degree, params)[0]


@dataclass(frozen=True)
class NurbsCurve4D:
    """Clamped rational B-spline with 4D control points (x, y, z, speed)."""

    control_points: np.ndarray
    weights: np.ndarray
    degree: int
    knots: np.ndarray

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        knots = np.asarray(self.knots, dtype=float)
        problems = []
        if cp.ndim != 2 or cp.shape[1] != 4:
            problems.append("control_points must have shape (n+1, 4)")
        elif cp.shape[0] < self.degree + 1:
            problems.append("need at least degree+1 control points")
        if w.shape != (cp.shape[0],):
            problems.append("weights must match control point count")
        elif not np.all(w > 0):
            problems.append("all weights must be > 0")
        if len(knots) != cp.shape[0] + self.degree + 1:
            problems.append("knot count must equal control points + degree + 1")
        if np.any(np.diff(knots) < 0):
            problems.append("knots must be nondecreasing")
        p = self.degree
        if len(knots) >= 2 * (p + 1):
            if knots[p] != knots[0] or knots[-p - 1] != knots[-1]:
                problems.append("knot vector must be clamped (end multiplicity degree+1)")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "control_points", cp)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "knots", knots)

    @property
    def param_range(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[-self.degree - 1])


def rational_blend(
    basis: np.ndarray, band: tuple, weights: np.ndarray, net: np.ndarray
) -> np.ndarray:
    """Planes (D, N, Q) of the points of N curves sharing one knot vector.

    ``basis`` (Q, C) holds the basis rows of the Q parameters and ``band``
    their band, both from ``basis_rows``; ``weights`` (N, C) and ``net``
    (D, N, C) hold the control nets, one plane per coordinate. Each point is
    sum_i N_i w_i P_i / sum_i N_i w_i. The first and last rows must be the
    ends of the parameter range: clamped ends interpolate the end control
    points, which are copied exactly.

    The numerator of row q starts from zero and adds (N_i w_i) P_i over the
    band's columns in increasing i. A dense sum in that order adds only
    exact zeros besides, so the result has its bits. Every step works on
    contiguous planes. The denominator stays a dense ``einsum``: its
    summation order is not sequential, and it carries a non-finite weight
    into every row.
    """
    cols, values = band
    den = np.einsum("qc,nc->nq", basis, weights)
    weighted = values * weights[:, cols]  # (N, degree+1, Q)
    num = np.zeros((len(net), len(weights), len(basis)))
    for k in range(len(cols)):
        num += weighted[:, k] * net.take(cols[k], axis=2)
    num /= den
    num[:, :, 0] = net[:, :, 0]
    num[:, :, -1] = net[:, :, -1]
    return num


def sample_uniform(curve: NurbsCurve4D, n_samples: int) -> np.ndarray:
    """Sample planes (4, n_samples) of x, y, z and speed at n_samples
    equally spaced parameters over the full range."""
    if n_samples < 2:
        raise ValidationError("n_samples must be >= 2")
    params = np.linspace(*curve.param_range, n_samples)
    basis, band = basis_rows(curve.knots, curve.degree, params)
    net = curve.control_points.T[:, None]  # one-member planes (4, 1, C)
    return rational_blend(basis, band, curve.weights[None], net)[:, 0]
