"""Semi-empirical steady-state power model.

Directional power measurements are interpreted as points power * direction
in a 3D "power space". A simplified quadric surface (no cross terms,
constant fixed to 1) is fitted through them; evaluating power for a flight
direction then reduces to intersecting a ray from the origin with that
surface, i.e. solving one quadratic.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError, read_input


@dataclass(frozen=True)
class PowerSample:
    """One steady-state measurement: unit flight direction and power draw."""

    direction: np.ndarray
    power: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            raise ValidationError("direction must be a 3-vector")
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValidationError(f"direction must be unit length, |d| = {np.linalg.norm(d)}")
        if not self.power > 0:
            raise ValidationError(f"power must be > 0, got {self.power}")
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class PowerQuadricModel:
    """Coefficients of a*x^2 + b*y^2 + c*z^2 + g*x + h*y + k*z + 1 = 0.

    Cross terms are zero by construction. ``hover_power`` is the stored
    fallback where the surface gives no power, such as the zero direction
    of a zero-length segment.
    """

    a: float
    b: float
    c: float
    g: float
    h: float
    k: float
    hover_power: float

    def quadratic_coefficients(self, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A and B of A*t^2 + B*t + 1 = 0 along unit directions (...,3)."""
        d = np.asarray(directions, dtype=float)
        quad = np.array([self.a, self.b, self.c])
        lin = np.array([self.g, self.h, self.k])
        return (d**2) @ quad, d @ lin


def _is_axis_aligned(direction: np.ndarray, tol: float = 1e-6) -> bool:
    return bool(np.max(np.abs(direction)) > 1.0 - tol)


def fit_quadric(samples) -> PowerQuadricModel:
    """Solve for the six quadric coefficients from >= 6 directional samples.

    With exactly six samples the system is solved exactly (residuals at
    machine precision); with more, by least squares on the algebraic
    residual. Duplicate directions with conflicting powers trigger a
    warning and fall through to least squares.
    """
    samples = list(samples)
    if len(samples) < 6:
        raise FitError(f"need at least 6 power samples, got {len(samples)}")
    for s in samples:
        if not s.power > 0:
            raise ValidationError(f"power must be > 0, got {s.power}")

    dirs = np.array([s.direction for s in samples])
    powers = np.array([s.power for s in samples])

    # Every pair i < j at once, by np.allclose's rule (atol 1e-9, rtol 1e-5).
    i, j = np.triu_indices(len(samples), k=1)
    same_direction = (np.abs(dirs[i] - dirs[j]) <= 1e-9 + 1e-5 * np.abs(dirs[j])).all(axis=-1)
    duplicates = bool(np.any(same_direction & (powers[i] != powers[j])))
    if duplicates:
        warnings.warn(
            "duplicate directions with conflicting powers; fitting by least squares",
            stacklevel=2,
        )

    points = powers[:, None] * dirs
    design = np.column_stack([points**2, points])
    rhs = -np.ones(len(samples))

    sv = np.linalg.svd(design, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if cond > 1e12:
        # Name the axes whose quadratic and linear columns carry no signal.
        deficient = [ax for i, ax in enumerate("xyz") if np.allclose(design[:, [i, i + 3]], 0.0)]
        hint = f" (no coverage along: {', '.join(deficient)})" if deficient else ""
        raise FitError(f"power fit system is singular or ill-conditioned{hint}; cond={cond:.3g}")

    if len(samples) == 6 and not duplicates:
        coeffs = np.linalg.solve(design, rhs)
        residual = design @ coeffs - rhs
        if np.max(np.abs(residual)) > 1e-6:
            raise FitError(f"exact 6-sample fit failed to interpolate, residual {residual}")
    else:
        coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)

    axis_powers = [s.power for s in samples if _is_axis_aligned(s.direction)]
    hover = float(np.mean(axis_powers)) if axis_powers else float(np.mean(powers))
    a, b, c, g, h, k = (float(v) for v in coeffs)
    return PowerQuadricModel(a=a, b=b, c=c, g=g, h=h, k=k, hover_power=hover)


def power_for_directions(
    model: PowerQuadricModel, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ray/surface intersection: power per unit direction.

    Returns (powers, valid). Invalid entries (no positive real root) hold
    NaN; callers decide whether that is an error or an infeasibility.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    A, B = model.quadratic_coefficients(d)

    disc = B * B - 4.0 * A
    linear = np.abs(A) <= 1e-12
    quad = ~linear & (disc >= 0)
    sq = np.sqrt(np.where(disc >= 0, disc, 0.0))
    # Stable form: q = -(B + sign(B)*sqrt(disc))/2; roots are q/A and 1/q.
    sign = np.where(B >= 0, 1.0, -1.0)
    q = -(B + sign * sq) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(q != 0, q / A, np.nan)
        r2 = np.where(q != 0, 1.0 / q, -sq / (2.0 * A))
    # r > 0 is False for NaN and -inf and keeps +inf, so every root that is
    # not a positive finite number reads as +inf.
    best = np.minimum(np.where(r1 > 0, r1, np.inf), np.where(r2 > 0, r2, np.inf))
    powers = np.where(quad & np.isfinite(best), best, np.nan)

    if linear.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lin = -1.0 / B
        lin_ok = linear & (t_lin > 0) & np.isfinite(t_lin)
        powers[lin_ok] = t_lin[lin_ok]

    return powers, np.isfinite(powers)


def load_power_samples(path) -> list[PowerSample]:
    """Read calibration CSV with header vx,vy,vz,power_w.

    Directions are normalized on load.
    """
    samples = []
    reader = csv.DictReader(io.StringIO(read_input(path, "power CSV")))
    if reader.fieldnames is None or not {"vx", "vy", "vz", "power_w"} <= set(reader.fieldnames):
        raise ValidationError(
            f"{path}: power CSV must have header vx,vy,vz,power_w, got {reader.fieldnames}"
        )
    for lineno, row in enumerate(reader, start=2):
        try:
            vec = np.array([float(row["vx"]), float(row["vy"]), float(row["vz"])])
            power = float(row["power_w"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed row ({exc})") from exc
        if not all(math.isfinite(v) for v in (*vec, power)):
            raise ValidationError(
                f"{path}:{lineno}: vx, vy, vz and power_w must be finite, got "
                f"{row['vx']},{row['vy']},{row['vz']},{row['power_w']}"
            )
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValidationError(f"{path}:{lineno}: zero direction vector")
        try:
            samples.append(PowerSample(direction=vec / norm, power=power))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return samples
