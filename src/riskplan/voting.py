"""Risk-driven selection from a Pareto set.

Four mission risks reshape three baseline objective coefficients, the
coefficients are renormalized to sum to one, and each Pareto member is
scored by the weighted sum of its per-objective ranks. The lowest score
wins; ranks use competition ranking (ties share a rank, the next rank is
skipped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .moo import Front

BASELINES = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)  # (time, safety, energy)


@dataclass(frozen=True)
class RiskState:
    """Mission risks, each in [0, 1]."""

    wind: float = 0.0
    communication: float = 0.0
    localization: float = 0.0
    battery: float = 0.0

    def __post_init__(self):
        for name in ("wind", "communication", "localization", "battery"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"risk {name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class VoteWeights:
    """Normalized coefficients on (time, safety, energy) ranks."""

    k_time: float
    k_safety: float
    k_energy: float
    baseline_time: float
    baseline_safety: float
    baseline_energy: float
    gamma: float

    def __post_init__(self):
        if min(self.k_time, self.k_safety, self.k_energy) < 0:
            raise ValidationError("vote weights must be >= 0")
        if abs(self.k_time + self.k_safety + self.k_energy - 1.0) > 1e-12:
            raise ValidationError("vote weights must sum to 1")


def adjust_coefficients(risks: RiskState) -> VoteWeights:
    """Risk-adjusted, normalized objective coefficients from ``BASELINES``.

    Wind, communication, and localization shift influence from time toward
    safety; battery pulls it back toward time and energy. Negative
    intermediate values are clamped to zero before normalization so a rank
    can lose all influence but never invert. The energy term is at least
    its baseline for risks in [0, 1], so the total never vanishes.
    """
    b_time, b_safety, b_energy = BASELINES
    shift = 0.5 * risks.wind + 0.25 * risks.communication + 0.25 * risks.localization - risks.battery
    u_safety = max(b_safety * (1.0 + shift), 0.0)
    u_time = max(b_time * (1.0 - shift), 0.0)
    u_energy = b_energy * (1.0 + 0.5 * risks.wind + 0.5 * risks.battery)
    gamma = 1.0 / (u_safety + u_time + u_energy)
    return VoteWeights(
        k_time=gamma * u_time,
        k_safety=gamma * u_safety,
        k_energy=gamma * u_energy,
        baseline_time=b_time,
        baseline_safety=b_safety,
        baseline_energy=b_energy,
        gamma=gamma,
    )


def _competition_ranks(costs: np.ndarray) -> np.ndarray:
    """Per-column competition ranks of an (N, 3) cost matrix: the number of
    strictly lower costs in the same column, as a C-ordered (N, 3) int
    array. The comparisons run on one contiguous row per objective, where
    the count is a sum over the last axis."""
    planes = np.ascontiguousarray(costs.T)
    return np.ascontiguousarray((planes[:, None, :] < planes[:, :, None]).sum(axis=2).T)


def votes(front: Front, weights_seq: Iterable[VoteWeights]) -> list[int]:
    """For each of ``weights_seq``, the index of the front member (a row of
    ``front.costs``) with the lowest weighted rank sum.

    One ballot serves every weight set: the ranks of the cost columns and
    the tie-break columns are built once per front. Ties break
    deterministically: lower safety cost, then lower time cost, then lower
    index.
    """
    if not front:
        raise ValidationError("cannot vote on an empty front")
    costs = front.costs
    ranks = _competition_ranks(costs)
    index, time, safety = np.arange(len(front)), costs[:, 0], costs[:, 1]
    picks = []
    for weights in weights_seq:
        scores = ranks @ np.array([weights.k_time, weights.k_safety, weights.k_energy])
        picks.append(int(np.lexsort((index, time, safety, scores))[0]))
    return picks


def vote(front: Front, weights: VoteWeights) -> int:
    """The index ``votes`` picks for one weight set."""
    return votes(front, [weights])[0]
