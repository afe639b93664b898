from __future__ import annotations

import itertools

import numpy as np
import pytest

from riskplan.costs import CostVector
from riskplan.errors import ValidationError
from riskplan.moo import Front
from riskplan.voting import (
    RiskState,
    VoteWeights,
    _competition_ranks,
    adjust_coefficients,
    vote,
    votes,
)


def cv(t, s, e):
    return CostVector(time_s=t, safety=s, energy_j=e)


def ranks_of(cost_vectors):
    """Per-objective competition ranks of the cost vectors, (N, 3)."""
    return _competition_ranks(np.array([c.as_array() for c in cost_vectors]))


def members(cost_vectors):
    """A front with the given costs, as ``vote`` takes it."""
    costs = np.array([c.as_array() for c in cost_vectors]).reshape(-1, 3)
    return Front(np.empty((len(costs), 0)), costs, np.zeros((len(costs), 2)))


def direct_weights(k_time, k_safety, k_energy):
    return VoteWeights(
        k_time=k_time,
        k_safety=k_safety,
        k_energy=k_energy,
        baseline_time=k_time,
        baseline_safety=k_safety,
        baseline_energy=k_energy,
        gamma=1.0,
    )


def per_column_vote(front, weights):
    """The vote as it was before ``votes``, kept as the reference: ranks
    one cost column at a time, tie-break columns from the cost vectors."""
    cost_vectors = [ind.costs for ind in front]
    costs = np.array([c.as_array() for c in cost_vectors])
    ranks = np.empty_like(costs, dtype=int)
    for col in range(costs.shape[1]):
        column = costs[:, col]
        ranks[:, col] = (column[None, :] < column[:, None]).sum(axis=1)
    scores = ranks @ np.array([weights.k_time, weights.k_safety, weights.k_energy])
    safety = np.array([c.safety for c in cost_vectors])
    time = np.array([c.time_s for c in cost_vectors])
    return int(np.lexsort((np.arange(len(front)), time, safety, scores))[0])


# The 0.02 lattice of the benchmark's sweep: 1326 weight sets.
LATTICE = [
    direct_weights(i / 50, j / 50, (50 - i - j) / 50) for i in range(51) for j in range(51 - i)
]


class TestAdjustCoefficients:
    def test_zero_risk_returns_baselines(self):
        w = adjust_coefficients(RiskState())
        assert w.k_time == pytest.approx(1 / 3)
        assert w.k_safety == pytest.approx(1 / 3)
        assert w.k_energy == pytest.approx(1 / 3)

    def test_full_wind_risk(self):
        # shift = 1/2: unnormalized (time, safety, energy) = (0.5, 1.5, 1.5)/3,
        # so k_time = 1/7 and the other two 3/7 each.
        w = adjust_coefficients(RiskState(wind=1.0))
        assert w.k_time == pytest.approx(1 / 7)
        assert w.k_safety == pytest.approx(3 / 7)
        assert w.k_energy == pytest.approx(3 / 7)

    def test_full_battery_risk_clamps_safety(self):
        # shift = -1: safety baseline scales to 0 (clamped), time doubles,
        # energy gains half -> (2, 0, 1.5)/3 -> k_time = 4/7, k_energy = 3/7.
        w = adjust_coefficients(RiskState(battery=1.0))
        assert w.k_time == pytest.approx(4 / 7)
        assert w.k_safety == 0.0
        assert w.k_energy == pytest.approx(3 / 7)

    def test_weights_sum_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100_000):
            r = rng.random(4)
            w = adjust_coefficients(
                RiskState(wind=r[0], communication=r[1], localization=r[2], battery=r[3])
            )
            total = w.k_time + w.k_safety + w.k_energy
            assert abs(total - 1.0) <= 1e-12
            assert min(w.k_time, w.k_safety, w.k_energy) >= 0.0

    def test_unnormalized_monotonicity(self):
        # Before normalization: time decreases in wind/comm/localization and
        # increases in battery; safety moves the other way; energy is
        # nondecreasing in wind and battery.
        def unnormalized(risks):
            shift = (
                0.5 * risks.wind
                + 0.25 * risks.communication
                + 0.25 * risks.localization
                - risks.battery
            )
            b = 1 / 3
            return (
                b * (1 - shift),
                b * (1 + shift),
                b * (1 + 0.5 * risks.wind + 0.5 * risks.battery),
            )

        base = RiskState(wind=0.4, communication=0.3, localization=0.2, battery=0.3)
        u0 = unnormalized(base)
        for name, sign in (("wind", -1), ("communication", -1), ("localization", -1), ("battery", 1)):
            bumped = RiskState(**{**base.__dict__, name: getattr(base, name) + 0.2})
            u1 = unnormalized(bumped)
            assert sign * (u1[0] - u0[0]) > 0  # time
            assert sign * (u1[1] - u0[1]) < 0  # safety
        # post-normalization ratio follows
        w0 = adjust_coefficients(base)
        w1 = adjust_coefficients(RiskState(**{**base.__dict__, "wind": 0.6}))
        assert w1.k_safety / w1.k_time > w0.k_safety / w0.k_time

    def test_energy_nondecreasing_in_wind_and_battery(self):
        base = RiskState(wind=0.2, battery=0.2)

        def u_energy(risks):
            return (1 / 3) * (1 + 0.5 * risks.wind + 0.5 * risks.battery)

        assert u_energy(RiskState(wind=0.5, battery=0.2)) > u_energy(base)
        assert u_energy(RiskState(wind=0.2, battery=0.5)) > u_energy(base)

    def test_risk_bounds(self):
        with pytest.raises(ValidationError):
            RiskState(wind=1.2)


class TestRankObjectives:
    def test_ascending(self):
        ranks = _competition_ranks(np.array([[1.0, 1, 1], [2, 2, 2], [3, 3, 3]]))
        assert np.array_equal(ranks[:, 0], [0, 1, 2])

    def test_competition_ties(self):
        ranks = _competition_ranks(np.array([[5.0, 0, 0], [5, 1, 1], [7, 2, 2]]))
        assert np.array_equal(ranks[:, 0], [0, 0, 2])

    def test_single(self):
        assert np.array_equal(_competition_ranks(np.array([[4.0, 2, 9]])), [[0, 0, 0]])


class TestVote:
    def test_pure_safety_weight(self):
        front = [cv(1, 0.9, 10), cv(2, 0.1, 20), cv(3, 0.5, 5)]
        assert vote(members(front), direct_weights(0, 1, 0)) == 1

    def test_paper_style_safety_weights(self):
        # Mostly-safety weighting (0.1, 0.5, 0.4) picks the safest member
        # of a front where safety and the other objectives conflict.
        front = [cv(10, 0.8, 5000), cv(12, 0.3, 5600), cv(15, 0.05, 6500)]
        selected = vote(members(front), direct_weights(0.1, 0.5, 0.4))
        assert selected == 2

    def test_tie_breaks_on_safety_then_time(self):
        front = [cv(2, 0.5, 10), cv(1, 0.5, 11), cv(1, 0.2, 12)]
        # weights that produce a score tie between members
        w = direct_weights(0.5, 0.0, 0.5)
        index = vote(members(front), w)
        scores = ranks_of(front) @ np.array([0.5, 0.0, 0.5])
        tied = np.flatnonzero(scores == scores.min())
        assert index in tied
        safeties = [front[i].safety for i in tied]
        assert front[index].safety == min(safeties)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        front = [cv(*c) for c in rng.uniform(1, 10, size=(6, 3))]
        w = direct_weights(0.3, 0.4, 0.3)
        before = vote(members(front), w)
        transformed = [cv(np.exp(c.time_s / 3.0), c.safety, c.energy_j) for c in front]
        assert vote(members(transformed), w) == before

    def test_dominated_never_selected_weight_grid(self):
        rng = np.random.default_rng(8)
        grid = [
            (i / 20, j / 20, (20 - i - j) / 20)
            for i in range(21)
            for j in range(21 - i)
        ]
        for _ in range(40):
            n = int(rng.integers(2, 11))
            front = [cv(*c) for c in rng.uniform(0, 5, size=(n, 3))]
            ranks = ranks_of(front)
            for weights in grid:
                index = vote(members(front), direct_weights(*weights))
                k = np.asarray(weights)
                for other in range(n):
                    if other == index:
                        continue
                    leq = ranks[other] <= ranks[index]
                    strictly = ranks[other] < ranks[index]
                    # weakly rank-dominated with positive weight on a
                    # strictly better objective -> must not be selected
                    if np.all(leq) and np.any(strictly & (k > 0)):
                        pytest.fail(
                            f"selected {index} is weakly rank-dominated by "
                            f"{other} under weights {weights}"
                        )

    def test_empty_front(self):
        with pytest.raises(ValidationError):
            vote(members([]), direct_weights(1, 0, 0))


class TestVotes:
    def test_one_ballot_matches_per_weight_votes_on_ties(self):
        # Costs from {0, 1, 2}: repeated members, tied ranks in every
        # column and tied scores, so each tie-break key decides some picks.
        rng = np.random.default_rng(3)
        front = members([cv(*c) for c in rng.integers(0, 3, size=(30, 3)).astype(float)])
        ranks = ranks_of([m.costs for m in front])
        tied = sum(
            np.count_nonzero(s == s.min()) > 1
            for s in (ranks @ np.array([w.k_time, w.k_safety, w.k_energy]) for w in LATTICE)
        )
        assert tied > 0
        picks = votes(front, LATTICE)
        assert picks == [vote(front, w) for w in LATTICE]
        assert picks == [per_column_vote(front, w) for w in LATTICE]

    def test_matches_reference_on_random_fronts(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 40):
            front = members([cv(*c) for c in rng.uniform(0, 5, size=(n, 3))])
            assert votes(front, LATTICE) == [per_column_vote(front, w) for w in LATTICE]

    def test_no_weights_no_picks(self):
        assert votes(members([cv(1, 1, 1)]), []) == []

    def test_empty_front(self):
        with pytest.raises(ValidationError):
            votes(members([]), LATTICE)
