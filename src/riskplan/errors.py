"""Exception hierarchy shared by all planner modules."""

from __future__ import annotations


class PlannerError(Exception):
    """Base class for every planner-specific failure."""


class ValidationError(PlannerError):
    """Invalid configuration or input data.

    Carries one message per violation so callers can report all problems
    at once instead of failing on the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CapacityError(PlannerError):
    """A requested grid or buffer exceeds the configured budget."""


class OutOfDomainError(PlannerError):
    """A spatial query fell outside the world model by more than one voxel."""


class ParameterRangeError(PlannerError):
    """A curve parameter lies outside the valid knot range."""


class DecodeError(PlannerError):
    """A decision vector does not match the expected layout arity."""


class FitError(PlannerError):
    """The power-surface fit could not be computed from the given samples."""


class PlanningFailureError(PlannerError):
    """No feasible trajectory could be produced."""
