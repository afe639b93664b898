"""Exception hierarchy shared by all planner modules, and the file boundary:
``read_input`` is the only reader of an input file, ``output_file`` the only
writer of a result file and ``write_json`` its JSON format. Each turns a bad
path into a ``ValidationError`` that names the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path


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


def read_input(path, what: str, as_json: bool = False):
    """The UTF-8 text of input file ``path``, or its parsed JSON when
    ``as_json``. A missing, unreadable or non-UTF-8 file, or invalid JSON,
    raises ``<path>: not a readable <what> (<reason>)``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except OSError as exc:
        raise ValidationError(f"{path}: not a readable {what} ({exc.strerror or exc})") from exc
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        kind = "invalid JSON: " if isinstance(exc, json.JSONDecodeError) else ""
        raise ValidationError(f"{path}: not a readable {what} ({kind}{exc})") from exc


@contextmanager
def output_file(path, binary: bool = False):
    """Result file ``path`` open for writing, as UTF-8 text or bytes; an
    ``OSError`` (a directory in the way, a full disk) names the file."""
    try:
        with open(path, "wb") if binary else open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"output file {path}: {exc.strerror or exc}") from exc


def write_json(path: Path, data) -> Path:
    """Write ``data`` to ``path`` as JSON: indent 2, sorted keys, no final newline."""
    with output_file(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True))
    return path
