"""leapsim's error types.

Every typed leapsim error derives from ``LeapsimError``, so callers (the
CLI in particular) can tell a rejected input from a bug.  It derives
from ValueError because each of these errors reports an unusable value.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "LeapsimError",
    "InputFileError",
    "InvalidValueError",
    "InvalidPartitionError",
    "TrainingDivergedError",
    "check_integer",
    "check_number",
]


class LeapsimError(ValueError):
    """Base class of every typed leapsim error."""


class InputFileError(LeapsimError):
    """An input file is not valid JSON, has the wrong schema or disagrees with the others."""


class InvalidValueError(LeapsimError):
    """An argument, a configuration value or a client field lies outside its domain."""


class InvalidPartitionError(LeapsimError):
    """A partition misses, repeats or misnumbers a client, or leaves a coalition empty."""


class TrainingDivergedError(LeapsimError, FloatingPointError):
    """Training left a parameter non-finite; the learning rate is too high."""


def check_integer(name: str, value, minimum: int) -> None:
    """Raise InvalidValueError unless ``value`` is an integer in [``minimum``, 2**63).

    Python and numpy integers pass; floats (``2.0`` included), bools and
    every other type are refused rather than truncated or cast.
    """
    if type(value) is int and -(2**63) <= value < 2**63 and value >= minimum:
        return  # a plain int in range, answered without the ABC checks below
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidValueError(f"{name} must be at least {minimum}, got {value}")
    check_number(name, value)


def check_number(name: str, value) -> None:
    """Raise InvalidValueError unless ``value`` is a finite real number:
    not a bool, and an integer only within the int64 range, which both a
    column and a JSON file hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        raise InvalidValueError(f"{name} is an integer too large for a float") from None
    if not finite:
        raise InvalidValueError(f"{name} must be finite, got {value!r}")
    if isinstance(value, numbers.Integral) and not -(2**63) <= value < 2**63:
        raise InvalidValueError(f"{name} is an integer too large for an int64, got {value}")
