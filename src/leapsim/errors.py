"""leapsim's error types and the checks that raise them.

Every typed leapsim error derives from ``LeapsimError``, so callers (the
CLI in particular) can tell a rejected input from a bug.  It derives
from ValueError because each of these errors reports an unusable value.

``check_integer``, ``check_number`` and ``integer_array`` raise the
caller's error type, passed as ``error`` (InvalidValueError by default),
with the same message whatever the type.  ``described`` is the one
description of a refused value.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "LeapsimError",
    "InputFileError",
    "InvalidValueError",
    "InvalidPartitionError",
    "TrainingDivergedError",
    "check_integer",
    "check_number",
    "check_seed",
    "described",
    "integer_array",
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


def check_integer(
    name: str, value, minimum: int, error: type[LeapsimError] = InvalidValueError
) -> None:
    """Raise ``error`` unless ``value`` is an integer in [``minimum``, 2**63).

    Python and numpy integers pass; floats (``2.0`` included), bools and
    every other type are refused rather than truncated or cast.
    """
    if type(value) is int and -(2**63) <= value < 2**63 and value >= minimum:
        return  # a plain int in range, answered without the ABC checks below
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be at least {minimum}, got {value}")
    check_number(name, value, error)


def check_number(name: str, value, error: type[LeapsimError] = InvalidValueError) -> None:
    """Raise ``error`` unless ``value`` is a finite real number: not a
    bool, and an integer only within the int64 range, which both a
    column and a JSON file hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        raise error(f"{name} is an integer too large for a float") from None
    if not finite:
        raise error(f"{name} must be finite, got {value!r}")
    if isinstance(value, numbers.Integral) and not -(2**63) <= value < 2**63:
        raise error(f"{name} is an integer too large for an int64, got {value}")


def check_seed(name: str, value) -> int:
    """``value`` as a plain int; InvalidValueError unless it is an integer in
    [0, 2**64), the seeds numpy's generators and the JSON writer take.

    Python and numpy integers pass; bools, floats and strings are
    refused rather than cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not (
        0 <= value < 2**64
    ):
        raise InvalidValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def described(value) -> str:
    """A refused value in one line: an array by dtype and shape, else its type name."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype} of shape {value.shape}"
    return type(value).__name__


def integer_array(
    value, requirement: str, error: type[LeapsimError] = InvalidValueError
) -> np.ndarray:
    """``value`` as an ndarray of an integer dtype, never cast.

    Raises ``error``, "<requirement>, got ...", for any other dtype, for
    a ragged nesting of lists and for a list that holds a bool, which
    numpy would read as an integer (``[0, True]`` is int64).  An ndarray
    is taken as it is, with no scan of its entries."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # a ragged nesting of lists
        raise error(f"{requirement} ({exc})") from None
    if array.dtype.kind not in "iu":
        raise error(f"{requirement}, got {described(array)}")
    entry_types = () if array is value else set(map(type, np.asarray(value, dtype=object).flat))
    if any(issubclass(entry_type, (bool, np.bool_)) for entry_type in entry_types):
        raise error(f"{requirement}, got a bool entry")
    return array
