"""leapsim's error types.

Every typed leapsim error derives from ``LeapsimError``, so callers (the
CLI in particular) can tell a rejected input from a bug.  It derives
from ValueError because each of these errors reports an unusable value.
"""

from __future__ import annotations

__all__ = ["LeapsimError", "InputFileError", "InvalidValueError", "InvalidPartitionError"]


class LeapsimError(ValueError):
    """Base class of every typed leapsim error."""


class InputFileError(LeapsimError):
    """An input file is not valid JSON, has the wrong schema or disagrees with the others."""


class InvalidValueError(LeapsimError):
    """An argument, a configuration value or a client field lies outside its domain."""


class InvalidPartitionError(LeapsimError):
    """A partition misses, repeats or misnumbers a client, or leaves a coalition empty."""
