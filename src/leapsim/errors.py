"""leapsim's error types and the checked reader for its JSON input files.

Every typed leapsim error derives from ``LeapsimError``, so callers (the
CLI in particular) can tell a rejected input from a bug.  It derives
from ValueError because each of these errors reports an unusable value.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["LeapsimError", "InputFileError", "read_json"]


class LeapsimError(ValueError):
    """Base class of every typed leapsim error."""


class InputFileError(LeapsimError):
    """An input file is not valid JSON or has the wrong schema."""


def read_json(path: str | Path, schema: str) -> dict:
    """Parse a leapsim JSON file and check its ``schema`` tag.

    A missing file raises FileNotFoundError as usual.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: not valid JSON ({exc})") from exc
    found = data.get("schema") if isinstance(data, dict) else None
    if found != schema:
        raise InputFileError(f"{path}: expected schema {schema!r}, found {found!r}")
    return data
