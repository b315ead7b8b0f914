"""Reading and writing leapsim's files.

Every JSON file goes through ``write_json`` and every CSV file through
``write_csv``, so the formatting (sorted keys, two-space indent, a
``# schema=...`` first line in CSV) is defined once.  ``fields_dict``
is the one dataclass-to-JSON conversion.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InputFileError

__all__ = ["read_json", "write_json", "write_csv", "fields_dict"]


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


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path: str | Path, schema: str, header: list[str], rows: Iterable) -> None:
    """One ``# schema=`` line, the header, then the rows; floats print as repr."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _plain(value):
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def fields_dict(obj) -> dict:
    """A dataclass instance as {field name: value}, numpy values as plain Python.

    Shallow: nested dataclasses and tuples are kept as they are.
    """
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
