"""Reading and writing leapsim's files.

Every JSON file goes through ``write_json`` and every CSV file through
``write_csv``, so the formatting (sorted keys, two-space indent, a
``# schema=...`` first line in CSV) is defined once.  ``write_json`` is
one ``orjson.dumps``: UTF-8 with non-ASCII text written raw, and floats
in shortest round-trip digits that ``json.loads`` reads back bit for
bit.  Its bytes are pinned per (Python, numpy, orjson) version, as the
golden manifest's ``env`` records.  orjson writes NaN and infinities as
null, so every float field is checked finite where it is computed, never
by the writer.  ``json_bytes`` lets a reader refuse what orjson cannot
write.  This is the one module that imports orjson.
``fields_dict`` is the one dataclass-to-JSON conversion, and
``write_columns`` / ``read_columns`` the one binary format: a line of
compact JSON, then float64 and int64 columns as raw little-endian bytes.

Every writer builds the whole file in memory and then replaces it: an
existing file at the path is unlinked and a new one created, never
truncated and rewritten.  On ext4 (``auto_da_alloc``, its default) a
file truncated to zero is flushed to disk when it is closed, and the
next truncation of the same path waits for that flush, so rerunning a
command into the same directory used to stall on disk writeback for
each file.  A symlink at the path is therefore replaced, not followed; a
read-only file in a writable directory is replaced; and a reader that
holds the old file open keeps reading the old bytes.  A payload that
fails to encode, or a row that raises, leaves the old file as it was.
A module-wide test keeps every other module from writing files itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np
import orjson

from .errors import InputFileError

__all__ = [
    "read_json",
    "write_json",
    "json_bytes",
    "write_csv",
    "fields_dict",
    "write_columns",
    "read_columns",
]

# the dtypes a binary column may hold, by their little-endian typestr
_COLUMN_DTYPES = {"<f8": np.dtype(np.float64), "<i8": np.dtype(np.int64)}
_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


def _check_schema(path: str | Path, data, schema: str) -> None:
    found = data.get("schema") if isinstance(data, dict) else None
    if found != schema:
        raise InputFileError(f"{path}: expected schema {schema!r}, found {found!r}")


def read_json(path: str | Path, schema: str) -> dict:
    """Parse a leapsim JSON file and check its ``schema`` tag.

    A missing file raises FileNotFoundError as usual.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # not JSON, or an integer of more digits than int() takes
        raise InputFileError(f"{path}: not valid JSON ({exc})") from exc
    _check_schema(path, data, schema)
    return data


def json_bytes(payload) -> bytes:
    """The bytes ``write_json`` writes for ``payload``, or its TypeError."""
    return orjson.dumps(payload, option=_JSON_OPTIONS)


def write_json(path: str | Path, payload) -> None:
    """Replace the file with orjson's key-sorted, two-space-indented JSON
    of ``payload`` and a final newline.

    A value or key orjson cannot hold (a numpy scalar, a non-string key,
    an integer outside [-2**63, 2**64)) raises TypeError and nothing is
    written; NaN and infinities would be written as null.
    """
    _replace(path, json_bytes(payload))


def _replace(path: str | Path, data: bytes) -> None:
    """Unlink any file at ``path``, then create it holding ``data``."""
    Path(path).unlink(missing_ok=True)
    with open(path, "xb") as fh:
        fh.write(data)


def write_csv(path: str | Path, schema: str, header: list[str], rows: Iterable) -> None:
    """One ``# schema=`` line, the header, then the rows; floats print as repr.

    The rows are formatted in memory and the file is then replaced as the
    module docstring says, as UTF-8 text with the csv module's "\\r\\n"
    row endings; a row that raises leaves the old file as it was.
    """
    text = io.StringIO()
    text.write(f"# schema={schema}\n")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    _replace(path, text.getvalue().encode("utf-8"))


def _plain(value):
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def fields_dict(obj) -> dict:
    """A dataclass instance as {field name: value}, numpy values as plain Python.

    Shallow: nested dataclasses and tuples are kept as they are.
    """
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}


def write_columns(path: str | Path, header: dict, key: str, columns: dict) -> None:
    """Replace the file with ``header``, plus ``key`` mapping each column's
    name to its dtype and shape, as one line of compact JSON (which holds
    no raw newline), a newline, then each column's little-endian C-order
    bytes; ``read_columns`` is the inverse.  A column that is not float64
    or int64 raises TypeError and nothing is written."""
    specs, data = {}, []
    for name, array in columns.items():
        array = np.asarray(array)
        code = array.dtype.newbyteorder("<").str
        if code not in _COLUMN_DTYPES:
            raise TypeError(f"{name}: only float64 and int64 columns are written, got {code}")
        specs[name] = {"dtype": code, "shape": list(array.shape)}
        data.append(np.ascontiguousarray(array, dtype=code).tobytes())
    _replace(path, b"".join([orjson.dumps({**header, key: specs}), b"\n", *data]))


def read_columns(path: str | Path, schema: str, key: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the columns of a ``write_columns`` file, read at once.

    Raises InputFileError unless the first line is UTF-8 JSON with the
    given ``schema``, ``key`` maps names to objects with exactly a dtype
    ("<f8" or "<i8") and a shape (a list of non-negative JSON integers),
    and the rest of the file is exactly those columns in the header's
    order.  The arrays are native-order, writable copies."""
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    try:
        if end < 0:
            raise ValueError("no line break ends it")
        header = json.loads(data[:end].decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, an integer of too many digits
        raise InputFileError(
            f"{path}: not a {schema!r} file: its first line is not a JSON header ({exc})"
        ) from exc
    _check_schema(path, header, schema)
    specs = header.get(key)
    if not isinstance(specs, dict):
        raise InputFileError(f"{path}: {key} must be an object, got {type(specs).__name__}")
    layout = []
    for name, spec in specs.items():
        where = f"{path}: {key}.{name}"
        if not isinstance(spec, dict) or spec.keys() != {"dtype", "shape"}:
            found = sorted(spec) if isinstance(spec, dict) else type(spec).__name__
            raise InputFileError(
                f"{where} must be an object with keys dtype and shape, got {found}"
            )
        code, shape = spec["dtype"], spec["shape"]
        if not isinstance(code, str) or code not in _COLUMN_DTYPES:
            raise InputFileError(f"{where}: dtype must be '<f8' or '<i8', got {code!r}")
        if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
            raise InputFileError(
                f"{where}: shape must be a list of non-negative integers, got {json.dumps(shape)}"
            )
        layout.append((name, code, shape, 8 * math.prod(shape)))
    # each column starts where the one before ends, and the last one ends the file
    columns, start = {}, end + 1
    for i, (name, code, shape, need) in enumerate(layout, 1):
        have = len(data) - start if i == len(layout) else min(need, len(data) - start)
        if have != need:
            raise InputFileError(
                f"{path}: {key}.{name}: {have} bytes of data, shape {shape} needs {need}"
            )
        array = np.frombuffer(data, code, need // 8, start)
        columns[name] = array.astype(_COLUMN_DTYPES[code]).reshape(shape)
        start += need
    if start != len(data):
        raise InputFileError(f"{path}: the header lists no columns, yet {len(data) - start} "
                             "bytes follow it")
    return header, columns
