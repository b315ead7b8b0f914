"""Reading and writing leapsim's files.

Every JSON file goes through ``write_json`` and every CSV file through
``write_csv``, so the formatting (sorted keys, two-space indent, a
``# schema=...`` first line in CSV) is defined once.  ``write_json`` is
one ``orjson.dumps``: UTF-8 with non-ASCII text written raw, and floats
in shortest round-trip digits that ``json.loads`` reads back bit for
bit.  Its bytes are pinned per (Python, numpy, orjson) version, as the
golden manifest's ``env`` records.  orjson writes NaN and infinities as
null, so every float field is checked finite where it is computed, never
by the writer.  A bool, int64 or float64 numpy scalar or C-contiguous
array of one or more dims is written as its ``.tolist()``; other dtypes
as orjson formats them (``np.float32(0.1)`` as ``0.1``).  A 0-d,
non-C-contiguous or byte-swapped array raises TypeError; orjson 3.8
would write the last as wrong numbers, so the writer looks for one once
orjson has encoded the payload.  ``fields_dict`` gives none of the three.
``json_bytes`` lets a reader refuse what orjson cannot write.  This is
the one module that imports orjson.
``fields_dict`` is the one dataclass-to-JSON conversion, and
``write_columns`` / ``read_columns`` the one binary format: a line of
compact JSON, then float64 and int64 columns as raw little-endian bytes.

Every writer encodes and checks its whole payload before it touches the
file, and then replaces it: an existing file at the path is unlinked and
a new one created, never truncated and rewritten.  Columns are written
from the arrays' own memory, with no copy unless a column is not
little-endian and C-ordered.  On ext4 (``auto_da_alloc``, its default) a
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
import os
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
_JSON_OPTIONS = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
                 | orjson.OPT_SERIALIZE_NUMPY)


def _check_schema(path: str | Path, data, schema: str) -> None:
    found = data.get("schema") if isinstance(data, dict) else None
    if found != schema:
        raise InputFileError(f"{path}: expected schema {schema!r}, found {found!r}")


def read_json(path: str | Path, schema: str, keys: tuple[str, ...]) -> dict:
    """Parse a leapsim JSON file of this ``schema`` and no key outside ``keys``.

    A missing file raises FileNotFoundError as usual.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # not JSON, or an integer of more digits than int() takes
        raise InputFileError(f"{path}: not valid JSON ({exc})") from exc
    _check_schema(path, data, schema)
    unknown = sorted(data.keys() - {"schema", *keys})
    if unknown:
        raise InputFileError(f"{path}: unknown keys {unknown}, expected {list(keys)}")
    return data


def json_bytes(payload) -> bytes:
    """The bytes ``write_json`` writes for ``payload``, or its TypeError."""
    data = orjson.dumps(payload, option=_JSON_OPTIONS)
    # a second pass with no numpy support hands every numpy value to
    # ``default``, at orjson's speed, to look for a byte-swapped array
    swapped = []
    orjson.dumps(payload, default=lambda value: swapped.append(
        isinstance(value, np.ndarray) and not value.dtype.isnative))
    if any(swapped):
        raise TypeError("a numpy array of non-native byte order would be written as wrong numbers")
    return data


def write_json(path: str | Path, payload) -> None:
    """Replace the file with orjson's key-sorted, two-space-indented JSON
    of ``payload`` and a final newline.

    numpy values are written as the module docstring says.  A value or
    key orjson cannot hold (a 0-d, non-C-contiguous or byte-swapped array,
    a non-string key, an integer outside [-2**63, 2**64)) raises TypeError and nothing
    is written; NaN and infinities would be written as null.
    """
    _replace(path, json_bytes(payload))


def _replace(path: str | Path, *chunks) -> None:
    """Unlink any file at ``path``, then create it holding ``chunks``
    (bytes-like objects, C-contiguous) one after another."""
    Path(path).unlink(missing_ok=True)
    with open(path, "xb") as fh:
        fh.writelines(chunks)


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
    if not isinstance(value, (np.ndarray, np.generic)):
        return value
    if value.ndim == 0:
        return value.item()
    return np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("="))


def fields_dict(obj) -> dict:
    """A dataclass instance as {field name: value}, for ``write_json``.

    A numpy scalar or 0-d array becomes a Python number.  Any other array
    stays an array, copied only when it is not C-contiguous or not in
    native byte order, the memory layout orjson reads.

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
        # a little-endian C-order column is written as it is, not copied
        data.append(np.ascontiguousarray(array, dtype=code))
    _replace(path, orjson.dumps({**header, key: specs}), b"\n", *data)


def read_columns(path: str | Path, schema: str, key: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the columns of a ``write_columns`` file, read at once.

    Raises InputFileError unless the first line is UTF-8 JSON with the
    given ``schema``, ``key`` maps names to objects with exactly a dtype
    ("<f8" or "<i8") and a shape (a list of non-negative JSON integers),
    and the rest of the file is exactly those columns in the header's
    order.  The arrays are native-order, writable, aligned arrays in one
    block private to the call."""
    with open(path, "rb") as fh:
        line = fh.readline()
        # the rest of the file in one read, into a block aligned for 8-byte
        # items; each column starts a multiple of 8 bytes into it
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        block = np.empty(-(-size // 8), np.int64).view(np.uint8)[:size]
        size = fh.readinto(block)  # a short read counts as what arrived
    try:
        if not line.endswith(b"\n"):
            raise ValueError("no line break ends it")
        header = json.loads(line[:-1].decode("utf-8"))
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
    columns, start = {}, 0
    for i, (name, code, shape, need) in enumerate(layout, 1):
        have = size - start if i == len(layout) else min(need, size - start)
        if have != need:
            raise InputFileError(
                f"{path}: {key}.{name}: {have} bytes of data, shape {shape} needs {need}"
            )
        array = block[start:start + need].view(code)
        columns[name] = array.astype(_COLUMN_DTYPES[code], copy=False).reshape(shape)
        start += need
    if start != size:
        raise InputFileError(f"{path}: the header lists no columns, yet {size - start} "
                             "bytes follow it")
    return header, columns
