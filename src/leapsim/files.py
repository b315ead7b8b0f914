"""Reading and writing leapsim's files.

Every JSON file goes through ``write_json`` and every CSV file through
``write_csv``, so the formatting (sorted keys, two-space indent, a
``# schema=...`` first line in CSV) is defined once.  ``fields_dict``
is the one dataclass-to-JSON conversion, and ``encode_array`` /
``decode_array`` the one binary array column format.
"""

from __future__ import annotations

import binascii
import csv
import json
import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InputFileError

__all__ = [
    "read_json",
    "write_json",
    "write_csv",
    "fields_dict",
    "encode_array",
    "decode_array",
]

# the dtypes a binary column may hold, by their little-endian typestr
_ARRAY_DTYPES = {"<f8": np.dtype(np.float64), "<i8": np.dtype(np.int64)}
_ARRAY_KEYS = {"base64", "dtype", "shape"}


def read_json(path: str | Path, schema: str) -> dict:
    """Parse a leapsim JSON file and check its ``schema`` tag.

    A missing file raises FileNotFoundError as usual.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: not valid JSON ({exc})") from exc
    found = data.get("schema") if isinstance(data, dict) else None
    if found != schema:
        raise InputFileError(f"{path}: expected schema {schema!r}, found {found!r}")
    return data


def write_json(path: str | Path, payload) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.

    The bytes are the stdlib's, NaN and infinities included, and so is
    the TypeError for a value or key JSON cannot hold; nothing is
    written when encoding fails.  The stdlib formats an indented
    document with a pure-Python generator one item at a time; this
    encoder formats each list of plain numbers, booleans and nulls with
    one C-level ``json.dumps``.
    """
    parts: list[str] = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    Path(path).write_text("".join(parts))


# items whose compact JSON text never holds ", "
_PLAIN = {float, int, bool, type(None)}


def _encode(value, newline: str, parts: list[str]) -> None:
    """Append ``value`` as indented JSON to ``parts``; ``newline`` is the
    line break plus the indent of the line the value starts on."""
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) <= _PLAIN:
            parts += "[", inner, json.dumps(value)[1:-1].replace(", ", "," + inner)
        else:
            separator = inner
            parts.append("[")
            for item in value:
                parts.append(separator)
                _encode(item, inner, parts)
                separator = "," + inner
        parts += newline, "]"
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = inner
        parts.append("{")
        for key, item in sorted(value.items()):
            parts += separator, _key(key), ": "
            _encode(item, inner, parts)
            separator = "," + inner
        parts += newline, "}"
    else:
        parts.append(json.dumps(value))


def _key(key) -> str:
    """A dict key as the stdlib writes it: a string, or a number, bool
    or null in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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


def encode_array(array: np.ndarray) -> dict:
    """A float64 or int64 array as ``{"dtype", "shape", "base64"}``: its
    little-endian C-order bytes in base64, the inverse of ``decode_array``."""
    array = np.asarray(array)
    code = array.dtype.newbyteorder("<").str
    if code not in _ARRAY_DTYPES:
        raise TypeError(f"only float64 and int64 arrays are encoded, got {array.dtype}")
    data = np.ascontiguousarray(array, dtype=code).tobytes()
    return {
        "dtype": code,
        "shape": list(array.shape),
        "base64": binascii.b2a_base64(data, newline=False).decode("ascii"),
    }


def decode_array(value, name: str) -> np.ndarray:
    """The native-order array an ``encode_array`` object holds.

    Raises InputFileError naming ``name`` unless ``value`` is an object
    with exactly the keys dtype, shape and base64, the dtype is "<f8" or
    "<i8", the shape is a list of non-negative JSON integers, the base64
    text is the canonical encoding of its bytes and the data holds
    exactly 8 bytes per element.
    """
    if not isinstance(value, dict) or value.keys() != _ARRAY_KEYS:
        found = sorted(value) if isinstance(value, dict) else type(value).__name__
        raise InputFileError(
            f"{name} must be an object with keys base64, dtype and shape, got {found}"
        )
    code, shape, text = value["dtype"], value["shape"], value["base64"]
    if not isinstance(code, str) or code not in _ARRAY_DTYPES:
        raise InputFileError(f"{name}: dtype must be '<f8' or '<i8', got {code!r}")
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise InputFileError(
            f"{name}: shape must be a list of non-negative integers, got {json.dumps(shape)}"
        )
    if not isinstance(text, str):
        raise InputFileError(f"{name}: base64 must be a string, got {type(text).__name__}")
    try:
        data = binascii.a2b_base64(text)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise InputFileError(f"{name}: invalid base64 ({exc})") from None
    # a2b_base64 skips stray characters; only the canonical text is accepted
    if binascii.b2a_base64(data, newline=False).decode("ascii") != text:
        raise InputFileError(f"{name}: invalid base64 (not the canonical encoding of its bytes)")
    dtype = _ARRAY_DTYPES[code]
    expected = dtype.itemsize * math.prod(shape)
    if len(data) != expected:
        raise InputFileError(
            f"{name}: {len(data)} bytes of data, shape {shape} needs {expected}"
        )
    return np.frombuffer(data, dtype=code).astype(dtype).reshape(shape)
