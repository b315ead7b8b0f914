"""Reading and writing leapsim's files.

Every JSON file goes through ``write_json`` and every CSV file through
``write_csv``, so the formatting (sorted keys, two-space indent, a
``# schema=...`` first line in CSV) is defined once.  ``write_json`` is
one ``orjson.dumps``: UTF-8 with non-ASCII text written raw, and floats
in shortest round-trip digits that ``json.loads`` reads back bit for
bit.  Its bytes are pinned per (Python, numpy, orjson) version, as the
golden manifest's ``env`` records.  orjson writes NaN and infinities as
null, so every float field is checked finite where it is computed, never
by the writer.  This is the one module that imports orjson.
``fields_dict`` is the one dataclass-to-JSON conversion, and
``encode_array`` / ``decode_array`` the one binary array column format.

Both writers build the whole text first and then replace the file: an
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

import binascii
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
    "write_csv",
    "fields_dict",
    "encode_array",
    "decode_array",
]

# the dtypes a binary column may hold, by their little-endian typestr
_ARRAY_DTYPES = {"<f8": np.dtype(np.float64), "<i8": np.dtype(np.int64)}
_ARRAY_KEYS = {"base64", "dtype", "shape"}
_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


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
    """Replace the file with orjson's key-sorted, two-space-indented JSON
    of ``payload`` and a final newline.

    A value or key orjson cannot hold (a numpy scalar, a non-string key,
    an integer outside [-2**63, 2**64)) raises TypeError and nothing is
    written; NaN and infinities would be written as null.
    """
    _replace(path, orjson.dumps(payload, option=_JSON_OPTIONS))


def _replace(path: str | Path, data: bytes) -> None:
    """Unlink any file at ``path``, then create it holding ``data``."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
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


_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _canonical_base64(text: str) -> bytes | None:
    """The bytes ``text`` encodes if it is exactly what ``b2a_base64``
    writes for them (no newline), else None.

    ``a2b_base64`` skips stray characters, so its result alone proves
    nothing.  The canonical text is ASCII, a multiple of 4 long, alphabet
    characters followed by at most two "=", and its last quantum holds
    zero pad bits, which re-encoding that quantum alone checks.
    """
    if not text.isascii() or len(text) % 4:
        return None
    raw = text.encode("ascii")
    pad = raw.translate(None, _BASE64_ALPHABET)  # every non-alphabet character
    if pad not in (b"", b"=", b"==") or not raw.endswith(pad):
        return None
    last = raw[-4:]
    if binascii.b2a_base64(binascii.a2b_base64(last), newline=False) != last:
        return None
    return binascii.a2b_base64(raw)


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
    data = _canonical_base64(text)
    if data is None:
        raise InputFileError(f"{name}: invalid base64 (not the canonical encoding of its bytes)")
    dtype = _ARRAY_DTYPES[code]
    expected = dtype.itemsize * math.prod(shape)
    if len(data) != expected:
        raise InputFileError(
            f"{name}: {len(data)} bytes of data, shape {shape} needs {expected}"
        )
    return np.frombuffer(data, dtype=code).astype(dtype).reshape(shape)
