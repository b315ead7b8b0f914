"""Reading and writing leapsim's files.

Every JSON file goes through ``write_json`` and every CSV file through
``write_csv``, so the formatting (sorted keys, two-space indent, a
``# schema=...`` first line in CSV) is defined once.  ``write_json``
writes the standard library's bytes, but it formats each list of plain
numbers (a plan's per-client arrays, a game trace's rows) with orjson,
which writes the same shortest round-trip float digits as ``repr``
about twenty times faster; ``write_json`` says where ``json`` is used
instead.  This is the one module that imports orjson.  ``fields_dict``
is the one dataclass-to-JSON conversion, and ``encode_array`` /
``decode_array`` the one binary array column format.

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
import re
from dataclasses import fields
from itertools import chain
from json.encoder import encode_basestring_ascii
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
    encoder formats each list of plain numbers, booleans and nulls, and
    each list of such non-empty rows (a game trace), with one
    ``orjson.dumps`` whose commas are then re-indented.  orjson writes
    the same integers, booleans, null and shortest round-trip float
    digits as the stdlib, so its text is used as it is; a list in which
    one of its tokens reads otherwise (an exponent, "1e16" for "1e+16"; a
    positional float below 1e-4, "0.00001" for "1e-05"; null for NaN or
    an infinity), or that holds an integer outside 64 bits, is encoded by
    ``json`` instead.

    The file is replaced as the module docstring says: unlinked and
    created anew as UTF-8 text, after the whole document is encoded.
    """
    parts: list[str] = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    _replace(path, "".join(parts), newline=None)


def _replace(path: str | Path, text: str, newline: str | None) -> None:
    """Unlink any file at ``path``, then create it holding ``text`` as UTF-8.

    ``newline`` is ``open``'s: None writes "\\n" as the platform line
    separator, "" writes the text as it is.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "x", encoding="utf-8", newline=newline) as fh:
        fh.write(text)


# items whose compact JSON text never holds ",", "[" or "]"
_PLAIN = {float, int, bool, type(None)}
_ROWS = {list, tuple}


def _plain_rows(value) -> bool:
    """Whether every item of ``value`` is a non-empty list or tuple of plain items."""
    return (
        set(map(type, value)) <= _ROWS
        and all(value)
        and set(map(type, chain.from_iterable(value))) <= _PLAIN
    )


_STDLIB_COMPACT = json.JSONEncoder(separators=(",", ":")).encode
# an "e" that does not end true or false: an orjson exponent, "1e16" or
# "1.5e-7" where the stdlib writes "1e+16" and "1.5e-07"
_EXPONENT = re.compile(rb"e[-+0-9]")


def _compact(value, rows: bool) -> str:
    """``json.dumps(value, separators=(",", ":"))`` for a plain leaf (see
    ``_encode``): a list of rows if ``rows``, else a list of items.

    orjson's text is used unless it holds more null tokens than the leaf
    has None items (it writes NaN and infinities as null), an exponent
    (``_EXPONENT``) or a float in [1e-5, 1e-4) written positionally
    (``_positional_tiny``); such a leaf, and one orjson refuses (an
    integer outside 64 bits), is encoded by the stdlib instead.
    """
    try:
        text = orjson.dumps(value)
    except orjson.JSONEncodeError:
        return _STDLIB_COMPACT(value)
    nulls = text.count(b"null")
    if nulls and nulls > (sum(row.count(None) for row in value) if rows else value.count(None)):
        return _STDLIB_COMPACT(value)
    if _EXPONENT.search(text) or _positional_tiny(text):
        return _STDLIB_COMPACT(value)
    return text.decode("ascii")


def _positional_tiny(text: bytes) -> bool:
    """Whether a token of ``text`` starts "0.0000" or "-0.0000", as orjson
    writes 1e-5 <= |x| < 1e-4 and the stdlib never does (it writes "1e-05")."""
    start = text.find(b"0.0000")
    while start != -1:
        if text[start - 1] in b"[,-":
            return True
        start = text.find(b"0.0000", start + 1)
    return False


def _encode(value, newline: str, parts: list[str]) -> None:
    """Append ``value`` as indented JSON to ``parts``; ``newline`` is the
    line break plus the indent of the line the value starts on.

    A plain leaf, a list of numbers, booleans and nulls or a list of such
    non-empty rows, is formatted whole by ``_compact`` and re-indented at
    its commas."""
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if type(value[0]) in _ROWS and _plain_rows(value):
            # "[[a,b],[c,d]]": items part at ",", then rows at "],["
            deeper = inner + "  "
            rows = _compact(value, rows=True)[2:-2]
            rows = rows.replace(",", "," + deeper)
            rows = rows.replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
            parts += "[", inner, "[", deeper, rows, inner, "]"
        elif set(map(type, value)) <= _PLAIN:
            parts += "[", inner, _compact(value, rows=False)[1:-1].replace(",", "," + inner)
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
    _replace(path, text.getvalue(), newline="")


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
