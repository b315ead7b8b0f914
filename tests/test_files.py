import ast
import dataclasses
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from leapsim.errors import InputFileError
from leapsim.experiment import write_game_trace
from leapsim.files import (
    check_keys,
    fields_dict,
    json_bytes,
    read_columns,
    read_json,
    write_columns,
    write_csv,
    write_json,
)


SRC = Path(__file__).resolve().parents[1] / "src"


class Pairs(list):
    """A JSON object as ``json.loads`` reads it here: its (key, value)
    pairs in file order."""


def read_back(path):
    """The JSON file at ``path``, which must be UTF-8, its objects as Pairs."""
    return json.loads(path.read_bytes().decode("utf-8"), object_pairs_hook=Pairs)


def as_written(value):
    """``value`` as ``write_json`` promises to write it: a tuple as a list,
    and NaN and the infinities as null."""
    if isinstance(value, dict):
        return {key: as_written(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_written(item) for item in value]
    if type(value) is float and not math.isfinite(value):
        return None
    return value


def same(read, value) -> bool:
    """Whether ``read`` (from ``read_back``) is ``value`` (plain JSON types,
    lists, str-keyed dicts): the same types, the same float bits, and each
    object's keys in sorted order."""
    if isinstance(value, dict):
        return (
            type(read) is Pairs
            and [key for key, _ in read] == sorted(value)
            and all(same(item, value[key]) for key, item in read)
        )
    if isinstance(value, list):
        return type(read) is list and len(read) == len(value) and all(map(same, read, value))
    if type(value) is float:
        return type(read) is float and struct.pack("<d", read) == struct.pack("<d", value)
    return type(read) is type(value) and read == value


def written(tmp_path, payload):
    path = tmp_path / "out.json"
    write_json(path, payload)
    return read_back(path)


_EXAMPLES = itertools.count()


def fresh_path(tmp_path_factory, name: str) -> Path:
    """A path in the test run's base directory that no earlier call gave,
    so that no hypothesis example replaces the file of an earlier one and
    waits on the disk for it."""
    return tmp_path_factory.getbasetemp() / f"{next(_EXAMPLES)}_{name}"


def bytes_written(tmp_path_factory, payload) -> bytes:
    """What ``write_json`` writes for ``payload`` into a new file."""
    path = tmp_path_factory.mktemp("fresh") / "out.json"
    write_json(path, payload)
    return path.read_bytes()


# the subnormal ends, the float range's ends, and the exponents orjson and
# the stdlib write differently ("1e-7" and "1e-07", "1e16" and "1e+16")
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300,
    -1e-300, 0.1, 1e16, 1e-5, 1e-7, 9.999999999999999e-05, 1e-4, 9999999999999998.0,
]
EDGE_TEXTS = ["", "comma, space", "é", "日本語", "\x00\x1f\x7f", "tab\tquote\"back\\slash", " ",
              "\u2028", "🙂"]

floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
texts = st.text() | st.sampled_from(EDGE_TEXTS)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**63), 2**64 - 1), floats, texts,
)
json_values = st.recursive(
    scalars | st.lists(floats, max_size=20),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


@given(payload=json_values)
@settings(max_examples=300, deadline=None)
def test_write_json_round_trips_bit_for_bit(tmp_path_factory, payload):
    path = fresh_path(tmp_path_factory, "round_trip.json")
    write_json(path, payload)
    assert path.read_bytes().endswith(b"\n")
    assert same(read_back(path), as_written(payload))


@pytest.mark.parametrize("payload", [
    [],
    {},
    {"a": [], "b": {}, "c": ()},
    [[0, 3, 1, None, 0.25], [1, 4, 1, 2, 0.125]],  # game-trace rows
    [1.0, 2, True, None, "x"],
    [True, 1, 1.0],
    {1: "int", 2.5: "float", -math.inf: "inf"},
    {True: 1},
    {None: 1},
    [math.nan, math.inf, -math.inf, 1.5],
    math.nan,
    "top-level é",
    (1, (2.0, ("three",))),
])
def test_write_json_fixed_cases(tmp_path, payload):
    """NaN and the infinities are written as null (every producer refuses
    them, see ``finite_json``), and a key that is not a string raises."""
    if isinstance(payload, dict) and not all(isinstance(key, str) for key in payload):
        with pytest.raises(TypeError):
            write_json(tmp_path / "out.json", payload)
        assert not (tmp_path / "out.json").exists()
    else:
        assert same(written(tmp_path, payload), as_written(payload))


def test_write_json_writes_non_ascii_text_as_utf8(tmp_path):
    write_json(tmp_path / "out.json", {"é": ["日本", "\u2028"]})
    assert (tmp_path / "out.json").read_bytes() == (
        '{\n  "é": [\n    "日本",\n    "\u2028"\n  ]\n}\n'.encode("utf-8")
    )


class Unknown:
    pass


@pytest.mark.parametrize("payload", [
    np.array(3),  # 0-d
    [1.0, np.arange(3)[::2]],  # not C-contiguous
    {"a": {1, 2}},
    {"a": np.array(True)},
    [Unknown()],
    {(1, 2): 3},
    {1: "a", "b": 2},
    {"a": b"bytes"},
])
def test_write_json_raises_type_error_where_the_stdlib_does(tmp_path, payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", payload)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("payload", [
    np.arange(6.0).reshape(2, 3).T,  # not C-contiguous
    {"a": [1.0, np.array(2.5)]},  # 0-d
    {1: "a"},
    {"a": {None: 1}},
    2**64,
    [-(2**63) - 1],
    "\ud83d",  # a lone surrogate is not UTF-8
])
def test_write_json_raises_type_error_on_what_orjson_refuses(tmp_path, payload):
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", payload)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("dtype", ["f8", "i8"])
@pytest.mark.parametrize("place", ["top", "dict", "list", "tuple"])
def test_json_bytes_refuses_a_byte_swapped_array_and_writes_the_native_one(
    tmp_path, dtype, place
):
    """orjson 3.8 reads a byte-swapped array's memory as native, so
    ``[1.0, 2.0]`` as ">f8" would be written ``[3.03865e-319,3.16e-322]``:
    the writer refuses it, wherever it sits, and writes the native one as
    its list."""
    def placed(array):
        return {"top": array, "dict": {"a": {"b": array}}, "list": [1, [array]],
                "tuple": (1, (array,))}[place]

    swapped, native = (np.array([1, 2], dtype=order + dtype) for order in (">", "<"))
    assert not swapped.dtype.isnative and native.dtype.isnative  # a little-endian host
    with pytest.raises(TypeError, match="non-native byte order"):
        write_json(tmp_path / "out.json", placed(swapped))
    assert not (tmp_path / "out.json").exists()
    assert json_bytes(placed(native)) == json_bytes(placed(native.tolist()))


def listed(value):
    """``value`` with every numpy array and scalar inside dicts and lists
    as its ``.tolist()``."""
    if isinstance(value, dict):
        return {key: listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [listed(item) for item in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


@pytest.mark.parametrize("payload", [
    np.int64(3),
    [1.0, np.int64(2)],
    {"a": np.bool_(True)},
    np.float64(1.5),
    {"a": [1.0, np.float64(2.5)]},
    np.uint64(2**64 - 1),
])
def test_write_json_writes_numpy_scalars_as_python_numbers(tmp_path_factory, payload):
    assert bytes_written(tmp_path_factory, payload) == bytes_written(
        tmp_path_factory, listed(payload)
    )


def test_write_json_writes_other_dtypes_as_orjson_formats_them(tmp_path):
    # np.float32(0.1).item() is 0.10000000149011612
    write_json(tmp_path / "out.json", {"f": np.float32(0.1), "a": np.array([0.1], np.float32)})
    assert (tmp_path / "out.json").read_bytes() == b'{\n  "a": [\n    0.1\n  ],\n  "f": 0.1\n}\n'


# float64 bit patterns orjson and repr() write in exponent form, and the ends
EDGE_BITS = np.array(
    EDGE_FLOATS + [1e17, 1e21, 1e22, -math.inf, math.inf, math.nan], dtype=np.float64
).view(np.uint64).tolist()


@st.composite
def numpy_payloads(draw):
    """(a dict of one to four bool, int64 or float64 arrays of 0 to 3 dims
    (empty sides included, every float64 bit pattern), each at the top or
    inside a list or a nested dict; whether one of them is 0-d)."""
    payload, zero_d = {}, False
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["bool", "int64", "float64"]))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        if kind == "float64":
            bits = st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_BITS)
            array = draw(hnp.arrays(np.uint64, shape, elements=bits)).view(np.float64)
        else:
            array = draw(hnp.arrays(np.dtype(kind), shape))
        payload[f"c{i}"] = draw(st.sampled_from([array, [1, array], {"x": array}]))
        zero_d |= array.ndim == 0
    return payload, zero_d


RANDOM_BITS = np.random.default_rng(0).integers(0, 2**64, 100_000, dtype=np.uint64)


@given(drawn=numpy_payloads())
@example(drawn=({"bits": RANDOM_BITS.view(np.float64)}, False))
@settings(max_examples=200, deadline=None)
def test_json_bytes_writes_numpy_arrays_as_their_lists(drawn):
    """An array of one or more dims is written as its ``.tolist()``; a
    0-d one is refused."""
    payload, zero_d = drawn
    if zero_d:
        with pytest.raises(TypeError):
            json_bytes(payload)
    else:
        assert json_bytes(payload) == json_bytes(listed(payload))


@dataclasses.dataclass
class Fields:
    swapped: np.ndarray
    strided: np.ndarray
    zero_d: np.ndarray
    scalar: np.generic
    kept: np.ndarray


def test_fields_dict_gives_arrays_orjson_writes_as_their_lists():
    """orjson refuses a strided array and reads a byte-swapped one as
    native-endian, so fields_dict hands it native, C-contiguous arrays;
    one that is both already is kept, not copied."""
    kept = np.arange(4.0)
    obj = Fields(
        swapped=np.array([1.0, -2.5], dtype=">f8"), strided=np.arange(6).reshape(2, 3).T,
        zero_d=np.array(0.1), scalar=np.int64(7), kept=kept,
    )
    found = fields_dict(obj)
    assert found["zero_d"] == 0.1 and type(found["zero_d"]) is float
    assert found["scalar"] == 7 and type(found["scalar"]) is int
    assert np.shares_memory(found["kept"], kept)
    assert json_bytes(found) == json_bytes(listed(dataclasses.asdict(obj)))


@st.composite
def column_sets(draw):
    """Up to four float64 or int64 arrays of any byte order, 0 to 3 dims
    (empty sides included), every float bit pattern allowed."""
    columns = {}
    for i in range(draw(st.integers(0, 4))):
        dtype = np.dtype(draw(st.sampled_from(["<f8", ">f8", "<i8", ">i8"])))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        elements = (st.floats(width=64) | st.sampled_from(EDGE_FLOATS)
                    if dtype.kind == "f" else st.integers(-(2**63), 2**63 - 1))
        columns[f"c{i}"] = draw(hnp.arrays(dtype, shape, elements=elements))
    return columns


@given(columns=column_sets())
@example(columns={"x": np.array([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 2, np.nan]),
                  "t": np.arange(6.0).reshape(2, 3).T})  # not C-contiguous
@example(columns={"e": np.empty((2, 0)), "i": np.arange(3), "z": np.empty(0, dtype=">i8"),
                  "s": np.array(2.5)})  # zero-size columns between others, and a 0-d one
@settings(max_examples=200, deadline=None)
def test_columns_round_trip_bit_for_bit(tmp_path_factory, columns):
    path = fresh_path(tmp_path_factory, "columns.bin")
    header = {"schema": "s", "note": "a\nb é"}  # a newline in a string stays escaped
    write_columns(path, header, "clients", columns)
    # the layout: one line of JSON, then the columns' little-endian C-order bytes
    line, _, payload = path.read_bytes().partition(b"\n")
    line = json.loads(line)
    little = {name: a.astype(a.dtype.newbyteorder("<"), order="C") for name, a in columns.items()}
    assert line == {**header, "clients": {
        name: {"dtype": a.dtype.str, "shape": list(a.shape)} for name, a in little.items()
    }}
    assert payload == b"".join(a.tobytes() for a in little.values())
    read, again = read_columns(path, "s", "clients")
    assert read == line and list(again) == list(columns)
    for name, array in again.items():
        assert array.dtype == little[name].dtype.newbyteorder("=") and array.flags.writeable
        assert array.shape == little[name].shape and array.tobytes() == little[name].tobytes()
    # every array is aligned, C-ordered and writable, and none shares memory with another
    assert all(a.flags.aligned and a.flags.c_contiguous for a in again.values())
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(again.values(), 2))


@pytest.mark.parametrize("array", [
    np.array([1.5, -0.0, 5e-324, 1e300]),
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.arange(6.0).reshape(2, 3).T,  # not C-contiguous
    np.array([2.5, 3.5], dtype=">f8"),  # big-endian in memory
    np.empty((0, 3)),
])
def test_encode_decode_round_trip_is_bit_exact(tmp_path, array):
    """One column through ``write_columns`` and ``read_columns``."""
    write_columns(tmp_path / "out.bin", {"schema": "s"}, "clients", {"x": array})
    header, again = read_columns(tmp_path / "out.bin", "s", "clients")
    column = header["clients"]["x"]
    assert column["dtype"] in ("<f8", "<i8") and column["shape"] == list(array.shape)
    again = again["x"]
    assert again.dtype == array.dtype.newbyteorder("=") and again.flags.writeable
    assert again.tobytes() == np.ascontiguousarray(array, dtype=again.dtype).tobytes()


def test_encode_array_refuses_other_dtypes(tmp_path):
    """``write_columns`` writes float64 and int64 columns only, and
    nothing at all when one column is of another dtype."""
    path = tmp_path / "out.bin"
    for array in (np.zeros(2, dtype=np.float32), np.zeros(2, dtype=bool), np.array(["a"]),
                  np.zeros(2, dtype=np.int32)):
        with pytest.raises(TypeError, match="only float64 and int64 columns"):
            write_columns(path, {"schema": "s"}, "clients", {"x": array})
    assert not path.exists()


GOOD = {"dtype": "<f8", "shape": [2]}


@pytest.mark.parametrize("column, words", [
    ([1.0, 2.0], "clients.x: expected an object, got list"),
    ({"dtype": "<f8"}, "missing keys ['shape'], expected ['dtype', 'shape']"),
    ({**GOOD, "base64": "", "order": "C"},
     "unknown keys ['base64', 'order'], expected ['dtype', 'shape']"),
    ({**GOOD, "dtype": ">f8"}, "dtype must be '<f8' or '<i8', got '>f8'"),
    ({**GOOD, "dtype": "<f4"}, "dtype must be '<f8' or '<i8', got '<f4'"),
    ({**GOOD, "dtype": ["<f8"]}, "dtype must be '<f8' or '<i8', got ['<f8']"),
    ({**GOOD, "shape": 2}, "shape must be a list of non-negative integers, got 2"),
    ({**GOOD, "shape": [True, 2]}, "shape must be a list of non-negative integers, got [true, 2]"),
    ({**GOOD, "shape": [2.0]}, "shape must be a list of non-negative integers, got [2.0]"),
    ({**GOOD, "shape": [-2, -1]}, "shape must be a list of non-negative integers, got [-2, -1]"),
    ({**GOOD, "dtype": None}, "dtype must be '<f8' or '<i8', got None"),
    ({**GOOD, "shape": None}, "shape must be a list of non-negative integers, got null"),
    ({**GOOD, "shape": ["2"]}, 'shape must be a list of non-negative integers, got ["2"]'),
    ({**GOOD, "shape": [0]}, "16 bytes of data, shape [0] needs 0"),
    ({**GOOD, "shape": [1, 3]}, "16 bytes of data, shape [1, 3] needs 24"),
    ({**GOOD, "shape": [2**62, 2**62]}, "needs 170141183460469231731687303715884105728"),
    ({**GOOD, "shape": [3]}, "16 bytes of data, shape [3] needs 24"),
    ({**GOOD, "shape": [1]}, "16 bytes of data, shape [1] needs 8"),
    ({**GOOD, "shape": []}, "16 bytes of data, shape [] needs 8"),
])
def test_decode_array_refusals_name_the_column(tmp_path, column, words):
    """``read_columns`` refuses a file whose one column ``x`` is declared
    as ``column`` and holds 16 bytes, naming the file and the column."""
    path = tmp_path / "out.bin"
    header = json.dumps({"schema": "s", "clients": {"x": column}})
    path.write_bytes(header.encode() + b"\n" + np.array([1.0, 2.0]).astype("<f8").tobytes())
    where = re.escape(f"{path}: clients.x") + ".*"
    with pytest.raises(InputFileError, match=where + re.escape(words.removeprefix("clients.x"))):
        read_columns(path, "s", "clients")


@pytest.mark.parametrize("data, words", [
    (b"", "its first line is not a JSON header (no line break ends it)"),
    (b'{"schema": "s", "clients": {}}', "(no line break ends it)"),
    (b'{"schema": "s",\n "clients": {}}\n', "its first line is not a JSON header (Expecting"),
    (b'{"schema": "\xff", "clients": {}}\n', "its first line is not a JSON header ('utf-8'"),
    (b'{"schema": 1' + b"0" * 5000 + b"}\n", "its first line is not a JSON header (Exceeds"),
    (b'{"schema": "t", "clients": {}}\n', "expected schema 's', found 't'"),
    (b'["s"]\n', "expected schema 's', found None"),
    (b'{"schema": "s"}\n', "clients must be an object, got NoneType"),
    (b'{"schema": "s", "clients": {"x": {"dtype": "<f8", "shape": []}, "y": 1}}\n',
     "clients.y: expected an object, got int"),
    # the file ends inside a column, or holds bytes after the last one
    (b'{"schema": "s", "clients": {"x": {"dtype": "<f8", "shape": [2]}, '
     b'"y": {"dtype": "<f8", "shape": [1]}}}\n' + bytes(12),
     "clients.x: 12 bytes of data, shape [2] needs 16"),
    (b'{"schema": "s", "clients": {"x": {"dtype": "<f8", "shape": [1]}, '
     b'"y": {"dtype": "<i8", "shape": [1]}}}\n' + bytes(20),
     "clients.y: 12 bytes of data, shape [1] needs 8"),
    (b'{"schema": "s", "clients": {}}\n\n', "the header lists no columns, yet 1 bytes follow it"),
    # a key written twice, at any depth, where json.loads alone keeps the last
    (b'{"schema": "t", "schema": "s", "clients": {}}\n', "(key 'schema' is written twice)"),
    (b'{"schema": "s", "clients": {"x": {"shape": [1], "dtype": "<i8", "dtype": "<f8"}}}\n'
     + bytes(8), "(key 'dtype' is written twice)"),
])
def test_read_columns_refuses_a_bad_header(tmp_path, data, words):
    path = tmp_path / "out.bin"
    path.write_bytes(data)
    with pytest.raises(InputFileError, match=re.escape(f"{path}: ") + ".*" + re.escape(words)):
        read_columns(path, "s", "clients")


@pytest.mark.parametrize("text, words", [
    ('{"schema": "s", "a": 1, "b": 2}', None),
    ('{"schema": "s", "a": 1}', None),
    ('{"schema": "s", "b": 2}', "missing keys ['a'], expected ['schema', 'a', 'b']"),
    ('{"schema": "s", "b": 2, "c": 3, "d": {}}',
     "missing keys ['a'] and unknown keys ['c', 'd'], expected ['schema', 'a', 'b']"),
    ('{"schema": "s", "a": 1, "b": 2, "a": 1}', "not valid JSON (key 'a' is written twice)"),
    ('{"schema": "s", "a": [{"x": 1, "x": 2}], "b": 2}',
     "not valid JSON (key 'x' is written twice)"),
])
def test_read_json_refuses_a_missing_an_unknown_and_a_repeated_key(tmp_path, text, words):
    path = tmp_path / "in.json"
    path.write_text(text)
    if words is None:
        assert read_json(path, "s", ("a", "b"), optional=("b",)) == json.loads(text)
    else:
        with pytest.raises(InputFileError) as refusal:
            read_json(path, "s", ("a", "b"), optional=("b",))
        assert str(refusal.value) == f"{path}: {words}"


@pytest.mark.parametrize("data, words", [
    ({"dtype": 1, "shape": 2}, None),
    ({"shape": 2}, "where: missing keys ['dtype'], expected ['dtype', 'shape']"),
    ([], "where: expected an object, got list"),
    (None, "where: expected an object, got NoneType"),
])
def test_check_keys_refuses_what_is_not_an_object_of_exactly_its_keys(data, words):
    if words is None:
        check_keys("where", data, ("dtype", "shape"))
    else:
        with pytest.raises(InputFileError) as refusal:
            check_keys("where", data, ("dtype", "shape"))
        assert str(refusal.value) == words


def csv_bytes(rows, header=("a", "b")) -> bytes:
    return ("# schema=s\n" + "".join(",".join(map(str, row)) + "\r\n" for row in
                                    [header, *rows])).encode("utf-8")


@pytest.mark.parametrize("writer", ["json", "csv"])
def test_a_rewrite_replaces_the_file_with_exactly_the_new_bytes(
    tmp_path, tmp_path_factory, writer
):
    path = tmp_path / "out"
    long, short = [[i, 0.5] for i in range(200)], [[1, 2.5]]
    if writer == "json":
        write_json(path, long)
        write_json(path, short)
        assert path.read_bytes() == bytes_written(tmp_path_factory, short)
    else:
        write_csv(path, "s", ["a", "b"], long)
        write_csv(path, "s", ["a", "b"], short)
        assert path.read_bytes() == csv_bytes(short)
    assert os.listdir(tmp_path) == ["out"]


def test_a_reader_of_the_old_file_keeps_the_old_bytes(tmp_path, tmp_path_factory):
    path = tmp_path / "out.json"
    write_json(path, {"old": list(range(50))})
    old = path.read_bytes()
    with open(path, "rb") as held:
        write_json(path, {"new": 1})
        assert held.read() == old
    assert path.read_bytes() == bytes_written(tmp_path_factory, {"new": 1})


def test_a_symlink_is_replaced_not_followed(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"kept")
    link.symlink_to(target)
    write_csv(link, "s", ["a", "b"], [[1, 2]])
    assert not link.is_symlink() and link.read_bytes() == csv_bytes([[1, 2]])
    assert target.read_bytes() == b"kept"


def test_a_read_only_file_is_replaced(tmp_path, tmp_path_factory):
    path = tmp_path / "out.json"
    write_json(path, [1])
    path.chmod(0o444)
    write_json(path, [2])
    assert path.read_bytes() == bytes_written(tmp_path_factory, [2])


def rows_then_raise():
    yield [1, 2]
    raise ValueError("bad row")


@pytest.mark.parametrize("existing", [b"# schema=s\nold,file\r\n", None])
def test_a_row_that_raises_leaves_the_old_file_as_it_was(tmp_path, existing):
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(ValueError, match="bad row"):
        write_csv(path, "s", ["a", "b"], rows_then_raise())
    # a malformed game-trace entry fails to unpack before anything is written
    with pytest.raises(ValueError):
        write_game_trace(path, [(0, 1, 2, None, 0.5), (1, 2, 3)])
    assert (path.read_bytes() if path.exists() else None) == existing
    assert os.listdir(tmp_path) == (["out.csv"] if existing is not None else [])


def test_a_payload_that_fails_to_encode_leaves_the_old_file_as_it_was(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"kept": [1, 2]})
    old = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"a": [1.0], "b": {1, 2}})
    assert path.read_bytes() == old and os.listdir(tmp_path) == ["out.json"]


def test_both_writers_write_utf8_whatever_the_locale_encoding(tmp_path):
    # EncodingWarning is raised by any open() that falls back to the locale's encoding
    code = (
        "import sys\n"
        "from leapsim.files import write_csv, write_json\n"
        "write_csv(sys.argv[1], 's', ['é', '日本'], [[1, 'ü']])\n"
        "write_json(sys.argv[2], {'é': ['ü']})\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code,
         str(tmp_path / "out.csv"), str(tmp_path / "out.json")],
        env=env, check=True,
    )
    assert (tmp_path / "out.csv").read_bytes() == "# schema=s\né,日本\r\n1,ü\r\n".encode("utf-8")
    assert (tmp_path / "out.json").read_bytes() == '{\n  "é": [\n    "ü"\n  ]\n}\n'.encode()


WRITE_MODE_CHARS = set("wax+")
MODE = re.compile(r"[rwxabt+]{1,4}")


def file_writes(tree: ast.AST) -> list[str]:
    """The calls in ``tree`` that write a file: open(...) in a write mode
    (or a mode not given as a literal), write_text, write_bytes, os.open."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append(name)
        elif name == "open" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            found.append("os.open")
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            if not modes and isinstance(func, ast.Name):
                modes = node.args[1:2]  # the builtin's mode is its second argument
            elif not modes:  # Path.open(mode), io.open(file, mode), ...: any literal mode
                modes = [arg for arg in node.args if isinstance(arg, ast.Constant)
                         and isinstance(arg.value, str) and MODE.fullmatch(arg.value)]
            for mode in modes:
                literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                if not literal or set(mode.value) & WRITE_MODE_CHARS:
                    found.append(f"open mode {ast.unparse(mode)}")
    return found


@pytest.mark.parametrize("code, writes", [
    ("open(p)", []),
    ("open(p, 'rb')", []),
    ("open(p, encoding='utf-8')", []),
    ("Path(p).open()", []),
    ("Path(p).read_text()", []),
    ("open(p, 'w')", ["open mode 'w'"]),
    ("open(p, mode='ab')", ["open mode 'ab'"]),
    ("open(p, 'r+')", ["open mode 'r+'"]),
    ("open(p, m)", ["open mode m"]),
    ("io.open(p, 'x')", ["open mode 'x'"]),
    ("Path(p).open('w', newline='')", ["open mode 'w'"]),
    ("Path(p).write_text(t)", ["write_text"]),
    ("p.write_bytes(b)", ["write_bytes"]),
    ("os.open(p, os.O_WRONLY)", ["os.open"]),
])
def test_file_write_detector(code, writes):
    assert file_writes(ast.parse(code)) == writes


def test_files_is_the_only_module_that_writes_files():
    modules = sorted((SRC / "leapsim").glob("*.py"))
    writes = {m.name: file_writes(ast.parse(m.read_text(encoding="utf-8"))) for m in modules}
    assert writes.pop("files.py"), "the detector no longer sees the writer in files.py"
    assert len(writes) >= 9 and not any(writes.values()), writes


def imports(tree: ast.AST) -> set[str]:
    """The top-level names of the modules ``tree`` imports, by statement
    or by a literal ``import_module``/``__import__`` call."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("import_module", "__import__") and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    found.add(arg.value.split(".")[0])
    return found


@pytest.mark.parametrize("code, found", [
    ("import orjson", {"orjson"}),
    ("import orjson as oj", {"orjson"}),
    ("import json, orjson.x", {"json", "orjson"}),
    ("from orjson import dumps", {"orjson"}),
    ("from . import orjson", set()),  # a module of the package, not orjson
    ("importlib.import_module('orjson')", {"orjson"}),
    ("__import__('orjson')", {"orjson"}),
    ("x = 'orjson'", set()),
])
def test_import_detector(code, found):
    assert imports(ast.parse(code)) == found


def test_files_is_the_only_module_that_imports_orjson():
    modules = sorted((SRC / "leapsim").glob("*.py"))
    importers = [m.name for m in modules if "orjson" in imports(ast.parse(m.read_text(encoding="utf-8")))]
    assert len(modules) >= 10 and importers == ["files.py"], importers
