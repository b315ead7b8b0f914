import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leapsim.errors import InputFileError
from leapsim.experiment import run_experiment
from leapsim.files import _plain_rows, decode_array, encode_array, write_json
from leapsim.scenario import generate_scenario


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def written(tmp_path, payload) -> str:
    path = tmp_path / "out.json"
    write_json(path, payload)
    return path.read_text()


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 1e16]
EDGE_TEXTS = ["", "comma, space", "é", "日本語", "\x00\x1f\x7f", "tab\tquote\"back\\slash", " ", "\ud83d"]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
texts = st.text() | st.sampled_from(EDGE_TEXTS)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    floats.map(np.float64),  # a float subclass prints as a float
    texts,
)
# lists of plain numbers, bools and nulls take the one-dumps path, lists with strings do not
flat_lists = st.one_of(
    st.lists(floats),
    st.lists(st.integers()),
    st.lists(st.none() | st.booleans() | st.integers() | floats),
    st.lists(texts),
)
json_values = st.recursive(
    scalars | flat_lists,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


# lists of non-empty plain rows (game traces) take the one-dumps row path
plain_items = st.none() | st.booleans() | st.integers() | floats
plain_rows = st.lists(plain_items, min_size=1, max_size=6)
row_lists = st.lists(plain_rows | plain_rows.map(tuple), min_size=1, max_size=8)


@given(payload=row_lists | st.dictionaries(texts, row_lists, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_write_json_matches_the_stdlib_on_row_lists(tmp_path_factory, payload):
    assert all(map(_plain_rows, payload.values() if isinstance(payload, dict) else [payload]))
    path = tmp_path_factory.getbasetemp() / "rows.json"
    write_json(path, payload)
    assert path.read_bytes() == reference(payload).encode("ascii")


@pytest.mark.parametrize("payload", [
    [[1, 2], []],  # an empty row
    [[]],
    [[1, [2, 3]], [4]],  # a row holding a list
    [[1, ()], [4]],
    [[1, 2], 3],  # a scalar among rows
    [[1, 2], None],
    [[1, 2], {"a": [3]}],
    [[1, "a, b"], [2]],  # a string in a row
    [["], ["]],
    [[1, {"a": 1}]],  # a dict in a row
    [[1.0, np.float64(2.5)]],  # a float subclass in a row
    {"a": [[1, 2], [3, "x"]]},
])
def test_write_json_row_path_falls_back_on_near_misses(tmp_path, payload):
    rows = payload["a"] if isinstance(payload, dict) else payload
    assert not _plain_rows(rows)
    assert written(tmp_path, payload) == reference(payload)


@given(payload=json_values)
@settings(max_examples=300, deadline=None)
def test_write_json_matches_the_stdlib_byte_for_byte(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "differential.json"
    write_json(path, payload)
    assert path.read_bytes() == reference(payload).encode("ascii")


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
    assert written(tmp_path, payload) == reference(payload)


def test_write_json_matches_the_stdlib_on_a_compare_report(tmp_path):
    scenario = generate_scenario(seed=5, n_clients=12, n_edges=3, data_size=40)
    payload = run_experiment(scenario, master_seed=2).to_dict()
    assert payload["methods"]["leap"]["game_trace"]["entries"]
    assert written(tmp_path, payload) == reference(payload)


class Unknown:
    pass


@pytest.mark.parametrize("payload", [
    np.int64(3),
    [1.0, np.int64(2)],
    {"a": {1, 2}},
    {"a": np.bool_(True)},
    [Unknown()],
    {(1, 2): 3},
    {1: "a", "b": 2},
    {"a": b"bytes"},
])
def test_write_json_raises_type_error_where_the_stdlib_does(tmp_path, payload):
    with pytest.raises(TypeError):
        reference(payload)
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", payload)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("array", [
    np.array([1.5, -0.0, 5e-324, 1e300]),
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.arange(6.0).reshape(2, 3).T,  # not C-contiguous
    np.array([2.5, 3.5], dtype=">f8"),  # big-endian in memory
    np.empty((0, 3)),
])
def test_encode_decode_round_trip_is_bit_exact(array):
    column = json.loads(json.dumps(encode_array(array)))
    assert column["dtype"] in ("<f8", "<i8") and column["shape"] == list(array.shape)
    again = decode_array(column, "clients.x")
    assert again.dtype == array.dtype.newbyteorder("=") and again.flags.writeable
    assert again.tobytes() == np.ascontiguousarray(array, dtype=again.dtype).tobytes()


def test_encode_array_refuses_other_dtypes():
    for array in (np.zeros(2, dtype=np.float32), np.zeros(2, dtype=bool), np.array(["a"])):
        with pytest.raises(TypeError):
            encode_array(array)


GOOD = encode_array(np.array([1.0, 2.0]))


@pytest.mark.parametrize("column, words", [
    ([1.0, 2.0], "must be an object with keys base64, dtype and shape, got list"),
    ({"dtype": "<f8", "shape": [2]}, "got ['dtype', 'shape']"),
    ({**GOOD, "order": "C"}, "got ['base64', 'dtype', 'order', 'shape']"),
    ({**GOOD, "dtype": ">f8"}, "dtype must be '<f8' or '<i8', got '>f8'"),
    ({**GOOD, "dtype": "<f4"}, "dtype must be '<f8' or '<i8', got '<f4'"),
    ({**GOOD, "dtype": ["<f8"]}, "dtype must be '<f8' or '<i8', got ['<f8']"),
    ({**GOOD, "shape": 2}, "shape must be a list of non-negative integers, got 2"),
    ({**GOOD, "shape": [True, 2]}, "shape must be a list of non-negative integers, got [true, 2]"),
    ({**GOOD, "shape": [2.0]}, "shape must be a list of non-negative integers, got [2.0]"),
    ({**GOOD, "shape": [-2, -1]}, "shape must be a list of non-negative integers, got [-2, -1]"),
    ({**GOOD, "base64": 7}, "base64 must be a string, got int"),
    ({**GOOD, "base64": GOOD["base64"] + "\n"}, "invalid base64"),
    ({**GOOD, "base64": GOOD["base64"][:-1]}, "invalid base64"),
    ({**GOOD, "base64": "é" + GOOD["base64"]}, "invalid base64"),
    ({**GOOD, "base64": " " + GOOD["base64"]}, "invalid base64"),
    ({**GOOD, "shape": [], "base64": "QR=="}, "invalid base64"),  # nonzero pad bits
    ({**GOOD, "shape": [3]}, "16 bytes of data, shape [3] needs 24"),
    ({**GOOD, "shape": [1]}, "16 bytes of data, shape [1] needs 8"),
    ({**GOOD, "shape": []}, "16 bytes of data, shape [] needs 8"),
])
def test_decode_array_refusals_name_the_column(column, words):
    with pytest.raises(InputFileError, match=re.escape("clients.x") + ".*" + re.escape(words)):
        decode_array(column, "clients.x")
