import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from leapsim.errors import (
    InputFileError,
    InvalidPartitionError,
    InvalidValueError,
    check_integer,
    check_number,
    check_seed,
    described,
    integer_array,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("value, words", [
    (True, "x must be a number, got True"),
    (np.bool_(False), "x must be a number, got np.False_"),
    ("1", "x must be a number, got '1'"),
    (None, "x must be a number, got None"),
    (1j, "x must be a number, got 1j"),
    (math.nan, "x must be finite, got nan"),
    (-math.inf, "x must be finite, got -inf"),
    (np.float32("inf"), "x must be finite, got np.float32(inf)"),
    pytest.param(10**400, "x is an integer too large for a float", id="10**400"),
    pytest.param(-(10**400), "x is an integer too large for a float", id="-10**400"),
    (2**63, f"x is an integer too large for an int64, got {2**63}"),
    (-(2**63) - 1, f"x is an integer too large for an int64, got {-(2**63) - 1}"),
    (np.uint64(2**63), f"x is an integer too large for an int64, got {2**63}"),
], ids=repr)
def test_check_number_refuses_what_is_not_a_finite_number(value, words):
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        check_number("x", value)


@pytest.mark.parametrize("value", [
    0, -(2**63), 2**63 - 1, 1.5, -1e308, np.float32(2.5), np.int64(3), np.uint8(7), Fraction(1, 3),
], ids=repr)
def test_check_number_takes_finite_python_and_numpy_reals(value):
    check_number("x", value)


def test_check_integer_holds_its_integers_to_the_int64_range():
    check_integer("n", 2**63 - 1, 1)
    words = f"n is an integer too large for an int64, got {2**63}"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        check_integer("n", 2**63, 1)
    with pytest.raises(InvalidValueError, match="^n must be at least 1, got 0$"):
        check_integer("n", 0, 1)


@pytest.mark.parametrize("value, words", [
    (1, None),
    (7, None),
    (2**63 - 1, None),
    (np.int64(1), None),
    (np.int64(2**62), None),
    (np.uint8(3), None),
    (0, "n must be at least 1, got 0"),
    (-5, "n must be at least 1, got -5"),
    (np.int64(0), "n must be at least 1, got 0"),
    (-(2**70), f"n must be at least 1, got {-(2**70)}"),
    (2**63, f"n is an integer too large for an int64, got {2**63}"),
    (np.uint64(2**63), f"n is an integer too large for an int64, got {2**63}"),
    (True, "n must be an integer, got True"),
    (False, "n must be an integer, got False"),
    (np.bool_(True), "n must be an integer, got np.True_"),
    (2.0, "n must be an integer, got 2.0"),
    (np.float64(2.0), "n must be an integer, got np.float64(2.0)"),
    ("2", "n must be an integer, got '2'"),
    (None, "n must be an integer, got None"),
], ids=repr)
def test_check_integer_table(value, words):
    """A plain int is answered before the numbers.Integral check; every
    type, plain or not, gets the same outcome as through the full checks."""
    if words is None:
        check_integer("n", value, 1)
    else:
        with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
            check_integer("n", value, 1)


def test_check_integer_fast_path_keeps_the_int64_floor():
    # a minimum below the int64 range still leaves such integers refused
    check_integer("n", -(2**63), -(2**64))
    words = f"n is an integer too large for an int64, got {-(2**63) - 1}"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        check_integer("n", -(2**63) - 1, -(2**64))


@pytest.mark.parametrize("value", [0, 7, 2**64 - 1, np.uint64(2**64 - 1), np.int32(5)], ids=repr)
def test_check_seed_takes_the_integers_numpy_generators_take_as_plain_ints(value):
    seed = check_seed("seed", value)
    assert type(seed) is int and seed == value


@pytest.mark.parametrize(
    "value", [-1, 2**64, 2**70, 1.5, 3.0, np.float64(3), "3", None, True, np.bool_(True)], ids=repr
)
def test_check_seed_refuses_what_is_not_an_integer_in_the_seed_range(value):
    words = f"seed must be an integer in [0, 2**64), got {value!r}"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        check_seed("seed", value)


def test_integer_array_takes_an_ndarray_as_it_is_and_scans_a_list_for_bools():
    array = np.arange(6, dtype=np.uint8).reshape(2, 3)
    assert integer_array(array, "x") is array
    assert integer_array([[1, 2], [np.int32(3), 4]], "x").tolist() == [[1, 2], [3, 4]]
    for value, words in (
        ([0, True], "x, got a bool entry"),  # numpy reads this list as int64
        ([[1, 2], [np.True_, 0]], "x, got a bool entry"),
        ([True, False], "x, got bool of shape (2,)"),
        ([0.5, 1], "x, got float64 of shape (2,)"),
        (np.array([1.0, 2.0]), "x, got float64 of shape (2,)"),
        (["0", 1], "x, got <U21 of shape (2,)"),
    ):
        with pytest.raises(InvalidPartitionError, match=f"^{re.escape(words)}$"):
            integer_array(value, "x", InvalidPartitionError)
    with pytest.raises(InvalidValueError, match=r"^x \(setting an array element"):
        integer_array([[1, 2], [3]], "x")


@pytest.mark.parametrize("error", [InvalidPartitionError, InputFileError])
@pytest.mark.parametrize("check, args", [
    pytest.param(check_integer, ("n", True, 1), id="integer_bool"),
    pytest.param(check_integer, ("n", 2.0, 1), id="integer_float"),
    pytest.param(check_integer, ("n", 0, 1), id="integer_below_minimum"),
    pytest.param(check_integer, ("n", 2**63, 1), id="integer_beyond_int64"),
    pytest.param(check_number, ("x", "1"), id="number_str"),
    pytest.param(check_number, ("x", math.nan), id="number_nan"),
    pytest.param(check_number, ("x", 10**400), id="number_beyond_float"),
    pytest.param(check_number, ("x", -(2**63) - 1), id="number_beyond_int64"),
    pytest.param(integer_array, ([[1, 2], [3]], "x"), id="array_ragged"),
    pytest.param(integer_array, ([0.5, 1], "x"), id="array_float"),
    pytest.param(integer_array, ([0, True], "x"), id="array_bool_entry"),
])
def test_each_check_raises_the_callers_error_type_with_the_default_message(check, args, error):
    with pytest.raises(InvalidValueError) as default:
        check(*args)
    with pytest.raises(error) as raised:
        check(*args, error)
    assert type(default.value) is InvalidValueError and type(raised.value) is error
    assert str(raised.value) == str(default.value)


def test_each_check_takes_a_good_value_whatever_the_error_type():
    check_integer("n", np.int64(3), 1, InputFileError)
    check_number("x", 0.5, InvalidPartitionError)
    assert integer_array([1, 2], "x", InputFileError).tolist() == [1, 2]


@pytest.mark.parametrize("value, words", [
    (np.zeros((2, 3)), "float64 of shape (2, 3)"),
    (np.array(["a"]), "<U1 of shape (1,)"),
    (np.int64(3), "int64"),
    ([1, 2], "list"),
    (None, "NoneType"),
], ids=["2d", "str", "numpy_scalar", "list", "none"])
def test_described_gives_an_array_by_dtype_and_shape_else_its_type(value, words):
    assert described(value) == words


def array_descriptions(tree: ast.AST) -> list[str]:
    """The f-strings in ``tree`` that format a ``.dtype`` together with a
    shape (``.shape``, ``np.shape(...)`` or a name ``shape``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            parts = [sub for value in node.values if isinstance(value, ast.FormattedValue)
                     for sub in ast.walk(value.value)]
            attrs = {sub.attr for sub in parts if isinstance(sub, ast.Attribute)}
            names = {sub.id for sub in parts if isinstance(sub, ast.Name)}
            if "dtype" in attrs and "shape" in attrs | names:
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("code, found", [
    ('f"got {a.dtype} of shape {a.shape}"', True),
    ('f"got shape {a.shape} of dtype {a.dtype}"', True),
    ('f"{x}, got {np.shape(a)} {a.dtype.name}"', True),
    ('f"got {a.dtype} of shape {shape}"', True),
    ('f"got {a.dtype.name}"', False),
    ('f"got shape {a.shape} summing to {total}"', False),
    ('f"got {described(a)}"', False),
    ('"got {} of shape {}".format(a.dtype, a.shape)', False),
])
def test_array_description_detector(code, found):
    assert bool(array_descriptions(ast.parse(code))) is found


def test_errors_is_the_only_module_that_describes_a_refused_array():
    modules = sorted((SRC / "leapsim").glob("*.py"))
    found = {m.name: array_descriptions(ast.parse(m.read_text(encoding="utf-8"))) for m in modules}
    assert found.pop("errors.py"), "the detector no longer sees the description in errors.py"
    assert len(found) >= 9 and not any(found.values()), found
