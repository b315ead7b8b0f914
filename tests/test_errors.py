import math
import re
from fractions import Fraction

import numpy as np
import pytest

from leapsim.errors import InvalidValueError, check_integer, check_number


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
