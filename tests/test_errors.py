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
