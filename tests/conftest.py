import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """Python's default int/str conversion limit of 4,300 digits, whatever
    PYTHONINTMAXSTRDIGITS says, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
