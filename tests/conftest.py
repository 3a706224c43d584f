import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture(autouse=True)
def _restore_int_digit_cap():
    """Some tests set CPython's cap on int-to-str digits themselves; putting
    it back after each test starts every test at the interpreter's cap
    (Pythons before 3.10.7 have none)."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(cap)
