"""Fixtures shared by the test modules."""

import pytest

from wallisprod import bernoulli


@pytest.fixture()
def cold_bernoulli():
    """Empty the shared Bernoulli number list for one test and put its entries back after it."""
    saved = list(bernoulli._NUMBERS)
    bernoulli._NUMBERS.clear()
    try:
        yield
    finally:
        bernoulli._NUMBERS[:] = saved
