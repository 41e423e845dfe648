from itertools import chain

import pytest
from hypothesis import strategies as st

from blowupcones import CurveClass, DivisorClass
from blowupcones.weyl import _OrbitTable

small_ints = st.integers(-6, 6)
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

int_divisors = st.builds(
    DivisorClass, small_ints, st.tuples(*([small_ints] * 8))
)
rational_divisors = st.builds(
    DivisorClass, small_rationals, st.tuples(*([small_rationals] * 8))
)
curves = st.builds(
    CurveClass, st.integers(0, 6), st.tuples(*([st.integers(-4, 4)] * 8))
)
generator_letters = st.integers(0, 7)
words = st.lists(generator_letters, max_size=12).map(tuple)


@pytest.fixture
def listings(monkeypatch):
    """The degrees any orbit table lists during the test, in order; a refused call lists none."""
    degrees = []
    listing = _OrbitTable.listing

    def spy(table, degree):
        listed = listing(table, degree)
        degrees.append(degree)
        return listed

    monkeypatch.setattr(_OrbitTable, "listing", spy)
    return degrees


def listed_to(table, bound):
    """The table's listings of degrees 0..bound in turn: the orbit truncated at the bound."""
    return tuple(chain.from_iterable(map(table.listing, range(bound + 1))))
