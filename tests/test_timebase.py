from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from noclock.timebase import LocalGrid, frac, frac_gcd, mod_near, mod_signed


def test_frac_parses_decimal_strings_exactly():
    assert frac("1.1") == Fraction(11, 10)
    assert frac("0.25") == Fraction(1, 4)
    assert frac(3) == 3


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(1.1)


def test_frac_names_a_zero_denominator():
    with pytest.raises(ValueError, match="'3/0' has a zero denominator"):
        frac("3/0")


def test_a_read_quantum_off_the_grid_unit_is_refused():
    with pytest.raises(ValueError):
        LocalGrid(Fraction(1, 3), Fraction(1, 4))


def test_frac_gcd():
    assert frac_gcd(Fraction(1, 4), Fraction(11, 5)) == Fraction(1, 20)
    assert frac_gcd(Fraction(6), Fraction(4)) == 2


@pytest.fixture
def grid():
    return LocalGrid(Fraction(1, 20), Fraction(1, 4))


def test_units_roundtrip(grid):
    assert grid.to_units(Fraction(11, 5)) == 44
    assert grid.from_units(44) == Fraction(11, 5)
    with pytest.raises(ValueError):
        grid.to_units(Fraction(1, 3))


fractions_st = st.fractions(min_value=0, max_value=1000,
                            max_denominator=997)


@given(value=fractions_st, units=st.integers(min_value=0, max_value=40000))
def test_bound_helpers_match_exact_comparisons(value, units):
    grid = LocalGrid(Fraction(1, 20), Fraction(1, 4))
    assert (units <= grid.floor_units(value)) == (units * grid.unit <= value)
    assert (units > grid.floor_units(value)) == (units * grid.unit > value)


@given(delta=st.integers(-10**7, 10**7), modulus=st.integers(2, 10**6))
def test_mod_signed_is_congruent_and_small(delta, modulus):
    s = mod_signed(delta, modulus)
    assert (s - delta) % modulus == 0
    assert -modulus // 2 < s <= modulus - modulus // 2


def test_mod_near_wraps():
    assert mod_near(2, 1000 - 3, 6, 1000)       # distance 5 across the seam
    assert not mod_near(2, 1000 - 3, 4, 1000)
