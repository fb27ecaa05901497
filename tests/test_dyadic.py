"""Dyadic rationals against the Fraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracle.dyadic import Dyadic

dyadics = st.builds(Dyadic,
                    st.integers(min_value=-10**12, max_value=10**12),
                    st.integers(min_value=0, max_value=40))


def as_frac(x: Dyadic) -> Fraction:
    return x.to_fraction()


def test_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(4, 2).exp == 0
    assert Dyadic(6, 4).num == 3 and Dyadic(6, 4).exp == 3
    assert Dyadic(0, 17).exp == 0


@given(dyadics, dyadics)
def test_add_matches_fraction(a, b):
    assert as_frac(a + b) == as_frac(a) + as_frac(b)


@given(dyadics, dyadics)
def test_sub_mul_match_fraction(a, b):
    assert as_frac(a - b) == as_frac(a) - as_frac(b)
    assert as_frac(a * b) == as_frac(a) * as_frac(b)


@given(dyadics, dyadics)
def test_comparisons_match_fraction(a, b):
    assert (a < b) == (as_frac(a) < as_frac(b))
    assert (a <= b) == (as_frac(a) <= as_frac(b))
    assert (a == b) == (as_frac(a) == as_frac(b))


@given(dyadics)
def test_parse_str_round_trip(a):
    assert Dyadic.parse(str(a)) == a


@given(dyadics)
def test_floor_ceil(a):
    f = as_frac(a)
    assert Dyadic(a.floor()) <= a < Dyadic(a.floor() + 1)
    assert a.floor() == f.numerator // f.denominator
    assert Dyadic(a.ceil()) >= a
    assert a.ceil() - a.floor() == (0 if a.is_integer else 1)


@given(dyadics)
def test_trunc_and_frac(a):
    t = a.floor_toward_zero()
    assert abs(t) <= abs(as_frac(a))
    assert abs(as_frac(a) - t) < 1
    r = a.frac_floor()
    assert Dyadic(0) <= r < Dyadic(1)
    assert Dyadic(a.floor()) + r == a


def test_scaled_requires_enough_bits():
    assert Dyadic(3, 2).scaled(2) == 3
    assert Dyadic(3, 2).scaled(4) == 12
    with pytest.raises(ValueError):
        Dyadic(3, 2).scaled(1)


def test_from_fraction_rejects_non_dyadic():
    assert Dyadic.from_fraction(Fraction(5, 8)) == Dyadic(5, 3)
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))


@given(dyadics)
def test_hash_and_int_interop(a):
    assert hash(a) == hash(Dyadic(a.num, a.exp))
    if a.is_integer:
        assert a == a.num
        assert not (a < a.num) and not (a > a.num)
