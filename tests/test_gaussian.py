from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affnil import GaussianRational, gr

small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.builds(GaussianRational, small_rat, small_rat)


def test_lowest_terms_normalization():
    x = GaussianRational(Fraction(2, 4), Fraction(-6, 8))
    assert x.re == Fraction(1, 2) and x.im == Fraction(-3, 4)
    assert x.d > 0


def test_zero_is_unique():
    assert GaussianRational(0, 0) == GaussianRational(Fraction(0, 5), 0)
    assert not GaussianRational(0, 0)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_inverse(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == gr(1)


@given(gaussians, st.integers(min_value=0, max_value=6))
def test_pow_matches_repeated_mul(a, k):
    expected = gr(1)
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@pytest.mark.parametrize(
    "value,n,expected",
    [
        (gr(4), 2, gr(2)),
        (gr(-4), 2, gr(0, 2)),
        (gr(Fraction(9, 4)), 2, gr(Fraction(3, 2))),
        (gr(8), 3, gr(2)),
        (gr(-8), 3, gr(-2)),
        (gr(0, 4), 2, None),  # sqrt(4i) = sqrt(2)(1+i), outside Q(i)
        (gr(2), 2, None),
        (gr(0, 1), 2, None),  # sqrt(i) needs the eighth roots of unity
    ],
)
def test_nth_root_examples(value, n, expected):
    got = value.nth_root(n)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got**n == value


@given(gaussians, st.integers(min_value=1, max_value=4))
def test_nth_root_of_power_recovers_value(a, n):
    root = (a**n).nth_root(n)
    if a.is_zero:
        assert root == gr(0)
    else:
        assert root is not None and root**n == a**n


def test_nth_root_beyond_float_precision():
    big = gr(Fraction(10**30 + 7, 3), Fraction(5, 7))
    for n in (2, 3, 5, 8):
        assert (big**n).nth_root(n) ** n == big**n
    huge = gr(Fraction(10**80 + 11, 13), Fraction(-7, 3))
    assert (huge**7).nth_root(7) ** 7 == huge**7


def test_nth_root_follows_viable_sqrt_branch():
    # sqrt(a^8) may come back as -a^4, whose own sqrt chain dead-ends at
    # sqrt(i a^2); the other sign branch must be taken
    a = gr(Fraction(-292, 15), Fraction(129, 5))
    assert (a**8).nth_root(8) ** 8 == a**8


def test_nth_root_of_unit_twisted_powers():
    a = gr(3, -2)
    value = (a**4) * gr(0, 1) ** 4
    assert value.nth_root(4) ** 4 == value


def test_values_refuse_assignment():
    for value in (gr(Fraction(1, 2), 3), GaussianRational._raw(1, 0, 1),
                  GaussianRational._norm(-2, 4, -6)):
        for name in ("a", "b", "d", "re"):
            with pytest.raises(AttributeError):
                setattr(value, name, 5)
    assert GaussianRational._norm(-2, 4, -6) == gr(Fraction(1, 3), Fraction(-2, 3))
