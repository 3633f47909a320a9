from __future__ import annotations

import cmath
import math
import random
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
        (gr(0, 2), 2, gr(1, 1)),  # the principal root, not -1-i
        (gr(1, 1) ** 6, 6, gr(1, 1)),  # first counter-clockwise, not -1-i
        (gr(41, -38), 5, gr(1, 2)),
    ],
)
def test_nth_root_examples(value, n, expected):
    assert value.nth_root(n) == expected


@given(gaussians, st.integers(min_value=1, max_value=16))
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


def test_nth_root_finds_every_small_power():
    # small roots sit close to the origin, where one lattice step is a large
    # share of |root|: a seed that is off by one step misses, e.g. 1+2i for 41-38i
    missed = []
    for n in range(2, 41):
        for a in range(-7, 8):
            for b in range(-7, 8):
                if a or b:
                    w = gr(a, b) ** n
                    r = w.nth_root(n)
                    if r is None or r**n != w:
                        missed.append((a, b, n))
    assert missed == []


def _first_counter_clockwise_root(a: GaussianRational, n: int) -> GaussianRational:
    """Oracle: of the roots a*u of w = a^n (u a unit), the one the least angle
    counter-clockwise from the principal argument arg(w)/n."""
    w = a**n
    principal = cmath.phase(complex(w.re, w.im)) / n

    def turn(r: GaussianRational) -> float:
        angle = (cmath.phase(complex(r.re, r.im)) - principal) % (2 * math.pi)
        # distinct roots are >= 2*pi/n apart, so anything this close to a
        # full turn is the principal root seen through rounding
        return 0.0 if angle > 2 * math.pi - math.pi / n else angle

    roots = [a * u for u in (gr(1), gr(0, 1), gr(-1), gr(0, -1)) if (a * u) ** n == w]
    return min(roots, key=turn)


def test_nth_root_returns_first_root_counter_clockwise_of_principal():
    rng = random.Random(28)
    for _ in range(400):
        a = gr(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
               Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        if a.is_zero:
            continue
        n = rng.randint(2, 16)
        assert (a**n).nth_root(n) == _first_counter_clockwise_root(a, n), (a, n)


@given(small_rat, gaussians, gaussians)
def test_equal_values_hash_equal(q, a, b):
    # a real value equals the int or Fraction it is, and hashes as it does
    forms = [q, gr(q), GaussianRational._norm(3 * q.numerator, 0, 3 * q.denominator)]
    if q.denominator == 1:
        forms.append(int(q))
    for x in forms:
        for y in forms:
            assert x == y and hash(x) == hash(y)
    for x, y in ((a, b), (a, GaussianRational(a.re, a.im)), (a, a.re), (a, a.re.numerator)):
        if x == y:
            assert hash(x) == hash(y)


def test_real_values_are_the_same_keys_as_ints_and_fractions():
    assert len({gr(2), 2}) == 1
    assert {gr(2): 1}.get(2) == 1
    assert {gr(Fraction(1, 2)): 1}.get(Fraction(1, 2)) == 1
    assert len({gr(1, 1), gr(1, 1), gr(1, -1), 1}) == 3


@given(gaussians)
def test_conjugate(z):
    conj = z.conjugate()
    assert (conj.re, conj.im) == (z.re, -z.im)
    norm = z * conj
    assert norm.im == 0 and norm.re == z.re**2 + z.im**2


def test_values_refuse_assignment():
    for value in (gr(Fraction(1, 2), 3), GaussianRational._raw(1, 0, 1),
                  GaussianRational._norm(-2, 4, -6)):
        for name in ("a", "b", "d", "re"):
            with pytest.raises(AttributeError):
                setattr(value, name, 5)
    assert GaussianRational._norm(-2, 4, -6) == gr(Fraction(1, 3), Fraction(-2, 3))
