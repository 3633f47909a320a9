"""The dense Gaussian-integer polynomial ring behind exact elimination."""

from __future__ import annotations

import math
import random

import pytest

from affnil import zipoly
from affnil.errors import DivisionByZero, ExactDivisionError
from affnil.gaussian import GaussianRational
from affnil.laurent import LaurentElement
from affnil.matk import normalize_vector
from affnil.modp import P

from conftest import lp


def _random_poly(rng: random.Random, size: int, low_zeros: int = 0) -> zipoly.Poly:
    f = [(0, 0)] * low_zeros + [
        (rng.randint(-9, 9), rng.choice((0, 0, rng.randint(-9, 9)))) for _ in range(size)
    ]
    while f and f[-1] == (0, 0):
        f.pop()
    return f


def test_from_row_scales_onto_one_denominator_and_shift():
    row = [lp("1/2*t^-2 + (1+i)"), lp("0"), lp(f"(1/3-i)*t + 1/{P}*t^3")]
    den, shift, polys = zipoly.from_row(row)
    assert den == 6 * P and shift == -2
    assert polys[0] == [(3 * P, 0), (0, 0), (6 * P, 6 * P)]
    assert polys[1] == []
    assert polys[2] == [(0, 0)] * 3 + [(2 * P, -6 * P), (0, 0), (6, 0)]
    back = [zipoly.to_laurent(f, shift, den) for f in polys]
    assert back == row
    assert zipoly.from_row([lp("0"), lp("0")]) == (1, 0, [[], []])


def test_to_laurent_reduces_each_coefficient():
    assert zipoly.to_laurent([(2, 4), (0, 0), (3, 0)], -1, 6) == lp(
        "(1/3+2/3i)*t^-1 + 1/2*t"
    )
    assert zipoly.to_laurent([(1, -1)], 2, -1) == lp("(-1+i)*t^2")
    assert zipoly.to_laurent([]) == lp("0")
    c = zipoly.to_laurent([(4, 6)], 0, 2).coeffs[0]
    assert (c.a, c.b, c.d) == (2, 3, 1)


def test_low_and_terms():
    f = [(0, 0), (0, 0), (0, 1), (0, 0), (5, 0)]
    assert zipoly.low(f) == 2
    assert zipoly.terms(f) == 2
    with pytest.raises(ValueError):
        zipoly.low([])


def test_products_and_sums_match_laurent_arithmetic():
    rng = random.Random(31)
    for _ in range(60):
        f = _random_poly(rng, rng.randint(0, 6), rng.randint(0, 2))
        g = _random_poly(rng, rng.randint(0, 6), rng.randint(0, 2))
        x = _random_poly(rng, rng.randint(0, 6))
        y = _random_poly(rng, rng.randint(0, 6))
        lf, lg, lx, ly = map(zipoly.to_laurent, (f, g, x, y))
        assert zipoly.to_laurent(zipoly.mul(f, g)) == lf * lg
        assert zipoly.to_laurent(zipoly.mul_sub(f, x, g, y)) == lf * lx - lg * ly
        assert zipoly.to_laurent(zipoly.add(f, g)) == lf + lg
        assert zipoly.to_laurent(zipoly.sub(f, g)) == lf - lg
        for h in (zipoly.mul(f, g), zipoly.mul_sub(f, x, g, y), zipoly.sub(f, f)):
            assert not h or h[-1] != (0, 0)


def test_exact_div_recovers_the_factor():
    rng = random.Random(32)
    for _ in range(60):
        g = _random_poly(rng, rng.randint(1, 5), rng.randint(0, 2))
        q = _random_poly(rng, rng.randint(0, 5), rng.randint(0, 2))
        if not g:
            continue
        assert zipoly.exact_div(zipoly.mul(q, g), g) == q
    # a Gaussian leading coefficient and a monomial divisor
    g = [(1, 0), (2, 1)]
    assert zipoly.exact_div(zipoly.mul([(3, -1), (0, 0), (1, 1)], g), g) == [
        (3, -1), (0, 0), (1, 1)
    ]
    assert zipoly.exact_div([(0, 0), (4, 2), (0, 0), (2, 0)], [(0, 0), (0, 2)]) == [
        (1, -2), (0, 0), (0, -1)
    ]


@pytest.mark.parametrize(
    "num, den",
    [
        # a remainder at the low end: t^2 + 1 = t * t + 1
        ([(1, 0), (0, 0), (1, 0)], [(0, 0), (1, 0)]),
        # t^2 + 3 over t - 1: the top steps divide, the last one leaves 4
        ([(3, 0), (0, 0), (1, 0)], [(-1, 0), (1, 0)]),
        # 2t + 2 over 2t + 1: quotient 1 leaves remainder 1
        ([(2, 0), (2, 0)], [(1, 0), (2, 0)]),
        # a coefficient that 2 does not divide in Z[i]
        ([(1, 1)], [(2, 0)]),
        ([(3, 0), (1, 0)], [(0, 0), (2, 0)]),
        # (1 + i) t over 2 t: (1 + i) / 2 is not a Gaussian integer
        ([(0, 0), (1, 1)], [(0, 0), (2, 0)]),
        # divisor of higher degree
        ([(1, 0)], [(1, 0), (1, 0)]),
    ],
)
def test_exact_div_raises_on_a_remainder(num, den):
    with pytest.raises(ExactDivisionError):
        zipoly.exact_div(num, den)


def test_exact_div_by_zero_and_of_zero():
    with pytest.raises(DivisionByZero):
        zipoly.exact_div([(1, 0)], [])
    assert zipoly.exact_div([], [(0, 0), (3, 1)]) == []


def test_dot_is_the_sum_of_products():
    rng = random.Random(35)
    for _ in range(30):
        fs = [_random_poly(rng, rng.randint(0, 4), rng.randint(0, 2)) for _ in range(3)]
        gs = [_random_poly(rng, rng.randint(0, 4), rng.randint(0, 2)) for _ in range(3)]
        expected = lp("0")
        for f, g in zip(fs, gs):
            expected = expected + zipoly.to_laurent(f) * zipoly.to_laurent(g)
        assert zipoly.to_laurent(zipoly.dot(fs, gs)) == expected
    assert zipoly.dot([[(1, 0)], [(1, 0)]], [[(2, 0)], [(-2, 0)]]) == []
    assert zipoly.dot([], []) == []


def _divides(g, x):
    """Whether g divides x in Z[i] (g nonzero)."""
    try:
        zipoly.exact_div([x], [g])
    except ExactDivisionError:
        return False
    return True


def test_content_is_the_gaussian_gcd_of_the_coefficients():
    # (1 + i)(t + 1): a content that is not a rational integer
    assert zipoly.content([(1, 1), (1, 1)]) == (1, 1)
    assert zipoly.content([(0, 0), (2, 4), (0, 0), (-4, 2)]) == (2, 4)
    assert zipoly.content([(5, 0), (3, 4)]) == (2, 1)  # 5 = (2 + i)(2 - i), 3 + 4i = (2 + i)^2
    assert zipoly.content([(0, -7)]) == (7, 0)
    assert zipoly.content([(3, 0), (0, 2)]) == (1, 0)
    with pytest.raises(ValueError):
        zipoly.content([])
    rng = random.Random(36)
    for _ in range(60):
        g = (rng.randint(-20, 20), rng.randint(-20, 20))
        if g == (0, 0):
            continue
        f = zipoly.mul(_random_poly(rng, rng.randint(1, 4), rng.randint(0, 2)) or [(1, 0)], [g])
        c = zipoly.content(f)
        assert c[0] > 0 and c[1] >= 0
        assert _divides(g, c)
        h = [x for x in zipoly.exact_div(f, [c]) if x != (0, 0)]
        # no non-unit divides every coefficient of h; such a divisor has an
        # associate a + b·i with 0 <= a, b and a² + b² at most any norm in h
        r = math.isqrt(min(a * a + b * b for a, b in h))
        for d in ((a, b) for a in range(r + 1) for b in range(r + 1) if a * a + b * b > 1):
            assert not all(_divides(d, x) for x in h)


def test_primitive_matches_normalize_vector():
    rng = random.Random(33)
    for _ in range(40):
        row = [
            _random_poly(rng, rng.randint(0, 4), rng.randint(0, 3)) for _ in range(3)
        ]
        scale = rng.choice((1, 2, 6, -3))
        row = [[(a * scale, b * scale) for a, b in f] for f in row]
        got = zipoly.primitive(row)
        expected = normalize_vector(tuple(zipoly.to_laurent(f) for f in row))
        assert tuple(zipoly.to_laurent(f) for f in got) == expected
        if any(row):
            assert min(zipoly.low(f) for f in got if f) == 0
    assert zipoly.primitive([[], []]) == [[], []]
    assert zipoly.primitive([[(0, 0), (4, 6)], [(0, 0), (0, 0), (2, 0)]]) == [
        [(2, 3)], [(0, 0), (1, 0)]
    ]
    # the sign is kept: only a positive content is divided out
    assert zipoly.primitive([[(-2, 0)]]) == [[(-1, 0)]]


def test_to_laurent_of_from_row_is_the_identity_on_random_rows():
    rng = random.Random(34)
    coefs = [GaussianRational(1, 2), GaussianRational(-3), GaussianRational(0, 1),
             GaussianRational(2, -1) / 3]
    for _ in range(30):
        row = []
        for _ in range(rng.randint(1, 4)):
            terms = {rng.randint(-4, 4): rng.choice(coefs) for _ in range(rng.randint(0, 3))}
            row.append(LaurentElement(terms))
        den, shift, polys = zipoly.from_row(row)
        assert [zipoly.to_laurent(f, shift, den) for f in polys] == row
