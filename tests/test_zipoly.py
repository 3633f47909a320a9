"""The dense Gaussian-integer polynomial ring behind exact elimination."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from affnil import zipoly
from affnil.errors import DivisionByZero, ExactDivisionError
from affnil.gaussian import GaussianRational
from affnil.laurent import LaurentElement
from affnil.matk import normalize_vector
from affnil.zipoly import P

from conftest import lp, normalize_oracle


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
    # the zero polynomial is one shared exact zero, whatever the shift and den
    assert zipoly.to_laurent([], 4, 6) is zipoly.to_laurent([])
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
        f_x_g_y = zipoly.combine([(1, f, x), (-1, g, y)])
        assert zipoly.to_laurent(f_x_g_y) == lf * lx - lg * ly
        for h in (zipoly.mul(f, g), f_x_g_y, zipoly.combine([(1, f, g), (-1, g, f)])):
            assert not h or h[-1] != (0, 0)


def test_monomial_product_is_a_shift_and_one_product_per_pair():
    # mul takes a c·t^k factor as a shift of the other factor; the reference is
    # the general accumulator of combine and the Laurent product
    rng = random.Random(36)
    coefs = [(1, 0), (-1, 0), (3, 0), (-2, 0), (0, 1), (2, -3), (-1, 1)]
    seen = set()
    for _ in range(80):
        c = rng.choice(coefs)
        k = rng.randint(0, 3)
        mono = [(0, 0)] * k + [c]
        f = _random_poly(rng, rng.randint(1, 5), rng.randint(0, 2))
        if not f:
            continue
        seen.add((c[1] != 0, k > 0, f[0] == (0, 0)))
        expected = zipoly.combine([(1, f, mono)])
        laurent = zipoly.to_laurent(f) * zipoly.to_laurent(mono)
        for got in (zipoly.mul(f, mono), zipoly.mul(mono, f)):
            assert got == expected
            assert zipoly.to_laurent(got) == laurent
            assert got[-1] != (0, 0)
    # c with and without an imaginary part, k = 0 and k > 0, f with and
    # without zero pairs at its low end
    assert len(seen) == 8
    assert zipoly.mul([(0, 0), (2, 1)], [(0, 0), (0, 0), (1, 0)]) == [(0, 0)] * 3 + [(2, 1)]
    assert zipoly.mul([(1, 0)], [(1, 0)]) == [(1, 0)]
    assert zipoly.mul([], [(0, 0), (3, 0)]) == []


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


def _laurent_signed_sum(terms) -> LaurentElement:
    """Oracle: the sum of sign·f·g in Laurent arithmetic."""
    acc = lp("0")
    for sign, f, g in terms:
        product = zipoly.to_laurent(f) * zipoly.to_laurent(g)
        acc = acc + product if sign > 0 else acc - product
    return acc


def _check_combine(terms):
    got = zipoly.combine(terms)
    assert zipoly.to_laurent(got) == _laurent_signed_sum(terms)
    assert not got or got[-1] != (0, 0)


def test_combine_is_the_signed_sum_of_products():
    rng = random.Random(35)
    for _ in range(60):
        terms = [
            (rng.choice((1, -1)),
             _random_poly(rng, rng.randint(0, 4), rng.randint(0, 2)),
             _random_poly(rng, rng.randint(0, 4), rng.randint(0, 2)))
            for _ in range(rng.randint(0, 4))
        ]
        _check_combine(terms)
    assert zipoly.combine([]) == []
    assert zipoly.combine([(1, [], [(1, 0)]), (-1, [(2, 1)], [])]) == []
    # full cancellation: f·g − g·f, and 1·2 + 1·(−2)
    f, g = [(1, 2), (0, 0), (-3, 1)], [(0, 0), (2, -1)]
    assert zipoly.combine([(1, f, g), (-1, g, f)]) == []
    assert zipoly.combine([(1, [(1, 0)], [(2, 0)]), (1, [(1, 0)], [(-2, 0)])]) == []
    # the top cancels and the rest does not
    assert zipoly.combine([(1, [(1, 0), (1, 0)], [(0, 0), (1, 0)]),
                           (-1, [(0, 0), (1, 0)], [(0, 0), (1, 0)])]) == [(0, 0), (1, 0)]


def _strip(f):
    while f and f[-1] == (0, 0):
        f = f[:-1]
    return f


_polys = st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=6).map(_strip)


@given(st.lists(st.tuples(st.sampled_from((1, -1)), _polys, _polys), max_size=5))
def test_combine_matches_laurent_arithmetic_on_drawn_terms(terms):
    _check_combine(terms)


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
    """Both against the gcd/lcm loop over the Laurent coefficients."""
    rng = random.Random(33)
    for _ in range(40):
        row = [
            _random_poly(rng, rng.randint(0, 4), rng.randint(0, 3)) for _ in range(3)
        ]
        scale = rng.choice((1, 2, 6, -3))
        row = [[(a * scale, b * scale) for a, b in f] for f in row]
        got = zipoly.primitive(row)
        v = tuple(zipoly.to_laurent(f) for f in row)
        expected = normalize_oracle(v)
        assert normalize_vector(v) == expected
        assert tuple(zipoly.to_laurent(f) for f in got) == expected
        lows = [zipoly.low(f) for f in row if f]
        assert zipoly.row_content(row) == (
            math.gcd(*[x for f in row for pair in f for x in pair]),
            min(lows) if lows else None,
        )
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


def _laurent_value_mod_p(el: LaurentElement, t0: int) -> int:
    """Oracle: el itself at t = t0 in F_p, i -> I_MOD_P, inverting each
    denominator, as the chain-top tests read Laurent entries before they read
    the integer forms (undefined when p divides a denominator)."""
    acc = 0
    for exp, c in el.coeffs.items():
        acc += (c.a + c.b * zipoly.I_MOD_P) * pow(c.d, -1, P) * pow(t0, exp, P)
    return acc % P


def _random_row(rng: random.Random, width: int):
    coefs = [GaussianRational(1, 2), GaussianRational(-3), GaussianRational(0, 1),
             GaussianRational(2, -1) / 3, GaussianRational(5, 7) / 4]
    return [
        LaurentElement({rng.randint(-6, 6): rng.choice(coefs) for _ in range(rng.randint(0, 3))})
        for _ in range(width)
    ]


def test_values_mod_p_is_the_integer_form_at_the_point():
    assert zipoly.I_MOD_P ** 2 % P == P - 1
    rng = random.Random(35)
    for t0 in (314159265, 2, P - 1):
        for _ in range(30):
            row = _random_row(rng, rng.randint(1, 4))
            den, shift, _ = zipoly.from_row(row)
            scale = den * pow(t0, -shift, P)
            want = [scale * _laurent_value_mod_p(e, t0) % P for e in row]
            assert zipoly.values_mod_p(row, t0) == want
    assert zipoly.values_mod_p([lp("0"), lp("0")], 5) == [0, 0]


def _dense_value_mod_p(f: zipoly.Poly, t0: int) -> int:
    """A dense polynomial at t = t0 in F_p, by Horner."""
    acc = 0
    for a, b in reversed(f):
        acc = (acc * t0 + a + b * zipoly.I_MOD_P) % P
    return acc


def test_values_mod_p_is_defined_when_p_divides_a_denominator():
    rows = [
        [lp("1/2*t^-2 + (1+i)"), lp("0"), lp(f"(1/3-i)*t + 1/{P}*t^3")],
        [lp(f"1/{P}"), lp(f"(2/{P}+i)*t^-1"), lp(f"t^5 + 1/{P * P}")],
    ]
    for row in rows:
        _, _, polys = zipoly.from_row(row)
        for t0 in (314159265, 271828182):
            values = zipoly.values_mod_p(row, t0)
            assert values == [_dense_value_mod_p(f, t0) for f in polys]
    # D = p^2 and s = -1: only the term 1/p^2, which becomes t, survives mod p
    assert zipoly.values_mod_p(rows[1], 3) == [0, 0, 3]
