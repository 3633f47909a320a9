from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affnil import (
    DivisionByZero,
    LaurentElement,
    LaurentSyntaxError,
    NoRoot,
    PrecisionExhausted,
    RootNotRepresentable,
    ZeroHasNoOrder,
    ZeroScale,
    format_laurent,
    format_scalar,
    gr,
    parse_laurent,
    parse_scalar,
)
from affnil.selfcheck import random_laurent

from conftest import lp

small_rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.builds(gr, small_rat, small_rat)
laurents = st.builds(
    lambda items: LaurentElement(dict(items)),
    st.lists(st.tuples(st.integers(-4, 4), gaussians), max_size=4),
)
nonzero_laurents = laurents.filter(lambda e: e.is_zero_3v() is False)


# -- parsing and formatting ---------------------------------------------------


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("t^-2 + 3*t", {-2: gr(1), 1: gr(3)}),
        ("0", {}),
        ("(1/2+3/4i)*t^5", {5: gr(Fraction(1, 2), Fraction(3, 4))}),
        ("-t", {1: gr(-1)}),
        ("1 - 2*t + t^2", {0: gr(1), 1: gr(-2), 2: gr(1)}),
        ("(0-i)*t^-1", {-1: gr(0, -1)}),
        ("3/4", {0: gr(Fraction(3, 4))}),
        ("t - t", {}),
    ],
)
def test_parse_examples(text, coeffs):
    elem = parse_laurent(text)
    assert elem.coeffs == coeffs and elem.prec is None


def test_parse_truncation_marker():
    elem = parse_laurent("1 + t + O(t^8)")
    assert elem.prec == 8 and elem.coeffs == {0: gr(1), 1: gr(1)}
    assert parse_laurent("O(t^3)").prec == 3


@pytest.mark.parametrize("bad", ["", "t^", "1 +", "3*", "t^^2", "(1/2", "1/0", "x"])
def test_parse_errors_report_position(bad):
    with pytest.raises(LaurentSyntaxError) as err:
        parse_laurent(bad)
    assert err.value.position >= 0


@given(st.text(alphabet="0123456789t^*/+-() iO", max_size=24))
@settings(max_examples=200)
def test_parser_never_crashes(text):
    try:
        parse_laurent(text)
    except LaurentSyntaxError:
        pass


def test_parse_imaginary_shorthands():
    assert parse_laurent("(3i)*t") == LaurentElement({1: gr(0, 3)})
    assert parse_laurent("(i)") == LaurentElement({0: gr(0, 1)})
    assert parse_laurent("(-i)*t^2") == LaurentElement({2: gr(0, -1)})
    assert parse_laurent("(1/2-i)") == LaurentElement({0: gr(Fraction(1, 2), -1)})


def test_coeff_query_respects_precision():
    s = LaurentElement({0: gr(1)}, 5)
    assert s.coeff(3) == gr(0)
    with pytest.raises(PrecisionExhausted):
        s.coeff(5)


def test_inv_of_truncated_unit():
    s = LaurentElement({0: gr(1), 1: gr(-1)}, 3)  # 1 - t + O(t^3)
    inv = s.inv(64)
    assert inv.prec == 3
    assert inv.coeffs == {0: gr(1), 1: gr(1), 2: gr(1)}


def test_negative_pow_rejected():
    with pytest.raises(ValueError):
        lp("t") ** -1


def test_exact_div_rejects_truncated_operands():
    from affnil.errors import ExactDivisionError

    with pytest.raises(ExactDivisionError):
        LaurentElement({0: gr(1)}, 3).exact_div(lp("1"))


def test_format_canonical():
    assert format_laurent(lp("3*t + t^-2")) == "t^-2 + 3*t"
    assert format_laurent(lp("0")) == "0"
    assert format_laurent(lp("-t + 1")) == "1 - t"
    assert format_laurent(lp("(0+i)*t")) == "(0+i)*t"
    assert format_laurent(LaurentElement({}, 5)) == "O(t^5)"


@given(laurents)
@settings(max_examples=150)
def test_parse_format_roundtrip(e):
    assert parse_laurent(format_laurent(e)) == e


def test_scalar_literals():
    assert parse_scalar("5") == gr(5)
    assert parse_scalar("(1/2+3/4i)") == gr(Fraction(1, 2), Fraction(3, 4))
    assert format_scalar(gr(0, -1)) == "(0-i)"
    with pytest.raises(LaurentSyntaxError):
        parse_scalar("t + 1")


# -- valuation, residue -------------------------------------------------------


def test_order_examples():
    assert lp("t^-2 + 3*t").order() == -2
    assert lp("5").order() == 0
    assert (lp("t^-1 + 1") * lp("t")).order() == 0


def test_order_errors():
    with pytest.raises(ZeroHasNoOrder):
        lp("0").order()
    with pytest.raises(PrecisionExhausted):
        LaurentElement({}, 10).order()


def test_residue_examples():
    assert lp("t^-1").residue() == gr(1)
    assert lp("3 + t^2").residue() == gr(0)
    # res((dP/dt) Q) for P = t, Q = t^-1: the cocycle scalar
    assert (lp("t").d_dt() * lp("t^-1")).residue() == gr(1)


def test_residue_precision():
    assert LaurentElement({}, 0).residue() == gr(0)
    with pytest.raises(PrecisionExhausted):
        LaurentElement({}, -1).residue()


# -- ring operations ----------------------------------------------------------


def test_add_mul_examples():
    assert lp("t + 1") + lp("-t") == lp("1")
    assert lp("t^-1") * lp("t") == lp("1")
    assert lp("t^-1 + 1") * lp("t") == lp("1 + t")


@given(laurents, laurents, laurents)
@settings(max_examples=100)
def test_exact_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_mul_precision_rule():
    a = LaurentElement({0: gr(1)}, 5)  # 1 + O(t^5)
    b = lp("t^2")
    assert (a * b).prec == 7
    c = LaurentElement({-1: gr(1)}, 3)
    assert (a * c).prec == 3  # min(5 + (-1), 3 + 0)


def test_inv_monomial_exact():
    inv = lp("t").inv()
    assert inv == lp("t^-1") and inv.prec is None
    assert lp("2*t^3").inv() == lp("1/2*t^-3")


def test_inv_series_multiplies_back():
    s = lp("1 - t")
    inv = s.inv(16)
    assert inv.prec == 16
    prod = s * inv
    assert prod.prec == 16 and prod.coeffs == {0: gr(1)}
    geometric = LaurentElement({k: gr(1) for k in range(16)}, 16)
    assert inv == geometric


def _geometric_inverse(s: LaurentElement, working_prec: int) -> LaurentElement:
    """Oracle: s = lc t^m (1 + u) inverted as lc^-1 t^-m sum (-u)^k."""
    m = s.order()
    lc_inv = s.coeffs[m].inverse()
    terms = working_prec if s.prec is None else min(working_prec, s.prec - m)
    u = s.shift(-m).scale(lc_inv) - LaurentElement.one()
    acc = term = LaurentElement.one()
    for _ in range(1, terms):
        term = (term * (-u)).truncated(terms)
        acc = acc + term
    return LaurentElement(acc.coeffs, terms).shift(-m).scale(lc_inv)


def test_inv_matches_geometric_series_oracle():
    rng = random.Random(31)
    for trial in range(120):
        s = random_laurent(rng, max_terms=5, nonzero=True)
        if trial % 3 == 1:
            s = s.truncated(max(s.coeffs) + rng.randint(1, 12))
        if len(s.coeffs) == 1 and s.prec is None:
            continue
        for w in (1, 2, 9, 40):
            assert s.inv(w) == _geometric_inverse(s, w), (format_laurent(s), w)
    # a dense truncated input: the inverse of a series with 24 known terms
    dense = lp("(2-i)*t^-2 + 3/2*t^-1 - t^3").inv(24)
    assert len(dense.coeffs) > 20
    assert dense.inv(24) == _geometric_inverse(dense, 24)


def test_inv_errors():
    with pytest.raises(DivisionByZero):
        lp("0").inv()
    with pytest.raises(PrecisionExhausted):
        LaurentElement({}, 4).inv()


@given(nonzero_laurents, nonzero_laurents)
@settings(max_examples=100)
def test_order_multiplicative(p, q):
    assert (p * q).order() == p.order() + q.order()
    assert p.inv(24).order() == -p.order()


def test_nth_root_exists():
    assert lp("t^2").nth_root_exists(2)
    assert not lp("t^3").nth_root_exists(2)
    assert lp("4*t^2 + 4*t^3").nth_root_exists(2)


def test_nth_root_monomial():
    assert lp("t^4").nth_root(2) == lp("t^2")


def test_nth_root_squares_back():
    s = lp("4*t^2 + 4*t^3")
    root = s.nth_root(2, 10)
    assert root.coeffs[1] == gr(2) and root.coeffs[2] == gr(1)
    assert root.coeffs[3] == gr(Fraction(-1, 4))
    square = root * root
    assert (square - s).is_zero_3v() is not False


def _binomial_root(s: LaurentElement, n: int, working_prec: int) -> LaurentElement:
    """Oracle: s = lc t^m (1 + u) rooted as lc^(1/n) t^(m/n) sum C(1/n, j) u^j."""
    m = s.order()
    if m % n != 0:
        raise NoRoot(f"valuation {m} is not a multiple of {n}")
    lc = s.coeffs[m]
    lc_root = lc.nth_root(n)
    if lc_root is None:
        raise RootNotRepresentable(f"{lc!r} has no {n}-th root in Q(i)")
    u = s.shift(-m).scale(lc.inverse()) - LaurentElement.one()
    if u.is_zero_3v() is True:
        return LaurentElement.monomial(m // n, lc_root)
    terms = working_prec if s.prec is None else min(working_prec, s.prec - m)
    acc = term = LaurentElement.one()
    coef = Fraction(1)
    for j in range(1, terms):
        coef = coef * (Fraction(1, n) - (j - 1)) / j
        term = (term * u).truncated(terms)
        acc = acc + term.scale(coef)
    return LaurentElement(acc.coeffs, terms).shift(m // n).scale(lc_root)


def _seeded_series(rng: random.Random, count: int):
    """Nonzero elements, some powers, every 4th truncated above its top."""
    for i in range(count):
        s = random_laurent(rng, min_exp=-4, max_exp=6, max_terms=6, nonzero=True)
        power = rng.random()
        if power < 0.2:
            s = s * s
        elif power < 0.3:
            s = s * s * s
        if i % 4 == 0:
            s = s.truncated(max(s.coeffs) + rng.randint(1, 20))
        yield s


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the oracle must raise the same class
        return type(exc)


def test_nth_root_matches_binomial_series_oracle():
    rng = random.Random(47)
    raised = 0
    for s in _seeded_series(rng, 160):
        for n in (1, 2, 3, 4):
            for w in (8, 24, 64):
                got = _outcome(lambda: s.nth_root(n, w))
                assert got == _outcome(lambda: _binomial_root(s, n, w)), (format_laurent(s), n, w)
                raised += isinstance(got, type)
    assert 0 < raised < 160 * 4 * 3


@pytest.mark.parametrize("n", [3, 4])
def test_nth_root_at_high_precision(n):
    # 512 recurrence steps must cancel to a root with the four terms of r
    r = lp("(1+2i)*t^-1 - 3 + 1/2*t^2 + (2-i)*t^5")
    s = r**n
    root = s.nth_root(n, 512)
    assert root.prec == 511 and len(root.coeffs) == 4
    assert ((root**n) - s).is_zero_3v() is not False


def test_nth_root_errors():
    with pytest.raises(NoRoot):
        lp("t^3").nth_root(2)
    with pytest.raises(RootNotRepresentable):
        lp("2*t^2").nth_root(2)
    for n in (0, -2):
        with pytest.raises(ValueError, match="root index must be positive"):
            lp("t^2").nth_root(n)


@given(nonzero_laurents, st.integers(min_value=2, max_value=3))
@settings(max_examples=60)
def test_nth_root_of_power(r, n):
    s = r**n
    root = s.nth_root(n, 24)
    assert ((root**n) - s).is_zero_3v() is not False
    assert root.order() == s.order() // n


# -- substitution and derivative ----------------------------------------------


def test_scale_t_examples():
    z = gr(Fraction(5, 3))
    assert lp("t^2").scale_t(z) == LaurentElement({2: z * z})
    s = lp("t^-1 + 7*t^3")
    assert s.scale_t(gr(1)) == s
    assert lp("t^-1 + t").scale_t(gr(2)) == lp("1/2*t^-1 + 2*t")
    with pytest.raises(ZeroScale):
        s.scale_t(gr(0))


def test_d_dt_examples():
    assert lp("t^3").d_dt() == lp("3*t^2")
    assert lp("7").d_dt() == lp("0")
    assert lp("t^-1").d_dt() == lp("-t^-2")
    assert LaurentElement({0: gr(1)}, 5).d_dt().prec == 4


@given(laurents, st.one_of(st.none(), st.integers(-5, 6)))
def test_d_dt_matches_the_entrywise_formula(s, bound):
    s = s.truncated(bound)
    d = s.d_dt()
    assert d.coeffs == {e - 1: c * e for e, c in s.coeffs.items() if e != 0}
    assert -1 not in d.coeffs  # the t^0 term drops out
    assert d.prec == (None if bound is None else bound - 1)


@given(laurents)
def test_residue_of_derivative_vanishes(s):
    assert s.d_dt().residue() == gr(0)


@given(laurents, st.fractions(min_value=1, max_value=3, max_denominator=2))
@settings(max_examples=60)
def test_scale_t_is_ring_map(s, z):
    zz = gr(z)
    other = lp("1 + t^-2")
    assert (s * other).scale_t(zz) == s.scale_t(zz) * other.scale_t(zz)


def test_exact_div():
    a = lp("t^-1 + 2 + t") * lp("3 - t^2")
    assert a.exact_div(lp("3 - t^2")) == lp("t^-1 + 2 + t")
    with pytest.raises(Exception):
        lp("1 + t").exact_div(lp("1 + t + t^2"))
