"""Exact arithmetic in K = C[[t]][t^-1] over Gaussian-rational coefficients.

An element is a finite map exponent -> nonzero coefficient together with a
precision marker: ``prec is None`` means the element is known exactly (finite
support), ``prec = N`` means it is known modulo t^N, i.e. every coefficient at
an exponent below N is stored and everything from t^N on is unknown.

Inverses and n-th roots of non-monomials are genuinely infinite series, so
they return truncated elements: s^(p/q) of valuation m, computed by one power
recurrence, is known modulo t^(m p/q + min(W, prec - m)) for a working
precision W.  All other operations propagate the truncation bound honestly.
Decisions that need a definite answer (valuation, pivoting, zero tests) raise
:class:`PrecisionExhausted` instead of guessing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import (
    DivisionByZero,
    ExactDivisionError,
    LaurentSyntaxError,
    NoRoot,
    PrecisionExhausted,
    RootNotRepresentable,
    ZeroHasNoOrder,
    ZeroScale,
)
from .gaussian import GR_ONE, GR_ZERO, GaussianRational

DEFAULT_WORKING_PREC = 64

_Scalar = Union[int, Fraction, GaussianRational]


def _as_gr(value: _Scalar) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


def _min_prec(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def product_bound(
    a_prec: Optional[int], a_low: int, b_prec: Optional[int], b_low: int
) -> Optional[int]:
    """Truncation bound of a·b for a and b not exactly zero, each given by its
    precision (None when exact) and a lower bound for its valuation (its least
    exponent, or its precision when it has no known term): a·b is known below
    a.prec + low(b) and below b.prec + low(a); None when both are exact."""
    if a_prec is None:
        return None if b_prec is None else b_prec + a_low
    if b_prec is None:
        return a_prec + b_low
    return min(a_prec + b_low, b_prec + a_low)


def common_den(coeffs: Iterable[GaussianRational]) -> int:
    """Least common denominator of an iterable of Gaussian rationals."""
    return math.lcm(*{c.d for c in coeffs})


def integer_terms(coeffs: Mapping[int, GaussianRational], den: int) -> list:
    """The terms of den·f as (exponent, re, im) integer triples, for a
    multiple den of every coefficient's denominator; a negative den negates."""
    return [(e, c.a * (den // c.d), c.b * (den // c.d)) for e, c in coeffs.items()]


def convolve(acc: Dict[int, list], terms1: list, terms2: list, bound: Optional[int]):
    """Add the product of two lists of integer terms (see :func:`integer_terms`)
    into acc, a map exponent -> [re, im], skipping exponents from bound on."""
    for e1, a1, b1 in terms1:
        for e2, a2, b2 in terms2:
            e = e1 + e2
            if bound is not None and e >= bound:
                continue
            cell = acc.get(e)
            if cell is None:
                acc[e] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
            else:
                cell[0] += a1 * a2 - b1 * b2
                cell[1] += a1 * b2 + b1 * a2


class LaurentElement:
    """An element of K with tracked truncation."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs: Mapping[int, GaussianRational], prec: Optional[int] = None):
        cleaned: Dict[int, GaussianRational] = {}
        for e, c in coeffs.items():
            if c.is_zero:
                continue
            if prec is not None and e >= prec:
                continue
            cleaned[e] = c
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("LaurentElement is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, prec: Optional[int] = None) -> "LaurentElement":
        return cls({}, prec)

    @classmethod
    def one(cls) -> "LaurentElement":
        return cls({0: GR_ONE})

    @classmethod
    def monomial(cls, exp: int, coef: _Scalar = 1) -> "LaurentElement":
        return cls({exp: _as_gr(coef)})

    @classmethod
    def scalar(cls, value: _Scalar) -> "LaurentElement":
        return cls({0: _as_gr(value)})

    # -- inspection --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.prec is None

    def is_zero_3v(self) -> Optional[bool]:
        """True: exactly zero.  False: definitely nonzero.  None: unknown."""
        if self.coeffs:
            return False
        return True if self.prec is None else None

    def is_one(self) -> bool:
        return self.prec is None and self.coeffs == {0: GR_ONE}

    def order(self) -> int:
        """Valuation: the least exponent carrying a nonzero coefficient."""
        if not self.coeffs:
            if self.prec is None:
                raise ZeroHasNoOrder("order of the exact zero element")
            raise PrecisionExhausted(f"element is zero modulo t^{self.prec}")
        return min(self.coeffs)

    def _min_exp_lb(self) -> Optional[int]:
        """Lower bound for the valuation; None means the element is zero."""
        if self.coeffs:
            return min(self.coeffs)
        return None if self.prec is None else self.prec

    def coeff(self, exp: int) -> GaussianRational:
        """Coefficient at t^exp; raises if the truncation hides it."""
        if self.prec is not None and exp >= self.prec:
            raise PrecisionExhausted(f"coefficient of t^{exp} unknown modulo t^{self.prec}")
        return self.coeffs.get(exp, GR_ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.prec == other.prec

    __hash__ = None  # type: ignore[assignment]

    def equals(self, other: "LaurentElement") -> Optional[bool]:
        """Three-valued semantic equality up to the shared precision."""
        return (self - other).is_zero_3v()

    def __repr__(self):
        return f"<{format_laurent(self)}>"

    # -- additive structure -------------------------------------------------

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        prec = _min_prec(self.prec, other.prec)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s.is_zero:
                    del out[e]
                else:
                    out[e] = s
        return LaurentElement(out, prec)

    def __neg__(self) -> "LaurentElement":
        return LaurentElement({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def scale(self, c: _Scalar) -> "LaurentElement":
        c = _as_gr(c)
        if c.is_zero:
            return LaurentElement.zero(self.prec)
        return LaurentElement({e: v * c for e, v in self.coeffs.items()}, self.prec)

    def shift(self, k: int) -> "LaurentElement":
        """Multiply by the monomial t^k."""
        prec = None if self.prec is None else self.prec + k
        return LaurentElement({e + k: c for e, c in self.coeffs.items()}, prec)

    def truncated(self, bound: Optional[int]) -> "LaurentElement":
        if bound is None:
            return self
        return LaurentElement(self.coeffs, _min_prec(self.prec, bound))

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        if not isinstance(other, LaurentElement):
            return NotImplemented
        # exact zero annihilates regardless of the other side's precision
        if not self.coeffs and self.prec is None:
            return self
        if not other.coeffs and other.prec is None:
            return other
        bound = None
        if self.prec is not None or other.prec is not None:
            bound = product_bound(self.prec, self._min_exp_lb(), other.prec, other._min_exp_lb())
        if not self.coeffs or not other.coeffs:
            return LaurentElement.zero(bound)
        # integer-normalized convolution: pull each factor onto one denominator
        d1 = common_den(self.coeffs.values())
        d2 = common_den(other.coeffs.values())
        acc: Dict[int, list] = {}
        convolve(acc, integer_terms(self.coeffs, d1), integer_terms(other.coeffs, d2), bound)
        den = d1 * d2
        out = {e: GaussianRational._norm(ra, rb, den) for e, (ra, rb) in acc.items()}
        return LaurentElement(out, bound)

    def __pow__(self, k: int) -> "LaurentElement":
        if k < 0:
            raise ValueError("negative power: use inv() explicitly")
        result = LaurentElement.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inv(self, working_prec: int = DEFAULT_WORKING_PREC) -> "LaurentElement":
        """Multiplicative inverse: exact for an exact monomial, otherwise known
        modulo t^(-m + min(W, prec - m)) with m the valuation and W working_prec."""
        if not self.coeffs:
            if self.prec is None:
                raise DivisionByZero("inverse of the exact zero element")
            raise PrecisionExhausted(f"element is zero modulo t^{self.prec}")
        return self._unit_power(-1, 1, self.coeffs[min(self.coeffs)].inverse(), working_prec)

    def _unit_power(
        self, p: int, q: int, lead: GaussianRational, working_prec: int
    ) -> "LaurentElement":
        """self^(p/q) for nonzero self = lc t^m (1 + u), given lead = lc^(p/q).

        m p/q must be an integer.  The coefficients of (1 + u)^(p/q) =
        sum b_k t^k follow J.C.P. Miller's power recurrence (Knuth, TAOCP
        Vol. 2, 4.7): b_0 = 1 and q k b_k = sum_(j=1..k) ((p + q) j - q k)
        u_j b_(k-j), one product per known term of u and coefficient; for
        p/q = -1 it is b_k = -sum_j u_j b_(k-j).  The recurrence is linear, so
        it runs on lead b_k directly.  Each coefficient is summed over one
        common denominator as an (a, b, d) triple and reduced once.
        """
        m = min(self.coeffs)
        shift = m * p // q
        if len(self.coeffs) == 1 and self.prec is None:
            return LaurentElement.monomial(shift, lead)
        lc_inv = self.coeffs[m].inverse()
        terms = working_prec
        if self.prec is not None:
            terms = min(terms, self.prec - m)
        u = []
        for e, c in sorted(self.coeffs.items()):
            if 0 < e - m < terms:
                c = c * lc_inv
                u.append((e - m, c.a, c.b, c.d))
        b = [(lead.a, lead.b, lead.d)]
        for k in range(1, terms):
            sa = sb = 0
            sd = 1
            for j, ua, ub, ud in u:
                if j > k:
                    break
                ba, bb, bd = b[k - j]
                w = (p + q) * j - q * k
                if not (w and (ba or bb)):
                    continue
                pd = ud * bd
                g = math.gcd(sd, pd)
                to_s, to_p = pd // g, sd // g * w
                sa = sa * to_s + (ua * ba - ub * bb) * to_p
                sb = sb * to_s + (ua * bb + ub * ba) * to_p
                sd *= to_s
            sd *= q * k
            g = math.gcd(sa, sb, sd)
            b.append((sa // g, sb // g, sd // g))
        out = {k + shift: GaussianRational._raw(*c) for k, c in enumerate(b[:max(terms, 0)])}
        return LaurentElement(out, terms + shift)

    def exact_div(self, other: "LaurentElement") -> "LaurentElement":
        """Exact quotient in the Laurent-polynomial ring (both operands exact)."""
        if self.prec is not None or other.prec is not None:
            raise ExactDivisionError("exact_div needs exact operands")
        if not other.coeffs:
            raise DivisionByZero("exact division by zero")
        if not self.coeffs:
            return LaurentElement.zero()
        if len(other.coeffs) == 1:
            ((e, c),) = other.coeffs.items()
            return self.shift(-e).scale(c.inverse())
        num = dict(self.coeffs)
        lead = max(other.coeffs)
        lead_c_inv = other.coeffs[lead].inverse()
        low_bound = min(num) - min(other.coeffs)
        quot: Dict[int, GaussianRational] = {}
        while num:
            top = max(num)
            k = top - lead
            if k < low_bound:
                raise ExactDivisionError("division left a remainder")
            c = num[top] * lead_c_inv
            quot[k] = c
            for e2, c2 in other.coeffs.items():
                e = e2 + k
                v = num.get(e, GR_ZERO) - c * c2
                if v.is_zero:
                    num.pop(e, None)
                else:
                    num[e] = v
        return LaurentElement(quot)

    # -- valuation-flavoured operations --------------------------------------

    def residue(self) -> GaussianRational:
        """Coefficient of t^-1."""
        if self.prec is not None and self.prec < 0:
            raise PrecisionExhausted(f"t^-1 coefficient unknown modulo t^{self.prec}")
        return self.coeffs.get(-1, GR_ZERO)

    def nth_root_exists(self, n: int) -> bool:
        """True iff the valuation is divisible by n (root criterion in K)."""
        if n <= 0:
            raise ValueError("root index must be positive")
        return self.order() % n == 0

    def nth_root(self, n: int, working_prec: int = DEFAULT_WORKING_PREC) -> "LaurentElement":
        """An n-th root: exact for an exact monomial, otherwise known modulo
        t^(m/n + min(W, prec - m)) with m the valuation and W working_prec."""
        if n <= 0:
            raise ValueError("root index must be positive")
        m = self.order()
        if m % n != 0:
            raise NoRoot(f"valuation {m} is not a multiple of {n}")
        lc = self.coeffs[m]
        lc_root = lc.nth_root(n)
        if lc_root is None:
            raise RootNotRepresentable(f"{lc!r} has no {n}-th root in Q(i)")
        return self._unit_power(1, n, lc_root, working_prec)

    def scale_t(self, z: _Scalar) -> "LaurentElement":
        """The substitution t -> z*t; coefficient a_m picks up z^m."""
        z = _as_gr(z)
        if z.is_zero:
            raise ZeroScale("t -> 0*t is not a field automorphism")
        return LaurentElement({e: c * z**e for e, c in self.coeffs.items()}, self.prec)

    def d_dt(self) -> "LaurentElement":
        """Termwise derivative; the truncation bound drops by one degree."""
        prec = None if self.prec is None else self.prec - 1
        norm = GaussianRational._norm
        return LaurentElement(
            {e - 1: norm(c.a * e, c.b * e, c.d) for e, c in self.coeffs.items() if e != 0},
            prec,
        )


# ---------------------------------------------------------------------------
# Text literals
#
# laurent  := sign? term (sign term)* (sign big_o)? | sign? big_o
# term     := coef ("*"? tpow)? | tpow
# tpow     := "t" ("^" int)?
# big_o    := "O" "(" "t" ("^" int)? ")"
# coef     := urat | "(" complex ")"
# complex  := rat (sign urat? "i")? | rat "i" | sign? "i"
# rat      := sign? urat
# urat     := digits ("/" digits)?
# int      := sign? digits
# sign     := "+" | "-"
#
# Whitespace may separate any two tokens except the sign and `i` of `(-i)`,
# digits are ASCII, and a denominator must be nonzero.
# `(i)`, `(3i)` and `(-i)` are imaginary shorthands; a repeated exponent adds
# its coefficients.  The O(t^N) tail encodes a truncation bound (its sign is
# ignored) so that every value the library can produce has a parseable
# rendering.
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def expect(self, ch: str):
        if self.peek() != ch:
            raise LaurentSyntaxError(f"expected {ch!r}", self.i)
        self.i += 1

    def fail(self, message: str):
        raise LaurentSyntaxError(message, self.i)


def _scan_int(sc: _Scanner, signed: bool = True) -> int:
    sc.skip_ws()
    start = sc.i
    sign = 1
    if signed and sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
        sc.skip_ws()
    digits = ""
    while sc.peek().isdigit():
        digits += sc.take()
    if not digits:
        sc.i = start
        sc.fail("expected an integer")
    try:
        return sign * int(digits)
    except ValueError:
        sc.i = start
        if not digits.isascii():  # such as '²', a digit that int() does not read
            sc.fail(f"integer literal {digits!r} is not decimal")
        # longer than the interpreter's int conversion limit
        sc.fail(f"integer literal of {len(digits)} digits is too long")


def _scan_rat(sc: _Scanner, signed: bool = True) -> Fraction:
    num = _scan_int(sc, signed)
    sc.skip_ws()
    if sc.peek() == "/":
        sc.take()
        den = _scan_int(sc, signed=False)
        if den == 0:
            sc.fail("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _scan_complex(sc: _Scanner) -> GaussianRational:
    """Contents of a parenthesized coefficient, opening paren consumed."""
    sc.skip_ws()
    if sc.peek() == "i":  # (i), tolerated shorthand
        sc.take()
        re, im = Fraction(0), Fraction(1)
    elif sc.peek() in "+-" and sc.text[sc.i : sc.i + 2] in ("+i", "-i"):
        im = Fraction(-1) if sc.take() == "-" else Fraction(1)
        sc.take()
        re = Fraction(0)
    else:
        first = _scan_rat(sc)
        sc.skip_ws()
        if sc.peek() == "i":  # (3i), tolerated shorthand
            sc.take()
            re, im = Fraction(0), first
        elif sc.peek() in "+-":
            sign = -1 if sc.take() == "-" else 1
            sc.skip_ws()
            if sc.peek() == "i":
                mag = Fraction(1)
            else:
                mag = _scan_rat(sc, signed=False)
                sc.skip_ws()
            if sc.peek() != "i":
                sc.fail("expected 'i' after imaginary part")
            sc.take()
            re, im = first, sign * mag
        else:
            re, im = first, Fraction(0)
    sc.skip_ws()
    sc.expect(")")
    return GaussianRational(re, im)


def _scan_tpow(sc: _Scanner) -> int:
    sc.expect("t")
    sc.skip_ws()
    if sc.peek() == "^":
        sc.take()
        return _scan_int(sc)
    return 1


def _scan_term(sc: _Scanner) -> Tuple[GaussianRational, int]:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "(":
        sc.take()
        coef = _scan_complex(sc)
        sc.skip_ws()
        if sc.peek() == "*":
            sc.take()
            sc.skip_ws()
            return coef, _scan_tpow(sc)
        if sc.peek() == "t":
            return coef, _scan_tpow(sc)
        return coef, 0
    if ch == "t":
        return GR_ONE, _scan_tpow(sc)
    if ch.isdigit():
        value = _scan_rat(sc, signed=False)
        sc.skip_ws()
        if sc.peek() == "*":
            sc.take()
            sc.skip_ws()
            return GaussianRational(value), _scan_tpow(sc)
        if sc.peek() == "t":
            return GaussianRational(value), _scan_tpow(sc)
        return GaussianRational(value), 0
    sc.fail("expected a term")


def _scan_big_o(sc: _Scanner) -> int:
    sc.expect("O")
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    sc.expect("t")
    sc.skip_ws()
    if sc.peek() == "^":
        sc.take()
        bound = _scan_int(sc)
    else:
        bound = 1
    sc.skip_ws()
    sc.expect(")")
    return bound


def parse_laurent(text: str) -> LaurentElement:
    """Parse a Laurent literal such as ``t^-2 + 3*t`` or ``(1/2+3/4i)*t^5``."""
    sc = _Scanner(text)
    sc.skip_ws()
    if not sc.peek():
        sc.fail("empty literal")
    total: Dict[int, GaussianRational] = {}
    prec: Optional[int] = None
    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    while True:
        sc.skip_ws()
        if sc.peek() == "O":
            prec = _scan_big_o(sc)
            sc.skip_ws()
            if sc.peek():
                sc.fail("truncation marker must come last")
            break
        coef, exp = _scan_term(sc)
        if sign < 0:
            coef = -coef
        prev = total.get(exp)
        total[exp] = coef if prev is None else prev + coef
        sc.skip_ws()
        if not sc.peek():
            break
        joiner = sc.take()
        if joiner not in "+-":
            sc.i -= 1
            sc.fail("expected '+' or '-' between terms")
        sign = -1 if joiner == "-" else 1
    return LaurentElement(total, prec)


def _fmt_complex_body(c: GaussianRational) -> str:
    im = c.im
    if im == 1:
        tail = "+i"
    elif im == -1:
        tail = "-i"
    elif im >= 0:
        tail = f"+{im}i"
    else:
        tail = f"-{-im}i"
    return f"({c.re}{tail})"


def _fmt_term(exp: int, coef: GaussianRational, first: bool) -> str:
    if exp == 0:
        tpart = ""
    elif exp == 1:
        tpart = "t"
    else:
        tpart = f"t^{exp}"
    if coef.im == 0:
        mag = abs(coef.re)
        negative = coef.re < 0
        if tpart and mag == 1:
            body = tpart
        elif tpart:
            body = f"{mag}*{tpart}"
        else:
            body = f"{mag}"
        if first:
            return ("-" if negative else "") + body
        return (" - " if negative else " + ") + body
    body = _fmt_complex_body(coef)
    if tpart:
        body = f"{body}*{tpart}"
    return body if first else " + " + body


def format_laurent(elem: LaurentElement) -> str:
    """Canonical literal: ascending exponents, unit coefficients elided."""
    parts = []
    for exp in sorted(elem.coeffs):
        parts.append(_fmt_term(exp, elem.coeffs[exp], first=not parts))
    if elem.prec is not None:
        marker = f"O(t^{elem.prec})"
        return f"{''.join(parts)} + {marker}" if parts else marker
    return "".join(parts) if parts else "0"


def parse_scalar(text: str) -> GaussianRational:
    """Parse a t-free literal ('5', '-1/2', '(1/2+3/4i)')."""
    elem = parse_laurent(text)
    if elem.prec is not None or any(e != 0 for e in elem.coeffs):
        raise LaurentSyntaxError("expected a scalar literal", 0)
    return elem.coeffs.get(0, GR_ZERO)


def format_scalar(value: GaussianRational) -> str:
    if value.im == 0:
        return str(value.re)
    return _fmt_complex_body(value)
