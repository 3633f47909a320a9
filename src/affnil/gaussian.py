"""Exact arithmetic in Q(i), the Gaussian rationals.

A value is stored as (a + b*i)/d with integers a, b and d > 0,
gcd(a, b, d) = 1.  Keeping everything in machine integers (instead of a pair
of ``Fraction``) matters: these scalars sit in the innermost loops of the
series and matrix arithmetic.

Construction.  ``GaussianRational(re, im)`` takes any rationals and reduces
them.  The arithmetic builds its results with ``_norm`` (one gcd) or, from a
triple that is already reduced, ``_raw`` (none).  Both write the three slots
through the slot descriptors (``GaussianRational.a.__set__`` and so on),
which costs about a third of three ``object.__setattr__`` calls; the public
``__setattr__`` still refuses every assignment, so values stay immutable.

Roots.  One search serves every index n: the complex n-th roots of a
Gaussian integer, counter-clockwise from the principal one, are seeded from
its exact norm and floating phase, refined by integer Newton steps and
verified exactly; the rule at ``GaussianRational.nth_root`` fixes the result.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Tuple, Union

_RatLike = Union[int, Fraction]


def _floor_nth_root(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m > 0 and n >= 2 by integer Newton iteration."""
    if n == 2:
        return math.isqrt(m)
    x = 1 << ((m.bit_length() + n - 1) // n)  # seed >= true root
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _int_nth_root(m: int, n: int) -> Optional[int]:
    """Exact n-th root of an integer m > 0, or None."""
    r = _floor_nth_root(m, n)
    return r if r**n == m else None


def _phase(a: int, b: int) -> float:
    """The argument of a + b*i in (-pi, pi], for integers of any size."""
    shift = max(0, max(a.bit_length(), b.bit_length()) - 512)
    return cmath.phase(complex(a >> shift, b >> shift))


def _pair_power(x: int, y: int, k: int) -> Tuple[int, int]:
    """(x + y*i)^k for k >= 0 on integer pairs, by repeated squaring."""
    ga, gb = 1, 0
    while k:
        if k & 1:
            ga, gb = ga * x - gb * y, ga * y + gb * x
        k >>= 1
        if k:
            x, y = x * x - y * y, 2 * x * y
    return ga, gb


def _gaussian_int_nth_root(wa: int, wb: int, n: int) -> Optional[Tuple[int, int]]:
    """The n-th root in Z[i] of w = wa + wb*i != 0 that ``GaussianRational.nth_root``
    returns, for n >= 2, or None if w has none."""
    norm_g = _int_nth_root(wa * wa + wb * wb, n)  # x^2 + y^2 exactly
    if norm_g is None:
        return None
    theta = _phase(wa, wb)
    mag = math.isqrt(norm_g << 106)  # |g| in fixed point with 53 fraction bits
    rounding = 1 << 105
    # a root r gives the gcd(n, 4) roots r*u, u a unit with u^n = 1, spaced
    # n / gcd(n, 4) complex roots apart: one of them is among the first seeds
    units = ((1, 0), (-1, 0), (0, 1), (0, -1))[: math.gcd(n, 4)]
    for j in range(n // len(units)):
        angle = (theta + 2 * math.pi * j) / n
        x = (mag * round(math.cos(angle) * (1 << 53)) + rounding) >> 106
        y = (mag * round(math.sin(angle) * (1 << 53)) + rounding) >> 106
        # integer Newton on g -> g - (g^n - w) / (n g^(n-1)); the float seed
        # is within relative 1e-15, so a handful of steps reach the root
        for _ in range(12):
            pa, pb = _pair_power(x, y, n - 1)
            gna, gnb = pa * x - pb * y, pa * y + pb * x
            den = n * (pa * pa + pb * pb)
            if den == 0:
                break
            da, db = gna - wa, gnb - wb
            step_x = (da * pa + db * pb + den // 2) // den
            step_y = (db * pa - da * pb + den // 2) // den
            if step_x == 0 and step_y == 0:
                break
            x -= step_x
            y -= step_y
        # the iteration lands within a unit box of any actual root
        for cx, cy in ((x + dx, y + dy) for dx in (0, -1, 1) for dy in (0, -1, 1)):
            if cx * cx + cy * cy == norm_g and _pair_power(cx, cy, n) == (wa, wb):
                # of the roots (cx + cy*i)*u, take the fewest steps of 2*pi/n
                # counter-clockwise of the principal
                return min(((cx * ua - cy * ub, cx * ub + cy * ua) for ua, ub in units),
                           key=lambda g: round((_phase(*g) - theta / n) * n / (2 * math.pi)) % n)
    return None


class GaussianRational:
    """An exact element of Q(i)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        re = Fraction(re)
        im = Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        g = math.gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GaussianRational":
        """Construct from an already-reduced triple (internal)."""
        self = _new(cls)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)
        return self

    @classmethod
    def _norm(cls, a: int, b: int, d: int) -> "GaussianRational":
        """Construct from any triple with d != 0, reduced here (internal)."""
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(a, b, d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        self = _new(cls)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GaussianRational is immutable")

    # -- field structure -------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def _coerce(self, other) -> Optional["GaussianRational"]:
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._norm(
            self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._norm(
            self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational._raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._norm(
            self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        n = self.a * self.a + self.b * self.b
        return GaussianRational._norm(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return self.inverse() ** (-k)
        result = GR_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.a, -self.b, self.d)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # equal values hash equal: a real value hashes as the int or
        # Fraction it equals (``__eq__`` coerces those)
        if self.b == 0:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if self.b == 0:
            return f"GaussianRational({self.re!s})"
        return f"GaussianRational({self.re!s}, {self.im!s})"

    # -- roots ------------------------------------------------------------

    def nth_root(self, n: int) -> Optional["GaussianRational"]:
        """An exact n-th root inside Q(i), or None if there is none.

        Reduces to an n-th root of a Gaussian integer: (g/d)^n = self with
        g^n = (a + b*i) * d^(n-1).  Since Z[i] is integrally closed, any root
        in Q(i) has this shape.  Candidates are located numerically and
        verified exactly.

        The n-th roots in Q(i) are r*u for one root r and the units u with
        u^n = 1.  The one returned is the first of them counter-clockwise from
        the principal root (the complex root of argument arg(self)/n, with
        arg in (-pi, pi]), counting that root itself: the principal root at
        n = 2 and n = 4, e.g. sqrt(-4) = 2i, and the only root at odd n.
        """
        if n <= 0:
            raise ValueError("root index must be positive")
        if self.is_zero:
            return GR_ZERO
        if n == 1:
            return self
        scale = self.d ** (n - 1)
        root = _gaussian_int_nth_root(self.a * scale, self.b * scale, n)
        if root is None:
            return None
        return GaussianRational._norm(root[0], root[1], self.d)


_new = object.__new__
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__

GR_ZERO = GaussianRational._raw(0, 0, 1)
GR_ONE = GaussianRational._raw(1, 0, 1)
GR_I = GaussianRational._raw(0, 1, 1)


def gr(re: _RatLike = 0, im: _RatLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)
