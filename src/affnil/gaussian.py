"""Exact arithmetic in Q(i), the Gaussian rationals.

A value is stored as (a + b*i)/d with integers a, b and d > 0,
gcd(a, b, d) = 1.  Keeping everything in machine integers (instead of a pair
of ``Fraction``) matters: these scalars sit in the innermost loops of the
series and matrix arithmetic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Tuple, Union

_RatLike = Union[int, Fraction]


def _floor_nth_root(m: int, n: int) -> int:
    """floor(m ** (1/n)) for m >= 0 by integer Newton iteration."""
    if m == 0:
        return 0
    if n == 1:
        return m
    if n == 2:
        return math.isqrt(m)
    x = 1 << ((m.bit_length() + n - 1) // n)  # seed >= true root
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _int_nth_root(m: int, n: int) -> Optional[int]:
    """Exact n-th root of a nonnegative integer, or None."""
    if m < 0:
        return None
    r = _floor_nth_root(m, n)
    return r if r**n == m else None


def _gaussian_int_sqrt(wa: int, wb: int) -> Optional[Tuple[int, int]]:
    """Exact square root in Z[i]: if g^2 = wa + wb*i, then

    x^2 = (|w| + wa) / 2 and y^2 = (|w| - wa) / 2 with 2xy = wb,
    everything decidable with integer square roots alone.
    """
    mag = _int_nth_root(wa * wa + wb * wb, 2)
    if mag is None:
        return None
    half, other = mag + wa, mag - wa
    if half % 2 or other % 2:
        return None
    x = math.isqrt(half // 2)
    y = math.isqrt(other // 2)
    if x * x != half // 2 or y * y != other // 2:
        return None
    for sx, sy in ((x, y), (x, -y)):
        if sx * sx - sy * sy == wa and 2 * sx * sy == wb:
            return sx, sy
    return None


def _gaussian_int_nth_root(wa: int, wb: int, n: int) -> Optional[Tuple[int, int]]:
    """Exact n-th root in Z[i]: halve even indices; for odd indices locate
    candidates by floating phase on the exact norm circle and verify exactly."""
    if wa == 0 and wb == 0:
        return 0, 0
    if n == 1:
        return wa, wb
    if n % 2 == 0:
        half = _gaussian_int_sqrt(wa, wb)
        if half is None:
            return None
        # both square roots +-g are candidates: one may admit further roots
        # while the other does not (sqrt(a^8) = -a^4 dead-ends at sqrt(i a^2))
        for sign in (1, -1):
            root = _gaussian_int_nth_root(sign * half[0], sign * half[1], n // 2)
            if root is not None:
                return root
        return None

    def power(x: int, y: int, k: int) -> Tuple[int, int]:
        ga, gb = 1, 0
        for _ in range(k):
            ga, gb = ga * x - gb * y, ga * y + gb * x
        return ga, gb

    norm_g = _int_nth_root(wa * wa + wb * wb, n)  # x^2 + y^2 exactly
    if norm_g is None:
        return None
    shift = max(wa.bit_length(), wb.bit_length())
    shift = max(0, shift - 512)
    theta = cmath.phase(complex(wa >> shift, wb >> shift))
    mag = math.isqrt(norm_g)
    scale = 1 << 53
    for j in range(n):
        angle = (theta + 2 * math.pi * j) / n
        x = (mag * int(math.cos(angle) * scale)) >> 53
        y = (mag * int(math.sin(angle) * scale)) >> 53
        # integer Newton on g -> g - (g^n - w) / (n g^(n-1)); the float seed
        # is within relative 1e-15, so a handful of steps reach the root
        for _ in range(12):
            pa, pb = power(x, y, n - 1)
            gna, gnb = pa * x - pb * y, pa * y + pb * x
            if gna == wa and gnb == wb:
                return x, y
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
        for cx in (x - 1, x, x + 1):
            rest = norm_g - cx * cx
            if rest < 0:
                continue
            ry = math.isqrt(rest)
            if ry * ry != rest:
                continue
            for cy in (ry, -ry):
                if abs(cy - y) <= 1 and power(cx, cy, n) == (wa, wb):
                    return cx, cy
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
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)
        object.__setattr__(self, "d", d // g)

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GaussianRational":
        """Construct from an already-reduced triple (internal)."""
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        return self

    @classmethod
    def _norm(cls, a: int, b: int, d: int) -> "GaussianRational":
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(a, b, d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        return cls._raw(a, b, d)

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


GR_ZERO = GaussianRational._raw(0, 0, 1)
GR_ONE = GaussianRational._raw(1, 0, 1)
GR_I = GaussianRational._raw(0, 1, 1)


def gr(re: _RatLike = 0, im: _RatLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)
