"""Exact Laurent polynomials evaluated at a point of F_p, for the modular
choice of Jordan chain tops in :mod:`affnil.normalform`.

p = 998244353 is prime and p = 1 mod 4, so F_p holds a square root of -1 and
Q(i) maps into F_p by i -> I_MOD_P.  An evaluation fails, and returns None,
when p divides a coefficient's denominator.  What is decided at a point only
steers a computation; it is always re-checked exactly.
"""

from __future__ import annotations

from typing import Optional

from .gaussian import GaussianRational
from .laurent import LaurentElement

P = 998244353  # prime, p = 1 mod 4
I_MOD_P = pow(3, (P - 1) // 4, P)  # 3 generates F_p^*, so this squares to -1


def scalar_mod_p(c: GaussianRational) -> Optional[int]:
    """c in F_p with i -> I_MOD_P; None when p divides its denominator."""
    v = c.a + c.b * I_MOD_P
    if c.d != 1:
        d = c.d % P
        if d == 0:
            return None
        v *= pow(d, -1, P)
    return v % P


def value_mod_p(el: LaurentElement, t0: int) -> Optional[int]:
    """el at t = t0 in F_p (i -> I_MOD_P); None when p divides a denominator."""
    acc = 0
    for exp, c in el.coeffs.items():
        v = scalar_mod_p(c)
        if v is None:
            return None
        acc += v * pow(t0, exp, P)
    return acc % P
