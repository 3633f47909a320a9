"""Exact Laurent polynomials reduced into F_p[t], for the modular shortcuts.

p = 998244353 is prime and p = 1 mod 4, so F_p holds both square roots of -1
and Q(i) maps into F_p in two ways, i -> I_MOD_P and i -> -I_MOD_P (one for
each of the two primes of Z[i] over p).  A reduction fails, and returns None,
when p divides a coefficient's denominator.  The modular shortcuts only steer
a computation; what they decide is always re-checked exactly.
"""

from __future__ import annotations

from typing import List, Optional

from .gaussian import GaussianRational
from .laurent import LaurentElement

P = 998244353  # prime, p = 1 mod 4
I_MOD_P = pow(3, (P - 1) // 4, P)  # 3 generates F_p^*, so this squares to -1
SQRTS_OF_MINUS_ONE = (I_MOD_P, P - I_MOD_P)


def scalar_mod_p(c: GaussianRational, i_mod_p: int = I_MOD_P) -> Optional[int]:
    """c in F_p with i -> i_mod_p; None when p divides its denominator."""
    v = c.a + c.b * i_mod_p
    if c.d != 1:
        d = c.d % P
        if d == 0:
            return None
        v *= pow(d, -1, P)
    return v % P


def coeffs_mod_p(el: LaurentElement, i_mod_p: int = I_MOD_P) -> Optional[List[int]]:
    """Dense coefficients of t^(-ord el)·el in F_p, lowest first, i -> i_mod_p.

    [] for zero; None when p divides a coefficient's denominator.  The end
    entries are the images of el's end coefficients and may vanish mod p.
    """
    if not el.coeffs:
        return []
    low = min(el.coeffs)
    out = [0] * (max(el.coeffs) - low + 1)
    for exp, c in el.coeffs.items():
        v = scalar_mod_p(c, i_mod_p)
        if v is None:
            return None
        out[exp - low] = v
    return out


def value_mod_p(el: LaurentElement, t0: int) -> Optional[int]:
    """el at t = t0 in F_p (i -> I_MOD_P); None when p divides a denominator."""
    acc = 0
    for exp, c in el.coeffs.items():
        v = scalar_mod_p(c)
        if v is None:
            return None
        acc += v * pow(t0, exp, P)
    return acc % P


def divides_mod_p(num: List[int], den: List[int]) -> bool:
    """Whether den divides num in F_p[t]; den's last coefficient is nonzero."""
    rem = list(num)
    top = len(den) - 1
    lead_inv = pow(den[top], -1, P)
    lower = [(k, c) for k, c in enumerate(den[:top]) if c]
    for end in range(len(rem) - 1, top - 1, -1):
        q = rem[end] * lead_inv % P
        if q:
            off = end - top
            for k, c in lower:
                rem[off + k] = (rem[off + k] - q * c) % P
    return not any(rem[:top])
