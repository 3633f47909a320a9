"""Dense polynomials over the Gaussian integers, for exact elimination.

A polynomial in Z[i][t] is a list of (re, im) integer pairs, lowest degree
first, with no zero pair at the top; the empty list is zero.  Zero pairs at
the low end are allowed: the entries of one matrix row share that row's
exponent origin, so an entry's valuation is its row's shift plus the index of
its first nonzero pair (:func:`low`).

:func:`from_row` brings a row of exact Laurent elements onto a common
denominator D and exponent shift s, and :func:`to_laurent` turns a polynomial
back into a Laurent element, dividing by D and shifting once.  In between,
products and exact divisions touch integers only: no coefficient is reduced
to lowest terms and no gcd is taken.  That is what makes the fraction-free
elimination in :mod:`affnil.matk` cheap, compared with the same loop on
:class:`LaurentElement`, whose every coefficient is a reduced fraction.
The products are :func:`mul` (f·g), :func:`mul_sub` (p·x − f·y, the Bareiss
step) and :func:`combine` (a signed sum of any number of products, for the
dual-number parts and for back-substitution).

Gcds are taken only outside the elimination loop.  :func:`row_content` is the
one content routine: :func:`primitive` divides it out of the echelon rows and
the kernel vectors, and ``matk.vector_content`` and ``matk.normalize_vector``
read it off a vector's integer form.  :func:`content`, the gcd over Z[i] of
one polynomial, is for the pivots that back-substitution divides by.

:func:`values_mod_p` evaluates the same integer form at a point of F_p,
p = 998244353, with i mapped to a square root of −1 (p = 1 mod 4), for the
independence tests of :mod:`affnil.normalform`.  Every value is defined,
whatever the denominators.

Products run over the nonzero pairs only (:func:`sparse`), but a dense entry
still costs time and memory in proportion to its exponent span: building it,
scanning it for its nonzero pairs, and every accumulator, exact division and
conversion walk the whole list.  Every entry of a row starts at the row's
least exponent, so its span is up to the row's exponent range.  For documents
the CLI's exponent cap of ±1000 bounds it; a library caller with entries like
t^500000 − 1 pays for 500000 pairs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .errors import DivisionByZero, ExactDivisionError
from .gaussian import GaussianRational
from .laurent import LaurentElement

Poly = List[Tuple[int, int]]
Sparse = List[Tuple[int, int, int]]

_ZERO_PAIR = (0, 0)

P = 998244353  # prime, p = 1 mod 4
I_MOD_P = pow(3, (P - 1) // 4, P)  # 3 generates F_p^*, so this squares to -1


def _common_form(row: Sequence[LaurentElement]) -> Tuple[int, Optional[int]]:
    """(D, s): the least common denominator of the row and its least exponent
    (None for a zero row)."""
    den = 1
    shift = None
    for e in row:
        for exp, c in e.coeffs.items():
            if c.d != 1:
                den = den * c.d // math.gcd(den, c.d)
            if shift is None or exp < shift:
                shift = exp
    return den, shift


def from_row(row: Sequence[LaurentElement]) -> Tuple[int, int, List[Poly]]:
    """(D, s, polys) with polys = D·t^(-s)·row, D the least common denominator
    of the row and s its least exponent (1, 0 and zeros for a zero row)."""
    den, shift = _common_form(row)
    if shift is None:
        return 1, 0, [[] for _ in row]
    polys = []
    for e in row:
        if not e.coeffs:
            polys.append([])
            continue
        f = [_ZERO_PAIR] * (max(e.coeffs) - shift + 1)
        for exp, c in e.coeffs.items():
            m = den // c.d
            f[exp - shift] = (c.a * m, c.b * m)
        polys.append(f)
    return den, shift, polys


def values_mod_p(row: Sequence[LaurentElement], t0: int) -> List[int]:
    """The polynomials D·t^(-s)·row of :func:`from_row` at t = t0 in F_p, with
    i -> I_MOD_P, at one modular power per term, whatever the span."""
    den, shift = _common_form(row)
    return [
        sum(
            (c.a + c.b * I_MOD_P) * (den // c.d) * pow(t0, exp - shift, P)
            for exp, c in e.coeffs.items()
        ) % P
        for e in row
    ]


def to_laurent(f: Poly, shift: int = 0, den: int = 1) -> LaurentElement:
    """The Laurent element t^shift·f/den (den a nonzero integer)."""
    if den == 1:
        make = GaussianRational._raw
    else:
        make = GaussianRational._norm
    return LaurentElement(
        {shift + i: make(a, b, den) for i, (a, b) in enumerate(f) if a or b}
    )


def low(f: Poly) -> int:
    """Index of the first nonzero pair of a nonzero polynomial."""
    for i, pair in enumerate(f):
        if pair != _ZERO_PAIR:
            return i
    raise ValueError("the zero polynomial has no low index")


def terms(f: Poly) -> int:
    """Number of nonzero pairs."""
    return len(f) - f.count(_ZERO_PAIR)


def sparse(f: Poly) -> Sparse:
    """The nonzero pairs of f as (index, re, im), lowest index first."""
    return [(i, a, b) for i, (a, b) in enumerate(f) if a or b]


def _add_product(re: List[int], im: List[int], fz: Sparse, gz: Sparse, negate: bool):
    """re + i·im += ±f·g, schoolbook over the nonzero pairs of each side."""
    if len(fz) > len(gz):
        fz, gz = gz, fz
    for i, a, b in fz:
        if negate:
            a, b = -a, -b
        if b:
            for j, c, d in gz:
                k = i + j
                re[k] += a * c - b * d
                im[k] += a * d + b * c
        else:
            for j, c, d in gz:
                k = i + j
                re[k] += a * c
                im[k] += a * d


def _pack(re: List[int], im: List[int]) -> Poly:
    top = len(re)
    while top and not re[top - 1] and not im[top - 1]:
        top -= 1
    return list(zip(re[:top], im[:top]))


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return []
    size = len(f) + len(g) - 1
    re = [0] * size
    im = [0] * size
    _add_product(re, im, sparse(f), sparse(g), False)
    return _pack(re, im)


def mul_sub(p: Poly, x: Poly, f: Poly, y: Poly) -> Poly:
    """p·x − f·y."""
    both = p and x
    size = len(p) + len(x) - 1 if both else 0
    if f and y:
        size = max(size, len(f) + len(y) - 1)
    elif not both:
        return []
    re = [0] * size
    im = [0] * size
    if both:
        _add_product(re, im, sparse(p), sparse(x), False)
    if f and y:
        _add_product(re, im, sparse(f), sparse(y), True)
    return _pack(re, im)


def combine(triples: Sequence[Tuple[int, Poly, Poly]]) -> Poly:
    """The sum of sign·f·g over the (sign, f, g) triples, sign = ±1, in one
    accumulator; no terms, or terms that cancel, give the zero polynomial."""
    products = [(sign < 0, sparse(f), sparse(g)) for sign, f, g in triples if f and g]
    if not products:
        return []
    size = max(fz[-1][0] + gz[-1][0] for _, fz, gz in products) + 1
    re = [0] * size
    im = [0] * size
    for negate, fz, gz in products:
        _add_product(re, im, fz, gz, negate)
    return _pack(re, im)


def _divide_pair(a: int, b: int, c: int, d: int, norm: int) -> Tuple[int, int]:
    """(a + b·i) / (c + d·i) in Z[i], norm = c² + d²; raises on a remainder."""
    qa, ra = divmod(a * c + b * d, norm)
    qb, rb = divmod(b * c - a * d, norm)
    if ra or rb:
        raise ExactDivisionError("division left a remainder")
    return qa, qb


def exact_div(f: Poly, g: Poly) -> Poly:
    """f / g in Z[i][t]; raises ExactDivisionError unless g divides f there."""
    if not g:
        raise DivisionByZero("exact division by zero")
    if not f:
        return []
    gz = sparse(g)
    lg = len(g)
    size = len(f) - lg + 1
    if size <= 0:
        raise ExactDivisionError("division left a remainder")
    c, d = g[-1]
    norm = c * c + d * d
    if len(gz) == 1:
        # a monomial: divide every pair, after checking the low end is zero
        if any(pair != _ZERO_PAIR for pair in f[: lg - 1]):
            raise ExactDivisionError("division left a remainder")
        if norm == 1:  # a unit: multiply by its conjugate
            return [(a * c + b * d, b * c - a * d) for a, b in f[lg - 1:]]
        return [
            _divide_pair(a, b, c, d, norm) if a or b else _ZERO_PAIR
            for a, b in f[lg - 1:]
        ]
    re = [a for a, _ in f]
    im = [b for _, b in f]
    quot = [_ZERO_PAIR] * size
    for k in range(size - 1, -1, -1):
        a = re[k + lg - 1]
        b = im[k + lg - 1]
        if not (a or b):
            continue
        qa, qb = _divide_pair(a, b, c, d, norm)
        quot[k] = (qa, qb)
        for j, gc, gd in gz:
            re[k + j] -= qa * gc - qb * gd
            im[k + j] -= qa * gd + qb * gc
    if any(re[: lg - 1]) or any(im[: lg - 1]):
        raise ExactDivisionError("division left a remainder")
    return quot


def _gcd_pair(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """A gcd of a + b·i and c + d·i in Z[i], by Euclid with rounded quotients."""
    while c or d:
        norm = c * c + d * d
        qa = (2 * (a * c + b * d) + norm) // (2 * norm)
        qb = (2 * (b * c - a * d) + norm) // (2 * norm)
        a, b, c, d = c, d, a - qa * c + qb * d, b - qa * d - qb * c
    return a, b


def content(f: Poly) -> Tuple[int, int]:
    """The gcd in Z[i] of the coefficients of a nonzero f: the associate
    a + b·i with a > 0 and b >= 0."""
    a = b = 0
    for c, d in f:
        if c or d:
            a, b = _gcd_pair(c, d, a, b)
            if a * a + b * b == 1:
                break
    if not (a or b):
        raise ValueError("the zero polynomial has no content")
    while a <= 0 or b < 0:
        a, b = -b, a  # multiply by i
    return a, b


def row_content(row: Sequence[Poly]) -> Tuple[int, Optional[int]]:
    """(g, lo): the gcd of all the integers of the row and the least index of
    a nonzero pair in it; (0, None) for a zero row.

    When the row is D·t^(-s)·v (:func:`from_row`), v = (g/D)·t^(s+lo)·w with
    w of content 1 and least index 0.
    """
    g = 0
    lo = None
    for f in row:
        if f:
            g = math.gcd(g, *[x for pair in f for x in pair])
            i = low(f)
            if lo is None or i < lo:
                lo = i
    return g, lo


def primitive(row: List[Poly]) -> List[Poly]:
    """The row divided by its :func:`row_content`: by the gcd of all its
    integers, with the zero pairs that every entry has at its low end removed;
    a zero row is returned as is.

    The result is the unique row of Gaussian-integer polynomials with content
    1 and least index 0 that is a positive rational multiple of t^k·row.
    """
    g, lo = row_content(row)
    if lo is None or (g == 1 and lo == 0):
        return row
    if g == 1:
        return [f[lo:] if f else f for f in row]
    return [[(a // g, b // g) for a, b in f[lo:]] if f else f for f in row]
