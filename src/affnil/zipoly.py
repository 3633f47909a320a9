"""Dense polynomials over the Gaussian integers, for exact elimination.

A polynomial in Z[i][t] is a list of (re, im) integer pairs, lowest degree
first, with no zero pair at the top; the empty list is zero.  Zero pairs at
the low end are allowed: the entries of one matrix row share that row's
exponent origin, so an entry's valuation is its row's shift plus the index of
its first nonzero pair (:func:`low`).

:func:`from_row` brings a row of exact Laurent elements onto a common
denominator D and exponent shift s (:func:`from_entries` does the same from
the row's nonzero entries alone, and both skip exact zeros), and
:func:`to_laurent` turns a polynomial back into a Laurent element, dividing
by D and shifting once.  In between, products and exact divisions touch
integers only: no coefficient is reduced to lowest terms and no gcd is taken.
That is what makes the fraction-free elimination in :mod:`affnil.matk` cheap,
compared with the same loop on :class:`LaurentElement`, whose every
coefficient is a reduced fraction.  The products are :func:`mul` (f·g; a
monomial factor c·t^k makes it a shift of the other factor and one
Gaussian-integer product per pair; any other product is a :func:`combine` of
one term), :func:`times` (the same product with the left factor made ready
once by :func:`multiplier`, which is how the elimination scales many entries
by one quotient p / prev, testing once per step whether it is a monomial) and
:func:`combine` (a signed sum of any number of products in one accumulator:
the Bareiss step p·x − f·y, the dual-number parts and back-substitution).
:func:`combine_sparse` is the same accumulator on factors already in
:func:`sparse` form, plus an addend, so that the elimination converts the
factors it reuses (the pivot and each pivot-row entry) once per step, not
once per row.  :func:`to_laurent` returns one shared exact zero for the zero
polynomial, so the zeros of a sparse result cost no new element.

Gcds are taken only outside the elimination loop.  :func:`row_content` is the
content of a dense row: :func:`primitive` divides it out of the echelon rows
and the kernel vectors, and ``matk.normalize_vector`` reads it off a vector's
integer form.  ``matk.vector_content``, which only reports the content, reads
the same gcd off the vector's sparse integer terms instead, so that its cost
follows the number of terms, not the exponent span.  :func:`content`, the gcd
over Z[i] of one polynomial, is for the pivots that back-substitution divides
by.

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
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DivisionByZero, ExactDivisionError
from .gaussian import GaussianRational
from .laurent import LaurentElement

Poly = List[Tuple[int, int]]
Sparse = List[Tuple[int, int, int]]

_ZERO_PAIR = (0, 0)
_L_ZERO = LaurentElement.zero()

P = 998244353  # prime, p = 1 mod 4
I_MOD_P = pow(3, (P - 1) // 4, P)  # 3 generates F_p^*, so this squares to -1


def _common_form(row: Iterable[LaurentElement]) -> Tuple[int, Optional[int]]:
    """(D, s): the least common denominator of the row and its least exponent
    (None for a zero row); exact zeros are skipped."""
    den = 1
    shift = None
    for e in row:
        coeffs = e.coeffs
        if not coeffs:
            continue
        for exp, c in coeffs.items():
            if c.d != 1:
                den = den * c.d // math.gcd(den, c.d)
            if shift is None or exp < shift:
                shift = exp
    return den, shift


def from_row(
    row: Sequence[LaurentElement], most: Optional[int] = None
) -> Tuple[int, int, List[Poly]]:
    """(D, s, polys) with polys = D·t^(-s)·row, D the least common denominator
    of the row and s its least exponent, or `most` when that is lower (1, 0
    and zeros for a zero row, or s = `most` when it is given)."""
    return from_entries([(k, e) for k, e in enumerate(row) if e.coeffs], len(row), most)


def from_entries(
    entries: Sequence[Tuple[int, LaurentElement]], width: int, most: Optional[int] = None
) -> Tuple[int, int, List[Poly]]:
    """:func:`from_row` of the row of length `width` whose entries that are
    not exactly zero are the (index, element) pairs `entries`: every other
    index holds the zero polynomial, and the cost beyond the `width` empty
    lists follows the entries given, not the width."""
    den, shift = _common_form(e for _, e in entries)
    if most is not None and (shift is None or most < shift):
        shift = most
    polys: List[Poly] = [[] for _ in range(width)]
    if shift is None:
        return 1, 0, polys
    for k, e in entries:
        coeffs = e.coeffs
        f = [_ZERO_PAIR] * (max(coeffs) - shift + 1)
        for exp, c in coeffs.items():
            m = den // c.d
            f[exp - shift] = (c.a * m, c.b * m)
        polys[k] = f
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
    """The Laurent element t^shift·f/den (den a nonzero integer); the zero
    polynomial gives one shared exact zero, built once."""
    if not f:
        return _L_ZERO
    if den == 1:
        make = GaussianRational._raw
    else:
        make = GaussianRational._norm
    return LaurentElement._raw(
        {shift + i: make(a, b, den) for i, (a, b) in enumerate(f) if a or b}
    )


def neg(f: Poly) -> Poly:
    """−f."""
    return [(-a, -b) for a, b in f]


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
    del re[top:]
    return list(zip(re, im))


def multiplier(f: Poly):
    """f made ready, once, to be the left factor of many products
    (:func:`times`): a monomial c·t^k as the triple (k, re c, im c), any
    other polynomial as its :func:`sparse` form."""
    k = len(f) - 1
    if k >= 0 and f.count(_ZERO_PAIR) == k:
        # a monomial's one nonzero pair is its top one
        return (k,) + f[k]
    return sparse(f)


def times(m, g: Poly) -> Poly:
    """f·g for m the :func:`multiplier` of f: a shift of g and one
    Gaussian-integer product per pair when f is a monomial, one
    :func:`combine_sparse` term otherwise."""
    if not g:
        return []
    if type(m) is not tuple:
        return combine_sparse(((1, m, sparse(g)),))
    k, c, d = m
    if d:
        out = [(a * c - b * d, a * d + b * c) for a, b in g]
    else:
        out = [(a * c, b * c) for a, b in g]
    return [_ZERO_PAIR] * k + out if k else out


def mul(f: Poly, g: Poly) -> Poly:
    """f·g; a monomial factor c·t^k, on either side, makes it a shift of the
    other factor and one Gaussian-integer product per pair."""
    if not f or not g:
        return []
    m = multiplier(f)
    if type(m) is tuple:
        return times(m, g)
    h = multiplier(g)
    if type(h) is tuple:
        return times(h, f)
    return combine_sparse(((1, m, h),))


def combine(triples: Sequence[Tuple[int, Poly, Poly]]) -> Poly:
    """The sum of sign·f·g over the (sign, f, g) triples, sign = ±1, in one
    accumulator; no terms, or terms that cancel, give the zero polynomial."""
    return combine_sparse([(sign, sparse(f), sparse(g)) for sign, f, g in triples if f and g])


def combine_sparse(triples: Sequence[Tuple[int, Sparse, Sparse]], base: Poly = ()) -> Poly:
    """base plus the sum of sign·f·g over the (sign, f, g) triples, sign = ±1,
    with f and g given as their :func:`sparse` forms, so that a factor used
    in many sums is converted once; a zero factor adds nothing, and a sum
    that cancels gives the zero polynomial."""
    # the longest product: f·g reaches index top(f) + top(g)
    size = len(base)
    for _, fz, gz in triples:
        if fz and gz and fz[-1][0] + gz[-1][0] >= size:
            size = fz[-1][0] + gz[-1][0] + 1
    if not size:
        return []
    re = [0] * size
    im = [0] * size
    for k, (a, b) in enumerate(base):
        re[k] = a
        im[k] = b
    for sign, fz, gz in triples:
        if fz and gz:
            _add_product(re, im, fz, gz, sign < 0)
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
