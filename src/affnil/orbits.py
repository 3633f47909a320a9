"""Classification of nilpotent orbits: the label map, conjugacy, enumeration.

A nilpotent element X + lambda*c is reduced to a quasi-Jordan form D; the
orbit label is (sigma, k, level) where sigma is the block-size partition,
k the valuation of the product of block multiplicities reduced mod
gcd(sigma), and the level is the c-coefficient of the reduced element.
The label is a complete orbit invariant: two nilpotent elements are
conjugate exactly when their labels are equal.  k is only defined mod
gcd(sigma): rescaling block b of a quasi-Jordan form by t^(e_b) shifts the
multiplicity valuation by sum(sigma_b e_b), and the determinants of matrices
commuting with a nilpotent of type sigma have valuations exactly
gcd(sigma) * Z, so those sums are all the shifts there are.

The level is lambda + res<h^-1 h', x>_t, the c-part of Ad h applied along
the computed conjugator h = S T.  For T = P^-1 the correction collapses to
-kappa * res tr(P^-1 x P'), and tr(adj(P) x P') comes out of a single
dual-number determinant, so the whole computation stays in exact arithmetic
with one scalar series inversion at the end, taken to exactly the length that
the t^-1 coefficient reads.  For exact x the reduction has checked x P = P J
exactly, so x P' enters that determinant as P' J (tr(P^-1 x P') =
tr(J P^-1 P') = tr(P^-1 P' J)): a shift of the columns of P', with no product.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .affine import AffineElement, GroupElement, det_mode_of, killing_coef
from .errors import (
    NotConjugate,
    NotNilpotent,
    ShapeMismatch,
)
from .gaussian import GR_ONE, GR_ZERO, GaussianRational
from .laurent import DEFAULT_WORKING_PREC, LaurentElement
from .matk import MatK, det_and_adj_trace, trace_coeff
from .normalform import (
    OrbitLabel,
    QuasiJordanForm,
    canonical_rep,
    mult_order,
    reduce_to_quasi_jordan,
    times_jordan,
)

_L_ONE = LaurentElement.one()


def classify(
    a: AffineElement,
    working_prec: int = DEFAULT_WORKING_PREC,
    kappa_coef: GaussianRational | None = None,
) -> OrbitLabel:
    """The complete orbit invariant (sigma, k, level) of a nilpotent element.

    k is the multiplicity valuation of the reduced form mod gcd(sigma); the
    level is lambda plus the c-correction of the reducing conjugator.  A 0×0
    element has no partition: :class:`InvalidPartition`.
    """
    if not a.d_coef.is_zero:
        raise NotNilpotent("element has nonzero derivation component")
    # the matrix part is checked by the reduction: NotNilpotent comes from a
    # power x(t0)^n != 0 at a point or from the exact powers, which run when
    # no point certifies the chains, and PrecisionExhausted from a truncated
    # power that is undetermined
    kappa = killing_coef(a.n) if kappa_coef is None else kappa_coef
    data = reduce_to_quasi_jordan(a.mat, working_prec)
    sigma = data.form.sizes()
    k = mult_order(data.form) % math.gcd(*sigma)
    if data.p_mat is None:
        level = a.c_coef
    else:
        p_mat = data.p_mat
        if a.mat.all_exact():
            # x·P = P·J holds exactly, so tr(adj(P)·x·P′) = tr(adj(P)·P′·J)
            direction = times_jordan(p_mat.d_dt(), sigma)
        else:
            direction = a.mat * p_mat.d_dt()
        if p_mat.all_exact() and direction.all_exact():
            det_p, adj_trace = det_and_adj_trace(p_mat, direction)
            # the t^-1 coefficient of adj_trace / det_p reads 1/det_p up to
            # t^(-1 - ord adj_trace): ord det_p - ord adj_trace terms, which
            # may be more than working_prec, since both sides are exact
            terms = 1
            if adj_trace.coeffs:
                terms = max(1, det_p.order() - adj_trace.order())
            residue = trace_coeff(adj_trace, det_p.inv(terms), -1)
        else:
            residue = trace_coeff(p_mat.inv(working_prec), direction, -1)
        level = a.c_coef - kappa * residue
    return OrbitLabel(sigma, k, level)


def level_of(
    a: AffineElement,
    working_prec: int = DEFAULT_WORKING_PREC,
    kappa_coef: GaussianRational | None = None,
) -> GaussianRational:
    """The level of the orbit through a nilpotent element."""
    return classify(a, working_prec, kappa_coef).level


def are_conjugate(
    a: AffineElement,
    b: AffineElement,
    working_prec: int = DEFAULT_WORKING_PREC,
    kappa_coef: GaussianRational | None = None,
) -> bool:
    """Orbit equality through the complete invariant."""
    return classify(a, working_prec, kappa_coef) == classify(
        b, working_prec, kappa_coef
    )


def conjugator_quasi_jordan(
    src: QuasiJordanForm,
    dst: QuasiJordanForm,
    working_prec: int = DEFAULT_WORKING_PREC,
) -> GroupElement:
    """Diagonal h with h.g M(src) h.g^-1 = M(dst).

    Requires equal block sizes and the multiplicity-valuation difference to be
    a multiple of gcd(sizes).  Block b starts with the monomial t^(e_b), where
    sum(size_b * e_b) is that difference (Bezout), so ord(det h.g) vanishes.
    The result is re-checked by multiplication.
    """
    sizes = src.sizes()
    if sizes != dst.sizes():
        raise ShapeMismatch(f"block sizes {sizes} vs {dst.sizes()}")
    diff = mult_order(dst) - mult_order(src)
    step, coefs = _bezout(sizes)
    if diff % step != 0:
        raise NotConjugate(
            f"multiplicity valuations differ by {diff}, not a multiple of {step}"
        )
    scale = diff // step
    entries: List[LaurentElement] = []
    for bi, (size, p_diag) in enumerate(src.blocks):
        q_diag = dst.blocks[bi][1]
        e = LaurentElement.monomial(coefs[bi] * scale)
        entries.append(e)
        for i in range(size - 1):
            e = e * p_diag[i] * q_diag[i].inv(working_prec)
            entries.append(e)
    g = MatK.diag(entries)
    # conjugation identity holds by construction; re-check to precision
    lhs = g * src.matrix()
    rhs = dst.matrix() * g
    if (lhs - rhs).is_zero_3v() is False:
        raise AssertionError("conjugator construction failed")
    det = math.prod(entries, start=_L_ONE)
    return GroupElement(GR_ONE, g, det_mode_of(det, len(entries)))


def _bezout(sizes: Tuple[int, ...]) -> Tuple[int, List[int]]:
    """gcd(sizes) and integers c_b with sum(c_b * sizes[b]) = gcd(sizes).

    Built from the last (smallest) part upwards; a part already divisible by
    the running gcd gets c_b = 0, so c = (0, ..., 0, 1) whenever the smallest
    part divides every part.
    """
    g = sizes[-1]
    coefs = [0] * len(sizes)
    coefs[-1] = 1
    for b in range(len(sizes) - 2, -1, -1):
        if sizes[b] % g == 0:
            continue
        # extended Euclid: x * g + y * sizes[b] = gcd(g, sizes[b])
        r0, r1, x0, x1, y0, y1 = g, sizes[b], 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        coefs = [c * x0 for c in coefs]
        coefs[b] = y0
        g = r0
    return g, coefs


def partitions(n: int) -> List[Tuple[int, ...]]:
    """Non-increasing partitions of n, ascending lexicographically."""
    result: List[Tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, acc: List[int]):
        if remaining == 0:
            result.append(tuple(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(n, n, [])
    result.sort()
    return result


def enumerate_orbits(
    n: int, level: GaussianRational = GR_ZERO
) -> List[Tuple[OrbitLabel, MatK]]:
    """Canonical representative per orbit: partitions ascending, then
    k = 0 .. gcd(sigma) - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    out: List[Tuple[OrbitLabel, MatK]] = []
    for sigma in partitions(n):
        for k in range(math.gcd(*sigma)):
            out.append((OrbitLabel(sigma, k, level), canonical_rep(sigma, k)))
    return out
