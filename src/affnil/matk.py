"""Exact linear algebra for square matrices over K.

Matrices whose entries are all exact are handled by one fraction-free
(Bareiss 1968) elimination loop, :func:`_eliminate`, over the dense ring
Z[i][t] of :mod:`affnil.zipoly`.  Each row enters once: it is multiplied by
D·t^(-s), where D is the least common denominator of its coefficients and s
its least exponent, so that its entries become Gaussian-integer
polynomials.  Every intermediate entry is then a minor of the scaled matrix,
so each division by the previous pivot is an exact division in Z[i][t], and
each one checks its remainder (:class:`ExactDivisionError`).  No rational
number and no gcd appears inside the loop; the results are turned back into
Laurent elements once, dividing by the product of the D and multiplying by
t to the sum of the s.  The loop takes a small ring parameter (plain
polynomials, or dual numbers a + s·b with s² = 0) and serves four paths:

* :meth:`MatK.det` (:func:`_det_bareiss`);
* :func:`det_and_adj_trace`, the same pass over dual numbers;
* the row echelon form behind :meth:`MatK.rank` and :meth:`MatK.kernel_basis`
  (:func:`_dense_echelon`), whose rows enter primitive (content 1 and least
  exponent 0, as :func:`normalize_vector`); :meth:`MatK.echelon` returns it,
  so a caller that needs both the rank and the kernel eliminates once;
* :meth:`MatK.inv` (:func:`_inv_dense`): Gauss–Jordan on [A | I], which
  yields d·A⁻¹ and d = det A together; only the final scaling by d⁻¹ can
  truncate, when d is not a monomial.  Only A is converted; the I half is
  written down in dense form directly.

The determinant and the inverse eliminate only the rows that are not exactly
the unit row e_i (an exact 1 on the diagonal and exact zeros elsewhere,
:func:`_non_unit_rows`).  With R those rows and S the unit rows, one
simultaneous permutation makes A = [[B, C], [0, I]], so det A = det B and
A⁻¹ = [[B⁻¹, −B⁻¹C], [0, I]]: the loop runs on the |R| rows of B, or of
[B | −C | I] for the inverse.  The inverse pass returns only those |R| rows,
as their nonzero entries, and a unit row of A is the same row e_i of A⁻¹:
one of the identity's rows, built once per n and shared
(:func:`_identity_rows`).  The unit rows, and whether A is exact at all,
are read off one listing of A's nonzero entries (:func:`_nonzero_entries`),
and only the nonzero entries of the rows of R are converted
(:func:`zipoly.from_entries`); past that listing, an inverse costs what its
|R| rows of length n cost, not n².  A product of k root subgroup
elements I + p·E_ij differs from I in at most k rows, so most rows of the
groups that ``adjoint_act`` inverts are unit rows.  The echelon and the
dual-number pass take every row.

A row update touches only what can change, by one rule for every entry x.
With f the row's entry in the pivot column and y the pivot row's entry in
x's column, where f = 0 or y = 0 the entry becomes (p·x − f·y) / prev =
(p / prev)·x: nothing when x = 0 or the quotient is 1, one product with the
quotient when it is exact (whether the quotient is a monomial, which makes
that product a shift, is decided once per step: :func:`zipoly.multiplier`),
and the Bareiss step when it is not.  Everywhere
else it takes the Bareiss step with its division.  The matrices that
``adjoint_act`` inverts are sparse, so most of [A | I] is zero, and zero
entries cost nothing but a comparison: no product, no conversion and no new
element (the eliminated rows list only their nonzero entries).  The
Bareiss step takes its factors in the sparse form of
:func:`zipoly.combine_sparse`, converted when first needed: the pivot and
each pivot-row entry once per step, the row's entry f once per row, not
once per entry.

Exact kernel vectors are back-substituted on the dense echelon rows
(:func:`_dense_kernel`), and each is scaled only by the echelon pivots that
do not divide during its back-substitution, not by the product of all of
them; whether a pivot divides is one exact division in Z[i][t].
The inverse of a matrix A carrying truncated entries is first taken from
its known part B, each entry's stored coefficients taken as exact
(:func:`_inverse_from_known_part`).  When B⁻¹ is exact, a valuation bound
for A⁻¹ − B⁻¹ over every completion of A cuts each of its entries, by the
first-order precision argument of Caruso, Roe & Vaccon (2014) applied
t-adically (Sherman–Morrison when one entry is cut).  Only the valuations
of B⁻¹ that the bound reads are taken, and only the entries whose bound is
finite are rebuilt, so the cost beyond the exact pass follows the number of
cut entries.  Otherwise, and for
the determinant, the rank and the kernel, truncated matrices run ordinary
division-based elimination on Laurent elements with tracked precision: one
Gauss–Jordan loop (:func:`_gauss_jordan`) gives the determinant and the
inverse, and one echelon loop (:func:`_echelon`) the rank and the kernel.
An undetermined pivot decision raises :class:`PrecisionExhausted` rather
than guessing.

Products.  :meth:`MatK.__mul__`, :meth:`MatK.apply` (v as one column) and
:meth:`MatK.commutator` (A·B − B·A, for the bracket) run one kernel,
:func:`_products`, a row-wise sparse accumulation (Gustavson 1978) over
integer terms.  Each left row is listed once by its entries that are not
exactly zero (:func:`_nonzero_entries`; a caller that holds that listing of
A passes it in, as ``adjoint_act`` does for g, whose one listing also
serves :meth:`MatK.inv` and :func:`trace_coeff`), and so is each right row
k that some nonzero a_ik reaches; nothing else of either factor is read.
Row i of the left factors goes on one common denominator and the right
factors on another, each the lcm of
the denominators other than 1 of the listed entries.  The listed right
entries are converted to (exponent, re, im) integer terms once.  The
products go into one dict of integer pairs per output entry, and each
output coefficient is reduced by one gcd (``GaussianRational._norm``), not
once per entry product and again per addition as a sum of
``LaurentElement`` products is; the output entries are built as they are
(``LaurentElement._raw``), without a second pass over them.  Each pair of
entries takes the truncation bound of :func:`laurent.product_bound`, as
``LaurentElement.__mul__`` does (for an exact a_ik directly: the precision
of b_kj plus the valuation of a_ik, or none), and an entry keeps the least
of them, so every coefficient below it is an exact sum: the result equals
the entrywise sum of Laurent products, coefficient for coefficient.  In a
single product A·B, a row of A that is exactly e_k gives row k of B as it is,
which is what the sum gives (each bound is b_kj's own precision), and a row
of B that only such rows reach is not converted.  Likewise a row k of B that
is exactly e_j passes a_ik to column j as it is (its bound is a_ik's own
precision), and it is added in, by one Laurent sum, where other pairs reach
column j too; so x·g⁻¹ rebuilds only the entries that the rows of g⁻¹
other than unit rows reach.  A dense product over Z[i][t] was 2.4× slower
on small sparse operands, and a kernel that visits every (i, j, k) and
converts all entries of both factors was slower than the entrywise loop;
only the sparse form is faster on every workload.

Pivoting rule.  Exact input: the entry with the fewest terms in the current
column (:func:`_pick_short`), ties broken by least valuation and then by the
lowest row index; in dense form an entry's valuation is its row's shift plus
the index of its first nonzero coefficient.  A short pivot keeps the exact
divisions cheap, and the determinants do not depend on the pivot order.
Truncated input: the entry of least valuation (:func:`_pick_pivot`), ties
broken by the lowest row, which protects precision.  The exact loop and
:func:`_gauss_jordan` swap the pivot row up.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Sequence, Tuple

from . import zipoly
from .errors import (
    DimensionMismatch,
    ExactDivisionError,
    PrecisionExhausted,
    Singular,
    ZeroScale,
)
from .gaussian import GaussianRational, _pair_power
from .laurent import (
    DEFAULT_WORKING_PREC,
    LaurentElement,
    common_den,
    convolve,
    format_laurent,
    integer_terms,
    product_bound,
)

Vector = Tuple[LaurentElement, ...]

_L_ZERO = LaurentElement.zero()
_L_ONE = LaurentElement.one()


class MatK:
    """An n x n matrix over K; immutable."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[LaurentElement]]):
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    @classmethod
    def _raw(cls, rows: Sequence[Tuple[LaurentElement, ...]]) -> "MatK":
        """Construct from n rows that are tuples of length n, taken as they
        are (internal: for rows a kernel has just built)."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", tuple(rows))
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MatK is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MatK":
        return cls([[_L_ZERO] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "MatK":
        return cls._raw(_identity_rows(n))

    @classmethod
    def diag(cls, entries: Sequence[LaurentElement]) -> "MatK":
        n = len(entries)
        return cls(
            [[entries[i] if i == j else _L_ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def elementary(cls, n: int, i: int, j: int, value: LaurentElement = _L_ONE) -> "MatK":
        """value * E_ij with 0-based indices."""
        rows = [[_L_ZERO] * n for _ in range(n)]
        rows[i][j] = value
        return cls(rows)

    @classmethod
    def shear(cls, n: int, i: int, j: int, p: LaurentElement) -> "MatK":
        """I + p*E_ij for i != j; determinant 1 by construction."""
        if i == j:
            raise DimensionMismatch("shear needs off-diagonal position")
        rows = [
            [_L_ONE if r == c else _L_ZERO for c in range(n)] for r in range(n)
        ]
        rows[i][j] = p
        return cls(rows)

    # -- basic structure ----------------------------------------------------

    def entry(self, i: int, j: int) -> LaurentElement:
        return self.rows[i][j]

    def all_exact(self) -> bool:
        return all(e.prec is None for r in self.rows for e in r)

    def _check_dim(self, other: "MatK"):
        if self.n != other.n:
            raise DimensionMismatch(f"sizes {self.n} and {other.n} differ")

    def __add__(self, other: "MatK") -> "MatK":
        self._check_dim(other)
        return MatK(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __sub__(self, other: "MatK") -> "MatK":
        self._check_dim(other)
        return MatK(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __neg__(self) -> "MatK":
        return MatK([[-e for e in r] for r in self.rows])

    def __mul__(self, other: "MatK") -> "MatK":
        if not isinstance(other, MatK):
            return NotImplemented
        self._check_dim(other)
        return MatK._raw(_products(self.rows, other.rows))

    def commutator(self, other: "MatK") -> "MatK":
        """self·other − other·self, in one pass of the product kernel."""
        self._check_dim(other)
        return MatK._raw(_products(self.rows, other.rows, other.rows, self.rows))

    def __pow__(self, k: int) -> "MatK":
        if k < 0:
            raise ValueError("negative matrix power: use inv() explicitly")
        result = MatK.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "MatK":
        """Multiply every entry by a scalar or Laurent element."""
        if isinstance(c, LaurentElement):
            return MatK([[e * c for e in r] for r in self.rows])
        return MatK([[e.scale(c) for e in r] for r in self.rows])

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.n:
            raise DimensionMismatch("vector length mismatch")
        return tuple(r[0] for r in _products(self.rows, [(x,) for x in v]))

    def apply_left(self, v: Vector) -> Vector:
        """v·A, v taken as one row."""
        if len(v) != self.n:
            raise DimensionMismatch("vector length mismatch")
        return _products([v], self.rows)[0]

    def trace(self) -> LaurentElement:
        """The sum of the diagonal in one accumulation: its integer terms
        over one common denominator, one gcd per coefficient, and the least
        precision of the diagonal as the bound."""
        diag = [row[i] for i, row in enumerate(self.rows)]
        den = math.lcm(*{c.d for x in diag for c in x.coeffs.values()})
        sums = {}  # exponent -> [re, im] over den
        prec = None
        for x in diag:
            if x.prec is not None and (prec is None or x.prec < prec):
                prec = x.prec
            for e, c in x.coeffs.items():
                m = den // c.d
                cell = sums.get(e)
                if cell is None:
                    sums[e] = [c.a * m, c.b * m]
                else:
                    cell[0] += c.a * m
                    cell[1] += c.b * m
        return LaurentElement({e: GaussianRational._norm(a, b, den)
                               for e, (a, b) in sums.items() if a or b}, prec)

    def d_dt(self) -> "MatK":
        return MatK._raw([tuple(e.d_dt() for e in r) for r in self.rows])

    def shift(self, k: int) -> "MatK":
        """Multiply every entry by the monomial t^k."""
        return MatK([[e.shift(k) for e in r] for r in self.rows])

    def scale_t(self, z) -> "MatK":
        """The substitution t -> z*t in every entry, on integer pairs.

        Each power z^e is formed once per matrix, when first needed, as the
        integers of (a + b·i)/d by repeated squaring on integer pairs, not
        reduced, and each coefficient c·z^e is built from their products
        with c's integers by one ``GaussianRational._norm``, which reduces
        it: no ``GaussianRational`` product and no gcd but that one.  The
        coefficient at t^0 is kept as it is.  An entry with no coefficients,
        the exact zero or a bare O(t^N), is its own image and is returned as
        it is, not rebuilt.
        """
        z = GaussianRational(z) if not isinstance(z, GaussianRational) else z
        if z.is_zero:
            raise ZeroScale("t -> 0*t is not a field automorphism")
        norm = GaussianRational._norm
        z_inv = z.inverse()
        powers = {}  # e -> (a, b, d) with z^e = (a + b·i)/d

        def image(x: LaurentElement) -> LaurentElement:
            coeffs = {}
            for e, c in x.coeffs.items():
                if not e:
                    coeffs[e] = c
                    continue
                power = powers.get(e)
                if power is None:
                    w, k = (z, e) if e > 0 else (z_inv, -e)
                    power = powers[e] = _pair_power(w.a, w.b, k) + (w.d**k,)
                pa, pb, pd = power
                ca, cb = c.a, c.b
                coeffs[e] = norm(ca * pa - cb * pb, ca * pb + cb * pa, c.d * pd)
            return LaurentElement._raw(coeffs, x.prec)

        return MatK._raw([tuple(image(x) if x.coeffs else x for x in r) for r in self.rows])

    def is_zero_3v(self) -> Optional[bool]:
        undetermined = False
        for r in self.rows:
            for e in r:
                v = e.is_zero_3v()
                if v is False:
                    return False
                if v is None:
                    undetermined = True
        return None if undetermined else True

    def equals(self, other: "MatK") -> Optional[bool]:
        return (self - other).is_zero_3v()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatK):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_laurent(e) for e in row) for row in self.rows
        )
        return f"MatK[{body}]"

    # -- elimination-based operations ----------------------------------------

    def det(self, working_prec: int = DEFAULT_WORKING_PREC) -> LaurentElement:
        if self.all_exact():
            return _det_bareiss(self)
        return _gauss_jordan(self, working_prec, inverse=False)

    def inv(self, working_prec: int = DEFAULT_WORKING_PREC, *, _listed=None) -> "MatK":
        """Inverse; exact entries whenever the input is exact with a monomial det.

        Exact input goes through one fraction-free Gauss–Jordan pass on
        the rows R of [A | I] whose A part is not exactly a unit row (see
        :func:`_inv_dense`), which yields the rows of d·A⁻¹ in R and
        d = det A together; only the final scaling by d⁻¹ can truncate.  A
        monomial d (det A is usually 1) is divided out while the entries of
        those rows are converted back to Laurent elements, at no Laurent
        product, and every other row is the shared unit row
        (:func:`_monomial_inverse`): the cost follows |R|·n.  Any other d
        scales the whole of d·A⁻¹.  Truncated input first takes the exact
        inverse of its known part, with each entry cut at a valuation bound
        (:func:`_inverse_from_known_part`); where that does not apply it uses
        division-based Gauss–Jordan at ``working_prec``.  Raises
        :class:`Singular` when the matrix is exactly singular.

        Whether the matrix is exact, its unit rows and the rows the exact
        pass converts are all read off one listing of its nonzero entries
        (:func:`_nonzero_entries`).  ``_listed`` is internal, not part of
        the interface: ``adjoint_act`` passes the listing it takes once per
        call, which also serves its product g·y and its trace coefficient.
        """
        listed = _nonzero_entries(self.rows) if _listed is None else _listed
        n = self.n
        if all(x.prec is None for row in listed for _, x in row):
            d, shift, den, rows = _inv_dense(listed)
            inverse = _monomial_inverse(d, n, rows)
            if inverse is not None:
                return inverse
            # d·A⁻¹ in full: d on the unit diagonal, and the rows of R
            right = [[d if i == j else [] for j in range(n)] for i in range(n)]
            for i, pairs in rows:
                right[i][i] = []
                for j, f in pairs:
                    right[i][j] = f
            scaled = MatK([[zipoly.to_laurent(e, shift, den) for e in r] for r in right])
            return scaled.scale(zipoly.to_laurent(d, shift, den).inv(working_prec))
        inverse = _inverse_from_known_part(listed)
        if inverse is None:
            inverse = _gauss_jordan(self, working_prec, inverse=True)
        if inverse is None:
            raise Singular("matrix is exactly singular")
        return inverse

    def echelon(self) -> list:
        """The row echelon form that :meth:`rank` and :meth:`kernel_basis`
        read, (pivot column, row) in column order: over Z[i][t] for an exact
        matrix (:func:`_dense_echelon`), over K otherwise (:func:`_echelon`).
        Raises when a pivot decision is undetermined."""
        return _row_echelon(self.rows, self.n)

    def rank(self) -> int:
        """Rank over K; raises when a pivot decision is undetermined."""
        return _rank(self.rows, self.n)

    def kernel_basis(self, working_prec: int = DEFAULT_WORKING_PREC,
                     echelon: Optional[list] = None) -> List[Vector]:
        """Basis of the right kernel, one vector per free column.

        For exact matrices the vectors are exact and carry only the echelon
        pivots they need (see :func:`_dense_kernel`).  Truncated matrices
        multiply by each pivot's inverse at ``working_prec``, taken once per
        call and only when there is a free column.  A caller that already
        holds this matrix's :meth:`echelon` (for its rank) passes it as
        ``echelon``, and the matrix is not eliminated again.
        """
        n = self.n
        ech = self.echelon() if echelon is None else echelon
        if self.all_exact():
            return _dense_kernel(ech, n)
        pivot_cols = [c for c, _ in ech]
        free = [c for c in range(n) if c not in pivot_cols]
        if not free:
            return []
        back = [(c, row, row[c].inv(working_prec)) for c, row in reversed(ech)]
        basis: List[Vector] = []
        for f in free:
            v: List[LaurentElement] = [_L_ZERO] * n
            v[f] = _L_ONE
            for c, row, pivot_inv in back:
                acc = _L_ZERO
                for j in range(c + 1, n):
                    rj = row[j]
                    vj = v[j]
                    if (rj.coeffs or rj.prec is not None) and (vj.coeffs or vj.prec is not None):
                        acc = acc + rj * vj
                v[c] = (-acc) * pivot_inv
            basis.append(normalize_vector(tuple(v)))
        return basis


def _nonzero_entries(rows: Sequence[Sequence[LaurentElement]]):
    """Each row as the list of its entries that are not exactly zero, as
    (column, entry) pairs: one listing of a matrix that the inverse, the
    left factor of a product and a trace coefficient can share
    (``adjoint_act`` takes it once per call and passes it to all three)."""
    return [[(k, x) for k, x in enumerate(row) if x.coeffs or x.prec is not None]
            for row in rows]


def trace_coeff(a, b, e: int, derivative: bool = False) -> GaussianRational:
    """The coefficient of t^e in tr(a·b), or in tr(a′·b) with `derivative`,
    for matrices a and b; for Laurent elements, the same of a·b.

    Neither a′ nor a·b is formed: the sum runs over the pairs of terms whose
    exponents add up to e, each coefficient of a at t^k weighted by k when
    `derivative` (a′ has k·c at t^(k−1)).  Precision is kept as the full
    product would keep it: each entry pair a_ik, b_ki takes the truncation
    bound that ``LaurentElement.__mul__`` gives it, a pair with an exactly
    zero side (a_ik′ exactly zero with `derivative`) is skipped as
    ``MatK.__mul__`` skips it, and :class:`PrecisionExhausted` is raised when
    t^e is not below the least bound, exactly where
    ``(a * b).trace().coeff(e)``, or ``(a.d_dt() * b).trace().coeff(e)``
    with `derivative`, would raise.
    """
    if isinstance(a, LaurentElement):
        return _trace_coeff(((a, b),), e, derivative)
    a._check_dim(b)
    return _trace_coeff(_trace_pairs(_nonzero_entries(a.rows), b.rows), e, derivative)


def _trace_pairs(listed, b_rows):
    """The entry pairs (a_ik, b_ki) of tr(a·b) at the nonzero entries of a,
    given as `listed`, its :func:`_nonzero_entries`."""
    return ((x, b_rows[k][i]) for i, row in enumerate(listed) for k, x in row)


def _trace_coeff(pairs, e: int, derivative: bool) -> GaussianRational:
    """:func:`trace_coeff` summed over the entry pairs (x, y) of the trace,
    those with x exactly zero left out."""
    shift = 1 if derivative else 0  # a′ at t^(k−1) pairs with b at t^(e+1−k)
    bound = None
    sa = sb = 0
    sd = 1
    for x, y in pairs:
        xc, yc = x.coeffs, y.coeffs
        if not yc and y.prec is None:
            continue
        x_prec = x.prec
        if derivative:
            if x_prec is None and not any(xc):
                continue  # a constant: its derivative is the exact zero
            if x_prec is not None:
                x_prec -= 1
        elif not xc and x_prec is None:
            continue
        if x_prec is not None or y.prec is not None:
            if derivative:
                x_low = min((k for k in xc if k), default=None)
                x_low = x_prec if x_low is None else x_low - 1
            else:
                x_low = min(xc) if xc else x_prec
            pb = product_bound(x_prec, x_low, y.prec, min(yc) if yc else y.prec)
            bound = pb if bound is None else min(bound, pb)
        if len(xc) <= len(yc):
            terms = ((k, c, yc.get(e + shift - k)) for k, c in xc.items())
        else:
            terms = ((e + shift - m, xc.get(e + shift - m), d) for m, d in yc.items())
        for k, c, d in terms:
            if c is None or d is None:
                continue
            w = k if derivative else 1
            if not w:
                continue
            pd = c.d * d.d
            g = math.gcd(sd, pd)
            to_s, to_p = pd // g, sd // g * w
            sa = sa * to_s + (c.a * d.a - c.b * d.b) * to_p
            sb = sb * to_s + (c.a * d.b + c.b * d.a) * to_p
            sd *= to_s
    if bound is not None and e >= bound:
        raise PrecisionExhausted(f"t^{e} coefficient unknown modulo t^{bound}")
    return GaussianRational._norm(sa, sb, sd)


def _products(a, b, c=None, d=None, listed=None) -> List[Tuple[LaurentElement, ...]]:
    """The rows of A·B, or of A·B − C·D: the product kernel (see the module
    docstring).  A and C are n rows of length n, B and D n rows of length m;
    `listed`, when the caller holds it, is the :func:`_nonzero_entries` of A.

    Each row of A and C, and each row k of B and D that a nonzero a_ik or
    c_ik reaches, is listed once by its entries that are not exactly zero.
    In a single product A·B, a row of A whose only such entry is the exact 1
    at column k gives row k of B as it is, and row k is listed only when
    another row of A reaches it; a row k of B whose only such entry is the
    exact 1 at column j passes a_ik to column j as it is, added by a Laurent
    sum to what the other pairs give there.  Row i of A and C goes on one
    common denominator and B and D together on another, each the lcm of the
    denominators other than 1 of the entries listed, so every output
    coefficient is an integer pair over one denominator, summed in a dict per
    output entry and normalised once.
    The listed right rows are converted to integer terms once, and each
    nonzero a_ik meets the entries of row k of B that are listed.  A pair
    keeps the truncation bound that ``LaurentElement.__mul__`` gives it (for
    an exact a_ik, the precision of b_kj plus the valuation of a_ik, or
    none), and an entry the least bound of its pairs; an entry that no pair
    reaches is the exact zero.
    """
    pairs = [(a, b, 1)] if c is None else [(a, b, 1), (c, d, -1)]
    width = len(b[0]) if b else 0
    # the entries of each left row, and of each right row that a left entry
    # reaches, that are not exactly zero
    lefts, rights = [], []
    copies = {}  # left row -> the right row it copies: e_k·B is row k of B
    for left, right, _ in pairs:
        rows = listed if left is a and listed is not None else _nonzero_entries(left)
        if c is None:
            copies = {i: row[0][0] for i, row in enumerate(rows)
                      if len(row) == 1 and row[0][1].is_one()}
        lefts.append(rows)
        rights.append({
            k: [(j, y) for j, y in enumerate(right[k]) if y.coeffs or y.prec is not None]
            for k in {k for i, row in enumerate(rows) if i not in copies for k, _ in row}})
    # right row -> the column it passes to: a_ik·e_j is a_ik at column j
    passes = {} if c is not None else {
        k: row[0][0] for k, row in rights[0].items() if len(row) == 1 and row[0][1].is_one()}
    right_den = math.lcm(*{q.d for reached in rights for row in reached.values()
                           for _, y in row for q in y.coeffs.values() if q.d != 1})
    converted = [
        {k: [(j, integer_terms(y.coeffs, right_den), y.prec, min(y.coeffs) if y.coeffs else y.prec)
             for j, y in row] for k, row in reached.items()}
        for reached in rights]
    zero_row = (_L_ZERO,) * width
    out = []
    for i in range(len(a)):
        k = copies.get(i)
        if k is not None:
            out.append(tuple(b[k]))
            continue
        if not any(rows[i] for rows in lefts):
            out.append(zero_row)
            continue
        left_den = math.lcm(*{q.d for rows in lefts for _, x in rows[i]
                              for q in x.coeffs.values() if q.d != 1})
        entries = {}  # output column -> [exponent -> [re, im], least pair bound]
        passed = {}  # output column -> the a_ik passed to it as it is
        for (_, _, sign), rows, rows_done in zip(pairs, lefts, converted):
            for k, x in rows[i]:
                row = rows_done[k]
                if not row:
                    continue
                j = passes.get(k)
                if j is not None and j not in passed:
                    passed[j] = x
                    continue
                xc, x_prec = x.coeffs, x.prec
                x_terms = integer_terms(xc, sign * left_den)
                x_low = min(xc) if xc else x_prec
                for j, y_terms, y_prec, y_low in row:
                    if x_prec is None:
                        bound = None if y_prec is None else y_prec + x_low
                    else:
                        bound = product_bound(x_prec, x_low, y_prec, y_low)
                    entry = entries.get(j)
                    if entry is None:
                        entry = entries[j] = [{}, bound]
                    elif bound is not None and (entry[1] is None or bound < entry[1]):
                        entry[1] = bound
                    if x_terms and y_terms:
                        convolve(entry[0], x_terms, y_terms, bound)
        den = left_den * right_den
        out_row = [_L_ZERO] * width
        for j, (acc, bound) in entries.items():
            out_row[j] = LaurentElement._raw(
                {e: GaussianRational._norm(re, im, den) for e, (re, im) in acc.items()
                 if (re or im) and (bound is None or e < bound)}, bound)
        for j, x in passed.items():
            out_row[j] = out_row[j] + x if j in entries else x
        out.append(tuple(out_row))
    return out


# ---------------------------------------------------------------------------
# Elimination helpers
# ---------------------------------------------------------------------------


def _pick_pivot(
    entries: List[Tuple[int, LaurentElement]]
) -> Optional[int]:
    """Index of the least-valuation definitely-nonzero entry.

    None when all entries are exactly zero; PrecisionExhausted when the only
    possibly-nonzero entries are undetermined.
    """
    best = None
    best_ord = None
    undetermined = False
    for idx, e in entries:
        z = e.is_zero_3v()
        if z is True:
            continue
        if z is None:
            undetermined = True
            continue
        o = e.order()
        if best_ord is None or o < best_ord:
            best, best_ord = idx, o
    if best is not None:
        return best
    if undetermined:
        raise PrecisionExhausted("pivot choice undetermined at current precision")
    return None


def vector_content(v: Vector) -> Optional[Tuple[GaussianRational, int]]:
    """(c, e) with v = c·t^e·w, where the real and imaginary parts of w's
    coefficients are integers with gcd 1 and w's least exponent is 0.

    None when v is zero or carries a truncated entry.  Read off the sparse
    integer terms of D·v, D the least common denominator of v's
    coefficients (:func:`laurent.integer_terms`): c = g/D for g the gcd of
    their integers, and e the least exponent.  So the cost grows with the
    number of terms, not with the exponent span.
    """
    if any(el.prec is not None for el in v):
        return None
    exponents = [e for el in v for e in el.coeffs]
    if not exponents:
        return None
    den = common_den(c for el in v for c in el.coeffs.values())
    g = math.gcd(*[k for el in v for _, a, b in integer_terms(el.coeffs, den) for k in (a, b)])
    return GaussianRational._norm(g, 0, den), min(exponents)


def normalize_vector(v: Vector) -> Vector:
    """w of :func:`vector_content`, as :func:`zipoly.primitive` of the integer
    form of v; a truncated vector is returned as is."""
    if any(el.prec is not None for el in v):
        return v
    return tuple(zipoly.to_laurent(f) for f in zipoly.primitive(zipoly.from_row(v)[2]))


def _echelon(
    rows: Sequence[Sequence[LaurentElement]], width: int
) -> List[Tuple[int, List[LaurentElement]]]:
    """Fraction-free row echelon of rows carrying truncated entries (exact
    ones use :func:`_dense_echelon`); returns (pivot_col, row) in column
    order.  Every exact row is kept primitive (see :func:`normalize_vector`)."""
    active = [list(normalize_vector(tuple(r))) for r in rows]
    result: List[Tuple[int, List[LaurentElement]]] = []
    for col in range(width):
        idx = _pick_pivot([(i, r[col]) for i, r in enumerate(active)])
        if idx is None:
            continue
        pivot_row = active.pop(idx)
        p = pivot_row[col]
        nxt = []
        for r in active:
            rc = r[col]
            if rc.is_zero_3v() is True:
                nxt.append(r)
                continue
            new_r = [
                p * r[j] - rc * pivot_row[j] if j > col else _L_ZERO
                for j in range(width)
            ]
            nxt.append(list(normalize_vector(tuple(new_r))))
        active = nxt
        result.append((col, pivot_row))
    return result


def _row_echelon(rows: Sequence[Sequence[LaurentElement]], width: int) -> list:
    """Row echelon of rows of length width: :func:`_dense_echelon` when they
    are exact, :func:`_echelon` otherwise."""
    if all(e.prec is None for r in rows for e in r):
        return _dense_echelon(rows, width)
    return _echelon(rows, width)


def _rank(rows: Sequence[Sequence[LaurentElement]], width: int) -> int:
    """Rank over K of rows of length width; raises when a pivot decision is
    undetermined."""
    return len(_row_echelon(rows, width))


def _gauss_jordan(mat: MatK, working_prec: int, inverse: bool):
    """Division-based Gauss–Jordan on [A | I] for truncated A.

    With `inverse`, returns A⁻¹, or None when A is exactly singular.
    Without it, returns det A, the signed product of the pivots; the I half
    is then left empty and only the rows below each pivot are reduced, which
    is all the determinant needs.
    """
    n = mat.n
    left = [list(r) for r in mat.rows]
    right = [
        [_L_ONE if i == j else _L_ZERO for j in range(n)] if inverse else []
        for i in range(n)
    ]
    sign = 1
    det = _L_ONE
    for k in range(n):
        idx = _pick_pivot([(i, left[i][k]) for i in range(k, n)])
        if idx is None:
            return None if inverse else _L_ZERO
        if idx != k:
            left[k], left[idx] = left[idx], left[k]
            right[k], right[idx] = right[idx], right[k]
            sign = -sign
        p = left[k][k]
        if not inverse:
            det = det * p
        pinv = p.inv(working_prec)
        # the entries before the pivot are exactly zero, and so stay
        left[k] = left[k][:k] + [_L_ONE] + [
            e * pinv if e.coeffs or e.prec is not None else e for e in left[k][k + 1:]
        ]
        right[k] = [e * pinv if e.coeffs or e.prec is not None else e for e in right[k]]
        for i in range(0 if inverse else k + 1, n):
            if i == k:
                continue
            f = left[i][k]
            if f.is_zero_3v() is True:
                continue
            # an exactly zero pivot-row entry leaves the entry unchanged
            left[i] = [x - f * y if y.coeffs or y.prec is not None else x
                       for x, y in zip(left[i], left[k])]
            left[i][k] = _L_ZERO
            right[i] = [x - f * y if y.coeffs or y.prec is not None else x
                        for x, y in zip(right[i], right[k])]
    if inverse:
        return MatK(right)
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# Fraction-free elimination over Z[i][t] (see :mod:`affnil.zipoly`).
# ---------------------------------------------------------------------------


class _Plain:
    """Ring operations on polynomials of Z[i][t].  The loop hands the pivot,
    the row's entry f and the pivot-row entry y to :meth:`combine` in their
    :meth:`sparse` form, the previous pivot in its :meth:`divisor` form, and
    the step's quotient p / prev to :meth:`mul` in its :meth:`multiplier`
    form."""

    zero: zipoly.Poly = []
    one: zipoly.Poly = [(1, 0)]
    multiplier = staticmethod(zipoly.multiplier)
    mul = staticmethod(zipoly.times)
    div = staticmethod(zipoly.exact_div)
    sparse = staticmethod(zipoly.sparse)

    @staticmethod
    def head(x: zipoly.Poly) -> zipoly.Poly:
        return x

    @staticmethod
    def divisor(x: zipoly.Poly) -> zipoly.Poly:
        return x

    @staticmethod
    def combine(p, x, f, y, prev):
        """(p·x − f·y) / prev, an exact division; prev None stands for 1."""
        num = zipoly.combine_sparse(((1, p, zipoly.sparse(x)), (-1, f, y)))
        if prev is None or not num:
            return num
        return zipoly.exact_div(num, prev)


class _Dual:
    """Ring operations on dual numbers a + s·b over Z[i][t] (s² = 0), held as
    (a, b); the pivot rules look at a only.  A divisor is held as (a, the
    sparse form of b)."""

    zero = ([], [])
    one = ([(1, 0)], [])

    @staticmethod
    def head(x):
        return x[0]

    @staticmethod
    def sparse(x):
        return zipoly.sparse(x[0]), zipoly.sparse(x[1])

    @staticmethod
    def divisor(x):
        return x[0], zipoly.sparse(x[1])

    @staticmethod
    def multiplier(x):
        return zipoly.multiplier(x[0]), x[0], x[1]

    @staticmethod
    def mul(m, y):
        """x·y for m the :meth:`multiplier` form of x."""
        a, x0, x1 = m
        return zipoly.times(a, y[0]), zipoly.combine([(1, x0, y[1]), (1, x1, y[0])])

    @staticmethod
    def div(x, y):
        """x / y for y in divisor form: q = a / y_a and (b − q·y_b) / y_a."""
        q = zipoly.exact_div(x[0], y[0])
        return q, zipoly.exact_div(
            zipoly.combine_sparse(((-1, zipoly.sparse(q), y[1]),), x[1]), y[0])

    @staticmethod
    def combine(p, x, f, y, prev):
        x0, x1 = zipoly.sparse(x[0]), zipoly.sparse(x[1])
        a = zipoly.combine_sparse(((1, p[0], x0), (-1, f[0], y[0])))
        b = zipoly.combine_sparse(
            ((1, p[0], x1), (-1, f[0], y[1]), (1, p[1], x0), (-1, f[1], y[0])))
        return (a, b) if prev is None else _Dual.div((a, b), prev)


def _pick_short(candidates: List[Tuple[int, int, zipoly.Poly]]) -> Optional[int]:
    """Row index of the nonzero entry with the fewest terms, ties broken by
    least valuation and then by the lowest row; None when all are zero.  A
    candidate is (row index, row shift, entry), and the entry's valuation is
    the shift plus its low index."""
    best = None
    for i, shift, f in candidates:
        if f:
            key = (zipoly.terms(f), shift + zipoly.low(f), i)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def _eliminate(rows, shifts, steps, ring, *, jordan=False):
    """Fraction-free elimination (Bareiss 1968) of dense rows, in place.

    For each of the first `steps` columns, :func:`_pick_short` chooses the
    pivot among the rows not used yet, and a swap moves that row up to the
    next place; `shifts` holds each row's exponent shift and moves with it.
    A column without a pivot is skipped.  Every row below the pivot row, and
    with `jordan` every row above it too, becomes (p·row − f·pivot row) / prev
    from the next column on, where p is the pivot, f the row's entry in the
    pivot column and prev the previous pivot.  By Sylvester's identity every
    entry is then a minor of the input on the pivot rows and columns chosen so
    far, so every division is exact in Z[i][t], and it is checked.

    One rule updates every entry x of a row, with y the pivot row's entry in
    its column.  Where f = 0 or y = 0 the new entry is (p·x − f·y) / prev =
    (p / prev)·x: nothing when x = 0 or the quotient is 1, a product with the
    quotient when it is exact, and the Bareiss step otherwise.  Everywhere
    else it is the Bareiss step.  A row with f = 0 and quotient 1 is skipped,
    and a row with f = 0 and an exact quotient only multiplies its nonzero
    entries by it.  The Bareiss step takes p, f and y in the ring's
    :meth:`sparse` form and prev in its :meth:`divisor` form, each converted
    once per step (f once per row, y once per column), when first needed;
    the products with the quotient take it in the ring's :meth:`multiplier`
    form, made once per step, so whether it is a monomial is tested once.

    Returns (pivot columns, sign of the row permutation, last pivot).
    """
    width = len(rows[0]) if rows else 0
    zero = ring.zero
    head = ring.head
    combine = ring.combine
    mul = ring.mul
    sparse = ring.sparse
    sign = 1
    p = prev = None
    cols: List[int] = []
    for col in range(steps):
        top = len(cols)
        idx = _pick_short([(i, shifts[i], head(rows[i][col])) for i in range(top, len(rows))])
        if idx is None:
            continue
        if idx != top:
            rows[top], rows[idx] = rows[idx], rows[top]
            shifts[top], shifts[idx] = shifts[idx], shifts[top]
            sign = -sign
        pivot_row = rows[top]
        p = pivot_row[col]
        try:
            scale = p if prev is None else ring.div(p, prev)
        except ExactDivisionError:
            scale = None
        unit = scale == ring.one
        # the quotient made ready once per step: a monomial is a shift
        by = None if scale is None or unit else ring.multiplier(scale)
        p_form = None
        ys = {}  # pivot-row column -> its entry in sparse form, once needed
        for i in range(0 if jordan else top + 1, len(rows)):
            if i == top:
                continue
            row = rows[i]
            f = row[col]
            f_zero = f == zero
            if f_zero and unit:
                continue
            if f_zero and by is not None:
                # every nonzero entry becomes (p / prev)·x
                for j in range(col + 1, width):
                    if row[j] != zero:
                        row[j] = mul(by, row[j])
                continue
            if p_form is None:
                p_form = sparse(p)
            f_form = sparse(f)
            for j in range(col + 1, width):
                x = row[j]
                y = pivot_row[j]
                if f_zero or y == zero:
                    # (p·x − f·y) / prev = (p / prev)·x
                    if x == zero or unit:
                        continue
                    if by is not None:
                        row[j] = mul(by, x)
                        continue
                y_form = ys.get(j)
                if y_form is None:
                    y_form = ys[j] = sparse(y)
                row[j] = combine(p_form, x, f_form, y_form, prev)
            row[col] = zero
        prev = ring.divisor(p)
        cols.append(col)
    return cols, sign, p


def _dense_rows(rows):
    """Each row as D·t^(-s)·row over Z[i][t]: (the D, the s, the rows)."""
    scaled = [zipoly.from_row(r) for r in rows]
    return [d for d, _, _ in scaled], [s for _, s, _ in scaled], [f for _, _, f in scaled]


def _dense_echelon(
    rows: Sequence[Sequence[LaurentElement]], width: int
) -> List[Tuple[int, List[zipoly.Poly]]]:
    """Row echelon of exact rows over Z[i][t]: (pivot column, row) in column
    order.  The rows enter primitive (see :func:`zipoly.primitive`) and go
    through the Bareiss loop of :func:`_eliminate`, so every entry of the
    result is a minor of those rows."""
    dense = [zipoly.primitive(zipoly.from_row(r)[2]) for r in rows]
    cols, _, _ = _eliminate(dense, [0] * len(dense), width, _Plain)
    return list(zip(cols, dense))


def _dense_kernel(ech: List[Tuple[int, List[zipoly.Poly]]], width: int) -> List[Vector]:
    """Kernel basis of a dense echelon form, one vector per free column.

    Back-substitution starts from 1 at the free coordinate.  Each pivot is
    written c·t^lo·h, with c its content over Z[i] and h primitive; by
    Gauss's lemma the pivot divides the accumulated entry over K exactly when
    h divides it in Z[i][t].  Then the vector is scaled by the rational
    integer N(c) = c·conj(c) and by t^lo, and the new entry is
    −conj(c)·(acc / h); otherwise the vector is scaled by the pivot itself.
    The accumulated entry is taken negated, −Σ row_j·v_j, in one
    :func:`zipoly.combine`.  Both scalings keep the vector a positive rational
    multiple of t^k times the one that divides over K where it can, so the final
    :func:`zipoly.primitive` gives what :func:`normalize_vector` gives there.
    A vector thus carries only the pivots it needs, not their product.
    """
    pivot_cols = [c for c, _ in ech]
    free_cols = [c for c in range(width) if c not in pivot_cols]
    if not free_cols:
        return []
    pivots = []  # per echelon row: (h, conj(c), N(c)·t^lo)
    for c, row in ech:
        lo = zipoly.low(row[c])
        a, b = zipoly.content(row[c])
        h = zipoly.exact_div(row[c][lo:], [(a, b)])
        pivots.append((h, [(a, -b)], [(0, 0)] * lo + [(a * a + b * b, 0)]))
    basis: List[Vector] = []
    for f in free_cols:
        v: List[zipoly.Poly] = [[] for _ in range(width)]
        v[f] = [(1, 0)]
        for (c, row), (h, conj, scale) in zip(reversed(ech), reversed(pivots)):
            neg_acc = zipoly.combine([(-1, x, y) for x, y in zip(row[c + 1:], v[c + 1:])])
            if not neg_acc:
                continue
            try:
                q = zipoly.exact_div(neg_acc, h)
            except ExactDivisionError:
                factor, entry = row[c], neg_acc
            else:
                factor, entry = scale, zipoly.mul(conj, q)
            if factor != [(1, 0)]:
                v = [zipoly.mul(e, factor) for e in v]
            v[c] = entry
        basis.append(tuple(zipoly.to_laurent(e) for e in zipoly.primitive(v)))
    return basis


def _non_unit_rows(listed) -> List[int]:
    """The indices of the rows that are not exactly e_i, an exact 1 at i and
    exact zeros elsewhere, read off the :func:`_nonzero_entries` of the
    matrix: the rows that the exact determinant and inverse eliminate."""
    return [i for i, row in enumerate(listed)
            if len(row) != 1 or row[0][0] != i or not row[0][1].is_one()]


def _det_bareiss(mat: MatK) -> LaurentElement:
    """Fraction-free determinant of an exact matrix A.  With R the rows that
    are not exactly e_i, a simultaneous permutation makes A = [[B, C], [0, I]],
    B = A[R, R], so det A = det B, and only B is eliminated."""
    rest = _non_unit_rows(_nonzero_entries(mat.rows))
    r = len(rest)
    if r == 0:
        return _L_ONE
    dens, shifts, rows = _dense_rows([[mat.rows[i][j] for j in rest] for i in rest])
    shift = sum(shifts)
    cols, sign, _ = _eliminate(rows, shifts, r - 1, _Plain)
    if len(cols) < r - 1:
        return _L_ZERO
    return zipoly.to_laurent(rows[-1][-1], shift, sign * math.prod(dens))


def _inv_dense(listed):
    """Fraction-free Gauss–Jordan for exact A (Bareiss 1968), on the rows
    that are not exactly e_i; A is given as its :func:`_nonzero_entries`.

    Returns (d, shift, den, rows) with det A = t^shift·d/den and d·A⁻¹ =
    t^shift·right/den, where d and the entries of right are polynomials of
    Z[i][t].  With R the rows that are not exactly e_i and S the unit rows,
    a simultaneous permutation makes A = [[B, C], [0, I]], so
    A⁻¹ = [[B⁻¹, −B⁻¹C], [0, I]]: row i of right is d·e_i for i in S, and
    `rows` lists the rows of R only, in order, as (i, the nonzero entries of
    row i of right as (column, polynomial) pairs).  Row k of R enters as
    [B | −C | e_k], columns ordered R then S, scaled by its denominator D
    and by t^(-s), with s its least exponent or 0 when that is higher, so
    the whole pass stays in Z[i][t].  Only the nonzero entries of
    [B | −C] go through :func:`zipoly.from_entries`; e_k is scaled
    directly.  Gauss–Jordan for |R| steps leaves [d·I | −d·B⁻¹C | d·B⁻¹], d the last pivot times the sign of
    the row permutation.  The sign makes d the determinant of the scaled
    matrix whatever the pivot order; :func:`_pick_short` prefers a monomial
    pivot, which makes the next division a shift instead of a long division.
    Apart from :func:`_non_unit_rows`, the cost follows |R|·n, not n².
    """
    n = len(listed)
    rest = _non_unit_rows(listed)
    units = sorted(set(range(n)).difference(rest))
    r = len(rest)
    place = {j: k for k, j in enumerate(rest + units)}  # column -> its place
    dens, shifts, rows = [], [], []
    for k, i in enumerate(rest):
        entries = [(place[j], x) for j, x in listed[i]]
        row_den, s, polys = zipoly.from_entries(entries, n, 0)
        for j, _ in entries:
            if j >= r:  # the −C part
                polys[j] = zipoly.neg(polys[j])
        unit: List[zipoly.Poly] = [[] for _ in range(r)]
        unit[k] = [(0, 0)] * -s + [(row_den, 0)]
        dens.append(row_den)
        shifts.append(s)
        rows.append(polys + unit)
    shift, den = sum(shifts), math.prod(dens)
    cols, sign, d = _eliminate(rows, shifts, r, _Plain, jordan=True)
    if len(cols) < r:
        raise Singular("matrix is exactly singular")
    if r == 0:
        d = [(1, 0)]
    elif sign < 0:
        d = zipoly.neg(d)
    columns = units + rest
    return d, shift, den, [
        (i, [(j, f if sign > 0 else zipoly.neg(f)) for j, f in zip(columns, row[r:]) if f])
        for i, row in zip(rest, rows)]


@functools.lru_cache(maxsize=16)
def _identity_rows(n: int) -> Tuple[Vector, ...]:
    """The rows e_0 … e_(n−1), built once per n and shared: they are
    immutable, so every unit row of an inverse is one of them."""
    return tuple(tuple(_L_ONE if i == j else _L_ZERO for j in range(n)) for i in range(n))


def _monomial_inverse(d: zipoly.Poly, n: int, rows) -> Optional[MatK]:
    """A⁻¹ from the (d, rows) of :func:`_inv_dense` when d is a monomial,
    exact and at no Laurent product; None otherwise.  It starts from the
    shared rows of :func:`_identity_rows` and converts only the rows of R, so
    a unit row of A is the same e_i in A⁻¹ and costs nothing: the cost
    follows the nonzero entries of those rows."""
    if zipoly.terms(d) != 1:
        return None
    # d·A⁻¹ = t^shift·right/den and d = t^(shift+j)·(a+bi)/den, so
    # A⁻¹ = t^(−j)·right/(a+bi) = t^(−j)·right·(a−bi)/(a²+b²)
    j = zipoly.low(d)
    a, b = d[j]
    den = a * a + b * b if b else a
    out = list(_identity_rows(n))
    for i, pairs in rows:
        row = [_L_ZERO] * n
        for col, f in pairs:
            row[col] = zipoly.to_laurent(zipoly.mul(f, [(a, -b)]) if b else f, -j, den)
        out[i] = tuple(row)
    return MatK._raw(out)


def _valuation(x: LaurentElement) -> float:
    """The least exponent of an exact element; infinity for the exact zero."""
    return min(x.coeffs) if x.coeffs else math.inf


def _inverse_from_known_part(listed) -> Optional[MatK]:
    """A⁻¹ for truncated A, given as its :func:`_nonzero_entries`, from the
    exact inverse R of its known part B, each entry cut at a valuation
    bound; None where the bound does not apply.

    B holds each entry's stored coefficients, taken as exact, so A = B + Δ
    with val Δ_kl ≥ N_kl, the bound of each truncated entry (first-order
    precision tracking, Caruso, Roe & Vaccon 2014, applied t-adically).
    With a_ij = val R_ij and m_il = min_k (a_ik + N_kl), a lower bound for
    val (RΔ)_il, the series A⁻¹ = Σ_k (−RΔ)^k R converges for every
    completion of A when every m_il ≥ 1.  Entry (i, j) of A⁻¹ − R then has
    valuation at least min_l (D_il + a_lj), where D_il is the least weight
    of a path i → l₁ → … → l through truncated columns, each step i → l of
    weight m_il.  R_ij is returned cut there, or exact where no path leads
    on to column j.  None when B is singular, its d is not a monomial, or
    some m_il < 1: those inputs take :func:`_gauss_jordan`.

    Only the valuations the bound needs are read: column k of R for each
    cut row k, and row l for each cut column l.  Only the entries with a
    finite bound are rebuilt; every other row of R is returned as it is.
    """
    n = len(listed)
    cuts = []
    known = list(listed)
    for k, row in enumerate(listed):
        row_cuts = [(k, l, e.prec) for l, e in row if e.prec is not None]
        if row_cuts:
            cuts += row_cuts
            # a bare O(t^N) has the exact zero as its known part
            known[k] = [(l, LaurentElement._raw(e.coeffs) if e.prec is not None else e)
                        for l, e in row if e.coeffs]
    try:
        d, _, _, rows = _inv_dense(known)
    except Singular:
        return None
    inverse = _monomial_inverse(d, n, rows)
    if inverse is None:
        return None
    exact = inverse.rows
    cols = sorted({l for _, l, _ in cuts})
    weight = [dict.fromkeys(cols, math.inf) for _ in range(n)]
    for k, l, cut in cuts:
        for w, r in zip(weight, exact):
            v = _valuation(r[k]) + cut
            if v < w[l]:
                w[l] = v
    if any(w < 1 for row in weight for w in row.values()):
        return None
    # min-plus closure over the truncated columns (Floyd–Warshall)
    for c in cols:
        for i in range(n):
            via = weight[i][c]
            for l in cols:
                weight[i][l] = min(weight[i][l], via + weight[c][l])
    # cut column l -> the valuations of the nonzero entries of row l of R
    reach = {l: [(j, _valuation(x)) for j, x in enumerate(exact[l]) if x.coeffs] for l in cols}
    out = list(exact)
    for i, w in enumerate(weight):
        bounds = {}
        for l, via in w.items():
            if via == math.inf:
                continue
            for j, v in reach[l]:
                if via + v < bounds.get(j, math.inf):
                    bounds[j] = via + v
        if bounds:
            row = list(exact[i])
            for j, bound in bounds.items():
                row[j] = LaurentElement(row[j].coeffs, bound)
            out[i] = tuple(row)
    return MatK._raw(out)


# ---------------------------------------------------------------------------
# Dual-number determinant: det(P + s*M) mod s^2 = det(P) + s*tr(adj(P) M).
# One fraction-free elimination produces both the determinant of P and the
# directional term, which is what the orbit-level computation needs.
# ---------------------------------------------------------------------------


def det_and_adj_trace(
    p_mat: MatK, m_mat: MatK
) -> Tuple[LaurentElement, LaurentElement]:
    """(det P, tr(adj(P)·M)) for exact P and M, from one elimination over dual
    numbers; (1, 0) for 0×0 matrices, whose determinant is 1.  Raises
    :class:`Singular` when P has rank below n − 1."""
    p_mat._check_dim(m_mat)
    if not (p_mat.all_exact() and m_mat.all_exact()):
        raise PrecisionExhausted("dual-number determinant needs exact matrices")
    n = p_mat.n
    if n == 0:
        return _L_ONE, _L_ZERO
    dens, shifts, flat = _dense_rows([p + m for p, m in zip(p_mat.rows, m_mat.rows)])
    shift, den = sum(shifts), math.prod(dens)
    rows = [list(zip(r[:n], r[n:])) for r in flat]
    cols, sign, _ = _eliminate(rows, shifts, n - 1, _Dual)
    if len(cols) < n - 1:
        raise Singular("matrix is exactly singular")
    det, adj_tr = rows[-1][-1]
    den *= sign
    return zipoly.to_laurent(det, shift, den), zipoly.to_laurent(adj_tr, shift, den)
