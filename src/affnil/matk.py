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
  exponent 0, as :func:`normalize_vector`);
* :meth:`MatK.inv` (:func:`_inv_dense`): Gauss–Jordan on [A | I], which
  yields d·A⁻¹ and d = ±det A together; only the final scaling by d⁻¹ can
  truncate, when d is not a monomial.

Exact kernel vectors are back-substituted on the dense echelon rows
(:func:`_dense_kernel`), and each is scaled only by the echelon pivots that
do not divide during its back-substitution, not by the product of all of
them; whether a pivot divides is one exact division in Z[i][t].
Matrices carrying truncated entries fall back to ordinary division-based
elimination on Laurent elements with tracked precision: one Gauss–Jordan
loop (:func:`_gauss_jordan`) gives the determinant and the inverse, and one
echelon loop (:func:`_echelon`) the rank and the kernel.  An undetermined
pivot decision raises :class:`PrecisionExhausted` rather than guessing.

Products.  :meth:`MatK.__mul__`, :meth:`MatK.apply` (v as one column) and
:meth:`MatK.commutator` (A·B − B·A, for the bracket) run one kernel,
:func:`_products`, a row-wise sparse accumulation (Gustavson 1978) over
integer terms.  Row i of the left factors goes on one common denominator
and the right factors on another.  Each nonzero a_ik is multiplied against
the entries of row k of the right factor that are not exactly zero, which
are converted to (exponent, re, im) integer terms once, and only if some
a_ik reaches them.  The products go into one dict of integer pairs per
output entry, and each output coefficient is reduced by one gcd
(``GaussianRational._norm``), not once per entry product and again per
addition as a sum of ``LaurentElement`` products is.  Each pair of entries
takes the truncation bound of :func:`laurent.product_bound`, as
``LaurentElement.__mul__`` does, and an entry keeps the least of them, so
every coefficient below it is an exact sum: the result equals the entrywise
sum of Laurent products, coefficient for coefficient.  A dense product over
Z[i][t] was 2.4× slower on small sparse operands, and a kernel that visits
every (i, j, k) and converts all entries of both factors was slower than
the entrywise loop; only the sparse form is faster on every workload.

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
from .gaussian import GaussianRational
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

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MatK is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MatK":
        return cls([[_L_ZERO] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "MatK":
        return cls(
            [[_L_ONE if i == j else _L_ZERO for j in range(n)] for i in range(n)]
        )

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
        return MatK(_products(self.rows, other.rows))

    def commutator(self, other: "MatK") -> "MatK":
        """self·other − other·self, in one pass of the product kernel."""
        self._check_dim(other)
        return MatK(_products(self.rows, other.rows, other.rows, self.rows))

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

    def trace(self) -> LaurentElement:
        acc = _L_ZERO
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def d_dt(self) -> "MatK":
        return MatK([[e.d_dt() for e in r] for r in self.rows])

    def shift(self, k: int) -> "MatK":
        """Multiply every entry by the monomial t^k."""
        return MatK([[e.shift(k) for e in r] for r in self.rows])

    def scale_t(self, z) -> "MatK":
        """The substitution t -> z*t in every entry; each power z^e is taken
        once per matrix, not once per term."""
        z = GaussianRational(z) if not isinstance(z, GaussianRational) else z
        if z.is_zero:
            raise ZeroScale("t -> 0*t is not a field automorphism")
        powers = {e: z**e for e in {e for r in self.rows for x in r for e in x.coeffs}}
        return MatK(
            [
                [LaurentElement({e: c * powers[e] for e, c in x.coeffs.items()}, x.prec)
                 for x in r]
                for r in self.rows
            ]
        )

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

    def inv(self, working_prec: int = DEFAULT_WORKING_PREC) -> "MatK":
        """Inverse; exact entries whenever the input is exact with a monomial det.

        Exact input goes through one fraction-free Gauss–Jordan pass on
        [A | I], which yields d·A⁻¹ and d = ±det A together; only the final
        scaling by d⁻¹ can truncate.  A monomial d (usually ±1) is divided
        out while the entries are converted back to Laurent elements, at no
        Laurent product.  Truncated input uses division-based Gauss–Jordan at
        ``working_prec``.  Raises :class:`Singular` when the matrix is exactly
        singular.
        """
        if self.all_exact():
            d, shift, den, right = _inv_dense(self)
            if zipoly.terms(d) == 1:
                # d·A⁻¹ = t^shift·right/den and d = t^(shift+j)·(a+bi)/den, so
                # A⁻¹ = t^(−j)·right/(a+bi) = t^(−j)·right·(a−bi)/(a²+b²)
                j = zipoly.low(d)
                a, b = d[j]
                if b:
                    right = [[zipoly.mul(e, [(a, -b)]) for e in r] for r in right]
                return MatK([[zipoly.to_laurent(e, -j, a * a + b * b if b else a)
                              for e in r] for r in right])
            scaled = MatK([[zipoly.to_laurent(e, shift, den) for e in r] for r in right])
            return scaled.scale(zipoly.to_laurent(d, shift, den).inv(working_prec))
        inverse = _gauss_jordan(self, working_prec, inverse=True)
        if inverse is None:
            raise Singular("matrix is exactly singular")
        return inverse

    def rank(self) -> int:
        """Rank over K; raises when a pivot decision is undetermined."""
        return _rank(self.rows, self.n)

    def kernel_basis(self, working_prec: int = DEFAULT_WORKING_PREC) -> List[Vector]:
        """Basis of the right kernel, one vector per free column.

        For exact matrices the vectors are exact and carry only the echelon
        pivots they need (see :func:`_dense_kernel`).  Truncated matrices
        divide by each pivot at ``working_prec``.
        """
        n = self.n
        if self.all_exact():
            return _dense_kernel(_dense_echelon(self.rows, n), n)
        ech = _echelon(self.rows, n)
        pivot_cols = [c for c, _ in ech]
        basis: List[Vector] = []
        for f in (c for c in range(n) if c not in pivot_cols):
            v: List[LaurentElement] = [_L_ZERO] * n
            v[f] = _L_ONE
            for c, row in reversed(ech):
                acc = _L_ZERO
                for j in range(c + 1, n):
                    rj = row[j]
                    vj = v[j]
                    if (rj.coeffs or rj.prec is not None) and (vj.coeffs or vj.prec is not None):
                        acc = acc + rj * vj
                v[c] = (-acc) * row[c].inv(working_prec)
            basis.append(normalize_vector(tuple(v)))
        return basis


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
        pairs = ((a, b),)
    else:
        a._check_dim(b)
        pairs = ((x, b_row[i]) for i, a_row in enumerate(a.rows)
                 for x, b_row in zip(a_row, b.rows))
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


def _products(a, b, c=None, d=None) -> List[List[LaurentElement]]:
    """The rows of A·B, or of A·B − C·D: the product kernel (see the module
    docstring).  A and C are n rows of length n, B and D n rows of length m.

    Row i of A and C goes on one common denominator and B and D together on
    another, so every output coefficient is an integer pair over one
    denominator, summed in a dict per output entry and normalised once.  Each
    nonzero a_ik meets the entries of row k of B that are not exactly zero,
    converted to integer terms once, the first time row k is reached.  A pair
    keeps the truncation bound that ``LaurentElement.__mul__`` gives it, and
    an entry the least bound of its pairs; an entry that no pair reaches is
    the exact zero.
    """
    pairs = [(a, b, 1)] if c is None else [(a, b, 1), (c, d, -1)]
    width = len(b[0]) if b else 0
    right_den = common_den(
        q for left, right, _ in pairs
        for k in {k for row in left for k, x in enumerate(row) if x.coeffs or x.prec is not None}
        for y in right[k] for q in y.coeffs.values())
    converted = [{} for _ in pairs]
    out = []
    for i in range(len(a)):
        left_den = common_den(q for left, _, _ in pairs for x in left[i] for q in x.coeffs.values())
        entries = {}  # output column -> [exponent -> [re, im], least pair bound]
        for (left, right, sign), rows_done in zip(pairs, converted):
            for k, x in enumerate(left[i]):
                xc, x_prec = x.coeffs, x.prec
                if not xc and x_prec is None:
                    continue
                row = rows_done.get(k)
                if row is None:
                    row = rows_done[k] = [
                        (j, integer_terms(y.coeffs, right_den), y.prec,
                         min(y.coeffs) if y.coeffs else y.prec)
                        for j, y in enumerate(right[k]) if y.coeffs or y.prec is not None]
                if not row:
                    continue
                x_terms = integer_terms(xc, sign * left_den)
                x_low = min(xc) if xc else x_prec
                for j, y_terms, y_prec, y_low in row:
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
            out_row[j] = LaurentElement(
                {e: GaussianRational._norm(re, im, den) for e, (re, im) in acc.items()
                 if (re or im) and (bound is None or e < bound)}, bound)
        out.append(out_row)
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

    None when v is zero or carries a truncated entry.  Read off the integer
    form of v (:func:`zipoly.from_row`) by :func:`zipoly.row_content`.
    """
    if any(el.prec is not None for el in v):
        return None
    den, shift, polys = zipoly.from_row(v)
    g, lo = zipoly.row_content(polys)
    if lo is None:
        return None
    return GaussianRational._norm(g, 0, den), shift + lo


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


def _rank(rows: Sequence[Sequence[LaurentElement]], width: int) -> int:
    """Rank over K of rows of length width; raises when a pivot decision is
    undetermined."""
    if all(e.prec is None for r in rows for e in r):
        return len(_dense_echelon(rows, width))
    return len(_echelon(rows, width))


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
    """Ring operations on polynomials of Z[i][t]."""

    zero: zipoly.Poly = []
    one: zipoly.Poly = [(1, 0)]
    mul = staticmethod(zipoly.mul)
    div = staticmethod(zipoly.exact_div)

    @staticmethod
    def head(x: zipoly.Poly) -> zipoly.Poly:
        return x

    @staticmethod
    def combine(p, x, f, y, prev):
        """(p·x − f·y) / prev, an exact division; prev None stands for 1."""
        num = zipoly.mul_sub(p, x, f, y)
        if prev is None or not num:
            return num
        return zipoly.exact_div(num, prev)


class _Dual:
    """Ring operations on dual numbers a + s·b over Z[i][t] (s² = 0), held as
    (a, b); the pivot rules look at a only."""

    zero = ([], [])
    one = ([(1, 0)], [])

    @staticmethod
    def head(x):
        return x[0]

    @staticmethod
    def mul(x, y):
        return zipoly.mul(x[0], y[0]), zipoly.combine([(1, x[0], y[1]), (1, x[1], y[0])])

    @staticmethod
    def div(x, y):
        q = zipoly.exact_div(x[0], y[0])
        return q, zipoly.exact_div(zipoly.combine([(1, x[1], [(1, 0)]), (-1, q, y[1])]), y[0])

    @staticmethod
    def combine(p, x, f, y, prev):
        a = zipoly.mul_sub(p[0], x[0], f[0], y[0])
        b = zipoly.combine([(1, p[0], x[1]), (-1, f[0], y[1]), (1, p[1], x[0]), (-1, f[1], y[0])])
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
    far, so every division is exact in Z[i][t], and it is checked.  A row with
    f = 0 is multiplied by p / prev instead, when that quotient is exact.

    Returns (pivot columns, sign of the row permutation, last pivot).
    """
    width = len(rows[0]) if rows else 0
    zero = ring.zero
    head = ring.head
    combine = ring.combine
    mul = ring.mul
    sign = 1
    prev = None
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
        # a row with f = 0 only becomes p·row / prev: scale it by the quotient
        # when prev divides p, which spares a division per entry
        try:
            scale = p if prev is None else ring.div(p, prev)
        except ExactDivisionError:
            scale = None
        for i in range(0 if jordan else top + 1, len(rows)):
            if i == top:
                continue
            row = rows[i]
            f = row[col]
            f_zero = f == zero
            if f_zero and scale is not None:
                if scale != ring.one:
                    for j in range(col + 1, width):
                        if row[j] != zero:
                            row[j] = mul(scale, row[j])
                continue
            for j in range(col + 1, width):
                x = row[j]
                # (p·0 − f·y) / prev is 0 when f·y is: most entries, when sparse
                if x == zero and (f_zero or pivot_row[j] == zero):
                    continue
                row[j] = combine(p, x, f, pivot_row[j], prev)
            row[col] = zero
        prev = p
        cols.append(col)
    return cols, sign, prev


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


def _det_bareiss(mat: MatK) -> LaurentElement:
    """Fraction-free determinant of an exact matrix."""
    n = mat.n
    if n == 0:
        return _L_ONE
    dens, shifts, rows = _dense_rows(mat.rows)
    shift = sum(shifts)
    cols, sign, _ = _eliminate(rows, shifts, n - 1, _Plain)
    if len(cols) < n - 1:
        return _L_ZERO
    return zipoly.to_laurent(rows[-1][-1], shift, sign * math.prod(dens))


def _inv_dense(mat: MatK):
    """Fraction-free Gauss–Jordan on [A | I] for exact A (Bareiss 1968).

    Returns (d, shift, den, right) with d·A⁻¹ = t^shift·right/den and
    ±det A = t^shift·d/den, where d, the last pivot, and the entries of right
    are polynomials of Z[i][t].  The pivot order only flips the sign of d and
    d·A⁻¹ together; :func:`_pick_short` prefers a monomial pivot, which makes
    the next division a shift instead of a long division.  Row r of [A | I]
    enters scaled by its denominator D and by t^(-s), with s its least
    exponent (at most 0, since the row holds a 1), so the whole pass stays in
    Z[i][t].
    """
    n = mat.n
    if n == 0:
        return [(1, 0)], 0, 1, []
    unit = MatK.identity(n).rows
    dens, shifts, rows = _dense_rows([r + u for r, u in zip(mat.rows, unit)])
    shift, den = sum(shifts), math.prod(dens)
    cols, _, d = _eliminate(rows, shifts, n, _Plain, jordan=True)
    if len(cols) < n:
        raise Singular("matrix is exactly singular")
    return d, shift, den, [r[n:] for r in rows]


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
