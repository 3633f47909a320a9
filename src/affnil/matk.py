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
  (:func:`_dense_echelon`), which keeps every row primitive instead of
  dividing: content 1 and least exponent 0, as :func:`normalize_vector`;
* :meth:`MatK.inv` (:func:`_inv_bareiss`): Gauss–Jordan on [A | I], which
  yields d·A⁻¹ and d = ±det A together; only the final scaling by d⁻¹ can
  truncate, when d is not a monomial.

An exact kernel vector is scaled only by the echelon pivots whose division
was not exact during its back-substitution, not by the product of all of
them; divisibility is first tested modulo p (see :mod:`affnil.modp`) and
then confirmed by an exact division.
Matrices carrying truncated entries fall back to ordinary division-based
elimination on Laurent elements with tracked precision; an undetermined
pivot decision raises :class:`PrecisionExhausted` rather than guessing.

Pivoting rule: the eligible entry of least valuation in the current column,
ties broken by the lowest row index; in dense form an entry's valuation is
its row's shift plus the index of its first nonzero coefficient.  The
determinants swap the pivot row up, the echelon form moves it up and keeps
the order of the rows below.  The exact inverse is the one exception: its
result does not depend on the pivots, so it takes the entry with the fewest
terms (then least valuation, then lowest row), which keeps its exact
divisions cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import modp, zipoly
from .errors import (
    DimensionMismatch,
    ExactDivisionError,
    PrecisionExhausted,
    Singular,
)
from .gaussian import GaussianRational
from .laurent import DEFAULT_WORKING_PREC, LaurentElement, format_laurent

Vector = Tuple[LaurentElement, ...]

_L_ZERO = LaurentElement.zero()
_L_ONE = LaurentElement.one()

# widest numerator whose divisibility is tested in F_p[t], as a dense list
_GATE_MAX_SPAN = 1 << 16


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
        n = self.n
        cols = list(zip(*other.rows))
        out: List[List[LaurentElement]] = []
        for i in range(n):
            row = self.rows[i]
            out_row = []
            for j in range(n):
                acc = _L_ZERO
                col = cols[j]
                for k in range(n):
                    a = row[k]
                    b = col[k]
                    if a.coeffs or a.prec is not None:
                        if b.coeffs or b.prec is not None:
                            acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return MatK(out)

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
        out = []
        for i in range(self.n):
            acc = _L_ZERO
            for k in range(self.n):
                a = self.rows[i][k]
                if (a.coeffs or a.prec is not None) and (v[k].coeffs or v[k].prec is not None):
                    acc = acc + a * v[k]
            out.append(acc)
        return tuple(out)

    def trace(self) -> LaurentElement:
        acc = _L_ZERO
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def d_dt(self) -> "MatK":
        return MatK([[e.d_dt() for e in r] for r in self.rows])

    def scale_t(self, z) -> "MatK":
        return MatK([[e.scale_t(z) for e in r] for r in self.rows])

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
        return _det_division([list(r) for r in self.rows], working_prec)

    def inv(self, working_prec: int = DEFAULT_WORKING_PREC) -> "MatK":
        """Inverse; exact entries whenever the input is exact with a monomial det.

        Exact input goes through one fraction-free Gauss–Jordan pass on
        [A | I], which yields d·A⁻¹ and d = ±det A together; only the final
        scaling by d⁻¹ can truncate.  Truncated input uses division-based
        Gauss–Jordan at ``working_prec``.  Raises :class:`Singular` when the
        matrix is exactly singular.
        """
        if self.all_exact():
            d, scaled = _inv_bareiss(self)
            return scaled.scale(d.inv(working_prec))
        return _inv_division(self, working_prec)

    def rank(self) -> int:
        """Rank over K; raises when a pivot decision is undetermined."""
        if self.all_exact():
            return len(_dense_echelon(self.rows, self.n))
        return len(_echelon([list(r) for r in self.rows], self.n))

    def kernel_basis(self, working_prec: int = DEFAULT_WORKING_PREC) -> List[Vector]:
        """Basis of the right kernel, one vector per free column.

        For exact matrices the vectors are exact: the echelon step is
        fraction-free, and back-substitution starts from 1 at the free
        coordinate and divides by a pivot only where the division is exact
        (see :func:`_exact_quotient`).  Where it is not, the vector built so
        far is scaled by that pivot instead, so a vector carries only the
        pivots it needs rather than the product of all of them.
        """
        n = self.n
        ech = _echelon([list(r) for r in self.rows], n)
        pivot_cols = [c for c, _ in ech]
        free_cols = [c for c in range(n) if c not in pivot_cols]
        exact = all(e.prec is None for _, row in ech for e in row)
        basis: List[Vector] = []
        for f in free_cols:
            v: List[LaurentElement] = [_L_ZERO] * n
            v[f] = _L_ONE
            for c, row in reversed(ech):
                acc = _L_ZERO
                for j in range(c + 1, n):
                    rj = row[j]
                    vj = v[j]
                    if (rj.coeffs or rj.prec is not None) and (vj.coeffs or vj.prec is not None):
                        acc = acc + rj * vj
                if not exact:
                    v[c] = (-acc) * row[c].inv(working_prec)
                elif acc.coeffs:
                    q = _exact_quotient(-acc, row[c])
                    if q is None:
                        # v[c] = -acc / row[c] after scaling everything by row[c]
                        p = row[c]
                        v = [e * p if e.coeffs else e for e in v]
                        q = -acc
                    v[c] = q
            basis.append(normalize_vector(tuple(v)))
        return basis


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


def _exact_quotient(num: LaurentElement, den: LaurentElement) -> Optional[LaurentElement]:
    """num / den when den divides num exactly, else None (both exact, nonzero).

    A monomial den always divides.  Otherwise a long division is tried only
    when den divides num in F_p[t] under both images of i; that is necessary
    when p divides no denominator and neither end coefficient of den, and a
    failed long division is far dearer than the test.  The quotient is
    accepted only from :meth:`LaurentElement.exact_div`, which raises on a
    remainder.  Every case the test cannot decide, and every num wider than
    _GATE_MAX_SPAN exponents (the test holds it densely), answers None, which
    is always safe for the caller.
    """
    if len(den.coeffs) > 1:
        if max(num.coeffs) - min(num.coeffs) > _GATE_MAX_SPAN:
            return None
        for root in modp.SQRTS_OF_MINUS_ONE:
            den_p = modp.coeffs_mod_p(den, root)
            if den_p is None or not den_p[0] or not den_p[-1]:
                return None
            num_p = modp.coeffs_mod_p(num, root)
            if num_p is None or not modp.divides_mod_p(num_p, den_p):
                return None
    try:
        return num.exact_div(den)
    except ExactDivisionError:
        return None


def vector_content(v: Vector) -> Optional[Tuple[GaussianRational, int]]:
    """(c, e) with v = c·t^e·w, where the real and imaginary parts of w's
    coefficients are integers with gcd 1 and w's least exponent is 0.

    None when v is zero or carries a truncated entry.
    """
    num_gcd = 0
    den_lcm = 1
    min_exp = None
    for el in v:
        if el.prec is not None:
            return None
        for exp, c in el.coeffs.items():
            num_gcd = math.gcd(num_gcd, c.a, c.b)
            den_lcm = den_lcm * c.d // math.gcd(den_lcm, c.d)
            if min_exp is None or exp < min_exp:
                min_exp = exp
    if min_exp is None:
        return None
    return GaussianRational(Fraction(num_gcd, den_lcm)), min_exp


def normalize_vector(v: Vector) -> Vector:
    """Divide an exact vector by its content (see :func:`vector_content`)."""
    content = vector_content(v)
    if content is None:
        return v
    scalar, exp = content
    inv = scalar.inverse()
    return tuple(el.shift(-exp).scale(inv) for el in v)


def _echelon(
    rows: List[List[LaurentElement]], width: int
) -> List[Tuple[int, List[LaurentElement]]]:
    """Fraction-free row echelon; returns (pivot_col, row) in column order.

    Every row is kept primitive (see :func:`normalize_vector`).  Exact rows
    go through :func:`_dense_echelon`; the loop below serves truncated ones.
    """
    if all(e.prec is None for r in rows for e in r):
        return [
            (col, [zipoly.to_laurent(e) for e in row])
            for col, row in _dense_echelon(rows, width)
        ]
    active = [normalize_vector(tuple(r)) for r in rows]
    active = [list(r) for r in active]
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


def _det_division(
    m: List[List[LaurentElement]], working_prec: int
) -> LaurentElement:
    n = len(m)
    sign = 1
    acc = _L_ONE
    for k in range(n):
        idx = _pick_pivot([(i, m[i][k]) for i in range(k, n)])
        if idx is None:
            return _L_ZERO
        if idx != k:
            m[k], m[idx] = m[idx], m[k]
            sign = -sign
        p = m[k][k]
        acc = acc * p
        pinv = p.inv(working_prec)
        for i in range(k + 1, n):
            mik = m[i][k]
            if mik.is_zero_3v() is True:
                continue
            factor = mik * pinv
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - factor * m[k][j]
            m[i][k] = _L_ZERO
    return acc if sign == 1 else -acc


def _inv_division(mat: MatK, working_prec: int) -> MatK:
    n = mat.n
    left = [list(r) for r in mat.rows]
    right = [
        [_L_ONE if i == j else _L_ZERO for j in range(n)] for i in range(n)
    ]
    for k in range(n):
        idx = _pick_pivot([(i, left[i][k]) for i in range(k, n)])
        if idx is None:
            raise Singular("matrix is exactly singular")
        if idx != k:
            left[k], left[idx] = left[idx], left[k]
            right[k], right[idx] = right[idx], right[k]
        pinv = left[k][k].inv(working_prec)
        left[k] = [e * pinv for e in left[k]]
        left[k][k] = _L_ONE
        right[k] = [e * pinv for e in right[k]]
        for i in range(n):
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
    return MatK(right)




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
        return zipoly.mul(x[0], y[0]), zipoly.mul_sub(x[0], y[1], zipoly.neg(x[1]), y[0])

    @staticmethod
    def div(x, y):
        q = zipoly.exact_div(x[0], y[0])
        return q, zipoly.exact_div(zipoly.sub(x[1], zipoly.mul(q, y[1])), y[0])

    @staticmethod
    def combine(p, x, f, y, prev):
        a = zipoly.mul_sub(p[0], x[0], f[0], y[0])
        b = zipoly.add(
            zipoly.mul_sub(p[0], x[1], f[0], y[1]),
            zipoly.mul_sub(p[1], x[0], f[1], y[0]),
        )
        return (a, b) if prev is None else _Dual.div((a, b), prev)


_Candidates = List[Tuple[int, int, zipoly.Poly]]


def _pick_low(candidates: _Candidates) -> Optional[int]:
    """Row index of the nonzero entry of least valuation, ties broken by the
    lowest row; None when all are zero.  A candidate is (row index, row shift,
    entry), and the entry's valuation is the shift plus its low index."""
    best = best_val = None
    for i, shift, f in candidates:
        if f:
            val = shift + zipoly.low(f)
            if best is None or val < best_val:
                best, best_val = i, val
    return best


def _pick_short(candidates: _Candidates) -> Optional[int]:
    """Row index of the nonzero entry with the fewest terms, ties broken by
    least valuation and then by the lowest row; None when all are zero."""
    best = None
    for i, shift, f in candidates:
        if f:
            key = (zipoly.terms(f), shift + zipoly.low(f), i)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def _eliminate(rows, shifts, steps, ring, pick, *, jordan=False, primitive=False):
    """Fraction-free elimination (Bareiss 1968) of dense rows, in place.

    For each of the first `steps` columns, `pick` chooses the pivot among the
    rows not used yet, and that row moves up to the next place: by a swap, or
    with `primitive` by a rotation that keeps the order of the rows below it.
    `shifts` holds each row's exponent shift and moves with it.  Every row
    below the pivot row, and with `jordan` every row above it too, becomes
    (p·row − f·pivot row) / prev from the next column on, where p is the
    pivot, f the row's entry in the pivot column and prev the previous pivot.
    Every entry is then a minor of the input, so every division is exact in
    Z[i][t], and it is checked.  A row with f = 0 is multiplied by p / prev
    instead, when that quotient is exact.  With `primitive` the division is
    replaced by :func:`zipoly.primitive` of the new row and rows with f = 0
    stay as they are: the row echelon form of :func:`_dense_echelon`.

    Returns (pivot columns, sign of the row permutation, last pivot).  A
    column without a pivot returns None, unless `primitive`, which skips it.
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
        idx = pick([(i, shifts[i], head(rows[i][col])) for i in range(top, len(rows))])
        if idx is None:
            if primitive:
                continue
            return None
        if primitive:
            rows.insert(top, rows.pop(idx))
            shifts.insert(top, shifts.pop(idx))
        elif idx != top:
            rows[top], rows[idx] = rows[idx], rows[top]
            shifts[top], shifts[idx] = shifts[idx], shifts[top]
            sign = -sign
        pivot_row = rows[top]
        p = pivot_row[col]
        # a row with f = 0 only becomes p·row / prev: scale it by the quotient
        # when prev divides p, which spares a division per entry
        scale = None
        if not primitive:
            try:
                scale = p if prev is None else ring.div(p, prev)
            except ExactDivisionError:
                pass
        for i in range(0 if jordan else top + 1, len(rows)):
            if i == top:
                continue
            row = rows[i]
            f = row[col]
            f_zero = f == zero
            if f_zero and primitive:
                continue
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
            if primitive:
                rows[i] = zipoly.primitive(row)
        if not primitive:
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
    """Row echelon of exact rows over Z[i][t], every row primitive with least
    exponent 0: (pivot column, row) in column order."""
    dense = [zipoly.primitive(zipoly.from_row(r)[2]) for r in rows]
    cols, _, _ = _eliminate(dense, [0] * len(dense), width, _Plain, _pick_low, primitive=True)
    return list(zip(cols, dense))


def _det_bareiss(mat: MatK) -> LaurentElement:
    """Fraction-free determinant of an exact matrix."""
    n = mat.n
    if n == 0:
        return _L_ONE
    dens, shifts, rows = _dense_rows(mat.rows)
    shift = sum(shifts)
    done = _eliminate(rows, shifts, n - 1, _Plain, _pick_low)
    if done is None:
        return _L_ZERO
    return zipoly.to_laurent(rows[-1][-1], shift, done[1] * math.prod(dens))


def _inv_bareiss(mat: MatK) -> Tuple[LaurentElement, MatK]:
    """Fraction-free Gauss–Jordan on [A | I] for exact A (Bareiss 1968).

    Returns (d, d·A⁻¹) with d = ±det A, the last pivot.  The pivot order only
    flips the sign of d and d·A⁻¹ together, so the pivots are picked by
    :func:`_pick_short`: a monomial pivot makes the next division a shift
    instead of a long division.  Row r of [A | I] enters scaled by its
    denominator D and by t^(-s), with s its least exponent (at most 0, since
    the row holds a 1), so the whole pass stays in Z[i][t].
    """
    n = mat.n
    if n == 0:
        return _L_ONE, mat
    unit = MatK.identity(n).rows
    dens, shifts, rows = _dense_rows([r + u for r, u in zip(mat.rows, unit)])
    shift, den = sum(shifts), math.prod(dens)
    done = _eliminate(rows, shifts, n, _Plain, _pick_short, jordan=True)
    if done is None:
        raise Singular("matrix is exactly singular")
    right = [[zipoly.to_laurent(e, shift, den) for e in r[n:]] for r in rows]
    return zipoly.to_laurent(done[2], shift, den), MatK(right)


# ---------------------------------------------------------------------------
# Dual-number determinant: det(P + s*M) mod s^2 = det(P) + s*tr(adj(P) M).
# One fraction-free elimination produces both the determinant of P and the
# directional term, which is what the orbit-level computation needs.
# ---------------------------------------------------------------------------


def det_and_adj_trace(
    p_mat: MatK, m_mat: MatK
) -> Tuple[LaurentElement, LaurentElement]:
    p_mat._check_dim(m_mat)
    if not (p_mat.all_exact() and m_mat.all_exact()):
        raise PrecisionExhausted("dual-number determinant needs exact matrices")
    n = p_mat.n
    dens, shifts, flat = _dense_rows([p + m for p, m in zip(p_mat.rows, m_mat.rows)])
    shift, den = sum(shifts), math.prod(dens)
    rows = [list(zip(r[:n], r[n:])) for r in flat]
    done = _eliminate(rows, shifts, n - 1, _Dual, _pick_low)
    if done is None:
        raise Singular("matrix is exactly singular")
    det, adj_tr = rows[-1][-1]
    den *= done[1]
    return zipoly.to_laurent(det, shift, den), zipoly.to_laurent(adj_tr, shift, den)
