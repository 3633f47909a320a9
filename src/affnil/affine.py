"""The completed affine algebra sl_n(K) + C*c + C*d and its group action.

Elements are X + lambda*c + mu*d with X a trace-zero matrix over K.  The
bracket extends the loop-algebra bracket by the central 2-cocycle
res((dP/dt)Q) kappa(x, y) and the derivation t*d/dt.  Group elements are pairs
(z, g) acting by loop rotation t -> z*t composed with matrix conjugation plus
the residue correction to the c-component.

The bilinear form is kappa_coef * tr(xy); the default kappa_coef = 2n is the
Killing normalization of sl_n (configurable, e.g. 1 for the plain trace form).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    CertifiedDetWithDerivation,
    DimensionMismatch,
    NotTraceless,
    NotUnimodular,
    PrecisionExhausted,
    ZeroScale,
)
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, gr
from .laurent import DEFAULT_WORKING_PREC, LaurentElement
from .matk import (
    MatK,
    _nonzero_entries,
    _products,
    _trace_coeff,
    _trace_pairs,
    trace_coeff,
)


def killing_coef(n: int) -> GaussianRational:
    """Killing-form normalization of sl_n: kappa(x, y) = 2n tr(xy)."""
    return GaussianRational._raw(2 * n, 0, 1)


@dataclass(frozen=True)
class AffineElement:
    """X + lambda*c + mu*d."""

    mat: MatK
    c_coef: GaussianRational = GR_ZERO
    d_coef: GaussianRational = GR_ZERO

    def __post_init__(self):
        if self.mat.trace().is_zero_3v() is False:
            raise NotTraceless("matrix component has nonzero trace")

    @property
    def n(self) -> int:
        return self.mat.n

    def __add__(self, other: "AffineElement") -> "AffineElement":
        return AffineElement(
            self.mat + other.mat,
            self.c_coef + other.c_coef,
            self.d_coef + other.d_coef,
        )

    def __sub__(self, other: "AffineElement") -> "AffineElement":
        return AffineElement(
            self.mat - other.mat,
            self.c_coef - other.c_coef,
            self.d_coef - other.d_coef,
        )

    def __neg__(self) -> "AffineElement":
        return AffineElement(-self.mat, -self.c_coef, -self.d_coef)

    def scale(self, c: GaussianRational) -> "AffineElement":
        return AffineElement(self.mat.scale(c), self.c_coef * c, self.d_coef * c)


class DetMode(enum.Enum):
    EXACT_ONE = "exact-one"
    NTH_POWER_CERTIFIED = "nth-power-certified"


def det_mode_of(det: LaurentElement, n: int) -> DetMode:
    """The certificate that the determinant det of an n×n matrix carries.

    EXACT_ONE when det - 1 is provably zero, NTH_POWER_CERTIFIED when the
    valuation of det is a multiple of n (a truncated det that is 1 only up to
    its truncation lands here), :class:`NotUnimodular` otherwise.  An
    undetermined valuation raises :class:`PrecisionExhausted`.
    """
    if det.is_zero_3v() is True:
        raise NotUnimodular("det is 0: the matrix is singular")
    if (det - LaurentElement.one()).is_zero_3v() is True:
        return DetMode.EXACT_ONE
    if det.order() % n == 0:
        return DetMode.NTH_POWER_CERTIFIED
    raise NotUnimodular(f"det has valuation {det.order()}, not a multiple of {n}")


@dataclass(frozen=True)
class GroupElement:
    """(z, g) with z a loop rotation and g a matrix over K.

    EXACT_ONE means det(g) = 1 exactly.  NTH_POWER_CERTIFIED means the
    valuation of det(g) is a multiple of n, so det(g) = r^n for some r in K
    and g is an SL_n(K) element times the scalar r; that scalar acts trivially
    on trace-zero matrices and contributes nothing to the c-correction when
    the derivation part vanishes.  :meth:`checked` decides the mode by
    :func:`det_mode_of`; built directly, the element trusts the mode given.
    """

    z: GaussianRational
    g: MatK
    det_mode: DetMode = DetMode.EXACT_ONE

    def __post_init__(self):
        if self.z.is_zero:
            raise ZeroScale("group element with z = 0")

    @property
    def n(self) -> int:
        return self.g.n

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(GR_ONE, MatK.identity(n))

    @classmethod
    def from_shear(cls, n: int, i: int, j: int, p: LaurentElement) -> "GroupElement":
        return cls(GR_ONE, MatK.shear(n, i, j, p))

    @classmethod
    def loop_rotation(cls, n: int, z: GaussianRational) -> "GroupElement":
        """The element d_z = (z, 1)."""
        return cls(z, MatK.identity(n))

    @classmethod
    def checked(
        cls,
        g: MatK,
        z: GaussianRational = GR_ONE,
        working_prec: int = DEFAULT_WORKING_PREC,
    ) -> "GroupElement":
        """Classify the determinant (:func:`det_mode_of`) and build a
        certified element."""
        return cls(z, g, det_mode_of(g.det(working_prec), g.n))

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Semidirect product compatible with Ad(z, g) = Ad d_z o Ad g:

        (z1, g1)(z2, g2) = (z1 z2, g1(t / z2) * g2), so that the adjoint
        action of the product is the composition of the adjoint actions.
        """
        if self.n != other.n:
            raise DimensionMismatch("group elements of different sizes")
        twisted = (
            self.g.scale_t(other.z.inverse()) if other.z != GR_ONE else self.g
        )
        mode = (
            DetMode.EXACT_ONE
            if self.det_mode is DetMode.EXACT_ONE and other.det_mode is DetMode.EXACT_ONE
            else DetMode.NTH_POWER_CERTIFIED
        )
        return GroupElement(self.z * other.z, twisted * other.g, mode)


def form_t(a: MatK, b: MatK, kappa_coef: GaussianRational) -> LaurentElement:
    """The K-bilinear form kappa_coef * tr(ab)."""
    if a.n != b.n:
        raise DimensionMismatch("form of matrices with different sizes")
    return (a * b).trace().scale(kappa_coef)


def _scaled_t_derivative(x: MatK, mu: GaussianRational) -> MatK:
    """mu·t·x′ in one pass over the coefficients: c at t^e becomes e·mu·c at
    t^e, and each entry keeps its truncation bound (x′ loses one degree, and
    t gives it back)."""
    norm = GaussianRational._norm
    ma, mb, md = mu.a, mu.b, mu.d

    def entry(el: LaurentElement) -> LaurentElement:
        return LaurentElement._raw(
            {e: norm(e * (c.a * ma - c.b * mb), e * (c.a * mb + c.b * ma), c.d * md)
             for e, c in el.coeffs.items() if e}, el.prec)

    return MatK([[entry(el) for el in row] for row in x.rows])


def bracket(
    a: AffineElement,
    b: AffineElement,
    kappa_coef: GaussianRational | None = None,
) -> AffineElement:
    """Lie bracket of the completed affine algebra.

    [X_a + la*c + mu_a*d, X_b + lb*c + mu_b*d]
      = (X_a X_b - X_b X_a + mu_a t X_b' - mu_b t X_a')
        + res<X_a', X_b>_t * c
    which restricts on monomials t^m ox, t^n oy to
    t^{m+n} o [x,y] + mu_a n t^n oy - mu_b m t^m ox + m delta_{m,-n}<x,y> c.
    """
    if a.n != b.n:
        raise DimensionMismatch("bracket of elements with different sizes")
    kappa = killing_coef(a.n) if kappa_coef is None else kappa_coef
    xa, xb = a.mat, b.mat
    mat = xa.commutator(xb)
    if not a.d_coef.is_zero:
        mat = mat + _scaled_t_derivative(xb, a.d_coef)
    if not b.d_coef.is_zero:
        mat = mat + _scaled_t_derivative(xa, -b.d_coef)
    c_part = kappa * trace_coeff(xa, xb, -1, derivative=True)
    return AffineElement(mat, c_part, GR_ZERO)


def is_nilpotent(a: AffineElement) -> bool:
    """True iff the derivation part is zero and the matrix part is nilpotent."""
    if not a.d_coef.is_zero:
        return False
    z = (a.mat ** a.n).is_zero_3v()
    if z is None:
        raise PrecisionExhausted("nilpotency undetermined at current precision")
    return z


def adjoint_act(
    g: GroupElement,
    a: AffineElement,
    working_prec: int = DEFAULT_WORKING_PREC,
    kappa_coef: GaussianRational | None = None,
) -> AffineElement:
    """Adjoint action of (z, g), applied as Ad d_z after Ad g.

    Ad g(x + la*c + mu*d) = g x g^-1 - mu t (dg/dt) g^-1
        + (la + res<g^-1 dg/dt, x - 1/2 mu t g^-1 dg/dt>_t) c + mu d
    Ad d_z fixes c and d and substitutes t -> z t in the matrix part.

    The sign of the c-correction is the one forced by the bracket's cocycle
    res<x', y>: for g = exp(Y), Ad g = exp(ad Y), so Ad g is a Lie-algebra
    automorphism, Ad g [a, b] = [Ad g a, Ad g b].

    Evaluation order: y = x g^-1 first, since x is usually sparse, then
    g y.  By the cyclic trace, tr(g^-1 g' x) = tr(g' y), and with
    M = g' g^-1, tr((g^-1 g')^2) = tr(M^2); so the correction is
    kappa res tr(g' y) - 1/2 mu kappa [t^-2] tr(M M), each one coefficient
    read by :func:`trace_coeff` without forming g', g^-1 g' or the trace
    product, and M is formed only when mu != 0, where the matrix part needs
    it anyway.  :func:`trace_coeff` keeps the truncation bound of every entry
    product, so a truncated g gives the correction only where its full
    products would know it, and raises :class:`PrecisionExhausted` otherwise.

    Cost.  g's entries that are not exactly zero are listed once per call
    (``matk._nonzero_entries``), and that one listing serves the inverse
    (whether g is exact, and which rows are unit rows), the left factor of
    g y and the entry pairs of tr(g' y); nothing else reads all n^2 entries
    of g, and the listing is dropped when the call returns.  Past that, the
    act pays for g's nonzero entries and for the rows of g that are not unit
    rows (see :mod:`affnil.matk`).  t -> z t is ``MatK.scale_t``, one
    integer-pair product and one gcd per output coefficient.
    """
    if g.n != a.n:
        raise DimensionMismatch("group and algebra elements of different sizes")
    kappa = killing_coef(a.n) if kappa_coef is None else kappa_coef
    mu = a.d_coef
    if not mu.is_zero and g.det_mode is not DetMode.EXACT_ONE:
        raise CertifiedDetWithDerivation(
            "derivation part needs an exact det-1 conjugator"
        )
    listed = _nonzero_entries(g.g.rows)  # for this call only
    ginv = g.g.inv(working_prec, _listed=listed)
    y = a.mat * ginv
    mat = MatK._raw(_products(g.g.rows, y.rows, listed=listed))
    corr = kappa * _trace_coeff(_trace_pairs(listed, y.rows), -1, True)
    if not mu.is_zero:
        m = g.g.d_dt() * ginv
        mat = mat - m.shift(1).scale(mu)
        corr = corr - mu * kappa * trace_coeff(m, m, -2) / gr(2)
    if g.z != GR_ONE:
        mat = mat.scale_t(g.z)
    return AffineElement(mat, a.c_coef + corr, mu)
