"""Jordan and quasi-Jordan theory over K for nilpotent matrices.

The central reduction: given nilpotent x over K, build a Jordan basis by the
kernel-filtration chain algorithm, giving P with P^-1 x P = J (all
superdiagonal ones, block sizes non-increasing).  The transition matrix T =
P^-1 generally has det T of nonzero valuation; writing l = ord(det T) mod n,
conjugating further by S = diag(t^-l, 1, ..., 1) turns J into the quasi-Jordan
matrix S J S^-1 whose first superdiagonal entry is t^-l, and ord(det(S T))
becomes a multiple of n.  The n-th root that would rescale S*T into SL_n is
never taken: the determinant certificate is carried instead, which loses
nothing because scalar matrices act trivially by conjugation and contribute
nothing to the level of trace-zero elements.

Everything here is exact when the input matrix is exact.  Exact and truncated
input take one path: the powers of x, the images of the chain tops under x and
the final check x P = P J are :class:`MatK` products and applications, which
run the sparse integer-term kernel of :mod:`affnil.matk`.  The right side of
the check needs no product (:func:`times_jordan`: column j of P J is column
j - 1 of P, or 0), and for exact x the check is exact.  A quasi-Jordan input
is read off directly, with no powers: it is strictly upper triangular, hence
nilpotent.  The kernels of the powers come from fraction-free elimination with
exact divisions, and each kernel vector is scaled only by the pivots its
back-substitution could not divide by, so the chain tops, and with them P and
det P, stay small.  Choosing the chain tops only needs yes/no independence
answers, and for exact input those are taken at a point, t = t0 and i = sqrt(-1)
in F_p, on the Gaussian-integer forms of x and of the kernel vectors
(:func:`zipoly.values_mod_p`).  Those forms are nonzero K-multiples of the
vectors they stand for and evaluation is a ring map Z[i][t] -> F_p, so an
independent set at the point stays independent over K, and every value is
defined.  A false dependence there is rare (Schwartz-Zippel) and can only
mis-steer the choice, so the chains are kept only under a certificate: the
heights sum to n, the chain vectors have rank n at the point (so det P != 0),
and x P = P J holds exactly.  Otherwise the next point is tried.  When no
point certifies, and for truncated input, each independence answer is a rank
over K from the echelon form of :mod:`affnil.matk`, which is dense and
fraction-free for exact input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, NamedTuple, Optional, Tuple

from .affine import DetMode, GroupElement
from .errors import (
    InvalidPartition,
    InvalidShift,
    NotNilpotent,
    PrecisionExhausted,
)
from .gaussian import GR_ONE, GaussianRational
from .laurent import DEFAULT_WORKING_PREC, LaurentElement
from .matk import MatK, Vector, _rank, vector_content
from . import zipoly

_L_ZERO = LaurentElement.zero()
_L_ONE = LaurentElement.one()


def _check_partition(parts: Tuple[int, ...]):
    """Raise InvalidPartition unless parts is nonempty, positive and
    non-increasing."""
    if not parts or min(parts) <= 0 or any(a < b for a, b in zip(parts, parts[1:])):
        raise InvalidPartition(f"{parts!r} is not a non-increasing partition")


@dataclass(frozen=True)
class QuasiJordanForm:
    """Block-diagonal matrix of quasi-Jordan blocks, sizes non-increasing.

    Each block is (size, superdiagonal entries); every superdiagonal entry is
    nonzero, and stores the only data of the block.
    """

    blocks: Tuple[Tuple[int, Tuple[LaurentElement, ...]], ...]

    def __post_init__(self):
        _check_partition(self.sizes())
        for size, diag in self.blocks:
            if len(diag) != size - 1:
                raise InvalidPartition("superdiagonal length must be size - 1")
            if any(p.is_zero_3v() is True for p in diag):
                raise InvalidPartition("superdiagonal entries must be nonzero")

    @property
    def n(self) -> int:
        return sum(s for s, _ in self.blocks)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(s for s, _ in self.blocks)

    def matrix(self) -> MatK:
        n = self.n
        rows = [[_L_ZERO] * n for _ in range(n)]
        offset = 0
        for size, diag in self.blocks:
            for i, p in enumerate(diag):
                rows[offset + i][offset + i + 1] = p
            offset += size
        return MatK(rows)


@dataclass(frozen=True)
class OrbitLabel:
    """(partition, k, level): the complete invariant of a nilpotent orbit.

    k lies in [0, gcd(partition)), so two labels are equal exactly when they
    name the same orbit.
    """

    partition: Tuple[int, ...]
    k: int
    level: GaussianRational

    def __post_init__(self):
        _check_partition(self.partition)
        step = math.gcd(*self.partition)
        if not 0 <= self.k < step:
            raise InvalidShift(f"k = {self.k} outside [0, gcd {step})")


def block_multiplicity(block: Tuple[int, Tuple[LaurentElement, ...]]) -> LaurentElement:
    """p_1^(size-1) p_2^(size-2) ... p_(size-1); empty product for size 1."""
    size, diag = block
    acc = _L_ONE
    for i, p in enumerate(diag):
        acc = acc * p ** (size - 1 - i)
    return acc


def mult_order(form: QuasiJordanForm) -> int:
    """Valuation of the product of all block multiplicities."""
    acc = _L_ONE
    for block in form.blocks:
        acc = acc * block_multiplicity(block)
    return acc.order()


def canonical_rep(sigma: Tuple[int, ...], k: int) -> MatK:
    """The matrix D_{sigma,k}: all superdiagonal ones except t^k closing the
    smallest block, for 0 <= k < smallest part.

    Its multiplicity valuation is k, and D_{sigma,k} and D_{sigma,k'} are
    conjugate exactly when k = k' mod gcd(sigma); only k < gcd(sigma) are
    canonical representatives (fixed points of classify)."""
    parts = tuple(sigma)
    _check_partition(parts)
    smallest = parts[-1]
    if not 0 <= k < smallest:
        raise InvalidShift(f"k = {k} outside [0, {smallest})")
    blocks = [(size, (_L_ONE,) * (size - 1)) for size in parts]
    if smallest > 1:
        blocks[-1] = (smallest, (_L_ONE,) * (smallest - 2) + (LaurentElement.monomial(k),))
    return QuasiJordanForm(tuple(blocks)).matrix()


def read_quasi_jordan(x: MatK) -> Optional[QuasiJordanForm]:
    """Interpret x as a quasi-Jordan matrix if it definitely is one.

    Returns None when x has an entry off the superdiagonal that is not known
    to vanish, an undetermined superdiagonal entry, or block sizes that
    increase (the general reduction handles those).  Raises
    :class:`InvalidPartition` on the 0×0 matrix, which has no blocks.
    """
    n = x.n
    if n == 0:
        raise InvalidPartition("a 0x0 matrix has no quasi-Jordan form")
    for i in range(n):
        for j in range(n):
            if j == i + 1:
                continue
            if x.rows[i][j].is_zero_3v() is not True:
                return None
    sizes: List[int] = []
    diags: List[List[LaurentElement]] = []
    current = 1
    current_diag: List[LaurentElement] = []
    for i in range(n - 1):
        e = x.rows[i][i + 1]
        z = e.is_zero_3v()
        if z is None:
            return None
        if z is False:
            current += 1
            current_diag.append(e)
        else:
            sizes.append(current)
            diags.append(current_diag)
            current = 1
            current_diag = []
    sizes.append(current)
    diags.append(current_diag)
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        return None
    return QuasiJordanForm(tuple((s, tuple(d)) for s, d in zip(sizes, diags)))


# ---------------------------------------------------------------------------
# Jordan chains
# ---------------------------------------------------------------------------


def nilpotent_powers(x: MatK) -> List[MatK]:
    """[x^0, x^1, ..., x^m] with x^m = 0; raises NotNilpotent when x^n != 0,
    and PrecisionExhausted when a truncated power is undetermined.

    Each power is one :meth:`MatK.__mul__`, so exact input stays exact and
    nilpotency is then decided exactly.
    """
    n = x.n
    powers = [MatK.identity(n), x]
    while True:
        z = powers[-1].is_zero_3v()
        if z is True:
            return powers
        if z is None:
            raise PrecisionExhausted("nilpotency undetermined at current precision")
        if len(powers) > n:
            raise NotNilpotent(f"{n}-th power does not vanish")
        powers.append(powers[-1] * x)


def times_jordan(m: MatK, sigma: Tuple[int, ...]) -> MatK:
    """M·J for J the Jordan matrix of sigma (superdiagonal ones, blocks of
    sizes sigma), with no product: column j of M·J is column j - 1 of M, or
    0 where a block starts."""
    starts = {sum(sigma[:b]) for b in range(len(sigma))}
    return MatK([
        [_L_ZERO if j in starts else row[j - 1] for j in range(m.n)]
        for row in m.rows
    ])


class _Echelon:
    """Incremental independence test over K, by the rank of the rows kept."""

    def __init__(self, width: int):
        self.width = width
        self.rows: List[Vector] = []

    def add(self, v: Vector) -> bool:
        """Keep v and return True when it is independent of the rows kept."""
        rows = self.rows + [v]
        if _rank(rows, self.width) == len(self.rows):
            return False
        self.rows = rows
        return True


class ChainData(NamedTuple):
    p_mat: MatK
    sigma: Tuple[int, ...]


# Independence tests at a point: t -> t0 and i -> a square root of -1 in F_p.
# The points are arbitrary large residues, so that the structured factors of
# small inputs (t - 1, 2t + 1, ...) do not vanish at them.
_POINTS = (314159265, 271828182, 161803398)


class _ModEchelon:
    """Incremental independence test over F_p (leftmost-pivot echelon)."""

    def __init__(self):
        self.rows: List[Tuple[int, List[int]]] = []

    def add(self, v: List[int]) -> bool:
        """Reduce v; if independent of the stored rows, insert and return True."""
        vec = v
        for col, row in self.rows:
            e = vec[col]
            if e:
                vec = [(a - e * b) % zipoly.P for a, b in zip(vec, row)]
        pivot = next((j for j, e in enumerate(vec) if e), None)
        if pivot is None:
            return False
        inv = pow(vec[pivot], -1, zipoly.P)
        self.rows.append((pivot, [e * inv % zipoly.P for e in vec]))
        self.rows.sort(key=lambda item: item[0])
        return True


def _greedy_tops(kernels: list, apply, echelon) -> List[Tuple[int, int]]:
    """(height j, index in kernels[j - 1]) of each chain top, tallest first.

    Tops at height j are the vectors of ker x^j independent of ker x^(j-1)
    together with the once-applied images of all taller chains.  The vectors
    are exact or evaluated at a point; ``apply`` is x on the same kind of
    vector and ``echelon()`` a fresh independence test for it.
    """
    chains: List[list] = []  # [height, index, image of the top under x^(height - j)]
    for j in range(len(kernels), 0, -1):
        ech = echelon()
        if j >= 2:
            for v in kernels[j - 2]:
                ech.add(v)
        for ch in chains:
            ech.add(ch[2])
        for idx, v in enumerate(kernels[j - 1]):
            if ech.add(v):
                chains.append([j, idx, v])
        if j > 1:
            for ch in chains:
                ch[2] = apply(ch[2])
    return [(height, idx) for height, idx, _ in chains]


def _modular_tops(
    x: MatK, kernels: List[List[Vector]]
) -> Optional[List[Tuple[int, int]]]:
    """Chain tops chosen by independence tests at a point, certified.

    The tests run on Gaussian-integer forms (:func:`zipoly.values_mod_p`):
    x as one t^(-s)·D·x over all n² entries, so that every image of a vector
    is scaled alike (scaling each row apart would change the images), and
    each kernel vector v as D_v·t^(-s_v)·v.  These are nonzero K-multiples of
    x and v, and evaluation is a ring map Z[i][t] -> F_p, so a set
    independent at the point is independent over K.  A false dependence at
    the point can change later choices; so the result is kept only when the
    heights sum to n and the chain vectors at the point have rank n.  They are
    the columns of P up to nonzero K-multiples, so det P != 0, and with the
    exact check x P = P J (done by the caller) P^-1 x P = J holds exactly.
    None when no point certifies; the caller then runs the exact pass.
    """
    n = x.n
    entries = [e for row in x.rows for e in row]
    for t0 in _POINTS:
        flat = zipoly.values_mod_p(entries, t0)
        x_p = [flat[i * n:(i + 1) * n] for i in range(n)]
        kernels_p = [[zipoly.values_mod_p(v, t0) for v in ker] for ker in kernels]
        apply = partial(_apply_mod_p, x_p)
        tops = _greedy_tops(kernels_p, apply, _ModEchelon)
        if _chains_form_basis(tops, kernels_p, apply, n):
            return tops
    return None


def _apply_mod_p(x_p: List[List[int]], v: List[int]) -> List[int]:
    return [sum(a * b for a, b in zip(row, v)) % zipoly.P for row in x_p]


def _chains_form_basis(tops, kernels_p, apply, n: int) -> bool:
    """Whether the chain vectors x^i v (0 <= i < height) of the tops are a
    basis of F_p^n."""
    if sum(height for height, _ in tops) != n:
        return False
    basis = _ModEchelon()
    for height, idx in tops:
        v = kernels_p[height - 1][idx]
        for _ in range(height):
            if not basis.add(v):
                return False
            v = apply(v)
    return True


def jordan_chains(x: MatK, working_prec: int = DEFAULT_WORKING_PREC) -> ChainData:
    """Jordan basis of a nilpotent x: P with x P = P J, sizes non-increasing.

    Chain tops at height j are kernel vectors of x^j independent of
    ker(x^(j-1)) together with the once-applied images of all taller chains.
    The tops come from :meth:`MatK.kernel_basis` as they are, carrying only
    the echelon pivots their back-substitution needed; a polynomial common
    factor may remain.  Each finished chain is scaled by the scalar and
    t-power content of its kernel-end vector, which keeps P close to
    unimodular on simple inputs.
    """
    n = x.n
    powers = nilpotent_powers(x)
    kernels = [power.kernel_basis(working_prec) for power in powers[1:]]
    tops = _modular_tops(x, kernels) if x.all_exact() else None
    if tops is None:
        tops = _greedy_tops(kernels, x.apply, lambda: _Echelon(n))
    sigma = tuple(height for height, _ in tops)
    if sum(sigma) != n:
        raise PrecisionExhausted("chain construction did not span the space")
    columns: List[Vector] = []
    for height, idx in tops:
        seq = [kernels[height - 1][idx]]
        for _ in range(height - 1):
            seq.append(x.apply(seq[-1]))
        seq.reverse()  # kernel end first
        content = vector_content(seq[0])
        if content is not None:
            scalar, exp = content
            inv = scalar.inverse()
            seq = [tuple(e.shift(-exp).scale(inv) for e in vec) for vec in seq]
        columns.extend(seq)
    p_mat = MatK([[columns[j][i] for j in range(n)] for i in range(n)])
    _check_jordan_basis(x, p_mat, sigma)
    return ChainData(p_mat, sigma)


def _check_jordan_basis(x: MatK, p_mat: MatK, sigma: Tuple[int, ...]):
    """Raise AssertionError when x·P - P·J is provably nonzero, J the Jordan
    matrix of sigma: an exact test for exact x, and a consistency test for
    truncated x."""
    if (x * p_mat - times_jordan(p_mat, sigma)).is_zero_3v() is False:
        raise AssertionError("chain construction produced an invalid basis")


def rank_profile_partition(x: MatK) -> Tuple[int, ...]:
    """Jordan block sizes from the ranks of powers (conjugate partition)."""
    n = x.n
    powers = nilpotent_powers(x)
    ranks = [p.rank() for p in powers]
    m = len(powers) - 1
    blocks_ge = [ranks[j - 1] - ranks[j] for j in range(1, m + 1)]
    parts: List[int] = []
    for size in range(m, 0, -1):
        count = blocks_ge[size - 1] - (blocks_ge[size] if size < m else 0)
        parts.extend([size] * count)
    if sum(parts) != n:
        raise AssertionError("rank profile inconsistent")
    return tuple(parts)


class ReductionData(NamedTuple):
    """Everything the classifier needs from the quasi-Jordan reduction."""

    form: QuasiJordanForm
    shift: int  # l, the t-power in the first superdiagonal slot
    p_mat: Optional[MatK]  # None when the input was already quasi-Jordan
    det_p: Optional[LaurentElement]


def reduce_to_quasi_jordan(
    x: MatK, working_prec: int = DEFAULT_WORKING_PREC
) -> ReductionData:
    direct = read_quasi_jordan(x)
    if direct is not None:  # strictly upper triangular, hence nilpotent
        return ReductionData(direct, 0, None, None)
    n = x.n
    chains = jordan_chains(x, working_prec)
    det_p = chains.p_mat.det(working_prec)
    l = (-det_p.order()) % n
    blocks = []
    for idx, size in enumerate(chains.sigma):
        if size == 1:
            blocks.append((1, ()))
            continue
        diag = [_L_ONE] * (size - 1)
        if idx == 0 and l > 0:
            diag[0] = LaurentElement.monomial(-l)
        blocks.append((size, tuple(diag)))
    form = QuasiJordanForm(tuple(blocks))
    return ReductionData(form, l, chains.p_mat, det_p)


def jordan_transform(
    x: MatK, working_prec: int = DEFAULT_WORKING_PREC
) -> Tuple[MatK, Tuple[int, ...]]:
    """T with T x T^-1 = J_sigma; any valid Jordan basis is acceptable."""
    chains = jordan_chains(x, working_prec)
    return chains.p_mat.inv(working_prec), chains.sigma


def quasi_jordanize(
    x: MatK, working_prec: int = DEFAULT_WORKING_PREC
) -> Tuple[GroupElement, QuasiJordanForm]:
    """Conjugator h and quasi-Jordan form D with h.g x h.g^-1 = matrix of D.

    h.g = S T with T the Jordan transition matrix and S = diag(t^-l, 1, ...);
    ord(det h.g) is a multiple of n by construction.  det_mode records whether
    the determinant is exactly 1 or only n-th-power certified.
    """
    data = reduce_to_quasi_jordan(x, working_prec)
    n = x.n
    if data.p_mat is None:
        return GroupElement.identity(n), data.form
    t_mat = data.p_mat.inv(working_prec)
    s_entries = [LaurentElement.monomial(-data.shift)] + [_L_ONE] * (n - 1)
    g = MatK.diag(s_entries) * t_mat
    exact_one = data.det_p == LaurentElement.monomial(-data.shift)
    mode = DetMode.EXACT_ONE if exact_one else DetMode.NTH_POWER_CERTIFIED
    return GroupElement(GR_ONE, g, mode), data.form
