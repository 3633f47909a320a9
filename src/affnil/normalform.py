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

Everything here is exact when the input matrix is exact.  The powers of x,
the images of the chain tops under x and the check x P = P J are
:class:`MatK` products and applications, which run the sparse integer-term
kernel of :mod:`affnil.matk`.  Every column of P but a kernel end is x
times the next one, so the check is one product of x with the kernel ends
(:func:`_chain_basis`), exact for exact x.  A quasi-Jordan input is read off
directly, with no powers: it is strictly upper triangular, hence nilpotent.  The kernels of
the powers come from fraction-free elimination with exact divisions, and each
kernel vector is scaled only by the pivots its back-substitution could not
divide by, so the chain tops, and with them P and det P, stay small.

For exact x, the partition and the choice of chain tops are made at a point,
t = t0 and i = sqrt(-1) in F_p, on the Gaussian-integer forms of x and of the
candidate tops (:func:`zipoly.values_mod_p`); see :func:`_point_chains`.
Evaluation is a ring map Z[i][t] -> F_p, so x(t0)^n != 0 proves that x is not
nilpotent, and a set independent at the point stays independent over K.  The
ranks of the powers of x at the point give the partition sigma, so only the
heights that are parts of sigma need an exact power and an exact kernel, and
the tallest needs neither.  A candidate top of height h is kept when its
kernel end, x^(h-1) times it at the point, is independent of the kernel ends
kept before it.  A degenerate point can only mis-steer the choice, so the
chains are kept only under a certificate: the heights sum to n, which makes
the chain vectors a basis at the point (so det P != 0), and x P = P J holds
exactly, which together prove that x is nilpotent of type sigma.  Otherwise
the next point is tried.  When no point certifies, and for truncated input,
the pass over K reads sigma off the ranks of the powers of x over K, takes
kernels at the same heights and keeps the tops by the same rule
(:func:`_choose_tops`), each answer a rank over K from the echelon form of
:mod:`affnil.matk`; an undetermined one keeps none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, NamedTuple, Optional, Tuple

from .affine import GroupElement, det_mode_of
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
    return _ones_form(parts, -1, smallest - 2, k).matrix()


def _ones_form(sigma: Tuple[int, ...], block: int, slot: int, exp: int) -> QuasiJordanForm:
    """The form of sigma with superdiagonal ones, except t^exp at entry
    ``slot`` of block ``block`` when that block has entries."""
    blocks = [(size, (_L_ONE,) * (size - 1)) for size in sigma]
    size, diag = blocks[block]
    if size > 1:
        blocks[block] = (size, diag[:slot] + (LaurentElement.monomial(exp),) + diag[slot + 1:])
    return QuasiJordanForm(tuple(blocks))


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
    if any(x.rows[i][j].is_zero_3v() is not True
           for i in range(n) for j in range(n) if j != i + 1):
        return None
    diags: List[List[LaurentElement]] = [[]]  # a zero entry starts a block
    for i in range(n - 1):
        e = x.rows[i][i + 1]
        z = e.is_zero_3v()
        if z is None:
            return None
        if z:
            diags.append([])
        else:
            diags[-1].append(e)
    if any(len(a) < len(b) for a, b in zip(diags, diags[1:])):
        return None
    return QuasiJordanForm(tuple((len(d) + 1, tuple(d)) for d in diags))


# ---------------------------------------------------------------------------
# Jordan chains
# ---------------------------------------------------------------------------


def nilpotent_powers(x: MatK) -> List[MatK]:
    """[x^0, x^1, ..., x^m] with x^m = 0; raises NotNilpotent when x^n != 0,
    and PrecisionExhausted when a truncated power is undetermined.

    Each power is one :meth:`MatK.__mul__`, so exact input stays exact and
    nilpotency is then decided exactly.  :func:`jordan_chains` takes all of
    them for truncated input, and for exact input only when no point
    certifies its chains.
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


def _partition_from_ranks(ranks: List[int]) -> Tuple[int, ...]:
    """Jordan block sizes, largest first, of a nilpotent matrix whose powers
    x^0, ..., x^m (x^m = 0) have these ranks: rank x^(j-1) - rank x^j blocks
    have size at least j."""
    m = len(ranks) - 1
    blocks_ge = [ranks[j - 1] - ranks[j] for j in range(1, m + 1)]
    parts: List[int] = []
    for size in range(m, 0, -1):
        count = blocks_ge[size - 1] - (blocks_ge[size] if size < m else 0)
        parts.extend([size] * count)
    return tuple(parts)


class _Echelon:
    """Incremental independence test over K, by the rank of the rows kept."""

    def __init__(self, width: int):
        self.width = width
        self.rows: List[Vector] = []

    def add(self, v: Vector) -> bool:
        """Keep v and return True when it is independent of the rows kept."""
        rows = self.rows + [v]
        if all(e.is_zero_3v() is True for e in v) or _rank(rows, self.width) == len(self.rows):
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


def _choose_tops(ranks: List[int], kernel, ends, kept):
    """(sigma, candidates, tops) for :func:`_chain_basis`, from the ranks of
    x^0, ..., x^(m-1), where x^m = 0: sigma is read off them.  The
    candidates of height h are ``kernel(h)``, a basis of ker x^h, at a part
    h < m of sigma, the identity basis at h = m, and none elsewhere.
    ``ends(h, vectors)`` yields the kernel end x^(h-1)·v of each candidate v
    of height h, and a candidate is a top when ``kept.add`` finds its end
    independent of the ends kept before it; an undetermined answer
    (:class:`PrecisionExhausted`) keeps nothing.  tops lists (height h,
    index), tallest first, each part h searched until it has sigma.count(h)
    tops.
    """
    m = len(ranks)
    sigma = _partition_from_ranks(ranks + [0])
    candidates: List[List[Vector]] = [[] for _ in range(m)]
    tops = []
    for h in sorted(set(sigma), reverse=True):
        candidates[h - 1] = kernel(h) if h < m else list(MatK.identity(ranks[0]).rows)
        wanted = sigma.count(h)
        for idx, end in enumerate(ends(h, candidates[h - 1])):
            try:
                keep = kept.add(end)
            except PrecisionExhausted:
                keep = False
            if keep:
                tops.append((h, idx))
                wanted -= 1
                if not wanted:
                    break
    return sigma, candidates, tops


def _point_chains(x: MatK) -> Optional[ChainData]:
    """Jordan chains of exact x with every choice made at a point, certified.

    The tops at each point t0 of ``_POINTS`` come from :func:`_tops_at_point`;
    exact powers and kernels are computed once, for the first point that
    needs them.  A choice at a point can only be wrong where the point is
    degenerate, so the chains are kept only when every part of sigma has its
    tops, which makes the chain vectors a basis at the point, and
    _chain_basis finds x P = P J.  The chain vectors at the point are the
    values of nonzero K-multiples of the columns of P, so det P != 0, and
    then P^-1 x P = J proves that x is nilpotent of type sigma, whatever
    happened at the point.  Otherwise the next point is tried; None means
    that none certifies.
    """
    powers = [x]  # exact x^1, x^2, ...
    kernels = {}  # height -> kernel_basis of the exact power

    def kernel(h: int) -> List[Vector]:
        if h not in kernels:
            while len(powers) < h:
                powers.append(powers[-1] * x)
            kernels[h] = powers[h - 1].kernel_basis()
        return kernels[h]

    for t0 in _POINTS:
        sigma, candidates, tops = _tops_at_point(x, t0, kernel)
        if len(tops) == len(sigma):
            p_mat = _chain_basis(x, candidates, tops)
            if p_mat is not None:
                return ChainData(p_mat, sigma)
    return None


def _tops_at_point(x: MatK, t0: int, kernel):
    """(sigma, candidates, tops) of :func:`_choose_tops`, with the ranks and
    the kernel ends taken at the point t0.

    x is evaluated once as one t^(-s)·D·x over all n² entries
    (:func:`zipoly.values_mod_p`), so that every image of a vector is scaled
    alike, and raised to powers until they vanish; x(t0)^n != 0 proves
    x^n != 0 (:class:`NotNilpotent`).  The ranks are the column ranks of the
    powers, and the kernel end of a candidate v of height h, ``kernel(h)``
    evaluated as D_v·t^(-s_v)·v, is x(t0)^(h-1)·v.

    On ker x^h, x^(h-1) has kernel ker x^(h-1), so keeping v when its kernel
    end is independent of the ends kept before it keeps the tops of the
    classical rule: v independent of ker x^(h-1) and the images of the
    taller chains.  As x(t0)^h·v = 0, chain vectors whose kernel ends are
    independent are independent: apply x^k to a relation among them, k the
    largest distance to a kernel end in it, and a relation among kernel ends
    is left.
    """
    n = x.n
    flat = zipoly.values_mod_p([e for row in x.rows for e in row], t0)
    columns = [flat[k::n] for k in range(n)]  # of x(t0), then of its powers
    apply = partial(_apply_mod_p, columns)
    ranks = [n]
    while any(any(col) for col in columns):
        if len(ranks) == n:
            raise NotNilpotent(f"{n}-th power does not vanish")
        ranks.append(sum(map(_ModEchelon().add, columns)))  # the column rank
        columns = [apply(col) for col in columns]

    def kernel_ends(h: int, vectors: List[Vector]):
        for v in vectors:
            end = zipoly.values_mod_p(v, t0)
            for _ in range(h - 1):
                end = apply(end)
            yield end

    return _choose_tops(ranks, kernel, kernel_ends, _ModEchelon())


def _apply_mod_p(columns: List[List[int]], v: List[int]) -> List[int]:
    """x·v at a point, as the combination of the columns of x(t0) at the
    nonzero entries of v."""
    out = [0] * len(v)
    for c, col in zip(v, columns):
        if c:
            out = [o + c * a for o, a in zip(out, col)]
    return [o % zipoly.P for o in out]


def jordan_chains(x: MatK, working_prec: int = DEFAULT_WORKING_PREC) -> ChainData:
    """Jordan basis of a nilpotent x: P with x P = P J, sizes non-increasing.

    A chain top of height h, a part of sigma, is a kernel vector of x^h whose
    kernel end x^(h-1)·v is independent of those kept before (:func:`_choose_tops`).
    The tops come from :meth:`MatK.kernel_basis` as they are, carrying only
    the echelon pivots their back-substitution needed; a polynomial common
    factor may remain.  Each chain is scaled by the content of its kernel
    end, which keeps P close to unimodular on simple inputs, and x P = P J
    is checked at the kernel ends (:func:`_chain_basis`).

    Exact x goes through :func:`_point_chains`: sigma and every answer come
    from a point, and only the heights that carry a chain top below the
    nilpotency index get an exact power and kernel.  When no point
    certifies, and for truncated x, sigma is read off the ranks of the
    powers over K, kernels are taken at the same heights, and each answer
    is a rank over K (:class:`_Echelon`).  Both passes choose the same tops
    when the first point is not degenerate.
    """
    n = x.n
    if x.all_exact():
        chains = _point_chains(x)
        if chains is not None:
            return chains
    powers = nilpotent_powers(x)
    sigma, candidates, tops = _choose_tops(
        [n] + [power.rank() for power in powers[1:-1]],
        lambda h: powers[h].kernel_basis(working_prec),
        lambda h, vectors: (powers[h - 1].apply(v) for v in vectors), _Echelon(n))
    if len(tops) != len(sigma):
        raise PrecisionExhausted("chain construction did not span the space")
    p_mat = _chain_basis(x, candidates, tops)
    if p_mat is None:
        raise AssertionError("chain construction produced an invalid basis")
    return ChainData(p_mat, sigma)


def _chain_basis(x: MatK, candidates: list, tops: List[Tuple[int, int]]) -> Optional[MatK]:
    """P whose columns are the chains x^(height-1) v, ..., x v, v of the tops
    v = candidates[height - 1][index], each scaled by the content of its
    kernel end, or None when x·P = P·J is provably false.

    Every other column is x applied to the next, and the scaling commutes
    with x, so only x·(kernel end) = 0 is left to check: one product of x
    with the kernel ends, the other columns the exact zero.
    """
    n = x.n
    columns: List[Vector] = []
    ends = set()
    for height, idx in tops:
        seq = [candidates[height - 1][idx]]
        for _ in range(height - 1):
            seq.append(x.apply(seq[-1]))
        seq.reverse()  # kernel end first
        content = vector_content(seq[0])
        if content is not None:
            scalar, exp = content
            inv = scalar.inverse()
            seq = [tuple(e.shift(-exp).scale(inv) for e in vec) for vec in seq]
        ends.add(len(columns))
        columns.extend(seq)
    rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    kernel_ends = MatK([[e if j in ends else _L_ZERO for j, e in enumerate(row)] for row in rows])
    if (x * kernel_ends).is_zero_3v() is False:
        return None
    return MatK(rows)


def rank_profile_partition(x: MatK) -> Tuple[int, ...]:
    """Jordan block sizes from the ranks of powers (conjugate partition)."""
    parts = _partition_from_ranks([p.rank() for p in nilpotent_powers(x)])
    if sum(parts) != x.n:
        raise AssertionError("rank profile inconsistent")
    return parts


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
    return ReductionData(_ones_form(chains.sigma, 0, 0, -l), l, chains.p_mat, det_p)


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
    ord(det h.g) is a multiple of n by construction.  det h.g = 1 / (t^l det P)
    for P = T^-1, so :func:`~affnil.affine.det_mode_of` of t^l det P gives the
    mode: EXACT_ONE exactly when that product is provably 1, and the n-th-power
    certificate otherwise (always, for a truncated det P).
    """
    data = reduce_to_quasi_jordan(x, working_prec)
    n = x.n
    if data.p_mat is None:
        return GroupElement.identity(n), data.form
    t_mat = data.p_mat.inv(working_prec)
    s_entries = [LaurentElement.monomial(-data.shift)] + [_L_ONE] * (n - 1)
    g = MatK.diag(s_entries) * t_mat
    return GroupElement(GR_ONE, g, det_mode_of(data.det_p.shift(data.shift), n)), data.form
