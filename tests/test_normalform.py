from __future__ import annotations

import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from affnil import (
    AffineElement,
    DetMode,
    GroupElement,
    InvalidPartition,
    InvalidShift,
    LaurentElement,
    MatK,
    NotNilpotent,
    PrecisionExhausted,
    QuasiJordanForm,
    adjoint_act,
    are_conjugate,
    block_multiplicity,
    canonical_rep,
    classify,
    conjugator_quasi_jordan,
    gr,
    jordan_transform,
    mult_order,
    partitions,
    quasi_jordanize,
    rank_profile_partition,
    read_quasi_jordan,
)
from affnil import matk, normalform, zipoly
from affnil.laurent import DEFAULT_WORKING_PREC
from affnil.matk import normalize_vector
from affnil.normalform import jordan_chains, nilpotent_powers
from affnil.selfcheck import random_group, random_laurent, random_orbit_case

from conftest import lower_truncated_cases, lp, mat, stress_case


def E(n, i, j, value="1"):
    return MatK.elementary(n, i, j, lp(value))


def qj(*blocks):
    return QuasiJordanForm(
        tuple((size, tuple(lp(p) for p in diag)) for size, diag in blocks)
    )


# -- block data ------------------------------------------------------------------


def test_block_multiplicity_examples():
    assert block_multiplicity((4, (lp("1"), lp("1"), lp("1")))) == lp("1")
    assert block_multiplicity((4, (lp("t"), lp("1"), lp("1")))) == lp("t^3")
    assert block_multiplicity((4, (lp("1"), lp("1"), lp("t")))) == lp("t")
    assert block_multiplicity((1, ())) == lp("1")


def test_mult_order_examples():
    assert mult_order(qj((4, ["1", "1", "1"]), (2, ["1"]))) == 0
    assert mult_order(qj((4, ["t", "1", "1"]), (2, ["t"]))) == 4
    assert mult_order(qj((2, ["t^-1"]))) == -1


def test_quasi_jordan_validation():
    with pytest.raises(InvalidPartition):
        qj((2, ["1"]), (3, ["1", "1"]))  # increasing sizes
    with pytest.raises(InvalidPartition):
        qj((2, ["0"]))  # zero superdiagonal entry


# -- canonical representatives ------------------------------------------------------


def test_canonical_rep_examples():
    r = canonical_rep((2, 2), 1)
    assert r == E(4, 0, 1) + E(4, 2, 3, "t")
    r = canonical_rep((4,), 2)
    assert r == E(4, 0, 1) + E(4, 1, 2) + E(4, 2, 3, "t^2")
    assert canonical_rep((1, 1, 1, 1), 0) == MatK.zero(4)


def test_canonical_rep_validation():
    with pytest.raises(InvalidShift):
        canonical_rep((2, 1), 1)
    with pytest.raises(InvalidPartition):
        canonical_rep((1, 2), 0)


def test_canonical_rep_is_mult_order_fixed_point():
    for n in range(1, 7):
        for sigma in partitions(n):
            for k in range(sigma[-1]):
                form = read_quasi_jordan(canonical_rep(sigma, k))
                assert form is not None
                assert form.sizes() == sigma
                assert mult_order(form) == k


def _hand_built_rep(sigma, k):
    """D_{sigma,k} filled in entry by entry: superdiagonal ones, and t^k in
    the last slot of the smallest block."""
    n = sum(sigma)
    rows = [["0"] * n for _ in range(n)]
    offset = 0
    for b, size in enumerate(sigma):
        for i in range(size - 1):
            last = b == len(sigma) - 1 and i == size - 2
            rows[offset + i][offset + i + 1] = f"t^{k}" if last else "1"
        offset += size
    return mat(rows)


def test_canonical_rep_matches_the_hand_built_matrix():
    count = 0
    for n in range(1, 10):
        for sigma in partitions(n):
            for k in range(sigma[-1]):
                assert canonical_rep(sigma, k) == _hand_built_rep(sigma, k), (sigma, k)
                count += 1
    assert count == 162


def test_empty_matrix_has_no_quasi_jordan_form():
    empty = MatK([])
    with pytest.raises(InvalidPartition):
        read_quasi_jordan(empty)
    with pytest.raises(InvalidPartition):
        quasi_jordanize(empty)
    with pytest.raises(InvalidPartition):
        classify(AffineElement(empty))
    assert jordan_chains(empty).sigma == ()


def test_read_quasi_jordan_rejects_non_forms():
    assert read_quasi_jordan(mat([["0", "1"], ["1", "0"]])) is None
    increasing = E(3, 1, 2) + E(3, 2, 2, "0")  # sizes (1, 2)
    assert read_quasi_jordan(E(3, 1, 2)) is None
    assert read_quasi_jordan(mat([["0", "O(t^3)"], ["0", "0"]])) is None  # undetermined


# -- rank profile ---------------------------------------------------------------------


def test_rank_profile_examples():
    assert rank_profile_partition(MatK.zero(4)) == (1, 1, 1, 1)
    assert rank_profile_partition(E(3, 0, 1)) == (2, 1)
    assert rank_profile_partition(canonical_rep((4,), 2)) == (4,)


def test_rank_profile_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        rank_profile_partition(MatK.identity(2))


def test_rank_profile_of_canonical_reps():
    for n in range(1, 7):
        for sigma in partitions(n):
            for k in range(sigma[-1]):
                assert rank_profile_partition(canonical_rep(sigma, k)) == sigma


# -- Jordan transform -------------------------------------------------------------------


def test_jordan_transform_fixed_point():
    j = E(3, 0, 1) + E(3, 1, 2)
    t_mat, sigma = jordan_transform(j)
    assert sigma == (3,)
    assert t_mat == MatK.identity(3)


def test_jordan_transform_monomial_example():
    t_mat, sigma = jordan_transform(E(2, 0, 1, "t"))
    assert sigma == (2,)
    assert t_mat == MatK.diag([lp("1"), lp("t")])


def test_jordan_transform_three_block_example():
    x = E(3, 0, 1) + E(3, 1, 2, "t")
    t_mat, sigma = jordan_transform(x)
    assert sigma == (3,)
    assert t_mat == MatK.diag([lp("1"), lp("1"), lp("t")])
    conj = t_mat * x * t_mat.inv()
    assert conj == E(3, 0, 1) + E(3, 1, 2)


def test_jordan_transform_random_conjugates():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(2, 4)
        sigma = rng.choice(partitions(n))
        x = adjoint_act(
            random_group(rng, n), AffineElement(canonical_rep(sigma, 0))
        ).mat
        t_mat, got_sigma = jordan_transform(x, 48)
        assert got_sigma == sigma
        conj = t_mat * x * t_mat.inv(48)
        j = MatK.zero(n)
        offset = 0
        for size in got_sigma:
            for i in range(size - 1):
                j = j + E(n, offset + i, offset + i + 1)
            offset += size
        assert (conj - j).is_zero_3v() is not False


def test_jordan_transform_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        jordan_transform(MatK.identity(2))


# -- quasi-Jordan reduction ----------------------------------------------------------------


def test_quasi_jordanize_short_circuits_quasi_jordan_input():
    x = canonical_rep((3, 2), 1)
    h, form = quasi_jordanize(x)
    assert h.g == MatK.identity(5) and h.det_mode is DetMode.EXACT_ONE
    assert form.sizes() == (3, 2) and mult_order(form) == 1


def test_quasi_jordanize_pipeline_on_monomial_block():
    # bypass the already-quasi-Jordan shortcut by conjugating first
    w = MatK.identity(2) + E(2, 1, 0, "t")
    x = w * E(2, 0, 1, "t") * w.inv()
    h, form = quasi_jordanize(x)
    assert form.sizes() == (2,)
    assert mult_order(form) % 2 == 1
    hx = h.g * x
    dh = form.matrix() * h.g
    assert (hx - dh).is_zero_3v() is not False
    det = h.g.det(48)
    assert det.order() % 2 == 0


def test_internal_chain_pipeline_builds_unimodular_conjugator():
    # the S*T construction on t*E12 itself: S = diag(t^-1, 1), T = diag(1, t)
    x = E(2, 0, 1, "t")
    chains = jordan_chains(x)
    assert chains.p_mat == MatK.diag([lp("1"), lp("t^-1")])
    t_mat = chains.p_mat.inv()
    s_mat = MatK.diag([lp("t^-1"), lp("1")])
    hg = s_mat * t_mat
    assert hg == MatK.diag([lp("t^-1"), lp("t")])
    assert hg.det() == lp("1")
    assert hg * x * hg.inv() == E(2, 0, 1, "t^-1")


def test_internal_chain_pipeline_on_unit_times_monomial_block():
    # J(4t^2 + 4t^3): chain normalization leaves a (1+t) unit in P, so the
    # det-correction exponent comes out even and D is the plain Jordan block
    x = E(2, 0, 1, "4*t^2 + 4*t^3")
    chains = jordan_chains(x)
    assert chains.sigma == (2,)
    det_p = chains.p_mat.det()
    l = (-det_p.order()) % 2
    assert l == 0
    t_mat = chains.p_mat.inv(32)
    conj = t_mat * x * t_mat.inv(32)
    assert (conj - E(2, 0, 1)).is_zero_3v() is not False


def test_quasi_jordanize_two_block_sizes():
    rng = random.Random(77)
    for sigma, k in (((2, 2), 1), ((3, 1), 0), ((2, 1), 0), ((4, 2), 1)):
        n = sum(sigma)
        g = random_group(rng, n)
        x = adjoint_act(g, AffineElement(canonical_rep(sigma, k))).mat
        h, form = quasi_jordanize(x, 48)
        assert form.sizes() == sigma
        lhs = h.g * x
        rhs = form.matrix() * h.g
        assert (lhs - rhs).is_zero_3v() is not False
        assert h.g.det(48).order() % n == 0


def test_quasi_jordanize_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        quasi_jordanize(mat([["1", "0"], ["0", "-1"]]))


# -- the (3,2) orbit collision: k is an orbit invariant only mod gcd(sigma) ------------------


def test_k_label_over_refines_orbits_at_gcd_partitions():
    """diag(t^-1,t^-1,t^-1,t,t^2) has det 1 and joins D_{(3,2),1} and
    D_{(3,2),0}; a label taking k mod the smallest part would over-refine the
    orbit, so the label takes k mod gcd of the parts."""
    w = MatK.diag([lp("t^-1")] * 3 + [lp("t"), lp("t^2")])
    assert w.det() == lp("1")
    d1 = canonical_rep((3, 2), 1)
    d0 = canonical_rep((3, 2), 0)
    assert w * d1 * w.inv() == d0
    g = GroupElement.checked(w)
    assert g.det_mode is DetMode.EXACT_ONE
    for level in (gr(0), gr(1)):
        moved = adjoint_act(g, AffineElement(d1, level))
        label = classify(moved)
        assert label.partition == (3, 2)
        assert label.k == 0  # the label of the joint orbit
        assert label.level == level  # the level is a true invariant
    assert are_conjugate(AffineElement(d1), AffineElement(d0))
    h = conjugator_quasi_jordan(read_quasi_jordan(d1), read_quasi_jordan(d0))
    assert h.det_mode is DetMode.EXACT_ONE
    assert h.g == w  # the Bezout witness is exact, not truncated
    assert h.g * d1 == d0 * h.g


# -- chain tops by independence tests at a point, certified ---------------------------------


def _kernels(x, working_prec=DEFAULT_WORKING_PREC):
    return [power.kernel_basis(working_prec) for power in nilpotent_powers(x)[1:]]


def _exact_pass_tops(x):
    """The candidates (kernels at the parts of sigma) and the tops that the
    pass over K hands to ``_chain_basis``."""
    seen = []
    chain_basis = normalform._chain_basis

    def spy(x, candidates, tops):
        seen.append((candidates, tops))
        return chain_basis(x, candidates, tops)

    with pytest.MonkeyPatch.context() as patch:
        _without_point_path(patch)
        patch.setattr(normalform, "_chain_basis", spy)
        jordan_chains(x)
    return seen[0]


def _classical_tops(kernels, apply, echelon, tallest=None):
    """Oracle: the classical rule.  (height j, index in kernels[j - 1]) of
    each chain top, tallest first, where a top at height j is a vector of
    kernels[j - 1], a basis of ker x^j, independent of kernels[j - 2], which
    spans ker x^(j-1), together with the once-applied images of all taller
    chains; ``echelon()`` is a fresh independence test at every height.
    The candidates are tried in index order, except at the nilpotency index
    when ``tallest`` lists the order, and the tops of one height are listed
    by index."""
    chains = []  # [height, index, image of the top under x^(height - j)]
    for j in range(len(kernels), 0, -1):
        ech = echelon()
        if j >= 2:
            for v in kernels[j - 2]:
                ech.add(v)
        for ch in chains:
            ech.add(ch[2])
        order = range(len(kernels[j - 1]))
        if j == len(kernels) and tallest is not None:
            order = tallest
        found = [idx for idx in order if ech.add(kernels[j - 1][idx])]
        chains += [[j, idx, kernels[j - 1][idx]] for idx in sorted(found)]
        if j > 1:
            for ch in chains:
                ch[2] = apply(ch[2])
    return [(height, idx) for height, idx, _ in chains]


def _classical_chains(x, working_prec=DEFAULT_WORKING_PREC):
    """Oracle: ``jordan_chains`` of the pass over K with the classical rule,
    raising PrecisionExhausted wherever a test at some height is
    undetermined or the tops fall short of n."""
    kernels = _kernels(x, working_prec)
    tops = _classical_tops(kernels, x.apply, lambda: normalform._Echelon(x.n))
    sigma = tuple(height for height, _ in tops)
    if sum(sigma) != x.n:
        raise PrecisionExhausted("chain construction did not span the space")
    return normalform.ChainData(normalform._chain_basis(x, kernels, tops), sigma)


def _by_kernel_end_span(x):
    """Oracle: the indices i with x^(m-1)·e_i != 0, m the nilpotency index,
    by the highest minus the lowest exponent over the entries of that
    column, ties by index."""
    last = nilpotent_powers(x)[-2]
    spans = []
    for i in range(x.n):
        exponents = [e for row in last.rows for e in row[i].coeffs]
        if exponents:
            spans.append((max(exponents) - min(exponents), i))
    return [i for _, i in sorted(spans)]


class _LaurentEchelon:
    """Oracle: the incremental leftmost-pivot echelon over K that chose the
    chain tops before the independence test became a rank of matk's echelon."""

    def __init__(self, width):
        self.width = width
        self.rows = []

    def add(self, v):
        vec = list(v)
        for col, row in self.rows:
            e = vec[col]
            z = e.is_zero_3v()
            if z is True:
                continue
            if z is None:
                raise PrecisionExhausted("independence test undetermined")
            p = row[col]
            vec = [p * vec[j] - e * row[j] for j in range(self.width)]
            vec[col] = lp("0")
        pivot = None
        for j in range(self.width):
            z = vec[j].is_zero_3v()
            if z is False:
                pivot = j
                break
            if z is None:
                raise PrecisionExhausted("independence test undetermined")
        if pivot is None:
            return False
        self.rows.append((pivot, normalize_vector(tuple(vec))))
        self.rows.sort(key=lambda item: item[0])
        return True


def test_exact_pass_matches_the_laurent_echelon():
    rng = random.Random("rank-vs-laurent-echelon")
    truncated = MatK([[lp("0"), lp("0")], [LaurentElement({0: gr(1)}, 9), lp("0")]])
    cases = [truncated]
    for n in range(2, 8):
        for _ in range(3):
            _, _, _, elem, g = random_orbit_case(rng, n)
            cases.append(adjoint_act(g, elem).mat)
    for x in cases:
        tops = _exact_pass_tops(x)[1]
        tallest = _by_kernel_end_span(x) if x.all_exact() else None
        assert tops == _classical_tops(_kernels(x), x.apply, lambda: _LaurentEchelon(x.n), tallest)
    assert _exact_pass_tops(truncated)[1] == [(2, 0)]


def _cut_conjugates(seed, per_size):
    """(x, x with one nonzero entry cut 1, 3 or 8 above its top exponent,
    level) for seeded conjugates x of canonical representatives, n = 2..6."""
    rng = random.Random(seed)
    for n in range(2, 7):
        for _ in range(per_size):
            _, _, level, elem, g = random_orbit_case(rng, n)
            x = adjoint_act(g, elem).mat
            rows = [list(row) for row in x.rows]
            nonzero = [(i, j) for i in range(n) for j in range(n) if rows[i][j].coeffs]
            if nonzero:
                i, j = rng.choice(nonzero)
                e = rows[i][j]
                rows[i][j] = LaurentElement(e.coeffs, max(e.coeffs) + rng.choice((1, 3, 8)))
            yield x, MatK(rows), level


def _answer(x, level, chains):
    """(label, repr(P)) with ``chains`` as jordan_chains, or None where
    classify raises PrecisionExhausted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(normalform, "jordan_chains", chains)
        try:
            return classify(AffineElement(x, level)), repr(chains(x).p_mat)
        except PrecisionExhausted:
            return None


def test_kernel_end_rule_answers_every_truncated_input_the_classical_rule_answers():
    # wherever the classical rule answers, the kernel-end rule at the parts of
    # sigma answers with the same label and P, and it answers more: 42 of the
    # 50 lower-truncated matrices against 36, and 34 of 60 cut conjugates
    # against 33; every answer is the label of the uncut x
    cases = itertools.chain(lower_truncated_cases("lower-truncated", 50),
                            _cut_conjugates("cut-conjugates", 12))
    classical = kernel_ends = 0
    for exact, cut, level in cases:
        oracle = _answer(cut, level, _classical_chains)
        got = _answer(cut, level, jordan_chains)
        if oracle is not None:
            assert got == oracle
        if got is not None:
            assert got[0] == classify(AffineElement(exact, level))
        classical += oracle is not None
        kernel_ends += got is not None
    assert kernel_ends > classical
    assert kernel_ends >= 76


@pytest.mark.parametrize("seed,case", [("lt-150-b", 41), ("lt-150-c", 77), ("lt-150-d", 121)])
def test_chains_that_do_not_span_the_space_raise(seed, case):
    # n = 4 cases of the 150 lower-truncated matrices (n = 3..6): the chains
    # chosen on the cut x fall short of a basis, so classify refuses it, while
    # the uncut x classifies.  ROADMAP item 10 (symbolic tails for the cut
    # entries) is expected to turn these refusals into answers.
    exact, cut, level = next(itertools.islice(lower_truncated_cases(seed, 150, 3, 4), case, None))
    assert cut.n == 4
    with pytest.raises(PrecisionExhausted, match="chain construction did not span the space"):
        classify(AffineElement(cut, level))
    assert classify(AffineElement(exact, level)).partition == (3, 1)


def test_an_undetermined_kernel_end_keeps_nothing_and_the_search_goes_on():
    # sigma = (3, 2), case 138 of the 150 lower-truncated matrices seeded
    # "lt-150-c" (n = 3..6): the kernel end of the first candidate of height
    # 2 is undetermined against the end of the 3-chain, so it is skipped,
    # and the second candidate is kept
    rows = [["0", "0", "0", "0", "0"],
            ["(-3-1/2i)*t^2", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
            ["0", "-3/2*t^2 + O(t^7)", "0", "0", "0"],
            ["0", "-1/2*t^-2 + O(t^-1)", "-t^3 + O(t^23)", "0", "0"]]
    x = mat(rows)
    kernels, tops = _exact_pass_tops(x)
    assert tops == [(3, 0), (2, 1)]
    powers = nilpotent_powers(x)
    kept = normalform._Echelon(x.n)
    assert kept.add(powers[2].apply(kernels[2][0]))
    with pytest.raises(PrecisionExhausted):
        kept.add(powers[1].apply(kernels[1][0]))
    assert kept.add(powers[1].apply(kernels[1][1]))
    uncut = mat([[e.split(" + O(")[0] for e in row] for row in rows])
    assert classify(AffineElement(x, gr(1))) == classify(AffineElement(uncut, gr(1)))


def _without_point_path(monkeypatch):
    monkeypatch.setattr(normalform, "_point_chains", lambda x: None)


def _point_and_exact(x):
    """The chains of the point path and of the exact pass, for exact x."""
    point = normalform._point_chains(x)
    with pytest.MonkeyPatch.context() as patch:
        _without_point_path(patch)
        exact = jordan_chains(x)
    return point, exact


def test_modular_pass_matches_exact_pass_on_random_conjugates():
    # the 8 classify-stress cases and 126 seeded conjugates, n = 2..8: the
    # point path, with exact kernels only at the heights of chain tops,
    # gives the same P and sigma byte for byte
    cases = []
    for shears in (15, 20):
        for j in range(4):
            sigma, _, _, moved = stress_case(8, shears, j)
            cases.append((sigma, moved.mat))
    cases += list(_point_vs_exact_conjugates())
    for sigma, x in cases:
        point, exact = _point_and_exact(x)
        assert point is not None
        assert point.sigma == exact.sigma == sigma
        assert repr(point.p_mat) == repr(exact.p_mat)


# -- the tallest chain tops by the span of their kernel ends --------------------------------


def test_tallest_top_has_the_shortest_kernel_end():
    # stress:8:20:3, sigma = (8): x^7 = u·w^T has rank one, so the kernel end
    # of e_i is w_i·u and w_i enters det P eight times.  The ends of e_2 and
    # e_7 have the least span, 5, against 6 for e_0, which index order took
    # (det P then spanned 8 degrees); the tie goes to e_2, and det P is a
    # monomial
    x = stress_case(8, 20, 3)[3].mat
    last = nilpotent_powers(x)[-2]
    spans = {}
    for i in range(x.n):
        exponents = [e for row in last.rows for e in row[i].coeffs]
        if exponents:
            spans[i] = max(exponents) - min(exponents)
    assert (spans[0], spans[2], spans[7], min(spans.values())) == (6, 5, 5, 5)
    chains = jordan_chains(x)
    assert chains.sigma == (8,)
    top = chains.p_mat.rows
    assert [i for i in range(x.n) if top[i][x.n - 1].coeffs] == [2]
    assert len(chains.p_mat.det().coeffs) == 1
    assert _exact_pass_tops(x)[1] == [(8, 2)]


def _point_vs_exact_conjugates():
    """(sigma, x) for the 126 seeded conjugates x of canonical
    representatives, n = 2..8, of the point-vs-exact test."""
    rng = random.Random("point-vs-exact")
    for n in range(2, 9):
        for _ in range(18):
            sigma, _, _, elem, g = random_orbit_case(rng, n)
            yield sigma, adjoint_act(g, elem).mat


def test_one_row_orders_the_tallest_tops_as_the_columns_do():
    # where the tallest part occurs once, x^(m-1) = u·w^T: every row r with
    # u_r != 0 is u_r·w^T, and spans add under products, so each such row,
    # read entry by entry, orders the identity candidates as the columns of
    # x^(m-1) do, ties included
    single = 0
    for sigma, x in _point_vs_exact_conjugates():
        if sigma.count(sigma[0]) != 1:
            continue
        single += 1
        last = nilpotent_powers(x)[-2]
        by_columns = normalform._span_order(list(zip(*last.rows)))
        assert by_columns == _by_kernel_end_span(x)
        rows = [row for row in last.rows if any(e.coeffs for e in row)]
        assert rows
        for row in rows:
            assert normalform._span_order([(e,) for e in row]) == by_columns
    assert single == 79


def test_single_tallest_part_orders_by_one_row(monkeypatch):
    # stress:8:20:3, sigma = (8): the tallest part occurs once and no kernel
    # has formed x^7, so its candidates are ordered by one row of x^7, row r
    # of x with x applied on the left six more times, and no power is formed
    # (test_single_block_takes_no_kernel_and_one_product counts the products)
    x = stress_case(8, 20, 3)[3].mat
    calls = []
    apply_left = MatK.apply_left

    def counted(m, v):
        calls.append(m is x)
        return apply_left(m, v)

    monkeypatch.setattr(MatK, "apply_left", counted)
    assert normalform._point_chains(x).sigma == (8,)
    assert calls == [True] * 6


# The labels and Jordan bases P of the cut lower-triangular matrices of
# ``lower_truncated_cases`` that keep a truncated entry ("lower-truncated",
# 50 cases, and "lt-150-a".."d", 150 each, n = 3..6), or the refusal; the
# matrices the cut left exact are left out, as they take the point path.
# Truncated input tries the tallest candidates in index order and takes its
# ranks and kernels off one echelon per power, so this was recorded before
# either and must not move.
TRUNCATED_SHA256 = "db0c13942469d43fa4ecff94640b48c390d2def26f46ab9e60bfe05052f35387"


def _truncated_lines():
    families = [("lower-truncated", lower_truncated_cases("lower-truncated", 50))]
    families += [(seed, lower_truncated_cases(seed, 150, 3, 4))
                 for seed in ("lt-150-a", "lt-150-b", "lt-150-c", "lt-150-d")]
    for seed, cases in families:
        for i, (_, cut, level) in enumerate(cases):
            if cut.all_exact():
                continue
            yield f"{seed}:{i}"
            try:
                yield repr(classify(AffineElement(cut, level)))
                yield repr(jordan_chains(cut).p_mat)
            except PrecisionExhausted as exc:
                yield f"PrecisionExhausted: {exc}"


def test_truncated_input_keeps_its_labels_and_jordan_bases():
    lines = list(_truncated_lines())
    assert sum(line.startswith("PrecisionExhausted") for line in lines) == 76
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TRUNCATED_SHA256


def _count_kernels_and_products(monkeypatch):
    calls = {"kernels": 0, "products": 0, "applies": 0}
    kernel_basis, mul, apply = MatK.kernel_basis, MatK.__mul__, MatK.apply

    def counted_kernel(m, *args):
        calls["kernels"] += 1
        return kernel_basis(m, *args)

    def counted_mul(a, b):
        calls["products"] += 1
        return mul(a, b)

    def counted_apply(m, v):
        calls["applies"] += 1
        return apply(m, v)

    monkeypatch.setattr(MatK, "kernel_basis", counted_kernel)
    monkeypatch.setattr(MatK, "__mul__", counted_mul)
    monkeypatch.setattr(MatK, "apply", counted_apply)
    return calls


def _single_block_cases():
    """Two classify-stress cases and seeded conjugates of D_(n), n = 2..6."""
    rng = random.Random("single-block")
    cases = [stress_case(8, 20, 1)[3].mat, stress_case(8, 20, 3)[3].mat]
    for n in range(2, 7):
        cases.append(adjoint_act(random_group(rng, n, 4), AffineElement(canonical_rep((n,), 0))).mat)
    return cases


def test_single_block_takes_no_kernel_and_one_product(monkeypatch):
    # sigma = (n): the only chain top has the nilpotency index as height, so
    # its candidates are the identity basis; the chain takes n - 1 applies,
    # and the one product is x times the kernel end
    for x in _single_block_cases():
        calls = _count_kernels_and_products(monkeypatch)
        assert jordan_chains(x).sigma == (x.n,)
        assert calls == {"kernels": 0, "products": 1, "applies": x.n - 1}
        monkeypatch.undo()


def test_single_block_takes_one_rank_over_k(monkeypatch):
    # sigma = (n) in the pass over K: the only part is the nilpotency index,
    # whose candidates are the identity basis, so no kernel is taken, and the
    # first one whose kernel end (a column of x^(n-1)) is not exactly zero is
    # kept by one rank
    _without_point_path(monkeypatch)
    calls = _count_kernels_and_products(monkeypatch)
    rank = normalform._rank

    def counted_rank(rows, width):
        calls["ranks"] += 1
        return rank(rows, width)

    monkeypatch.setattr(normalform, "_rank", counted_rank)
    for x in _single_block_cases():
        calls.update(kernels=0, ranks=0)
        assert jordan_chains(x).sigma == (x.n,)
        assert calls["kernels"] == 0
        assert calls["ranks"] == 1


def test_pass_over_k_takes_kernels_only_at_the_parts_of_sigma(monkeypatch):
    # sigma = (5, 3, 1) with the point path off: ker x^3 and ker x, the parts
    # below the nilpotency index 5; x^2 and x^4 take a rank and no kernel
    rng = random.Random("top-heights")
    x = adjoint_act(random_group(rng, 9, 4), AffineElement(canonical_rep((5, 3, 1), 0))).mat
    powers = nilpotent_powers(x)
    heights = []
    kernel_basis = MatK.kernel_basis

    def spy(m, *args):
        heights.append(powers.index(m))
        return kernel_basis(m, *args)

    _without_point_path(monkeypatch)
    monkeypatch.setattr(MatK, "kernel_basis", spy)
    assert jordan_chains(x).sigma == (5, 3, 1)
    assert heights == [3, 1]


def test_pass_over_k_eliminates_each_power_once(monkeypatch):
    # the rank of each power x, ..., x^(m-1) and its kernel, where sigma has
    # a part, are read off one echelon: sigma = (5, 3, 1) eliminates x^1..x^4
    # once each (the kernels at 3 and 1 took two more eliminations before),
    # and so does every cut lower-triangular matrix that is answered
    rng = random.Random("top-heights")
    x = adjoint_act(random_group(rng, 9, 4), AffineElement(canonical_rep((5, 3, 1), 0))).mat
    cases = [x] + [cut for _, cut, _ in lower_truncated_cases("lower-truncated", 50)
                   if not cut.all_exact()]
    seen = []
    row_echelon, powers_of = matk._row_echelon, normalform.nilpotent_powers

    def spy_echelon(rows, width):
        seen.append(rows)
        return row_echelon(rows, width)

    def spy_powers(x):
        seen.append(powers_of(x))
        return seen[-1]

    _without_point_path(monkeypatch)
    monkeypatch.setattr(matk, "_row_echelon", spy_echelon)
    monkeypatch.setattr(normalform, "nilpotent_powers", spy_powers)
    answered = 0
    for y in cases:
        seen.clear()
        try:
            jordan_chains(y)
        except PrecisionExhausted:
            continue
        answered += 1
        powers = seen[0]
        eliminated = [rows for rows in seen[1:] if any(rows is p.rows for p in powers)]
        assert [p.rows for p in powers[1:-1]] == eliminated
    assert answered == 32


def test_exact_kernels_only_at_heights_that_carry_a_top(monkeypatch):
    # sigma = (5, 3, 1): x^3 and x take one kernel each, x^2 and x^4 none,
    # x^2, x^3 cost one product each besides the check at the kernel ends,
    # and the chains take 4 + 2 + 0 = n - len(sigma) applies
    rng = random.Random("top-heights")
    x = adjoint_act(random_group(rng, 9, 4), AffineElement(canonical_rep((5, 3, 1), 0))).mat
    calls = _count_kernels_and_products(monkeypatch)
    assert jordan_chains(x).sigma == (5, 3, 1)
    assert calls == {"kernels": 2, "products": 3, "applies": 6}


def _rank_one_nilpotent():
    """x = a b^T with b^T a = 0, sigma = (2, 1).  ker x is spanned by
    v1 = (-1, t - t0, 0) and v2 = (-1, 0, t - t0), which coincide at the first
    point t0, and x e0 = (t - t0) a is a multiple of v1."""
    t0 = normalform._POINTS[0]
    a = [lp("1"), lp(f"{t0} - t"), lp("0")]
    b = [lp(f"t - {t0}"), lp("1"), lp("1")]
    return MatK([[ai * bj for bj in b] for ai in a])


def test_modular_pass_moves_on_when_kernel_vectors_degenerate_at_the_point(monkeypatch):
    # at t0 the chain of e1 takes x e1 = a, which is v1 and v2 there, so no
    # top of height 1 is left and the certificate fails; the next point
    # certifies the chains of the exact pass
    t0 = normalform._POINTS[0]
    x = _rank_one_nilpotent()
    kernels = _kernels(x)
    at_t0 = [zipoly.values_mod_p(v, t0) for v in kernels[0]]
    ech = normalform._ModEchelon()
    assert [ech.add(v) for v in at_t0] == [True, False]
    point, exact = _point_and_exact(x)
    assert point == exact and exact.sigma == (2, 1)
    with monkeypatch.context() as patch:
        patch.setattr(normalform, "_POINTS", normalform._POINTS[:1])
        assert normalform._point_chains(x) is None
    elem = AffineElement(x, gr(1))
    label = classify(elem)
    assert (label.partition, label.k) == ((2, 1), 0)
    _without_point_path(monkeypatch)
    assert classify(elem) == label


def _chain_rank_at_point(x, t0, candidates, tops):
    """Oracle: the rank at t0 of all the chain vectors x^i v (0 <= i < height)
    of the tops, in one echelon, with x(t0) applied row by row."""
    n = x.n
    flat = zipoly.values_mod_p([e for row in x.rows for e in row], t0)

    def apply(v):
        return [sum(flat[i * n + j] * v[j] for j in range(n)) % zipoly.P for i in range(n)]

    basis = normalform._ModEchelon()
    rank = 0
    for height, idx in tops:
        v = zipoly.values_mod_p(candidates[height - 1][idx], t0)
        for _ in range(height):
            rank += basis.add(v)
            v = apply(v)
    return rank


def test_tops_with_independent_kernel_ends_have_independent_chains():
    # at every point, the chain vectors of the tops chosen by their kernel
    # ends have rank the sum of the heights, also where the point is
    # degenerate and the tops fall short of n
    cases = [stress_case(8, shears, j)[3].mat for shears in (15, 20) for j in range(4)]
    cases += list(_seeded_conjugates("kernel-ends", range(2, 8), 4))
    cases.append(_rank_one_nilpotent())
    f = _vanishing_at_the_points(normalform._POINTS[:1])
    rng = random.Random("first-point")
    for sigma in ((2, 1, 1), (3, 2), (2, 2, 1)):
        g = random_group(rng, sum(sigma), 3)
        cases.append(adjoint_act(g, AffineElement(canonical_rep(sigma, 0))).mat.scale(f))
    short = 0
    for x in cases:
        kernels = _kernels(x)
        for t0 in normalform._POINTS:
            _, candidates, tops = normalform._tops_at_point(
                x, t0, lambda h: kernels[h - 1], lambda m, c, r: _by_kernel_end_span(x))
            heights = sum(height for height, _ in tops)
            assert _chain_rank_at_point(x, t0, candidates, tops) == heights
            short += heights < x.n
    assert short == 1  # the rank-one case at the first point


def test_kernel_end_echelon_rejects_a_dependent_top():
    # at the second point the chain e0, x e0 has kernel end x e0, a multiple
    # of v1: v1 is rejected and v2 taken, so P is not singular
    x = _rank_one_nilpotent()
    v1, v2 = _kernels(x)[0]
    t1 = normalform._POINTS[1]
    flat = zipoly.values_mod_p([e for row in x.rows for e in row], t1)
    x_e0 = [flat[i] for i in range(0, 9, 3)]
    ends = normalform._ModEchelon()
    assert ends.add(x_e0)
    assert not ends.add(zipoly.values_mod_p(v1, t1))
    assert ends.add(zipoly.values_mod_p(v2, t1))
    _, _, tops = normalform._tops_at_point(x, t1, lambda h: [v1, v2], lambda m, c, r: [0, 1, 2])
    assert tops == [(2, 0), (1, 1)]


def test_denominator_divisible_by_p_is_certified_at_the_point(monkeypatch):
    # the tests at the point read D·t^(-s)·x and D_v·t^(-s_v)·v, which have
    # no denominator, so p | D leaves every value defined
    inv_p = LaurentElement.monomial(1, Fraction(1, zipoly.P))
    g = GroupElement.from_shear(4, 2, 0, inv_p)
    level = gr(Fraction(-3, 2))
    moved = adjoint_act(g, AffineElement(canonical_rep((3, 1), 0), level))
    x = moved.mat
    assert any(c.d % zipoly.P == 0 for row in x.rows for e in row for c in e.coeffs.values())
    point, exact = _point_and_exact(x)
    assert point == exact
    label = classify(moved)
    assert (label.partition, label.k, label.level) == ((3, 1), 0, level)
    _without_point_path(monkeypatch)
    assert classify(moved) == label


def test_modular_pass_evaluates_wide_entries_term_by_term(monkeypatch):
    x = mat([["0", "t^1000000 - 1"], ["0", "0"]])

    def dense_row(row):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(zipoly, "from_row", dense_row)
    tracemalloc.start()
    try:
        chains = normalform._point_chains(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chains.sigma == (2,)
    assert chains.p_mat == mat([["t^1000000 - 1", "0"], ["0", "1"]])
    # the list of the entry's 10^6 dense pairs alone would take 8 MB
    assert peak < 10**6


# -- input that vanishes at the points: the exact pass decides ---------------------------------


def _vanishing_at_the_points(points=None):
    """f(t) = prod (t - t0) over the points, default all of ``_POINTS``."""
    f = lp("1")
    for t0 in normalform._POINTS if points is None else points:
        f = f * lp(f"t - {t0}")
    return f


def test_nilpotent_vanishing_at_every_point_takes_the_exact_pass(monkeypatch):
    rng = random.Random("vanishing-nilpotent")
    f = _vanishing_at_the_points()
    for sigma in ((3,), (2, 1), (3, 2), (2, 2, 1)):
        n = sum(sigma)
        g = random_group(rng, n, 3)
        x = adjoint_act(g, AffineElement(canonical_rep(sigma, 0))).mat.scale(f)
        assert normalform._point_chains(x) is None
        elem = AffineElement(x, gr(1))
        label = classify(elem)
        chains = jordan_chains(x)
        assert label.partition == chains.sigma == sigma
        with monkeypatch.context() as patch:
            _without_point_path(patch)
            assert classify(elem) == label
            assert repr(jordan_chains(x).p_mat) == repr(chains.p_mat)


@pytest.mark.parametrize("rows", [
    [["1", "0"], ["0", "-1"]],
    [["0", "1"], ["t", "0"]],
    [["0", "1", "0"], ["0", "0", "1"], ["t^-1", "0", "0"]],
])
def test_non_nilpotent_vanishing_at_every_point_raises_from_the_exact_pass(monkeypatch, rows):
    x = mat(rows).scale(_vanishing_at_the_points())
    calls = {"powers": 0}
    powers = normalform.nilpotent_powers

    def counted_powers(m):
        calls["powers"] += 1
        return powers(m)

    monkeypatch.setattr(normalform, "nilpotent_powers", counted_powers)
    with pytest.raises(NotNilpotent, match=f"{x.n}-th power"):
        classify(AffineElement(x))
    assert calls["powers"] == 1


def test_non_nilpotent_at_a_point_is_refuted_there(monkeypatch):
    # x(t0)^n != 0 proves x^n != 0: no exact power is taken
    calls = _count_kernels_and_products(monkeypatch)
    with pytest.raises(NotNilpotent, match="3-th power"):
        jordan_chains(mat([["0", "1", "0"], ["0", "0", "1"], ["t^-1", "0", "0"]]))
    assert calls == {"kernels": 0, "products": 0, "applies": 0}


def test_entry_vanishing_at_the_first_point_is_certified_at_the_second(monkeypatch):
    f = _vanishing_at_the_points(normalform._POINTS[:1])
    rng = random.Random("first-point")
    g = random_group(rng, 4, 3)
    x = adjoint_act(g, AffineElement(canonical_rep((2, 1, 1), 0))).mat.scale(f)
    point, exact = _point_and_exact(x)
    assert point is not None and point.sigma == (2, 1, 1)
    assert repr(point.p_mat) == repr(exact.p_mat)
    with monkeypatch.context() as patch:
        patch.setattr(normalform, "_POINTS", normalform._POINTS[:1])
        assert normalform._point_chains(x) is None


# -- powers and the basis check --------------------------------------------------------------


def _entrywise_times(a: MatK, b: MatK) -> MatK:
    """A·B with each entry summed from its n LaurentElement products, one at a
    time, skipping pairs with an exactly zero side; no MatK product."""
    def nonzero(e):
        return e.coeffs or e.prec is not None

    rows = []
    for row in a.rows:
        out = []
        for j in range(b.n):
            acc = LaurentElement.zero()
            for x, b_row in zip(row, b.rows):
                if nonzero(x) and nonzero(b_row[j]):
                    acc = acc + x * b_row[j]
            out.append(acc)
        rows.append(out)
    return MatK(rows)


def _laurent_powers(x):
    """Oracle: x^0, x^1, ... up to the first exactly zero power, each one from
    the last by entrywise Laurent products."""
    powers = [MatK.identity(x.n), x]
    while powers[-1].is_zero_3v() is not True:
        assert len(powers) <= x.n, "not nilpotent"
        powers.append(_entrywise_times(powers[-1], x))
    return powers


def _seeded_conjugates(seed, sizes, per_size):
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(per_size):
            _, _, _, elem, _ = random_orbit_case(rng, n)
            yield adjoint_act(random_group(rng, n), elem).mat


def test_exact_powers_equal_the_laurent_products():
    for x in _seeded_conjugates("dense-powers", range(2, 9), 3):
        powers = nilpotent_powers(x)
        oracle = _laurent_powers(x)
        assert len(powers) == len(oracle)
        for power, want in zip(powers, oracle):
            assert power.rows == want.rows
            assert power.kernel_basis() == want.kernel_basis()


def _count_products(monkeypatch):
    """Count the MatK products taken."""
    calls = {"products": 0}
    mul = MatK.__mul__

    def counted_mul(a, b):
        calls["products"] += 1
        return mul(a, b)

    monkeypatch.setattr(MatK, "__mul__", counted_mul)
    return calls


@pytest.mark.parametrize("rows", [
    [["1", "0"], ["0", "-1"]],
    [["0", "1"], ["t", "0"]],  # x^2 = t I
    [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"], ["t^-1", "0", "0", "0"]],
])
def test_exact_non_nilpotent_raises_after_the_same_powers(monkeypatch, rows):
    x = mat(rows)
    calls = _count_products(monkeypatch)
    with pytest.raises(NotNilpotent, match=f"{x.n}-th power"):
        nilpotent_powers(x)
    # x^2 .. x^n, one product each
    assert calls["products"] == x.n - 1


def test_truncated_powers_stay_laurent_products(monkeypatch):
    cut = LaurentElement({0: gr(1)}, 5)  # 1 + O(t^5)
    x = MatK([[lp("0"), cut, lp("t")], [lp("0"), lp("0"), cut], [lp("0"), lp("0"), lp("0")]])
    calls = _count_products(monkeypatch)
    powers = nilpotent_powers(x)
    assert calls["products"] == 2
    assert [p.rows for p in powers] == [p.rows for p in _laurent_powers(x)]
    assert len(powers) == 4 and powers[2].rows[0][2] == cut * cut
    undetermined = MatK([[lp("0"), LaurentElement({}, 5)], [lp("0"), lp("0")]])
    with pytest.raises(PrecisionExhausted):
        nilpotent_powers(undetermined)


def test_times_jordan_is_the_product_with_j():
    rng = random.Random("times-jordan")
    for n in range(1, 7):
        for sigma in partitions(n):
            m = MatK([[random_laurent(rng, max_terms=2) for _ in range(n)] for _ in range(n)])
            assert normalform.times_jordan(m, sigma) == m * canonical_rep(sigma, 0)


def test_chain_basis_rejects_a_top_that_leaves_its_kernel(monkeypatch):
    # every column of P but a kernel end is x times the next one, so
    # x·P = P·J fails only where x maps a kernel end off 0: a top v of
    # height h swapped for v + u, u the top of a taller chain, gives
    # x^h (v + u) = x^h u != 0, and P is rejected
    chain_basis = normalform._chain_basis
    cases = list(_seeded_conjugates("basis-check", range(2, 7), 3))
    rejected = 0
    for x in cases + [x.scale(lp("t^6")) for x in cases]:
        kernels, tops = _exact_pass_tops(x)
        assert repr(chain_basis(x, kernels, tops)) == repr(jordan_chains(x).p_mat)
        (tall, u_idx), (short, v_idx) = tops[0], tops[-1]
        if tall == short:
            continue
        u, v = kernels[tall - 1][u_idx], kernels[short - 1][v_idx]
        bad = [list(kernel) for kernel in kernels]
        bad[short - 1][v_idx] = tuple(a + b for a, b in zip(v, u))
        assert chain_basis(x, bad, tops) is None
        with monkeypatch.context() as patch:
            _without_point_path(patch)
            patch.setattr(normalform, "_chain_basis",
                          lambda x, candidates, tops: chain_basis(x, bad, tops))
            with pytest.raises(AssertionError, match="invalid basis"):
                jordan_chains(x)
        rejected += 1
    assert rejected >= 10


def test_quasi_jordan_input_takes_no_powers(monkeypatch):
    def unreachable(x):
        raise AssertionError("powers computed")

    monkeypatch.setattr(normalform, "nilpotent_powers", unreachable)
    for n in range(1, 7):
        for sigma in partitions(n):
            for k in range(sigma[-1]):
                label = classify(AffineElement(canonical_rep(sigma, k), gr(1)))
                assert label == normalform.OrbitLabel(sigma, k % math.gcd(*sigma), gr(1))
    # a truncated superdiagonal entry: 1 + O(t^5) has valuation 0, t + O(t^5) 1
    x = MatK([
        [lp("0"), LaurentElement({1: gr(1)}, 5), lp("0")],
        [lp("0"), lp("0"), LaurentElement({0: gr(1)}, 5)],
        [lp("0"), lp("0"), lp("0")],
    ])
    assert classify(AffineElement(x)) == normalform.OrbitLabel((3,), 2, gr(0))
    # non-nilpotent input is not quasi-Jordan, so it still reaches the powers
    monkeypatch.undo()
    with pytest.raises(NotNilpotent):
        classify(AffineElement(mat([["0", "1"], ["t", "0"]])))
