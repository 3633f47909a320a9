from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

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
from affnil import normalform, zipoly
from affnil.matk import normalize_vector
from affnil.normalform import jordan_chains, nilpotent_powers
from affnil.selfcheck import random_group, random_laurent, random_orbit_case

from conftest import lp, mat


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


def _kernels(x):
    return [power.kernel_basis() for power in nilpotent_powers(x)[1:]]


def _exact_tops(x, kernels):
    return normalform._greedy_tops(kernels, x.apply, lambda: normalform._Echelon(x.n))


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
        kernels = _kernels(x)
        oracle = normalform._greedy_tops(kernels, x.apply, lambda: _LaurentEchelon(x.n))
        assert _exact_tops(x, kernels) == oracle
    assert _exact_tops(truncated, _kernels(truncated)) == [(2, 0)]


def _without_modular_pass(monkeypatch):
    monkeypatch.setattr(normalform, "_modular_tops", lambda x, kernels: None)


def test_modular_pass_matches_exact_pass_on_random_conjugates(monkeypatch):
    rng = random.Random("modular-vs-exact")
    cases = []
    for n in range(2, 7):
        for _ in range(3):
            sigma, k, level, elem, g = random_orbit_case(rng, n)
            x = adjoint_act(g, elem).mat
            kernels = _kernels(x)
            assert normalform._modular_tops(x, kernels) == _exact_tops(x, kernels)
            cases.append((x, sigma, jordan_chains(x)))
    _without_modular_pass(monkeypatch)
    for x, sigma, chains in cases:
        exact = jordan_chains(x)
        assert chains.sigma == exact.sigma == sigma
        assert chains.p_mat == exact.p_mat


def _rank_one_nilpotent():
    """x = a b^T with b^T a = 0, sigma = (2, 1).  ker x is spanned by
    v1 = (-1, t - t0, 0) and v2 = (-1, 0, t - t0), which coincide at the first
    point t0, and x e0 = (t - t0) a is a multiple of v1."""
    t0 = normalform._POINTS[0]
    a = [lp("1"), lp(f"{t0} - t"), lp("0")]
    b = [lp(f"t - {t0}"), lp("1"), lp("1")]
    return MatK([[ai * bj for bj in b] for ai in a])


def test_modular_pass_moves_on_when_kernel_vectors_degenerate_at_the_point(monkeypatch):
    # at t0 the greedy pass takes two tops of height 2 and the certificate
    # fails; the next point certifies the tops of the exact pass
    t0 = normalform._POINTS[0]
    x = _rank_one_nilpotent()
    kernels = _kernels(x)
    at_t0 = [zipoly.values_mod_p(v, t0) for v in kernels[0]]
    ech = normalform._ModEchelon()
    assert [ech.add(v) for v in at_t0] == [True, False]
    exact = _exact_tops(x, kernels)
    assert normalform._modular_tops(x, kernels) == exact
    with monkeypatch.context() as patch:
        patch.setattr(normalform, "_POINTS", normalform._POINTS[:1])
        assert normalform._modular_tops(x, kernels) is None
    elem = AffineElement(x, gr(1))
    label = classify(elem)
    assert (label.partition, label.k) == ((2, 1), 0)
    _without_modular_pass(monkeypatch)
    assert classify(elem) == label


def test_certificate_rejects_dependent_chains_whose_heights_sum_to_n():
    x = _rank_one_nilpotent()
    kernels = _kernels(x)
    assert kernels[1][0] == (lp("1"), lp("0"), lp("0"))
    t1 = normalform._POINTS[1]
    flat = zipoly.values_mod_p([e for row in x.rows for e in row], t1)
    x_p = [flat[i:i + 3] for i in range(0, 9, 3)]
    kernels_p = [[zipoly.values_mod_p(v, t1) for v in ker] for ker in kernels]
    apply = partial(normalform._apply_mod_p, x_p)
    # the chain e0, x e0 with v1 as a second top: heights 2 + 1 = 3, but
    # x e0 and v1 are dependent over K, so P would be singular
    assert not normalform._chains_form_basis([(2, 0), (1, 0)], kernels_p, apply, 3)
    assert normalform._chains_form_basis([(2, 0), (1, 1)], kernels_p, apply, 3)


def test_denominator_divisible_by_p_is_certified_at_the_point(monkeypatch):
    # the tests at the point read D·t^(-s)·x and D_v·t^(-s_v)·v, which have
    # no denominator, so p | D leaves every value defined
    inv_p = LaurentElement.monomial(1, Fraction(1, zipoly.P))
    g = GroupElement.from_shear(4, 2, 0, inv_p)
    level = gr(Fraction(-3, 2))
    moved = adjoint_act(g, AffineElement(canonical_rep((3, 1), 0), level))
    x = moved.mat
    assert any(c.d % zipoly.P == 0 for row in x.rows for e in row for c in e.coeffs.values())
    kernels = _kernels(x)
    assert normalform._modular_tops(x, kernels) == _exact_tops(x, kernels)
    label = classify(moved)
    assert (label.partition, label.k, label.level) == ((3, 1), 0, level)
    _without_modular_pass(monkeypatch)
    assert classify(moved) == label


def test_modular_pass_evaluates_wide_entries_term_by_term(monkeypatch):
    x = mat([["0", "t^1000000 - 1"], ["0", "0"]])
    kernels = _kernels(x)

    def dense_row(row):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(zipoly, "from_row", dense_row)
    tracemalloc.start()
    try:
        tops = normalform._modular_tops(x, kernels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tops == [(2, 1)]
    # the list of the entry's 10^6 dense pairs alone would take 8 MB
    assert peak < 10**6


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


def _with_column(p_mat, j, column):
    return MatK([row[:j] + (column[i],) + row[j + 1:] for i, row in enumerate(p_mat.rows)])


def test_exact_basis_check_rejects_a_wrong_column():
    cases = list(_seeded_conjugates("basis-check", range(2, 7), 3))
    for x in cases + [x.scale(lp("t^6")) for x in cases]:
        chains = jordan_chains(x)
        if chains.sigma[0] < 2:
            continue
        p_mat = chains.p_mat
        normalform._check_jordan_basis(x, p_mat, chains.sigma)
        columns = list(zip(*p_mat.rows))
        top = chains.sigma[0] - 1  # the top of the tallest chain; column 0 is its kernel end
        wrong = [
            _with_column(p_mat, top, tuple(e * lp("t") for e in columns[top])),
            _with_column(p_mat, 0, tuple(a + b for a, b in zip(columns[0], columns[top]))),
        ]
        for bad in wrong:
            with pytest.raises(AssertionError, match="invalid basis"):
                normalform._check_jordan_basis(x, bad, chains.sigma)


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
