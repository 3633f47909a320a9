from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from affnil import (
    AffineElement,
    DetMode,
    GroupElement,
    MatK,
    NotConjugate,
    NotNilpotent,
    OrbitLabel,
    QuasiJordanForm,
    ShapeMismatch,
    adjoint_act,
    are_conjugate,
    canonical_rep,
    classify,
    conjugator_quasi_jordan,
    enumerate_orbits,
    gr,
    level_of,
    mult_order,
    partitions,
    quasi_jordanize,
)
from affnil.matk import det_and_adj_trace
from affnil.normalform import jordan_chains, times_jordan
from affnil.selfcheck import random_group, random_orbit_case

from conftest import lower_truncated_cases, lp, mat, stress_case


def E(n, i, j, value="1"):
    return MatK.elementary(n, i, j, lp(value))


def qj(*blocks):
    return QuasiJordanForm(
        tuple((size, tuple(lp(p) for p in diag)) for size, diag in blocks)
    )


def single_block(*entries):
    return qj((len(entries) + 1, list(entries)))


# -- classify -------------------------------------------------------------------


def test_classify_canonical_example():
    label = classify(AffineElement(canonical_rep((4,), 2)))
    assert label == OrbitLabel((4,), 2, gr(0))


def test_classify_zero_matrix_with_level():
    label = classify(AffineElement(MatK.zero(4), gr(5)))
    assert label == OrbitLabel((1, 1, 1, 1), 0, gr(5))


def test_classify_worked_conjugate_example():
    x = AffineElement(mat([["-1", "t"], ["-t^-1", "1"]]), gr(-4))
    assert classify(x) == OrbitLabel((2,), 1, gr(0))


def test_classify_rejects_derivation_component():
    with pytest.raises(NotNilpotent):
        classify(AffineElement(MatK.zero(2), gr(0), gr(1)))


def test_classify_level_matches_materialized_conjugator():
    # the internal level shortcut must agree with the c-part of Ad h(a)
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(2, 4)
        sigma = rng.choice(partitions(n))
        k = rng.randrange(sigma[-1])
        elem = AffineElement(canonical_rep(sigma, k), gr(Fraction(1, 2)))
        moved = adjoint_act(random_group(rng, n), elem)
        h, form = quasi_jordanize(moved.mat, 64)
        via_act = adjoint_act(h, moved, 64)
        assert classify(moved).level == via_act.c_coef
        assert (via_act.mat - form.matrix()).is_zero_3v() is not False


def test_classify_idempotent_through_canonicalization():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        sigma, k, level, elem, g = random_orbit_case(rng, n)
        label = classify(adjoint_act(g, elem))
        again = classify(AffineElement(canonical_rep(label.partition, label.k), label.level))
        assert again == label


def test_level_of_examples():
    assert level_of(AffineElement(canonical_rep((3, 1), 0), gr(-2))) == gr(-2)
    assert level_of(AffineElement(MatK.zero(3), gr(Fraction(1, 2)))) == gr(Fraction(1, 2))
    worked = AffineElement(mat([["-1", "t"], ["-t^-1", "1"]]), gr(-4))
    assert level_of(worked) == gr(0)


# -- are_conjugate -----------------------------------------------------------------


def test_are_conjugate_single_block_criterion():
    # orders 3 vs 1: difference 2, not a multiple of 4
    a = AffineElement(qj((4, ["t", "1", "1"])).matrix())
    b = AffineElement(qj((4, ["1", "1", "t"])).matrix())
    assert not are_conjugate(a, b)
    # orders 3 vs 15: difference 12, a multiple of 4
    c = AffineElement(qj((4, ["t^5", "1", "1"])).matrix())
    assert are_conjugate(a, c)
    assert are_conjugate(a, a)


def test_are_conjugate_level_sensitive():
    a = AffineElement(canonical_rep((2,), 0), gr(1))
    b = AffineElement(canonical_rep((2,), 0), gr(2))
    assert not are_conjugate(a, b)


# -- explicit conjugators -------------------------------------------------------------


def test_conjugator_identity_case():
    src = single_block("t")
    h = conjugator_quasi_jordan(src, src)
    assert h.g == MatK.identity(2) and h.det_mode is DetMode.EXACT_ONE


def test_conjugator_monomial_blocks():
    src = single_block("t")
    dst = single_block("t^3")
    h = conjugator_quasi_jordan(src, dst)
    assert h.g == MatK.diag([lp("t"), lp("t^-1")])
    assert h.det_mode is DetMode.EXACT_ONE
    assert h.g * src.matrix() * h.g.inv() == dst.matrix()


def test_conjugator_not_conjugate():
    with pytest.raises(NotConjugate):
        conjugator_quasi_jordan(single_block("t"), single_block("t^2"))


def test_conjugator_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        conjugator_quasi_jordan(single_block("t"), qj((1, []), (1, [])))


def test_conjugator_multi_block_verified_by_multiplication():
    rng = random.Random(19)
    for _ in range(10):
        sizes = rng.choice(((2, 2), (3, 2), (3, 3), (4, 2)))
        n = sum(sizes)
        step = math.gcd(*sizes)

        def rand_entries(shift_by):
            blocks = []
            for b, size in enumerate(sizes):
                diag = []
                for i in range(size - 1):
                    exp = rng.randint(-2, 2)
                    diag.append(f"t^{exp}" if exp else "1")
                blocks.append((size, diag))
            return blocks

        src = qj(*rand_entries(0))
        dst_blocks = rand_entries(0)
        src_order = mult_order(src)
        dst = qj(*dst_blocks)
        diff = mult_order(dst) - src_order
        if diff % step != 0:
            with pytest.raises(NotConjugate):
                conjugator_quasi_jordan(src, dst)
            continue
        h = conjugator_quasi_jordan(src, dst, 48)
        lhs = h.g * src.matrix()
        rhs = dst.matrix() * h.g
        assert (lhs - rhs).is_zero_3v() is not False
        assert h.g.det(48).order() % n == 0


# -- enumeration ------------------------------------------------------------------------


def test_enumerate_n1():
    out = enumerate_orbits(1)
    assert len(out) == 1
    assert out[0][0] == OrbitLabel((1,), 0, gr(0))
    assert out[0][1] == MatK.zero(1)


def test_enumerate_n2():
    labels = [label for label, _ in enumerate_orbits(2)]
    assert labels == [
        OrbitLabel((1, 1), 0, gr(0)),
        OrbitLabel((2,), 0, gr(0)),
        OrbitLabel((2,), 1, gr(0)),
    ]


def test_enumerate_n4_matches_table():
    out = enumerate_orbits(4)
    assert len(out) == 9
    got = [(label.partition, label.k) for label, _ in out]
    assert got == [
        ((1, 1, 1, 1), 0),
        ((2, 1, 1), 0),
        ((2, 2), 0),
        ((2, 2), 1),
        ((3, 1), 0),
        ((4,), 0),
        ((4,), 1),
        ((4,), 2),
        ((4,), 3),
    ]
    reps = {(label.partition, label.k): rep for label, rep in out}
    assert reps[((2, 2), 1)] == E(4, 0, 1) + E(4, 2, 3, "t")
    assert reps[((4,), 2)] == E(4, 0, 1) + E(4, 1, 2) + E(4, 2, 3, "t^2")


def test_enumerate_count_formula():
    for n in range(1, 8):
        assert len(enumerate_orbits(n)) == sum(math.gcd(*s) for s in partitions(n))


def test_enumerate_level_attached():
    out = enumerate_orbits(2, gr(Fraction(-3, 2)))
    assert all(label.level == gr(Fraction(-3, 2)) for label, _ in out)


# -- invariance ----------------------------------------------------------------------


def test_orbit_invariance_sample():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 4)
        sigma, k, level, elem, g = random_orbit_case(rng, n)
        assert classify(adjoint_act(g, elem)) == OrbitLabel(sigma, k, level)


def test_classify_truncated_input_via_general_pipeline():
    from affnil import LaurentElement

    lower = MatK(
        [
            [lp("0"), lp("0")],
            [LaurentElement({0: gr(1)}, 9), lp("0")],
        ]
    )
    label = classify(AffineElement(lower, gr(5)))
    assert label == OrbitLabel((2,), 0, gr(5))


def test_classify_truncated_lower_triangular_matches_uncut_or_raises():
    # strictly lower triangular x, n = 2..6, about half of the nonzero
    # entries cut 1, 5 or 20 above their top exponent: the truncated x
    # classifies to the label of the uncut one, or raises; never another label
    from affnil import PrecisionExhausted

    matched = 0
    for exact, cut, level in lower_truncated_cases("lower-truncated", 50):
        want = classify(AffineElement(exact, level))
        try:
            label = classify(AffineElement(cut, level))
        except PrecisionExhausted:
            continue
        assert label == want
        matched += 1
    assert matched >= 42


def test_classify_exact_level_past_the_working_precision():
    # entries over t^-1700 .. t^2000: the t^-1 coefficient of
    # adj_trace / det P reads 1/det P further than the default 64 terms
    x = AffineElement(canonical_rep((3, 2), 0), gr(1))
    for text, (i, j) in (("t^-1000 + 1", (0, 3)), ("t^-700 + 2", (4, 1)),
                         ("t^500 - 1", (2, 4)), ("t^1000 + 3", (1, 0))):
        x = adjoint_act(GroupElement.from_shear(5, i, j, lp(text)), x)
    assert x.mat.all_exact()
    assert classify(x) == OrbitLabel((3, 2), 0, gr(1))


def test_classify_raises_when_nilpotency_is_undecidable():
    from affnil import LaurentElement, PrecisionExhausted

    exact = mat([["-1", "t"], ["-t^-1", "1"]])
    truncated = MatK(
        [[LaurentElement(e.coeffs, 20) for e in row] for row in exact.rows]
    )
    with pytest.raises(PrecisionExhausted):
        classify(AffineElement(truncated, gr(4)))


def test_classify_level_scales_with_form_normalization():
    from affnil import GroupElement

    g = GroupElement.from_shear(2, 1, 0, lp("t^-1"))
    x = AffineElement(E(2, 0, 1, "t"))
    for kappa in (None, gr(1)):
        moved = adjoint_act(g, x, 64, kappa)
        assert classify(moved, 64, kappa) == OrbitLabel((2,), 1, gr(0))
    assert adjoint_act(g, x, 64, gr(1)).c_coef == gr(-1)  # 2n*tr vs tr


def test_rotation_preserves_labels():
    for sigma, k in (((2, 2), 1), ((4,), 3), ((3, 1), 0)):
        n = sum(sigma)
        elem = AffineElement(canonical_rep(sigma, k), gr(1))
        from affnil import GroupElement

        moved = adjoint_act(GroupElement.loop_rotation(n, gr(1, 1)), elem)
        assert classify(moved) == OrbitLabel(sigma, k, gr(1))


# -- the benchmark's stress seeds ----------------------------------------------

@pytest.mark.parametrize("shears", [20, 15])
@pytest.mark.parametrize("j", range(4))
def test_stress_seeds_classify_to_their_generating_label(shears, j):
    sigma, k, level, moved = stress_case(8, shears, j)
    assert classify(moved) == OrbitLabel(sigma, k, level)


def test_stress_jordan_basis_stays_small():
    # the kernel vectors carry only the pivots they need; with the product of
    # all pivots this P had entries of 80 terms
    _, _, _, moved = stress_case(8, 15, 3)
    p_mat = jordan_chains(moved.mat).p_mat
    assert max(len(e.coeffs) for row in p_mat.rows for e in row) <= 40


def _direction_cases():
    rng = random.Random("direction")
    for n in range(2, 7):
        for _ in range(8):
            _, _, _, elem, g = random_orbit_case(rng, n)
            yield adjoint_act(g, elem).mat
    for shears in (15, 20):
        for j in range(4):
            yield stress_case(8, shears, j)[3].mat


def test_level_direction_p_prime_j_matches_x_p_prime():
    # classify reads tr(adj(P)·x·P′) as tr(adj(P)·P′·J) once x·P = P·J is checked
    for x in _direction_cases():
        chains = jordan_chains(x)
        p_prime = chains.p_mat.d_dt()
        assert det_and_adj_trace(chains.p_mat, x * p_prime) == det_and_adj_trace(
            chains.p_mat, times_jordan(p_prime, chains.sigma))
