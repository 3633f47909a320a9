from __future__ import annotations

import random
from fractions import Fraction

import pytest

from affnil import (
    AffineElement,
    CertifiedDetWithDerivation,
    DetMode,
    GroupElement,
    LaurentElement,
    MatK,
    NotTraceless,
    PrecisionExhausted,
    adjoint_act,
    bracket,
    form_t,
    gr,
    is_nilpotent,
    killing_coef,
)
from affnil.affine import det_mode_of
from affnil.selfcheck import (
    random_gaussian,
    random_group,
    random_shear,
    random_traceless,
)

from conftest import agree_below, lp, mat, trunc_bound


def E(n, i, j, value="1"):
    return MatK.elementary(n, i, j, lp(value))


def _sl2_killing_form_oracle():
    """kappa(x, y) = tr(ad x ad y) on the basis {h, e, f} of sl_2."""
    # structure constants: [h,e] = 2e, [h,f] = -2f, [e,f] = h
    def ad(name):
        rows = {"h": [[0, 0, 0], [0, 2, 0], [0, 0, -2]],
                "e": [[0, 0, 1], [-2, 0, 0], [0, 0, 0]],
                "f": [[0, -1, 0], [0, 0, 0], [2, 0, 0]]}
        return rows[name]

    def tr_prod(a, b):
        return sum(
            sum(a[i][k] * b[k][j] for k in range(3)) if i == j else 0
            for i in range(3)
            for j in range(3)
        )

    return {pair: tr_prod(ad(pair[0]), ad(pair[1])) for pair in ("ef", "he", "hh")}


def test_killing_normalization_against_ad_trace_oracle():
    kappa = _sl2_killing_form_oracle()
    # kappa(e, f) = 4 = 2n tr(E12 E21) at n = 2
    assert kappa["ef"] == 4
    assert form_t(E(2, 0, 1), E(2, 1, 0), killing_coef(2)) == lp("4")
    # kappa(h, h) = 8 = 2n tr(diag(1,-1)^2)
    assert kappa["hh"] == 8
    h = mat([["1", "0"], ["0", "-1"]])
    assert form_t(h, h, killing_coef(2)) == lp("8")
    assert kappa["he"] == 0


def test_form_t_examples():
    assert form_t(E(2, 0, 1), E(2, 1, 0), killing_coef(2)) == lp("4")
    upper = E(3, 0, 1) + E(3, 1, 2, "t")
    assert form_t(upper, upper, killing_coef(3)) == lp("0")
    assert form_t(E(2, 0, 1, "t"), E(2, 1, 0, "t^-1"), killing_coef(2)) == lp("4")


def test_trace_zero_enforced():
    with pytest.raises(NotTraceless):
        AffineElement(mat([["1", "0"], ["0", "0"]]))


# -- bracket ---------------------------------------------------------------------


def test_bracket_central_element():
    c_only = AffineElement(MatK.zero(2), gr(5))
    other = AffineElement(random_traceless(random.Random(1), 2), gr(2), gr(1))
    out = bracket(c_only, other)
    assert out.mat.is_zero_3v() is True
    assert out.c_coef == gr(0) and out.d_coef == gr(0)


def test_bracket_derivation_acts_as_t_ddt():
    d = AffineElement(MatK.zero(2), gr(0), gr(1))
    x = AffineElement(E(2, 0, 1, "t"))
    out = bracket(d, x)
    assert out.mat == E(2, 0, 1, "t") and out.c_coef == gr(0)


def test_bracket_monomial_cocycle():
    # [t ox E12, t^-1 ox E21] = (E11 - E22) + 4c at n = 2, Killing form
    a = AffineElement(E(2, 0, 1, "t"))
    b = AffineElement(E(2, 1, 0, "t^-1"))
    out = bracket(a, b)
    assert out.mat == mat([["1", "0"], ["0", "-1"]])
    assert out.c_coef == gr(4) and out.d_coef == gr(0)


def test_bracket_never_produces_derivation():
    rng = random.Random(2)
    for _ in range(10):
        a = AffineElement(random_traceless(rng, 2), random_gaussian(rng), gr(1))
        b = AffineElement(random_traceless(rng, 2), random_gaussian(rng), gr(-2))
        assert bracket(a, b).d_coef == gr(0)


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 3)
        a, b, c = (
            AffineElement(
                random_traceless(rng, n),
                random_gaussian(rng),
                gr(rng.randint(-1, 1)),
            )
            for _ in range(3)
        )
        anti = bracket(a, b) + bracket(b, a)
        assert anti.mat.is_zero_3v() is True and anti.c_coef == gr(0)
        jac = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert jac.mat.is_zero_3v() is True and jac.c_coef == gr(0)


def test_bracket_derivation_terms_match_the_composed_operations():
    # mu_a t X_b' - mu_b t X_a', each built in one pass, equals d_dt, shift(1)
    # and scale run one after another, bounds included
    rng = random.Random(29)
    for trial in range(40):
        n = 2 + trial % 3
        xa, xb = random_traceless(rng, n), random_traceless(rng, n)
        if trial % 2:
            e = xb.rows[0][1]
            xb = _with_entry(xb, 0, 1, e.truncated(max(e.coeffs, default=0) + rng.randint(7, 9)))
            xa = _with_entry(xa, 1, 0, LaurentElement.zero(rng.randint(4, 6)))
        mu_a, mu_b = random_gaussian(rng, 0.5), random_gaussian(rng, 0.5)
        got = bracket(AffineElement(xa, gr(0), mu_a), AffineElement(xb, gr(0), mu_b))
        expected = xa * xb - xb * xa
        if not mu_a.is_zero:
            expected = expected + xb.d_dt().shift(1).scale(mu_a)
        if not mu_b.is_zero:
            expected = expected - xa.d_dt().shift(1).scale(mu_b)
        assert got.mat == expected, trial


def _with_entry(m: MatK, i: int, j: int, value: LaurentElement) -> MatK:
    rows = [list(r) for r in m.rows]
    rows[i][j] = value
    return MatK(rows)


def test_bracket_matrix_part_is_the_commutator():
    rng = random.Random(17)
    for trial in range(60):
        n = 2 + trial % 3
        xa, xb = random_traceless(rng, n), random_traceless(rng, n)
        if trial % 2:
            # truncated inputs, one an empty O(t^k); the bounds keep the
            # residue of the c-part known
            e = xa.rows[0][1]
            xa = _with_entry(xa, 0, 1, e.truncated(max(e.coeffs, default=0) + rng.randint(7, 9)))
            xb = _with_entry(xb, 1, 0, LaurentElement.zero(rng.randint(4, 6)))
        got = bracket(AffineElement(xa, random_gaussian(rng)), AffineElement(xb))
        assert got.mat == xa * xb - xb * xa
        assert got.d_coef == gr(0)
    # [x, x] is exactly zero for exact x, and [E_01, E_10] = E_00 - E_11
    x = random_traceless(rng, 3)
    assert x.commutator(x) == MatK.zero(3)
    assert bracket(AffineElement(E(2, 0, 1)), AffineElement(E(2, 1, 0))).mat == mat(
        [["1", "0"], ["0", "-1"]])


# -- nilpotency -------------------------------------------------------------------


def test_is_nilpotent_examples():
    assert is_nilpotent(AffineElement(E(2, 0, 1), gr(5)))
    assert not is_nilpotent(AffineElement(MatK.zero(2), gr(0), gr(1)))
    assert not is_nilpotent(AffineElement(mat([["1", "0"], ["0", "-1"]])))


# -- adjoint action ----------------------------------------------------------------


def test_adjoint_identity_fixes_everything():
    x = AffineElement(random_traceless(random.Random(4), 3), gr(2, 1), gr(3))
    out = adjoint_act(GroupElement.identity(3), x)
    assert out.mat == x.mat and out.c_coef == x.c_coef and out.d_coef == x.d_coef


def test_adjoint_loop_rotation():
    x = AffineElement(E(2, 0, 1, "t"), gr(7))
    out = adjoint_act(GroupElement.loop_rotation(2, gr(2)), x)
    assert out.mat == E(2, 0, 1, "2*t")
    assert out.c_coef == gr(7) and out.d_coef == gr(0)


def test_adjoint_worked_example():
    # Ad(I + t^-1 E21)(t ox E12 + 0c) at n = 2, Killing normalization
    g = GroupElement.from_shear(2, 1, 0, lp("t^-1"))
    x = AffineElement(E(2, 0, 1, "t"))
    out = adjoint_act(g, x)
    assert out.mat == mat([["-1", "t"], ["-t^-1", "1"]])
    assert out.c_coef == gr(-4)
    assert out.d_coef == gr(0)


def _bracket_series(y, a, terms=4):
    """a + [y, a] + [y, [y, a]]/2 + ... up to ad(y)^(terms - 1), checking
    that the next term vanishes."""
    total = term = a
    for k in range(1, terms):
        term = bracket(y, term).scale(gr(Fraction(1, k)))
        total = total + term
    last = bracket(y, term)
    assert last.mat.is_zero_3v() is True and last.c_coef == gr(0)
    return total


def test_adjoint_moves_d_as_the_bracket_series():
    # g = exp(t^-1 E21) exp(t E12); tr((g^-1 g')^2) != 0, so the c-part pins
    # the sign of the 1/2 mu term of the correction (it would read -4)
    g = GroupElement.from_shear(2, 1, 0, lp("t^-1")).compose(
        GroupElement.from_shear(2, 0, 1, lp("t"))
    )
    d = AffineElement(MatK.zero(2), gr(0), gr(1))
    out = adjoint_act(g, d)
    expected = _bracket_series(
        AffineElement(E(2, 1, 0, "t^-1")), _bracket_series(AffineElement(E(2, 0, 1, "t")), d)
    )
    assert out == expected
    assert out.mat == mat([["1", "-t"], ["2*t^-1", "-1"]])
    assert out.c_coef == gr(4) and out.d_coef == gr(1)


def test_adjoint_requires_exact_det_with_derivation():
    g = GroupElement(gr(1), MatK.diag([lp("t"), lp("t")]), DetMode.NTH_POWER_CERTIFIED)
    x = AffineElement(MatK.zero(2), gr(0), gr(1))
    with pytest.raises(CertifiedDetWithDerivation):
        adjoint_act(g, x)


def test_adjoint_preserves_trace_zero_and_derivation():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(2, 3)
        g = random_group(rng, n)
        x = AffineElement(random_traceless(rng, n), random_gaussian(rng))
        out = adjoint_act(g, x)
        assert out.mat.trace().is_zero_3v() is not False
        assert out.d_coef == gr(0)


class _BoundedRandom(random.Random):
    """Fails instead of looping when a generator keeps redrawing."""

    def randrange(self, *args, **kwargs):
        self.draws = getattr(self, "draws", 0) + 1
        if self.draws > 100:
            raise RuntimeError("generator keeps redrawing")
        return super().randrange(*args, **kwargs)


@pytest.mark.parametrize("n", [0, 1])
def test_random_shear_needs_two_indices(n):
    with pytest.raises(ValueError):
        random_shear(_BoundedRandom(0), n)
    with pytest.raises(ValueError):
        random_group(_BoundedRandom(0), n)


def test_adjoint_group_law_on_shears():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 3)
        g = random_shear(rng, n)
        h = random_shear(rng, n)
        x = AffineElement(
            random_traceless(rng, n), random_gaussian(rng), gr(rng.randint(0, 1))
        )
        lhs = adjoint_act(g.compose(h), x)
        rhs = adjoint_act(g, adjoint_act(h, x))
        diff = lhs - rhs
        assert diff.mat.is_zero_3v() is not False
        assert diff.c_coef == gr(0) and diff.d_coef == gr(0)


def test_adjoint_group_law_with_rotation():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 3)
        g = GroupElement.loop_rotation(n, gr(2)).compose(random_shear(rng, n))
        h = random_shear(rng, n).compose(GroupElement.loop_rotation(n, gr(1, 1)))
        x = AffineElement(random_traceless(rng, n), random_gaussian(rng), gr(1))
        lhs = adjoint_act(g.compose(h), x)
        rhs = adjoint_act(g, adjoint_act(h, x))
        diff = lhs - rhs
        assert diff.mat.is_zero_3v() is not False
        assert diff.c_coef == gr(0) and diff.d_coef == gr(0)


def test_adjoint_preserves_nilpotency():
    rng = random.Random(9)
    from affnil import canonical_rep, partitions

    for _ in range(10):
        n = rng.randint(2, 4)
        sigma = rng.choice(partitions(n))
        x = AffineElement(canonical_rep(sigma, 0), random_gaussian(rng))
        g = random_group(rng, n)
        assert is_nilpotent(adjoint_act(g, x))


def test_adjoint_dimension_mismatch():
    from affnil import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        adjoint_act(GroupElement.identity(3), AffineElement(MatK.zero(2)))


def test_checked_group_element_modes():
    assert GroupElement.checked(MatK.identity(2)).det_mode is DetMode.EXACT_ONE
    certified = GroupElement.checked(MatK.diag([lp("t"), lp("t")]))
    assert certified.det_mode is DetMode.NTH_POWER_CERTIFIED
    from affnil import NotUnimodular

    with pytest.raises(NotUnimodular):
        GroupElement.checked(MatK.diag([lp("t"), lp("1")]))


def test_det_mode_of_each_determinant():
    assert det_mode_of(lp("1"), 3) is DetMode.EXACT_ONE
    assert det_mode_of(lp("1 + O(t^5)"), 3) is DetMode.NTH_POWER_CERTIFIED
    assert det_mode_of(lp("t^3"), 3) is DetMode.NTH_POWER_CERTIFIED
    from affnil import NotUnimodular

    for det in ("t", "0"):
        with pytest.raises(NotUnimodular):
            det_mode_of(lp(det), 3)


def test_checked_det_one_up_to_truncation_is_only_certified():
    """diag(1 + O(t^5), 1) admits the completion diag(1 + t^5, 1), whose SL_2
    part moves a unit derivation part to 5/2·t^5 + ... at (1, 1); an exact-one
    certificate would print an exact 0 there, so the element is refused."""
    g = GroupElement.checked(MatK.diag([lp("1 + O(t^5)"), lp("1")]))
    assert g.det_mode is DetMode.NTH_POWER_CERTIFIED
    d = AffineElement(MatK.zero(2), d_coef=gr(1))
    with pytest.raises(CertifiedDetWithDerivation):
        adjoint_act(g, d)
    root = lp("1 + t^5").nth_root(2)
    sl2 = GroupElement(gr(1), MatK.diag([root, root.inv()]), DetMode.EXACT_ONE)
    moved = adjoint_act(sl2, d).mat.rows[1][1]
    assert moved.order() == 5 and moved.coeffs[5] == gr(5) / gr(2)


def test_adjoint_is_bracket_automorphism_with_derivation_parts():
    # Ad g [x, y] = [Ad g x, Ad g y] on every line, with nonzero d-parts so
    # the -mu t g' g^-1 term and the 1/2 mu correction are both exercised
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(2, 3)
        g = random_group(rng, n, 3)
        x, y = (
            AffineElement(
                random_traceless(rng, n), random_gaussian(rng), gr(rng.randint(-1, 1))
            )
            for _ in range(2)
        )
        lhs = adjoint_act(g, bracket(x, y))
        rhs = bracket(adjoint_act(g, x), adjoint_act(g, y))
        diff = lhs - rhs
        assert diff.mat.is_zero_3v() is not False
        assert diff.c_coef == gr(0) and diff.d_coef == gr(0)


def _adjoint_four_products(g, a, working_prec, kappa):
    """Ad g by the defining formula, every product formed in full:
    g x g^-1 - mu t g' g^-1 + (la + res<g^-1 g', x - 1/2 mu t g^-1 g'>) c."""
    mu = a.d_coef
    t = LaurentElement.monomial(1)
    ginv = g.g.inv(working_prec)
    dg = g.g.d_dt()
    log_der = ginv * dg
    mat = g.g * a.mat * ginv - (dg * ginv).scale(t).scale(mu)
    shifted = a.mat - log_der.scale(t).scale(mu / gr(2))
    corr = form_t(log_der, shifted, kappa).residue()
    if g.z != gr(1):
        mat = mat.scale_t(g.z)
    return AffineElement(mat, a.c_coef + corr, mu)


def _truncate_one_entry(rng, g, margin):
    rows = [list(r) for r in g.g.rows]
    i, j = rng.choice([(i, j) for i in range(g.n) for j in range(g.n) if rows[i][j].coeffs])
    rows[i][j] = rows[i][j].truncated(max(rows[i][j].coeffs) + margin)
    return GroupElement(g.z, MatK(rows), g.det_mode)


def _shear_pair(rng, n):
    """(I + a t^e E_ij)(I + b t^f E_ji): unlike a single shear, its
    tr((g^-1 g')^2) has t^-2 terms, which the 1/2 mu correction reads."""
    i, j = rng.sample(range(n), 2)
    g = GroupElement.identity(n)
    for a, b in ((i, j), (j, i)):
        p = LaurentElement.monomial(rng.choice([-2, -1, 1, 2]), rng.choice([gr(1), gr(-2), gr(1, 1)]))
        g = g.compose(GroupElement.from_shear(n, a, b, p))
    return g


def _complete(rng, g):
    """g with random coefficients at and above its cut entry's bound."""
    rows = [[e if e.prec is None else LaurentElement(
        {**e.coeffs, **{e.prec + k: random_gaussian(rng) for k in range(3)}}) for e in r]
        for r in g.g.rows]
    return GroupElement(g.z, MatK(rows), g.det_mode)


def test_adjoint_on_a_truncated_group_agrees_with_its_completions():
    # g cut above an entry's top is g with an unknown tail there.  g itself
    # is one completion of it: every output entry agrees with Ad g below its
    # bound, and c is Ad g's whenever it is returned.  With mu = 0, another
    # completion, of det not 1, agrees wherever both outputs know a
    # coefficient (with mu != 0 its t g' g^-1 would carry a trace)
    rng = random.Random(29)
    outcomes = {"mu = 0": 0, "mu != 0": 0, "raised": 0, "truncated entries": 0}
    for trial in range(60):
        n = rng.randint(2, 4)
        g = random_group(rng, n, rng.randint(1, 3)).compose(_shear_pair(rng, n))
        cut = _truncate_one_entry(rng, g, rng.choice([1, 3, 8]))
        mu = gr(0) if trial % 2 else rng.choice([gr(1), gr(-2), gr(1, 1)])
        x = AffineElement(random_traceless(rng, n), random_gaussian(rng), mu)
        expected = [adjoint_act(g, x, 16)]
        assert expected[0].mat.all_exact(), trial
        if mu.is_zero:
            expected.append(adjoint_act(_complete(rng, cut), x, 64))
        try:
            out = adjoint_act(cut, x, 16)
        except PrecisionExhausted:
            outcomes["raised"] += 1
            continue
        for other in expected:
            for row, other_row in zip(out.mat.rows, other.mat.rows):
                for y, e in zip(row, other_row):
                    assert agree_below(y, e, min(trunc_bound(y), trunc_bound(e))), trial
            assert (out.c_coef, out.d_coef) == (other.c_coef, mu), trial
        outcomes["truncated entries"] += sum(y.prec is not None for row in out.mat.rows for y in row)
        outcomes["mu = 0" if mu.is_zero else "mu != 0"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_adjoint_matches_the_four_product_formula():
    # exact g: byte-identical.  Truncated g: g (x g^-1) and (g x) g^-1 may
    # carry different O(t^N), and the correction read as tr(g' y) and
    # tr(M M) may run out of precision where the four products do not, or
    # the other way round; where both give a result, they agree
    rng = random.Random(11)
    outcomes = {"exact": 0, "truncated": 0, "raised": 0, "mu term": 0}
    for trial in range(60):
        n = rng.randint(2, 4)
        g = random_group(rng, n, rng.randint(1, 3)).compose(_shear_pair(rng, n))
        if trial % 5:
            g = GroupElement.loop_rotation(n, rng.choice([gr(2), gr(1, 1), gr(-1, 2)])).compose(g)
        truncated = trial % 2 == 1
        if truncated:
            g = _truncate_one_entry(rng, g, rng.choice([1, 3, 8]))
        mu = gr(trial % 3 - 1)
        x = AffineElement(random_traceless(rng, n), random_gaussian(rng), mu)
        kappa = killing_coef(n) if trial % 4 else gr(1)
        try:
            expected = _adjoint_four_products(g, x, 16, kappa)
            out = adjoint_act(g, x, 16, kappa)
        except PrecisionExhausted:
            assert truncated, trial
            outcomes["raised"] += 1
            continue
        if truncated:
            assert (out.mat - expected.mat).is_zero_3v() is not False, trial
            assert (out.c_coef, out.d_coef) == (expected.c_coef, expected.d_coef), trial
        else:
            assert out == expected, trial
        outcomes["truncated" if truncated else "exact"] += 1
        if not (truncated or mu.is_zero):
            log_der = g.g.inv() * g.g.d_dt()
            outcomes["mu term"] += bool((log_der * log_der).trace().coeff(-2))
    assert min(outcomes.values()) >= 5, outcomes
