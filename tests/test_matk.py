from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affnil import (
    DimensionMismatch,
    LaurentElement,
    MatK,
    PrecisionExhausted,
    Singular,
    ZeroScale,
    gr,
)
from affnil.affine import GroupElement, adjoint_act, form_t
from affnil.laurent import DEFAULT_WORKING_PREC
from affnil import matk, zipoly
from affnil.errors import ExactDivisionError
from affnil.matk import (
    _Dual,
    _Plain,
    _dense_echelon,
    _dense_rows,
    _gauss_jordan,
    _inv_dense,
    _inverse_from_known_part,
    _non_unit_rows,
    _nonzero_entries,
    _pick_pivot,
    _pick_short,
    _products,
    _rank,
    _trace_coeff,
    _trace_pairs,
    det_and_adj_trace,
    normalize_vector,
    trace_coeff,
    vector_content,
)
from affnil.zipoly import P
from affnil.normalform import jordan_chains, nilpotent_powers
from affnil.selfcheck import (
    random_gaussian,
    random_group,
    random_laurent,
    random_orbit_case,
    random_shear,
    random_traceless,
)

from conftest import (
    agree_below,
    content_oracle,
    lp,
    mat,
    normalize_oracle,
    stress_case,
    trunc_bound,
)


def E(n, i, j, value="1"):
    return MatK.elementary(n, i, j, lp(value))


# -- ring operations -----------------------------------------------------------


def test_identity_and_products():
    x = mat([["1", "t"], ["t^-1", "-1"]])
    assert MatK.identity(2) * x == x
    assert E(2, 0, 1) * E(2, 1, 0) == E(2, 0, 0)
    shift = E(3, 0, 1) + E(3, 1, 2)
    assert shift**2 == E(3, 0, 2)
    assert shift**3 == MatK.zero(3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        MatK.identity(2) * MatK.identity(3)


def test_trace_and_scale_t():
    x = mat([["t", "1"], ["0", "t^-1"]])
    assert x.trace() == lp("t^-1 + t")
    assert x.scale_t(gr(2)) == mat([["2*t", "1"], ["0", "1/2*t^-1"]])


def test_trace_is_the_chained_sum_of_the_diagonal():
    # one accumulation over a common denominator gives what adding the
    # diagonal entry by entry gives, coefficients and bound alike
    assert mat([["1/2*t", "0", "0"], ["0", "-1/2*t + O(t^3)", "0"], ["0", "0", "1/3"]]
               ).trace() == lp("1/3 + O(t^3)")
    assert mat([["t^5", "1"], ["0", "1 + O(t^2)"]]).trace() == lp("1 + O(t^2)")
    assert mat([["(1/2+i)", "0"], ["0", "(-1/2-i)"]]).trace() == lp("0")
    assert MatK.identity(0).trace() == lp("0")
    rng = random.Random("trace")
    for trial in range(300):
        n = rng.randint(1, 6)
        rows = [[random_laurent(rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.3:
                rows[i][i] = rows[i][i].truncated(rng.randint(-3, 4))
        if rng.random() < 0.5:
            rows[-1][-1] = rows[-1][-1] - sum((rows[i][i] for i in range(n)), lp("0"))
        m = MatK(rows)
        chained = lp("0")
        for i in range(n):
            chained = chained + m.rows[i][i]
        assert repr(m.trace()) == repr(chained) and m.trace() == chained, trial


# -- determinant ----------------------------------------------------------------


def test_det_examples():
    assert MatK.identity(3).det() == lp("1")
    assert (MatK.identity(2) + E(2, 1, 0, "t^-1")).det() == lp("1")
    assert MatK.diag([lp("t"), lp("t^-1")]).det() == lp("1")


def test_det_exact_on_exact_input():
    rng = random.Random(11)
    for _ in range(20):
        a = random_traceless(rng, 3)
        b = random_traceless(rng, 3)
        ab = (a * b).det()
        assert ab.prec is None
        assert ab == a.det() * b.det()


def _cofactor_det(m: MatK) -> LaurentElement:
    """Oracle: recursive cofactor expansion along the first row."""
    n = m.n
    if n == 1:
        return m.rows[0][0]
    total = lp("0")
    for j in range(n):
        entry = m.rows[0][j]
        if entry.is_zero_3v() is True:
            continue
        minor = MatK(
            [[m.rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        )
        term = entry * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_against_cofactor_oracle():
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randint(2, 4)
        m = random_traceless(rng, n)
        assert m.det() == _cofactor_det(m)


def test_det_division_path_with_truncated_entries():
    e = LaurentElement({0: gr(1), 1: gr(1)}, 8)
    m = MatK([[e, lp("0")], [lp("1"), lp("t")]])
    d = m.det()
    assert d.equals(lp("t") * e) is not False


def _det_division(m: MatK, working_prec: int) -> LaurentElement:
    """Oracle: division-based Gaussian elimination below the pivots only."""
    rows = [list(r) for r in m.rows]
    n = len(rows)
    sign = 1
    acc = lp("1")
    for k in range(n):
        idx = _pick_pivot([(i, rows[i][k]) for i in range(k, n)])
        if idx is None:
            return lp("0")
        if idx != k:
            rows[k], rows[idx] = rows[idx], rows[k]
            sign = -sign
        p = rows[k][k]
        acc = acc * p
        pinv = p.inv(working_prec)
        for i in range(k + 1, n):
            mik = rows[i][k]
            if mik.is_zero_3v() is True:
                continue
            factor = mik * pinv
            for j in range(k + 1, n):
                rows[i][j] = rows[i][j] - factor * rows[k][j]
            rows[i][k] = lp("0")
    return acc if sign == 1 else -acc


def test_truncated_det_matches_gaussian_elimination():
    rng = random.Random(29)
    raised = 0
    for trial in range(120):
        n = rng.randint(2, 6)
        if trial % 2:
            rows = [list(r) for r in (random_traceless(rng, n) + MatK.identity(n)).rows]
        else:
            rows = [list(r) for r in _shear_product(rng, n, rng.randint(1, 4)).rows]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            top = max(rows[i][j].coeffs, default=0)
            rows[i][j] = rows[i][j].truncated(top + rng.choice([1, 2, 6, 20]))
        g = MatK(rows)
        try:
            expected = _det_division(g, 24)
        except PrecisionExhausted:
            raised += 1
            with pytest.raises(PrecisionExhausted):
                g.det(24)
            continue
        assert g.det(24) == expected, trial
    assert 5 <= raised <= 60


# -- inverse ---------------------------------------------------------------------


def test_inv_examples():
    shear = MatK.identity(2) + E(2, 1, 0, "t^-1")
    inv = shear.inv()
    assert inv == MatK.identity(2) - E(2, 1, 0, "t^-1")
    assert MatK.diag([lp("1"), lp("t")]).inv() == MatK.diag([lp("1"), lp("t^-1")])
    with pytest.raises(Singular):
        MatK.zero(2).inv()


def test_inv_multiplies_back_to_identity():
    rng = random.Random(5)
    for _ in range(15):
        a = random_traceless(rng, 3) + MatK.identity(3)
        try:
            inv = a.inv(24)
        except Singular:
            continue
        assert (a * inv - MatK.identity(3)).is_zero_3v() is not False
        assert (inv * a - MatK.identity(3)).is_zero_3v() is not False


def test_inv_exact_when_det_is_monomial():
    g = (MatK.identity(3) + E(3, 0, 1, "t^2 - 1")) * (
        MatK.identity(3) + E(3, 2, 0, "t^-1")
    )
    inv = g.inv()
    assert all(e.prec is None for row in inv.rows for e in row)
    assert g * inv == MatK.identity(3)


def _cofactor_inverse(m: MatK) -> MatK:
    """Oracle: adj(A) * det(A)^-1 with every cofactor by expansion."""
    n = m.n

    def cofactor(i, j):
        minor = MatK(
            [[m.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        )
        c = _cofactor_det(minor)
        return c if (i + j) % 2 == 0 else -c

    adj = [[cofactor(j, i) for j in range(n)] for i in range(n)] if n > 1 else [[lp("1")]]
    return MatK(adj).scale(_cofactor_det(m).inv(DEFAULT_WORKING_PREC))


def _shear_product(rng: random.Random, n: int, shears: int) -> MatK:
    g = MatK.identity(n)
    for _ in range(shears):
        g = g * random_shear(rng, n).g
    return g


def _scale_row(m: MatK, i: int, factor: LaurentElement) -> MatK:
    rows = [list(r) for r in m.rows]
    rows[i] = [e * factor for e in rows[i]]
    return MatK(rows)


def test_inv_matches_cofactor_oracle():
    for entry in ("2*t^3", "1 + t"):
        g = mat([[entry]])
        assert g.inv() == _cofactor_inverse(g)
    rng = random.Random(77)
    one_plus_t = lp("1 + t")
    for n in range(2, 7):
        for trial in range(3):
            g = _shear_product(rng, n, rng.randint(1, 4))
            if trial == 1:
                g = _scale_row(g, rng.randrange(n), one_plus_t)
            elif trial == 2:
                g = random_traceless(rng, n) + MatK.identity(n)
                if _cofactor_det(g).is_zero_3v() is True:
                    continue
            assert g.inv() == _cofactor_inverse(g), (n, trial)


def test_inv_oracle_with_row_swap_and_non_monomial_det():
    # least valuation of the first column sits off the diagonal: a swap is forced
    swap_unimodular = mat([["1", "t"], ["t^-1", "0"]])
    swap_generic = mat([["t", "1", "0"], ["t^-1", "1", "t"], ["2", "0", "1"]])
    for g in (swap_unimodular, swap_generic):
        first_col = [row[0].order() for row in g.rows]
        assert first_col.index(min(first_col)) != 0
        assert g.inv() == _cofactor_inverse(g)
    assert swap_unimodular.inv().all_exact()
    assert len(swap_generic.det().coeffs) > 1
    truncated = swap_generic.inv()
    assert not truncated.all_exact()
    assert (swap_generic * truncated - MatK.identity(3)).is_zero_3v() is not False


def _dense_column(column):
    """Pivot candidates (row, shift, entry) of a column of Laurent entries,
    each entry being the whole of its row."""
    out = []
    for i, e in column:
        _, shift, (f,) = zipoly.from_row([e])
        out.append((i, shift, f))
    return out


def test_exact_inverse_takes_the_shortest_pivot():
    # the least-valuation entry of column 0 is a binomial, the shortest is 1
    column = [(0, lp("t^-2 + 1")), (1, lp("0")), (2, lp("3*t")), (3, lp("t^-1 + t"))]
    assert _pick_pivot(column) == 0
    assert _pick_short(_dense_column(column)) == 2
    assert _pick_short(_dense_column([(0, lp("t + 1")), (1, lp("t^-1 + 1"))])) == 1
    assert _pick_short(_dense_column([(0, lp("0")), (1, lp("0"))])) is None
    for g in (
        mat([["t^-2 + 1", "1", "0"], ["1", "0", "t"], ["0", "t^-1", "1"]]),
        mat([["t^-2 + 1", "1", "0"], ["3*t", "1 + t", "0"], ["t^-1 + t", "0", "2"]]),
    ):
        assert g.inv() == _cofactor_inverse(g)


def _inv_full_rows(m: MatK, working_prec: int) -> MatK:
    """Oracle: division-based Gauss-Jordan updating every entry of every row."""
    n = m.n
    left = [list(r) for r in m.rows]
    right = [list(r) for r in MatK.identity(n).rows]
    for k in range(n):
        idx = _pick_pivot([(i, left[i][k]) for i in range(k, n)])
        if idx is None:
            raise Singular("matrix is exactly singular")
        left[k], left[idx] = left[idx], left[k]
        right[k], right[idx] = right[idx], right[k]
        pinv = left[k][k].inv(working_prec)
        left[k] = [e * pinv for e in left[k]]
        left[k][k] = lp("1")
        right[k] = [e * pinv for e in right[k]]
        for i in range(n):
            f = left[i][k]
            if i == k or f.is_zero_3v() is True:
                continue
            left[i] = [left[i][j] - f * left[k][j] for j in range(n)]
            left[i][k] = lp("0")
            right[i] = [right[i][j] - f * right[k][j] for j in range(n)]
    return MatK(right)


def _at_least_as_precise(got: MatK, oracle: MatK) -> bool:
    """Every entry of got is known at least as far as oracle's, and the two
    agree on every coefficient that both know."""
    return all(trunc_bound(x) >= trunc_bound(y) and agree_below(x, y, trunc_bound(y))
               for rx, ry in zip(got.rows, oracle.rows) for x, y in zip(rx, ry))


def test_truncated_inverse_agrees_with_full_row_elimination():
    rng = random.Random(23)
    checked = 0
    for trial in range(40):
        n = rng.randint(2, 6)
        uncut = _shear_product(rng, n, rng.randint(1, 4))
        rows = [list(r) for r in uncut.rows]
        i, j = rng.randrange(n), rng.randrange(n)
        top = max(rows[i][j].coeffs, default=0)
        rows[i][j] = rows[i][j].truncated(top + rng.choice([1, 6, 20]))
        g = MatK(rows)
        try:
            inverse = g.inv(24)
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                _inv_full_rows(g, 24)
            continue
        # the uncut product is a completion of g, with an exact inverse
        assert _agrees_with_division_path(uncut.inv(), inverse), trial
        try:
            expected = _inv_full_rows(g, 24)
        except PrecisionExhausted:
            continue
        assert _at_least_as_precise(inverse, expected), trial
        checked += 1
    assert checked >= 30


def test_truncated_inverse_from_the_known_part_examples():
    # Sherman–Morrison with one cut entry: (I + δ·E_01)⁻¹ = I − δ·E_01
    g = mat([["1", "t + O(t^4)"], ["0", "1"]])
    assert g.inv() == mat([["1", "-t + O(t^4)"], ["0", "1"]])
    # only the path 0 → 1 → 2 through both cut entries reaches entry (0, 2):
    # it is δ₁·δ₂, of valuation at least 2 + 3, not exactly 0
    g = mat([["1", "O(t^2)", "0"], ["0", "1", "O(t^3)"], ["0", "0", "1"]])
    assert g.inv() == mat([["1", "O(t^2)", "O(t^5)"], ["0", "1", "O(t^3)"], ["0", "0", "1"]])
    # entries that no cut entry reaches stay exact
    g = mat([["1", "0", "0"], ["2*t^-1", "1", "1 + O(t^6)"], ["0", "0", "1"]])
    inverse = g.inv()
    assert inverse.rows[0] == (lp("1"), lp("0"), lp("0"))
    assert inverse.rows[1][2] == lp("-1 + O(t^6)")
    assert _inverse_from_known_part(_nonzero_entries(g.rows)) == inverse


@pytest.mark.parametrize("rows", [
    # v < 1: the cut entry's bound lies below 1
    [["1", "O(t^-5)"], ["0", "1"]],
    # the cut lies at 1, but R_00 = t^-1 brings m_01 down to 0
    [["t", "1 + O(t^1)"], ["0", "t^-1"]],
    # the known part has det 1 + t − t³, not a monomial
    [["1 + t", "t + O(t^4)"], ["t^2", "1"]],
    [["t^-1 + 2", "1"], ["3", "1 + O(t^5)"]],
])
def test_truncated_inverse_falls_back_to_the_division_loop(rows):
    g = mat(rows)
    assert _inverse_from_known_part(_nonzero_entries(g.rows)) is None
    assert g.inv(24) == _gauss_jordan(g, 24, inverse=True)


def test_truncated_inverse_with_a_singular_known_part_keeps_its_errors():
    g = mat([["1", "1"], ["1", "1 + O(t^3)"]])
    assert _inverse_from_known_part(_nonzero_entries(g.rows)) is None
    with pytest.raises(PrecisionExhausted):
        _gauss_jordan(g, 24, inverse=True)
    with pytest.raises(PrecisionExhausted):
        g.inv(24)
    g = mat([["0", "1 + O(t^3)"], ["0", "1"]])
    assert _inverse_from_known_part(_nonzero_entries(g.rows)) is None
    assert _gauss_jordan(g, 24, inverse=True) is None
    with pytest.raises(Singular):
        g.inv(24)


def _cut_matrices(rng: random.Random):
    """Seeded matrices with one to three entries cut: shear products (det 1),
    the same with one row scaled (det 1 + t, 2·t^-1 or t^2 − t^-1), and
    perturbed identities.  Most cuts lie 1, 3 or 8 above the entry's top, the
    others at or below it."""
    for trial in range(300):
        n = rng.randint(2, 5)
        kind = trial % 3
        if kind == 0:
            m = _shear_product(rng, n, rng.randint(1, 4))
        elif kind == 1:
            m = _scale_row(_shear_product(rng, n, rng.randint(1, 3)), rng.randrange(n),
                           rng.choice([lp("1 + t"), lp("2*t^-1"), lp("t^2 - t^-1")]))
        else:
            m = random_traceless(rng, n) + MatK.identity(n)
        rows = [list(r) for r in m.rows]
        for _ in range(rng.randint(1, 3)):
            k, l = rng.randrange(n), rng.randrange(n)
            x = rows[k][l]
            top = max(x.coeffs, default=0)
            cut = top + rng.choice([1, 3, 8]) if rng.random() < 0.8 else rng.randint(top - 3, top)
            rows[k][l] = x.truncated(cut)
        yield trial, MatK(rows)


def _completion(rng: random.Random, m: MatK) -> MatK:
    """m with random exact coefficients at and above each cut entry's bound."""
    rows = []
    for r in m.rows:
        row = []
        for x in r:
            if x.prec is not None:
                tail = {x.prec + e: random_gaussian(rng) for e in range(4)}
                x = LaurentElement({**x.coeffs, **tail})
            row.append(x)
        rows.append(row)
    return MatK(rows)


def test_truncated_inverse_agrees_with_every_completion():
    rng = random.Random(41)
    routed = fell_back = 0
    for trial, m in _cut_matrices(rng):
        try:
            inverse = m.inv(24)
        except (PrecisionExhausted, Singular):
            continue
        if _inverse_from_known_part(_nonzero_entries(m.rows)) is None:
            fell_back += 1
        else:
            routed += 1
            assert _at_least_as_precise(inverse, _gauss_jordan(m, 24, inverse=True)), trial
        for _ in range(2):
            # D·C⁻¹ = t^shift·right/den is exact for the completion C, with
            # D = t^shift·d/den: x agrees with C⁻¹ below its bound b exactly
            # when D·x agrees with D·C⁻¹ below b + val D, the bound of D·x
            try:
                d, shift, den, right = _dense_inverse(_completion(rng, m))
            except Singular:
                continue
            det = zipoly.to_laurent(d, shift, den)
            for row, right_row in zip(inverse.rows, right):
                for x, y in zip(row, right_row):
                    product = x * det
                    assert agree_below(product, zipoly.to_laurent(y, shift, den),
                                        trunc_bound(product)), trial
    assert routed >= 50 and fell_back >= 50, (routed, fell_back)


def _known_part_bound_oracle(mat: MatK):
    """:func:`_inverse_from_known_part` by its bound rule in full: every
    valuation of R = B⁻¹ read, every entry of A⁻¹ given its bound."""
    n = mat.n
    cuts = [(k, l, e.prec) for k, r in enumerate(mat.rows)
            for l, e in enumerate(r) if e.prec is not None]
    known = MatK([[LaurentElement(e.coeffs) for e in r] for r in mat.rows])
    try:
        inverse = known.inv()
    except Singular:
        return None
    if not inverse.all_exact():  # d is not a monomial
        return None
    val = [[min(e.coeffs) if e.coeffs else math.inf for e in r] for r in inverse.rows]
    cols = sorted({l for _, l, _ in cuts})
    weight = [dict.fromkeys(cols, math.inf) for _ in range(n)]
    for k, l, cut in cuts:
        for i in range(n):
            weight[i][l] = min(weight[i][l], val[i][k] + cut)
    if any(w < 1 for row in weight for w in row.values()):
        return None
    for c in cols:
        for i in range(n):
            for l in cols:
                weight[i][l] = min(weight[i][l], weight[i][c] + weight[c][l])
    out = []
    for i, r in enumerate(inverse.rows):
        out_row = []
        for j, x in enumerate(r):
            bound = min(weight[i][l] + val[l][j] for l in cols)
            out_row.append(x if bound == math.inf else LaurentElement(x.coeffs, bound))
        out.append(out_row)
    return MatK(out)


def _unit_diagonal_cuts(rng: random.Random):
    """Shear products with the diagonal 1 of a unit row cut to 1 + O(t^N),
    sometimes with a second cut entry."""
    for trial in range(60):
        n = rng.randint(3, 8)
        m = _shear_product(rng, n, rng.randint(1, min(3, n - 1)))
        units = [i for i in range(n) if i not in _non_unit_rows(_nonzero_entries(m.rows))]
        rows = [list(r) for r in m.rows]
        u = rng.choice(units)
        rows[u][u] = lp(f"1 + O(t^{rng.choice([1, 2, 5, 20])})")
        if trial % 2:
            k, l = rng.randrange(n), rng.randrange(n)
            x = rows[k][l]
            rows[k][l] = x.truncated(max(x.coeffs, default=0) + rng.choice([1, 3, 8]))
        yield trial, MatK(rows)


def _act_style_truncated_groups():
    """45 groups built as the act-wide benchmark builds its truncated ones:
    a loop rotation composed with 1 to 5 random shears at n = 8, 10, 12, one
    nonzero entry cut 32 above its top."""
    sizes, rotations = (8, 10, 12), (gr(1), gr(2), gr(1, 1))
    for idx in range(3, 180, 4):
        n = sizes[idx % 3]
        rng = random.Random(f"act-style:{idx}")
        g = random_shear(rng, n)
        for _ in range((idx // 3) % 5):
            g = g.compose(random_shear(rng, n))
        g = GroupElement.loop_rotation(n, rotations[(idx // 15) % 3]).compose(g)
        rows = [list(r) for r in g.g.rows]
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if rows[i][j].coeffs])
        rows[i][j] = rows[i][j].truncated(max(rows[i][j].coeffs) + 32)
        yield idx, MatK(rows)


@pytest.mark.parametrize("family", ["completion", "unit diagonal", "act-style"])
def test_inverse_from_the_known_part_matches_the_full_bound_rule(family):
    # the bound read at the cut rows' columns and cut columns' rows of R,
    # with only the entries of finite bound rebuilt, is the rule in full
    cases = {"completion": lambda: _cut_matrices(random.Random(41)),
             "unit diagonal": lambda: _unit_diagonal_cuts(random.Random("unit-diagonal")),
             "act-style": _act_style_truncated_groups}[family]
    routed = 0
    for trial, m in cases():
        expected = _known_part_bound_oracle(m)
        got = _inverse_from_known_part(_nonzero_entries(m.rows))
        assert got == expected, trial
        if got is not None:
            assert repr(got) == repr(expected), trial
            routed += 1
    assert routed >= {"completion": 50, "unit diagonal": 50, "act-style": 45}[family]


def test_inv_raises_singular_at_rank_n_minus_one():
    rng = random.Random(19)
    for n in (2, 3, 5):
        rows = [
            [random_laurent(rng, nonzero=True) for _ in range(n)] for _ in range(n - 1)
        ]
        f = random_laurent(rng, nonzero=True)
        rows.append([a + f * b for a, b in zip(rows[0], rows[-1])])
        m = MatK(rows)
        assert m.rank() == n - 1
        with pytest.raises(Singular):
            m.inv()


def test_inv_of_wide_shear_product_is_exact():
    g = _shear_product(random.Random(12), 12, 8)
    assert g.det() == lp("1")
    inv = g.inv()
    assert inv.all_exact()
    assert g * inv == MatK.identity(12)


# -- rank -------------------------------------------------------------------------


def _numeric_rank(m: MatK, t_value: Fraction) -> int:
    """Independent oracle: substitute a rational t and eliminate over Q(i)."""
    rows = []
    for row in m.rows:
        out = []
        for e in row:
            acc = gr(0)
            for exp, c in e.coeffs.items():
                acc = acc + c * gr(t_value**exp)
            out.append(acc)
        rows.append(out)
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if not rows[i][col].is_zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for i in range(n):
            if i != rank and not rows[i][col].is_zero:
                f = rows[i][col] / pivot
                rows[i] = [rows[i][j] - f * rows[rank][j] for j in range(n)]
        rank += 1
    return rank


def test_rank_examples():
    assert E(2, 0, 1).rank() == 1
    assert MatK.zero(3).rank() == 0
    assert MatK.identity(4).rank() == 4


def test_rank_of_canonical_powers_against_numeric_oracle():
    from affnil import canonical_rep

    d = canonical_rep((4,), 2)
    expected = [_numeric_rank(d**j, Fraction(3, 7)) for j in range(5)]
    assert expected == [4, 3, 2, 1, 0]
    assert [(d**j).rank() for j in range(5)] == expected


def test_rank_monotone_under_powers():
    rng = random.Random(23)
    for _ in range(10):
        x = random_traceless(rng, 3)
        ranks = [(x**j).rank() for j in range(4)]
        assert ranks[0] == 3
        assert all(ranks[i] >= ranks[i + 1] for i in range(3))


def test_rank_raises_on_undetermined():
    unknown = LaurentElement({}, 4)
    m = MatK([[unknown, lp("0")], [lp("0"), lp("1")]])
    with pytest.raises(PrecisionExhausted):
        m.rank()


# -- derivative -------------------------------------------------------------------


def test_d_dt_examples():
    assert MatK.identity(2).d_dt() == MatK.zero(2)
    assert E(2, 0, 1, "t").d_dt() == E(2, 0, 1)
    assert (MatK.identity(2) + E(2, 1, 0, "t^-1")).d_dt() == E(2, 1, 0, "-t^-2")


def test_product_rule():
    rng = random.Random(3)
    for _ in range(10):
        a = random_traceless(rng, 3)
        b = random_traceless(rng, 3)
        assert (a * b).d_dt() == a.d_dt() * b + a * b.d_dt()


# -- kernels and the dual-number determinant ---------------------------------------


def test_kernel_basis_exact_and_in_kernel():
    x = mat([["0", "4*t^2 + 4*t^3"], ["0", "0"]])
    basis = x.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert all(e.prec is None for e in v)
    assert all(e.is_zero_3v() is True for e in x.apply(v))


def test_kernel_of_zero_matrix_is_standard_basis():
    basis = MatK.zero(3).kernel_basis()
    assert len(basis) == 3
    assert basis[0] == (lp("1"), lp("0"), lp("0"))


def test_truncated_kernel_with_no_free_column_is_empty():
    assert mat([["1 + O(t^5)"]]).kernel_basis() == []


def _all_pivots_kernel(m: MatK):
    """Oracle: back-substitution from the product of every echelon pivot at
    the free coordinate, which makes every division exact."""
    n = m.n
    ech = _oracle_echelon([list(r) for r in m.rows], n)
    pivot_cols = [c for c, _ in ech]
    prod = lp("1")
    for c, row in ech:
        prod = prod * row[c]
    basis = []
    for f in (c for c in range(n) if c not in pivot_cols):
        v = [lp("0")] * n
        v[f] = prod
        for c, row in reversed(ech):
            acc = lp("0")
            for j in range(c + 1, n):
                acc = acc + row[j] * v[j]
            v[c] = (-acc).exact_div(row[c])
        basis.append(normalize_vector(tuple(v)))
    return basis


def _terms(v) -> int:
    return sum(len(e.coeffs) for e in v)


def _check_kernel(m: MatK):
    basis = m.kernel_basis()
    oracle = _all_pivots_kernel(m)
    assert len(basis) == len(oracle) == m.n - m.rank()
    for v, w in zip(basis, oracle):
        assert all(e.prec is None for e in v)
        assert all(e.is_zero_3v() is True for e in m.apply(v))
        # v = q w for some q in K: every 2x2 minor of [v w] vanishes
        n = m.n
        assert all(v[i] * w[j] == v[j] * w[i] for i in range(n) for j in range(i + 1, n))
        assert _terms(v) <= _terms(w)
    if basis:
        rows = [list(v) for v in basis] + [[lp("0")] * m.n] * (m.n - len(basis))
        assert MatK(rows).rank() == len(basis)
    return basis


def test_kernel_basis_of_powers_of_random_conjugates():
    rng = random.Random(12)
    for n in range(2, 9):
        for _ in range(3):
            _, _, _, elem, _ = random_orbit_case(rng, n)
            x = adjoint_act(random_group(rng, n, 6), elem).mat
            for power in nilpotent_powers(x)[1:-1]:
                _check_kernel(power)


def test_kernel_basis_of_rank_deficient_shear_products():
    rng = random.Random(13)
    for n in range(2, 7):
        for rank in range(n):
            d = MatK.diag([lp("1")] * rank + [lp("0")] * (n - rank))
            m = _shear_product(rng, n, 4) * d * _shear_product(rng, n, 4)
            assert len(_check_kernel(m)) == n - rank


def test_kernel_basis_of_a_near_miss_takes_the_multiply_path():
    t_minus_1 = lp("t - 1")
    # congruent to t - 1 mod p, but not divisible by it: the vector of the
    # row (t - 1, t - 1 - p) keeps the pivot
    near = lp(f"t - {1 + P}")
    m = MatK([[t_minus_1, near], [lp("0"), lp("0")]])
    assert _check_kernel(m) == [(-near, t_minus_1)]
    m = MatK([[t_minus_1, near * t_minus_1], [lp("0"), lp("0")]])
    assert _check_kernel(m) == [(-near, lp("1"))]


def test_kernel_basis_divides_by_a_pivot_with_content_and_a_t_power():
    cases = [
        # 2 t^3 / 4 t = 1/2 t^2 and 1 / 4 t, with the scalar and t-power cleared
        (
            mat([["4*t", "2*t^3", "1"], ["0", "0", "0"], ["0", "0", "0"]]),
            [(lp("-t^2"), lp("2"), lp("0")), (lp("-1"), lp("0"), lp("4*t"))],
        ),
        # a pivot (1 + i)(t + 1) divides (t + 1)(t + 2); its content is not real
        (
            mat([["(1+i)*t + (1+i)", "t^2 + 3*t + 2"], ["0", "0"]]),
            [(lp("(-2+2i) + (-1+i)*t"), lp("2"))],
        ),
        (
            mat([["(2+4i)*t^3 + (2+4i)*t^2", "t^2 + 3*t + 2"], ["0", "0"]]),
            [(lp("(-2+4i) + (-1+2i)*t"), lp("10*t^2"))],
        ),
    ]
    for m, expected in cases:
        assert _check_kernel(m) == expected
        assert _oracle_kernel(m) == expected


def test_kernel_basis_divides_wide_sparse_entries_exactly():
    m = MatK([[lp("t^20000 - 1"), lp("t^40000 - 1")], [lp("0"), lp("0")]])
    assert _check_kernel(m) == [(-lp("t^20000 + 1"), lp("1"))]
    m = MatK([[lp("t^500000 - 1"), lp("t^1000000 - 1")], [lp("0"), lp("0")]])
    assert _check_kernel(m) == [(-lp("t^500000 + 1"), lp("1"))]


def test_kernel_basis_with_p_in_a_denominator_divides_exactly():
    # the row normalises to (p t + 1, (p t + 1)(t + 2)), and the pivot divides
    inv_p = lp(f"t + 1/{P}")
    m = MatK([[inv_p, inv_p * lp("t + 2")], [lp("0"), lp("0")]])
    assert _check_kernel(m) == [(lp("-2 - t"), lp("1"))]


_CONTENT_COEFS = [
    gr(1), gr(-2), gr(0, 3), gr(Fraction(1, 2)), gr(Fraction(-3, 4), 1),
    gr(2, Fraction(-5, 6)), gr(Fraction(7, 9), Fraction(2, 3)), gr(0, Fraction(-1, 12)),
]


def _content_vectors(rng: random.Random):
    """Seeded exact vectors with complex and rational coefficients and
    negative exponents, each scaled by a common factor c·t^e."""
    for _ in range(300):
        width = rng.randint(1, 5)
        v = [LaurentElement({rng.randint(-5, 5): rng.choice(_CONTENT_COEFS)
                             for _ in range(rng.randint(0, 3))}) for _ in range(width)]
        factor = LaurentElement({rng.randint(-4, 4): rng.choice(_CONTENT_COEFS)
                                 * rng.choice((1, 2, 6, -15))})
        yield tuple(e * factor for e in v)


def test_vector_content_matches_the_gcd_lcm_loop():
    rng = random.Random("vector-content")
    zero_seen = 0
    for v in _content_vectors(rng):
        want = content_oracle(v)
        zero_seen += want is None
        assert vector_content(v) == want, v
        w = normalize_vector(v)
        assert w == normalize_oracle(v), v
        if want is not None:
            c, e = want
            assert tuple(x.shift(e).scale(c) for x in w) == v
    assert zero_seen
    zero = (lp("0"), lp("0"), lp("0"))
    assert vector_content(zero) is None
    assert normalize_vector(zero) == zero
    cut = (lp("2*t^-1 + 4"), LaurentElement({0: gr(6)}, 3))
    assert vector_content(cut) is None and content_oracle(cut) is None
    assert normalize_vector(cut) == cut
    assert vector_content((lp("(3/2+3i)*t^-2"), lp("(-9/4)*t"))) == (gr(Fraction(3, 4)), -2)


def test_det_and_adj_trace_matches_direct_formula():
    rng = random.Random(9)
    for _ in range(10):
        p = random_traceless(rng, 3) + MatK.identity(3)
        m = random_traceless(rng, 3)
        try:
            det, adj_tr = det_and_adj_trace(p, m)
        except Singular:
            continue
        assert det == p.det()
        direct = (p.inv(32) * m).trace()
        scaled = adj_tr * det.inv(32)
        assert (direct - scaled).is_zero_3v() is not False


# -- the dense kernel against the Laurent-element loops it replaced ----------------
#
# The oracles below are the fraction-free loops that ran on LaurentElement
# entries before elimination moved onto Z[i][t].  The determinants do not
# depend on the pivot order and the exact inverse keeps its pivot rule, so
# those results are the reference byte for byte: the same det, the same
# (det, adj trace), the same (d, d·A⁻¹).  The echelon oracle keeps rows
# primitive instead of dividing by the previous pivot, so its rows differ
# from the dense ones; what must agree is the pivot columns, the rank and
# the span of the kernel.


def _oracle_pick_short(entries):
    best = None
    for idx, e in entries:
        if e.coeffs:
            key = (len(e.coeffs), min(e.coeffs), idx)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def _oracle_det(m: MatK) -> LaurentElement:
    rows = [list(r) for r in m.rows]
    n = len(rows)
    if n == 0:
        return lp("1")
    sign = 1
    prev = lp("1")
    for k in range(n - 1):
        idx = _pick_pivot([(i, rows[i][k]) for i in range(k, n)])
        if idx is None:
            return lp("0")
        if idx != k:
            rows[k], rows[idx] = rows[idx], rows[k]
            sign = -sign
        p = rows[k][k]
        for i in range(k + 1, n):
            mik = rows[i][k]
            for j in range(k + 1, n):
                num = p * rows[i][j] - mik * rows[k][j]
                rows[i][j] = num if prev.is_one() else num.exact_div(prev)
            rows[i][k] = lp("0")
        prev = p
    d = rows[n - 1][n - 1]
    return d if sign == 1 else -d


def _oracle_dual_det(p_mat: MatK, m_mat: MatK):
    n = p_mat.n
    rows = [[(p_mat.rows[i][j], m_mat.rows[i][j]) for j in range(n)] for i in range(n)]

    def mul(x, y):
        return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])

    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def div(x, y):
        q = x[0].exact_div(y[0])
        return (q, (x[1] - q * y[1]).exact_div(y[0]))

    sign = 1
    prev = (lp("1"), lp("0"))
    for k in range(n - 1):
        idx = _pick_pivot([(i, rows[i][k][0]) for i in range(k, n)])
        if idx is None:
            raise Singular("matrix is exactly singular")
        if idx != k:
            rows[k], rows[idx] = rows[idx], rows[k]
            sign = -sign
        p = rows[k][k]
        for i in range(k + 1, n):
            mik = rows[i][k]
            for j in range(k + 1, n):
                num = sub(mul(p, rows[i][j]), mul(mik, rows[k][j]))
                rows[i][j] = num if prev[0].is_one() and not prev[1].coeffs else div(num, prev)
            rows[i][k] = (lp("0"), lp("0"))
        prev = p
    det, adj_tr = rows[n - 1][n - 1]
    return (det, adj_tr) if sign == 1 else (-det, -adj_tr)


def _oracle_echelon(rows, width):
    active = [list(normalize_vector(tuple(r))) for r in rows]
    result = []
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
            new_r = [p * r[j] - rc * pivot_row[j] if j > col else lp("0") for j in range(width)]
            nxt.append(list(normalize_vector(tuple(new_r))))
        active = nxt
        result.append((col, pivot_row))
    return result


def _oracle_kernel(m: MatK):
    """MatK.kernel_basis's back-substitution on the oracle echelon."""
    n = m.n
    ech = _oracle_echelon([list(r) for r in m.rows], n)
    pivot_cols = [c for c, _ in ech]
    basis = []
    for f in (c for c in range(n) if c not in pivot_cols):
        v = [lp("0")] * n
        v[f] = lp("1")
        for c, row in reversed(ech):
            acc = lp("0")
            for j in range(c + 1, n):
                acc = acc + row[j] * v[j]
            if acc.coeffs:
                try:
                    v[c] = (-acc).exact_div(row[c])
                except ExactDivisionError:
                    v = [e * row[c] for e in v]
                    v[c] = -acc
        basis.append(normalize_vector(tuple(v)))
    return basis


def _dense_inverse(m: MatK):
    """(d, shift, den, right) of :func:`_inv_dense`, with right expanded to
    the n x n grid of polynomials of d·A⁻¹ = t^shift·right/den: the listed
    rows of R, and d on the diagonal of every other row."""
    d, shift, den, rows = _inv_dense(_nonzero_entries(m.rows))
    right = [[d if i == j else [] for j in range(m.n)] for i in range(m.n)]
    for i, pairs in rows:
        right[i][i] = []
        for j, f in pairs:
            right[i][j] = f
    return d, shift, den, right


def _scaled_inverse(m: MatK):
    """(d, d·A⁻¹) as Laurent elements, from the pass of :func:`_inv_dense`."""
    d, shift, den, right = _dense_inverse(m)
    return (zipoly.to_laurent(d, shift, den),
            MatK([[zipoly.to_laurent(e, shift, den) for e in r] for r in right]))


def _oracle_inv_bareiss(m: MatK):
    n = m.n
    left = [list(r) for r in m.rows]
    right = [list(r) for r in MatK.identity(n).rows]
    prev = lp("1")
    sign = 1
    for k in range(n):
        idx = _oracle_pick_short([(i, left[i][k]) for i in range(k, n)])
        if idx is None:
            raise Singular("matrix is exactly singular")
        if idx != k:
            left[k], left[idx] = left[idx], left[k]
            right[k], right[idx] = right[idx], right[k]
            sign = -sign
        p = left[k][k]
        for i in range(n):
            if i == k:
                continue
            f = left[i][k]
            for dst, src, start in ((left[i], left[k], k + 1), (right[i], right[k], 0)):
                for j in range(start, n):
                    num = p * dst[j] - f * src[j]
                    dst[j] = num if prev.is_one() or not num.coeffs else num.exact_div(prev)
        prev = p
    # the last pivot is det A up to the sign of the row permutation
    if sign < 0:
        return -prev, -MatK(right)
    return prev, MatK(right)


_COEFS = ["(1)", "(-1)", "(2)", "(1/2)", "(-3/2)", "(1+i)", "(1/2-i)", "(2i)", f"(1/{P})"]


def _random_entry(rng: random.Random, density: float = 1.0):
    if rng.random() > density:
        return lp("0")
    text = " + ".join(
        f"{rng.choice(_COEFS[:-1])}*t^{rng.randint(-2, 2)}" for _ in range(rng.randint(1, 2))
    )
    return lp(text)


def _oracle_matrices(rng: random.Random, n: int):
    """Seeded exact n x n matrices: generic, a forced row swap, rank n - 1,
    p in a denominator, and a product of shears (det 1)."""
    density = min(1.0, 2.5 / n)
    generic = [[_random_entry(rng, density) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        generic[i][i] = _random_entry(rng)
    yield "generic", MatK(generic)
    swap = [list(r) for r in MatK(generic).rows]
    swap[0][0] = lp("t^5 + (1+i)*t^6")
    swap[n - 1][0] = lp("1/2*t^-4 - t^2")
    yield "swap", MatK(swap)
    if n >= 2:
        low_rank = [list(r) for r in swap]
        f = _random_entry(rng)
        low_rank[n - 1] = [a + f * b for a, b in zip(low_rank[0], low_rank[n - 2])]
        yield "rank n-1", MatK(low_rank)
    with_p = [list(r) for r in generic]
    i, j = rng.randrange(n), rng.randrange(n)
    with_p[i][j] = with_p[i][j] + lp(f"1/{P}*t^-1 + (2/{P}+i)*t")
    yield "p denominator", MatK(with_p)
    yield "shears", _shear_product(rng, n, 3) if n >= 2 else mat([["2*t^-3"]])


def test_dense_kernel_matches_the_laurent_loops():
    rng = random.Random(2024)
    swaps = 0
    for n in range(1, 9):
        for kind, m in _oracle_matrices(rng, n):
            where = (n, kind)
            det = m.det()
            assert det == _oracle_det(m), where
            assert det.prec is None
            rows = [list(r) for r in m.rows]
            ech = _oracle_echelon(rows, n)
            # the pivot columns depend only on the row space
            assert [c for c, _ in _dense_echelon(rows, n)] == [c for c, _ in ech], where
            assert m.rank() == len(ech), where
            basis = m.kernel_basis()
            oracle = _oracle_kernel(m)
            assert len(basis) == len(oracle) == n - len(ech), where
            for v in basis:
                assert all(e.is_zero_3v() is True for e in m.apply(v)), where
            # the same span: stacking both bases adds no rank
            assert _rank([list(v) for v in basis + oracle], n) == len(oracle), where
            if kind == "rank n-1":
                assert len(ech) == n - 1 and not det.coeffs
            direction = MatK([[_random_entry(rng, 0.5) for _ in range(n)] for _ in range(n)])
            try:
                expected = _oracle_dual_det(m, direction)
            except Singular:
                with pytest.raises(Singular):
                    det_and_adj_trace(m, direction)
            else:
                assert det_and_adj_trace(m, direction) == expected, where
            try:
                d, scaled = _oracle_inv_bareiss(m)
            except Singular:
                assert not det.coeffs
                with pytest.raises(Singular):
                    m.inv()
                continue
            assert _scaled_inverse(m) == (d, scaled), where
            if n <= 4 or kind == "shears":
                assert m.inv() == scaled.scale(d.inv(DEFAULT_WORKING_PREC)), where
            if kind == "shears":
                assert m.inv().all_exact()
            first = [r[0].order() if r[0].coeffs else None for r in m.rows]
            swaps += kind == "swap" and first.index(min(e for e in first if e is not None)) != 0
    assert swaps >= 6


def test_dense_echelon_takes_the_shortest_pivot():
    # the least-valuation entry of column 0 is a binomial; the monomial 3t is
    # the pivot, and the second row is the 2x2 minor
    ech = _dense_echelon([[lp("t^-2 + 1"), lp("1")], [lp("3*t"), lp("1")]], 2)
    rows = [(c, [zipoly.to_laurent(e) for e in r]) for c, r in ech]
    assert rows == [(0, [lp("3*t"), lp("1")]), (1, [lp("0"), lp("3*t^3 - t^2 - 1")])]


def test_dense_echelon_entries_are_bounded_minors():
    # every entry is a minor of the primitive input rows, so it spans at most
    # the sum of the rows' spans; an echelon that only divides out contents
    # goes past that bound on these matrices
    rng = random.Random(2024)
    for n in range(1, 9):
        for kind, m in _oracle_matrices(rng, n):
            bound = 0
            for r in m.rows:
                exps = [e for x in r for e in x.coeffs]
                bound += max(exps) - min(exps) if exps else 0
            ech = _dense_echelon([list(r) for r in m.rows], n)
            spans = [len(e) - 1 - zipoly.low(e) for _, r in ech for e in r if e]
            assert max(spans, default=0) <= bound, (n, kind)


def test_dense_kernel_raises_on_an_inexact_division(monkeypatch):
    # a wrong previous pivot makes the next division leave a remainder
    m = mat([["t + 1", "1", "0"], ["1", "t", "1"], ["0", "1", "t + 2"]])
    real = zipoly.exact_div

    def off_by_one(num, den):
        return real(num, zipoly.combine([(1, den, [(1, 0)]), (1, [(1, 0)], [(1, 0)])]))

    monkeypatch.setattr(zipoly, "exact_div", off_by_one)
    with pytest.raises(ExactDivisionError):
        m.det()
    with pytest.raises(ExactDivisionError):
        m.inv()


def test_dense_kernel_singular_cases():
    zero_col = mat([["0", "1", "t"], ["0", "t", "1"], ["0", "1", "1"]])
    assert zero_col.det() == lp("0")
    with pytest.raises(Singular):
        zero_col.inv()
    with pytest.raises(Singular):
        det_and_adj_trace(zero_col, MatK.identity(3))
    # singular only in the last column: the dual pass still returns adj
    last = mat([["1", "0"], ["0", "0"]])
    assert det_and_adj_trace(last, mat([["0", "0"], ["0", "t"]])) == (lp("0"), lp("t"))
    assert MatK.zero(0).det() == lp("1")


def test_det_and_adj_trace_of_the_empty_matrix():
    # det of 0x0 is 1, as MatK.det gives it, and its adjugate is empty
    assert det_and_adj_trace(MatK([]), MatK([])) == (lp("1"), lp("0"))


# -- the exact loop combines only at the pivot row's nonzero columns -------------
#
# When p/prev is exact, an entry whose pivot-row column is zero becomes
# (p·x − f·0)/prev = (p/prev)·x, so `_eliminate` runs `combine` only at the
# pivot row's nonzero columns.  The reference below takes the Bareiss step at
# every column of a row with f ≠ 0 that is not zero on both sides, so the
# pass must give its polynomials, byte for byte, with fewer combines.


def _dense_loop_inverse(m: MatK):
    """(d, right, combine calls) of the Gauss–Jordan pass of :func:`_inv_dense`
    on all n rows of [A | I], unit rows included, with the dense row update:
    a row with f ≠ 0, or any row when p/prev is not exact, takes
    (p·x − f·y)/prev at every column where x or f·y is nonzero.  As in
    :func:`_inv_dense`, d is the last pivot times the sign of the row
    permutation, the determinant of the scaled matrix, and right is d·A⁻¹."""
    n = m.n
    unit = MatK.identity(n).rows
    _, shifts, rows = _dense_rows([r + u for r, u in zip(m.rows, unit)])
    calls = 0
    prev = None
    sign = 1
    for col in range(n):
        idx = _pick_short([(i, shifts[i], rows[i][col]) for i in range(col, n)])
        if idx is None:
            raise Singular("matrix is exactly singular")
        if idx != col:
            rows[col], rows[idx] = rows[idx], rows[col]
            shifts[col], shifts[idx] = shifts[idx], shifts[col]
            sign = -sign
        pivot_row = rows[col]
        p = pivot_row[col]
        try:
            scale = p if prev is None else zipoly.exact_div(p, prev)
        except ExactDivisionError:
            scale = None
        for i in range(n):
            if i == col:
                continue
            row = rows[i]
            f = row[col]
            if not f and scale is not None:
                row[col + 1:] = [zipoly.mul(scale, x) for x in row[col + 1:]]
                continue
            for j in range(col + 1, 2 * n):
                if row[j] or (f and pivot_row[j]):
                    num = zipoly.combine([(1, p, row[j]), (-1, f, pivot_row[j])])
                    row[j] = num if prev is None or not num else zipoly.exact_div(num, prev)
                    calls += 1
            row[col] = []
        prev = p
    if sign < 0:
        return zipoly.neg(prev), [[zipoly.neg(e) for e in r[n:]] for r in rows], calls
    return prev, [r[n:] for r in rows], calls


def _counted(monkeypatch, fn, *args):
    """fn(*args), and how often the exact loop called combine, took a scale
    product, and found p/prev inexact."""
    counts = {"combine": 0, "scale": 0, "inexact": 0}
    plain_combine, plain_mul, plain_div = _Plain.combine, _Plain.mul, _Plain.div

    def combine(*a):
        counts["combine"] += 1
        return plain_combine(*a)

    def mul(*a):
        counts["scale"] += 1
        return plain_mul(*a)

    def div(*a):
        try:
            return plain_div(*a)
        except ExactDivisionError:
            counts["inexact"] += 1
            raise

    for name, wrapped in (("combine", combine), ("mul", mul), ("div", div)):
        monkeypatch.setattr(_Plain, name, staticmethod(wrapped))
    result = fn(*args)
    monkeypatch.undo()
    return result, counts


def _agrees_with_division_path(exact: MatK, divided: MatK) -> bool:
    """Each entry equal, or, where the division path truncated, equal below
    its bound."""
    return all(x == y if y.prec is None else x.truncated(y.prec) == y
               for rx, ry in zip(exact.rows, divided.rows) for x, y in zip(rx, ry))


def _sparse_groups(rng: random.Random, n: int):
    """Seeded shear products, rotated t -> z·t, and times diagonal factors of
    det 1 that are not units."""
    diag = MatK.diag([lp("2"), lp("1/2")] + [lp("1")] * (n - 2))
    diag_t = MatK.diag([lp("(1+i)*t"), lp("(1/2-1/2i)*t^-1")] + [lp("1")] * (n - 2))
    for z in (gr(1), gr(2), gr(1, 1)):
        g = _shear_product(rng, n, rng.randint(1, 5)).scale_t(z)
        yield f"z={z}", g
        yield f"diag·g, z={z}", diag * g
        yield f"g·diag_t, z={z}", g * diag_t


def _check_inverse(m: MatK, where):
    d, right, _ = _dense_loop_inverse(m)
    got_d, _, _, got_right = _dense_inverse(m)
    assert (got_d, got_right) == (d, right), where
    inverse = m.inv()
    assert inverse.all_exact() and m * inverse == MatK.identity(m.n), where
    assert _agrees_with_division_path(inverse, _gauss_jordan(m, 64, inverse=True)), where
    if m.n <= 6:
        assert inverse == _cofactor_inverse(m), where


def test_exact_inverse_of_sparse_groups_matches_the_oracles():
    rng = random.Random(2026)
    for n in range(4, 13):
        for kind, m in _sparse_groups(rng, n):
            where = (n, kind)
            _check_inverse(m, where)
            assert m.det() == _oracle_det(m) == lp("1"), where
            # rank n - 1: the last row becomes row 0 + t·row 1
            rows = [list(r) for r in m.rows]
            rows[-1] = [a + lp("t") * b for a, b in zip(rows[0], rows[1])]
            low = MatK(rows)
            assert low.det() == _oracle_det(low) == lp("0"), where
            basis = low.kernel_basis()
            oracle = _oracle_kernel(low)
            assert len(basis) == len(oracle) == 1, where
            assert all(e.is_zero_3v() is True for e in low.apply(basis[0])), where
            assert _rank([list(basis[0]), list(oracle[0])], n) == 1, where


def test_exact_loop_row_branches(monkeypatch):
    # an exact quotient p/prev = 2 with zero pivot-row columns: with
    # A = diag(2, 1/2, 1)·(I + t·E_10), row 2 is e_2 and is not eliminated,
    # and [B | −C | I] enters as the rows (2, 0 | 0 | 1, 0) and
    # (t, 1 | 0 | 0, 2), C = 0.  The first pivot is 2 and prev is 1; row 1
    # (f = t) combines at column 3 only, where the pivot row is nonzero, and
    # becomes 2·x at columns 1 and 4.  The second quotient is 1, and row 2 of
    # d·A⁻¹ is d·e_2.
    m = MatK.diag([lp("2"), lp("1/2"), lp("1")]) * MatK.shear(3, 1, 0, lp("t"))
    (d, _, _, right), counts = _counted(monkeypatch, _dense_inverse, m)
    assert counts == {"combine": 1, "scale": 2, "inexact": 0}
    assert d == [(2, 0)]
    assert right == [[[(1, 0)], [], []], [[(0, 0), (-1, 0)], [(4, 0)], []], [[], [], [(2, 0)]]]
    _check_inverse(m, "diag·shear")
    # an inexact quotient: in [[2, 1], [1, 1]] the second pivot is 1 and prev
    # is 2, so row 0 runs the division loop at every nonzero column
    m = mat([["2", "1"], ["1", "1"]])
    (d, _, _, right), counts = _counted(monkeypatch, _dense_inverse, m)
    assert counts == {"combine": 4, "scale": 1, "inexact": 1}
    assert d == [(1, 0)] and right == [[[(1, 0)], [(-1, 0)]], [[(-1, 0)], [(2, 0)]]]
    _check_inverse(m, "inexact quotient")
    # the same matrices through det and the dual-number det
    for m in (MatK.diag([lp("2"), lp("1/2"), lp("1")]) * MatK.shear(3, 1, 0, lp("t")),
              mat([["2", "1"], ["1", "1"]])):
        assert m.det() == _oracle_det(m)
        direction = MatK([[lp("t")] * m.n] * m.n)
        assert det_and_adj_trace(m, direction) == _oracle_dual_det(m, direction)


def test_exact_inverse_combines_only_at_pivot_row_columns(monkeypatch):
    # n = 12, eight shears, 21 nonzero entries of 144: the dense loop makes
    # 67 combines, and 19 of them are at a zero of the pivot row in a row
    # with f != 0, where the entry only becomes (p/prev)·x.  Those are scale
    # products (or nothing, when p/prev = 1), which leaves 48 combines on
    # all 12 rows; 6 of the rows are exactly e_i and are not eliminated, and
    # the 6 others make 14.
    m = _shear_product(random.Random(12), 12, 8)
    d, right, dense_calls = _dense_loop_inverse(m)
    (got_d, _, _, got_right), counts = _counted(monkeypatch, _dense_inverse, m)
    assert (got_d, got_right) == (d, right)
    assert len(_non_unit_rows(_nonzero_entries(m.rows))) == 6
    assert (counts["combine"], dense_calls) == (14, 67)


# -- rows that are exactly e_i take no part in exact elimination ----------------
#
# With R the other rows and S the unit rows, A = [[B, C], [0, I]] after one
# simultaneous permutation, so det A = det B and A⁻¹ = [[B⁻¹, −B⁻¹C], [0, I]].
# The oracles below eliminate all n rows.


def _check_against_the_oracles(m: MatK, where):
    det = m.det()
    assert det == _oracle_det(m), where
    try:
        d, scaled = _oracle_inv_bareiss(m)
    except Singular:
        assert not det.coeffs, where
        with pytest.raises(Singular):
            _inv_dense(_nonzero_entries(m.rows))
        with pytest.raises(Singular):
            m.inv()
        return
    assert _scaled_inverse(m) == (d, scaled) and d == det, where
    assert m.inv() == _cofactor_inverse(m), where


def _with_unit_rows(rng: random.Random, n: int, units):
    """A seeded exact matrix whose rows in `units` are e_i; the others have
    a diagonal entry that is not 1 (its t^3 term never cancels) and entries
    in the unit columns."""
    rows = [[_random_entry(rng, 0.6) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = _random_entry(rng) + lp("t^3")
        if i in units:
            rows[i] = [lp("1" if j == i else "0") for j in range(n)]
    return MatK(rows)


def test_unit_rows_at_every_position_match_the_oracles():
    rng = random.Random("unit-rows")
    for n in range(1, 5):
        for mask in range(1 << n):
            units = {i for i in range(n) if mask >> i & 1}
            m = _with_unit_rows(rng, n, units)
            assert _non_unit_rows(_nonzero_entries(m.rows)) == [
                i for i in range(n) if i not in units]
            _check_against_the_oracles(m, (n, sorted(units)))
    # r = 0: the identity is not eliminated at all
    for n in (1, 4):
        assert _dense_inverse(MatK.identity(n)) == (
            [(1, 0)], 0, 1, [[[(1, 0)] if i == j else [] for j in range(n)] for i in range(n)])
        assert MatK.identity(n).inv() == MatK.identity(n)
        assert MatK.identity(n).det() == lp("1")


def test_unit_rows_of_the_inverse_are_the_shared_identity_rows():
    rng = random.Random("shared-rows")
    for n in (6, 8, 12):
        g = _shear_product(rng, n, 3)
        units = [i for i in range(n) if i not in _non_unit_rows(_nonzero_entries(g.rows))]
        assert units
        identity = MatK.identity(n).rows
        inverse = g.inv()
        assert all(inverse.rows[i] is identity[i] for i in units)
        # a truncated entry in a row of R: the unit rows are not cut either
        rows = [list(r) for r in g.rows]
        k = _non_unit_rows(_nonzero_entries(g.rows))[0]
        l = next(j for j, x in enumerate(rows[k]) if x.coeffs and j != k)
        rows[k][l] = rows[k][l].truncated(max(rows[k][l].coeffs) + 8)
        cut = MatK(rows).inv()
        assert all(cut.rows[i] is identity[i] for i in units)


def test_exact_inverse_converts_only_the_rows_of_r(monkeypatch):
    # n = 12, eight shears: 6 rows are exactly e_i, and only the nonzero
    # entries of the other 6 rows of A⁻¹ go through to_laurent
    m = _shear_product(random.Random(12), 12, 8)
    rest = _non_unit_rows(_nonzero_entries(m.rows))
    converted = []
    to_laurent = zipoly.to_laurent

    def counted(f, *args):
        converted.append(f)
        return to_laurent(f, *args)

    monkeypatch.setattr(zipoly, "to_laurent", counted)
    inverse = m.inv()
    monkeypatch.undo()
    assert len(rest) == 6
    assert len(converted) == sum(1 for i in rest for x in inverse.rows[i] if x.coeffs)
    assert m * inverse == MatK.identity(12)


def test_unit_rows_with_a_singular_or_non_monomial_block():
    rng = random.Random("unit-rows-b")
    for n in range(3, 7):
        units = set(rng.sample(range(n), n // 2))
        rest = [i for i in range(n) if i not in units]
        m = _with_unit_rows(rng, n, units)
        # B singular: a row of R is f times another row of R plus a unit row,
        # or has entries in the unit columns only
        a, b, s = rest[0], rest[-1], min(units)
        rows = [list(r) for r in m.rows]
        rows[a] = [f * lp("t - 2") + e for f, e in zip(rows[b], rows[s])]
        singular = MatK(rows)
        rows = [list(r) for r in m.rows]
        rows[a] = [lp("3*t") if j == s else lp("0") for j in range(n)]
        zero_block_row = MatK(rows)
        for low in (singular, zero_block_row):
            assert low.det() == lp("0")
            _check_against_the_oracles(low, (n, "singular B"))
        # det B not a monomial: MatK.inv truncates at the final scaling
        shear = _shear_product(rng, n, 4)
        shear_rest = _non_unit_rows(_nonzero_entries(shear.rows))
        m = _scale_row(shear, rng.choice(shear_rest), lp("1 + t"))
        assert len(m.det().coeffs) > 1
        assert not m.inv().all_exact()
        _check_against_the_oracles(m, (n, "non-monomial det"))


def test_rows_near_e_i_are_eliminated():
    base = [["1", "0", "0", "0"], ["t^-1", "1", "0", "2*t"],
            ["0", "0", "1", "0"], ["0", "(1+i)", "0", "1"]]
    # 2·e_2 with 1/2 on row 0, and e_3 at row 2 with e_2 at row 3: exact
    doubled = mat([["1/2", "0", "0", "0"], base[1], ["0", "0", "2", "0"], base[3]])
    swapped = mat([base[0], base[1], ["0", "0", "0", "1"], ["0", "0", "1", "0"]])
    for m, rest in ((doubled, [0, 1, 2, 3]), (swapped, [1, 2, 3])):
        assert _non_unit_rows(_nonzero_entries(m.rows)) == rest
        _check_against_the_oracles(m, rest)
    # e_2 with diagonal 1 + O(t^9), and e_2 with an O(t^5) entry: truncated
    for entry, text in ((2, "1 + O(t^9)"), (0, "O(t^5)")):
        rows = [list(r) for r in mat(base).rows]
        rows[2][entry] = lp(text)
        m = MatK(rows)
        assert _non_unit_rows(_nonzero_entries(m.rows)) == [1, 2, 3]
        assert m.det(24) == _det_division(m, 24)
        assert _at_least_as_precise(m.inv(24), _gauss_jordan(m, 24, inverse=True))


# The ring.combine and ring.mul calls of the exact loop, recorded from the loop
# that updated a row in two passes (the Bareiss step at the pivot row's nonzero
# columns, then the products with p/prev); the one update rule per entry must
# make the same calls.  The det and inv counts were recorded again when the
# rows that are exactly e_i stopped entering the loop: only the other rows are
# eliminated, so those passes make fewer calls.  The stress P are the Jordan
# bases of the benchmark's classify-stress cases.
_LOOP_CALLS = {
    "stress P: det": {"_Plain.combine": 159, "_Plain.mul": 225},
    "stress P: kernel_basis": {"_Plain.combine": 188, "_Plain.mul": 172},
    "stress P: det_and_adj_trace(P, P')": {"_Dual.combine": 161, "_Dual.mul": 236},
    "shear products: inv": {"_Plain.combine": 82, "_Plain.mul": 352},
    "diag(2, 1/2, 1): inv": {"_Plain.mul": 2},
    "diag(2, 1/2, 1): det_and_adj_trace": {"_Dual.mul": 3},
}


def _loop_calls(monkeypatch, fn):
    """The ring.combine and ring.mul calls of the exact loop during fn(), per
    ring, as {"_Plain.combine": count, ...}."""
    counts = {}

    def counted(key, op):
        def call(*args):
            counts[key] = counts.get(key, 0) + 1
            return op(*args)
        return staticmethod(call)

    for ring in (_Plain, _Dual):
        for name in ("combine", "mul"):
            monkeypatch.setattr(ring, name, counted(f"{ring.__name__}.{name}", getattr(ring, name)))
    fn()
    monkeypatch.undo()
    return counts


def test_exact_loop_makes_the_recorded_calls(monkeypatch):
    ps = [jordan_chains(stress_case(8, shears, j)[3].mat).p_mat
          for shears in (20, 15) for j in range(4)]
    rng = random.Random("loop-calls")
    groups = []
    for n in range(8, 13):
        g = _shear_product(rng, n, rng.randint(3, 8))
        groups += [g, MatK.diag([lp("2"), lp("1/2")] + [lp("1")] * (n - 2)) * g]
    # every row but the pivot row has f = 0, and the first quotient, 2, is not
    # a unit: each nonzero entry right of the pivot column becomes 2·x, one mul
    diag = MatK.diag([lp("2"), lp("1/2"), lp("1")])
    direction = MatK.diag([lp("t"), lp("1"), lp("-t")])
    got = {
        "stress P: det": _loop_calls(monkeypatch, lambda: [p.det() for p in ps]),
        "stress P: kernel_basis": _loop_calls(monkeypatch, lambda: [p.kernel_basis() for p in ps]),
        "stress P: det_and_adj_trace(P, P')": _loop_calls(
            monkeypatch, lambda: [det_and_adj_trace(p, p.d_dt()) for p in ps]),
        "shear products: inv": _loop_calls(monkeypatch, lambda: [g.inv() for g in groups]),
        "diag(2, 1/2, 1): inv": _loop_calls(monkeypatch, diag.inv),
        "diag(2, 1/2, 1): det_and_adj_trace": _loop_calls(
            monkeypatch, lambda: det_and_adj_trace(diag, direction)),
    }
    assert got == _LOOP_CALLS


# -- coefficients of products, read without forming them -----------------------

_small_gr = st.builds(lambda a, b, d: gr(Fraction(a, d), Fraction(b, d)),
                     st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
# exact entries, exact constants and zeros, truncated ones and empty O(t^N)
_entries = st.builds(
    lambda items, prec: LaurentElement(dict(items), prec),
    st.lists(st.tuples(st.integers(-3, 3), _small_gr), max_size=2),
    st.one_of(st.none(), st.none(), st.integers(-3, 4)),
)
_matrix_pairs = st.builds(
    lambda n, es: tuple(MatK([es[k + 2 * i:k + 2 * i + n] for i in range(n)]) for k in (0, 4)),
    st.integers(1, 2),
    st.lists(_entries, min_size=8, max_size=8),
)


def _value_or_raise(f):
    try:
        return f()
    except PrecisionExhausted:
        return PrecisionExhausted


@given(_matrix_pairs, st.integers(-5, 5), _small_gr)
def test_trace_coeff_matches_the_full_products(pair, e, kappa):
    a, b = pair
    x, y = a.rows[0][0], b.rows[0][0]
    # one comparison, so that a failure is one example to shrink
    assert [
        _value_or_raise(lambda: trace_coeff(a, b, e)),
        _value_or_raise(lambda: trace_coeff(a, b, e, derivative=True)),
        _value_or_raise(lambda: kappa * trace_coeff(a, b, -1, derivative=True)),
        _value_or_raise(lambda: trace_coeff(x, y, e)),
    ] == [
        _value_or_raise(lambda: (a * b).trace().coeff(e)),
        _value_or_raise(lambda: (a.d_dt() * b).trace().coeff(e)),
        _value_or_raise(lambda: form_t(a.d_dt(), b, kappa).residue()),
        _value_or_raise(lambda: (x * y).coeff(e)),
    ]


def test_trace_coeff_examples():
    a = mat([["t^-1 + 2", "0"], ["3*t", "1"]])
    b = mat([["t^-2", "1"], ["1", "t^2"]])
    assert trace_coeff(a, b, -3) == gr(1)
    assert trace_coeff(a, b, 1) == gr(3)
    # a' = [[-t^-2, 0], [3, 0]]: tr(a' b) = -t^-4 + 3
    assert trace_coeff(a, b, -4, derivative=True) == gr(-1)
    assert trace_coeff(a, b, 0, derivative=True) == gr(3)
    assert trace_coeff(a, b, -1, derivative=True) == gr(0)
    # a constant truncated entry still bounds its derivative: O(t^1) * t^-2
    c = MatK([[LaurentElement({0: gr(5)}, 2)]])
    with pytest.raises(PrecisionExhausted, match="modulo t\\^-1"):
        trace_coeff(c, mat([["t^-2"]]), -1, derivative=True)
    # an exact constant has the exact zero as derivative, and is skipped
    assert trace_coeff(mat([["5"]]), MatK([[LaurentElement({}, -9)]]), -1,
                       derivative=True) == gr(0)
    with pytest.raises(DimensionMismatch):
        trace_coeff(a, MatK.identity(3), 0)


def test_scale_t_matches_the_entrywise_substitution():
    rng = random.Random(31)
    for z in (gr(2), gr(-1, 3), gr(Fraction(1, 3))):
        m = MatK([[random_laurent(rng) for _ in range(3)] for _ in range(3)])
        rows = [list(r) for r in m.rows]
        rows[1][2] = LaurentElement({-3: gr(1), 2: gr(5)}, 4)
        rows[2][0] = LaurentElement.zero()
        rows[0][1] = LaurentElement.zero(3)
        m = MatK(rows)
        scaled = m.scale_t(z)
        assert scaled == MatK([[e.scale_t(z) for e in r] for r in m.rows])
        # entries with no coefficients, 0 and O(t^3), are passed through
        assert scaled.rows[2][0] is m.rows[2][0] and scaled.rows[0][1] is m.rows[0][1]
    assert m.shift(-2) == MatK([[e * lp("t^-2") for e in r] for r in m.rows])
    with pytest.raises(ZeroScale):
        m.scale_t(gr(0))


# exact, truncated, bare O(t^N) and exact zero entries over a wider exponent range
_scale_t_entries = st.builds(
    lambda items, prec: LaurentElement(dict(items), prec),
    st.lists(st.tuples(st.integers(-9, 9), _small_gr), max_size=3),
    st.one_of(st.none(), st.none(), st.integers(-9, 10)),
)


@given(st.lists(_scale_t_entries, min_size=9, max_size=9),
       st.sampled_from([gr(2), gr(Fraction(1, 2)), gr(1, 1), gr(0, -1),
                        gr(Fraction(3, 5), Fraction(4, 5))]))
def test_scale_t_is_the_substitution_per_coefficient(entries, z):
    m = MatK([entries[3 * i:3 * i + 3] for i in range(3)])
    # c·z^e in GaussianRational arithmetic, coefficient by coefficient
    expected = [[({e: c * z**e for e, c in x.coeffs.items()}, x.prec) for x in r] for r in m.rows]
    assert _entry_data(m.scale_t(z).rows) == expected


@pytest.mark.parametrize("d", ["1", "-1", "2*t^3", "(1+i)*t^-2", "(-3i)", "1 + t"])
def test_exact_inverse_divides_by_its_determinant(d):
    rng = random.Random(32)
    m = _shear_product(rng, 3, 3)
    m = _scale_row(m, 1, lp(d))
    inverse = m.inv()
    scaled_d, scaled = _scaled_inverse(m)
    assert inverse == scaled.scale(scaled_d.inv(DEFAULT_WORKING_PREC))
    if d != "1 + t":
        assert inverse.all_exact()
        assert m * inverse == MatK.identity(3)


# -- the product kernel -----------------------------------------------------------


def _entrywise_product(a_rows, b_rows):
    """Reference for the product kernel: each entry of A·B summed from its n
    Laurent products one at a time, skipping pairs with an exactly zero side."""
    out = []
    for row in a_rows:
        out_row = []
        for j in range(len(b_rows[0])):
            acc = LaurentElement.zero()
            for x, b_row in zip(row, b_rows):
                y = b_row[j]
                if (x.coeffs or x.prec is not None) and (y.coeffs or y.prec is not None):
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def _entry_data(rows):
    return [[(e.coeffs, e.prec) for e in r] for r in rows]


_KERNEL_COEFS = [gr(1), gr(-2), gr(Fraction(1, 2)), gr(Fraction(-1, 3)),
                 gr(Fraction(1, 2), 1), gr(0, Fraction(2, 3)), gr(Fraction(5, 6), -1)]


def _kernel_entry(rng):
    """Exact zero, an O(t^k) with no term, an exact polynomial or a truncated
    one, with Gaussian coefficients over 1, 2, 3 and 6."""
    kind = rng.randrange(6)
    if kind == 0:
        return LaurentElement.zero()
    if kind == 1:
        return LaurentElement.zero(rng.randint(-2, 3))
    coeffs = {rng.randint(-3, 3): rng.choice(_KERNEL_COEFS) for _ in range(rng.randint(1, 3))}
    return LaurentElement(coeffs, None if kind < 4 else max(coeffs) + rng.randint(-1, 3))


def test_product_kernel_matches_the_entrywise_loop():
    rng = random.Random(41)
    for trial in range(300):
        n = 1 + trial % 5
        a = MatK([[_kernel_entry(rng) for _ in range(n)] for _ in range(n)])
        b_rows = [[_kernel_entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 1:
            # column 0 is (a_01, -a_00, 0, ...): entry (0, 0) is a_00 a_01 - a_01 a_00
            column = [a.rows[0][1], -a.rows[0][0]] + [LaurentElement.zero()] * (n - 2)
            for row, y in zip(b_rows, column):
                row[0] = y
        b = MatK(b_rows)
        product = a * b
        assert _entry_data(product.rows) == _entry_data(_entrywise_product(a.rows, b.rows))
        if n > 1 and a.rows[0][0].is_exact and a.rows[0][1].is_exact:
            assert product.rows[0][0] == LaurentElement.zero()
        v = tuple(_kernel_entry(rng) for _ in range(n))
        assert [(e.coeffs, e.prec) for e in a.apply(v)] == [
            r[0] for r in _entry_data(_entrywise_product(a.rows, [(x,) for x in v]))]


def test_product_kernel_examples():
    a = mat([["1/2*t^-1 + O(t^2)", "(1/3+i)"], ["0", "O(t^1)"]])
    b = mat([["2*t", "t^-3"], ["3", "0"]])
    # (0, 0): 1 + O(t^3) plus (1 + 3i)*1: the sum keeps the least bound
    # (0, 1): 1/2 t^-4 + O(t^-1); (1, 0): O(t^1) * 3; (1, 1): O(t^1) * 0 is skipped
    assert a * b == MatK([[LaurentElement({0: gr(2, 3)}, 3),
                           LaurentElement({-4: gr(Fraction(1, 2))}, -1)],
                          [LaurentElement.zero(1), LaurentElement.zero()]])
    assert a.apply((lp("2*t"), lp("3"))) == (LaurentElement({0: gr(2, 3)}, 3),
                                             LaurentElement.zero(1))
    # exact products that cancel give the exact zero: t^-1 * t + t * (-t^-1)
    assert mat([["t^-1", "t"], ["0", "0"]]) * mat([["t", "0"], ["-t^-1", "0"]]) == MatK.zero(2)


def test_product_kernel_exact_left_entry_against_truncated_right_entries():
    # an exact a_ik takes the bound prec(b_kj) + val(a_ik) directly, or none
    # against an exact b_kj; the entry keeps the least bound of its pairs
    a = mat([["(1/2+i)*t^-2 + 3*t", "0", "2/3"], ["0", "t^4", "0"], ["0", "0", "0"]])
    b = mat([["1 + t + O(t^3)", "t^-1", "O(t^2)"],
             ["(1/3)*t^-1 + O(t^1)", "0", "5"],
             ["1/2 - t + O(t^5)", "(i)*t^2", "0"]])
    product = a * b
    assert _entry_data(product.rows) == _entry_data(_entrywise_product(a.rows, b.rows))
    # (0, 0): (1/2+i) t^-2 (1 + t + O(t^3)) + 2/3 (1/2 - t + O(t^5)) is known below t^1
    assert product.rows[0][0].prec == 1
    assert product.rows[0][2] == LaurentElement.zero(0)
    assert product.rows[1] == (LaurentElement({3: gr(Fraction(1, 3))}, 5),
                               LaurentElement.zero(), LaurentElement({4: gr(5)}))
    assert product.rows[2] == (LaurentElement.zero(),) * 3


def test_product_kernel_copies_unit_rows(monkeypatch):
    # rows 0 and 2 of a are e_1 and e_3, row 3 is e_3 with diagonal 1 + O(t^4):
    # row 1 of b is reached by the unit row 0 and by row 1, and row 3 of b by
    # the unit row 2 and by the rows 1 and 3
    a = mat([["0", "1", "0", "0"], ["t", "1/2", "0", "(2i)"],
             ["0", "0", "0", "1"], ["0", "0", "0", "1 + O(t^4)"]])
    b = mat([["(1/3)*t^-1", "0", "t^2", "1"],
             ["1 + t + O(t^3)", "O(t^2)", "0", "(1/2+i)*t^-2"],
             ["5", "0", "0", "0"],
             ["1/2 - t + O(t^5)", "0", "O(t^-1)", "(i)*t^2"]])
    product = a * b
    assert _entry_data(product.rows) == _entry_data(_entrywise_product(a.rows, b.rows))
    assert product.rows[0] is b.rows[1] and product.rows[2] is b.rows[3]
    v = (lp("2"), lp("1 + O(t^3)"), lp("0"), LaurentElement.zero(-2))
    assert [(e.coeffs, e.prec) for e in a.apply(v)] == [
        r[0] for r in _entry_data(_entrywise_product(a.rows, [(x,) for x in v]))]
    # the rows of b that only unit rows reach are not converted
    converted = []
    terms = matk.integer_terms

    def counted(coeffs, den):
        converted.append(coeffs)
        return terms(coeffs, den)

    monkeypatch.setattr(matk, "integer_terms", counted)
    assert (MatK.identity(4) * b).rows == b.rows and converted == []
    a.commutator(b)
    assert converted


def test_product_kernel_passes_left_entries_through_unit_rows():
    # rows 0, 1 and 3 of b are e_2, e_2 and e_0, row 2 is not a unit row: an
    # a_ik that meets e_j is entry (i, j) as it is where nothing else reaches
    # column j, and is summed in where row 2, or a second e_j, reaches it too
    rng = random.Random(43)
    for trial in range(200):
        a = MatK([[_kernel_entry(rng) for _ in range(4)] for _ in range(4)])
        one, zero = lp("1"), lp("0")
        b = MatK([[zero, zero, one, zero], [zero, zero, one, zero],
                  [_kernel_entry(rng) for _ in range(4)], [one, zero, zero, zero]])
        product = a * b
        assert _entry_data(product.rows) == _entry_data(_entrywise_product(a.rows, b.rows)), trial
        for row, out in zip(a.rows, product.rows):
            # column 0 takes a_i3 alone when row 2 of b is zero at column 0
            if not (b.rows[2][0].coeffs or b.rows[2][0].prec is not None) or not (
                    row[2].coeffs or row[2].prec is not None):
                if row[3].coeffs or row[3].prec is not None:
                    assert out[0] is row[3]
    x = MatK([[_kernel_entry(rng) for _ in range(5)] for _ in range(5)])
    assert all(p is q for r, s in zip((x * MatK.identity(5)).rows, x.rows) for p, q in zip(r, s)
               if q.coeffs or q.prec is not None)


@given(_matrix_pairs, st.integers(-5, 5))
def test_a_caller_supplied_listing_changes_nothing(pair, e):
    a, b = pair
    listed = _nonzero_entries(a.rows)
    assert _entry_data(_products(a.rows, b.rows, listed=listed)) == _entry_data(
        _products(a.rows, b.rows))
    for derivative in (False, True):
        assert _value_or_raise(lambda: _trace_coeff(_trace_pairs(listed, b.rows), e, derivative)) \
            == _value_or_raise(lambda: trace_coeff(a, b, e, derivative))


def test_a_caller_supplied_listing_changes_nothing_on_sparse_groups():
    # shear products, exact and with one entry cut, against a sparse element
    rng = random.Random(44)
    for trial in range(40):
        n = 3 + trial % 5
        g = _shear_product(rng, n, rng.randint(1, 4))
        if trial % 2:
            rows = [list(r) for r in g.rows]
            i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if rows[i][j].coeffs])
            rows[i][j] = rows[i][j].truncated(max(rows[i][j].coeffs) + 8)
            g = MatK(rows)
        y = MatK([[_kernel_entry(rng) if rng.random() < 0.3 else lp("0") for _ in range(n)]
                  for _ in range(n)])
        listed = _nonzero_entries(g.rows)
        assert g.inv(24, _listed=listed) == g.inv(24), trial
        assert _entry_data(_products(g.rows, y.rows, listed=listed)) == _entry_data((g * y).rows)
        for e in (-2, -1, 0):
            assert _value_or_raise(lambda: _trace_coeff(_trace_pairs(listed, y.rows), e, True)) \
                == _value_or_raise(lambda: trace_coeff(g, y, e, derivative=True))


# three n x n operands, n = 1..5, of the entries drawn for trace_coeff above
_kernel_operands = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    min_size=3, max_size=3))


@given(_kernel_operands)
def test_product_kernel_matches_the_entrywise_loop_on_drawn_operands(operands):
    a_rows, b_rows, v_rows = operands
    a, b = MatK(a_rows), MatK(b_rows)
    v = tuple(r[0] for r in v_rows)
    ab = _entrywise_product(a.rows, b.rows)
    ba = _entrywise_product(b.rows, a.rows)
    # one comparison, so that a failure is one example to shrink
    assert [_entry_data((a * b).rows),
            _entry_data(a.commutator(b).rows),
            [(e.coeffs, e.prec) for e in a.apply(v)]] == [
        _entry_data(ab),
        _entry_data([[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]),
        [r[0] for r in _entry_data(_entrywise_product(a.rows, [(x,) for x in v]))]]
