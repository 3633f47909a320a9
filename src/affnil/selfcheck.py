"""Seeded, deterministic invariant suites and their random generators.

The same generators drive the test suite and the ``selfcheck`` CLI
subcommand.  Every suite returns a list of counterexample descriptions;
empty means the suite passed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .affine import (
    AffineElement,
    GroupElement,
    adjoint_act,
    bracket,
    is_nilpotent,
)
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, gr
from .laurent import DEFAULT_WORKING_PREC, LaurentElement, format_laurent, parse_laurent
from .matk import MatK
from .normalform import OrbitLabel, canonical_rep, mult_order, read_quasi_jordan
from .orbits import classify, enumerate_orbits, partitions

# -- random generators ------------------------------------------------------


def random_rational(rng: random.Random, max_num: int = 3, max_den: int = 2) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_gaussian(rng: random.Random, complex_prob: float = 0.3) -> GaussianRational:
    re = random_rational(rng)
    im = random_rational(rng) if rng.random() < complex_prob else 0
    return GaussianRational(re, im)


def random_laurent(
    rng: random.Random,
    min_exp: int = -3,
    max_exp: int = 3,
    max_terms: int = 3,
    nonzero: bool = False,
) -> LaurentElement:
    coeffs = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        coeffs[rng.randint(min_exp, max_exp)] = random_gaussian(rng)
    elem = LaurentElement(coeffs)
    if nonzero and elem.is_zero_3v() is True:
        return LaurentElement.monomial(rng.randint(min_exp, max_exp), gr(1))
    return elem


def random_traceless(rng: random.Random, n: int) -> MatK:
    rows = [[random_laurent(rng) for _ in range(n)] for _ in range(n)]
    # force trace zero by fixing the last diagonal entry
    acc = LaurentElement.zero()
    for i in range(n - 1):
        acc = acc + rows[i][i]
    rows[n - 1][n - 1] = -acc
    return MatK(rows)


def random_shear(rng: random.Random, n: int) -> GroupElement:
    if n < 2:
        raise ValueError(f"a shear needs two distinct indices, n = {n}")
    i = rng.randrange(n)
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    p = random_laurent(rng, max_terms=3, nonzero=True)
    return GroupElement.from_shear(n, i, j, p)

_DZ_CHOICES = (gr(1), gr(2), gr(1, 1))


def random_group(rng: random.Random, n: int, max_shears: int = 5) -> GroupElement:
    g = random_shear(rng, n)
    for _ in range(rng.randint(0, max_shears - 1)):
        g = g.compose(random_shear(rng, n))
    z = rng.choice(_DZ_CHOICES)
    return GroupElement.loop_rotation(n, z).compose(g)


def random_orbit_case(
    rng: random.Random, n: int
) -> Tuple[Tuple[int, ...], int, GaussianRational, AffineElement, GroupElement]:
    """(sigma, k, level, D_{sigma,j} + level*c, g) for a random j below the
    smallest part; k = j mod gcd(sigma) is the orbit label of the element."""
    sigma = rng.choice(partitions(n))
    j = rng.randrange(sigma[-1])
    level = rng.choice((GR_ZERO, GR_ONE, gr(Fraction(-3, 2))))
    elem = AffineElement(canonical_rep(sigma, j), level)
    return sigma, j % math.gcd(*sigma), level, elem, random_group(rng, n)


# -- suites -----------------------------------------------------------------


def _suite_golden_values(rng: random.Random, cases: int, prec: int) -> List[str]:
    """Frozen concrete values; catches sign or normalization regressions that
    symmetric invariant suites cannot see."""
    bad = []
    if parse_laurent("t^-1").residue() != GR_ONE:
        bad.append("res(t^-1) != 1")
    if (parse_laurent("t").d_dt() * parse_laurent("t^-1")).residue() != GR_ONE:
        bad.append("res((dt/dt) t^-1) != 1")
    if parse_laurent("t^-2 + 3*t").order() != -2:
        bad.append("order(t^-2 + 3t) != -2")
    inv = parse_laurent("1 - t").inv(8)
    if any(inv.coeffs.get(j) != GR_ONE for j in range(8)):
        bad.append("inv(1 - t) != geometric series")
    root = parse_laurent("4*t^2 + 4*t^3").nth_root(2, 6)
    if root.coeffs.get(1) != gr(2) or root.coeffs.get(2) != GR_ONE:
        bad.append("sqrt(4t^2 + 4t^3) != 2t + t^2 + ...")
    e12 = MatK.elementary(2, 0, 1, LaurentElement.monomial(1))
    e21 = MatK.elementary(2, 1, 0, LaurentElement.monomial(-1))
    br = bracket(AffineElement(e12), AffineElement(e21))
    if br.c_coef != gr(4):
        bad.append(f"[tE12, t^-1 E21] c-part = {br.c_coef!r} != 4")
    shear = GroupElement.from_shear(2, 1, 0, LaurentElement.monomial(-1))
    moved = adjoint_act(shear, AffineElement(e12), prec)
    if moved.c_coef != gr(-4):
        bad.append(f"Ad(I + t^-1 E21)(tE12) c-part = {moved.c_coef!r} != -4")
    label = classify(moved, prec)
    if (label.partition, label.k, label.level) != ((2,), 1, GR_ZERO):
        bad.append(f"worked example classifies to {label}")
    if len(enumerate_orbits(4)) != 9:
        bad.append("level-0 orbit count at n=4 != 9")
    # d itself, moved by (I + t^-1 E21)(I + t E12): tr((g^-1 g')^2) != 0, so
    # the 1/2 mu part of the c-correction shows; expected value from bracket
    e12_t = AffineElement(MatK.elementary(2, 0, 1, LaurentElement.monomial(1)))
    g = shear.compose(GroupElement.from_shear(2, 0, 1, LaurentElement.monomial(1)))
    d_only = AffineElement(MatK.zero(2), GR_ZERO, GR_ONE)
    moved = adjoint_act(g, d_only, prec)
    expected = _exp_ad(AffineElement(e21), _exp_ad(e12_t, d_only))
    if moved != expected or moved.c_coef != gr(4):
        bad.append(f"Ad((I + t^-1 E21)(I + t E12)) d c-part = {moved.c_coef!r} != 4")
    return bad


def _exp_ad(y: AffineElement, a: AffineElement) -> AffineElement:
    """exp(ad y)(a) = a + [y, a] + [y, [y, a]]/2 + ..., for ad y nilpotent on a."""
    total = term = a
    for k in range(1, 16):
        term = bracket(y, term).scale(gr(Fraction(1, k)))
        if term.mat.is_zero_3v() is True and term.c_coef.is_zero and term.d_coef.is_zero:
            return total
        total = total + term
    raise ValueError("exp(ad y) series did not stop")


def _suite_field_axioms(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        a = random_laurent(rng)
        b = random_laurent(rng)
        c = random_laurent(rng)
        if (a + b) + c != a + (b + c) or a * b != b * a:
            bad.append(f"add/mul axioms: {a!r}, {b!r}, {c!r}")
        elif (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            bad.append(f"assoc/distrib: {a!r}, {b!r}, {c!r}")
    return bad


def _suite_valuation(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        p = random_laurent(rng, nonzero=True)
        q = random_laurent(rng, nonzero=True)
        if (p * q).order() != p.order() + q.order():
            bad.append(f"order(pq): {p!r}, {q!r}")
        elif p.inv(prec).order() != -p.order():
            bad.append(f"order(inv p): {p!r}")
        elif (p.inv(prec) * p - LaurentElement.one()).is_zero_3v() is False:
            bad.append(f"inv identity: {p!r}")
    return bad


def _suite_roots(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        r = random_laurent(rng, nonzero=True)
        s = r * r
        root = s.nth_root(2, prec)
        if (root * root - s).is_zero_3v() is False:
            bad.append(f"sqrt identity: {s!r}")
    return bad


def _suite_roundtrip(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        e = random_laurent(rng)
        if parse_laurent(format_laurent(e)) != e:
            bad.append(f"roundtrip: {format_laurent(e)!r}")
    return bad


def _suite_residue_derivative(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        s = random_laurent(rng)
        if not s.d_dt().residue().is_zero:
            bad.append(f"res(ds/dt) != 0: {s!r}")
    return bad


def _suite_det_mult(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        n = rng.randint(2, 3)
        a = random_traceless(rng, n)
        b = random_traceless(rng, n)
        if ((a * b).det(prec) - a.det(prec) * b.det(prec)).is_zero_3v() is False:
            bad.append(f"det(AB): {a!r}, {b!r}")
    return bad


def _suite_product_rule(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        n = rng.randint(2, 3)
        a = random_traceless(rng, n)
        b = random_traceless(rng, n)
        lhs = (a * b).d_dt()
        rhs = a.d_dt() * b + a * b.d_dt()
        if lhs.equals(rhs) is False:
            bad.append(f"product rule: {a!r}, {b!r}")
    return bad


def _suite_bracket_laws(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        n = rng.randint(2, 4)
        xs = []
        for _ in range(3):
            xs.append(
                AffineElement(
                    random_traceless(rng, n),
                    random_gaussian(rng),
                    GaussianRational(rng.randint(-1, 1)),
                )
            )
        a, b, c = xs
        anti = bracket(a, b) + bracket(b, a)
        if anti.mat.is_zero_3v() is False or not anti.c_coef.is_zero:
            bad.append(f"antisymmetry: n={n}")
            continue
        jac = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        if jac.mat.is_zero_3v() is False or not jac.c_coef.is_zero:
            bad.append(f"jacobi: n={n}")
    return bad


def _suite_ad_matrix_homomorphism(rng: random.Random, cases: int, prec: int) -> List[str]:
    """Bracket homomorphism Ad g [x, y] = [Ad g x, Ad g y], on the matrix,
    c and d parts (the name is kept: benchmark metrics are keyed by it)."""
    bad = []
    for _ in range(cases):
        n = rng.randint(2, 3)
        g = random_group(rng, n)
        # d-parts in {-1, 0, 1} exercise the derivation terms of adjoint_act
        x = AffineElement(
            random_traceless(rng, n),
            random_gaussian(rng),
            GaussianRational(rng.randint(-1, 1)),
        )
        y = AffineElement(
            random_traceless(rng, n),
            random_gaussian(rng),
            GaussianRational(rng.randint(-1, 1)),
        )
        lhs = adjoint_act(g, bracket(x, y), prec)
        rhs = bracket(adjoint_act(g, x, prec), adjoint_act(g, y, prec))
        diff = lhs - rhs
        if (
            diff.mat.is_zero_3v() is False
            or not diff.c_coef.is_zero
            or not diff.d_coef.is_zero
        ):
            bad.append(f"Ad g [x,y] != [Ad g x, Ad g y]: n={n}")
    return bad


def _suite_ad_group_law(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        n = rng.randint(2, 3)
        g = random_shear(rng, n)
        h = random_shear(rng, n)
        if rng.random() < 0.5:
            g = GroupElement.loop_rotation(n, rng.choice(_DZ_CHOICES)).compose(g)
        if rng.random() < 0.5:
            h = h.compose(GroupElement.loop_rotation(n, rng.choice(_DZ_CHOICES)))
        x = AffineElement(
            random_traceless(rng, n),
            random_gaussian(rng),
            GaussianRational(rng.randint(0, 1)),
        )
        lhs = adjoint_act(g.compose(h), x, prec)
        rhs = adjoint_act(g, adjoint_act(h, x, prec), prec)
        diff = lhs - rhs
        if (
            diff.mat.is_zero_3v() is False
            or not diff.c_coef.is_zero
            or not diff.d_coef.is_zero
        ):
            bad.append(f"Ad(gh) != Ad g Ad h: n={n}")
    return bad


def _suite_orbit_invariance(rng: random.Random, cases: int, prec: int) -> List[str]:
    """Label invariance under random conjugation, on every partition.

    The representatives are D_{sigma,j} for any j below the smallest part, so
    shapes such as (3,2), where k collapses mod gcd(sigma), are covered."""
    bad = []
    for _ in range(cases):
        n = rng.choice((2, 2, 3, 3, 4, 5))
        sigma, k, level, elem, g = random_orbit_case(rng, n)
        moved = adjoint_act(g, elem, prec)
        label = classify(moved, prec)
        if label != OrbitLabel(sigma, k, level):
            bad.append(
                f"classify(Ad g x) = {label} != ({sigma}, {k}, {level!r})"
            )
        elif not is_nilpotent(moved):
            bad.append(f"Ad g x lost nilpotency: {sigma}, {k}")
    return bad


def _suite_distinct_labels(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for n in range(1, 6):
        reps = enumerate_orbits(n)
        labels = [classify(AffineElement(rep), prec) for _, rep in reps]
        if len(set((l.partition, l.k) for l in labels)) != len(labels):
            bad.append(f"duplicate labels at n={n}")
        for (expected, _), got in zip(reps, labels):
            if got != expected:
                bad.append(f"canonical fixed point broken: {expected} -> {got}")
    return bad


def _suite_rotation_invariance(rng: random.Random, cases: int, prec: int) -> List[str]:
    bad = []
    for _ in range(cases):
        n = rng.randint(2, 4)
        sigma = rng.choice(partitions(n))
        k = rng.randrange(sigma[-1])
        rep = canonical_rep(sigma, k)
        z = rng.choice((gr(2), gr(1, 1), gr(Fraction(1, 2))))
        rotated = read_quasi_jordan(rep.scale_t(z))
        if rotated is None or mult_order(rotated) != k:
            bad.append(f"t->zt changed multiplicity order: {sigma}, k={k}, z={z!r}")
    return bad


SUITES: Dict[str, Callable[[random.Random, int, int], List[str]]] = {
    "golden-values": _suite_golden_values,
    "laurent-field-axioms": _suite_field_axioms,
    "laurent-valuation": _suite_valuation,
    "laurent-roots": _suite_roots,
    "literal-roundtrip": _suite_roundtrip,
    "residue-of-derivative": _suite_residue_derivative,
    "det-multiplicative": _suite_det_mult,
    "derivative-product-rule": _suite_product_rule,
    "bracket-laws": _suite_bracket_laws,
    "adjoint-matrix-homomorphism": _suite_ad_matrix_homomorphism,
    "adjoint-group-law": _suite_ad_group_law,
    "orbit-invariance": _suite_orbit_invariance,
    "distinct-labels": _suite_distinct_labels,
    "rotation-invariance": _suite_rotation_invariance,
}

_HEAVY = {
    "orbit-invariance": 0.25,
    "adjoint-matrix-homomorphism": 0.5,
    "adjoint-group-law": 0.5,
}


def run_selfcheck(
    seed: int = 0,
    cases: int = 100,
    working_prec: int = DEFAULT_WORKING_PREC,
) -> Tuple[Dict[str, Tuple[int, List[str]]], bool]:
    """Run all suites; returns per-suite (cases run, failures) and a flag."""
    report: Dict[str, Tuple[int, List[str]]] = {}
    ok = True
    for name, suite in SUITES.items():
        count = max(1, int(cases * _HEAVY.get(name, 1.0)))
        rng = random.Random(f"{seed}:{name}")
        failures = suite(rng, count, working_prec)
        report[name] = (count, failures)
        if failures:
            ok = False
    return report, ok
