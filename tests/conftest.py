from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import settings

from affnil import (
    AffineElement,
    GaussianRational,
    LaurentElement,
    MatK,
    adjoint_act,
    gr,
    parse_laurent,
)
from affnil.selfcheck import random_group, random_laurent, random_orbit_case

# When a @given test fails, hypothesis imports this module to print a patch;
# it pulls in libcst, whose import warns DeprecationWarning, and the
# filterwarnings = ["error"] setting would turn that into an INTERNALERROR
# that hides the failure.  Import it once here, with that warning ignored.
# Without libcst installed the import fails, and hypothesis skips the patch.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def lp(text: str) -> LaurentElement:
    return parse_laurent(text)


def mat(rows: Sequence[Sequence[str]]) -> MatK:
    return MatK([[parse_laurent(e) for e in row] for row in rows])


_STRESS_LEVELS = (gr(0), gr(1), gr(Fraction(-3, 2)))


def stress_case(n: int, shears: int, j: int):
    """The benchmark's classify-stress case stress:n:shears:j, with a level
    fixed by j: (sigma, k, level, the conjugated element)."""
    rng = random.Random(f"stress:{n}:{shears}:{j}")
    sigma, k, _, elem, _ = random_orbit_case(rng, n)
    g = random_group(rng, n, shears)
    level = _STRESS_LEVELS[j % len(_STRESS_LEVELS)]
    return sigma, k, level, adjoint_act(g, AffineElement(elem.mat, level), 64)


def lower_truncated_cases(seed: str, count: int, smallest: int = 2, sizes: int = 5):
    """(exact x, cut x, level) for `count` strictly lower triangular x of
    sizes n = smallest + case % sizes, with about half of the nonzero entries
    of the cut x cut 1, 5 or 20 above their top exponent."""
    rng = random.Random(seed)
    for case in range(count):
        n = smallest + case % sizes
        exact = [[random_laurent(rng, max_terms=2) if j < i else lp("0") for j in range(n)]
                 for i in range(n)]
        cut = [[LaurentElement(e.coeffs, max(e.coeffs) + rng.choice((1, 5, 20)))
                if e.coeffs and rng.random() < 0.5 else e for e in row] for row in exact]
        level = rng.choice(_STRESS_LEVELS)
        yield MatK(exact), MatK(cut), level


def trunc_bound(x: LaurentElement):
    """The truncation bound of x, infinite when x is exact."""
    return math.inf if x.prec is None else x.prec


def agree_below(x: LaurentElement, y: LaurentElement, bound) -> bool:
    """x and y have the same coefficient at every exponent below bound."""
    return all(x.coeffs.get(e) == y.coeffs.get(e)
               for e in set(x.coeffs) | set(y.coeffs) if e < bound)


def content_oracle(v):
    """(c, e) with v = c·t^e·w, w of integer coefficient parts with gcd 1 and
    least exponent 0, by a gcd of the numerators and an lcm of the
    denominators over the coefficients; None for a zero or truncated v."""
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


def normalize_oracle(v):
    """v divided by its :func:`content_oracle`, entry by entry; a zero or
    truncated v as is."""
    content = content_oracle(v)
    if content is None:
        return v
    scalar, exp = content
    inv = scalar.inverse()
    return tuple(el.shift(-exp).scale(inv) for el in v)


@pytest.fixture
def two_by_two():
    return mat([["0", "t"], ["0", "0"]])


# Hypothesis draws the same examples on every run, so the suite is
# deterministic; nothing is stored between runs.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
