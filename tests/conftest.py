from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import settings

from affnil import GaussianRational, LaurentElement, MatK, parse_laurent

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
