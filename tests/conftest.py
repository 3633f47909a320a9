from __future__ import annotations

from typing import Sequence

import pytest
from hypothesis import settings

from affnil import LaurentElement, MatK, parse_laurent


def lp(text: str) -> LaurentElement:
    return parse_laurent(text)


def mat(rows: Sequence[Sequence[str]]) -> MatK:
    return MatK([[parse_laurent(e) for e in row] for row in rows])


@pytest.fixture
def two_by_two():
    return mat([["0", "t"], ["0", "0"]])


# Hypothesis draws the same examples on every run, so the suite is
# deterministic; nothing is stored between runs.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
