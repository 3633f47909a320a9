"""The README's Library example runs and gives the results its comments state."""

from __future__ import annotations

import re
from pathlib import Path

from affnil import MatK, OrbitLabel, gr

from conftest import lp

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_readme_library_example():
    block = _library_block()
    # the comments state these results; pin the text as well as the values
    assert "# (tE12 - E11 + E22 - t^-1 E21) - 4c" in block
    assert "# OrbitLabel(partition=(2,), k=1, level=0)" in block
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    moved = namespace["moved"]
    assert moved.mat == MatK([[lp("-1"), lp("t")], [lp("-t^-1"), lp("1")]])
    assert moved.c_coef == gr(-4) and moved.d_coef == gr(0)
    assert namespace["classify"](moved) == OrbitLabel((2,), 1, gr(0))
