"""Fuzzing of the input boundary: Laurent literals and JSON documents.

Whatever the input, the parser may only raise LaurentSyntaxError, the
document loaders only DocumentError, and the CLI exits 2 on a document its
loader refuses.  The examples are derandomized (see conftest.py), so every
run tries the same inputs.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affnil import cli
from affnil.cli import DocumentError, main
from affnil.errors import LaurentSyntaxError
from affnil.laurent import format_laurent, parse_laurent

# the literal grammar's own characters, plus look-alikes that str.isdigit()
# or str.isspace() accept but int() or the grammar may not
_LITERAL_CHARS = "0123456789t^*/+-() iO" + "\t\n²٣１ e.jx_"

literals = st.text(alphabet=_LITERAL_CHARS, max_size=40)
structured_literals = st.lists(
    st.sampled_from(
        ["t", "t^", "^-", "3", "-", "+", "*", "/", "(", ")", "i", "1/2", "O(t^",
         "9" * 30, "0", " ", "t^-7", "(1+i)", "(-i)", "(- i)", "(+ i)",
         "/0", "^1001", "²"]
    ),
    max_size=12,
).map("".join)


@given(st.one_of(literals, structured_literals))
@settings(max_examples=400)
def test_parse_laurent_raises_only_syntax_errors(text):
    try:
        elem = parse_laurent(text)
    except LaurentSyntaxError:
        return
    # whatever parses prints back to an equal element
    assert parse_laurent(format_laurent(elem)) == elem


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10, max_value=10),
    st.floats(allow_nan=True, allow_infinity=True),
    literals,
    structured_literals,
    st.sampled_from(["0", "1", "t", "t^-1", "1 + O(t^3)", "O(t^2)", "(1+i)*t", "t^1001"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["n", "matrix", "c", "d", "z"]), inner, max_size=3),
    ),
    max_leaves=12,
)
_entries = st.one_of(
    st.sampled_from(["0", "1", "-1", "t", "t^-1", "2*t^2", "O(t^2)", "1 + O(t^1)",
                     "(1+i)*t", "1/2", "t^1000", "t^1001", "x"]),
    _json_scalars,
)


@st.composite
def documents(draw):
    """JSON documents shaped like element and group documents, mostly broken."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_json_values)
    size = draw(st.integers(0, 3))
    ragged = draw(st.booleans())
    matrix = [
        [draw(_entries) for _ in range(draw(st.integers(0, 3)) if ragged else size)]
        for _ in range(size)
    ]
    doc = {"matrix": draw(st.one_of(st.just(matrix), _json_values))}
    for key in ("n", "c", "d", "z"):
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(st.integers(-1, 4), _entries))
    return doc


def _write(directory: str, name: str, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


_VALID_ELEMENT = {"n": 2, "matrix": [["0", "t"], ["0", "0"]]}


@given(documents())
@settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow])
def test_document_loaders_raise_only_document_errors(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "doc.json", doc)
        valid = _write(tmp, "valid.json", _VALID_ELEMENT)
        try:
            cli.load_element(path)
        except DocumentError:
            assert main(["classify", path]) == 2
        try:
            cli.load_group(path, 16)
        except DocumentError:
            assert main(["act", path, valid]) == 2


@given(st.binary(max_size=40))
@settings(max_examples=100)
def test_undecodable_files_are_document_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(data)
        for load in (cli.load_element, lambda p: cli.load_group(p, 16)):
            try:
                load(path)
            except DocumentError:
                pass


def test_a_digit_that_int_does_not_read_is_a_syntax_error():
    with pytest.raises(LaurentSyntaxError, match="not decimal"):
        parse_laurent("t^²")
    # digits of other scripts that int() reads are read as they always were
    assert parse_laurent("٣*t") == parse_laurent("3*t")


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["classify", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    path.write_bytes(b'{"matrix": [["\x80"]]}')
    assert main(["classify", str(path)]) == 2
