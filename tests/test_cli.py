from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

import affnil.cli
import affnil.laurent
from affnil import (
    AffineElement, GroupElement, MatK, adjoint_act, gr, parse_laurent, parse_scalar,
)
from affnil.cli import main
from affnil.selfcheck import random_orbit_case

from conftest import lp


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def canonical_d42_doc():
    return {
        "n": 4,
        "matrix": [
            ["0", "1", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "t^2"],
            ["0", "0", "0", "0"],
        ],
        "c": "0",
        "d": "0",
    }


# -- classify -----------------------------------------------------------------


def test_classify_canonical(tmp_path, capsys):
    path = write(tmp_path, "elem.json", canonical_d42_doc())
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.strip() == "partition=[4] k=2 level=0"


def test_classify_json_output(tmp_path, capsys):
    path = write(tmp_path, "elem.json", canonical_d42_doc())
    assert main(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"partition": [4], "k": 2, "level": "0"}


def test_classify_zero_matrix_with_level(tmp_path, capsys):
    doc = {"n": 4, "matrix": [["0"] * 4 for _ in range(4)], "c": "5"}
    path = write(tmp_path, "elem.json", doc)
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.strip() == "partition=[1,1,1,1] k=0 level=5"


def test_classify_derivation_exits_3(tmp_path, capsys):
    doc = {"n": 2, "matrix": [["0", "0"], ["0", "0"]], "d": "1"}
    path = write(tmp_path, "elem.json", doc)
    assert main(["classify", path]) == 3
    assert "derivation component" in capsys.readouterr().err


def test_classify_non_nilpotent_exits_3(tmp_path, capsys):
    doc = {"n": 2, "matrix": [["1", "0"], ["0", "-1"]]}
    path = write(tmp_path, "elem.json", doc)
    assert main(["classify", path]) == 3


def test_classify_parse_error_exits_2(tmp_path, capsys):
    doc = {"n": 2, "matrix": [["0", "1 +"], ["0", "0"]]}
    path = write(tmp_path, "elem.json", doc)
    assert main(["classify", path]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


def test_classify_nonzero_trace_exits_2(tmp_path):
    doc = {"n": 2, "matrix": [["1", "0"], ["0", "0"]]}
    path = write(tmp_path, "elem.json", doc)
    assert main(["classify", path]) == 2


def test_group_document_without_certificate_exits_2(tmp_path, capsys):
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    group = write(tmp_path, "group.json", {"matrix": [["t", "0"], ["0", "1"]]})
    assert main(["act", group, elem]) == 2
    assert "multiple" in capsys.readouterr().err


def test_group_document_with_undetermined_determinant_exits_2(tmp_path, capsys):
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    group = write(tmp_path, "group.json", {"matrix": [["O(t^0)", "0"], ["0", "1"]]})
    assert main(["act", group, elem]) == 2
    assert "determinant undetermined" in capsys.readouterr().err


def test_group_document_det_one_up_to_truncation_refuses_a_derivation_part(tmp_path, capsys):
    """Its determinant is 1 only up to O(t^5), so it carries the n-th-power
    certificate, which cannot move a derivation part."""
    group = write(tmp_path, "group.json", {"z": "1", "matrix": [["1 + O(t^5)", "0"], ["0", "1"]]})
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "0"], ["0", "0"]], "d": "1"})
    assert main(["act", group, elem]) == 2
    assert "derivation part" in capsys.readouterr().err


def test_malformed_matrix_shape_exits_2(tmp_path):
    path = write(tmp_path, "elem.json", {"n": 3, "matrix": [["0", "0"], ["0", "0"]]})
    assert main(["classify", path]) == 2
    path = write(tmp_path, "elem2.json", {"matrix": "nope"})
    assert main(["classify", path]) == 2


@pytest.mark.parametrize("n, shown", [("2", '"2"'), (2.5, "2.5"), (2.0, "2.0"), (True, "true")])
def test_n_must_be_a_json_integer(tmp_path, capsys, n, shown):
    # "2" and 2.0 would match a 2x2 matrix by value, and true would be read as 1
    elem = write(tmp_path, "elem.json", {"n": n, "matrix": [["0", "t"], ["0", "0"]]})
    assert main(["classify", elem]) == 2
    assert f"n must be a JSON integer, not {shown}" in capsys.readouterr().err
    one = write(tmp_path, "one.json", {"n": n, "matrix": [["0"]]})
    assert main(["classify", one]) == 2
    assert f"n must be a JSON integer, not {shown}" in capsys.readouterr().err
    group = write(tmp_path, "group.json", {"n": n, "z": "1", "matrix": [["1", "0"], ["0", "1"]]})
    assert main(["act", group, write(tmp_path, "ok.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})]) == 2
    assert "n must be a JSON integer" in capsys.readouterr().err


def test_classify_precision_exhausted_exits_4(tmp_path, capsys):
    doc = {
        "n": 2,
        "matrix": [
            ["-1 + O(t^20)", "t + O(t^20)"],
            ["-t^-1 + O(t^20)", "1 + O(t^20)"],
        ],
        "c": "-4",
    }
    path = write(tmp_path, "elem.json", doc)
    assert main(["classify", path]) == 4
    assert "--prec" in capsys.readouterr().err


# -- enumerate ----------------------------------------------------------------


def test_enumerate_n4_table(capsys):
    assert main(["enumerate", "-n", "4", "--level", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0] == (
        "partition=[1,1,1,1] k=0 level=0 "
        "rep=[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]"
    )
    assert lines[3] == (
        "partition=[2,2] k=1 level=0 "
        "rep=[[0,1,0,0],[0,0,0,0],[0,0,0,t],[0,0,0,0]]"
    )
    assert lines[8] == (
        "partition=[4] k=3 level=0 "
        "rep=[[0,1,0,0],[0,0,1,0],[0,0,0,t^3],[0,0,0,0]]"
    )


def test_enumerate_n4_text_is_pinned(capsys):
    # the representatives are printed through matrix_doc, byte for byte as
    # the text output before that
    assert main(["enumerate", "-n", "4"]) == 0
    zero, one = "[0,0,0,0]", "[0,1,0,0]"
    reps = [
        ("[1,1,1,1] k=0", [zero, zero, zero, zero]),
        ("[2,1,1] k=0", [one, zero, zero, zero]),
        ("[2,2] k=0", [one, zero, "[0,0,0,1]", zero]),
        ("[2,2] k=1", [one, zero, "[0,0,0,t]", zero]),
        ("[3,1] k=0", [one, "[0,0,1,0]", zero, zero]),
        ("[4] k=0", [one, "[0,0,1,0]", "[0,0,0,1]", zero]),
        ("[4] k=1", [one, "[0,0,1,0]", "[0,0,0,t]", zero]),
        ("[4] k=2", [one, "[0,0,1,0]", "[0,0,0,t^2]", zero]),
        ("[4] k=3", [one, "[0,0,1,0]", "[0,0,0,t^3]", zero]),
    ]
    assert capsys.readouterr().out == "".join(
        f"partition={label} level=0 rep=[{','.join(rows)}]\n" for label, rows in reps
    )


def test_enumerate_deterministic(capsys):
    main(["enumerate", "-n", "5"])
    first = capsys.readouterr().out
    main(["enumerate", "-n", "5"])
    assert capsys.readouterr().out == first


def test_enumerate_json(capsys):
    assert main(["enumerate", "-n", "2", "--json", "--level", "1/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2 and payload["level"] == "1/2"
    assert len(payload["orbits"]) == 3
    assert payload["orbits"][2]["rep"] == [["0", "t"], ["0", "0"]]
    # --json is the one switch for JSON output
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-n", "2", "--format", "json"])
    assert exc.value.code == 2


def test_enumerate_bad_level_exits_2(capsys):
    assert main(["enumerate", "-n", "2", "--level", "t+1"]) == 2


def test_enumerate_n_over_the_limit_exits_2_before_any_work(monkeypatch, capsys):
    def unreachable(n, level):
        raise AssertionError("enumerate_orbits called")

    monkeypatch.setattr(affnil.cli, "enumerate_orbits", unreachable)
    limit = affnil.cli.MAX_ENUMERATE_N
    assert main(["enumerate", "-n", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: -n {limit + 1} exceeds the limit {limit}\n"
    assert captured.out == ""
    # the limit is inclusive
    monkeypatch.setattr(affnil.cli, "enumerate_orbits", lambda n, level: [])
    assert main(["enumerate", "-n", str(limit)]) == 0


def test_closed_stdout_exits_141_with_nothing_on_stderr():
    # about 0.6 MB of output, more than a pipe holds: the CLI is still
    # writing when the reader closes its end after 100 bytes
    src = os.path.dirname(os.path.dirname(affnil.cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "affnil.cli", "enumerate", "-n", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
        bufsize=0,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == affnil.cli.EXIT_PIPE_CLOSED == 141
    assert err == b""
    assert head.startswith(b"partition=[1,1,")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["enumerate", "-n", "0"], "-n"),
        (["--prec", "0", "enumerate", "-n", "2"], "--prec"),
        (["enumerate", "-n", "2", "--prec", "-3"], "--prec"),
    ],
)
def test_nonpositive_n_or_prec_exits_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err


# -- act / bracket ---------------------------------------------------------------


def test_act_identity_echoes_input(tmp_path, capsys):
    elem = write(tmp_path, "elem.json", canonical_d42_doc())
    group = write(
        tmp_path,
        "group.json",
        {"z": "1", "matrix": [["1" if i == j else "0" for j in range(4)] for i in range(4)]},
    )
    assert main(["act", group, elem]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == canonical_d42_doc()


def test_act_worked_example(tmp_path, capsys):
    elem = write(
        tmp_path, "elem.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]}
    )
    group = write(
        tmp_path, "group.json", {"matrix": [["1", "0"], ["t^-1", "1"]]}
    )
    assert main(["act", group, elem]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [["-1", "t"], ["-t^-1", "1"]]
    assert doc["c"] == "-4" and doc["d"] == "0"


def test_act_output_reparses(tmp_path, capsys):
    elem = write(
        tmp_path, "elem.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]], "c": "1/2"}
    )
    group = write(
        tmp_path, "group.json", {"z": "2", "matrix": [["1", "t^2 - 1"], ["0", "1"]]}
    )
    assert main(["act", group, elem]) == 0
    doc = json.loads(capsys.readouterr().out)
    for row in doc["matrix"]:
        for entry in row:
            parse_laurent(entry)
    parse_scalar(doc["c"])


def test_act_with_rotation_matches_the_library(tmp_path, capsys):
    # the CLI applies d_z as t -> z t on Ad g; the library composes (z, g)
    rng = random.Random("act-rotation")
    for trial in range(12):
        n = rng.randint(2, 5)
        _, _, _, elem, g = random_orbit_case(rng, n)
        g = GroupElement(gr(2), g.g, g.det_mode)
        if trial % 3 == 1:  # a derivation part
            elem = AffineElement(elem.mat, elem.c_coef, gr(rng.choice((-1, 1))))
        elem_path = write(tmp_path, "elem.json", affnil.cli.element_doc(elem))
        group_path = write(tmp_path, "group.json", affnil.cli.group_doc(g))
        assert main(["act", group_path, elem_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == affnil.cli.element_doc(adjoint_act(g, elem))


def test_act_truncated_output_reparses(tmp_path, capsys):
    # certified (non-monomial unit det) conjugator: the inverse is a genuine
    # series, so the emitted document carries O(t^N) markers
    elem = write(
        tmp_path, "elem.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]}
    )
    group = write(
        tmp_path, "group.json", {"matrix": [["1 + t", "0"], ["0", "1"]]}
    )
    assert main(["act", group, elem, "--prec", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    entry = doc["matrix"][0][1]
    assert "O(t^" in entry
    reparsed = parse_laurent(entry)
    assert reparsed.prec is not None


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_act_exponent_over_the_limit_exits_2_at_load(tmp_path, capsys):
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "0"], ["t", "0"]]})
    group = write(
        tmp_path, "group.json", {"z": "2", "matrix": [["1", "t^100000000"], ["0", "1"]]}
    )
    assert main(["act", group, elem]) == 2
    assert "exponent magnitude 100000000 exceeds the limit 1000" in _one_line_error(capsys)
    # the limit is inclusive, and also bounds truncation markers
    group = write(tmp_path, "group.json", {"matrix": [["1", "t^-1000"], ["0", "1"]]})
    assert main(["act", group, elem]) == 0
    capsys.readouterr()
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "0"], ["t + O(t^1001)", "0"]]})
    assert main(["classify", elem]) == 2
    assert "exceeds the limit 1000" in _one_line_error(capsys)


def test_act_rotation_over_the_size_limit_exits_2(tmp_path, capsys):
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "0"], ["t", "0"]]})
    # Ad g puts t^501 in the result; (10^10)^501 has 5011 digits
    group = write(
        tmp_path, "group.json", {"z": "10000000000", "matrix": [["1", "t^500"], ["0", "1"]]}
    )
    assert main(["act", group, elem]) == 2
    assert "over the limit 3000" in _one_line_error(capsys)
    group = write(tmp_path, "group.json", {"z": "2", "matrix": [["1", "t^500"], ["0", "1"]]})
    assert main(["act", group, elem]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"][0][0] == f"{2 ** 501}*t^501"


def test_overlong_integer_literal_exits_2(tmp_path, capsys):
    doc = {"n": 2, "matrix": [["0", "7" * 5000 + "*t"], ["0", "0"]]}
    assert main(["classify", write(tmp_path, "elem.json", doc)]) == 2
    assert "too long" in _one_line_error(capsys)


def test_repeated_bad_literal_is_reported_at_its_first_entry(tmp_path, capsys):
    doc = {"n": 3, "matrix": [["0", "t", "0"], ["0", "0", "3*"], ["3*", "0", "3*"]]}
    path = write(tmp_path, "elem.json", doc)
    assert main(["classify", path]) == 2
    err = _one_line_error(capsys)
    assert "entry (1,2): " in err and "(2," not in err
    with pytest.raises(affnil.cli.DocumentError) as first:
        affnil.cli.load_element(path)
    doc["matrix"][2] = ["0", "0", "0"]  # the same literal, now only once
    with pytest.raises(affnil.cli.DocumentError) as single:
        affnil.cli.load_element(write(tmp_path, "elem.json", doc))
    assert str(first.value) == str(single.value)


def test_repeated_over_limit_exponent_is_rejected_at_its_first_entry(tmp_path, capsys):
    group = write(tmp_path, "group.json", {"matrix": [["1", "t^2000"], ["t^2000", "1"]]})
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "0"], ["t", "0"]]})
    assert main(["act", group, elem]) == 2
    err = _one_line_error(capsys)
    assert "entry (0,1): exponent magnitude 2000 exceeds the limit 1000" in err


def test_json_numbers_and_literals_mix(tmp_path):
    doc = {"n": 2, "matrix": [[0, "t"], ["0", 0]], "c": 0}
    elem = affnil.cli.load_element(write(tmp_path, "elem.json", doc))
    assert elem.mat == MatK([[lp("0"), lp("t")], [lp("0"), lp("0")]])
    doc = {"matrix": [[1, "t"], ["0", "1"]]}
    g = affnil.cli.load_group(write(tmp_path, "group.json", doc), 64)
    assert g.g == MatK([[lp("1"), lp("t")], [lp("0"), lp("1")]])


def _entrywise(doc) -> MatK:
    return MatK([[parse_laurent(str(lit)) for lit in row] for row in doc["matrix"]])


def test_loaders_match_entrywise_parsing_on_seeded_documents(tmp_path):
    rng = random.Random(15)
    for trial in range(24):
        n = rng.randint(2, 6)
        _, _, _, elem, g = random_orbit_case(rng, n)
        if trial % 4 == 3:  # one truncated entry above the diagonal
            rows = [list(row) for row in elem.mat.rows]
            rows[0][n - 1] = rows[0][n - 1].truncated(rng.randint(-3, 8))
            elem = AffineElement(MatK(rows), elem.c_coef)
        elem_doc = affnil.cli.element_doc(elem)
        loaded = affnil.cli.load_element(write(tmp_path, "elem.json", elem_doc))
        assert loaded.mat == _entrywise(elem_doc) == elem.mat
        assert loaded.c_coef == elem.c_coef and loaded.d_coef == elem.d_coef
        group_doc = affnil.cli.group_doc(g)
        loaded_g = affnil.cli.load_group(write(tmp_path, "group.json", group_doc), 64)
        assert loaded_g.g == _entrywise(group_doc) == g.g
        assert loaded_g.z == g.z


def test_act_result_over_the_output_digit_limit_exits_2(tmp_path, capsys):
    # both inputs are in the limits; their product has 10^6000 in it
    big = "1" + "0" * 3000 + "*t"
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "0"], [big, "0"]]})
    group = write(tmp_path, "group.json", {"matrix": [["1", big], ["0", "1"]]})
    assert main(["act", group, elem]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"output limit of {sys.get_int_max_str_digits()} digits" in err
    # the same product at 10^1000 prints
    small = "1" + "0" * 1000 + "*t"
    elem = write(tmp_path, "elem.json", {"n": 2, "matrix": [["0", "0"], [small, "0"]]})
    group = write(tmp_path, "group.json", {"matrix": [["1", small], ["0", "1"]]})
    assert main(["act", group, elem]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"][0][0] == "1" + "0" * 2000 + "*t^2"


def test_unexpected_exception_exits_70_on_one_line(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(affnil.cli, "classify", broken)
    path = write(tmp_path, "elem.json", canonical_d42_doc())
    assert main(["classify", path]) == 70
    err = _one_line_error(capsys)
    assert err == "error: internal error: RuntimeError: first line second line\n"


def test_bracket_with_central_element(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"n": 2, "matrix": [["0", "0"], ["0", "0"]], "c": "3"})
    b = write(tmp_path, "b.json", {"n": 2, "matrix": [["0", "t"], ["t^-1", "0"]]})
    assert main(["bracket", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [["0", "0"], ["0", "0"]]
    assert doc["c"] == "0" and doc["d"] == "0"


def test_bracket_monomials(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    b = write(tmp_path, "b.json", {"n": 2, "matrix": [["0", "0"], ["t^-1", "0"]]})
    assert main(["bracket", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrix"] == [["1", "0"], ["0", "-1"]]
    assert doc["c"] == "4"


def test_bracket_trace_form_flag(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    b = write(tmp_path, "b.json", {"n": 2, "matrix": [["0", "0"], ["t^-1", "0"]]})
    assert main(["bracket", a, b, "--form", "trace"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c"] == "1"


# -- conjugator -------------------------------------------------------------------


def test_conjugator_example(tmp_path, capsys):
    src = write(tmp_path, "src.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    dst = write(tmp_path, "dst.json", {"n": 2, "matrix": [["0", "t^3"], ["0", "0"]]})
    assert main(["conjugator", src, dst]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["z"] == "1"
    assert doc["matrix"] == [["t", "0"], ["0", "t^-1"]]


def test_conjugator_not_conjugate_exits_5(tmp_path, capsys):
    src = write(tmp_path, "src.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    dst = write(tmp_path, "dst.json", {"n": 2, "matrix": [["0", "t^2"], ["0", "0"]]})
    assert main(["conjugator", src, dst]) == 5


def test_conjugator_requires_quasi_jordan(tmp_path, capsys):
    src = write(tmp_path, "src.json", {"n": 2, "matrix": [["0", "0"], ["t", "0"]]})
    dst = write(tmp_path, "dst.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    assert main(["conjugator", src, dst]) == 2


def test_conjugator_output_is_group_document(tmp_path, capsys):
    src = write(tmp_path, "src.json", {"n": 2, "matrix": [["0", "t^-1"], ["0", "0"]]})
    dst = write(tmp_path, "dst.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]})
    assert main(["conjugator", src, dst]) == 0
    doc = json.loads(capsys.readouterr().out)
    group = write(tmp_path, "group.json", doc)
    assert main(["act", group, src]) == 0
    acted = json.loads(capsys.readouterr().out)
    assert acted["matrix"][0][1] == "t"


# -- selfcheck ---------------------------------------------------------------------


def test_selfcheck_passes(capsys):
    assert main(["selfcheck", "--cases", "8", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out


@pytest.mark.parametrize("cases", ["0", "-1", "two"])
def test_selfcheck_cases_must_be_a_positive_integer(cases, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", "--cases", cases])
    assert exc.value.code == 2
    assert "argument --cases:" in capsys.readouterr().err


def test_selfcheck_deterministic(capsys):
    main(["selfcheck", "--cases", "6", "--seed", "7"])
    first = capsys.readouterr().out
    main(["selfcheck", "--cases", "6", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_selfcheck_catches_corrupted_residue(capsys, monkeypatch):
    real = affnil.laurent.LaurentElement.residue

    def flipped(self):
        return -real(self)

    monkeypatch.setattr(affnil.laurent.LaurentElement, "residue", flipped)
    assert main(["selfcheck", "--cases", "6", "--seed", "1"]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_prec_flag_threads_through(tmp_path, capsys):
    elem = write(
        tmp_path, "elem.json", {"n": 2, "matrix": [["0", "t"], ["0", "0"]]}
    )
    group = write(
        tmp_path, "group.json", {"matrix": [["1", "0"], ["t^-1 + 1", "1"]]}
    )
    assert main(["act", group, elem, "--prec", "12"]) == 0
    json.loads(capsys.readouterr().out)
