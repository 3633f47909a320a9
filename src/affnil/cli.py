"""Command-line front end.

Subcommands: classify, enumerate, act, bracket, conjugator, selfcheck.
Elements travel as JSON documents whose leaves are Laurent literals:

    {"n": 2, "matrix": [["0", "t"], ["0", "0"]], "c": "0", "d": "0"}
    {"z": "1", "matrix": [["1", "0"], ["t^-1", "1"]]}

Exit codes: 0 success, 1 selfcheck failure, 2 parse/validation error,
3 not nilpotent, 4 precision exhausted, 5 not conjugate, 70 internal error
(any other exception, reported on one line without a traceback), 141 the
reader closed the output early (128 + SIGPIPE, the status a shell reports for
a command that signal ends; nothing is written to stderr).

Size limits, checked before the work they would make expensive (exit 2):
every exponent and truncation bound in a document lies in
[-MAX_EXPONENT, MAX_EXPONENT], and ``act`` with a loop rotation z refuses a
result whose factors z^e would exceed MAX_ROTATION_DIGITS decimal digits.
``enumerate`` refuses n above MAX_ENUMERATE_N: its output grows as p(n)·n².
A result with an integer longer than the interpreter converts to text
(``sys.get_int_max_str_digits()``, 4300 digits by default) is refused when
it is formatted, before anything is printed (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional

from .affine import AffineElement, GroupElement, adjoint_act, bracket
from .errors import (
    AffnilError,
    LaurentSyntaxError,
    NotConjugate,
    NotNilpotent,
    NotTraceless,
    NotUnimodular,
    PrecisionExhausted,
    ShapeMismatch,
)
from .gaussian import GaussianRational, gr
from .laurent import (
    DEFAULT_WORKING_PREC,
    LaurentElement,
    format_laurent,
    format_scalar,
    parse_laurent,
    parse_scalar,
)
from .matk import MatK
from .normalform import OrbitLabel, read_quasi_jordan
from .orbits import classify, conjugator_quasi_jordan, enumerate_orbits

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_PARSE = 2
EXIT_NOT_NILPOTENT = 3
EXIT_PRECISION = 4
EXIT_NOT_CONJUGATE = 5
EXIT_INTERNAL = 70
EXIT_PIPE_CLOSED = 141

MAX_EXPONENT = 1000
MAX_ROTATION_DIGITS = 3000
MAX_ENUMERATE_N = 30


class DocumentError(ValueError):
    """Malformed input document."""


# -- documents ----------------------------------------------------------------


def _load_json(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: document must be a JSON object")
    return doc


def _parse_matrix(doc: Dict[str, Any], path: str) -> MatK:
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or not matrix:
        raise DocumentError(f"{path}: missing matrix")
    n = doc.get("n", len(matrix))
    # a JSON integer only: bool is an int subclass, and 2.0 or "2" are not n
    if type(n) is not int:
        shown = json.dumps(n)
        if len(shown) > 20:
            shown = shown[:17] + "..."
        raise DocumentError(f"{path}: n must be a JSON integer, not {shown}")
    if n != len(matrix) or any(not isinstance(r, list) or len(r) != n for r in matrix):
        raise DocumentError(f"{path}: matrix must be {n}x{n}")
    # Documents are sparse and repeat a few literals ("0", "1") many times.
    # LaurentElement is immutable, so each distinct text is parsed and
    # checked once, at its first entry, and the value is shared after that.
    parsed: Dict[str, LaurentElement] = {}
    rows: List[List[LaurentElement]] = []
    for i, row in enumerate(matrix):
        out = []
        for j, lit in enumerate(row):
            text = str(lit)
            el = parsed.get(text)
            if el is None:
                try:
                    el = parse_laurent(text)
                except LaurentSyntaxError as exc:
                    raise DocumentError(f"{path}: entry ({i},{j}): {exc}") from exc
                top = _max_abs_exponent(el)
                if top > MAX_EXPONENT:
                    raise DocumentError(
                        f"{path}: entry ({i},{j}): exponent magnitude {top} exceeds "
                        f"the limit {MAX_EXPONENT}"
                    )
                parsed[text] = el
            out.append(el)
        rows.append(out)
    return MatK(rows)


def _max_abs_exponent(el: LaurentElement) -> int:
    coeffs = el.coeffs
    top = max(max(coeffs), -min(coeffs)) if coeffs else 0
    return top if el.prec is None else max(top, abs(el.prec))


def load_element(path: str) -> AffineElement:
    doc = _load_json(path)
    mat = _parse_matrix(doc, path)
    try:
        c = parse_scalar(str(doc.get("c", "0")))
        d = parse_scalar(str(doc.get("d", "0")))
    except LaurentSyntaxError as exc:
        raise DocumentError(f"{path}: scalar field: {exc}") from exc
    try:
        return AffineElement(mat, c, d)
    except NotTraceless as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def load_group(path: str, working_prec: int) -> GroupElement:
    doc = _load_json(path)
    mat = _parse_matrix(doc, path)
    try:
        z = parse_scalar(str(doc.get("z", "1")))
    except LaurentSyntaxError as exc:
        raise DocumentError(f"{path}: scalar field: {exc}") from exc
    try:
        return GroupElement.checked(mat, z, working_prec)
    except NotUnimodular as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    except PrecisionExhausted as exc:
        # the truncation is in the document, so a larger --prec cannot help
        raise DocumentError(f"{path}: determinant undetermined: {exc}") from exc


def _sized_output(fn):
    """Turn the interpreter's int-to-str refusal inside a formatter into a
    DocumentError (exit 2) that names the limit.  The wrapped functions only
    format values that already exist, so that is the only ValueError there."""

    @functools.wraps(fn)
    def wrapper(*args):
        try:
            return fn(*args)
        except ValueError:
            raise DocumentError(
                "a result coefficient has an integer over the output limit of "
                f"{sys.get_int_max_str_digits()} digits (the interpreter's int-to-str "
                "conversion limit)"
            ) from None

    return wrapper


@_sized_output
def matrix_doc(mat: MatK) -> List[List[str]]:
    # an exact zero, most entries of a sparse result, prints without a call
    return [["0" if not e.coeffs and e.prec is None else format_laurent(e) for e in row]
            for row in mat.rows]


@_sized_output
def element_doc(elem: AffineElement) -> Dict[str, Any]:
    return {
        "n": elem.n,
        "matrix": matrix_doc(elem.mat),
        "c": format_scalar(elem.c_coef),
        "d": format_scalar(elem.d_coef),
    }


@_sized_output
def group_doc(g: GroupElement) -> Dict[str, Any]:
    return {"z": format_scalar(g.z), "matrix": matrix_doc(g.g)}


@_sized_output
def _label_text(label: OrbitLabel) -> str:
    parts = ",".join(str(p) for p in label.partition)
    return f"partition=[{parts}] k={label.k} level={format_scalar(label.level)}"


@_sized_output
def _label_json(label: OrbitLabel) -> Dict[str, Any]:
    return {
        "partition": list(label.partition),
        "k": label.k,
        "level": format_scalar(label.level),
    }


def _kappa(args) -> Optional[GaussianRational]:
    return gr(1) if args.form == "trace" else None


# -- subcommands ----------------------------------------------------------------


def _cmd_classify(args) -> int:
    elem = load_element(args.file)
    label = classify(elem, args.prec, _kappa(args))
    if args.json:
        print(json.dumps(_label_json(label)))
    else:
        print(_label_text(label))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.n > MAX_ENUMERATE_N:
        raise DocumentError(f"-n {args.n} exceeds the limit {MAX_ENUMERATE_N}")
    try:
        level = parse_scalar(args.level)
    except LaurentSyntaxError as exc:
        raise DocumentError(f"--level: {exc}") from exc
    orbits = enumerate_orbits(args.n, level)
    if args.json:
        payload = {
            "n": args.n,
            "level": format_scalar(level),
            "orbits": [
                {**_label_json(label), "rep": matrix_doc(rep)}
                for label, rep in orbits
            ],
        }
        print(json.dumps(payload))
    else:
        for label, rep in orbits:
            rows = ",".join("[" + ",".join(row) + "]" for row in matrix_doc(rep))
            print(f"{_label_text(label)} rep=[{rows}]")
    return EXIT_OK


def _rotation_digits(mat: MatK, z: GaussianRational) -> float:
    """Upper bound on the decimal digits of the factors z^e that t -> z t puts
    on the coefficients of mat."""
    norm = abs(z.a) + abs(z.b)
    up = math.log10(max(norm, z.d))  # height of z^e is at most this^e, e > 0
    down = math.log10(max(norm * z.d, z.a * z.a + z.b * z.b))  # and for z^-1
    digits = 0.0
    for row in mat.rows:
        for el in row:
            for e in el.coeffs:
                digits = max(digits, e * up if e > 0 else -e * down)
    return digits


def _cmd_act(args) -> int:
    g = load_group(args.group_file, args.prec)
    elem = load_element(args.elem_file)
    kappa = _kappa(args)
    # Ad (z, g) = Ad d_z o Ad g, and Ad d_z is t -> z t on the matrix part
    # alone; the size of the rotation is checked on Ad g
    result = adjoint_act(GroupElement(gr(1), g.g, g.det_mode), elem, args.prec, kappa)
    if g.z != gr(1):
        digits = _rotation_digits(result.mat, g.z)
        if digits > MAX_ROTATION_DIGITS:
            raise DocumentError(
                f"{args.group_file}: t -> z t would give coefficients of about "
                f"{digits:.0f} digits, over the limit {MAX_ROTATION_DIGITS}"
            )
        result = AffineElement(result.mat.scale_t(g.z), result.c_coef, result.d_coef)
    print(json.dumps(element_doc(result), indent=None if args.json else 2))
    return EXIT_OK


def _cmd_bracket(args) -> int:
    a = load_element(args.a_file)
    b = load_element(args.b_file)
    result = bracket(a, b, _kappa(args))
    print(json.dumps(element_doc(result), indent=None if args.json else 2))
    return EXIT_OK


def _cmd_conjugator(args) -> int:
    forms = []
    for path in (args.from_file, args.to_file):
        elem = load_element(path)
        form = read_quasi_jordan(elem.mat)
        if form is None:
            raise DocumentError(f"{path}: matrix is not quasi-Jordan")
        forms.append(form)
    g = conjugator_quasi_jordan(forms[0], forms[1], args.prec)
    print(json.dumps(group_doc(g), indent=None if args.json else 2))
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck  # only this subcommand needs it

    report, ok = run_selfcheck(args.seed, args.cases, args.prec)
    total_failures = 0
    for name, (count, failures) in report.items():
        status = "ok" if not failures else f"FAILED ({len(failures)})"
        print(f"{name:>24}: {count:4d} cases  {status}")
        total_failures += len(failures)
        for line in failures[:3]:
            print(f"{'':>26}counterexample: {line}")
    print(f"selfcheck: {'all suites passed' if ok else f'{total_failures} failures'}")
    return EXIT_OK if ok else EXIT_SELFCHECK


# -- argument parsing ----------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for sizes and precisions: a bad value exits 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--prec",
        type=_positive_int,
        default=argparse.SUPPRESS,
        help=f"working precision for truncated series (default {DEFAULT_WORKING_PREC})",
    )
    parser.add_argument(
        "--form",
        choices=("killing", "trace"),
        default=argparse.SUPPRESS,
        help="bilinear form normalization (default killing, i.e. 2n*tr)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affnil",
        description="Classify nilpotent orbits of affine sl_n over exact Laurent series.",
    )
    parser.set_defaults(prec=DEFAULT_WORKING_PREC, form="killing", json=False)
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="orbit label of an element document")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("enumerate", help="canonical representatives for a given n")
    p.add_argument("-n", type=_positive_int, required=True)
    p.add_argument("--level", default="0", help="level attached to each label")
    _add_common(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("act", help="adjoint action of a group document on an element")
    p.add_argument("group_file")
    p.add_argument("elem_file")
    _add_common(p)
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser("bracket", help="Lie bracket of two element documents")
    p.add_argument("a_file")
    p.add_argument("b_file")
    _add_common(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("conjugator", help="explicit conjugator between quasi-Jordan documents")
    p.add_argument("from_file")
    p.add_argument("to_file")
    _add_common(p)
    p.set_defaults(fn=_cmd_conjugator)

    p = sub.add_parser("selfcheck", help="run the bundled invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=100)
    _add_common(p)
    p.set_defaults(fn=_cmd_selfcheck)

    return parser


def _discard_stdout():
    """Point stdout at the null device, so that the interpreter's final flush
    of what is still buffered does not raise a second BrokenPipeError."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # not a file descriptor: nothing flushes to a pipe
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed early shows here or in print
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_PIPE_CLOSED
    except (DocumentError, LaurentSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotNilpotent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_NILPOTENT
    except PrecisionExhausted as exc:
        print(
            f"error: {exc}; retry with a larger --prec (current {args.prec})",
            file=sys.stderr,
        )
        return EXIT_PRECISION
    except (NotConjugate, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONJUGATE
    except AffnilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # anything else is a bug: one line, no traceback
        text = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {text}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
