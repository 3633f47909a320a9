"""Layer spans for the traced benchmark run, installed from outside the package.

`Tracer.install()` replaces the public entry points of each affnil layer with
wrappers that record a span (name, parent span, case id, start, end) and, at
the matk/laurent boundaries, the operand sizes of arguments and results:
terms per Laurent entry and coefficient bits.  Functions imported by name into
other modules (`orbits` imports `reduce_to_quasi_jordan` and
`det_and_adj_trace`, `cli` and `selfcheck` import `classify` and
`adjoint_act`) are replaced at every such site; methods are replaced on the
class.  `LaurentElement.__mul__` is only counted, and `GaussianRational` is
not wrapped at all: its load shows as coefficient bits.  `uninstall()` puts
every original back.

Spans stay in memory.  `summary()` turns them into per-layer totals, where a
span's self time is its duration minus the durations of its child spans, and
time spent measuring operand sizes is excluded from every enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

import affnil
from affnil import cli, matk, normalform, orbits, selfcheck
from affnil.laurent import LaurentElement
from affnil.matk import MatK

# (span name, owner, attribute, record operand sizes)
_FUNCTIONS = [
    ("normalform.reduce", normalform, "reduce_to_quasi_jordan", False),
    ("matk.det_and_adj_trace", matk, "det_and_adj_trace", True),
    ("orbits.classify", orbits, "classify", False),
    ("affine.adjoint_act", affnil.affine, "adjoint_act", False),
    ("cli.load", cli, "load_element", False),
    ("cli.load", cli, "load_group", False),
    ("cli.format", cli, "element_doc", False),
]
_METHODS = [
    ("matk.mul", MatK, "__mul__", True),
    ("matk.inv", MatK, "inv", True),
    ("matk.det", MatK, "det", True),
    ("matk.kernel_basis", MatK, "kernel_basis", True),
    ("laurent.inv", LaurentElement, "inv", True),
    ("laurent.nth_root", LaurentElement, "nth_root", True),
]

SIZED_SPANS = sorted({name for name, _, _, sized in _FUNCTIONS + _METHODS if sized})
SUITE_SPANS = [f"selfcheck.{suite}" for suite in selfcheck.SUITES]
SPANS = sorted({name for name, _, _, _ in _FUNCTIONS + _METHODS}) + SUITE_SPANS


def _affnil_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "affnil" or name.startswith("affnil."))]


def operand_size(value: Any) -> tuple:
    """(max terms per Laurent entry, max coefficient bits) inside value."""
    if isinstance(value, LaurentElement):
        bits = 0
        for c in value.coeffs.values():
            bits = max(bits, c.a.bit_length(), c.b.bit_length(), c.d.bit_length())
        return len(value.coeffs), bits
    if isinstance(value, MatK):
        value = value.rows
    if isinstance(value, (list, tuple)):
        terms = bits = 0
        for item in value:
            t, b = operand_size(item)
            terms, bits = max(terms, t), max(bits, b)
        return terms, bits
    return 0, 0


class Tracer:
    def __init__(self):
        # span: [name, parent index, case id, start, end, excluded seconds]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.case: Optional[str] = None
        self.counts: Counter = Counter()
        self.max_terms: Dict[str, int] = defaultdict(int)
        self.max_bits: Dict[str, int] = defaultdict(int)
        self._restore: List[tuple] = []

    # -- recording ------------------------------------------------------------

    def _record_sizes(self, name: str, args: tuple, result: Any):
        t0 = time.perf_counter()
        terms, bits = operand_size((args, result))
        self.max_terms[name] = max(self.max_terms[name], terms)
        self.max_bits[name] = max(self.max_bits[name], bits)
        spent = time.perf_counter() - t0
        for idx in self.stack:
            self.spans[idx][5] += spent

    def wrap(self, name: str, fn: Callable, sized: bool) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else None, self.case,
                    time.perf_counter(), None, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if sized:
                self._record_sizes(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_mul(self, fn: Callable) -> Callable:
        counts = self.counts

        def counted(a, b):
            counts["laurent.mul"] += 1
            return fn(a, b)

        return counted

    # -- installation -----------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _affnil_modules()
        for name, owner, attr, sized in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, sized)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        for name, cls, attr, sized in _METHODS:
            self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], sized))
        self._replace(LaurentElement, "__mul__",
                      self._count_mul(LaurentElement.__dict__["__mul__"]))
        for suite, fn in list(selfcheck.SUITES.items()):
            self._restore.append((selfcheck.SUITES, suite, fn))
            selfcheck.SUITES[suite] = self.wrap(f"selfcheck.{suite}", fn, False)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def _times(self):
        """Duration and self time of every span."""
        dur = [s[4] - s[3] - s[5] for s in self.spans]
        child = [0.0] * len(self.spans)
        for idx, span in enumerate(self.spans):
            if span[1] is not None:
                child[span[1]] += dur[idx]
        return dur, [d - c for d, c in zip(dur, child)]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total seconds, self seconds and calls."""
        dur, self_s = self._times()
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPANS}
        for idx, span in enumerate(self.spans):
            row = out[span[0]]
            row["calls"] += 1
            row["self_s"] += self_s[idx]
            # a span nested in a span of the same name is already counted
            parent = span[1]
            while parent is not None and self.spans[parent][0] != span[0]:
                parent = self.spans[parent][1]
            if parent is None:
                row["s"] += dur[idx]
        return out

    def write(self, path: str):
        """Dump every span, with its self time, as JSON lines."""
        dur, self_s = self._times()
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                name, parent, case, start, _, _ = span
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "case": case,
                    "start": start, "dur_s": dur[idx],
                    "self_s": self_s[idx],
                }) + "\n")
