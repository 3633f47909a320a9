"""Seeded end-to-end and per-layer benchmark of affnil.

Run from the repository root:

    python3 perfbench/run.py --workload classify-stress --seed 1 --seconds 20 --trace 0

Workloads (see cases.py for the inputs and README.md for why each exists):

* classify-stress  `classify` on conjugated representatives, library call;
* act-wide         `adjoint_act` plus output formatting, library call;
* selfcheck        `affnil --prec 128 selfcheck ...` in a fresh interpreter.

One process, no worker threads: the in-process workloads time the library
entry points directly, and subprocesses are started only to time the real CLI
and the set-up (interpreter start, `import affnil`, loading the documents).
Cases repeat in passes until `--seconds` have been measured; the first pass
always runs in full, and classify-stress repeats each case back to back.  Every
timed call's time is corrected for the host's speed (see hostspeed.py), and
the latency metrics are taken over each case's median time.  Every output is
checked outside the timed span; failures count per case attempted.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics.  With `--trace 1` every case runs untraced and then traced; the line
holds the per-layer metrics per traced pass and the traced/untraced time
ratio, and the spans are written to perfbench/out/trace-<workload>-<seed>.jsonl.
Lines before it are a human-readable report.  Exits 2 without a result if the
sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("classify-stress", "act-wide", "selfcheck")
SETUP_REPEATS = 5
MAX_REPEATS = 9
CLASSIFY_REPEAT_S = 1.0
SELFCHECK_TRACED_SEEDS = 3

END_TO_END = {
    "latency_p50_ms": "ms",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_SETUP_SCRIPT = (
    "import sys\n"
    "from affnil import cli\n"
    "for p in sys.argv[1:]:\n"
    "    cli.load_group(p, 64) if p.endswith('.group.json') else cli.load_element(p)\n"
)

# `python3 -m affnil.cli` that also prints its peak resident memory to stderr.
# The child's rusage cannot be used: on exec it inherits the high-water mark of
# the benchmark process it was spawned from.
_CLI_SCRIPT = (
    "import atexit, runpy, sys\n"
    "def hwm():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        sys.stderr.write(''.join(l for l in fh if l.startswith('VmHWM:')))\n"
    "atexit.register(hwm)\n"
    "sys.argv[0] = 'affnil'\n"
    "runpy.run_module('affnil.cli', run_name='__main__')\n"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    from tracing import SIZED_SPANS, SPANS

    names = {"trace.overhead": "ratio", "laurent.mul.calls": "count",
             "gaussian.max_coef_bits": "bits", "matk.max_terms": "terms"}
    for span in SPANS:
        names[f"{span}.s"] = "s"
        if not span.startswith("selfcheck."):
            names[f"{span}.self_s"] = "s"
            names[f"{span}.calls"] = "count"
    for span in SIZED_SPANS:
        names[f"{span}.max_terms"] = "terms"
        names[f"{span}.max_coef_bits"] = "bits"
    return names


def measure_setup(paths) -> float:
    """Median speed-corrected wall time of a fresh interpreter importing
    affnil and loading paths."""
    from hostspeed import HostSpeed

    speed = HostSpeed(in_process=False)
    start = functools.partial(subprocess.run, [sys.executable, "-c", _SETUP_SCRIPT, *paths],
                              cwd=ROOT, env=_env(), check=True)
    return statistics.median(speed.measure(start)[0] for _ in range(SETUP_REPEATS))


class Outcome:
    """Latency samples per case and failures of one run."""

    def __init__(self):
        self.samples = {}
        self.failures = {}
        self.attempted = 0

    def add(self, case_id, seconds, problem):
        self.attempted += 1
        if problem is None:
            self.samples.setdefault(case_id, []).append(seconds)
        else:
            self.failures.setdefault(case_id, []).append(problem)

    def case_medians(self):
        """Median time of each case that has a correct sample."""
        return [statistics.median(s) for s in self.samples.values()]

    @property
    def failed(self):
        return sum(len(v) for v in self.failures.values())


# -- workloads ------------------------------------------------------------------
# A workload yields passes; a pass is a list of (case id, call, check) where
# call() returns the result or the exception raised, and check(result)
# returns None or a problem.


def _caught(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed case, the run goes on
        return exc


def _timed(call, speed=None):
    """(seconds, result) of call(), in reference-host seconds with a speed."""
    # a full collection first, so that no case pays for garbage left by
    # the cases before it and a seed's case order does not move the timings
    gc.collect()
    if speed is not None:
        return speed.measure(call)
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result


class LibraryWorkload:
    """classify-stress and act-wide: library calls on loaded documents.

    repeat_s: a case is timed back to back until its samples add up to this
    many seconds, or MAX_REPEATS times; a case longer than that runs once."""

    in_process = True

    def __init__(self, name, seed, workdir):
        import cases
        from affnil import affine, cli, orbits

        self.cases_mod, self.cli = cases, cli
        self.workdir = workdir
        if name == "classify-stress":
            self.cases = cases.stress_cases(seed, workdir)
            self.call = lambda elem: orbits.classify(elem, cases.PREC)
            self.repeat_s = CLASSIFY_REPEAT_S
        else:
            self.cases = cases.act_cases(seed, workdir)
            self.call = lambda g, elem: cli.element_doc(
                affine.adjoint_act(g, elem, cases.PREC))
            self.repeat_s = 0.0
        self.first = {}

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def doc_paths(self):
        return [c[k] for c in self.cases for k in ("group", "elem") if k in c]

    def load(self):
        out = []
        for case in self.cases:
            args = [self.cli.load_element(case["elem"])]
            if "group" in case:
                args.insert(0, self.cli.load_group(case["group"], self.cases_mod.PREC))
            out.append(args)
        return out

    def check(self, case, result):
        """None if result is right; the first result of a case is checked in
        full, repeats must equal it."""
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        if case["kind"] == "classify":
            result = self.cases_mod.label_dict(result)
        if case["id"] in self.first:
            return None if result == self.first[case["id"]] else "differs from first pass"
        if case["kind"] == "classify":
            problem = self.cases_mod.check_label(result, case["expect"])
        else:
            out = os.path.join(self.workdir, "output.elem.json")
            problem = self.cases_mod.check_act_output(case, result, out)
        if problem is None:
            self.first[case["id"]] = result
        return problem

    def passes(self, tracer=None):
        """Every case per pass; with a tracer the documents are loaded again,
        traced, before each pass."""
        inputs = None
        while True:
            if tracer is not None:
                with tracer:
                    tracer.case = "load"
                    inputs = self.load()
            elif inputs is None:
                inputs = self.load()
            yield [(case["id"], functools.partial(_caught, self.call, *args),
                    functools.partial(self.check, case))
                   for case, args in zip(self.cases, inputs)]


class SelfcheckWorkload:
    """`affnil --prec W selfcheck --seed S --cases C` per case: one CLI
    subprocess per pass untraced, SELFCHECK_TRACED_SEEDS in-process calls per
    traced pass."""

    repeat_s = 0.0
    in_process = False

    def __init__(self, seed):
        import cases

        self.cases_mod = cases
        self.seeds = cases.selfcheck_seeds(seed, 10000)
        self.peak_kb = 0

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0

    def argv(self, s):
        return ["--prec", str(self.cases_mod.SELFCHECK_PREC), "selfcheck",
                "--seed", str(s), "--cases", str(self.cases_mod.SELFCHECK_CASES)]

    def run_cli(self, s):
        proc = subprocess.run([sys.executable, "-c", _CLI_SCRIPT, *self.argv(s)],
                              cwd=ROOT, env=_env(), capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            if line.startswith("VmHWM:"):
                self.peak_kb = max(self.peak_kb, int(line.split()[1]))
        return proc.returncode, proc.stdout

    def run_in_process(self, s):
        from affnil import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(s))
        return code, buf.getvalue()

    def check(self, result):
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        return self.cases_mod.check_selfcheck_output(*result)

    def passes(self, tracer=None):
        if tracer is not None:
            while True:
                yield [(f"selfcheck:{s}", functools.partial(_caught, self.run_in_process, s),
                        self.check) for s in self.seeds[:SELFCHECK_TRACED_SEEDS]]
        for s in self.seeds:
            yield [(f"selfcheck:{s}", functools.partial(_caught, self.run_cli, s), self.check)]


# -- runs -----------------------------------------------------------------------


def untraced_run(workload, seconds):
    """End-to-end metrics over speed-corrected times: latency over each
    case's median, throughput as cases over the sum of those medians."""
    from hostspeed import HostSpeed

    outcome = Outcome()
    speed = HostSpeed(workload.in_process)
    start = time.perf_counter()
    for number, items in enumerate(workload.passes()):
        for case_id, call, check in items:
            if number and time.perf_counter() - start >= seconds:
                break
            spent = 0.0
            for _ in range(MAX_REPEATS):
                dt, result = _timed(call, speed)
                outcome.add(case_id, dt, check(result))
                spent += dt
                if spent >= workload.repeat_s:
                    break
        if time.perf_counter() - start >= seconds:
            break
    medians = outcome.case_medians()
    metrics = {
        "latency_p50_ms": statistics.median(medians) * 1000.0 if medians else 0.0,
        "cases_per_s": len(medians) / sum(medians) if medians else 0.0,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    return outcome, metrics


def traced_run(workload, seconds, trace_path):
    """Per-layer totals per pass.  Each case runs untraced and then traced, so
    that the overhead ratio compares the two under the same machine load."""
    from tracing import Tracer

    outcome = Outcome()
    tracer = Tracer()
    plain = traced = 0.0
    passes = 0
    start = time.perf_counter()
    for items in workload.passes(tracer):
        passes += 1
        for case_id, call, check in items:
            dt, result = _timed(call)
            plain += dt
            outcome.add(case_id, dt, check(result))
            with tracer:
                tracer.case = case_id
                dt, result = _timed(call)
            traced += dt
            outcome.add(case_id, dt, check(result))
        if time.perf_counter() - start >= seconds:
            break
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)

    metrics = {"trace.overhead": traced / plain}
    for span, row in tracer.summary().items():
        for key, value in row.items():
            metrics[f"{span}.{key}"] = value / passes
    metrics["laurent.mul.calls"] = tracer.counts["laurent.mul"] / passes
    for span in tracer.max_terms:
        metrics[f"{span}.max_terms"] = tracer.max_terms[span]
        metrics[f"{span}.max_coef_bits"] = tracer.max_bits[span]
    metrics["gaussian.max_coef_bits"] = max(tracer.max_bits.values(), default=0)
    metrics["matk.max_terms"] = max(
        (v for k, v in tracer.max_terms.items() if k.startswith("matk.")), default=0)
    names = _per_layer_names()
    return outcome, {k: v for k, v in metrics.items() if k in names}


def _report(name, outcome, metrics, units):
    samples = outcome.case_medians()
    print(f"workload {name}: {outcome.attempted} calls attempted, "
          f"{outcome.failed} failed, {len(samples)} cases timed correctly")
    for key, unit in units.items():
        print(f"  {key:<44} {metrics.get(key, 0):.6g} {unit}")
    if len(samples) >= 100:
        p90 = statistics.quantiles(samples, n=10)[-1] * 1000.0
        print(f"  {'latency_p90_ms':<44} {p90:.6g} ms")
    else:
        print(f"  {'latency_p90_ms':<44} n/a (needs 100 cases, has {len(samples)})")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'failed_frac':<44} {frac:.6g}")
    for case_id, problems in sorted(outcome.failures.items()):
        print(f"  FAILED {case_id}: {problems[0]} ({len(problems)}x)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "affnil" / "__init__.py").is_file():
        print(f"error: affnil sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload == "selfcheck":
            workload = SelfcheckWorkload(args.seed)
            paths = []
        else:
            workload = LibraryWorkload(args.workload, args.seed, str(workdir))
            paths = workload.doc_paths()
        if args.trace:
            trace_path = str(BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.jsonl")
            outcome, metrics = traced_run(workload, args.seconds, trace_path)
            units = _per_layer_names()
        else:
            setup_s = measure_setup(paths)
            outcome, metrics = untraced_run(workload, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report(args.workload, outcome, metrics, units)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
