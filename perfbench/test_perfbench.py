"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import cases  # noqa: E402
import run  # noqa: E402
from affnil import cli, orbits, selfcheck  # noqa: E402
from tracing import Tracer  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few cheap cases on the same code paths."""
    monkeypatch.setattr(cases, "STRESS_FAMILIES", ((4, 3),))
    monkeypatch.setattr(cases, "STRESS_SEEDS_PER_FAMILY", 3)
    monkeypatch.setattr(cases, "ACT_SIZES", (3, 4))
    monkeypatch.setattr(cases, "ACT_CASES", 8)
    monkeypatch.setattr(cases, "SELFCHECK_CASES", 2)
    monkeypatch.setattr(cases, "SELFCHECK_PREC", 32)
    monkeypatch.setattr(run, "SELFCHECK_TRACED_SEEDS", 1)


# -- seeded inputs -----------------------------------------------------------------


@pytest.mark.parametrize("make", [cases.stress_cases, cases.act_cases])
def test_same_seed_gives_identical_documents(small, tmp_path, make):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    cases_a = make(7, str(a))
    cases_b = make(7, str(b))
    assert _files(a) == _files(b)
    assert [c["expect"] for c in cases_a] == [c["expect"] for c in cases_b]


def test_other_seed_gives_other_act_documents(small, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    cases.act_cases(7, str(a))
    cases.act_cases(8, str(b))
    assert _files(a) != _files(b)


def test_selfcheck_seeds_are_seeded():
    assert cases.selfcheck_seeds(3, 5) == cases.selfcheck_seeds(3, 5)
    assert cases.selfcheck_seeds(3, 5) != cases.selfcheck_seeds(4, 5)


# -- output checks -------------------------------------------------------------------


def test_check_label_rejects_tampered_labels():
    expect = {"partition": [2, 2], "k": 1, "level": "0"}
    assert cases.check_label(dict(expect), expect) is None
    assert cases.check_label({**expect, "k": 0}, expect) is not None
    assert cases.check_label({**expect, "level": "1"}, expect) is not None
    assert cases.check_label({**expect, "partition": [3, 1]}, expect) is not None


def test_check_label_compares_k_only_when_smallest_part_divides():
    expect = {"partition": [3, 2], "k": 1, "level": "0"}
    assert cases.check_label({**expect, "k": 0}, expect) is None
    assert cases.check_label({**expect, "k": 2}, expect) is not None


def _act_output(case):
    g = cli.load_group(case["group"], cases.PREC)
    elem = cli.load_element(case["elem"])
    return cli.element_doc(cli.adjoint_act(g, elem, cases.PREC))


def test_check_act_output_rejects_tampering(small, tmp_path):
    all_cases = cases.act_cases(1, str(tmp_path))
    out = str(tmp_path / "out.json")
    exact = next(c for c in all_cases if not c["truncated"])
    doc = _act_output(exact)
    assert cases.check_act_output(exact, doc, out) is None
    assert cases.check_act_output(exact, {**doc, "c": "7"}, out) is not None
    n = doc["n"]
    broken = [row[:] for row in doc["matrix"]]
    broken[n - 1][0] = "t^-5"
    broken[0][n - 1] = "t^3"
    assert cases.check_act_output(exact, {**doc, "matrix": broken}, out) is not None

    trunc = next(c for c in all_cases if c["truncated"])
    doc = _act_output(trunc)
    assert cases.check_act_output(trunc, doc, out) is None
    broken = [row[:] for row in doc["matrix"]]
    broken[0][0] = "1"
    assert cases.check_act_output(trunc, {**doc, "matrix": broken}, out) is not None


def test_check_selfcheck_output():
    assert cases.check_selfcheck_output(0, "x\nselfcheck: all suites passed\n") is None
    assert cases.check_selfcheck_output(1, "selfcheck: all suites passed\n") is not None
    assert cases.check_selfcheck_output(0, "selfcheck: 2 failures\n") is not None


def test_selfcheck_cli_reports_its_own_peak_memory(small):
    workload = run.SelfcheckWorkload(1)
    code, out = workload.run_cli(workload.seeds[0])
    assert cases.check_selfcheck_output(code, out) is None
    assert workload.peak_rss_mb() > 0


# -- untraced runs -----------------------------------------------------------------------


def test_host_speed_scales_by_the_reference(monkeypatch):
    import hostspeed

    bursts = iter([hostspeed.REF_NOMINAL_S, 3 * hostspeed.REF_NOMINAL_S])
    monkeypatch.setattr(hostspeed, "burst", lambda: next(bursts))
    clock = iter([10.0, 11.0])
    monkeypatch.setattr(hostspeed, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    speed = hostspeed.HostSpeed(in_process=False)
    assert speed.measure(lambda: "r") == (pytest.approx(0.5), "r")


def test_host_speed_samples_during_a_long_call(monkeypatch):
    import hostspeed

    monkeypatch.setattr(hostspeed, "SAMPLE_PERIOD_S", 0.02)
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return "r"

    seconds, result = speed.measure(busy)
    assert result == "r" and len(speed._during) >= 3
    assert 0 < speed._during_s < 0.3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", ["classify-stress", "act-wide"])
def test_untraced_run_times_every_case(small, tmp_path, name):
    workload = _workload(name, tmp_path)
    outcome, metrics = run.untraced_run(workload, 0.0)
    assert outcome.failed == 0
    assert len(outcome.samples) == len(workload.cases)
    if name == "classify-stress":
        assert outcome.attempted > len(workload.cases)
    assert metrics["latency_p50_ms"] > 0 and metrics["cases_per_s"] > 0


# -- tracing ---------------------------------------------------------------------------

FIRES = {
    "classify-stress": ["orbits.classify", "normalform.reduce", "matk.kernel_basis",
                        "matk.det", "matk.det_and_adj_trace", "matk.mul",
                        "laurent.inv", "cli.load"],
    "act-wide": ["affine.adjoint_act", "matk.inv", "matk.mul", "laurent.inv",
                 "cli.load", "cli.format"],
    "selfcheck": ["laurent.inv", "laurent.nth_root", "matk.inv", "matk.mul",
                  "affine.adjoint_act", "orbits.classify"]
    + [f"selfcheck.{suite}" for suite in selfcheck.SUITES],
}
SILENT = {"act-wide": ["normalform.reduce", "orbits.classify"]}


def _workload(name, tmp_path):
    if name == "selfcheck":
        return run.SelfcheckWorkload(1)
    return run.LibraryWorkload(name, 1, str(tmp_path))


@pytest.mark.parametrize("name", sorted(FIRES))
def test_wrappers_fire_where_predicted(small, tmp_path, name):
    outcome, metrics = run.traced_run(_workload(name, tmp_path), 0.0,
                                      str(tmp_path / "trace.jsonl"))
    assert outcome.failed == 0 and outcome.attempted > 0
    for span in FIRES[name]:
        assert metrics[f"{span}.calls" if not span.startswith("selfcheck.")
                       else f"{span}.s"] > 0, span
    for span in SILENT.get(name, []):
        assert metrics[f"{span}.calls"] == 0, span
    assert metrics["laurent.mul.calls"] > 0
    assert metrics["trace.overhead"] > 0
    assert set(metrics) <= set(run._per_layer_names())
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines and all(json.loads(line)["self_s"] >= -1e-6 for line in lines)


def test_tracer_restores_every_original():
    before = (orbits.classify, cli.classify, orbits.reduce_to_quasi_jordan,
              cli.MatK.__mul__, cli.LaurentElement.__mul__,
              dict(selfcheck.SUITES))
    with Tracer():
        assert orbits.classify is not before[0]
        assert cli.classify is orbits.classify
    after = (orbits.classify, cli.classify, orbits.reduce_to_quasi_jordan,
             cli.MatK.__mul__, cli.LaurentElement.__mul__,
             dict(selfcheck.SUITES))
    assert after == before


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.wrap("orbits.classify", lambda: inner(), False)
    inner = tracer.wrap("normalform.reduce", lambda: sum(range(20000)), False)
    outer()
    row = tracer.summary()
    assert row["orbits.classify"]["calls"] == 1
    assert row["normalform.reduce"]["s"] <= row["orbits.classify"]["s"]
    assert row["orbits.classify"]["self_s"] == pytest.approx(
        row["orbits.classify"]["s"] - row["normalform.reduce"]["s"])


# -- the benchmark contract ----------------------------------------------------------------


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run._per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "act-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
