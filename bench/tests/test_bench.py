"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/tests -q

The wrappers must not change what the package computes: traced and
untraced runs give identical outputs, and uninstalling restores every
original function.
"""

import collections
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import probe
import run
import spans
import workloads
from hilbert_selberg import geodesics, quadfield

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _traced(fn):
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        idx = tracer.open("timed")
        out = fn()
        tracer.close(idx)
    finally:
        spans.uninstall(undo)
    return out, tracer.spans


def test_benchmark_json_names_match_the_code():
    with (ROOT / "BENCHMARK.json").open() as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    names = list(spans.per_layer({})) + ["trace.overhead_s",
                                         "trace.overhead_share"]
    assert [m["name"] for m in doc["per_layer"]] == names
    assert all(m["unit"] == run.per_layer_unit(m["name"])
               for m in doc["per_layer"])
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.ALIASES)


def test_reference_covers_every_input():
    ref = workloads.load_reference()
    for kind, pool in workloads.ANALYTIC_POOLS.items():
        for args in pool:
            assert workloads.op_key(kind, args) in ref["analytic"]
    for argv in workloads.cli_pool():
        assert " ".join(argv) in ref["cli"]
    for seed in range(5):
        assert all(" ".join(a) in ref["cli"]
                   for a in workloads.cli_session(seed))
    assert workloads.analytic_batch(3) == workloads.analytic_batch(3)
    kinds = collections.Counter(k for k, _ in workloads.analytic_batch(3))
    assert kinds == dict(workloads.ANALYTIC_MIX)
    assert workloads.cli_session(3) == workloads.cli_session(3)


def test_mismatch_applies_tolerance_to_floats_only():
    assert workloads.mismatch(1.0 + 1e-12, 1.0, 0.0) == ""
    assert workloads.mismatch(1.005, 1.0, 0.01) == ""
    assert workloads.mismatch(1.1, 1.0, 0.01) != ""
    # the tolerance is absolute; only the rounding floor scales with |ref|
    assert workloads.mismatch(100.5, 100.0, 0.1) != ""
    assert workloads.mismatch(100.0 + 5e-8, 100.0, 0.0) == ""
    # each field gets its own tolerance, 0 where none is given
    tol = {"a": 1.0, "b": [0.0, 1.0]}
    assert workloads.mismatch({"a": 1.5, "b": [1.0, 2.5], "c": 1.0},
                              {"a": 1.0, "b": [1.0, 2.0], "c": 1.0},
                              tol) == ""
    assert workloads.mismatch({"a": 1.0, "b": [1.5, 2.0], "c": 1.0},
                              {"a": 1.0, "b": [1.0, 2.0], "c": 1.0},
                              tol) != ""
    assert workloads.mismatch({"a": 1.0, "b": [1.0, 2.0], "c": 1.5},
                              {"a": 1.0, "b": [1.0, 2.0], "c": 1.0},
                              tol) != ""
    assert workloads.mismatch({"a": [1, "w"]}, {"a": [1, "w"]}, 0.5) == ""
    assert workloads.mismatch({"a": [2, "w"]}, {"a": [1, "w"]}, 0.5) != ""
    assert workloads.mismatch(["1+w"], ["1-w"], 1.0) != ""
    assert workloads.mismatch([1.0], [1.0, 2.0], 1.0) != ""
    assert workloads.mismatch({"a": 1.0}, {"b": 1.0}, 1.0) != ""


def test_probe_scales_to_reference_speed():
    p = probe.Probe()
    # the probe took twice its reference time, ten times inside [0, 0.95]
    p.samples = [(0.1 * i, 2 * probe.REF_S) for i in range(20)]
    assert math.isclose(p.factor(0.0, 0.95), 0.5)
    busy = 10 * 2 * probe.REF_S
    assert math.isclose(p.scaled(0.0, 0.95), (0.95 - busy) * 0.5)
    # an interval with too few samples inside uses the nearest ones
    p.samples[-probe.MIN_SAMPLES:] = [(t, 4 * probe.REF_S) for t, _ in
                                      p.samples[-probe.MIN_SAMPLES:]]
    assert math.isclose(p.factor(5.0, 5.01), 0.25)


def test_probe_samples_while_a_child_runs():
    p = probe.Probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(0.4)"])
    end = p.wait(proc, time.monotonic() + 30)
    assert proc.returncode == 0 and end - t0 >= 0.4
    assert len(p.samples) >= 3
    assert all(t0 <= t <= end for t, _ in p.samples)


def test_parse_output_keeps_exact_cells_exact():
    rows = workloads.parse_output('d,norm,h\n-7+5*w,6.854,2\n')
    assert rows == [["d", "norm", "h"], ["-7+5*w", 6.854, 2]]


def test_accumulate_self_time_and_phases():
    timed = [["timed", 0.0, 10.0, -1, {}, None],
             [spans.ENUMERATE, 1.0, 9.0, 0, {}, None],
             [spans.PELL, 1.0, 2.0, 1, {"points": 5}, "BudgetExceededError"],
             [spans.CLASS_NUMBER, 3.0, 8.0, 1, {}, None],
             ["modgroup.conjugation_orbit", 4.0, 6.0, 3, {"states": 7},
              None]]
    setup = [["setup", 0.0, 3.0, -1, {}, None],
             [spans.FIELD, 0.0, 3.0, 0, {}, None],
             [spans.CENSUS, 1.0, 3.0, 1, {}, None],
             ["modgroup.conjugation_orbit", 1.0, 2.0, 2, {"states": 100},
              None]]
    totals = spans.accumulate(spans.accumulate({}, timed), setup)
    m = spans.per_layer(totals)
    assert m[f"{spans.ENUMERATE}.self_s"] == 2.0
    assert m[f"{spans.CLASS_NUMBER}.self_s"] == 3.0
    assert m["modgroup.conjugation_orbit.self_s"] == 2.0
    assert m["modgroup.conjugation_orbit.calls"] == 1
    assert m["modgroup.conjugation_orbit.states"] == 7
    assert m[f"{spans.PELL}.budget_skips"] == 1
    assert m["geodesics.kept_ratio"] == 1.0
    assert m["quadfield.lattice_points.points"] == 5
    assert m[f"{spans.FIELD}.s"] == 3.0 and m[f"{spans.CENSUS}.s"] == 2.0
    assert m["oracle.self_s"] == 5.0 and m["oracle.base_s"] == 8.0
    assert m["enumerate.layer_sum_s"] == 8.0


def test_wrappers_leave_enumeration_unchanged_and_counts_repeat():
    F = quadfield.make_field(5)
    names = ("enumerate_geodesics", "pell_fundamental", "lattice_points")
    originals = [getattr(geodesics, name) for name in names]
    plain = workloads.enumerate_rows(geodesics.enumerate_geodesics(F, 5.0))
    counts = []
    for _ in range(2):
        classes, recorded = _traced(
            lambda: geodesics.enumerate_geodesics(F, 5.0))
        assert workloads.enumerate_rows(classes) == plain
        m = spans.per_layer(spans.accumulate({}, recorded))
        counts.append({k: v for k, v in m.items()
                       if run.per_layer_unit(k) == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["modgroup.conjugation_orbit.states"] > 0
    assert counts[0]["quadfield.lattice_points.points"] > 0
    assert counts[0][f"{spans.ENUMERATE}.calls"] == 1
    assert [getattr(geodesics, name) for name in names] == originals


def test_wrappers_leave_analytic_calls_unchanged():
    F = quadfield.make_field(5)
    classes = geodesics.enumerate_geodesics(F, 8.0)
    coverage = max(c.norm for c in classes)
    # the smallest heat grid's widest Gaussian fits inside this window
    calls = [(kind, pool[-1] if kind == "heat" else pool[0])
             for kind, pool in workloads.ANALYTIC_POOLS.items()]

    def evaluate_all():
        return [workloads.plain(workloads.evaluate(k, a, F, classes,
                                                   coverage)[0])
                for k, a in calls]

    plain = evaluate_all()
    traced, recorded = _traced(evaluate_all)
    assert traced == plain
    m = spans.per_layer(spans.accumulate({}, recorded))
    assert m["traceform.quad.evals"] > m["traceform.quad.calls"] > 0
    assert m["zetafun.selberg_zeta.calls"] >= 1


def test_cli_runner_is_transparent(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["field", "--D", "5", "--cache-dir", str(tmp_path / "cache")]
    plain = subprocess.run([sys.executable, "-m", "hilbert_selberg"] + argv,
                           capture_output=True, text=True, env=env)
    out = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "cli_runner.py"), str(out)] + argv,
        capture_output=True, text=True, env=env)
    assert (traced.stdout, traced.returncode) == \
        (plain.stdout, plain.returncode)
    recorded = json.loads(out.read_text())
    assert recorded[0][0] == "timed"
    assert any(s[0] == spans.FIELD for s in recorded)


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
