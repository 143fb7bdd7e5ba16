"""Command-line interface behavior.

Runs the entry point in-process via main(argv) and inspects stdout,
files, and exit codes.  Determinism matters here: rerunning a command
with the same configuration must give byte-identical output.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import hilbert_selberg
from hilbert_selberg import cli, modgroup, quadfield
from hilbert_selberg.cli import RunConfig, _classes, main
from hilbert_selberg.errors import BudgetExceededError, InvariantViolation
from hilbert_selberg.geodesics import GeodesicWindow, enumerate_geodesics
from hilbert_selberg.quadfield import make_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------- imports

def _package_env():
    src = os.path.dirname(os.path.dirname(hilbert_selberg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_mpmath_out():
    # mpmath and scipy are test-only oracles; a fresh interpreter must
    # load neither
    code = ("import sys, hilbert_selberg.cli; "
            "sys.exit('mpmath' in sys.modules or 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env())
    assert proc.returncode == 0


# every command that reaches the special functions or the quadrature
_ANALYTIC_COMMANDS = (
    ("field", "--D", "5"),
    ("zeta", "--D", "5", "--m", "4", "--s", "2.0+0.5i"),
    ("ledger", "--D", "5", "--m", "2"),
    ("trace", "--D", "5", "--m", "4", "--test", "gaussian:beta=0.05"),
    ("trace", "--D", "5", "--m", "4", "--single",
     "--test", "gaussian:beta=0.05"),
    ("trace", "--D", "5", "--m", "4",
     "--test", "rational:s=2.5,beta1=2.5,beta2=3.5"),
    ("trace", "--D", "5", "--m", "4", "--single",
     "--test", "rational:s=2.5,beta1=2.5,beta2=3.5"),
    ("trace", "heatfit", "--D", "5", "--betas", "0.2,0.1,0.05,0.025"),
)

_BLOCKED_RUNNER = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from hilbert_selberg.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_analytic_commands_run_without_scipy(tmp_path, capsys):
    cache = ("--cache-dir", str(tmp_path / "cache"))
    argvs = [list(argv) + list(cache) for argv in _ANALYTIC_COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_RUNNER, json.dumps(argvs)],
        env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    for argv, (code, out) in zip(argvs, blocked):
        assert code == 0, argv
        assert (0, out) == run_cli(capsys, *argv), argv


# ---------------------------------------------------------------- config

def test_config_round_trip():
    cfg = RunConfig(D=8, x_max=12.5, height=7.25, trunc_norm=None,
                    trunc_k=55, beta_grid=(0.2, 0.07), out_format="csv",
                    out_path=None, cache_dir="/tmp/hs", seed=7)
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg


def test_config_comments_and_unknown_key(tmp_path):
    text = "D = 8  # field choice\n\nx_max = 6.0\n"
    cfg = RunConfig.from_text(text)
    assert cfg.D == 8 and cfg.x_max == 6.0
    with pytest.raises(Exception):
        RunConfig.from_text("no_such_key = 3\n")


def test_config_file_feeds_commands(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("D = 8\n")
    code, out = run_cli(capsys, "field", "--config", str(path))
    assert code == 0
    assert json.loads(out)["D"] == 8
    # explicit flag wins over the file
    code, out = run_cli(capsys, "field", "--config", str(path), "--D", "5")
    assert json.loads(out)["D"] == 5


# ---------------------------------------------------------------- exit codes

def test_exit_codes(capsys):
    assert run_cli(capsys, "nosuchcmd")[0] == 1
    assert run_cli(capsys, "field", "--D", "-3")[0] == 1
    assert run_cli(capsys, "zeta", "--D", "5", "--m", "4", "--s", "abc")[0] == 1
    assert run_cli(capsys, "trace", "--D", "5", "--m", "3",
                   "--test", "gaussian:beta=0.1")[0] == 1
    assert run_cli(capsys, "--help")[0] == 0


@pytest.mark.parametrize("error,code,prefix", [
    (BudgetExceededError, 2, "budget exceeded: "),
    (InvariantViolation, 3, "invariant violation: "),
])
def test_search_failure_exit_codes(error, code, prefix, capsys,
                                   monkeypatch):
    def fail(*args, **kwargs):
        raise error("window not enumerated")

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(cli, "enumerate_geodesics", fail)
    assert main(["geodesics", "--D", "5", "--x", "6"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}window not enumerated\n"


@pytest.mark.parametrize("argv,config", [
    (("report", "pgt", "--x-grid", "5,abc"), None),
    (("trace", "heatfit", "--betas", "0.1,x"), None),
    (("trace", "--test", "gaussian:beta=abc"), None),
    (("trace", "--test", "rational:s=2,beta1=2,beta2=x"), None),
    (("field",), "x_max = abc\n"),
    (("field",), "D = 5.5\n"),
    (("field",), "D = none\n"),
    (("field",), "x_max = none\n"),
    (("field",), "beta_grid = none\n"),
    (("field",), "seed = none\n"),
    (("field", "--x", "nan"), None),
    (("field", "--x", "inf"), None),
    (("field", "--height", "nan"), None),
])
def test_malformed_numbers_are_validation_errors(argv, config, tmp_path,
                                                 capsys):
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv += ("--config", str(path))
    assert main(list(argv)) == 1
    assert capsys.readouterr().err.startswith("error: cannot parse ")


# ---------------------------------------------------------------- field

def test_field_json(capsys):
    code, out = run_cli(capsys, "field", "--D", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["zeta_minus_one"] == "1/30"
    assert blob["euler_char"] == "4/1"
    assert blob["eps"] == [0, 1]
    assert sorted(tuple(r[:2]) for r in blob["elliptic_census"]) == \
        [(2, 1), (3, 1), (3, 2), (5, 2), (5, 3)]


# ---------------------------------------------------------------- census

def test_census_computed_only_on_use(capsys, monkeypatch):
    def no_census(F, *args, **kwargs):
        raise InvariantViolation("census computed")

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(quadfield, "_FIELD_MEMO", {})
    monkeypatch.setattr(modgroup, "elliptic_census", no_census)
    for argv in (("pell", "--D", "5", "--x", "6"),
                 ("geodesics", "--D", "5", "--x", "6"),
                 ("forms", "--D", "5", "--d=-7+5*w"),
                 ("zeta", "--D", "5", "--x", "6", "--m", "4", "--s", "2.0"),
                 ("report", "classavg", "--D", "5", "--x", "6")):
        assert run_cli(capsys, *argv)[0] == 0, argv
    # the census is read through the module attribute, so the patch bites
    assert main(["field", "--D", "5"]) == 3
    assert capsys.readouterr().err == "invariant violation: census computed\n"


# ---------------------------------------------------------------- geodesics

def test_geodesics_small_window_empty_csv(capsys):
    code, out = run_cli(capsys, "geodesics", "--D", "5", "--x", "1.0",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("d (w=(1+sqrt(5))/2)")
    assert lines[0].split(",")[1:] == ["norm", "angle", "multiplicity"]


def test_geodesics_byte_identical_rerun(capsys):
    args = ("geodesics", "--D", "5", "--x", "6.0", "--format", "csv")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    assert len(first.splitlines()) > 1


def test_geodesics_json_sorted(capsys):
    code, out = run_cli(capsys, "geodesics", "--D", "5", "--x", "6.0")
    rows = json.loads(out)["classes"]
    norms = [r["norm"] for r in rows]
    assert norms == sorted(norms)
    assert all(r["multiplicity"] % 2 == 0 for r in rows)


# ---------------------------------------------------------------- pell

def test_pell_csv_schema(capsys):
    code, out = run_cli(capsys, "pell", "--D", "5", "--x", "6.0",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header == ["d (w=(1+sqrt(5))/2)", "eps_d", "t0", "u0", "h_K(d)"]
    first = lines[1].split(",")
    assert first[0] == "-7+5*w"
    assert abs(float(first[1]) - 2.1537213755417683) < 1e-12
    assert first[4] == "2"


# ---------------------------------------------------------------- forms

def test_forms_record(capsys):
    code, out = run_cli(capsys, "forms", "--D", "5", "--d=-7+5*w")
    assert code == 0
    blob = json.loads(out)
    assert blob["class_number"] == 2
    assert len(blob["forms"]) == 2
    assert blob["pell"]["t0"] == "1+w"


# ---------------------------------------------------------------- zeta

def test_zeta_json(capsys):
    code, out = run_cli(capsys, "zeta", "--D", "5", "--m", "4",
                        "--s", "2.0+0.5i", "--X", "1e5", "--K", "40")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) >= {"value", "log_value", "tail_bound", "trunc_norm"}
    assert blob["tail_bound"] > 0
    # cutoff clamps to the enumerated window
    assert blob["trunc_norm"] <= 100.0
    value = complex(*blob["value"])
    assert 0.5 < abs(value) < 1.5


def test_zeta_trunc_k_from_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("trunc_k = 80\n")
    argv = ("zeta", "--D", "5", "--x", "6", "--m", "4", "--s", "2.5",
            "--config", str(path))
    assert json.loads(run_cli(capsys, *argv)[1])["trunc_k"] == 80
    assert json.loads(run_cli(capsys, *argv, "--K", "50")[1])["trunc_k"] == 50


def test_zeta_depth_beyond_negligible_is_free(capsys):
    argv = ["zeta", "--D", "5", "--m", "4", "--s", "2.0+0.5i"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hilbert_selberg", *argv, "--K", "1000000000"],
        env=_package_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - t0 < 5.0
    deep = json.loads(proc.stdout)
    base = json.loads(run_cli(capsys, *argv, "--K", "40")[1])
    assert deep["trunc_k"] == 1000000000
    assert complex(*deep["log_value"]) == pytest.approx(
        complex(*base["log_value"]), rel=1e-15, abs=0.0)


def test_zeta_m2_real(capsys):
    _, out = run_cli(capsys, "zeta", "--D", "5", "--m", "2", "--s", "3.0")
    blob = json.loads(out)
    assert blob["value"][1] == 0.0


# ---------------------------------------------------------------- ledger

def test_ledger_json(capsys):
    code, out = run_cli(capsys, "ledger", "--D", "5", "--m", "2")
    assert code == 0
    blob = json.loads(out)
    orders = {e["label"]: e["order"] for e in blob["entries"]}
    assert orders["double pole at s=1 from the squared unit factor"] == -2
    assert blob["leading"]["n0"] == 6
    assert blob["leading"]["stabilizer_product"] == 900


# ---------------------------------------------------------------- trace

def test_trace_breakdown(capsys):
    code, out = run_cli(capsys, "trace", "--D", "5", "--m", "4",
                        "--test", "gaussian:beta=0.05")
    assert code == 0
    blob = json.loads(out)
    assert blob["difference"] == "double"
    total = complex(*blob["total"])
    parts = sum(complex(*blob[k]) for k in
                ("identity_term", "elliptic_term", "hyp_ell_term",
                 "par_sct_term", "hyp2_sct_term"))
    assert abs(total - parts) < 1e-12
    assert abs(total.imag) < 1e-9


def test_trace_rational_and_single(capsys):
    code, out = run_cli(capsys, "trace", "--D", "5", "--m", "4", "--single",
                        "--test", "rational:s=2.5,beta1=2.5,beta2=3.5")
    assert code == 0
    blob = json.loads(out)
    assert blob["difference"] == "single"
    assert abs(complex(*blob["total"]).imag) < 1e-9


def test_trace_heatfit_delegates(capsys):
    args = ("--D", "5", "--betas", "0.2,0.1,0.05,0.025")
    code, out = run_cli(capsys, "trace", "heatfit", *args)
    assert code == 0
    blob = json.loads(out)
    assert blob["a_rel_err"] <= 0.02
    assert blob["b_rel_err"] <= 0.05


# ---------------------------------------------------------------- report

def test_report_classavg_csv(capsys):
    code, out = run_cli(capsys, "report", "classavg", "--D", "5",
                        "--x", "8.0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,psi_sum,pi_sum,psi_main,pi_main,psi_ratio,pi_ratio"
    row = lines[1].split(",")
    assert float(row[0]) == 8.0
    assert float(row[5]) > 0


# ---------------------------------------------------------------- output

def test_out_path_writes_file(tmp_path, capsys):
    target = tmp_path / "field.json"
    code, out = run_cli(capsys, "field", "--D", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["D"] == 5


# ---------------------------------------------------------------- cache

def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("geodesics", "--D", "5", "--x", "6.0", "--format", "csv",
            "--cache-dir", str(cache))
    _, first = run_cli(capsys, *args)
    entries = list(cache.rglob("*.pkl"))
    assert entries, "expected a cache entry"
    _, second = run_cli(capsys, *args)
    assert first == second
    # a hit hands back the whole window, coverage included
    F = make_field(5)
    hit = _classes(F, RunConfig(x_max=6.0, cache_dir=str(cache)))
    assert sorted(cache.rglob("*.pkl")) == sorted(entries)
    miss = enumerate_geodesics(F, 6.0)
    assert isinstance(hit, GeodesicWindow)
    assert hit == miss and hit.coverage == miss.coverage
    # different bound -> different key, no stale reuse
    _, third = run_cli(capsys, "geodesics", "--D", "5", "--x", "7.0",
                       "--format", "csv", "--cache-dir", str(cache))
    assert len(list(cache.rglob("*.pkl"))) > len(entries)
    assert third != first


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("HILBERT_SELBERG_CACHE", str(cache))
    run_cli(capsys, "geodesics", "--D", "5", "--x", "6.0")
    assert list(cache.rglob("*.pkl"))


# ---------------------------------------------------------------- check

def test_check_passes_and_enumerates_window_once(capsys, monkeypatch):
    bounds = []

    def counted(F, x, **kwargs):
        bounds.append(x)
        return enumerate_geodesics(F, x, **kwargs)

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(cli, "enumerate_geodesics", counted)
    code, out = run_cli(capsys, "check", "--D", "5")
    assert code == 0
    lines = out.splitlines()
    assert [ln[:6] for ln in lines] == ["PASS  "] * len(cli._CHECKS)
    assert [ln[6:30].rstrip() for ln in lines] == \
        [name for name, _ in cli._CHECKS]
    # class numbers at min(x, 8), the shared x window, two reruns at 6
    assert bounds == [8.0, 10.0, 6.0, 6.0]


def test_check_failing_row_exits_3(capsys, monkeypatch):
    def broken(cfg, window):
        raise AssertionError("row broken")

    monkeypatch.setattr(cli, "_CHECKS", [("exact constants", broken)])
    code, out = run_cli(capsys, "check", "--D", "5")
    assert code == 3
    assert out == f"FAIL  {'exact constants':24s} row broken\n"


def test_check_window_failure_fails_each_row(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise BudgetExceededError("window not enumerated")

    rows = [row for row in cli._CHECKS
            if row[0] in ("zeta consistency", "trace closed forms")]
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(cli, "enumerate_geodesics", fail)
    monkeypatch.setattr(cli, "_CHECKS", rows)
    code, out = run_cli(capsys, "check", "--D", "5")
    assert code == 3
    assert out == "".join(f"FAIL  {name:24s} window not enumerated\n"
                          for name, _ in rows)
