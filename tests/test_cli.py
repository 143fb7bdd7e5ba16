"""Command-line interface behavior.

Runs the entry point in-process via main(argv) and inspects stdout,
files, and exit codes.  Determinism matters here: rerunning a command
with the same configuration must give byte-identical output.
"""

import argparse
import contextlib
import csv
import dataclasses
import errno
import importlib
import io
import json
import os
import pickle
import pickletools
import pkgutil
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hilbert_selberg
from hilbert_selberg import cli, geodesics, modgroup, pellforms, quadfield
from hilbert_selberg.cache import get_or_compute
from hilbert_selberg.cli import RunConfig, _classes, main
from hilbert_selberg.errors import (BudgetExceededError, InvariantViolation,
                                   ValidationError)
from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.quadfield import CLASS_NUMBER_ONE, make_field
from hilbert_selberg.records import GeodesicWindow


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
    # mpmath and scipy are test-only oracles, and numpy is loaded by the
    # array layers alone; a fresh interpreter must load none of them
    code = ("import sys, hilbert_selberg.cli; "
            "sys.exit(any(m in sys.modules "
            "for m in ('mpmath', 'scipy', 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env())
    assert proc.returncode == 0


def test_exported_names_exist():
    names = ["hilbert_selberg"] + [
        f"hilbert_selberg.{m.name}"
        for m in pkgutil.iter_modules(hilbert_selberg.__path__)
        if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names {attr!r}"


_MODULES_RUNNER = """
import contextlib, io, json, sys
from hilbert_selberg.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv", [["field", "--D", "5"],
                                  ["forms", "--D", "5", "--d=-7+5*w"]])
def test_commands_import_only_their_layers(argv):
    # a command imports the layers it runs when it runs; field and forms
    # need neither the geodesic window nor the analytic layers
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_RUNNER, json.dumps(argv)],
        env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    for name in ("traceform", "zetafun", "integrate", "geodesics"):
        assert f"hilbert_selberg.{name}" not in loaded


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory holding the D = 5 window to x = 10."""
    cache = tmp_path_factory.mktemp("warm")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["geodesics", "--D", "5", "--x", "10",
                     "--cache-dir", str(cache)]) == 0
    return cache


@pytest.mark.parametrize("argv", [
    ["pell", "--D", "5"],
    ["geodesics", "--D", "5", "--x", "10"],
    ["geodesics", "--D", "5", "--x", "10", "--format", "csv"],
    ["report", "classavg", "--D", "5", "--x", "8"],
    ["report", "pgt", "--D", "5", "--x-grid", "5,8"],
    ["field", "--D", "13"],
], ids=["pell", "geodesics-json", "geodesics-csv", "report-classavg",
        "report-pgt", "field-13"])
def test_exact_commands_run_without_numpy(argv, warm_cache):
    # a cache hit unpickles records' types and formats them, and a field
    # without a census builds none: no command here needs an array
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_RUNNER,
         json.dumps(argv + ["--cache-dir", str(warm_cache)])],
        env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    for name in ("numpy", "hilbert_selberg.orbits",
                 "hilbert_selberg.modgroup"):
        assert name not in loaded, name


_SEARCH_LAYERS = tuple(f"hilbert_selberg.{name}" for name in (
    "geodesics", "pellforms", "orbits", "modgroup"))


@pytest.mark.parametrize("module", ["geodesics"])
def test_array_modules_load_numpy_and_the_search_layers(module):
    code = (f"import sys, hilbert_selberg.{module}; "
            f"sys.exit(not all(m in sys.modules for m in {_SEARCH_LAYERS!r} "
            "+ ('numpy',)))")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env())
    assert proc.returncode == 0


def test_analytic_modules_load_numpy_and_no_search_layer():
    # zetafun and traceform take the window from records
    code = ("import json, sys, hilbert_selberg.zetafun, "
            "hilbert_selberg.traceform; print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "numpy" in loaded
    assert [m for m in _SEARCH_LAYERS if m in loaded] == []


def test_zeta_on_a_cache_hit_loads_no_search_layer(warm_cache):
    argv = ["zeta", "--D", "5", "--m", "4", "--s", "2.0+0.5i",
            "--cache-dir", str(warm_cache)]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_RUNNER, json.dumps(argv)],
        env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "numpy" in loaded
    assert [m for m in _SEARCH_LAYERS if m in loaded] == []


def test_exact_layer_leaves_numpy_ma_out():
    # np.unique(..., axis=0) imports numpy.ma on its first call; a cold
    # enumeration and census must not pay for that import
    code = ("import sys; from hilbert_selberg.quadfield import make_field; "
            "from hilbert_selberg.geodesics import enumerate_geodesics; "
            "F = make_field(5); enumerate_geodesics(F, 6.0); "
            "F.elliptic_census; sys.exit('numpy.ma' in sys.modules)")
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
    # the class number formula: E_1 and the Dirichlet coefficients
    ("forms", "--D", "5", "--d=-7+5*w"),
    ("geodesics", "--D", "13", "--x", "8"),
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
    text = ("D = 8\nx_max = 12.5\nheight = 7.25\ntrunc_norm = none\n"
            "trunc_k = 55\nbeta_grid = 0.2,0.07\nout_format = csv\n"
            "out_path = none\ncache_dir = /tmp/hs\nseed = 7\n")
    assert [ln.split(" = ")[0] for ln in text.splitlines()] \
        == [f.name for f in dataclasses.fields(RunConfig)]
    assert RunConfig.from_text(text) == RunConfig(
        D=8, x_max=12.5, height=7.25, trunc_norm=None, trunc_k=55,
        beta_grid=(0.2, 0.07), out_format="csv", out_path=None,
        cache_dir="/tmp/hs", seed=7)


def test_config_comments_and_unknown_key(tmp_path, capsys):
    text = "D = 8  # field choice\n\nx_max = 6.0\n"
    cfg = RunConfig.from_text(text)
    assert cfg.D == 8 and cfg.x_max == 6.0
    # method and dunder names are attributes too, but not keys
    for line in ("no_such_key = 3\n", "validate = 3\n", "__class__ = 3\n"):
        path = tmp_path / "run.cfg"
        path.write_text(line)
        assert main(["field", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: config line 1: unknown key "
                                f"{line.split()[0]!r}\n")


def test_config_file_feeds_commands(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("D = 8\n")
    code, out = run_cli(capsys, "field", "--config", str(path))
    assert code == 0
    assert json.loads(out)["D"] == 8
    # explicit flag wins over the file
    code, out = run_cli(capsys, "field", "--config", str(path), "--D", "5")
    assert json.loads(out)["D"] == 5


@pytest.mark.parametrize("name,content", [("missing.cfg", None), (".", None),
                                          ("latin1.cfg", b"D = 5 # \xe9\n")])
def test_unreadable_config_is_a_validation_error(name, content, tmp_path,
                                                 capsys):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code = main(["field", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: cannot read config {path}: ")


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
    monkeypatch.setattr(geodesics, "enumerate_geodesics", fail)
    assert main(["geodesics", "--D", "5", "--x", "6"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}window not enumerated\n"


def test_caps_refusal_runs_no_pell_search(capsys, monkeypatch):
    # the D = 5 window to x = 200 reaches the form caps refusal with no
    # Pell search in the way: every candidate's solution is read off the
    # trace box
    def no_search(*args, **kwargs):
        raise AssertionError("pell_fundamental called")

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(pellforms, "pell_fundamental", no_search)
    monkeypatch.setattr(geodesics, "pell_fundamental", no_search)
    assert main(["geodesics", "--D", "5", "--x", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: form orbit caps (24, 1115.92) "
                            "too large for exact packed keys\n")


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
    (("field", "--D", "abc"), None),
    (("zeta", "--m", "2", "--s", "2", "--X", "inf"), None),
    (("zeta", "--m", "2", "--s", "2", "--X", "nan"), None),
    (("zeta", "--m", "2", "--s", "2", "--K", "1.5"), None),
])
def test_malformed_numbers_are_validation_errors(argv, config, tmp_path,
                                                 capsys):
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv += ("--config", str(path))
    assert main(list(argv)) == 1
    assert capsys.readouterr().err.startswith("error: cannot parse ")


# every run parameter once more, set in a config file
_OTHER_CONFIG = {"D": "12", "x_max": "6.0", "height": "9.0",
                 "trunc_norm": "40", "trunc_k": "3", "beta_grid": "0.1",
                 "out_format": "csv", "out_path": "o.json",
                 "cache_dir": "c", "seed": "1"}
_FLAGS = [
    ("field", "--D", "D", "8"),
    ("field", "--x", "x_max", "12.5"),
    ("field", "--height", "height", "7.25"),
    ("zeta", "--X", "trunc_norm", "50"),
    ("zeta", "--X", "trunc_norm", "none"),
    ("zeta", "--K", "trunc_k", "7"),
    ("trace", "--betas", "beta_grid", "0.2,0.1,0.05,0.025"),
    ("field", "--format", "out_format", "json"),
    ("field", "--out", "out_path", "none"),
    ("field", "--cache-dir", "cache_dir", "none"),
    ("field", "--seed", "seed", "7"),
]


@pytest.mark.parametrize("command,flag,key,text", _FLAGS)
def test_a_flag_parses_as_its_config_key(command, flag, key, text,
                                         tmp_path):
    parser = cli._build_parser()

    def merged(values, *extra):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = [command, "--config", str(path), *extra]
        if command == "zeta":
            argv += ["--m", "4", "--s", "2"]
        return cli._merge_config(parser.parse_args(argv))

    by_flag = merged(_OTHER_CONFIG, flag, text)
    assert by_flag == merged({**_OTHER_CONFIG, key: text})
    assert getattr(by_flag, key) != getattr(merged(_OTHER_CONFIG), key)


def test_each_run_parameter_has_one_flag():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for parser in sub.choices.values():
        for action in parser._actions:
            flags.setdefault(action.dest, set()).add(
                tuple(action.option_strings))
    assert {f.name: {(flag,) for _, flag, key, _ in _FLAGS if key == f.name}
            for f in dataclasses.fields(RunConfig)} \
        == {f.name: flags[f.name] for f in dataclasses.fields(RunConfig)}


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


def test_zeta_route_mismatch_is_an_invariant_violation(capsys, monkeypatch):
    # two independent routes disagreeing is an internal fault, exit 3
    monkeypatch.setattr(quadfield, "_FIELD_MEMO", {})
    monkeypatch.setattr(quadfield, "bernoulli_L_minus_one",
                        lambda D: Fraction(-12, 31))
    with pytest.raises(InvariantViolation, match="routes disagree for D=5"):
        make_field(5)
    assert main(["field", "--D", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invariant violation: zeta_K(-1) routes disagree "
                            "for D=5: divisor sum 1/30, Bernoulli route 1/31\n")


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


def test_zeta_window_without_a_class_is_refused(capsys, monkeypatch):
    # x = 1.2 lists no class, so the clamp would leave a cutoff of 0:
    # the window, not the asked-for X = 50, is what the error names
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    assert main(["zeta", "--D", "5", "--x", "1.2", "--m", "4", "--s", "2",
                 "--X", "50"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: the window to x = 1.2 lists no class of norm "
                       ">= 3; ask for a larger --x\n")


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


def test_ledger_without_a_census_names_it(capsys):
    assert main(["ledger", "--D", "13", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no elliptic census attached for D=13\n"


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


@pytest.mark.parametrize("argv", [("pell",), ("geodesics",),
                                  ("report", "pgt", "--x-grid", "2,3"),
                                  ("report", "classavg", "--x-grid", "2,3")])
def test_csv_rows_are_the_json_rows(argv, capsys):
    # one row list per table: each CSV cell is the JSON value's text, an
    # empty cutoff's psi_sum the float 0.0 in both
    argv = (*argv, "--D", "5", "--x", "6")
    blob = json.loads(run_cli(capsys, *argv)[1])
    rows = blob["classes" if argv[0] == "geodesics" else "rows"]
    table = list(csv.reader(io.StringIO(
        run_cli(capsys, *argv, "--format", "csv")[1])))
    keys = [label.split(" ")[0].replace("(d)", "") for label in table[0]]
    assert rows and table[1:] == [[row[k] if isinstance(row[k], str)
                                   else repr(row[k]) for k in keys]
                                  for row in rows]
    if argv[0] == "report":
        assert rows[0]["psi_sum"] == 0.0 and rows[1]["psi_sum"] > 0.0


def _no_enumeration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a window was enumerated")

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(geodesics, "enumerate_geodesics", fail)


@pytest.mark.parametrize("argv", [
    ("report", "pgt", "--D", "5", "--x-grid", "5,nan"),  # ran past 60 s
    ("report", "pgt", "--D", "5", "--x-grid", "5,inf"),  # OverflowError
    ("report", "classavg", "--D", "5", "--x-grid", "5,nan"),
    ("trace", "--D", "5", "--test", "rational:s=nan,beta1=2.5,beta2=3.5"),
    ("trace", "--D", "5", "--test", "rational:s=2,beta1=inf,beta2=3.5"),
    ("zeta", "--D", "5", "--m", "2", "--s", "1+nani"),
])
def test_non_finite_numbers_are_refused(argv, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse ")
    assert captured.err.endswith(": not a finite number\n")


@pytest.mark.parametrize("x,beta,reach", [
    ("10", "1", "11266.6, but its largest norm is 99.8015; enumerating to "
     "x >= 106.1 is necessary, not sufficient"),
    ("10", "1000", "3.32107e+117, but its largest norm is 99.8015; "
     "enumerating to x >= 5.763e+58 is necessary, not sufficient"),
    # exp(u) overflows a float
    ("10", "1e6", "exp(7707.81), past the floating-point range, but its "
     "largest norm is 99.8015"),
    # g1 lies below its floor everywhere, and the window must reach
    # sqrt(184 beta) + 6
    ("10", "1e300", "exp(1.35647e+151), past the floating-point range, but "
     "its largest norm is 99.8015"),
    # x >= sqrt(8.64314) lists no class of norm 8.35241 to 8.64314: the
    # bound is necessary only, and x = 3.5 passes
    ("2.94", "0.05", "8.64314, but its largest norm is 8.35241; enumerating "
     "to x >= 2.94 is necessary, not sufficient"),
    ("1.2", "0.05", "8.64314, but it holds no class; enumerating to "
     "x >= 2.94 is necessary, not sufficient"),
], ids=["1", "1000", "1e6", "1e300", "x2.94", "empty"])
def test_wide_gaussian_outruns_the_window(x, beta, reach, capsys):
    assert main(["trace", "--D", "5", "--x", x, "--m", "4",
                 "--test", f"gaussian:beta={beta}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the Gaussian tail at beta={float(beta)} needs the class "
        f"list to hold a class of norm >= {reach}\n")
    if x == "2.94":
        assert main(["trace", "--D", "5", "--x", "3.5", "--m", "4",
                     "--test", f"gaussian:beta={beta}"]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,err", [
    (("zeta", "--m", "3", "--s", "2"), "weight m=3 must be even and >= 2"),
    (("trace", "--m", "3"), "weight m=3 must be even"),
    (("trace", "--test", "rational:s=1.005,beta1=2,beta2=3"),
     "rational pair decays too slowly for the HE tail integral (kappa="),
    (("trace", "heatfit", "--betas", "0.3,0.2,0.1,0.05"),
     "beta grid [0.3, 0.2, 0.1, 0.05] must lie in (0, 0.2]"),
    (("trace", "heatfit", "--betas", ""),
     "heat fit needs at least 4 grid points"),
    (("zeta", "--m", "2", "--s", "0.5"),
     "Euler product needs Re(s) > 1, got s=(0.5+0j)"),
    (("zeta", "--m", "2", "--s", "1"),
     "Euler product needs Re(s) > 1, got s=(1+0j)"),
    (("zeta", "--m", "2", "--s", "2", "--K", "-1"), "trunc_k must be >= 0"),
    (("zeta", "--m", "2", "--s", "2", "--X", "2"), "trunc_norm must be >= 3"),
    (("trace", "heatfit", "--betas=-0.1,0.1,0.05,0.025"),
     "beta grid entries must be positive"),
], ids=["zeta-m3", "trace-m3", "slow-rational", "wide-betas", "no-betas",
        "zeta-s-half", "zeta-s-one", "zeta-negative-K", "zeta-small-X",
        "negative-betas"])
def test_bad_arguments_are_refused_before_the_window(argv, err, capsys,
                                                     monkeypatch):
    _no_enumeration(monkeypatch)
    assert main([*argv, "--D", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {err}")


@pytest.mark.parametrize("mode", [[], ["heatfit"]], ids=["trace", "heatfit"])
def test_trace_without_a_census_reads_no_window(mode, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["trace", *mode, "--D", "13", "--x", "12",
            "--cache-dir", str(cache)]
    if not mode:
        argv += ["--m", "2", "--test", "gaussian:beta=0.1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no elliptic census attached for D=13\n"
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("mode", ["pgt", "classavg"])
def test_empty_report_grid_is_refused(mode, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    assert main(["report", mode, "--D", "5", "--x-grid", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: report grid needs at least one x\n"


def test_report_classavg_reads_the_grid(capsys, monkeypatch):
    # one row per grid point, in increasing x, each the row of a run at
    # that x alone, all from one window at the largest x
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    rows = [json.loads(run_cli(capsys, "report", "classavg", "--D", "5",
                               "--x", x)[1])["rows"] for x in ("6", "8")]
    bounds = []

    def counted(F, x, **kwargs):
        bounds.append(x)
        return enumerate_geodesics(F, x, **kwargs)

    monkeypatch.setattr(geodesics, "enumerate_geodesics", counted)
    code, out = run_cli(capsys, "report", "classavg", "--D", "5",
                        "--x-grid", "8,6")
    assert code == 0 and bounds == [8.0]
    assert json.loads(out)["rows"] == rows[0] + rows[1]


# ---------------------------------------------------------------- output

def test_out_path_writes_file(tmp_path, capsys):
    target = tmp_path / "field.json"
    code, out = run_cli(capsys, "field", "--D", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["D"] == 5


def test_out_path_into_missing_directory_is_a_validation_error(tmp_path,
                                                               capsys):
    target = tmp_path / "missing" / "field.json"
    code = main(["field", "--D", "5", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write output {target}: ")
    assert not target.parent.exists()


# ---------------------------------------------------------------- cache

_ROWS_RUNNER = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockNumpy())
from hilbert_selberg.cli import RunConfig, _classes
from hilbert_selberg.quadfield import make_field

window = _classes(make_field(5), RunConfig(x_max=10.0, cache_dir=sys.argv[1]))
print(repr(window.coverage))
for c in window:
    print(repr(c))
"""


def test_cached_window_round_trips_to_identical_rows(warm_cache):
    # loaded where numpy cannot be imported, every class of the stored
    # window, its Pell solution and forms included, reads as enumerated
    proc = subprocess.run(
        [sys.executable, "-c", _ROWS_RUNNER, str(warm_cache)],
        env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    window = enumerate_geodesics(make_field(5), 10.0)
    assert proc.stdout.splitlines() == \
        [repr(window.coverage)] + [repr(c) for c in window]


def _pickled_modules(blob: bytes) -> set:
    """The modules whose names a protocol-4 pickle loads."""
    memo, pushed, modules = [], [], set()
    for op, arg, _ in pickletools.genops(blob):
        if op.name in ("PROTO", "FRAME"):
            continue
        if op.name == "MEMOIZE":
            memo.append(pushed[-1])
        elif op.name == "STACK_GLOBAL":
            modules.add(pushed[-2])
            pushed.append(None)
        elif op.name == "GLOBAL":
            modules.add(arg.split()[0])
            pushed.append(None)
        elif op.name in ("BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        else:
            pushed.append(arg if isinstance(arg, str) else None)
    return modules


def test_cached_window_names_only_numpy_free_modules(warm_cache):
    entry, = warm_cache.glob("geodesics-*.pkl")
    assert _pickled_modules(entry.read_bytes()) == {
        "hilbert_selberg.quadfield", "hilbert_selberg.records"}


def test_writers_sharing_a_cache_keep_their_own_temporary_files(
        tmp_path, monkeypatch):
    # a second process stores the same entry while the first is writing:
    # each writes its own file, so the first's bytes stay its own
    pids = iter([101, 202])
    monkeypatch.setattr(os, "getpid", lambda: next(pids))
    dump = pickle.dump

    def dump_while_another_writes(value, fh, **kwargs):
        if value == "first":
            get_or_compute("kind", {}, lambda: "second", str(tmp_path))
        dump(value, fh, **kwargs)

    monkeypatch.setattr(pickle, "dump", dump_while_another_writes)
    assert get_or_compute("kind", {}, lambda: "first", str(tmp_path)) == \
        "first"
    entry, = tmp_path.iterdir()
    assert pickle.loads(entry.read_bytes()) == "first"


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
    # a wider bound is never served the narrower window: it enumerates
    # and replaces the one entry of (D, height)
    _, third = run_cli(capsys, "geodesics", "--D", "5", "--x", "7.0",
                       "--format", "csv", "--cache-dir", str(cache))
    assert sorted(cache.rglob("*.pkl")) == sorted(entries)
    assert third != first
    wide = _classes(F, RunConfig(x_max=7.0, cache_dir=str(cache)))
    assert wide == enumerate_geodesics(F, 7.0)
    assert wide.coverage == enumerate_geodesics(F, 7.0).coverage
    # and the narrower bound is now cut from it, unchanged
    assert run_cli(capsys, *args)[1] == first


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("HILBERT_SELBERG_CACHE", str(cache))
    run_cli(capsys, "geodesics", "--D", "5", "--x", "6.0")
    assert list(cache.rglob("*.pkl"))


def _stored(cache):
    """The one geodesics entry of a cache directory, a window."""
    entry, = cache.glob("geodesics-*.pkl")
    with entry.open("rb") as fh:
        return pickle.load(fh)


def test_narrower_request_is_cut_from_the_cached_window(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    cache = tmp_path / "cache"
    flags = ("--D", "5", "--format", "csv", "--cache-dir", str(cache))
    run_cli(capsys, "geodesics", "--x", "10", *flags)
    before = {p: p.stat().st_mtime_ns for p in cache.iterdir()}
    assert _stored(cache).bound == 10.0
    uncached = {argv: run_cli(capsys, *argv, "--D", "5", "--format", "csv")
                for argv in (("geodesics", "--x", "8"),
                             ("pell", "--x", "6"),
                             ("report", "classavg", "--x", "8"))}

    def fail(*args, **kwargs):
        raise AssertionError("a narrower window was enumerated")

    monkeypatch.setattr(geodesics, "enumerate_geodesics", fail)
    for argv, want in uncached.items():
        assert run_cli(capsys, *argv, *flags) == want
    assert {p: p.stat().st_mtime_ns for p in cache.iterdir()} == before


def test_wider_request_replaces_the_cached_window(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    cache = tmp_path / "cache"
    flags = ("--D", "5", "--cache-dir", str(cache))
    run_cli(capsys, "geodesics", "--x", "6", *flags)
    assert _stored(cache).bound == 6.0
    _, wide = run_cli(capsys, "geodesics", "--x", "8", *flags)
    window = _stored(cache)
    assert window.bound == 8.0
    assert window == enumerate_geodesics(make_field(5), 8.0)
    assert wide == run_cli(capsys, "geodesics", "--x", "8", "--D", "5")[1]
    # another height is another entry
    run_cli(capsys, "geodesics", "--x", "6", "--height", "9", *flags)
    assert len(list(cache.glob("geodesics-*.pkl"))) == 2


@pytest.mark.parametrize("kind", ["file", "under a file"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_unusable_cache_directory_is_a_validation_error(kind, via, tmp_path,
                                                        capsys, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker if kind == "file" else blocker / "cache"
    argv = ["geodesics", "--D", "5", "--x", "3"]
    if via == "flag":
        argv += ["--cache-dir", str(target)]
        monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    else:
        monkeypatch.setenv("HILBERT_SELBERG_CACHE", str(target))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(
        f"error: cannot use cache directory {target}: ")
    assert "Traceback" not in captured.err


def test_failed_cache_write_is_a_validation_error(tmp_path, capsys,
                                                  monkeypatch):
    # a full disk while an entry is written: the temporary file goes and
    # the command exits 1 with one line naming the entry
    def full(value, fh, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(pickle, "dump", full)
    cache = tmp_path / "cache"
    code = main(["geodesics", "--D", "5", "--x", "3", "--cache-dir",
                 str(cache)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert re.fullmatch(
        f"error: cannot write cache entry {re.escape(str(cache))}/"
        rf"geodesics-\w+\.pkl: {os.strerror(errno.ENOSPC)}\n", captured.err)
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("argv,d,counts", [
    (("forms", "--D", "28", "--d=-4+2*w"), "-4+2*w", (6, 4)),
    (("geodesics", "--D", "69", "--x", "6.5"), "17+5*w", (2, 4)),
])
def test_wrong_form_counts_raise(argv, d, counts, capsys, monkeypatch):
    # the form route agrees with the matrix-conjugacy count on these
    # discriminants but not with the class number formula, so the count
    # exits 3 instead of printing a wrong class number or multiplicity
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    assert main(list(argv)) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(
        f"invariant violation: ambiguous class count for d={d}: form orbits "
        f"give {counts[0]}, the class number formula gives {counts[1]} "
        "within ")


# ---------------------------------------------------------------- check

def test_check_passes_and_enumerates_window_once(capsys, monkeypatch):
    bounds = []

    def counted(F, x, **kwargs):
        bounds.append(x)
        return enumerate_geodesics(F, x, **kwargs)

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(geodesics, "enumerate_geodesics", counted)
    code, out = run_cli(capsys, "check", "--D", "5")
    assert code == 0
    rows = ["exact constants", "elliptic census", "leading terms",
            "class numbers", "zeta consistency", "trace closed forms",
            "heat asymptotics", "count trend", "truncation stability"]
    lines = out.splitlines()
    assert [ln[:6] for ln in lines] == ["PASS  "] * len(rows)
    assert [ln[6:30].rstrip() for ln in lines] == rows
    # the class numbers row names the largest |h - round h| of the class
    # number formula over its classes and the largest proven error
    assert re.fullmatch(
        r"PASS  class numbers {12}10 classes; form matrices classify with "
        r"N = eps\^2; \|h - round h\| <= \d\.\de-1\d, proven error "
        r"<= \d\.\de-1\d", lines[3]), lines[3]
    # the shared x window (class numbers cut theirs at min(x, 8) from
    # it), the count trend at 20, one rerun at 6 against its cut
    assert bounds == [10.0, 20.0, 6.0]


def test_check_below_the_stability_window(capsys, monkeypatch):
    # at x = 5 the truncation-stability row reruns at x itself, not at
    # 6, and the heat row's widest Gaussian outruns the window
    bounds = []

    def counted(F, x, **kwargs):
        bounds.append(x)
        return enumerate_geodesics(F, x, **kwargs)

    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(geodesics, "enumerate_geodesics", counted)
    code, out = run_cli(capsys, "check", "--D", "5", "--x", "5")
    assert code == 3
    rows = {ln[6:30].rstrip(): ln for ln in out.splitlines()}
    for name in ("class numbers", "count trend", "truncation stability"):
        assert rows[name].startswith("PASS  "), rows[name]
    assert rows["heat asymptotics"].startswith(
        f"FAIL  {'heat asymptotics':24s} the Gaussian tail at beta=")
    assert "but its largest norm is " in rows["heat asymptotics"]
    assert bounds == [5.0, 20.0, 5.0]


def test_check_failing_row_exits_3(capsys, monkeypatch):
    def broken(cfg, F, window):
        raise InvariantViolation("row broken")

    monkeypatch.setattr(cli, "_CHECKS", [("exact constants", broken)])
    code, out = run_cli(capsys, "check", "--D", "5")
    assert code == 3
    assert out == f"FAIL  {'exact constants':24s} row broken\n"


_WRONG_ZETA_RUNNER = """
import dataclasses, sys
from fractions import Fraction
from hilbert_selberg import cli

real = cli.make_field
cli.make_field = lambda D: (
    dataclasses.replace(real(D), zeta_minus_one=Fraction(1, 31))
    if D == 5 else real(D))
cli._CHECKS = [row for row in cli._CHECKS if row[0] == "exact constants"]
sys.exit(cli.main(["check", "--D", "5"]))
"""


def test_check_row_fails_under_optimize():
    # python -O strips assert statements; a row's verdict must survive it
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_ZETA_RUNNER],
                          env=_package_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (
        3, f"FAIL  {'exact constants':24s} (5, Fraction(1, 31))\n")


def test_exact_constants_row_fails_when_both_routes_agree_wrongly(
        capsys, monkeypatch):
    # both exact routes agree on a wrong zeta_K(-1) for D = 5: the field
    # is built with it, and the L(2, chi_D) judge fails the row
    wrong = Fraction(1, 31)
    for module in (quadfield, cli):
        for name, value in (("zeta_minus_one", wrong),
                            ("bernoulli_L_minus_one", -12 * wrong)):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda D, real=real, value=value:
                                value if D == 5 else real(D))
    monkeypatch.setattr(quadfield, "_FIELD_MEMO", {})
    monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS[:1])
    assert make_field(5).zeta_minus_one == wrong
    code, out = run_cli(capsys, "check", "--D", "5")
    assert code == 3
    assert out.startswith(f"FAIL  {'exact constants':24s} "
                          "(5, Fraction(1, 31), 0.0333")


def test_check_heat_row_names_the_missing_census(capsys, monkeypatch,
                                                 tmp_path):
    # the x = 8 window is too narrow for the widest Gaussian, but the
    # field's missing census is what the row reports
    rows = [row for row in cli._CHECKS if row[0] == "heat asymptotics"]
    monkeypatch.setattr(cli, "_CHECKS", rows)
    code, out = run_cli(capsys, "check", "--D", "13", "--x", "8",
                        "--cache-dir", str(tmp_path))
    assert code == 3
    assert out == (f"FAIL  {'heat asymptotics':24s} "
                   "no elliptic census attached for D=13\n")


def test_check_window_failure_fails_each_row(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise BudgetExceededError("window not enumerated")

    rows = [row for row in cli._CHECKS
            if row[0] in ("zeta consistency", "trace closed forms")]
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    monkeypatch.setattr(geodesics, "enumerate_geodesics", fail)
    monkeypatch.setattr(cli, "_CHECKS", rows)
    code, out = run_cli(capsys, "check", "--D", "5")
    assert code == 3
    assert out == "".join(f"FAIL  {name:24s} window not enumerated\n"
                          for name, _ in rows)


@pytest.mark.parametrize("D", ["7", "40"])
def test_check_refuses_an_unsupported_field(D, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    with pytest.raises(ValidationError) as refused:
        make_field(int(D))
    assert main(["check", "--D", D]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"


_FIXED_FIELD_ROWS = {
    5: ["PASS  exact constants          zeta_K(-1) = 1/30 by both routes; "
        "L(2, chi_D) within 2.8e-09 <= 1.4e-08",
        "PASS  elliptic census          stabilizer orders [2, 2, 3, 3, 5, 5]; "
        "Euler characteristic 4",
        "PASS  leading terms            central order 6; "
        "stabilizer product 900"],
    13: ["PASS  exact constants          zeta_K(-1) = 1/6 by both routes; "
         "L(2, chi_D) within 1.2e-08 <= 1.5e-07",
         "FAIL  elliptic census          no elliptic census attached for D=13",
         "FAIL  leading terms            no elliptic census attached for D=13"],
}


@pytest.mark.parametrize("D", sorted(_FIXED_FIELD_ROWS))
def test_check_fixed_field_rows_name_the_field(D, capsys, monkeypatch):
    # the first three rows judge the field asked about and read no window
    _no_enumeration(monkeypatch)
    monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS[:3])
    code, out = run_cli(capsys, "check", "--D", str(D))
    assert code == (0 if D == 5 else 3)
    assert out.splitlines() == _FIXED_FIELD_ROWS[D]


CHECK_VERDICTS = Path(__file__).parent / "data" / "check_verdicts.txt"


def test_check_verdict_scoreboard(capsys, monkeypatch):
    # one line per class-number-one field: D, exit code, P or F per row;
    # a change that turns a cell to PASS updates the file
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    got = []
    for D in sorted(CLASS_NUMBER_ONE):
        code, out = run_cli(capsys, "check", "--D", str(D))
        cells = "".join(ln[0] for ln in out.splitlines())
        got.append(f"{D} {code} {cells}")
    want = [ln for ln in CHECK_VERDICTS.read_text().splitlines()
            if not ln.startswith("#")]
    assert got == want
