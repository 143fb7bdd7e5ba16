"""Seeded inputs, library calls and the correctness gate of the benchmark.

Every input is drawn from a fixed pool, and reference.json holds the
expected output of every pool member, written by make_reference.py.
Exact outputs must match exactly.  Each float field of an output must
agree with its reference within the tolerance stored for that field,
the program's own reported tail bound or quadrature error of it, plus
a rounding floor of 1e-9 * (1 + |ref|), so reordered arithmetic does
not fail the gate.
"""

import csv
import io
import json
import random
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# enumerate-d5: one cold enumeration of this window
ENUM_D, ENUM_X = 5, 12.0

# analytic-d5: the window built in set-up, and the call pools
WINDOW_D, WINDOW_X, TRUNC_K = 5, 10.0, 40
WEIGHTS = (2, 4, 6)
S_POINTS = tuple(complex(sigma, tau) for sigma in (1.3, 1.6, 2.0, 2.5, 2.9)
                 for tau in (0.0, 1.5, 4.0, 10.0))
GAUSS_BETAS = (0.03, 0.05, 0.08, 0.12, 0.2)
RATIONAL = ((1.6 + 0j, 2.5, 3.5), (2.0 + 0j, 2.0, 3.0),
            (2.5 + 0j, 3.0, 4.5), (2.9 + 1j, 2.5, 4.0))
HEAT_GRIDS = ((0.2, 0.1, 0.05, 0.025), (0.2, 0.15, 0.1, 0.05),
              (0.15, 0.1, 0.07, 0.05, 0.035))

ANALYTIC_POOLS = {
    "zeta": [(m, s) for m in WEIGHTS for s in S_POINTS],
    "log_deriv": [(m, s) for m in WEIGHTS for s in S_POINTS],
    "ruelle": [(s,) for s in S_POINTS],
    "gaussian": [(single, m, b) for single in (False, True)
                 for m in WEIGHTS for b in GAUSS_BETAS],
    "rational": [(single, m) + r for single in (False, True)
                 for m in WEIGHTS for r in RATIONAL],
    "closed_forms": [(m,) + r for m in WEIGHTS for r in RATIONAL],
    "heat": [(grid,) for grid in HEAT_GRIDS],
}
# calls of each kind per batch, the mix that defines the workload; each
# kind cycles through its pool, every batch makes the same calls and the
# seed sets only their order, so seeds do not change the work
ANALYTIC_MIX = (("zeta", 300), ("log_deriv", 300), ("ruelle", 60),
                ("gaussian", 40), ("rational", 20), ("closed_forms", 20),
                ("heat", 20))

# cli-session: two cache misses first, then the rest in seeded order
CLI_MISSES = (("geodesics", "--D", "5", "--x", "10"),
              ("geodesics", "--D", "13", "--x", "8"))
CLI_FIXED = (("geodesics", "--D", "5", "--x", "10", "--format", "csv"),
             ("pell", "--D", "5"),
             ("pell", "--D", "13", "--x", "8"),
             ("field", "--D", "5"), ("field", "--D", "8"),
             ("field", "--D", "12"), ("field", "--D", "13"),
             ("forms", "--D", "5", "--d=-7+5*w"),
             ("report", "classavg", "--D", "5", "--x", "8"))
_SINGLE = ((), ("--single",))
CLI_POOLS = (
    tuple(("zeta", "--D", "5", "--m", str(m), "--s", s) for m in WEIGHTS
          for s in ("1.5", "2.0+0.5i", "2.5-1i", "1.3+3i")),
    tuple(("trace", "--D", "5", "--m", str(m), "--test", f"gaussian:beta={b}")
          + flag for m in WEIGHTS for b in (0.05, 0.08, 0.12)
          for flag in _SINGLE),
    tuple(("trace", "--D", "5", "--m", str(m), "--test", t) + flag
          for m in WEIGHTS
          for t in ("rational:s=2.5,beta1=2.5,beta2=3.5",
                    "rational:s=2.0,beta1=2.0,beta2=3.0")
          for flag in _SINGLE),
    tuple(("trace", "heatfit", "--D", "5", "--betas", b)
          for b in ("0.2,0.1,0.05,0.025", "0.2,0.15,0.1,0.05")),
    tuple(("ledger", "--D", "5", "--m", str(m)) for m in WEIGHTS),
)


def op_key(kind: str, args: tuple) -> str:
    return f"{kind}{args!r}"


def analytic_batch(seed: int) -> list:
    """The batch: (kind, args) calls in seeded order."""
    batch = [(kind, ANALYTIC_POOLS[kind][i % len(ANALYTIC_POOLS[kind])])
             for kind, n in ANALYTIC_MIX for i in range(n)]
    random.Random(seed).shuffle(batch)
    return batch


def cli_session(seed: int) -> list:
    """The seeded command sequence (argv lists, without --cache-dir)."""
    rng = random.Random(seed)
    rest = list(CLI_FIXED) + [rng.choice(pool) for pool in CLI_POOLS]
    rng.shuffle(rest)
    return [list(argv) for argv in list(CLI_MISSES) + rest]


def cli_pool() -> list:
    """Every command a session can run."""
    return [list(argv) for argv in
            CLI_MISSES + CLI_FIXED + tuple(a for p in CLI_POOLS for a in p)]


def subcommand(argv: list) -> str:
    """Per-layer name of a command: trace heatfit and report modes apart."""
    if argv[0] in ("trace", "report") and not argv[1].startswith("-"):
        return f"{argv[0]}_{argv[1]}"
    return argv[0]


# ------------------------------------------------------------ library calls


def plain(value):
    """JSON-ready copy: complex numbers become [re, im]."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def enumerate_rows(classes) -> list:
    """The exact content of a class list: (d, t0, u0, multiplicity)."""
    return [[str(c.d), str(c.record.pell.t0), str(c.record.pell.u0),
             c.multiplicity] for c in classes]


def evaluate(kind: str, args: tuple, F, classes, coverage: float) -> tuple:
    """One analytic call through the package's module attributes.

    Returns (output, report): the output fields, and what the program
    reports about their error: a tail bound, a geometric side's
    diagnostics, the heat fit's condition number, or None.
    """
    from hilbert_selberg import traceform, zetafun
    if kind in ("zeta", "log_deriv"):
        m, s = args
        p = zetafun.ZetaParams(s=s, m=m, trunc_norm=coverage,
                               trunc_k=TRUNC_K)
        if kind == "zeta":
            v = zetafun.selberg_zeta(p, classes)
            return {"log_value": v.log_value}, v.tail_bound
        v = zetafun.selberg_log_deriv(p, classes)
        return {"value": v.value}, v.tail_bound
    if kind == "ruelle":
        v = zetafun.ruelle(args[0], classes)
        return {"value": v.value, "direct": v.direct}, v.tail_bound
    if kind in ("gaussian", "rational"):
        single, m = args[:2]
        tf = (traceform.gaussian_testfunction(args[2]) if kind == "gaussian"
              else traceform.rational_testfunction(*args[2:]))
        side = (traceform.geom_side_difference if single
                else traceform.geom_side_double_difference)
        out = side(m, tf, F, classes).to_json()
        return out, out.pop("diagnostics")
    if kind == "closed_forms":
        out = traceform.double_difference_closed_forms(*args, F, classes)
        return {f"{fam}.{part}": out[fam][part] for fam in out
                for part in ("geometric", "closed")}, None
    if kind == "heat":
        r = traceform.heat_asymptotic_check(F, args[0], classes)
        return {"a_fit": r["a_fit"], "b_fit": r["b_fit"],
                "c_fit": r["c_fit"], "d_fit": r["d_fit"],
                "removed": list(r["removed_families"]),
                "elliptic_limit": r["elliptic_limit"]}, \
            r["condition_number"]
    raise ValueError(f"unknown analytic call {kind}")


# ------------------------------------------------------------ the gate


_INT = re.compile(r"-?\d+")


def parse_output(text: str):
    """Parsed CLI stdout: JSON, or CSV rows with numeric cells converted."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    rows = []
    for row in csv.reader(io.StringIO(text)):
        cells = []
        for cell in row:
            if _INT.fullmatch(cell):
                cells.append(int(cell))
                continue
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def _field_tol(tol, key):
    """Tolerance of one field: a number covers a whole subtree, a dict or
    list gives each field its own (a field a dict leaves out gets 0)."""
    if isinstance(tol, dict):
        return tol.get(key, 0.0)
    if isinstance(tol, list):
        return tol[key]
    return tol


def mismatch(got, ref, tol=0.0, path: str = "") -> str:
    """'' when got agrees with ref, else where and how it differs.

    A float agrees when |got - ref| <= tol + 1e-9 * (1 + |ref|), with tol
    its field's tolerance; everything else must be equal.
    """
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - ref) <= tol + 1e-9 * (1.0 + abs(ref)):
            return ""
        return f"{path}: {got!r} vs {ref!r} (tol {tol:.3g})"
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(got) != set(ref):
            return f"{path}: keys {sorted(got)} vs {sorted(ref)}"
        for k in ref:
            why = mismatch(got[k], ref[k], _field_tol(tol, k), f"{path}.{k}")
            if why:
                return why
        return ""
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return f"{path}: length {len(got)} vs {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            why = mismatch(g, r, _field_tol(tol, i), f"{path}[{i}]")
            if why:
                return why
        return ""
    if type(got) is not type(ref) or got != ref:
        return f"{path}: {got!r} vs {ref!r}"
    return ""


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


def check_cli(argv: list, stdout: str, reference: dict) -> str:
    """'' when a command's stdout matches its reference."""
    ref = reference["cli"].get(" ".join(argv))
    if ref is None:
        return "no reference output"
    if ref["exact"]:
        return "" if stdout == ref["stdout"] else "stdout differs"
    try:
        got = parse_output(stdout)
    except (ValueError, csv.Error) as exc:
        return f"unparsable output: {exc}"
    return mismatch(got, parse_output(ref["stdout"]), ref["tol"])


def check_analytic(kind: str, args: tuple, out: dict, reference: dict) -> str:
    ref = reference["analytic"].get(op_key(kind, args))
    if ref is None:
        return "no reference value"
    return mismatch(plain(out), ref["value"], ref["tol"])
