"""Command-line front end.

Subcommands expose the library: field and census data, Pell tables,
form classes, geodesic enumeration, zeta evaluation, the divisor
ledger, trace-formula breakdowns, the heat fit, counting reports, and
a self-check suite.  Outputs are deterministic byte-for-byte for a
fixed configuration: JSON is emitted with sorted keys, CSV in RFC-4180
dialect with '.' decimals, and exact values (field elements, rational
constants) are printed as strings, never floats.  JSON (RFC 8259) has
no inf or nan, so a non-finite value is an invariant violation.

Configuration comes from defaults, then an optional key=value config
file, then explicit flags, in that order.  Each run parameter has one
flag, and the flag's text is parsed exactly like the config value of
its key: numbers must be finite, and `none` resets a key that may be
unset.  zeta refuses an s, K or X out of range before it reads a
window.  Exit codes: 0 success, 1 validation failure, 2 budget
exceeded, 3 internal invariant violation.

A command imports the layers it runs when it runs, so a short command
pays neither their import nor, without bytecode, their compilation.
The same holds for numpy: only the modules that build arrays import it
(orbits, modgroup, pellforms, geodesics, zetafun, traceform,
integrate), and this module, quadfield, records and cache do not.  A
cached window unpickles into records' types, so on a cache hit pell,
geodesics and report read and format it without numpy, and so does
field on a field without an elliptic census (D = 13).  A cache miss
enumerates, field with a census builds it, and forms, zeta, ledger,
trace and check compute on arrays: those load numpy.  The analytic
modules take the window from records, so zeta on a cache hit loads
numpy but no search layer (orbits, modgroup, pellforms, geodesics).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .errors import (BudgetExceededError, HilbertSelbergError,
                     InvariantViolation, ValidationError)
from .quadfield import (bernoulli_L_minus_one, chi_D, make_field,
                        parse_quadint, zeta_minus_one)


# ------------------------------------------------------------ configuration

@dataclasses.dataclass
class RunConfig:
    """Run-wide parameters, read from key = value text by from_text."""

    D: int = 5
    x_max: float = 10.0
    height: float = 8.0
    trunc_norm: Optional[float] = None
    trunc_k: int = 40
    beta_grid: Tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    out_format: str = "json"
    out_path: Optional[str] = None
    cache_dir: Optional[str] = None

    def validate(self) -> None:
        if self.D <= 0:
            raise ValidationError(f"D={self.D} must be positive")
        if self.x_max <= 0 or self.height <= 0:
            raise ValidationError("x_max and height must be positive")
        if self.trunc_norm is not None and self.trunc_norm < 3.0:
            raise ValidationError("trunc_norm must be >= 3")
        if self.trunc_k < 0:
            raise ValidationError("trunc_k must be >= 0")
        if any(b <= 0 for b in self.beta_grid):
            raise ValidationError("beta grid entries must be positive")
        if self.out_format not in ("json", "csv"):
            raise ValidationError(f"unknown format {self.out_format!r}")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cfg = cls()
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"config line {ln}: expected key = value")
            key, _, val = (p.strip() for p in line.partition("="))
            if key not in {f.name for f in dataclasses.fields(cls)}:
                raise ValidationError(f"config line {ln}: unknown key {key!r}")
            setattr(cfg, key, _parse_config_value(key, val))
        cfg.validate()
        return cfg


def _parse_config_value(key: str, val: str):
    if val.lower() == "none" and key in ("trunc_norm", "out_path",
                                         "cache_dir"):
        return None
    if key in ("D", "trunc_k"):
        return _parse_number(val, key, int)
    if key in ("x_max", "height", "trunc_norm"):
        return _parse_number(val, key)
    if key == "beta_grid":
        return _parse_numbers(val, key)
    return val


# ------------------------------------------------------------ small helpers

def _parse_number(text: str, what: str, kind=float):
    try:
        value = kind(text)
    except ValueError:
        raise ValidationError(f"cannot parse {what} {text!r}")
    if not cmath.isfinite(value):
        raise ValidationError(
            f"cannot parse {what} {text!r}: not a finite number")
    return value


def _parse_numbers(text: str, what: str) -> Tuple[float, ...]:
    return tuple(_parse_number(p, what) for p in text.split(",") if p.strip())


def _parse_complex(text: str) -> complex:
    return _parse_number(text, "complex number", lambda s: complex(
        s.strip().replace(" ", "").replace("i", "j")))


def _w_convention(D: int) -> str:
    if D % 4 == 1:
        return f"w=(1+sqrt({D}))/2"
    return f"w=sqrt({D})/2"


def _classes(F, cfg: RunConfig, x: Optional[float] = None):
    """The window to x (default x_max).  The cache holds one window per
    (D, height), the widest asked for: a narrower x is cut from it, a
    wider one is enumerated and replaces it."""
    from .cache import get_or_compute
    x = cfg.x_max if x is None else x

    def enumerate_window():
        from .geodesics import enumerate_geodesics
        return enumerate_geodesics(F, x, height=cfg.height)

    window = get_or_compute(
        "geodesics", {"D": F.D, "height": cfg.height}, enumerate_window,
        cfg.cache_dir, usable=lambda w: w.bound >= x)
    return window if window.bound == x else window.within(x)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out_path:
        try:
            with open(cfg.out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(
                f"cannot write output {cfg.out_path}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _emit_json(obj, cfg: RunConfig) -> None:
    """Emit obj as JSON (RFC 8259), which has no inf or nan."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolation(f"output not JSON: {exc}")
    _emit(text + "\n", cfg)


def _emit_table(head: dict, key: str, rows: Sequence[dict],
                columns: Sequence[Tuple[str, str]], cfg: RunConfig) -> None:
    """rows as JSON, the list under key next to head, or as CSV with one
    column per (label, row key) pair of columns."""
    if cfg.out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([label for label, _ in columns])
        writer.writerows([row[k] for _, k in columns] for row in rows)
        _emit(buf.getvalue(), cfg)
    else:
        _emit_json({**head, key: rows}, cfg)


# ------------------------------------------------------------ subcommands

def _cmd_field(cfg: RunConfig, args) -> int:
    F = make_field(cfg.D)
    _emit_json(F.to_json(), cfg)
    return 0


def _cmd_pell(cfg: RunConfig, args) -> int:
    F = make_field(cfg.D)
    w = _w_convention(cfg.D)
    rows = [{"d": str(c.record.d), "eps_d": c.record.pell.eps_d,
             "t0": str(c.record.pell.t0), "u0": str(c.record.pell.u0),
             "h_K": c.record.class_number} for c in _classes(F, cfg)]
    _emit_table({"D": cfg.D, "w": w}, "rows", rows,
                [(f"d ({w})", "d"), ("eps_d", "eps_d"), ("t0", "t0"),
                 ("u0", "u0"), ("h_K(d)", "h_K")], cfg)
    return 0


def _cmd_forms(cfg: RunConfig, args) -> int:
    from .pellforms import class_number
    F = make_field(cfg.D)
    d = parse_quadint(args.d, F.D)
    rec = class_number(d, F, height=cfg.height)
    _emit_json({
        "D": cfg.D,
        "w": _w_convention(cfg.D),
        "d": str(rec.d),
        "pell": {"t0": str(rec.pell.t0), "u0": str(rec.pell.u0)},
        "class_number": rec.class_number,
        "forms": [[str(Q.a), str(Q.b), str(Q.c)] for Q in rec.forms],
    }, cfg)
    return 0


def _cmd_geodesics(cfg: RunConfig, args) -> int:
    F = make_field(cfg.D)
    w = _w_convention(cfg.D)
    rows = [{"d": str(c.d), "norm": c.norm, "angle": c.angle,
             "multiplicity": c.multiplicity} for c in _classes(F, cfg)]
    _emit_table({"D": cfg.D, "x": cfg.x_max, "w": w}, "classes", rows,
                [(f"d ({w})", "d"), ("norm", "norm"), ("angle", "angle"),
                 ("multiplicity", "multiplicity")], cfg)
    return 0


def _cmd_zeta(cfg: RunConfig, args) -> int:
    from .zetafun import ZetaParams, check_zeta_args, selberg_zeta
    s = _parse_complex(args.s)  # refused before any enumeration
    check_zeta_args(s, args.m)
    F = make_field(cfg.D)
    classes = _classes(F, cfg)
    cov = classes.coverage
    if cov < 3.0:  # a cutoff clamped to it could never be valid
        raise ValidationError(
            f"the window to x = {cfg.x_max:.6g} lists no class of norm "
            ">= 3; ask for a larger --x")
    # requested cutoffs beyond the enumerated window are clamped; the
    # effective cutoff is reported and the tail bound starts there
    params = ZetaParams(s=s, m=args.m,
                        trunc_norm=min(cfg.trunc_norm or cov, cov),
                        trunc_k=cfg.trunc_k)
    val = selberg_zeta(params, classes)
    _emit_json({
        "D": cfg.D, "m": args.m, "s": [params.s.real, params.s.imag],
        "trunc_norm": params.trunc_norm, "trunc_k": params.trunc_k,
        "value": [val.value.real, val.value.imag],
        "log_value": [val.log_value.real, val.log_value.imag],
        "tail_bound": val.tail_bound,
    }, cfg)
    return 0


def _cmd_ledger(cfg: RunConfig, args) -> int:
    from .zetafun import divisor_ledger, ruelle_leading
    F = make_field(cfg.D)
    led = divisor_ledger(args.m, F, k_max=args.kmax)
    blob = led.to_json()
    blob["leading"] = {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in ruelle_leading(F).items()}
    _emit_json(blob, cfg)
    return 0


def _parse_testfunction(text: str):
    from .traceform import gaussian_testfunction, rational_testfunction
    kind, _, rest = text.partition(":")
    try:
        kv = dict(p.split("=", 1) for p in rest.split(",") if p)
    except ValueError:
        raise ValidationError(f"cannot parse test function {text!r}")
    if kind == "gaussian":
        if set(kv) != {"beta"}:
            raise ValidationError("gaussian takes exactly beta=...")
        return gaussian_testfunction(_parse_number(kv["beta"], "beta"))
    if kind == "rational":
        if set(kv) != {"s", "beta1", "beta2"}:
            raise ValidationError(
                "rational takes s=..., beta1=..., beta2=...")
        return rational_testfunction(_parse_complex(kv["s"]),
                                     _parse_number(kv["beta1"], "beta1"),
                                     _parse_number(kv["beta2"], "beta2"))
    raise ValidationError(f"unknown test function kind {kind!r}")


def _cmd_trace(cfg: RunConfig, args) -> int:
    if args.mode == "heatfit":
        return _cmd_heatfit(cfg, args)
    from .traceform import (check_trace_args, geom_side_difference,
                            geom_side_double_difference)
    tf = _parse_testfunction(args.test)
    F = make_field(cfg.D)
    F.census_classes()  # a field without a census is refused unread
    check_trace_args(args.m, [tf])
    classes = _classes(F, cfg)
    if tf.kind != "gaussian" and classes.coverage <= 3.0:  # no HE tail
        raise ValidationError(
            f"the window to x = {cfg.x_max:.6g} lists no class of norm "
            "> 3; ask for a larger --x")
    evaluator = (geom_side_difference if args.single
                 else geom_side_double_difference)
    bd = evaluator(args.m, tf, F, classes)
    blob = bd.to_json()
    blob["D"] = cfg.D
    blob["m"] = args.m
    blob["test"] = args.test
    blob["difference"] = "single" if args.single else "double"
    _emit_json(blob, cfg)
    return 0


def _cmd_heatfit(cfg: RunConfig, args) -> int:
    from .traceform import heat_asymptotic_check, heat_grid
    F = make_field(cfg.D)
    F.census_classes()  # a field without a census is refused unread
    heat_grid(cfg.beta_grid)
    classes = _classes(F, cfg)
    report = heat_asymptotic_check(F, cfg.beta_grid, classes)
    report["D"] = cfg.D
    _emit_json(report, cfg)
    return 0


def _cmd_report(cfg: RunConfig, args) -> int:
    from .records import count_reports
    F = make_field(cfg.D)
    if args.x_grid is not None:
        grid = _parse_numbers(args.x_grid, "x grid entry")
        if not grid:
            raise ValidationError("report grid needs at least one x")
    else:
        grid = ([cfg.x_max] if args.mode == "classavg"
                else [5.0, 10.0, 15.0, 20.0])
    # one window to the largest x, read only for a valid grid, so a bad
    # cutoff is refused before any enumeration
    reports = count_reports(grid, lambda x: _classes(F, cfg, x),
                            geodesic_scale=args.mode == "pgt")
    rows = [{"x": r.x, "psi_sum": r.psi_sum, "pi_sum": r.pi_sum,
             **r.residuals} for r in reports]
    _emit_table({"D": cfg.D, "mode": args.mode}, "rows", rows,
                [(k, k) for k in ("x", "psi_sum", "pi_sum", "psi_main",
                                  "pi_main", "psi_ratio", "pi_ratio")], cfg)
    return 0


# ------------------------------------------------------------ check suite

def _require(ok, measured) -> None:
    """Fail the running check row, carrying what it measured."""
    if not ok:
        raise InvariantViolation(measured)


# terms of the L(2, chi_D) sum that judges zeta_K(-1)
_L2_TERMS = 4096


def _check_exact_constants(cfg: RunConfig, F, window) -> str:
    # the field's value against both of its exact routes, the divisor
    # sum and zeta(-1) * L(-1, chi_D), and against an analytic judge
    # that shares neither: zeta_K(-1) = D^(3/2) L(2, chi_D) / (24 pi^2).
    # The partial sums S(n) of chi_D are at most D/2 in modulus, as
    # chi_D sums to 0 over a period, so by Abel summation the terms past
    # N add at most 2 (D/2) / (N + 1)^2 to L(2, chi_D)
    D, value = F.D, F.zeta_minus_one
    routes = (zeta_minus_one(D), -bernoulli_L_minus_one(D) / 12)
    _require(all(value == z for z in routes), (D, value))
    chi = chi_D(D)
    scale = D ** 1.5 / (24.0 * math.pi ** 2)
    analytic = scale * math.fsum(chi(n) / n ** 2
                                 for n in range(1, _L2_TERMS + 1))
    err = abs(analytic - value)
    tol = scale * D / (_L2_TERMS + 1) ** 2 + 1e-12
    _require(err <= tol, (D, value, analytic, tol))
    return (f"zeta_K(-1) = {value} by both routes; "
            f"L(2, chi_D) within {err:.1e} <= {tol:.1e}")


def _check_census_orders(cfg: RunConfig, F, window) -> str:
    # the census certifies its orders against CENSUS_ORDERS as it is built
    orders = [nu for nu, t in F.census_classes()]
    e = F.euler_char
    _require(e.denominator == 1, (F.D, e))
    return f"stabilizer orders {orders}; Euler characteristic {e}"


def _check_leading_terms(cfg: RunConfig, F, window) -> str:
    from .zetafun import ruelle_leading
    info = ruelle_leading(F)
    return (f"central order {info['n0']}; "
            f"stabilizer product {info['stabilizer_product']}")


def _check_class_numbers(cfg: RunConfig, F, window) -> str:
    from .modgroup import classify
    from .pellforms import form_to_matrix
    classes = window().within(min(cfg.x_max, 8.0))
    _require(classes, "no classes enumerated")
    off = error = 0.0
    for c in classes:
        g = form_to_matrix(c.record.forms[0], c.record.pell)
        ec = classify(g)
        _require(ec.kind == "hyperbolic-elliptic", ec)
        _require(abs(ec.norm - c.norm) <= 1e-9 * (1.0 + c.norm), (ec, c))
        h = c.record.h
        off, error = max(off, h.off), max(error, h.error)
    return (f"{len(classes)} classes; form matrices classify with "
            f"N = eps^2; |h - round h| <= {off:.1e}, proven error "
            f"<= {error:.1e}")


def _check_zeta_consistency(cfg: RunConfig, F, window) -> str:
    from .zetafun import ZetaParams, ruelle, selberg_log_deriv, selberg_zeta
    classes = window()
    rng = random.Random(20240)
    worst = 0.0
    for _ in range(3):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-2.0, 2.0))
        m = rng.choice((2, 4, 6))
        h = 1e-4
        p = ZetaParams(s=s, m=m, trunc_norm=classes.coverage, trunc_k=60)
        exact = selberg_log_deriv(p, classes).value
        lo = selberg_zeta(dataclasses.replace(p, s=s - h), classes)
        hi = selberg_zeta(dataclasses.replace(p, s=s + h), classes)
        fd = (hi.log_value - lo.log_value) / (2.0 * h)
        worst = max(worst, abs(fd - exact) / abs(exact))
    _require(worst <= 1e-6, worst)
    rv = ruelle(2.5, classes)
    _require(abs(rv.value - rv.direct) <= rv.tail_bound + 1e-11, rv)
    return f"log-derivative matches finite differences, rel err {worst:.2e}"


def _check_trace_closed_forms(cfg: RunConfig, F, window) -> str:
    from .traceform import double_difference_closed_forms
    classes = window()
    report = double_difference_closed_forms(4, 2.5, 2.5, 3.5, F, classes)
    worst = max(e["diff"] for e in report.values())
    _require(worst <= 1e-7, report)
    return f"integral and closed forms agree, max diff {worst:.2e}"


def _check_heat_fit(cfg: RunConfig, F, window) -> str:
    from .traceform import heat_asymptotic_check
    classes = window()
    report = heat_asymptotic_check(F, cfg.beta_grid, classes)
    return (f"a rel err {report['a_rel_err']:.2e}, "
            f"b rel err {report['b_rel_err']:.2e}")


def _check_count_trend(cfg: RunConfig, F, window) -> str:
    from .records import count_reports
    [report] = count_reports([20.0], lambda x: _classes(F, cfg, x),
                             geodesic_scale=True)
    psi = report.residuals["psi_ratio"]
    pi = report.residuals["pi_ratio"]
    _require(0.75 <= psi <= 1.25, psi)
    _require(0.75 <= pi <= 1.25, pi)
    return f"x=20 ratios: psi {psi:.3f}, pi {pi:.3f} within [0.75, 1.25]"


def _check_truncation_stability(cfg: RunConfig, F, window) -> str:
    from .geodesics import enumerate_geodesics
    from .zetafun import ZetaParams, selberg_zeta
    classes = window()
    # at both depths the inner-depth factor 1 - N^-(l(K+1)) still
    # differs from 1 in double precision, so the doubling compares
    # products that really differ
    p = ZetaParams(s=2.5, m=4, trunc_norm=classes.coverage, trunc_k=8)
    a = selberg_zeta(p, classes)
    b = selberg_zeta(dataclasses.replace(p, trunc_k=16), classes)
    _require(abs(a.value - b.value) <= a.tail_bound, (a, b))
    # a fresh window at min(x, 6) against its cut from the shared one
    x = min(cfg.x_max, 6.0)
    fresh = [(c.d.a, c.d.b, c.multiplicity)
             for c in enumerate_geodesics(F, x, height=cfg.height)]
    cut = [(c.d.a, c.d.b, c.multiplicity) for c in classes.within(x)]
    _require(fresh == cut, (x, fresh, cut))
    return "depth doubling within tails; integer outputs reproducible"


_CHECKS = [
    ("exact constants", _check_exact_constants),
    ("elliptic census", _check_census_orders),
    ("leading terms", _check_leading_terms),
    ("class numbers", _check_class_numbers),
    ("zeta consistency", _check_zeta_consistency),
    ("trace closed forms", _check_trace_closed_forms),
    ("heat asymptotics", _check_heat_fit),
    ("count trend", _check_count_trend),
    ("truncation stability", _check_truncation_stability),
]


def _cmd_check(cfg: RunConfig, args) -> int:
    # an unsupported D is refused before any row; the x_max window is
    # enumerated once on first use and shared by the rows, and a failed
    # enumeration is retried, so each row reports it
    F = make_field(cfg.D)
    window = functools.cache(lambda: _classes(F, cfg))
    failures = 0
    lines = []
    for name, fn in _CHECKS:
        try:
            detail = fn(cfg, F, window)
            lines.append(f"PASS  {name:24s} {detail}")
        except HilbertSelbergError as exc:
            failures += 1
            lines.append(f"FAIL  {name:24s} {exc}")
    _emit("\n".join(lines) + "\n", cfg)
    return 3 if failures else 0


# ------------------------------------------------------------ entry point

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; map those to 1 instead,
    # since 2 is reserved for exceeded budgets
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--D", help="field discriminant")
    common.add_argument("--x", dest="x_max",
                        help="geodesic enumeration bound")
    common.add_argument("--height", help="search height cap")
    common.add_argument("--format", dest="out_format",
                        choices=("json", "csv"))
    common.add_argument("--out", dest="out_path", help="output file")
    common.add_argument("--cache-dir", dest="cache_dir")

    parser = _Parser(prog="hilbert-selberg")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("field", parents=[common])
    sub.add_parser("pell", parents=[common])
    p = sub.add_parser("forms", parents=[common])
    p.add_argument("--d", required=True, help='discriminant as "a+b*w"')
    sub.add_parser("geodesics", parents=[common])
    p = sub.add_parser("zeta", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", required=True, help='complex, e.g. "2.0+0.5i"')
    p.add_argument("--X", dest="trunc_norm", metavar="X",
                   help="norm truncation")
    p.add_argument("--K", dest="trunc_k", metavar="K", help="k truncation")
    p = sub.add_parser("ledger", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kmax", type=int, default=20)
    p = sub.add_parser("trace", parents=[common])
    p.add_argument("mode", nargs="?", choices=("heatfit",))
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--test", default="gaussian:beta=0.05")
    p.add_argument("--single", action="store_true",
                   help="single difference instead of double")
    p.add_argument("--betas", dest="beta_grid", metavar="BETAS")
    p = sub.add_parser("report", parents=[common])
    p.add_argument("mode", choices=("pgt", "classavg"))
    p.add_argument("--x-grid", dest="x_grid", default=None)
    sub.add_parser("check", parents=[common])
    return parser


_COMMANDS = {
    "field": _cmd_field,
    "pell": _cmd_pell,
    "forms": _cmd_forms,
    "geodesics": _cmd_geodesics,
    "zeta": _cmd_zeta,
    "ledger": _cmd_ledger,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "check": _cmd_check,
}


def _merge_config(args) -> RunConfig:
    try:
        cfg = (RunConfig.from_text(Path(args.config).read_text("utf-8"))
               if args.config else RunConfig())
    except OSError as exc:
        raise ValidationError(
            f"cannot read config {args.config}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}")
    for f in dataclasses.fields(RunConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            setattr(cfg, f.name, _parse_config_value(f.name, text))
    cfg.validate()
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 3
    except HilbertSelbergError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_main() -> None:
    raise SystemExit(main())
