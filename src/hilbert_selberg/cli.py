"""Command-line front end.

Subcommands expose the library: field and census data, Pell tables,
form classes, geodesic enumeration, zeta evaluation, the divisor
ledger, trace-formula breakdowns, the heat fit, counting reports, and
a self-check suite.  Outputs are deterministic byte-for-byte for a
fixed configuration: JSON is emitted with sorted keys, CSV in RFC-4180
dialect with '.' decimals, and exact values (field elements, rational
constants) are printed as strings, never floats.

Configuration comes from defaults, then an optional key=value config
file, then explicit flags, in that order.  Exit codes: 0 success,
1 validation failure, 2 budget exceeded, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .cache import get_or_compute
from .errors import (BudgetExceededError, HilbertSelbergError,
                     InvariantViolation, ValidationError)
from .geodesics import class_average_report, enumerate_geodesics, pgt_report
from .modgroup import classify
from .pellforms import class_number, form_to_matrix
from .quadfield import field_to_json_str, make_field, parse_quadint
from .traceform import (gaussian_testfunction, geom_side_difference,
                        geom_side_double_difference, heat_asymptotic_check,
                        rational_testfunction,
                        double_difference_closed_forms)
from .zetafun import (ZetaParams, divisor_ledger, fe_identity_checks,
                      ruelle, ruelle_leading, selberg_log_deriv,
                      selberg_zeta)


# ------------------------------------------------------------ configuration

@dataclasses.dataclass
class RunConfig:
    """Run-wide parameters; round-trips losslessly through key=value text."""

    D: int = 5
    x_max: float = 10.0
    height: float = 8.0
    trunc_norm: Optional[float] = None
    trunc_k: int = 40
    beta_grid: Tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    out_format: str = "json"
    out_path: Optional[str] = None
    cache_dir: Optional[str] = None
    seed: int = 20240

    def validate(self) -> None:
        for key in ("x_max", "height", "trunc_norm", "beta_grid"):
            val = getattr(self, key)
            for v in val if isinstance(val, tuple) else (val,):
                if v is not None and not math.isfinite(v):
                    raise ValidationError(
                        f"cannot parse {key} {v!r}: not a finite number")
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

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is None:
                v = "none"
            elif isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

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
            if not hasattr(cfg, key):
                raise ValidationError(f"config line {ln}: unknown key {key!r}")
            setattr(cfg, key, _parse_config_value(key, val))
        cfg.validate()
        return cfg


def _parse_config_value(key: str, val: str):
    if val.lower() == "none" and key in ("trunc_norm", "out_path",
                                         "cache_dir"):
        return None
    if key in ("D", "trunc_k", "seed"):
        return _parse_number(val, key, int)
    if key in ("x_max", "height", "trunc_norm"):
        return _parse_number(val, key)
    if key == "beta_grid":
        return _parse_numbers(val, key)
    return val


# ------------------------------------------------------------ small helpers

def _parse_number(text: str, what: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"cannot parse {what} {text!r}")


def _parse_numbers(text: str, what: str) -> Tuple[float, ...]:
    return tuple(_parse_number(p, what) for p in text.split(",") if p.strip())


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ValidationError(f"cannot parse complex number {text!r}")


def _w_convention(D: int) -> str:
    if D % 4 == 1:
        return f"w=(1+sqrt({D}))/2"
    return f"w=sqrt({D})/2"


def _classes(F, cfg: RunConfig, x: Optional[float] = None):
    x = cfg.x_max if x is None else x
    return get_or_compute(
        "geodesics", {"D": F.D, "x": x, "height": cfg.height},
        lambda: enumerate_geodesics(F, x, height=cfg.height),
        cfg.cache_dir)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, cfg: RunConfig) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", cfg)


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[str]],
              cfg: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), cfg)


def _fmt(x: float) -> str:
    return repr(float(x))


# ------------------------------------------------------------ subcommands

def _cmd_field(cfg: RunConfig, args) -> int:
    F = make_field(cfg.D)
    _emit(field_to_json_str(F) + "\n", cfg)
    return 0


def _cmd_pell(cfg: RunConfig, args) -> int:
    F = make_field(cfg.D)
    classes = _classes(F, cfg)
    header = [f"d ({_w_convention(cfg.D)})", "eps_d", "t0", "u0", "h_K(d)"]
    rows = []
    records = []
    for c in classes:
        rec = c.record
        eps_d = math.sqrt(c.norm)
        rows.append([str(rec.d), _fmt(eps_d), str(rec.pell.t0),
                     str(rec.pell.u0), str(rec.class_number)])
        records.append({"d": str(rec.d), "eps_d": eps_d,
                        "t0": str(rec.pell.t0), "u0": str(rec.pell.u0),
                        "h_K": rec.class_number})
    if cfg.out_format == "csv":
        _emit_csv(header, rows, cfg)
    else:
        _emit_json({"D": cfg.D, "w": _w_convention(cfg.D),
                    "rows": records}, cfg)
    return 0


def _cmd_forms(cfg: RunConfig, args) -> int:
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
    x = cfg.x_max
    classes = _classes(F, cfg, x)
    if cfg.out_format == "csv":
        header = [f"d ({_w_convention(cfg.D)})", "norm", "angle",
                  "multiplicity"]
        rows = [[str(c.d), _fmt(c.norm), _fmt(c.angle),
                 str(c.multiplicity)] for c in classes]
        _emit_csv(header, rows, cfg)
    else:
        _emit_json({"D": cfg.D, "x": x, "w": _w_convention(cfg.D),
                    "classes": [{"d": str(c.d), "norm": c.norm,
                                 "angle": c.angle,
                                 "multiplicity": c.multiplicity}
                                for c in classes]}, cfg)
    return 0


def _cmd_zeta(cfg: RunConfig, args) -> int:
    F = make_field(cfg.D)
    classes = _classes(F, cfg)
    cov = classes.coverage
    trunc = args.X if args.X is not None else (cfg.trunc_norm or cov)
    # requested cutoffs beyond the enumerated window are clamped; the
    # effective cutoff is reported and the tail bound starts there
    params = ZetaParams(s=_parse_complex(args.s), m=args.m,
                        trunc_norm=min(float(trunc), cov),
                        trunc_k=cfg.trunc_k if args.K is None else args.K)
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
    F = make_field(cfg.D)
    led = divisor_ledger(args.m, F, k_max=args.kmax)
    blob = led.to_json()
    blob["leading"] = {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in ruelle_leading(F).items()}
    _emit_json(blob, cfg)
    return 0


def _parse_testfunction(text: str):
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
    tf = _parse_testfunction(args.test)
    F = make_field(cfg.D)
    classes = _classes(F, cfg)
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
    betas = _parse_numbers(args.betas, "beta") if args.betas else cfg.beta_grid
    F = make_field(cfg.D)
    classes = _classes(F, cfg)
    report = heat_asymptotic_check(F, betas, classes)
    report["beta_grid"] = list(report["beta_grid"])
    report["removed_families"] = list(report["removed_families"])
    report["D"] = cfg.D
    _emit_json(report, cfg)
    return 0


def _cmd_report(cfg: RunConfig, args) -> int:
    F = make_field(cfg.D)
    if args.mode == "classavg":
        reports = [class_average_report(F, cfg.x_max, height=cfg.height)]
    else:
        grid = _parse_numbers(args.x_grid or "5,10,15,20", "x grid entry")
        reports = pgt_report(F, grid, height=cfg.height)
    if cfg.out_format == "csv":
        header = ["x", "psi_sum", "pi_sum", "psi_main", "pi_main",
                  "psi_ratio", "pi_ratio"]
        rows = [[_fmt(r.x), _fmt(r.psi_sum), str(r.pi_sum),
                 _fmt(r.residuals["psi_main"]), _fmt(r.residuals["pi_main"]),
                 _fmt(r.residuals["psi_ratio"]), _fmt(r.residuals["pi_ratio"])]
                for r in reports]
        _emit_csv(header, rows, cfg)
    else:
        _emit_json({"D": cfg.D, "mode": args.mode,
                    "rows": [{"x": r.x, "psi_sum": r.psi_sum,
                              "pi_sum": r.pi_sum, **r.residuals}
                             for r in reports]}, cfg)
    return 0


# ------------------------------------------------------------ check suite

def _check_exact_constants(cfg: RunConfig, window) -> str:
    expected = {5: Fraction(1, 30), 8: Fraction(1, 12), 12: Fraction(1, 6)}
    for D, want in expected.items():
        F = make_field(D)
        assert F.zeta_minus_one == want, (D, F.zeta_minus_one)
        assert F.euler_char == 4, (D, F.euler_char)
    return "zeta_K(-1) = 1/30, 1/12, 1/6; Euler characteristic 4"


def _check_census_orders(cfg: RunConfig, window) -> str:
    expected = {5: [2, 2, 3, 3, 5, 5], 8: [2, 2, 3, 3, 4, 4],
                12: [2, 2, 2, 3, 3, 6]}
    for D, want in expected.items():
        F = make_field(D)
        orders = sorted(nu for nu, t in F.census_classes())
        assert orders == want, (D, orders)
    return "stabilizer order multisets match for D = 5, 8, 12"


def _check_leading_terms(cfg: RunConfig, window) -> str:
    prefactors = {5: 900, 8: 576, 12: 432}
    for D, want in prefactors.items():
        info = ruelle_leading(make_field(D))
        assert info["n0"] == 6, (D, info)
        assert info["stabilizer_product"] == want, (D, info)
    return "central order 6; stabilizer products 900, 576, 432"


def _check_class_numbers(cfg: RunConfig, window) -> str:
    F = make_field(cfg.D)
    classes = _classes(F, cfg, min(cfg.x_max, 8.0))
    assert classes, "no classes enumerated"
    for c in classes:
        g = form_to_matrix(c.record.forms[0], c.record.pell)
        ec = classify(g)
        assert ec.kind == "hyperbolic-elliptic", ec
        assert abs(ec.norm - c.norm) <= 1e-9 * (1.0 + c.norm), (ec, c)
        assert len(c.record.forms) == c.record.class_number
    return f"{len(classes)} classes; form matrices classify with N = eps^2"


def _check_functional_identities(cfg: RunConfig, window) -> str:
    report = fe_identity_checks(make_field(cfg.D), seed=cfg.seed)
    worst = max(report["xi_max_err"], report["gnu_ratio_max_err"])
    assert worst <= 1e-8, report
    return f"reflection identities hold, max err {worst:.2e}"


def _check_zeta_consistency(cfg: RunConfig, window) -> str:
    classes = window()
    rng = random.Random(cfg.seed)
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
    assert worst <= 1e-6, worst
    rv = ruelle(2.5, classes)
    assert abs(rv.value - rv.direct) <= rv.tail_bound + 1e-11
    return f"log-derivative matches finite differences, rel err {worst:.2e}"


def _check_trace_closed_forms(cfg: RunConfig, window) -> str:
    F = make_field(cfg.D)
    classes = window()
    report = double_difference_closed_forms(4, 2.5, 2.5, 3.5, F, classes)
    worst = max(e["diff"] for e in report.values())
    assert worst <= 1e-7, report
    return f"integral and closed forms agree, max diff {worst:.2e}"


def _check_heat_fit(cfg: RunConfig, window) -> str:
    F = make_field(cfg.D)
    classes = window()
    report = heat_asymptotic_check(F, cfg.beta_grid, classes)
    return (f"a rel err {report['a_rel_err']:.2e}, "
            f"b rel err {report['b_rel_err']:.2e}")


def _check_count_trend(cfg: RunConfig, window) -> str:
    F = make_field(cfg.D)
    reports = pgt_report(F, [5.0, 10.0, 15.0, 20.0], height=cfg.height)
    last = reports[-1]
    psi = last.residuals["psi_ratio"]
    pi = last.residuals["pi_ratio"]
    assert 0.75 <= psi <= 1.25, psi
    assert 0.75 <= pi <= 1.25, pi
    return f"x=20 ratios: psi {psi:.3f}, pi {pi:.3f} within [0.75, 1.25]"


def _check_truncation_stability(cfg: RunConfig, window) -> str:
    F = make_field(cfg.D)
    classes = window()
    # both depths lie below selberg_zeta's machine-negligible cut, so
    # the doubling compares products that really differ
    p = ZetaParams(s=2.5, m=4, trunc_norm=classes.coverage, trunc_k=8)
    a = selberg_zeta(p, classes)
    b = selberg_zeta(dataclasses.replace(p, trunc_k=16), classes)
    assert abs(a.value - b.value) <= a.tail_bound, (a, b)
    again = enumerate_geodesics(F, 6.0, height=cfg.height)
    twice = enumerate_geodesics(F, 6.0, height=cfg.height)
    assert [(c.d.a, c.d.b, c.multiplicity) for c in again] == \
        [(c.d.a, c.d.b, c.multiplicity) for c in twice]
    return "depth doubling within tails; integer outputs reproducible"


_CHECKS = [
    ("exact constants", _check_exact_constants),
    ("elliptic census", _check_census_orders),
    ("leading terms", _check_leading_terms),
    ("class numbers", _check_class_numbers),
    ("reflection identities", _check_functional_identities),
    ("zeta consistency", _check_zeta_consistency),
    ("trace closed forms", _check_trace_closed_forms),
    ("heat asymptotics", _check_heat_fit),
    ("count trend", _check_count_trend),
    ("truncation stability", _check_truncation_stability),
]


def _cmd_check(cfg: RunConfig, args) -> int:
    # the x_max window, enumerated once on first use and shared by the
    # rows; a failed enumeration is retried, so each row reports it
    window = functools.cache(lambda: _classes(make_field(cfg.D), cfg))
    failures = 0
    lines = []
    for name, fn in _CHECKS:
        try:
            detail = fn(cfg, window)
            lines.append(f"PASS  {name:24s} {detail}")
        except (AssertionError, HilbertSelbergError) as exc:
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
    common.add_argument("--D", type=int, help="field discriminant")
    common.add_argument("--x", dest="x_max", type=float,
                        help="geodesic enumeration bound")
    common.add_argument("--height", type=float, help="search height cap")
    common.add_argument("--format", dest="out_format",
                        choices=("json", "csv"))
    common.add_argument("--out", dest="out_path", help="output file")
    common.add_argument("--cache-dir", dest="cache_dir")
    common.add_argument("--seed", type=int)

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
    p.add_argument("--X", type=float, default=None, help="norm truncation")
    p.add_argument("--K", type=int, default=None, help="k truncation")
    p = sub.add_parser("ledger", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kmax", type=int, default=20)
    p = sub.add_parser("trace", parents=[common])
    p.add_argument("mode", nargs="?", choices=("heatfit",))
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--test", default="gaussian:beta=0.05")
    p.add_argument("--single", action="store_true",
                   help="single difference instead of double")
    p.add_argument("--betas", default=None)
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
    cfg = (RunConfig.from_text(open(args.config).read())
           if args.config else RunConfig())
    for name in ("D", "x_max", "height", "out_format", "out_path",
                 "cache_dir", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
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
