"""Write bench/reference.json: the exact class lists of both windows and
the expected output of every pool member.

    PYTHONPATH=src python3 bench/make_reference.py

Run it from the repository root on a commit whose outputs are trusted;
it takes under a minute.  Each float field is stored with the error the
program reports for that field alone: the truncation tail bound of a
zeta value, the quadrature error or truncation tail of each family of a
geometric side, and for the closed forms and the heat fit the errors of
the values they are built from.  Fields the program computes in closed
form get 0, so only the gate's rounding floor covers them.  CLI outputs
without floats are compared byte for byte.
"""

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import workloads


def _has_float(value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(_has_float(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_float(v) for v in value)
    return False


def _side_tol(diag: dict) -> dict:
    """Per-family errors of a geometric side from its diagnostics; the
    parabolic term is closed form, the total carries every error."""
    tol = {"identity_term": diag["identity_quad_err"],
           "elliptic_term": diag["elliptic_quad_err"],
           "hyp_ell_term": diag["he_tail"],
           "hyp2_sct_term": diag["eps_tail"]}
    tol["total"] = sum(tol.values())
    return tol


class Tolerances:
    """Per-field tolerances of pool outputs, from the program's reports."""

    def __init__(self, F, classes, coverage):
        self.F, self.classes, self.coverage = F, classes, coverage

    def report(self, kind, args):
        return workloads.evaluate(kind, args, self.F, self.classes,
                                  self.coverage)[1]

    def heat(self, grid, cond: float) -> dict:
        """The fit is a least-squares solve of the identity + parabolic
        data; its coefficients move by at most ||A^+|| * sum of the data
        errors, and ||A^+|| <= cond(A) since A's largest singular value
        exceeds 1.  The removed families carry their own errors."""
        sides = [_side_tol(self.report("gaussian", (False, 2, b)))
                 for b in grid]
        fit = cond * sum(t["identity_term"] for t in sides)
        return {"a_fit": fit, "b_fit": fit, "c_fit": fit, "d_fit": fit,
                "removed": [t["elliptic_term"] + t["hyp_ell_term"]
                            + t["hyp2_sct_term"] for t in sides]}

    def of(self, kind, args, report):
        if kind == "zeta":
            return {"log_value": report}
        if kind in ("log_deriv", "ruelle"):
            return report
        if kind in ("gaussian", "rational"):
            return _side_tol(report)
        if kind == "closed_forms":
            # the geometric values carry the geometric side's errors; the
            # closed hyperbolic-elliptic value is built from log-derivative
            # values whose tails add up with the closed forms' weights
            from hilbert_selberg import traceform
            m, s, b1, b2 = args
            geo = _side_tol(self.report("rational", (False,) + args))
            meta = traceform.rational_testfunction(s, b1, b2).metadata
            tails = sum(
                abs(w) * self.report("log_deriv", (m, complex(pt)))
                for pt, w in ((s, 1.0 / (2.0 * s - 1.0)),
                              (0.5 + b1, meta["c1"] / (2.0 * b1)),
                              (0.5 + b2, meta["c2"] / (2.0 * b2))))
            return {"identity.geometric": geo["identity_term"],
                    "elliptic.geometric": geo["elliptic_term"],
                    "hyp_ell.geometric": geo["hyp_ell_term"],
                    "hyp_ell.closed": tails,
                    "par_plus_eps.geometric": geo["hyp2_sct_term"]}
        if kind == "heat":
            return self.heat(args[0], report)
        raise ValueError(kind)

    def of_cli(self, argv, parsed):
        if argv[0] == "zeta":
            tail = parsed["tail_bound"]
            value = abs(complex(*parsed["value"]))
            return {"log_value": tail, "value": value * math.expm1(tail)}
        if argv[:2] == ["trace", "heatfit"]:
            grid = [float(b) for b in
                    argv[argv.index("--betas") + 1].split(",")]
            tol = self.heat(grid, parsed["condition_number"])
            tol["removed_families"] = tol.pop("removed")
            for c in "ab":
                tol[f"{c}_rel_err"] = (tol[f"{c}_fit"]
                                       / abs(parsed[f"{c}_target"]))
            return tol
        if argv[0] == "trace":
            return _side_tol(parsed["diagnostics"])
        return 0.0


def main() -> int:
    from hilbert_selberg import cli, geodesics, quadfield

    ref = {"enumerate": None, "window": None, "analytic": {}, "cli": {}}
    F = quadfield.make_field(workloads.ENUM_D)
    ref["enumerate"] = workloads.enumerate_rows(
        geodesics.enumerate_geodesics(F, workloads.ENUM_X))

    F = quadfield.make_field(workloads.WINDOW_D)
    classes = geodesics.enumerate_geodesics(F, workloads.WINDOW_X)
    ref["window"] = workloads.enumerate_rows(classes)
    coverage = max(c.norm for c in classes)
    tolerances = Tolerances(F, classes, coverage)
    for kind, pool in workloads.ANALYTIC_POOLS.items():
        for args in pool:
            out, report = workloads.evaluate(kind, args, F, classes,
                                             coverage)
            ref["analytic"][workloads.op_key(kind, args)] = {
                "value": workloads.plain(out),
                "tol": tolerances.of(kind, args, report)}

    cache = str(Path(__file__).resolve().parent.parent / ".bench_work"
                / "reference-cache")
    shutil.rmtree(cache, ignore_errors=True)
    try:
        for argv in workloads.cli_pool():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv + ["--cache-dir", cache])
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {rc}")
            text = buf.getvalue()
            parsed = workloads.parse_output(text)
            exact = not _has_float(parsed)
            ref["cli"][" ".join(argv)] = {
                "stdout": text, "exact": exact,
                "tol": 0.0 if exact else tolerances.of_cli(argv, parsed)}
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    with workloads.REFERENCE.open("w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
