"""End-to-end acceptance battery.

Ten independent checks, one per headline capability.  Each test prints
a single PASS/FAIL line with the measured quantities so a log scan
shows the whole verdict table.  Tolerances are the contract: exact
rational equality for arithmetic constants, stated relative errors for
analytic quantities, loose trend bands for the counting asymptotics.
"""

import dataclasses
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.modgroup import (classify, elliptic_census,
                                      enumerate_elliptic)
from hilbert_selberg.pellforms import (class_number, form_to_matrix,
                                       in_Dpm)
from hilbert_selberg.quadfield import (QuadInt, bernoulli_L_minus_one,
                                       canonical_disc, lattice_points,
                                       make_field, zeta_minus_one)
from hilbert_selberg.records import count_reports
from hilbert_selberg.specfun import digamma
from hilbert_selberg.traceform import (gaussian_testfunction,
                                       geom_side_double_difference,
                                       heat_asymptotic_check,
                                       double_difference_closed_forms)
from hilbert_selberg.zetafun import (ZetaParams, ruelle, ruelle_leading,
                                     selberg_log_deriv, selberg_zeta)
from oracles import unit_series_ref

DISCRIMINANTS = (5, 8, 12)

EXPECTED_ZETA = {5: Fraction(1, 30), 8: Fraction(1, 12), 12: Fraction(1, 6)}
EXPECTED_ORDERS = {5: [2, 2, 3, 3, 5, 5], 8: [2, 2, 3, 3, 4, 4],
                   12: [2, 2, 2, 3, 3, 6]}
EXPECTED_PREFACTOR = {5: 900, 8: 576, 12: 432}

# class numbers over Q(sqrt(5)) for every canonical mixed-sign
# discriminant with eps_K(d) <= 15, frozen after the dual-route sweep
SWEEP_D5 = {
    (-7, 5): 2, (-10, 7): 2, (-4, 4): 2, (-19, 13): 4, (-44, 28): 4,
    (-11, 8): 2, (-42, 27): 4, (-51, 33): 4, (-91, 57): 4, (-62, 39): 4,
    (-128, 80): 4, (-126, 79): 8, (-56, 36): 4, (-95, 60): 4,
    (-135, 85): 4, (-282, 175): 4, (-31, 20): 2, (-96, 60): 4,
    (-311, 193): 8, (-348, 216): 8, (-207, 129): 8, (-199, 124): 4,
}


def _verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def d5():
    F = make_field(5)
    return F, enumerate_geodesics(F, 10.0)


# 1 ------------------------------------------------------------------

def test_exact_volume_constants():
    t0 = time.time()
    ok = True
    got = {}
    for D in DISCRIMINANTS:
        F = make_field(D)
        siegel = zeta_minus_one(D)
        bernoulli = Fraction(-1, 12) * bernoulli_L_minus_one(D)
        got[D] = siegel
        ok &= siegel == bernoulli == EXPECTED_ZETA[D]
        ok &= F.zeta_minus_one == siegel
        ok &= F.euler_char == 4
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _verdict(ok, "exact constants",
             f"zeta_K(-1) = {got[5]}, {got[8]}, {got[12]} by both routes; "
             f"euler characteristic 4; {elapsed:.3f}s")


# 2 ------------------------------------------------------------------

def test_elliptic_census_orders():
    t0 = time.time()
    ok = True
    seen = {}
    for D in DISCRIMINANTS:
        census = elliptic_census(make_field(D))
        orders = sorted(nu for nu, t, count in census for _ in range(count))
        seen[D] = orders
        ok &= orders == EXPECTED_ORDERS[D]
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _verdict(ok, "elliptic census",
             f"order multisets {seen[5]}, {seen[8]}, {seen[12]}; "
             f"{elapsed:.1f}s")


# 3 ------------------------------------------------------------------

def test_leading_term_closed_form():
    ok = True
    details = []
    for D in DISCRIMINANTS:
        F = make_field(D)
        info = ruelle_leading(F)
        ok &= info["n0"] == 6
        ok &= info["euler_char"] == 4
        ok &= info["stabilizer_product"] == EXPECTED_PREFACTOR[D]
        with mp.workdps(30):
            w = (1 + mp.sqrt(D)) / 2 if D % 4 == 1 else mp.sqrt(D) / 2
            eps = F.eps.a + F.eps.b * w
            closed = ((2 * mp.pi) ** 4 / EXPECTED_PREFACTOR[D]
                      * (2 * eps * mp.log(eps)) ** 2 / (eps ** 2 - 1) ** 2)
            rel = abs(info["abs_leading"] - float(closed)) / float(closed)
        ok &= rel < 1e-12
        details.append(f"D={D}: prefactor {info['stabilizer_product']}, "
                       f"rel {rel:.1e}")
    _verdict(ok, "leading term", "order 6 at s=0; " + "; ".join(details))


# 4 ------------------------------------------------------------------

def test_class_number_cross_check():
    t0 = time.time()
    F = make_field(5)
    four = QuadInt(5, 4, 0)
    seen = {}
    for t in lattice_points(5, 15.0 + 1.0 / 15.0, 2.0):
        if t.embed(1) <= 2.0 or abs(t.embed(2)) >= 2.0:
            continue
        d = t * t - four
        if not in_Dpm(d):
            continue
        dc = canonical_disc(d, F)
        seen.setdefault((dc.a, dc.b), dc)
    ok = set(seen) == set(SWEEP_D5)
    worst = 0.0
    got = {}
    for key, dc in sorted(seen.items()):
        rec = class_number(dc, F)  # raises if the two routes disagree
        got[key] = rec.class_number
        eps_d = 0.5 * (rec.pell.t0.embed(1)
                       + rec.pell.u0.embed(1) * math.sqrt(dc.embed(1)))
        for Q in rec.forms:
            ec = classify(form_to_matrix(Q, rec.pell))
            ok &= ec.kind == "hyperbolic-elliptic"
            err = abs(ec.norm - eps_d ** 2) / eps_d ** 2
            worst = max(worst, err)
    ok &= got == SWEEP_D5
    ok &= worst <= 1e-9
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _verdict(ok, "class numbers",
             f"{len(got)} discriminants, both routes agree, "
             f"stabilizer norm err {worst:.1e}; {elapsed:.1f}s")


# 5 ------------------------------------------------------------------

def test_digamma_multiplication_identity():
    # Gauss: psi(nu z) = log nu + (1/nu) sum_l psi(z + l/nu)
    rng = random.Random(51234)
    mult_err = 0.0
    for nu in (2, 3, 5, 6):
        for _ in range(5):
            z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
            lhs = digamma(nu * z)
            rhs = math.log(nu) + sum(
                digamma(z + l / nu) for l in range(nu)) / nu
            mult_err = max(mult_err, abs(lhs - rhs))
    _verdict(mult_err <= 1e-10, "digamma multiplication",
             f"psi(nu z) against the mean over z + l/nu for nu = 2, 3, 5, 6: "
             f"max err {mult_err:.1e}")


# 6 ------------------------------------------------------------------

def test_zeta_log_derivative_consistency(d5):
    F, classes = d5
    coverage = classes.coverage
    rng = random.Random(61234)
    worst = 0.0
    for _ in range(10):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-2.0, 2.0))
        m = rng.choice((2, 4, 6))
        h = 1e-4
        p = ZetaParams(s=s, m=m, trunc_norm=coverage, trunc_k=60)
        exact = selberg_log_deriv(p, classes).value
        li = selberg_zeta(dataclasses.replace(p, s=s - h), classes)
        hi = selberg_zeta(dataclasses.replace(p, s=s + h), classes)
        fd = (hi.log_value - li.log_value) / (2.0 * h)
        worst = max(worst, abs(fd - exact) / abs(exact))
    ok = worst <= 1e-6

    ruelle_ok = True
    for s in (1.8, 2.5):
        rv = ruelle(s, classes)
        ruelle_ok &= abs(rv.value - rv.direct) <= rv.tail_bound + 1e-11
    ok &= ruelle_ok

    real_ok = True
    for s in (2.0, 3.0):
        v = selberg_zeta(ZetaParams(s=s, m=2, trunc_norm=coverage,
                                    trunc_k=40), classes).value
        real_ok &= v.imag == 0.0
    ok &= real_ok

    _verdict(ok, "zeta consistency",
             f"log-derivative rel err {worst:.1e} over 10 points, "
             f"ratio form within tails: {ruelle_ok}, "
             f"weight-2 real axis real: {real_ok}")


# 7 ------------------------------------------------------------------

def test_geometric_side_closed_forms(d5):
    t0 = time.time()
    F, classes = d5
    rng = random.Random(71234)
    worst = 0.0
    count = 0
    for i in range(5):
        s = rng.uniform(1.8, 3.2)
        if i % 2 == 1:
            s = complex(s, rng.uniform(-0.6, 0.6))
        beta1 = rng.uniform(2.0, 4.0)
        beta2 = rng.uniform(2.0, 4.0)
        while abs(beta2 - beta1) < 0.3:
            beta2 = rng.uniform(2.0, 4.0)
        for m in (4, 6):
            report = double_difference_closed_forms(m, s, beta1, beta2,
                                                    F, classes)
            for family, entry in report.items():
                scale = max(1.0, abs(entry["geometric"]))
                worst = max(worst, entry["diff"] / scale)
                count += 1
    ok = worst <= 1e-7
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _verdict(ok, "trace formula closed forms",
             f"{count} family comparisons over 5 draws x m in (4, 6), "
             f"worst rel diff {worst:.1e}; {elapsed:.1f}s")


# 8 ------------------------------------------------------------------

def test_heat_coefficient_fit(d5):
    t0 = time.time()
    F, classes = d5
    report = heat_asymptotic_check(F, (0.2, 0.1, 0.05, 0.025), classes)
    ok = report["a_rel_err"] <= 0.02 and report["b_rel_err"] <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _verdict(ok, "heat coefficient fit",
             f"a = {report['a_fit']:.6f} vs {report['a_target']:.6f} "
             f"(rel {report['a_rel_err']:.1e}), "
             f"b = {report['b_fit']:.6f} vs {report['b_target']:.6f} "
             f"(rel {report['b_rel_err']:.1e}); {elapsed:.1f}s")


# 9 ------------------------------------------------------------------

def test_count_ratio_trend():
    t0 = time.time()
    F = make_field(5)
    reports = count_reports([5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
                            lambda x: enumerate_geodesics(F, x),
                            geodesic_scale=True)
    pi_ratios = [r.residuals["pi_ratio"] for r in reports]
    psi_ratios = [r.residuals["psi_ratio"] for r in reports]

    band_ok = 0.75 <= pi_ratios[-1] <= 1.25 and \
        0.75 <= psi_ratios[-1] <= 1.25
    pi_dev = [abs(r - 1.0) for r in pi_ratios[-3:]]
    psi_dev = [abs(r - 1.0) for r in psi_ratios[-3:]]
    pi_trend = all(a >= b - 1e-12 for a, b in zip(pi_dev, pi_dev[1:]))
    psi_trend = all(a >= b - 1e-12 for a, b in zip(psi_dev, psi_dev[1:]))
    ok = band_ok and pi_trend and psi_trend
    elapsed = time.time() - t0
    ok &= elapsed < 1800.0
    _verdict(ok, "count ratio trend",
             f"pi ratios {[round(r, 4) for r in pi_ratios]}, "
             f"psi ratios {[round(r, 4) for r in psi_ratios]}, "
             f"band at x=30: {band_ok}, |dev| nonincreasing over last "
             f"three: pi {pi_trend} {[round(d, 4) for d in pi_dev]}, "
             f"psi {psi_trend} {[round(d, 4) for d in psi_dev]}; "
             f"{elapsed:.0f}s")


# 10 -----------------------------------------------------------------

def test_bound_doubling_stability(d5):
    F, classes = d5
    ok = True

    for D in DISCRIMINANTS:
        FD = make_field(D)
        deep = enumerate_elliptic(FD, 16.0)
        ok &= FD.census_classes() == tuple((c.nu, c.t) for c in deep)

    keys = [(-7, 5), (-19, 13), (-126, 79)]
    for a, b in keys:
        d = QuadInt(5, a, b)
        h1 = class_number(d, F, height=8.0).class_number
        h2 = class_number(d, F, height=16.0).class_number
        ok &= h1 == h2 == SWEEP_D5[(a, b)]

    base = enumerate_geodesics(F, 8.0, height=8.0)
    deep = enumerate_geodesics(F, 8.0, height=16.0)
    ok &= [(c.d.a, c.d.b, c.multiplicity) for c in base] == \
        [(c.d.a, c.d.b, c.multiplicity) for c in deep]

    coverage = classes.coverage
    p = ZetaParams(s=2.2 + 0.7j, m=4, trunc_norm=coverage, trunc_k=40)
    za = selberg_zeta(p, classes)
    zb = selberg_zeta(dataclasses.replace(p, trunc_k=80), classes)
    zeta_ok = abs(za.value - zb.value) <= za.tail_bound
    ok &= zeta_ok

    tf = gaussian_testfunction(0.1)
    bd_a = geom_side_double_difference(4, tf, F, classes)
    ref = unit_series_ref(4, tf, F, False, 4 * bd_a.diagnostics["eps_terms"])
    trace_ok = abs(bd_a.hyp2_sct_term - ref) <= \
        bd_a.diagnostics["eps_tail"] + 1e-30
    ok &= trace_ok

    _verdict(ok, "bound doubling stability",
             f"census and class numbers unchanged, geodesic window "
             f"unchanged ({len(base)} classes), zeta shift within tail: "
             f"{zeta_ok}, unit series shift within tail: {trace_ok}")
