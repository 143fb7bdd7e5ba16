"""Geometric sides of the difference and double-difference trace formulas.

Two test-function families are supported: heat Gaussians and the
three-pole rational pair built from (s, beta1, beta2).  The evaluators
return a per-family breakdown whose total is the plain ordered sum of
the parts.  HE sums run over a GeodesicWindow's classes and their prime
powers to the depth where the transform is machine-negligible, and the
window's coverage places the HE tail estimate; the unit-factor series
and elliptic integrals carry explicit cutoffs.
Closed-form twins (digamma sums, log-derivative values, geometric unit
series) are provided for cross-checking the quadrature route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import integrate
from .errors import InvariantViolation, ValidationError
from .geodesics import GeodesicWindow
from .quadfield import FieldCtx
from .specfun import digamma
from .zetafun import ZetaParams, alpha_table, selberg_log_deriv


def _sgn(x: float) -> float:
    return 1.0 if x > 0 else -1.0


# ------------------------------------------------------------ test functions

@dataclass(frozen=True)
class TestFunctionPair:
    """Even transform pair (h1, g1) with decay metadata.

    g1 is the Fourier transform of h1 normalized so that
    h1(r) = integral of g1(u) e^{iru} du.  Both are numpy expressions
    that take a scalar or an array and return a value of the same
    shape.  metadata carries the decay certificates the evaluators
    use to place cutoffs: u_cut is the point beyond which g1 is
    machine-negligible.
    """

    kind: str
    h1: Callable[[complex], complex]
    g1: Callable[[float], complex]
    metadata: Dict[str, object] = field(default_factory=dict)


def gaussian_testfunction(beta: float) -> TestFunctionPair:
    """Heat pair h1 = e^{-beta r^2}, g1 = e^{-u^2/(4 beta)}/sqrt(4 pi beta)."""
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValidationError(f"gaussian width beta={beta} must be positive")
    norm = 1.0 / math.sqrt(4.0 * math.pi * beta)

    def h1(r):
        r = np.asarray(r, dtype=complex)
        return np.exp(-beta * r * r)

    def g1(u):
        u = np.asarray(u, dtype=float)
        return norm * np.exp(-u * u / (4.0 * beta))

    u_cut = math.sqrt(4.0 * beta * 46.0) + 6.0
    return TestFunctionPair(kind="gaussian", h1=h1, g1=g1,
                            metadata={"beta": beta, "u_cut": u_cut})


def rational_testfunction(s: complex, beta1: float,
                          beta2: float) -> TestFunctionPair:
    """Three-pole pair from (s, beta1, beta2) with c1 + c2 = -1.

    h1(r) = 1/(r^2+(s-1/2)^2) + c1/(r^2+beta1^2) + c2/(r^2+beta2^2);
    the residues cancel the leading 1/r^2 so h1 = O(r^{-6}).
    """
    s = complex(s)
    beta1, beta2 = float(beta1), float(beta2)
    if beta1 < 2.0 or beta2 < 2.0:
        raise ValidationError(
            f"beta1={beta1}, beta2={beta2} must both be >= 2")
    if beta1 == beta2:
        raise ValidationError(
            "beta1 = beta2 makes the partial fractions degenerate")
    if s.real <= 1.0:
        raise ValidationError(f"rational pair needs Re(s) > 1, got {s}")
    a = s - 0.5
    c1 = (a * a - beta2 * beta2) / (beta2 * beta2 - beta1 * beta1)
    c2 = -1.0 - c1

    def h1(r):
        r2 = np.asarray(r, dtype=complex) ** 2
        return (1.0 / (r2 + a * a)
                + c1 / (r2 + beta1 * beta1)
                + c2 / (r2 + beta2 * beta2))

    def g1(u):
        x = np.abs(np.asarray(u, dtype=float))
        return (np.exp(-a * x) / (2.0 * s - 1.0)
                + c1 * np.exp(-beta1 * x) / (2.0 * beta1)
                + c2 * np.exp(-beta2 * x) / (2.0 * beta2))

    kappa = min(s.real - 0.5, beta1, beta2)
    return TestFunctionPair(
        kind="rational", h1=h1, g1=g1,
        metadata={"s": s, "beta1": beta1, "beta2": beta2,
                  "c1": c1, "c2": c2, "kappa": kappa,
                  "u_cut": 48.0 / kappa})


# ------------------------------------------------------------ breakdown type

@dataclass(frozen=True)
class GeomSideBreakdown:
    """Per-family values; total is their sum in the listed order."""

    identity_term: complex
    elliptic_term: complex
    hyp_ell_term: complex
    par_sct_term: complex
    hyp2_sct_term: complex
    total: complex
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        def c(z: complex) -> list:
            return [z.real, z.imag]

        return {
            "identity_term": c(self.identity_term),
            "elliptic_term": c(self.elliptic_term),
            "hyp_ell_term": c(self.hyp_ell_term),
            "par_sct_term": c(self.par_sct_term),
            "hyp2_sct_term": c(self.hyp2_sct_term),
            "total": c(self.total),
            "diagnostics": {k: (c(v) if isinstance(v, complex) else v)
                            for k, v in self.diagnostics.items()},
        }


def _ordered_total(idn: complex, ell: complex, he: complex,
                   par: complex, eps: complex) -> complex:
    return (((idn + ell) + he) + par) + eps


# ------------------------------------------------------------ quadrature

def _identity_integral(tf: TestFunctionPair) -> Tuple[complex, float]:
    """integral over R of r h1(r) tanh(pi r) dr (even integrand)."""

    def f(r: np.ndarray) -> np.ndarray:
        return r * tf.h1(r) * np.tanh(np.pi * r)

    val, err = integrate.quad(f, 0.0, np.inf,
                              epsabs=1e-13, epsrel=1e-11, limit=300)
    return 2.0 * complex(val), 2.0 * float(err)


def _elliptic_integrals(tf: TestFunctionPair, theta1: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """integral of g1(u) e^{-u/2} (e^u - e^{2i theta1})/(cosh u - cos 2 theta1)
    for every angle theta1 at once, with a per-angle error estimate.

    The kernel is evaluated with numerator and denominator scaled by
    e^{-|u|}, so no exponential overflows however far u_cut reaches.
    """
    u_cut = float(tf.metadata["u_cut"])
    if tf.kind == "rational":
        # net decay of the integrand is kappa - 1/2 on the u > 0 side
        net = float(tf.metadata["kappa"]) - 0.5
        if net <= 0.01:
            raise ValidationError(
                "rational pair decays too slowly for the elliptic "
                f"integral (kappa={tf.metadata['kappa']})")
        u_cut = min(48.0 / net, 3000.0)
    rot = np.exp(2.0j * theta1)[:, None]
    cos2 = np.cos(2.0 * theta1)[:, None]

    def f(u: np.ndarray) -> np.ndarray:
        e = np.exp(-np.abs(u))
        num = np.exp(0.5 * u - np.abs(u)) - rot * np.exp(-0.5 * u - np.abs(u))
        return tf.g1(u) * num / (0.5 * (1.0 + e * e) - cos2 * e)

    return integrate.quad(f, -u_cut, u_cut,
                          epsabs=1e-13, epsrel=1e-11, limit=300)


# ------------------------------------------------------------ shared pieces

def _check_gaussian_window(tf: TestFunctionPair, cov: float) -> None:
    if tf.kind != "gaussian":
        return
    beta = float(tf.metadata["beta"])
    floor = 1e-10 * math.sqrt(4.0 * math.pi * beta)
    if floor >= 1.0:
        return
    u_req = math.sqrt(4.0 * beta * math.log(1.0 / floor))
    needed = math.exp(u_req)
    if cov < needed:
        raise ValidationError(
            f"class list covers norms <= {cov:.6g} but the Gaussian tail "
            f"at beta={beta} needs norms up to {needed:.6g}; enumerate "
            f"geodesics to x >= {math.sqrt(needed):.4g}")


def _he_tail(classes: GeodesicWindow, tf: TestFunctionPair) -> float:
    """Count-model bound on classes beyond the window's coverage."""
    cov = classes.coverage
    if cov <= 3.0:
        return math.inf
    u_top = math.log(cov) + float(tf.metadata["u_cut"]) + 5.0

    def f(u: np.ndarray) -> np.ndarray:
        return np.exp(u / 2.0) * np.abs(tf.g1(u))

    val, _ = integrate.quad(f, math.log(cov), u_top,
                            epsabs=1e-14, epsrel=1e-9, limit=200)
    return 1.6 * classes.count_constant * float(val)


def _hyp_ell_sum(m: int, tf: TestFunctionPair, classes: GeodesicWindow,
                 single: bool) -> complex:
    """HE class/power sum; classes pair with inverses, so phases fold
    to cosines (double difference) or Chebyshev ratios (difference)."""
    u_cut = float(tf.metadata["u_cut"])
    n = classes.count_upto(classes.coverage)
    if n == 0:
        return 0.0 + 0.0j
    # (class, power) pairs with ell * log N <= u_cut, in class order and
    # then power order
    powers = np.arange(1, math.floor(u_cut / classes.log_norms[0]) + 2)
    row, col = np.nonzero(powers * classes.log_norms[:n, None] <= u_cut)
    ell = powers[col]
    norm, log_n = classes.norms[row], classes.log_norms[row]
    w = log_n / (norm ** (ell / 2.0) - norm ** (-ell / 2.0))
    lam = ell * classes.angles[row]
    if single:
        sl = np.sin(lam)
        bad = np.flatnonzero(np.abs(sl) < 1e-9)
        if bad.size:
            d = classes[row[bad[0]]].d
            raise InvariantViolation(
                f"degenerate power angle at d=({d.a},{d.b}), "
                f"l={ell[bad[0]]}")
        osc = -np.sin((m - 1) * lam) / sl
    else:
        osc = -2.0 * np.cos((m - 2) * lam)
    return complex(np.dot(classes.halves[row] * w * osc, tf.g1(ell * log_n)))


def _eps_series(m: int, tf: TestFunctionPair, F: FieldCtx, single: bool,
                eps_terms: Optional[int]) -> Tuple[complex, float, int]:
    """Unit series with geometric tail bound; returns (value, tail, k_cut)."""
    log_eps = F.regulator
    e1 = _sgn(m - 1)
    e3 = _sgn(m - 3)
    p1 = abs(m - 1)
    p3 = abs(m - 3)
    acc = 0.0 + 0.0j
    k = 1
    last = math.inf
    while True:
        g = complex(tf.g1(2.0 * k * log_eps))
        if single:
            term = -2.0 * e1 * log_eps * g * F.eps1 ** (-k * p1)
        else:
            term = -2.0 * log_eps * g * (e1 * F.eps1 ** (-k * p1)
                                         - e3 * F.eps1 ** (-k * p3))
        acc += term
        last = abs(term)
        done = (eps_terms is not None and k >= eps_terms) or \
            (eps_terms is None and (last < 1e-18 * (1.0 + abs(acc))
                                    or k >= 100000))
        if done:
            break
        k += 1
    tail = last / (1.0 - 1.0 / F.eps1)
    return acc, tail, k


def _elliptic_sum(m: int, tf: TestFunctionPair, F: FieldCtx,
                  single: bool) -> Tuple[complex, float]:
    """Finite-order class sum over each primitive class's power set."""
    classes = F.census_classes()
    keys = sorted({(nu, ell) for nu, _ in classes for ell in range(1, nu)})
    ints, errs = _elliptic_integrals(
        tf, np.array([ell * math.pi / nu for nu, ell in keys]))
    quad = {k: (complex(v), float(e)) for k, v, e in zip(keys, ints, errs)}
    acc = 0.0 + 0.0j
    err = 0.0
    for nu, t in classes:
        for ell in range(1, nu):
            th1 = ell * math.pi / nu
            th2 = ((ell * t) % nu) * math.pi / nu
            integral, quad_err = quad[nu, ell]
            if single:
                coef = (-cmath.exp(-1j * th1 + 1j * (m - 1) * th2)
                        / (8.0 * nu * math.sin(th1) * math.sin(th2)))
            else:
                coef = (-1j * cmath.exp(-1j * th1)
                        * cmath.exp(1j * (m - 2) * th2)
                        / (4.0 * nu * math.sin(th1)))
            acc += coef * integral
            err += abs(coef) * quad_err
    return acc, err


# ------------------------------------------------------------ evaluators

def _geom_side(m: int, tf: TestFunctionPair, F: FieldCtx,
               classes: GeodesicWindow, eps_terms: Optional[int],
               single: bool) -> GeomSideBreakdown:
    """Both evaluators: the difference (single) scales the identity and
    HE tail by (m - 1)/2, the double difference by 1."""
    if m % 2:
        raise ValidationError(f"weight m={m} must be even")
    _check_gaussian_window(tf, classes.coverage)
    scale = (m - 1) * 0.5 if single else 1.0

    id_int, id_err = _identity_integral(tf)
    identity = scale * float(F.zeta_minus_one) * id_int
    elliptic, ell_err = _elliptic_sum(m, tf, F, single)
    hyp_ell = _hyp_ell_sum(m, tf, classes, single)
    g0 = complex(tf.g1(0.0))
    par = (-_sgn(m - 1) * F.regulator * g0 if single else
           -F.regulator * g0 * (_sgn(m - 1) - _sgn(m - 3)))
    eps_val, eps_tail, k_cut = _eps_series(m, tf, F, single, eps_terms)

    diag: Dict[str, object] = {
        "coverage": classes.coverage,
        "he_tail": abs(scale) * _he_tail(classes, tf),
        "eps_tail": eps_tail,
        "eps_terms": k_cut,
        "identity_quad_err": id_err,
        "elliptic_quad_err": ell_err,
    }
    if m == 2 and not single:
        diag["spectral_constant"] = -2.0 * complex(tf.h1(0.5j))
    total = _ordered_total(identity, elliptic, hyp_ell, par, eps_val)
    return GeomSideBreakdown(identity_term=identity, elliptic_term=elliptic,
                             hyp_ell_term=hyp_ell, par_sct_term=par,
                             hyp2_sct_term=eps_val, total=total,
                             diagnostics=diag)


def geom_side_double_difference(m: int, tf: TestFunctionPair, F: FieldCtx,
                                classes: GeodesicWindow,
                                eps_terms: Optional[int] = None
                                ) -> GeomSideBreakdown:
    """Geometric side of the double-difference formula at even weight m."""
    return _geom_side(m, tf, F, classes, eps_terms, single=False)


def geom_side_difference(m: int, tf: TestFunctionPair, F: FieldCtx,
                         classes: GeodesicWindow,
                         eps_terms: Optional[int] = None
                         ) -> GeomSideBreakdown:
    """Geometric side of the difference formula, divided through by the
    second-slot weight; defined for every even m, including m <= 0."""
    return _geom_side(m, tf, F, classes, eps_terms, single=True)


# ------------------------------------------------------------ closed forms

def _unit_q(x: float, F: FieldCtx) -> float:
    e = F.eps1 ** (-x)
    return e / (1.0 - e)


def double_difference_closed_forms(m: int, s: complex, beta1: float,
                                   beta2: float, F: FieldCtx,
                                   classes: GeodesicWindow
                                   ) -> Dict[str, Dict[str, complex]]:
    """Family-by-family comparison of the quadrature evaluator against
    the digamma / log-derivative / unit-series closed forms.

    Keys: identity, elliptic, hyp_ell, par_plus_eps; each holds the
    geometric value, the closed value, and their absolute difference.
    """
    if m < 2 or m % 2:
        raise ValidationError(f"closed forms need even m >= 2, got {m}")
    tf = rational_testfunction(s, beta1, beta2)
    geom = geom_side_double_difference(m, tf, F, classes)
    s = complex(s)
    c1 = complex(tf.metadata["c1"])
    c2 = complex(tf.metadata["c2"])
    # first entry is the s point, the rest sit at 1/2 + beta_h
    weights = [(s, 1.0 / (2.0 * s - 1.0), None),
               (0.5 + beta1 + 0.0j, c1 / (2.0 * beta1), beta1),
               (0.5 + beta2 + 0.0j, c2 / (2.0 * beta2), beta2)]
    zeta_m1 = float(F.zeta_minus_one)
    log_eps = F.regulator

    id_closed = -2.0 * zeta_m1 * (digamma(s)
                                  + c1 * digamma(beta1 + 0.5)
                                  + c2 * digamma(beta2 + 0.5))

    tab = alpha_table(m, F)
    ell_closed = 0.0 + 0.0j
    for pt, w, _ in weights:
        inner = 0.0 + 0.0j
        for e in tab.entries:
            for l in range(e.nu):
                coef = (e.nu - 1 - e.alpha[l] - e.alpha_bar[l]) / (e.nu ** 2)
                if coef:
                    inner += coef * digamma((pt + l) / e.nu)
        ell_closed += w * inner

    he_closed = 0.0 + 0.0j
    for pt, w, _ in weights:
        p = ZetaParams(s=pt, m=m, trunc_norm=classes.coverage, trunc_k=40)
        he_closed += w * selberg_log_deriv(p, classes).value

    unit_closed = 0.0 + 0.0j
    for pt, w, b in weights:
        if m >= 4:
            if b is None:
                val = 2.0 * log_eps * (_unit_q_c(2.0 * s + m - 4, F)
                                       - _unit_q_c(2.0 * s + m - 2, F))
            else:
                val = 2.0 * log_eps * (_unit_q(2.0 * b + m - 3, F)
                                       - _unit_q(2.0 * b + m - 1, F))
        else:
            if b is None:
                val = -2.0 * log_eps - 4.0 * log_eps * _unit_q_c(2.0 * s, F)
            else:
                val = -2.0 * log_eps - 4.0 * log_eps * _unit_q(2.0 * b + 1.0, F)
        unit_closed += w * val

    geom_unit = geom.par_sct_term + geom.hyp2_sct_term
    out = {
        "identity": {"geometric": geom.identity_term, "closed": id_closed,
                     "diff": abs(geom.identity_term - id_closed)},
        "elliptic": {"geometric": geom.elliptic_term, "closed": ell_closed,
                     "diff": abs(geom.elliptic_term - ell_closed)},
        "hyp_ell": {"geometric": geom.hyp_ell_term, "closed": he_closed,
                    "diff": abs(geom.hyp_ell_term - he_closed)},
        "par_plus_eps": {"geometric": geom_unit, "closed": unit_closed,
                         "diff": abs(geom_unit - unit_closed)},
    }
    return out


def _unit_q_c(x: complex, F: FieldCtx) -> complex:
    e = cmath.exp(-complex(x) * F.regulator)
    return e / (1.0 - e)


# ------------------------------------------------------------ heat fit

def elliptic_zero_width_limit(F: FieldCtx) -> float:
    """Limit of the weight-2 elliptic family as the Gaussian width
    goes to zero: the kernel integral collapses to 1 - i cot(theta1)."""
    acc = 0.0 + 0.0j
    for nu, t in F.census_classes():
        for ell in range(1, nu):
            th1 = ell * math.pi / nu
            coef = -1j * cmath.exp(-1j * th1) / (4.0 * nu * math.sin(th1))
            acc += coef * (1.0 - 1j * math.cos(th1) / math.sin(th1))
    if abs(acc.imag) > 1e-12:
        raise InvariantViolation(
            f"elliptic zero-width limit not real: {acc}")
    return acc.real


def heat_asymptotic_check(F: FieldCtx, beta_grid: Optional[Sequence[float]],
                          classes: GeodesicWindow) -> Dict[str, object]:
    """Fit the small-width expansion of the weight-two geometric side.

    Mirrors the expansion argument: the identity family carries the
    1/beta law and the parabolic family the 1/sqrt(beta) law, while the
    elliptic, HE and unit-series families converge to a constant or
    vanish faster than any power of beta.  Those three are finite sums
    the evaluator computes exactly, so they are removed from the fitted
    data and reported alongside; the rest is fitted against
    a/beta + b/sqrt(beta) + c + d*beta.  a must land on zeta_K(-1) and
    b on -2 log(eps)/sqrt(4 pi) within relative errors 0.02 and 0.05.
    """
    if beta_grid is None:
        beta_grid = (0.2, 0.1, 0.05, 0.025)
    betas = [float(b) for b in beta_grid]
    if len(betas) < 4:
        raise ValidationError("heat fit needs at least 4 grid points")
    if any(not (0.0 < b <= 0.2) for b in betas):
        raise ValidationError(f"beta grid {betas} must lie in (0, 0.2]")

    ys = []
    removed = []
    for beta in betas:
        tf = gaussian_testfunction(beta)
        bd = geom_side_double_difference(2, tf, F, classes)
        if abs(bd.total.imag) > 1e-9 * (1.0 + abs(bd.total.real)):
            raise InvariantViolation(
                f"heat total not real at beta={beta}: {bd.total}")
        ys.append(bd.identity_term.real + bd.par_sct_term.real)
        removed.append(bd.elliptic_term.real + bd.hyp_ell_term.real
                       + bd.hyp2_sct_term.real)

    design = np.array([[1.0 / b, b ** -0.5, 1.0, b] for b in betas])
    cond = float(np.linalg.cond(design))
    if cond > 1e10:
        raise ValidationError(
            f"heat fit design is ill-conditioned (condition number "
            f"{cond:.3e}); spread the beta grid")
    coef, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
    a_fit, b_fit, c_fit, d_fit = (float(v) for v in coef)
    a_target = float(F.zeta_minus_one)
    b_target = -2.0 * F.regulator / math.sqrt(4.0 * math.pi)
    report = {
        "a_fit": a_fit, "a_target": a_target,
        "a_rel_err": abs(a_fit - a_target) / abs(a_target),
        "b_fit": b_fit, "b_target": b_target,
        "b_rel_err": abs(b_fit - b_target) / abs(b_target),
        "c_fit": c_fit, "d_fit": d_fit,
        "condition_number": cond,
        "beta_grid": tuple(betas),
        "removed_families": tuple(removed),
        "elliptic_limit": elliptic_zero_width_limit(F),
    }
    if report["a_rel_err"] > 0.02 or report["b_rel_err"] > 0.05:
        raise InvariantViolation(f"heat expansion drifted: {report}")
    return report
