"""Geometric sides of the difference and double-difference trace formulas.

Two test-function families are supported: heat Gaussians and the
three-pole rational pair built from (s, beta1, beta2).  The evaluators
return a per-family breakdown whose total is the plain ordered sum of
the parts.  HE sums run over the (class, power) terms of the window's
power grid, whose cut is proven for every test function decaying
faster than e^{-u/2}, and the unit-factor series stops at a geometric
tail bound.  Every integral runs over the whole line or half-line:
the identity integral, the elliptic integrals and the HE tail past the
window's coverage.  For a heat pair the first two are trapezoidal sums
on R whose errors are proven bounds, and the HE tail is closed form,
each heat pair on its own nodes; the rational pairs' integrals are the
components of one adaptive quadrature (integrate.quad), whose errors
are QUADPACK's estimates.  Closed-form twins (digamma sums,
log-derivative values, geometric unit series) are provided for
cross-checking the quadrature route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import integrate
from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .quadfield import FieldCtx
from .records import GeodesicWindow
from .specfun import digamma
from .zetafun import ZetaParams, alpha_table, check_weight, selberg_log_deriv


def _sgn(x: float) -> float:
    return 1.0 if x > 0 else -1.0


# ------------------------------------------------------------ test functions

@dataclass(frozen=True)
class TestFunctionPair:
    """Even transform pair (h1, g1) with decay metadata.

    g1 is the Fourier transform of h1 normalized so that
    h1(r) = integral of g1(u) e^{iru} du.  Both are numpy expressions
    that take a scalar or an array and return a value of the same
    shape.  metadata carries the family's parameters; a rational
    pair's kappa is the rate of g1's exponential decay, which the
    evaluators check against the HE tail integral.
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

    return TestFunctionPair(kind="gaussian", h1=h1, g1=g1,
                            metadata={"beta": beta})


def rational_testfunction(s: complex, beta1: float,
                          beta2: float) -> TestFunctionPair:
    """Three-pole pair from (s, beta1, beta2) with c1 + c2 = -1.

    h1(r) = 1/(r^2+(s-1/2)^2) + c1/(r^2+beta1^2) + c2/(r^2+beta2^2);
    the residues cancel the leading 1/r^2 so h1 = O(r^{-6}).
    """
    s = complex(s)
    beta1, beta2 = float(beta1), float(beta2)
    if not (cmath.isfinite(s) and math.isfinite(beta1)
            and math.isfinite(beta2)):
        raise ValidationError(
            f"rational pair needs finite s, beta1, beta2, got s={s}, "
            f"beta1={beta1}, beta2={beta2}")
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
                  "c1": c1, "c2": c2, "kappa": kappa})


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


# ------------------------------------------------------------ integrals

# unit roundoff of float64
_U = 2.0 ** -53
# trial strip heights of the elliptic bounds, as fractions of the
# strip's half-width
_STRIP = np.arange(1, 16) / 16.0
# nodes of one trapezoid sum; the identity sum takes about 81/sqrt(beta),
# so this refuses widths below about 6.6e-9
MAX_NODES = 1 << 20


def _gamma(n: float) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * _U / (1.0 - n * _U)


def _gaussian_integrals(beta: float, theta1: np.ndarray
                        ) -> Tuple[float, float, np.ndarray, np.ndarray]:
    """The identity integral over R and the elliptic integrals at the
    census angles theta1 of the heat pair of width beta, each with a
    proven error bound, by the trapezoidal rule on R.

    Take f analytic in the strip |Im u| < a, with the integral of
    |f(x + iy)| over x at most M for every |y| <= y < a.  The trapezoid
    of step tau over all of Z tau is then within 2 M / (e^{2 pi y/tau}
    - 1) of the integral over R (Trefethen and Weideman, SIAM Review
    56, 2014, Thm. 5.1).  Below, M grows with |y|, so M(y) serves the
    whole strip |Im u| <= y.  The step is the largest whose bound is
    one unit roundoff u of the integral's scale, and the sum stops
    where the terms it drops are bounded by as much.

    - identity: f(r) = r e^{-beta r^2} tanh(pi r), poles at Im r = 1/2,
      scale 1/beta (the integral of |f|).  On the line Im r = y < 1/2,
      |e^{-beta r^2}| = e^{beta y^2} e^{-beta x^2} and |tanh| <=
      max(1, tan pi y), so M <= e^{beta y^2} max(1, tan pi y) (1/beta
      + y sqrt(pi/beta)), taken at y = 15/32.  f is even and f(0) = 0,
      so the sum runs over x_k = k tau, 1 <= k <= K, doubled.  Past
      x_K >= sqrt(53 ln 2 / beta), |f| <= x e^{-beta x^2} decreases,
      so the dropped terms on both sides sum to at most
      e^{-beta x_K^2}/beta.
    - elliptic: g1 k with k(u) = e^{-u/2} (e^u - e^{i phi})/(cosh u -
      cos phi), phi = 2 theta1, scale 1.  cosh u - cos phi = 2 sinh((u
      + i phi)/2) sinh((u - i phi)/2) and e^u - e^{i phi} = 2 e^{(u + i
      phi)/2} sinh((u - i phi)/2), so k(u) = e^{i theta1}/sinh(u/2 + i
      theta1), and |sinh z|^2 = sinh^2(Re z) + sin^2(Im z) gives
      |k(x + iy)| <= 1/sin(theta1 + y/2).  g1 is even, so the trapezoid
      of g1 k on R is that of (g1 (k(u) + k(-u)))/2, analytic in
      |Im u| < a = min(2 theta1, 2 pi - 2 theta1), and with
      |g1(x + iy)| = g1(x) e^{y^2/(4 beta)} and g1 of integral 1,
      M <= e^{y^2/(4 beta)} / min(sin(theta1 - y/2), sin(theta1 + y/2)).
      Per angle, y is the best of the 15 heights a _STRIP; the
      Gaussian factor makes the step shrink like sqrt(beta), and one
      step, the least of the angles' steps, serves every angle.  The
      sum runs over x_k = k tau, 0 <= k <= K, the node 0 at weight 1/2,
      of g1(x) (k(x) + k(-x)) = -2i e^{i theta1} sin(theta1) g1(x)
      cosh(x/2)/(sinh^2(x/2) + sin^2 theta1), a positive sum times a
      phase.  The kernel's modulus is at most 2/sqrt(sinh^2(x/2) +
      sin^2 theta1), which decreases in x, and g1 decreases too, so the
      dropped terms sum to at most erfc(x_K/(2 sqrt beta)) /
      sqrt(sinh^2(x_K/2) + sin^2 theta1).

    Rounding: each term is formed with a relative error below
    (10 + 4E) u, E the largest Gaussian exponent at a node (beta x_K^2
    or x_K^2/(4 beta)): its absolute error of 2 E u becomes a relative
    one under exp, and the node's own rounding moves the term by as
    much again.  The terms are positive, so by Higham's bound for
    their sum the computed modulus is within gamma_{n + 10 + 4E} of
    itself, n the number of terms.

    Returns the identity integral and its bound, and per angle the
    elliptic integral and its bound: each the strip bound plus the
    dropped terms plus rounding.
    """
    # identity
    y = 15.0 / 32.0
    m = (math.exp(beta * y * y) * math.tan(math.pi * y)
         * (1.0 / beta + y * math.sqrt(math.pi / beta)))
    tau = 2.0 * math.pi * y / math.log1p(2.0 * m * beta / _U)
    size = math.ceil(math.sqrt(53.0 * math.log(2.0) / beta) / tau)
    if size > MAX_NODES:
        raise BudgetExceededError(
            f"the identity integral at beta={beta} needs {size} trapezoid "
            f"nodes, more than {MAX_NODES}")
    x = tau * np.arange(1, size + 1)
    identity = 2.0 * tau * float(np.sum(x * np.exp(-beta * x * x)
                                        * np.tanh(math.pi * x)))
    expo = beta * x[-1] ** 2
    identity_err = (2.0 * m / math.expm1(2.0 * math.pi * y / tau)
                    + math.exp(-expo) / beta
                    + _gamma(x.size + 10 + 4.0 * expo) * identity)

    # elliptic, one row per angle: the step from log M on the trial
    # heights, then each angle's least bound at that step
    sin1 = np.sin(theta1)
    y = np.minimum(2.0 * theta1, 2.0 * math.pi - 2.0 * theta1)[:, None] \
        * _STRIP
    log_m = y * y / (4.0 * beta) - np.log(np.minimum(
        np.sin(theta1[:, None] - 0.5 * y), np.sin(theta1[:, None] + 0.5 * y)))
    tau = float(np.min(np.max(2.0 * math.pi * y / np.logaddexp(
        0.0, math.log(2.0 / _U) + log_m), axis=1)))
    z = 2.0 * math.pi * y / tau
    strip = np.exp(np.min(math.log(2.0) + log_m - z - np.log1p(-np.exp(-z)),
                          axis=1))
    cut = 2.0 * math.sqrt(beta * math.log(1.0 / (_U * float(sin1.min()))))
    x = tau * np.arange(math.ceil(cut / tau) + 1)
    g = np.exp(-x * x / (4.0 * beta)) / math.sqrt(4.0 * math.pi * beta)
    g[0] *= 0.5
    sh = np.sinh(0.5 * x)
    moduli = 2.0 * tau * sin1 * (g * np.cosh(0.5 * x) / (
        sh * sh + (sin1 * sin1)[:, None])).sum(axis=1)
    expo = x[-1] ** 2 / (4.0 * beta)
    elliptic_err = (strip + math.erfc(x[-1] / (2.0 * math.sqrt(beta)))
                    / np.sqrt(sh[-1] ** 2 + sin1 * sin1)
                    + _gamma(x.size + 10 + 4.0 * expo) * moduli)
    return (identity, identity_err, -1j * np.exp(1j * theta1) * moduli,
            elliptic_err)


def _quad_integrals(tfs: Sequence[TestFunctionPair], theta1: np.ndarray,
                    log_cov: float | None) -> Tuple[np.ndarray, ...]:
    """The side integrals of the test functions tfs as the components of
    one adaptive quadrature over x in [0, inf), with QUADPACK's error
    estimates (integrate.quad):

    - identity: x h1(x) tanh(pi x), half the integral over R of
      r h1(r) tanh(pi r), with tolerance 1e-13 / 1e-11;
    - elliptic: g1(x) (k(x) + k(-x)) per census angle theta1 = ell pi/nu,
      where k(u) = e^{-u/2} (e^u - e^{2i theta1})/(cosh u - cos 2 theta1);
      g1 is even, so this is the integral of g1 k over R, and
      k(x) + k(-x) = 2 cosh(x/2) (1 - e^{2i theta1})/(cosh x - cos 2 theta1),
      evaluated with numerator and denominator scaled by e^{-x} so
      nothing overflows; tolerance 1e-13 / 1e-11;
    - HE tail, when log_cov = L is given: e^{(L+x)/2} |g1(L+x)|, the
      count-model weight of the classes past the window, formed as
      exp((L+x)/2 + log|g1|) so it is 0, not inf * 0, where g1
      underflows; tolerance 1e-14 / 1e-9.

    Returns per function the identity integral over R and its error,
    the (n, angles) elliptic integrals and errors, and the HE tail
    integral, None without log_cov."""
    n, k = len(tfs), theta1.size
    fold = (1.0 - np.exp(2.0j * theta1))[:, None]
    cos2 = np.cos(2.0 * theta1)[:, None]
    tail = log_cov is not None

    def f(x: np.ndarray) -> np.ndarray:
        h = np.exp(-0.5 * x)
        e = h * h
        kernel = fold * ((h + h * e) / (0.5 * (1.0 + e * e) - cos2 * e))
        parts = [np.stack([x * tf.h1(x) for tf in tfs])
                 * np.tanh(np.pi * x),
                 (np.stack([tf.g1(x) for tf in tfs])[:, None]
                  * kernel).reshape(-1, x.size)]
        if tail:
            u = log_cov + x
            g = np.abs(np.stack([tf.g1(u) for tf in tfs]))
            log_g = np.log(g, out=np.full(g.shape, -np.inf), where=g > 0.0)
            parts.append(np.exp(0.5 * u + log_g))
        return np.concatenate(parts)

    sizes = (n, n * k, n if tail else 0)
    epsabs = np.repeat([1e-13, 1e-13, 1e-14], sizes)
    epsrel = np.repeat([1e-11, 1e-11, 1e-9], sizes)
    val, err = integrate.quad(f, 0.0, epsabs=epsabs, epsrel=epsrel,
                              limit=300)
    return (2.0 * val[:n], 2.0 * err[:n],
            val[n:n + n * k].reshape(n, k), err[n:n + n * k].reshape(n, k),
            val[n + n * k:].real if tail else [None] * n)


def _side_integrals(tfs: Sequence[TestFunctionPair], F: FieldCtx,
                    classes: GeodesicWindow
                    ) -> List[Tuple[complex, float,
                                    Dict[Tuple[int, int],
                                         Tuple[complex, float]], float]]:
    """Every integral of the geometric sides of every test function: the
    identity integral over R of r h1(r) tanh(pi r), the elliptic
    integrals over R of g1 k per census angle, and the count-model bound
    on the classes past the window's coverage (the HE tail), 1.6 times
    the count constant times the integral of e^{u/2} |g1(u)| over
    [L, inf), L = log(coverage).  A window of coverage <= 3 has no tail
    integral and an infinite tail.

    A heat pair takes the identity and elliptic integrals by the
    trapezoidal rule on R, on nodes of its own, with proven error
    bounds (_gaussian_integrals), and the HE tail in closed form: e^{u/2}
    g1(u) completes the square to e^{beta/4} erfc((L - beta)/(2
    sqrt beta))/2.  The other pairs share one adaptive quadrature
    (_quad_integrals), whose errors are estimates.

    Returns per function the identity integral and its error, the
    elliptic integrals as (nu, ell) -> (integral, error), and the HE
    tail."""
    keys = sorted({(nu, ell) for nu, _ in F.census_classes()
                   for ell in range(1, nu)})
    theta1 = np.array([ell * math.pi / nu for nu, ell in keys])
    cov = classes.coverage
    log_cov = math.log(cov) if cov > 3.0 else None
    rest = [tf for tf in tfs if tf.kind != "gaussian"]
    quad = zip(*_quad_integrals(rest, theta1, log_cov)) if rest else None
    out = []
    for tf in tfs:
        if tf.kind == "gaussian":
            beta = float(tf.metadata["beta"])
            parts = _gaussian_integrals(beta, theta1)
            tail = (None if log_cov is None else
                    0.5 * math.exp(beta / 4.0)
                    * math.erfc((log_cov - beta) / (2.0 * math.sqrt(beta))))
        else:
            *parts, tail = next(quad)
        identity, identity_err, ell, ell_err = parts
        out.append((complex(identity), float(identity_err),
                    {key: (complex(a), float(b))
                     for key, a, b in zip(keys, ell, ell_err)},
                    math.inf if tail is None else
                    1.6 * classes.count_constant * tail))
    return out


# ------------------------------------------------------------ shared pieces

def check_trace_args(m: int, tfs: Sequence[TestFunctionPair]) -> None:
    """Refuse what no window mends: an odd weight, and a rational pair
    whose HE tail integrand e^{-(kappa - 1/2) x} decays too slowly."""
    if m % 2:
        raise ValidationError(f"weight m={m} must be even")
    for tf in tfs:
        kappa = tf.metadata.get("kappa")
        if kappa is not None and kappa - 0.5 <= 0.01:
            raise ValidationError(
                "rational pair decays too slowly for the HE tail "
                f"integral (kappa={kappa})")


def _check_gaussian_window(tf: TestFunctionPair, cov: float) -> None:
    if tf.kind != "gaussian":
        return
    beta = float(tf.metadata["beta"])
    floor = 1e-10 * math.sqrt(4.0 * math.pi * beta)
    # a g1 below the floor everywhere still weighs a class count that
    # grows like N / log N, so the window must then reach e^-46 of g1(0)
    u_req = (math.sqrt(4.0 * beta * math.log(1.0 / floor)) if floor < 1.0
             else math.sqrt(4.0 * beta * 46.0) + 6.0)
    # the window must list a class of norm >= needed; one enumerated to
    # x >= sqrt(needed) may still list none, so that bound is necessary only
    try:
        needed = math.exp(u_req)
        reach, hint = f"{needed:.6g}", (
            f"; enumerating to x >= {math.sqrt(needed):.4g} is necessary, "
            "not sufficient")
    except OverflowError:
        needed = math.inf
        reach, hint = f"exp({u_req:.6g}), past the floating-point range", ""
    if cov < needed:
        largest = f"its largest norm is {cov:.6g}" if cov else \
            "it holds no class"
        raise ValidationError(
            f"the Gaussian tail at beta={beta} needs the class list to hold "
            f"a class of norm >= {reach}, but {largest}{hint}")


def _hyp_ell_sums(m: int, tfs: Sequence[TestFunctionPair],
                  classes: GeodesicWindow, single: bool) -> List[complex]:
    """Each test function's HE sum over the window's power grid, one
    coefficient vector for all.  The term (h/2) ln N / (N^{l/2} -
    N^{-l/2}) at a = l ln N is 0.5 a w e^{-a/2} in the grid weight w;
    inverse pairs fold the phases to -2 cos(l (m-2) angle) (double
    difference) or -sin(l (m-1) angle)/sin(l angle) (difference)."""
    grid = classes.power_grid
    a, phase, w = grid.prefix(classes.count_upto(classes.coverage),
                              2 if single else m)
    coef = -a * w * np.exp(-0.5 * a)
    if single:
        sl = np.sin(phase)
        bad = np.flatnonzero(np.abs(sl) < 1e-9)
        if bad.size:
            i = int(bad[0])
            row = int(np.searchsorted(grid.stops, i, side="right")) - 1
            d = classes[row].d
            raise InvariantViolation(
                f"degenerate power angle at d=({d.a},{d.b}), "
                f"l={i - grid.stops[row] + 1}")
        coef *= 0.5 * np.sin((m - 1) * phase) / sl
    return [complex(np.dot(coef, tf.g1(a))) for tf in tfs]


def _eps_series(m: int, tf: TestFunctionPair, F: FieldCtx,
                single: bool) -> Tuple[complex, float, int]:
    """Unit series with geometric tail bound; returns (value, tail, k_cut).

    The series stops at the first term below 1e-18 (1 + |partial sum|),
    or at term 100000.  Terms are formed in chunks of doubling size and
    summed in order."""
    log_eps = F.regulator
    acc = 0.0
    first, size = 1, 32
    while True:
        last = min(first + size - 1, 100000)
        k = np.arange(first, last + 1, dtype=float)
        unit = _sgn(m - 1) * F.eps1 ** (-abs(m - 1) * k)
        if not single:
            unit -= _sgn(m - 3) * F.eps1 ** (-abs(m - 3) * k)
        terms = (-2.0 * log_eps) * tf.g1(k * (2.0 * log_eps)) * unit
        sums = np.cumsum(np.concatenate(([acc], terms)))[1:]
        done = np.abs(terms) < 1e-18 * (1.0 + np.abs(sums))
        done[-1] |= last == 100000
        hits = np.flatnonzero(done)
        if hits.size:
            i = hits[0]
            return (complex(sums[i]),
                    float(abs(terms[i])) / (1.0 - 1.0 / F.eps1), int(k[i]))
        acc = sums[-1]
        first, size = last + 1, 2 * size


def _elliptic_sum(m: int, quad: Dict[Tuple[int, int], Tuple[complex, float]],
                  F: FieldCtx, single: bool) -> Tuple[complex, float]:
    """Finite-order class sum over each primitive class's power set,
    from one test function's elliptic integrals."""
    acc = 0.0 + 0.0j
    err = 0.0
    for nu, t in F.census_classes():
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

def _geom_sides(m: int, tfs: Sequence[TestFunctionPair], F: FieldCtx,
                classes: GeodesicWindow,
                single: bool) -> List[GeomSideBreakdown]:
    """Both evaluators, for a list of test functions, whose integrals
    _side_integrals takes: each heat pair's on its own nodes with proven
    bounds, the other pairs' in one shared quadrature.  The difference
    (single) scales the identity and HE tail by (m - 1)/2, the double
    difference by 1.  A field without an elliptic census is refused
    before the arguments and the window are checked."""
    F.census_classes()
    check_trace_args(m, tfs)
    for tf in tfs:
        _check_gaussian_window(tf, classes.coverage)
    scale = (m - 1) * 0.5 if single else 1.0

    integrals = _side_integrals(tfs, F, classes)
    hyp_ells = _hyp_ell_sums(m, tfs, classes, single)
    sides = []
    for tf, (id_int, id_err, ell_quad, he_tail), hyp_ell in zip(
            tfs, integrals, hyp_ells):
        identity = scale * float(F.zeta_minus_one) * complex(id_int)
        elliptic, ell_err = _elliptic_sum(m, ell_quad, F, single)
        g0 = complex(tf.g1(0.0))
        par = (-_sgn(m - 1) * F.regulator * g0 if single else
               -F.regulator * g0 * (_sgn(m - 1) - _sgn(m - 3)))
        eps_val, eps_tail, k_cut = _eps_series(m, tf, F, single)

        diag: Dict[str, object] = {
            "coverage": classes.coverage,
            "he_tail": abs(scale) * float(he_tail),
            "eps_tail": eps_tail,
            "eps_terms": k_cut,
            "identity_quad_err": float(id_err),
            "elliptic_quad_err": ell_err,
        }
        if m == 2 and not single:
            diag["spectral_constant"] = -2.0 * complex(tf.h1(0.5j))
        total = identity + elliptic + hyp_ell + par + eps_val
        sides.append(GeomSideBreakdown(
            identity_term=identity, elliptic_term=elliptic,
            hyp_ell_term=hyp_ell, par_sct_term=par, hyp2_sct_term=eps_val,
            total=total, diagnostics=diag))
    return sides


def geom_side_double_difference(m: int, tf: TestFunctionPair, F: FieldCtx,
                                classes: GeodesicWindow) -> GeomSideBreakdown:
    """Geometric side of the double-difference formula at even weight m."""
    return _geom_sides(m, [tf], F, classes, single=False)[0]


def geom_side_difference(m: int, tf: TestFunctionPair, F: FieldCtx,
                         classes: GeodesicWindow) -> GeomSideBreakdown:
    """Geometric side of the difference formula, divided through by the
    second-slot weight; defined for every even m, including m <= 0."""
    return _geom_sides(m, [tf], F, classes, single=True)[0]


# ------------------------------------------------------------ closed forms

def _unit_q_c(x: complex, F: FieldCtx) -> complex:
    """q / (1 - q) with q = eps_K^-x."""
    e = cmath.exp(-complex(x) * F.regulator)
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
    check_weight(m)
    tf = rational_testfunction(s, beta1, beta2)
    geom = geom_side_double_difference(m, tf, F, classes)
    s = complex(s)
    c1 = complex(tf.metadata["c1"])
    c2 = complex(tf.metadata["c2"])
    # first entry is the s point, the rest sit at 1/2 + beta_h
    weights = [(s, 1.0 / (2.0 * s - 1.0)),
               (0.5 + beta1 + 0.0j, c1 / (2.0 * beta1)),
               (0.5 + beta2 + 0.0j, c2 / (2.0 * beta2))]
    zeta_m1 = float(F.zeta_minus_one)
    log_eps = F.regulator

    id_closed = -2.0 * zeta_m1 * (digamma(s)
                                  + c1 * digamma(beta1 + 0.5)
                                  + c2 * digamma(beta2 + 0.5))

    tab = alpha_table(m, F)
    ell_closed = 0.0 + 0.0j
    for pt, w in weights:
        inner = 0.0 + 0.0j
        for e in tab.entries:
            for l in range(e.nu):
                coef = (e.nu - 1 - e.alpha[l] - e.alpha_bar[l]) / (e.nu ** 2)
                if coef:
                    inner += coef * digamma((pt + l) / e.nu)
        ell_closed += w * inner

    he_closed = 0.0 + 0.0j
    for pt, w in weights:
        p = ZetaParams(s=pt, m=m, trunc_norm=classes.coverage, trunc_k=40)
        he_closed += w * selberg_log_deriv(p, classes).value

    # one unit series per pole: at pt = 1/2 + beta_h, 2 pt + m - 4 is
    # 2 beta_h + m - 3
    unit_closed = 0.0 + 0.0j
    for pt, w in weights:
        if m >= 4:
            val = 2.0 * log_eps * (_unit_q_c(2.0 * pt + m - 4, F)
                                   - _unit_q_c(2.0 * pt + m - 2, F))
        else:
            val = -2.0 * log_eps - 4.0 * log_eps * _unit_q_c(2.0 * pt, F)
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


# ------------------------------------------------------------ heat fit

def elliptic_zero_width_limit(F: FieldCtx) -> float:
    """Limit of the weight-2 elliptic family as the Gaussian width
    goes to zero: the weight-2 elliptic sum with every kernel integral
    collapsed to 1 - i cot(theta1)."""
    limits = {}
    for nu, _ in F.census_classes():
        for ell in range(1, nu):
            th1 = ell * math.pi / nu
            limits[nu, ell] = (1.0 - 1j * math.cos(th1) / math.sin(th1), 0.0)
    acc, _ = _elliptic_sum(2, limits, F, False)
    if abs(acc.imag) > 1e-12:
        raise InvariantViolation(
            f"elliptic zero-width limit not real: {acc}")
    return acc.real


def heat_grid(beta_grid: Sequence[float]) -> List[float]:
    """The beta grid as floats, refused unless 4 or more lie in (0, 0.2]."""
    betas = [float(b) for b in beta_grid]
    if len(betas) < 4:
        raise ValidationError("heat fit needs at least 4 grid points")
    if any(not (0.0 < b <= 0.2) for b in betas):
        raise ValidationError(f"beta grid {betas} must lie in (0, 0.2]")
    return betas


def heat_asymptotic_check(F: FieldCtx, beta_grid: Sequence[float],
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
    The sides of the whole grid are evaluated in one call.
    """
    betas = heat_grid(beta_grid)
    ys = []
    removed = []
    sides = _geom_sides(2, [gaussian_testfunction(b) for b in betas], F,
                        classes, single=False)
    for beta, bd in zip(betas, sides):
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
