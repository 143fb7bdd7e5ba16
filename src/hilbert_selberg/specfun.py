"""Special functions: digamma, double Gamma, li, unit zeta.

Everything returns complex doubles.  The double Gamma is normalized by
Gamma2(1) = 1 together with the ladder

    Gamma2(s+1) / Gamma2(s) = sqrt(2*pi) / Gamma(s),

computed in log space from the Barnes-G asymptotic series plus the
recurrence log G(z) = log G(z+n) - sum_j log Gamma(z+j).  Only ratios of
Gamma2 values are ever consumed downstream, so the normalization washes
out of every identity.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from scipy import integrate
from scipy import special as sp

from .errors import ValidationError
from .quadfield import FieldCtx

TWO_PI = 2.0 * math.pi
LOG_TWO_PI = math.log(TWO_PI)
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921391966024278064276

# B_{2k+2} / (4k(k+1)) for k = 1..6
_BARNES_COEFFS = (
    Fraction(-1, 240),
    Fraction(1, 1008),
    Fraction(-1, 1440),
    Fraction(1, 1056),
    Fraction(-691, 327600),
    Fraction(1, 144),
)


def _near_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    if z.real > 0.5 or abs(z.imag) > tol:
        return False
    return abs(z - round(z.real)) < tol and round(z.real) <= 0


def digamma(z: complex) -> complex:
    """psi(z) for complex z; errors at the poles instead of returning NaN."""
    z = complex(z)
    if _near_nonpositive_integer(z, tol=1e-10):
        raise ValidationError(f"digamma pole at z={z}")
    out = complex(sp.digamma(z))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ValidationError(f"digamma failed to evaluate at z={z}")
    return out


def _log_barnes_g_asymptotic(w: complex) -> complex:
    """log G(w) for Re(w) large, via the series at y = w - 1."""
    y = w - 1.0
    ly = cmath.log(y)
    out = (y * y / 2.0) * ly - 0.75 * y * y + (y / 2.0) * LOG_TWO_PI \
        - ly / 12.0 + ZETA_PRIME_MINUS_ONE
    y2 = y * y
    p = y2
    for c in _BARNES_COEFFS:
        out += float(c) / p
        p *= y2
    return out


def log_barnes_g(z: complex) -> complex:
    """log G(z), principal-branch loggamma recurrence into Re >= 26.

    G vanishes at nonpositive integers; those arguments raise.
    """
    z = complex(z)
    if _near_nonpositive_integer(z, tol=1e-12):
        raise ValidationError(f"Barnes G zero (log diverges) at z={z}")
    shift = max(0, int(math.ceil(26.0 - z.real)))
    acc = 0.0 + 0.0j
    for j in range(shift):
        acc += sp.loggamma(z + j)
    return _log_barnes_g_asymptotic(z + shift) - acc


def loggamma2(z: complex) -> complex:
    """log Gamma2(z) with Gamma2(1) = 1; poles at z = 0, -1, -2, ... raise."""
    z = complex(z)
    return ((z - 1.0) / 2.0) * LOG_TWO_PI - log_barnes_g(z)


def gamma2(z: complex) -> complex:
    return cmath.exp(loggamma2(z))


def xi_ratio(s: complex) -> complex:
    """Xi(s) = [G2(s+1)G2(s+2)G2(1-s)G2(2-s)] / [G2(s)G2(s+1)G2(-s)G2(1-s)].

    After cancellation this is exp(L(s+2) + L(2-s) - L(s) - L(-s)) in
    log-Gamma2 terms; equals -4 sin^2(pi s) identically.
    """
    s = complex(s)
    return cmath.exp(loggamma2(s + 2) + loggamma2(2 - s)
                     - loggamma2(s) - loggamma2(-s))


def li(x: float) -> float:
    """Offset logarithmic integral li(x) = integral_2^x dt/log(t)."""
    x = float(x)
    if x <= 1.0:
        raise ValidationError("li(x) needs x > 1 (integrand pole at t=1)")
    if x == 2.0:
        return 0.0
    val, err = integrate.quad(lambda t: 1.0 / math.log(t), 2.0, x,
                              epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-9:
        raise ValidationError(f"li({x}) quadrature error {err:.2e} too large")
    return val


def zeta_eps(s: complex, F: FieldCtx) -> complex:
    """zeta_eps(s) = (1 - eps^(-2s))^(-1); poles on s = pi*i*k/log(eps)."""
    s = complex(s)
    x = cmath.exp(-2.0 * s * F.regulator)
    denom = 1.0 - x
    if abs(denom) < 1e-13:
        k = round(s.imag * F.regulator / math.pi)
        raise ValidationError(
            f"zeta_eps pole at s={s} (lattice point k={k} of pi*i/log eps)")
    return 1.0 / denom


__all__ = [
    "ZETA_PRIME_MINUS_ONE",
    "digamma",
    "gamma2",
    "li",
    "log_barnes_g",
    "loggamma2",
    "xi_ratio",
    "zeta_eps",
]
