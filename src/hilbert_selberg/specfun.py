"""Special functions: log Gamma, digamma, double Gamma, li.

Everything is plain cmath/math code and returns complex doubles (li a
float).  log Gamma and digamma shift the argument up by the recurrence
until Re z >= 8 and then sum ten terms of the Stirling series.  The
recurrence uses principal-branch logs, so

    loggamma(z + 1) = loggamma(z) + log z

holds exactly as in scipy.special.loggamma: the branch is continuous
off the negative real axis.  The double Gamma is normalized by
Gamma2(1) = 1 together with the ladder

    Gamma2(s+1) / Gamma2(s) = sqrt(2*pi) / Gamma(s),

computed in log space from the Barnes-G asymptotic series plus the
recurrence log G(z) = log G(z+n) - sum_j log Gamma(z+j).  Only ratios of
Gamma2 values are ever consumed downstream, so the normalization washes
out of every identity.  li(x) is Ei(ln x) - Ei(ln 2) from the power
series of the exponential integral.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ValidationError

TWO_PI = 2.0 * math.pi
LOG_TWO_PI = math.log(TWO_PI)
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921391966024278064276
LOG_TWO = math.log(2.0)

# B_2, B_4, ..., B_20
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
)
# Stirling series: B_2k / (2k (2k-1)) for log Gamma, B_2k / (2k) for psi
_LOGGAMMA_COEFFS = tuple(float(b / (2 * k * (2 * k - 1)))
                         for k, b in enumerate(_BERNOULLI, 1))
_DIGAMMA_COEFFS = tuple(float(b / (2 * k))
                        for k, b in enumerate(_BERNOULLI, 1))
_STIRLING_RE = 8.0

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


def _shift(z: complex) -> int:
    return max(0, int(math.ceil(_STIRLING_RE - z.real)))


def loggamma(z: complex) -> complex:
    """log Gamma(z) on scipy's branch; the poles z = 0, -1, -2, ... raise."""
    z = complex(z)
    if _near_nonpositive_integer(z, tol=1e-12):
        raise ValidationError(f"loggamma pole at z={z}")
    acc = 0.0 + 0.0j
    for _ in range(_shift(z)):
        acc += cmath.log(z)
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    series = 0.0 + 0.0j
    for c in reversed(_LOGGAMMA_COEFFS):
        series = series * w2 + c
    return ((z - 0.5) * cmath.log(z) - z + 0.5 * LOG_TWO_PI
            + series * w - acc)


def digamma(z: complex) -> complex:
    """psi(z) for complex z; errors at the poles instead of returning NaN."""
    z = complex(z)
    if _near_nonpositive_integer(z, tol=1e-10):
        raise ValidationError(f"digamma pole at z={z}")
    acc = 0.0 + 0.0j
    for _ in range(_shift(z)):
        acc += 1.0 / z
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    series = 0.0 + 0.0j
    for c in reversed(_DIGAMMA_COEFFS):
        series = series * w2 + c
    out = cmath.log(z) - 0.5 * w - series * w2 - acc
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
    lg = loggamma(z)
    acc = 0.0 + 0.0j
    for j in range(shift):
        acc += lg
        lg += cmath.log(z + j)
    return _log_barnes_g_asymptotic(z + shift) - acc


def loggamma2(z: complex) -> complex:
    """log Gamma2(z) with Gamma2(1) = 1; poles at z = 0, -1, -2, ... raise."""
    z = complex(z)
    return ((z - 1.0) / 2.0) * LOG_TWO_PI - log_barnes_g(z)


def xi_ratio(s: complex) -> complex:
    """Xi(s) = [G2(s+1)G2(s+2)G2(1-s)G2(2-s)] / [G2(s)G2(s+1)G2(-s)G2(1-s)].

    After cancellation this is exp(L(s+2) + L(2-s) - L(s) - L(-s)) in
    log-Gamma2 terms; equals -4 sin^2(pi s) identically.
    """
    s = complex(s)
    return cmath.exp(loggamma2(s + 2) + loggamma2(2 - s)
                     - loggamma2(s) - loggamma2(-s))


def _ei_series(u: float) -> float:
    """Ei(u) - gamma - ln u = sum_k u^k / (k k!) for u > 0."""
    acc = 0.0
    term = 1.0
    k = 1
    while True:
        term *= u / k
        inc = term / k
        acc += inc
        if inc <= 1e-17 * acc:
            return acc
        k += 1


def li(x: float) -> float:
    """Offset logarithmic integral li(x) = integral_2^x dt/log(t)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"li(x) needs a finite x, got {x}")
    if x <= 1.0:
        raise ValidationError("li(x) needs x > 1 (integrand pole at t=1)")
    if x == 2.0:
        return 0.0
    u = math.log(x)
    return math.log(u / LOG_TWO) + (_ei_series(u) - _EI_SERIES_LOG_TWO)


_EI_SERIES_LOG_TWO = _ei_series(LOG_TWO)


__all__ = [
    "ZETA_PRIME_MINUS_ONE",
    "digamma",
    "li",
    "log_barnes_g",
    "loggamma",
    "loggamma2",
    "xi_ratio",
]
