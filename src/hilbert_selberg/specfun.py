"""Special functions: digamma and li.

Both are plain cmath/math code.  digamma returns complex doubles: it
shifts the argument up by the recurrence psi(z) = psi(z + 1) - 1/z
until Re z >= 8 and then sums ten terms of the Stirling series.  li(x)
is Ei(ln x) - Ei(ln 2) from the power series of the exponential
integral.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ValidationError

LOG_TWO = math.log(2.0)

# B_2, B_4, ..., B_20
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
)
# Stirling series of psi: B_2k / (2k)
_DIGAMMA_COEFFS = tuple(float(b / (2 * k))
                        for k, b in enumerate(_BERNOULLI, 1))
_STIRLING_RE = 8.0
# a z this close to 0, -1, -2, ... is taken for the pole
_POLE_TOL = 1e-10


def digamma(z: complex) -> complex:
    """psi(z) for complex z; errors at the poles instead of returning NaN."""
    z = complex(z)
    if (z.real <= 0.5 and abs(z.imag) <= _POLE_TOL
            and abs(z - round(z.real)) < _POLE_TOL):
        raise ValidationError(f"digamma pole at z={z}")
    acc = 0.0 + 0.0j
    for _ in range(max(0, int(math.ceil(_STIRLING_RE - z.real)))):
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


__all__ = ["digamma", "li"]
