"""Enumeration of the primitive hyperbolic-elliptic classes up to a norm
bound.

A class of norm eps^2 and rotation angle w0 has a trace t0 whose
embeddings are eps + 1/eps and 2*cos(w0), so everything with eps <= x
lives over a finite trace box.  Each trace t feeds the discriminant
pipeline through t^2 - d*u^2 = 4: square divisors u^2 are peeled off
t^2 - 4 and every mixed-sign quotient is a candidate discriminant.
The least trace giving a candidate is its fundamental Pell solution,
so no Pell search runs (see enumerate_geodesics).

The class and window types it returns, and the count reports read off
a window, live in `records`.
"""

import math
from typing import Dict, List, Tuple

from .pellforms import class_numbers, in_Dpm
# no enumeration calls it: bench/tests/test_bench.py's
# test_wrappers_leave_enumeration_unchanged_and_counts_repeat reads it here
from .pellforms import pell_fundamental  # noqa: F401
from .quadfield import (FieldCtx, QuadInt, canonical_disc, exact_sqrt,
                        lattice_points)
from .records import (GeodesicClass, GeodesicWindow, PellSolution,
                      _eps_limit)

__all__ = ["square_divisor_quotients", "enumerate_geodesics"]


def square_divisor_quotients(P: QuadInt, F: FieldCtx) -> List[QuadInt]:
    """Quotients P / u^2 over square divisors u^2 of P, one u per
    associate window (unit-square twins collapse downstream under
    discriminant canonicalization).  P itself is always included."""
    out = [P]
    N = abs(P.norm())
    for k in range(2, math.isqrt(N) + 1):
        if N % (k * k) == 0:
            root = math.sqrt(k)
            for u in lattice_points(F.D, root * F.eps1 + 0.5, root + 0.5):
                if u.is_zero() or abs(u.norm()) != k:
                    continue
                uu = u * u
                if uu.divides(P):
                    out.append(P.exact_div(uu))
    return out


def enumerate_geodesics(F: FieldCtx, x: float,
                        height: float = 8.0) -> GeodesicWindow:
    """All classes with eps_K(d) <= x, as a window covering the largest
    listed norm, with bound x.

    The trace box holds the traces with first embedding in (2, x + 1/x]
    and second in (-2, 2), those eps + 1/eps of every class with
    eps <= x.  Each canonical candidate d keeps its trace t0 of least
    first embedding, and u0 = exact_sqrt((t0^2 - 4)/d).  That is d's
    fundamental Pell solution: each (t, u) with t^2 - d u^2 = 4 and
    t_1 > 2 is a Pell trace of d, t = eps_d^n + eps_d^-n with n >= 1, so
    eps(t) >= eps_d; every Pell trace has t_2^2 = 4 + d_2 u_2^2 < 4, so
    the fundamental one is in the box when any other is, and when
    eps_d <= x; and square_divisor_quotients(t0^2 - 4) yields d up to a
    unit square, since its window for k = |N(u0)| holds an associate of
    every u with |N(u)| = k.  The candidates are cut by
    eps_d <= _eps_limit(x) and counted in batches by class_numbers.
    """
    limit = _eps_limit(x)
    box = [t for t in lattice_points(F.D, x + 1.0 / x, 2.0)
           if t.embed(1) > 2.0 and abs(t.embed(2)) < 2.0]
    least: Dict[Tuple[int, int], Tuple[QuadInt, QuadInt]] = {}
    for t in sorted(box, key=lambda t: t.embed(1)):
        for d in square_divisor_quotients(t * t - 4, F):
            if in_Dpm(d):
                dc = canonical_disc(d, F)
                least.setdefault((dc.a, dc.b), (dc, t))
    ds: List[QuadInt] = []
    pells: List[PellSolution] = []
    for key in sorted(least):
        dc, t0 = least[key]
        pell = PellSolution(d=dc, t0=t0,
                            u0=exact_sqrt((t0 * t0 - 4).exact_div(dc)))
        pell.verify()
        # the trace box's 1e-9 slack can admit an eps_d just past x
        if pell.eps_d <= limit:
            ds.append(dc)
            pells.append(pell)
    classes = [GeodesicClass(d=rec.d, norm=rec.pell.eps_d ** 2,
                             angle=math.acos(rec.pell.t0.embed(2) / 2.0),
                             multiplicity=rec.class_number, record=rec)
               for rec in class_numbers(ds, F, height, pells)]
    return GeodesicWindow(classes, bound=x)
