"""Enumeration of the primitive hyperbolic-elliptic classes up to a norm
bound.

A class of norm eps^2 and rotation angle w0 has a trace t0 whose
embeddings are eps + 1/eps and 2*cos(w0), so everything with eps <= x
lives over a finite trace box.  Each trace t feeds the discriminant
pipeline through t^2 - d*u^2 = 4: square divisors u^2 are peeled off
t^2 - 4 and every mixed-sign quotient is a candidate discriminant.
The Pell step recovers the true fundamental solution, which may be
smaller than the (t, u) pair that produced the candidate.

The class and window types it returns, and the count reports read off
a window, live in `records`.
"""

import math
from typing import Dict, List, Tuple

from .errors import HilbertSelbergError
from .pellforms import class_numbers, in_Dpm, pell_fundamental
from .quadfield import FieldCtx, QuadInt, canonical_disc, lattice_points
from .records import (GeodesicClass, GeodesicWindow, PellSolution,
                      _eps_limit)

__all__ = ["square_divisor_quotients", "enumerate_geodesics"]


def square_divisor_quotients(P: QuadInt, F: FieldCtx) -> List[QuadInt]:
    """Quotients P / u^2 over square divisors u^2 of P, one u per
    associate window (unit-square twins collapse downstream under
    discriminant canonicalization).  P itself is always included."""
    D = F.D
    out = [P]
    N = abs(P.norm())
    eps1 = math.exp(F.regulator)
    k = 2
    while k * k <= N:
        if N % (k * k) == 0:
            root = math.sqrt(k)
            for u in lattice_points(D, root * eps1 + 0.5, root + 0.5):
                if u.is_zero() or abs(u.norm()) != k:
                    continue
                uu = u * u
                if uu.divides(P):
                    out.append(P.exact_div(uu))
        k += 1
    return out


def enumerate_geodesics(F: FieldCtx, x: float,
                        height: float = 8.0) -> GeodesicWindow:
    """All classes with eps_K(d) <= x, as a window covering the largest
    listed norm, with bound x.

    The traces scanned are those with first embedding in (2, x + 1/x]
    and second in (-2, 2), the traces eps + 1/eps of every class with
    eps <= x; candidates whose fundamental solution lands outside
    eps <= x are filtered after the Pell step.  That step searches up to
    eps = x, which holds every candidate's fundamental solution, so a
    Pell budget error raises instead of dropping a class.  The class
    numbers are counted in batches by class_numbers; a Pell error ends
    the candidates there, and raises unless a count before it fails.
    """
    limit = _eps_limit(x)
    D = F.D
    four = QuadInt(D, 4, 0)
    cands: Dict[Tuple[int, int], QuadInt] = {}
    for t in lattice_points(D, x + 1.0 / x, 2.0):
        if t.embed(1) <= 2.0 or abs(t.embed(2)) >= 2.0:
            continue
        P = t * t - four
        for d in square_divisor_quotients(P, F):
            if not in_Dpm(d):
                continue
            dc = canonical_disc(d, F)
            cands.setdefault((dc.a, dc.b), dc)
    ds: List[QuadInt] = []
    pells: List[PellSolution] = []
    try:
        for key in sorted(cands):
            dc = cands[key]
            # the trace that gave dc solves its Pell equation with eps <= x,
            # up to the trace box's 1e-9 slack, and the Pell box at cap x
            # holds every solution with eps - 1/eps <= 2x
            pell = pell_fundamental(dc, F, eps_cap=limit)
            # that slack can admit an eps(t) just past x
            if pell.eps_d <= limit:
                ds.append(dc)
                pells.append(pell)
    except HilbertSelbergError:
        class_numbers(ds, F, height, pells)  # an earlier failure wins
        raise
    classes = [GeodesicClass(d=rec.d, norm=rec.pell.eps_d ** 2,
                             angle=math.acos(rec.pell.t0.embed(2) / 2.0),
                             multiplicity=rec.class_number, record=rec)
               for rec in class_numbers(ds, F, height, pells)]
    return GeodesicWindow(classes, bound=x)
