"""Primitive hyperbolic-elliptic classes ordered by norm, with
prime-geodesic and class-number-average count reports.

A class of norm eps^2 and rotation angle w0 has a trace t0 whose
embeddings are eps + 1/eps and 2*cos(w0), so everything with eps <= x
lives over a finite trace box.  Each trace t feeds the discriminant
pipeline through t^2 - d*u^2 = 4: square divisors u^2 are peeled off
t^2 - 4 and every mixed-sign quotient is a candidate discriminant.
The Pell step recovers the true fundamental solution, which may be
smaller than the (t, u) pair that produced the candidate.
"""

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .pellforms import (DiscriminantRecord, class_number, in_Dpm,
                        pell_fundamental)
from .quadfield import FieldCtx, QuadInt, canonical_disc, lattice_points
from .specfun import li

__all__ = [
    "GeodesicClass", "GeodesicWindow", "CountReport",
    "square_divisor_quotients", "enumerate_geodesics", "pgt_report",
    "class_average_report",
]


@dataclass(frozen=True)
class GeodesicClass:
    """A family of primitive hyperbolic-elliptic conjugacy classes
    sharing one canonical discriminant.

    multiplicity counts the form classes of d, each contributing one
    conjugacy class with the same norm and angle.
    """

    d: QuadInt
    norm: float
    angle: float
    multiplicity: int
    record: DiscriminantRecord

    def __post_init__(self) -> None:
        if not self.norm > 1.0:
            raise ValidationError("class norm must exceed 1")
        if not 0.0 < self.angle < math.pi:
            raise ValidationError("rotation angle must lie in (0, pi)")
        if self.multiplicity < 1:
            raise ValidationError("multiplicity must be positive")


def _class_order(c: GeodesicClass) -> Tuple[float, int, int]:
    return (c.norm, c.d.a, c.d.b)


def _column(values: Iterable[float]) -> np.ndarray:
    col = np.array(list(values), dtype=float)
    col.setflags(write=False)
    return col


@dataclass(frozen=True, init=False)
class GeodesicWindow(Sequence[GeodesicClass]):
    """A class list and the norm bound it is complete up to.

    Classes are held in the one class order: by norm, ties broken by
    the discriminant.  Class sums accumulate in this order, so results
    do not depend on the order the classes were handed in.  Classes
    pair with their inverses (angle and its negative), so every
    multiplicity must be even; that is checked once, here.  coverage
    defaults to the largest listed norm.

    The array evaluators read the window as read-only float columns in
    class order: norms, log_norms, angles and halves (h/2).  Columns
    and fitted constants are derived on first use and left out of the
    pickle, so a cached window rebuilds them after a load.
    """

    classes: Tuple[GeodesicClass, ...]
    coverage: float

    def __init__(self, classes: Iterable[GeodesicClass],
                 coverage: Optional[float] = None) -> None:
        ordered = tuple(sorted(classes, key=_class_order))
        for c in ordered:
            if c.multiplicity % 2:
                raise InvariantViolation(
                    f"odd class multiplicity {c.multiplicity} at "
                    f"d=({c.d.a},{c.d.b}); inverse pairing broken")
        if coverage is None:
            coverage = max((c.norm for c in ordered), default=0.0)
        object.__setattr__(self, "classes", ordered)
        object.__setattr__(self, "coverage", float(coverage))

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def __iter__(self) -> Iterator[GeodesicClass]:
        return iter(self.classes)

    def __getstate__(self) -> Dict[str, object]:
        return {"classes": self.classes, "coverage": self.coverage}

    def count_upto(self, x: float) -> int:
        """Number of leading classes with norm <= x, the one cut every
        truncated sum takes; x must lie within the coverage."""
        if x > self.coverage * (1.0 + 1e-9):
            raise ValidationError(
                f"class list covers norms <= {self.coverage:.6g} but "
                f"trunc_norm={x:.6g}; enumerate geodesics to "
                f"x >= {math.sqrt(x):.6g} first")
        return int(np.searchsorted(self.norms, x * (1.0 + 1e-12),
                                   side="right"))

    def upto(self, x: float) -> Tuple[GeodesicClass, ...]:
        """Classes with norm <= x; x must lie within the coverage."""
        return self.classes[:self.count_upto(x)]

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return _column(c.norm for c in self.classes)

    @functools.cached_property
    def log_norms(self) -> np.ndarray:
        return _column(math.log(c.norm) for c in self.classes)

    @functools.cached_property
    def angles(self) -> np.ndarray:
        return _column(c.angle for c in self.classes)

    @functools.cached_property
    def halves(self) -> np.ndarray:
        return _column(c.multiplicity // 2 for c in self.classes)

    @functools.cached_property
    def count_constant(self) -> float:
        """Fitted C with #{N(p) <= T} <= C*li(T) over the listed classes.

        Diagnostic constant: fitted from the very list being truncated,
        with a safety factor, not an a-priori bound.  With no listed
        norm >= 3 the fit falls back to C = 1.6 * 4.
        """
        cum = 0
        best = 0.0
        for c in self.classes:
            cum += c.multiplicity
            if c.norm >= 3.0:
                best = max(best, cum / li(c.norm))
        return 1.6 * (best or 4.0)

    @functools.cached_property
    def weighted_count_constant(self) -> float:
        """Fitted C2 with sum_{N<=T} h*log N <= C2*T over the listed
        classes."""
        cum = 0.0
        best = 0.0
        for c in self.classes:
            cum += c.multiplicity * math.log(c.norm)
            best = max(best, cum / c.norm)
        return 1.5 * (best or 4.0)


@dataclass(frozen=True)
class CountReport:
    """Counting sums at a cutoff x, with the smooth main terms.

    main_terms is (x^2, 2*li(x^2)).  The named entries in residuals
    record which main term each sum was compared against; secondary
    terms from small eigenvalues are not modelled, so residuals are
    informational rather than asserted.
    """

    x: float
    psi_sum: float
    pi_sum: int
    main_terms: Tuple[float, float]
    residuals: Dict[str, float]


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


def enumerate_geodesics(F: FieldCtx, x: float, height: float = 8.0,
                        trace_bound: float = None) -> GeodesicWindow:
    """All classes with eps_K(d) <= x, as a window covering the largest
    listed norm.

    trace_bound overrides the first-embedding box edge x + 1/x; any
    larger value returns the identical list, since candidates whose
    fundamental solution lands outside eps <= x are filtered after the
    Pell step.  On a budget error the exception carries the classes
    found so far in .partial and .incomplete = True.
    """
    if x < 1.0:
        raise ValidationError("geodesic cutoff needs x >= 1")
    D = F.D
    four = QuadInt(D, 4, 0)
    bound1 = x + 1.0 / x if trace_bound is None else float(trace_bound)
    cands: Dict[Tuple[int, int], QuadInt] = {}
    for t in lattice_points(D, bound1, 2.0):
        if t.embed(1) <= 2.0 or abs(t.embed(2)) >= 2.0:
            continue
        P = t * t - four
        for d in square_divisor_quotients(P, F):
            if not in_Dpm(d):
                continue
            dc = canonical_disc(d, F)
            cands.setdefault((dc.a, dc.b), dc)
    classes: List[GeodesicClass] = []
    pell_cap = max(2.0 * x, 25.0)
    try:
        for key in sorted(cands):
            dc = cands[key]
            try:
                pell = pell_fundamental(dc, F, eps_cap=pell_cap)
            except BudgetExceededError:
                # fundamental solution beyond 2x: class is out of range
                continue
            if pell.eps_d > x * (1.0 + 1e-12):
                continue
            rec = class_number(dc, F, height=height, pell=pell)
            t2 = rec.pell.t0.embed(2)
            classes.append(GeodesicClass(
                d=rec.d, norm=rec.pell.eps_d ** 2,
                angle=math.acos(t2 / 2.0),
                multiplicity=rec.class_number, record=rec))
    except BudgetExceededError as exc:
        exc.partial = tuple(sorted(classes, key=_class_order))
        exc.incomplete = True
        raise
    return GeodesicWindow(classes)


def _report(x: float, classes: Sequence[GeodesicClass],
            geodesic_scale: bool) -> CountReport:
    sub = [c for c in classes if c.norm <= x * x * (1.0 + 1e-12)]
    base = sum(c.multiplicity * math.log(c.norm) for c in sub)
    psi = base if geodesic_scale else 0.5 * base
    pi_sum = sum(c.multiplicity for c in sub)
    X = x * x
    li_main = 2.0 * li(X)
    psi_main = 2.0 * X if geodesic_scale else X
    residuals = {
        "psi_main": psi_main,
        "psi_resid": psi - psi_main,
        "psi_ratio": psi / psi_main,
        "pi_main": li_main,
        "pi_resid": pi_sum - li_main,
        "pi_ratio": pi_sum / li_main if li_main != 0.0 else math.inf,
    }
    return CountReport(x=x, psi_sum=psi, pi_sum=pi_sum,
                       main_terms=(X, li_main), residuals=residuals)


def pgt_report(F: FieldCtx, x_grid: Sequence[float],
               height: float = 8.0) -> List[CountReport]:
    """Geodesic-side counts on a grid: psi_sum = sum h(d) log N(p)
    over N(p) <= x^2, against main term 2x^2; pi_sum against 2 li(x^2)."""
    xs = sorted(float(x) for x in x_grid)
    if not xs:
        return []
    if xs[0] <= 1.0:
        raise ValidationError("report grid needs x > 1")
    classes = enumerate_geodesics(F, xs[-1], height=height)
    return [_report(x, classes, geodesic_scale=True) for x in xs]


def class_average_report(F: FieldCtx, x: float,
                         height: float = 8.0) -> CountReport:
    """Discriminant-side counts: psi_sum = sum h(d) log eps(d) over
    eps(d) <= x, against main term x^2; pi_sum against 2 li(x^2)."""
    if x <= 1.0:
        raise ValidationError("report cutoff needs x > 1")
    classes = enumerate_geodesics(F, x, height=height)
    return _report(x, classes, geodesic_scale=False)
