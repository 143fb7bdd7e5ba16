"""The exact records of a class list, and the count reports read off it.

Pell solutions, primitive forms over O_K and a discriminant's class
census; the geodesic classes they make and the GeodesicWindow that
holds them; and the prime-geodesic and class-number-average counts
over a window.  This module imports no numpy and no search layer, and
neither does unpickling what it defines, so a cached window loads and
its rows and counts are read without either.  What does need arrays
imports them when it first runs: the window's float columns and power
grid, which only the analytic modules read, and a form's primitivity
check, which construction runs and unpickling does not.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from .errors import InvariantViolation, ValidationError
from .quadfield import QuadInt
from .specfun import li

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FormOverOK", "PellSolution", "DiscriminantRecord", "GeodesicClass",
    "GeodesicWindow", "PowerGrid", "CountReport", "count_reports",
]


# ------------------------------------------------- discriminant records


FormKey = Tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class FormOverOK:
    """Primitive binary quadratic form a x^2 + b xy + c y^2 over O_K."""

    a: QuadInt
    b: QuadInt
    c: QuadInt

    def __post_init__(self):
        from .pellforms import content_norm  # a row kernel over numpy

        if not (self.a.D == self.b.D == self.c.D):
            raise ValidationError("form coefficients from different fields")
        if content_norm(self.a, self.b, self.c) != 1:
            raise ValidationError("form is not primitive")

    @property
    def disc(self) -> QuadInt:
        return self.b * self.b - 4 * (self.a * self.c)

    def key(self) -> FormKey:
        return (self.a.a, self.a.b, self.b.a, self.b.b, self.c.a, self.c.b)

    @staticmethod
    def from_key(key: FormKey, D: int) -> "FormOverOK":
        aa, ab, ba, bb, ca, cb = key
        return FormOverOK(QuadInt(D, aa, ab), QuadInt(D, ba, bb),
                          QuadInt(D, ca, cb))


@dataclass(frozen=True)
class PellSolution:
    """Fundamental solution of t^2 - d u^2 = 4 with eps_d > 1."""

    d: QuadInt
    t0: QuadInt
    u0: QuadInt

    @property
    def eps_d(self) -> float:
        return (self.t0.embed(1)
                + self.u0.embed(1) * math.sqrt(self.d.embed(1))) / 2.0

    def verify(self) -> None:
        lhs = self.t0 * self.t0 - self.d * (self.u0 * self.u0)
        if lhs != QuadInt(self.d.D, 4, 0):
            raise InvariantViolation("pell relation violated")
        if self.u0.is_zero() or self.eps_d <= 1.0:
            raise InvariantViolation("pell solution not fundamental-shaped")


@dataclass(frozen=True)
class DiscriminantRecord:
    """Canonical discriminant with its Pell data and class census."""

    d: QuadInt
    pell: PellSolution
    class_number: int
    forms: Tuple[FormOverOK, ...]

    def __post_init__(self):
        if self.class_number != len(self.forms) or self.class_number < 1:
            raise InvariantViolation("class count does not match reps")


# ------------------------------------------------------ geodesic window


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


def _eps_limit(x: float) -> float:
    """The largest eps_K(d) a window to x keeps: the one cut of
    enumerate_geodesics and GeodesicWindow.within."""
    if not math.isfinite(x):
        raise ValidationError(f"geodesic cutoff x={x} is not finite")
    if x < 1.0:
        raise ValidationError("geodesic cutoff needs x >= 1")
    return x * (1.0 + 1e-12)


def _frozen(col: np.ndarray) -> np.ndarray:
    col.setflags(write=False)
    return col


def _column(values: Iterable[float]) -> np.ndarray:
    import numpy as np

    return _frozen(np.array(list(values), dtype=float))


# every class's power series is run until its tail is below 2^-60 of
# the class's leading size
_GRID_CUT = 60.0 * math.log(2.0)


class PowerGrid(NamedTuple):
    """The (class, power l) terms of the Euler products' log-series,
    class-major: the first n classes are the prefix stops[n].

    exponent is l*log N, phase l*angle and weight h/(l*(1 - N^-l)).
    Nothing in it depends on s, the weight m or the inner depth K.
    """

    stops: np.ndarray
    exponent: np.ndarray
    phase: np.ndarray
    weight: np.ndarray

    def prefix(self, n: int, m: int = 2
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first n classes' exponents, phases and weights, each
        weight times the weight-m factor cos((m-2) * phase)."""
        g = self.stops[n]
        w, phase = self.weight[:g], self.phase[:g]
        if m != 2:  # else every cosine is 1
            import numpy as np

            w = w * np.cos((m - 2) * phase)
        return self.exponent[:g], phase, w


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
    class order: norms, log_norms, angles and halves (h/2), and the
    Euler products read power_grid, every class's log-series terms
    in the same order.  Columns, grid and fitted constants are derived
    on first use and left out of the pickle, so a cached window
    rebuilds them after a load.

    bound is the x the window was enumerated to, eps_K(d) <= x, which
    enumerate_geodesics and within record; a window built from a bare
    class list has none.  It says which cuts the window allows, not what
    it holds, so it takes no part in equality.
    """

    classes: Tuple[GeodesicClass, ...]
    coverage: float
    bound: Optional[float] = field(compare=False)

    def __init__(self, classes: Iterable[GeodesicClass],
                 coverage: Optional[float] = None,
                 bound: Optional[float] = None) -> None:
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
        object.__setattr__(self, "bound", bound)

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def __iter__(self) -> Iterator[GeodesicClass]:
        return iter(self.classes)

    def __getstate__(self) -> Dict[str, object]:
        return {"classes": self.classes, "coverage": self.coverage,
                "bound": self.bound}

    def count_upto(self, x: float) -> int:
        """Number of leading classes with norm <= x, the one cut every
        truncated sum takes; x must lie within the coverage."""
        if x > self.coverage * (1.0 + 1e-9):
            raise ValidationError(
                f"class list covers norms <= {self.coverage:.6g} but "
                f"trunc_norm={x:.6g}; enumerate geodesics to "
                f"x >= {math.sqrt(x):.6g} first")
        return bisect.bisect_right(self.classes, x * (1.0 + 1e-12),
                                   key=operator.attrgetter("norm"))

    def within(self, x: float) -> "GeodesicWindow":
        """The window enumerate_geodesics(F, x) returns, cut from this
        one, which was enumerated at the same height; its bound is x.

        Exact: the trace box of x lies inside that of any larger bound,
        so its candidates are among the larger bound's, and neither a
        candidate's Pell solution, its least trace in the box, nor its
        class number depends on the bound.  Classes are cut by
        enumerate_geodesics' own test and coverage is again the largest
        listed norm.  ValidationError when x exceeds the bound or no
        bound is recorded: the cut would miss the classes beyond it.
        """
        limit = _eps_limit(x)
        if self.bound is None or x > self.bound:
            why = ("it records no enumeration bound" if self.bound is None
                   else f"it was enumerated to x = {self.bound:.6g} only")
            raise ValidationError(f"cannot cut the window at x = {x:.6g}: "
                                  f"{why}")
        return GeodesicWindow((c for c in self.classes
                               if c.record.pell.eps_d <= limit), bound=x)

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
    def power_grid(self) -> PowerGrid:
        """The terms l = 1..L of every class's log-series.

        A class of norm N and multiplicity h runs to
        L = ceil((60 ln 2 - 2 ln(1 - 1/N)) / ln N), the same L for every
        s, which leaves out less than 2^-60 of the class's leading size
        h N^-sigma (h ln N N^-sigma for the derivative) at every
        sigma = Re s > 1.  Proof: term l of log Z(s; m) has modulus at
        most h N^-(l sigma) / (1 - N^-l), since |cos| <= 1, 1/l <= 1
        and the inner-depth factor 1 - N^-(l(K+1)) lies in [0, 1]; term
        l of d/ds log Z is at most ln N times that, and the ratio
        form's weights are smaller still.  With
        1/(1 - N^-l) <= 1/(1 - 1/N), the terms l > L sum to at most
        N^-((L+1) sigma) / ((1 - 1/N)(1 - N^-sigma)) of h (times ln N),
        that is N^-(L sigma) / ((1 - 1/N)(1 - N^-sigma)) of the leading
        size, which is below N^-L / (1 - 1/N)^2 as sigma > 1, and that
        is at most 2^-60 by the choice of L.

        The trace formulas' HE sums read the same grid.  Their term l,
        (h/2) ln N g1(l ln N) / (N^(l/2) - N^-(l/2)) times a cosine
        factor of modulus <= 2 or a Chebyshev ratio of modulus
        <= |m - 1|, is at most that factor times C/2 times term l of
        the derivative's bound at sigma = kappa + 1/2 > 1 whenever
        |g1(u)| <= C e^(-kappa u) with kappa > 1/2.  So the same L
        leaves out less than 2^-60 of C (h/2) ln N N^-(kappa+1/2) times
        the factor.  Rational pairs are refused at kappa - 1/2 <= 0.01;
        a Gaussian has every kappa, with C = g1(0) e^(kappa^2 beta).
        """
        import numpy as np

        log_n = self.log_norms
        depth = np.ceil((_GRID_CUT - 2.0 * np.log1p(-1.0 / self.norms))
                        / log_n).astype(np.int64)
        stops = np.concatenate(([0], np.cumsum(depth)))
        row = np.repeat(np.arange(len(self)), depth)
        ell = (np.arange(stops[-1]) - stops[row] + 1).astype(float)
        exponent = ell * log_n[row]
        weight = 2.0 * self.halves[row] / (ell * -np.expm1(-exponent))
        return PowerGrid(stops=_frozen(stops), exponent=_frozen(exponent),
                         phase=_frozen(ell * self.angles[row]),
                         weight=_frozen(weight))

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


# -------------------------------------------------------- count reports


@dataclass(frozen=True)
class CountReport:
    """Counting sums at a cutoff x, against their smooth main terms.

    residuals holds each main term (psi_main, pi_main) with the
    difference and ratio of its sum to it; secondary terms from small
    eigenvalues are not modelled, so residuals are informational rather
    than asserted.
    """

    x: float
    psi_sum: float
    pi_sum: int
    residuals: Dict[str, float]


def _report(x: float, classes: Sequence[GeodesicClass],
            geodesic_scale: bool) -> CountReport:
    sub = [c for c in classes if c.norm <= x * x * (1.0 + 1e-12)]
    base = sum((c.multiplicity * math.log(c.norm) for c in sub), 0.0)
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
    return CountReport(x=x, psi_sum=psi, pi_sum=pi_sum, residuals=residuals)


def count_reports(x_grid: Iterable[float],
                  window: Callable[[float], GeodesicWindow],
                  geodesic_scale: bool) -> List[CountReport]:
    """Count reports at the cutoffs of x_grid, in increasing order, over
    window(largest cutoff), which is asked for once and only after every
    cutoff has been checked to exceed 1.

    geodesic_scale: the geodesic side, psi_sum = sum h(d) log N(p) over
    N(p) <= x^2 against main term 2x^2; otherwise the discriminant side,
    psi_sum = sum h(d) log eps(d) over eps(d) <= x against x^2.  pi_sum
    is against 2 li(x^2) either way.
    """
    xs = sorted(float(x) for x in x_grid)
    if not xs:
        return []
    if xs[0] <= 1.0:
        raise ValidationError("report grid needs x > 1" if geodesic_scale
                              else "report cutoff needs x > 1")
    classes = window(xs[-1])
    return [_report(x, classes, geodesic_scale) for x in xs]
