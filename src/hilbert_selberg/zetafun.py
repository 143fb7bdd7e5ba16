"""Zeta functions attached to the geodesic class data.

selberg_zeta and selberg_log_deriv evaluate the weighted Euler product
over a GeodesicWindow in its convergence half-plane Re(s) > 1, with
truncation tail bounds derived from the window's fitted counting
constants.  ruelle evaluates the weight-2 ratio up to the window's
coverage and cross-checks it against the direct product.  The
remaining operations are exact bookkeeping: residue exponent tables,
the trivial zero/pole ledger and the leading term at s = 0.

The products are evaluated through their log-series.  Summing a
class's inner product over k <= K in closed form gives
log Z(s; m) = sum_c sum_l (h_c/l) cos(l (m-2) angle_c)
              (1 - N_c^-(l(K+1))) / (1 - N_c^-l) N_c^-(l s),
and d/ds log Z is the same series at K = infinity with weights
-h_c ln N_c cos(l (m-2) angle_c) / (1 - N_c^-l).  Each Euler product
is therefore one complex exp(-s l ln N) over the window's power grid
(GeodesicWindow.power_grid), cut to the classes with N <= trunc_norm,
and one dot with real weights computed per call.  The grid runs every
class's series until the rest is below 2^-60 of the class's leading
size for every Re s > 1, below the rounding the sum already has, and
keeps the window's class order, so results are reproducible run to
run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .quadfield import FieldCtx
from .records import GeodesicWindow

TWO_PI = 2.0 * math.pi

# 1 - e^-x rounds to 1.0 for every x past this
_ROUNDS_TO_ONE = 40.0
# share of a class's leading size the power grid leaves out, at most
_GRID_TAIL = 2.0 ** -60
MAX_LEDGER_K = 10000  # the deepest k_max divisor_ledger takes


# ------------------------------------------------------------ parameters

def check_weight(m: int) -> None:
    """Refuse a weight the products, tables and ledger are not defined
    at: m must be even and >= 2."""
    if m < 2 or m % 2:
        raise ValidationError(f"weight m={m} must be even and >= 2")


def check_zeta_args(s: complex, m: int) -> None:
    """Refuse what no window mends: a weight check_weight refuses, and
    an s outside the half-plane Re(s) > 1 where the products converge."""
    check_weight(m)
    if complex(s).real <= 1.0:
        raise ValidationError(f"Euler product needs Re(s) > 1, got s={s}")


@dataclass(frozen=True)
class ZetaParams:
    """Evaluation point and truncation window for the Euler products.

    trunc_norm is the norm cutoff X for the class product, trunc_k the
    inner product depth K.  Values carry a tail bound for what the
    window omits.
    """

    s: complex
    m: int
    trunc_norm: float
    trunc_k: int

    def validate(self) -> None:
        if not (self.trunc_norm >= 3.0 and math.isfinite(self.trunc_norm)):
            raise ValidationError(
                f"trunc_norm {self.trunc_norm} must be finite and >= 3")
        if self.trunc_k < 0:
            raise ValidationError(f"trunc_k {self.trunc_k} must be >= 0")
        s = complex(self.s)
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            raise ValidationError(f"s={self.s} is not finite")
        check_zeta_args(self.s, self.m)


@dataclass(frozen=True)
class ZetaValue:
    """Product value with its log and a bound on the omitted log-tail."""

    value: complex
    log_value: complex
    tail_bound: float


@dataclass(frozen=True)
class RuelleValue:
    """Ratio-form value, the direct-product value, and combined tails."""

    value: complex
    direct: complex
    tail_bound: float


# ------------------------------------------------------------ tail bounds

def _norm_tail(classes: GeodesicWindow, x: float, sigma: float) -> float:
    """Bound the k-summed log-tail of classes with norm beyond x."""
    return (1.9 * classes.count_constant * x ** (1.0 - sigma) / math.log(x)
            * (1.2 + 1.0 / (sigma - 1.0)))


def _k_tail(classes: GeodesicWindow, n: int, sigma: float,
            k_cut: int) -> float:
    """Bound the inner-product tail k > k_cut over the first n classes."""
    norm = classes.norms[:n]
    return float((1.22 * (2.0 * classes.halves[:n])
                  * norm ** (-(k_cut + 1 + sigma)) / (1.0 - 1.0 / norm)).sum())


def _zeta_tail(classes: GeodesicWindow, n: int, x: float, sigma: float,
               k_cut: int) -> float:
    """selberg_zeta's tail bound: the inner products past k_cut and the
    classes past x."""
    return _k_tail(classes, n, sigma, k_cut) + _norm_tail(classes, x, sigma)


# ------------------------------------------------------------ Euler products

def selberg_zeta(p: ZetaParams, classes: GeodesicWindow) -> ZetaValue:
    """Weighted product over classes with N <= trunc_norm, k <= trunc_k.

    Each listed class of multiplicity h contributes h/2 conjugate factor
    pairs (phase +angle and -angle), so values are conjugate-symmetric
    in s.  trunc_norm must lie within the window's coverage.

    The k-summed log-series of the module docstring runs on the
    window's power grid, whose cut holds for every Re s > 1, so any K,
    however deep, costs the same.  tail_bound is placed at the
    requested trunc_k.
    """
    p.validate()
    s = complex(p.s)
    n = classes.count_upto(p.trunc_norm)
    a, _, w = classes.power_grid.prefix(n, p.m)
    depth = p.trunc_k + 1.0
    # a[0], the smallest norm's log, is the least exponent: past the cut
    # every depth factor 1 - N^-(l(K+1)) is 1.0
    if n and depth * a[0] < _ROUNDS_TO_ONE:
        w = w * -np.expm1(-depth * a)
    log_z = complex(w @ np.exp(a * -s))
    return ZetaValue(value=cmath.exp(log_z), log_value=log_z,
                     tail_bound=_zeta_tail(classes, n, p.trunc_norm, s.real,
                                           p.trunc_k))


def selberg_log_deriv(p: ZetaParams, classes: GeodesicWindow) -> ZetaValue:
    """d/ds of log selberg_zeta at infinite inner depth: the prime-power
    sum -sum_l h ln N cos(l (m-2) angle) / (1 - N^-l) N^-(l s) over the
    classes with N <= trunc_norm, on the same power grid and with the
    same 2^-60 cut as selberg_zeta.

    tail_bound is the grid's own bound on the powers it leaves out,
    2^-60 of each kept class's leading size h ln N N^-sigma, plus the
    classes past trunc_norm.
    """
    p.validate()
    s = complex(p.s)
    n = classes.count_upto(p.trunc_norm)
    a, _, w = classes.power_grid.prefix(n, p.m)
    total = complex((-a * w) @ np.exp(a * -s))
    sigma = s.real
    power_tail = _GRID_TAIL * float((2.0 * classes.halves[:n]
                                     * classes.log_norms[:n])
                                    @ classes.norms[:n] ** -sigma)
    unseen = (1.5 * classes.weighted_count_constant * sigma / (sigma - 1.0)
              * p.trunc_norm ** (1.0 - sigma))
    return ZetaValue(value=total, log_value=total,
                     tail_bound=power_tail + unseen)


def ruelle(s: complex, classes: GeodesicWindow) -> RuelleValue:
    """Weight-2 ratio Z(s;2)/Z(s+1;2), checked against the direct product.

    Both run over the whole window, up to its coverage.  The ratio form
    is the weight-2 products at inner depth 80, whose log difference is
    one grid series with weights (h/l)(1 - N^-(81 l)); the direct
    product sums log(1 - N^-s) class by class.  The two must agree
    within the combined tail bounds; disagreement raises, since both
    are computed from the same classes.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValidationError(f"s={s} is not finite")
    if s.real <= 1.0:
        raise ValidationError(f"ruelle product needs Re(s) > 1, got s={s}")
    x = classes.coverage
    n = classes.count_upto(x)
    a, _, w = classes.power_grid.prefix(n)
    ratio = cmath.exp(complex((w * np.expm1(-81.0 * a) * np.expm1(-a))
                              @ np.exp(a * -s)))
    log_direct = complex((-2.0 * classes.halves[:n])
                         @ np.log(1.0 - np.exp(-s * classes.log_norms[:n])))
    direct = cmath.exp(log_direct)

    combined = (_zeta_tail(classes, n, x, s.real, 80)
                + _zeta_tail(classes, n, x, s.real + 1.0, 80)
                + _norm_tail(classes, x, s.real))
    slack = combined + 1e-11 * (1.0 + abs(ratio))
    if abs(ratio - direct) > slack:
        raise InvariantViolation(
            f"ratio form {ratio} vs direct product {direct} differ by "
            f"{abs(ratio - direct):.3e}, beyond combined tail {slack:.3e}")
    return RuelleValue(value=ratio, direct=direct,
                       tail_bound=combined)


# ------------------------------------------------------------ exponent tables

@dataclass(frozen=True)
class AlphaEntry:
    """Residue exponents for one finite-order class (nu, t)."""

    nu: int
    t: int
    alpha: Tuple[int, ...]
    alpha_bar: Tuple[int, ...]


@dataclass(frozen=True)
class AlphaTable:
    """Per-class least nonnegative residues and the integer beta exponents."""

    m: int
    D: int
    entries: Tuple[AlphaEntry, ...]

    def beta(self, k: int, j: int) -> int:
        """Integer exponent for lattice depth k at class index j."""
        if k < 0:
            raise ValidationError(f"beta needs k >= 0, got {k}")
        e = self.entries[j]
        l = k % e.nu
        num = e.alpha[l] + e.alpha_bar[l] - 2 * l
        if num % e.nu:
            raise InvariantViolation(
                f"beta not integral at m={self.m}, k={k}, class "
                f"(nu={e.nu}, t={e.t}): {num}/{e.nu}")
        return num // e.nu

    def beta_sum(self, k: int) -> int:
        return sum(self.beta(k, j) for j in range(len(self.entries)))


def alpha_table(m: int, F: FieldCtx) -> AlphaTable:
    """Exponent residues for even weight m over the field's class census."""
    check_weight(m)
    half = (m - 2) // 2
    entries = []
    for nu, t in F.census_classes():
        alpha = tuple((l + t * half) % nu for l in range(nu))
        alpha_bar = tuple((l - t * half) % nu for l in range(nu))
        entries.append(AlphaEntry(nu=nu, t=t, alpha=alpha,
                                  alpha_bar=alpha_bar))
    return AlphaTable(m=m, D=F.D, entries=tuple(entries))


# ------------------------------------------------------------ divisor ledger

@dataclass(frozen=True)
class DivisorEntry:
    """One point or one vertical lattice family of trivial zeros/poles.

    Lattice entries live at base + (pi*i/log eps)*k; include_k0 marks
    whether the k=0 point belongs to the family.  Positive order means
    zero, negative means pole.
    """

    kind: str
    base: complex
    order: int
    include_k0: bool
    label: str
    note: str = ""


@dataclass(frozen=True)
class DivisorLedger:
    """Symbolic catalog of trivial zeros and poles for one weight."""

    m: int
    D: int
    spacing: float
    k_max: int
    entries: Tuple[DivisorEntry, ...]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "D": self.D,
            "lattice_spacing": self.spacing,
            "k_max": self.k_max,
            "entries": [
                {
                    "kind": e.kind,
                    "base": [e.base.real, e.base.imag],
                    "order": e.order,
                    "include_k0": e.include_k0,
                    "label": e.label,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }


def _euler_char(F: FieldCtx) -> int:
    F.census_classes()  # a field without a census is refused
    e = F.euler_char
    if e.denominator != 1:
        raise InvariantViolation(f"non-integral euler characteristic {e}")
    return int(e)


def residue_point_order(k: int, m: int, F: FieldCtx) -> int:
    """Order at s=-k from the residue count of the completed product.

    Includes the -2kN term the residue computation produces; N is the
    number of finite-order classes.
    """
    if k < 0:
        raise ValidationError(f"residue point needs k >= 0, got {k}")
    e = _euler_char(F)
    census = F.census_classes()
    tab = alpha_table(m, F)
    floor_sum = sum(k // nu for nu, _ in census)
    return ((2 * k + 1) * e + 2 * floor_sum - 2 * k * len(census)
            - tab.beta_sum(k))


def divisor_ledger(m: int, F: FieldCtx, k_max: int = 20) -> DivisorLedger:
    """All trivial zero/pole families for weight m, orders summed at overlaps."""
    check_weight(m)
    if k_max < 0:
        raise ValidationError(f"k_max {k_max} must be >= 0")
    if k_max > MAX_LEDGER_K:
        raise BudgetExceededError(
            f"k_max {k_max} is past the ledger limit {MAX_LEDGER_K}")
    spacing = math.pi / F.regulator
    residue_note = ("order includes the -2kN residue term; a companion "
                    "closed form omits it, see the project decision log")
    if m == 2:
        head = [("point", 1.0, -2, True,
                 "double pole at s=1 from the squared unit factor"),
                ("lattice", 0.0, 2, False,
                 "paired zeros on the imaginary unit lattice, k != 0")]
    else:
        head = [("lattice", 1.0 - m / 2.0, 1, True,
                 "zero lattice from the unit-factor ratio"),
                ("lattice", 2.0 - m / 2.0, -1, True,
                 "pole lattice from the unit-factor ratio")]
    entries = [DivisorEntry(kind, complex(base), order, k0, label)
               for kind, base, order, k0, label in head]
    entries += [DivisorEntry("point", complex(-k),
                             residue_point_order(k, m, F), True,
                             f"residue point s={-k}", residue_note)
                for k in range(k_max + 1)]
    if m == 4:
        entries += [DivisorEntry(
            "point", complex(base), 1, True,
            f"extra simple zero at s={base:g} for weight 4")
            for base in (0.0, 1.0)]
    return DivisorLedger(m=m, D=F.D, spacing=spacing, k_max=k_max,
                         entries=tuple(entries))


# ------------------------------------------------------------ leading term

def ruelle_leading(F: FieldCtx) -> Dict[str, object]:
    """Order and absolute leading coefficient of the weight-2 ratio at s=0."""
    e = _euler_char(F)
    census = F.census_classes()
    prod_nu = 1
    for nu, _ in census:
        prod_nu *= nu
    eps1 = F.eps1
    log_eps = F.regulator
    abs_leading = (TWO_PI ** e / prod_nu
                   * (2.0 * eps1 * log_eps) ** 2 / (eps1 ** 2 - 1.0) ** 2)
    return {
        "n0": e + 2,
        "abs_leading": abs_leading,
        "euler_char": e,
        "stabilizer_product": prod_nu,
    }
