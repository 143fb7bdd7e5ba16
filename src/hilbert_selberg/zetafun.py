"""Zeta functions attached to the geodesic class data.

selberg_zeta and selberg_log_deriv evaluate the weighted Euler product
over a GeodesicWindow in its convergence half-plane Re(s) > 1, with
truncation tail bounds derived from the window's fitted counting
constants.  ruelle evaluates the weight-2 ratio up to the window's
coverage and cross-checks it against the direct product.  The
remaining operations are exact bookkeeping: residue exponent tables,
completed factors, the trivial zero/pole ledger, the leading term at
s = 0, and the sine/Gamma factor identities of the functional equation.

The products are array expressions over the window's columns: one
array of (class, power) terms, summed over the powers of each class and
then with np.sum over the classes in the window's class order, so
results are reproducible run to run.  selberg_zeta stops each class's
inner product at the depth where every further power is below 2^-60 of
that class's leading term, which is below the rounding the sum already
has.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvariantViolation, ValidationError
from .geodesics import GeodesicWindow
from .quadfield import FieldCtx
from .specfun import loggamma, loggamma2, xi_ratio, zeta_eps

TWO_PI = 2.0 * math.pi


# powers past this log-size are below 2^-60 of their class's leading term
_NEGLIGIBLE = 60.0 * math.log(2.0)


# ------------------------------------------------------------ parameters

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
        if self.m < 2 or self.m % 2:
            raise ValidationError(f"weight m={self.m} must be even and >= 2")
        if not (self.trunc_norm >= 3.0 and math.isfinite(self.trunc_norm)):
            raise ValidationError(
                f"trunc_norm {self.trunc_norm} must be finite and >= 3")
        if self.trunc_k < 0:
            raise ValidationError(f"trunc_k {self.trunc_k} must be >= 0")
        s = complex(self.s)
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            raise ValidationError(f"s={self.s} is not finite")


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
    total = 0.0
    for half, norm in zip(classes.halves[:n].tolist(),
                          classes.norms[:n].tolist()):
        total += (1.22 * (2.0 * half)
                  * norm ** (-(k_cut + 1 + sigma)) / (1.0 - 1.0 / norm))
    return total


# ------------------------------------------------------------ Euler products

def selberg_zeta(p: ZetaParams, classes: GeodesicWindow) -> ZetaValue:
    """Weighted product over classes with N <= trunc_norm, k <= trunc_k.

    Each listed class of multiplicity h contributes h/2 conjugate factor
    pairs (phase +angle and -angle), so values are conjugate-symmetric
    in s.  trunc_norm must lie within the window's coverage.

    The inner product of a class of norm N is evaluated to depth
    min(trunc_k, K) with K = ceil(60 ln 2 / ln N).  Power k has size
    N^-(k+sigma), so every power past K is below 2^-60 of the class's
    leading term N^-sigma, and all of them together below 2^-60/(N-1)
    of it: less than the rounding the sum already carries.  tail_bound
    is still placed at the requested trunc_k, so a depth beyond machine
    negligibility costs nothing.
    """
    p.validate()
    s = complex(p.s)
    if s.real <= 1.0:
        raise ValidationError(
            f"Euler product needs Re(s) > 1, got s={p.s}")
    n = classes.count_upto(p.trunc_norm)
    log_z = 0.0 + 0.0j
    if n:
        log_n = classes.log_norms[:n]
        depth = np.minimum(p.trunc_k, np.ceil(_NEGLIGIBLE / log_n))
        # (class, power) pairs with power <= the class's depth, in class
        # order and then power order
        row, col = np.nonzero(np.arange(depth.max() + 1) <= depth[:, None])
        z = np.exp(-(col + s) * log_n[row])
        rot = np.exp(1j * (p.m - 2) * classes.angles[:n])[row]
        acc = np.add.reduceat(
            np.log(1.0 - rot * z) + np.log(1.0 - rot.conj() * z),
            np.flatnonzero(col == 0))
        log_z = complex(np.sum(-classes.halves[:n] * acc))
    tail = (_k_tail(classes, n, s.real, p.trunc_k)
            + _norm_tail(classes, p.trunc_norm, s.real))
    return ZetaValue(value=cmath.exp(log_z), log_value=log_z,
                     tail_bound=tail)


def selberg_log_deriv(p: ZetaParams, classes: GeodesicWindow) -> ZetaValue:
    """d/ds of log selberg_zeta: prime-power sum with N(power) <= trunc_norm."""
    p.validate()
    s = complex(p.s)
    if s.real <= 1.0:
        raise ValidationError(
            f"log-derivative series needs Re(s) > 1, got s={p.s}")
    n = classes.count_upto(p.trunc_norm)
    norm, log_n = classes.norms[:n, None], classes.log_norms[:n, None]
    sigma = s.real
    total = 0.0 + 0.0j
    power_tail = 0.0
    if n:
        # run each class's power series to machine-negligible depth
        # (power ell while ell*sigma*log N <= 44) so this is the exact
        # derivative of the truncated product
        ell = np.arange(1, math.floor(44.0 / (sigma * log_n[0, 0])) + 2)
        live = ell * sigma * log_n <= 44.0
        terms = (log_n / (1.0 - norm ** (-ell))
                 * np.cos((p.m - 2) * ell * classes.angles[:n, None])
                 * np.exp(-ell * s * log_n))
        total = complex((-2.0 * classes.halves[:n])
                        @ np.sum(terms, axis=1, where=live))
        drop = norm ** (-(np.sum(live, axis=1, keepdims=True) + 1) * sigma)
        power_tail = float(np.sum(3.0 * classes.halves[:n, None] * log_n
                                  * drop / (1.0 - norm ** (-sigma))))
    unseen = (1.5 * classes.weighted_count_constant * sigma / (sigma - 1.0)
              * p.trunc_norm ** (1.0 - sigma))
    return ZetaValue(value=total, log_value=total,
                     tail_bound=power_tail + unseen)


def ruelle(s: complex, classes: GeodesicWindow) -> RuelleValue:
    """Weight-2 ratio Z(s;2)/Z(s+1;2), checked against the direct product.

    Both run over the whole window, up to its coverage; the ratio form
    asks for inner depth 80, which selberg_zeta cuts where further
    powers are machine-negligible.  The two evaluations must agree
    within the combined tail bounds; disagreement raises, since both
    are computed from the same classes.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValidationError(f"ruelle product needs Re(s) > 1, got s={s}")
    x = classes.coverage
    za = selberg_zeta(ZetaParams(s=s, m=2, trunc_norm=x, trunc_k=80),
                      classes)
    zb = selberg_zeta(ZetaParams(s=s + 1.0, m=2, trunc_norm=x, trunc_k=80),
                      classes)
    ratio = cmath.exp(za.log_value - zb.log_value)

    n = classes.count_upto(x)
    log_direct = 0.0 + 0.0j
    for half, log_n in zip(classes.halves[:n].tolist(),
                           classes.log_norms[:n].tolist()):
        log_direct -= 2.0 * half * cmath.log(1.0 - cmath.exp(-s * log_n))
    direct = cmath.exp(log_direct)
    direct_tail = _norm_tail(classes, x, s.real)

    combined = za.tail_bound + zb.tail_bound + direct_tail
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
    if m < 2 or m % 2:
        raise ValidationError(f"weight m={m} must be even and >= 2")
    half = (m - 2) // 2
    entries = []
    for nu, t in F.census_classes():
        alpha = tuple((l + t * half) % nu for l in range(nu))
        alpha_bar = tuple((l - t * half) % nu for l in range(nu))
        entries.append(AlphaEntry(nu=nu, t=t, alpha=alpha,
                                  alpha_bar=alpha_bar))
    return AlphaTable(m=m, D=F.D, entries=tuple(entries))


# ------------------------------------------------------------ completed factors

def completed_factors(s: complex, m: int,
                      F: FieldCtx) -> Dict[str, complex]:
    """The four completing factors at s, in log-space principal branch.

    Keys: Z_id, Z_ell, Z_par_sct, Z_hyp2_sct.  Any factor pole raises
    with the location and order in the message.
    """
    if m < 2 or m % 2:
        raise ValidationError(f"weight m={m} must be even and >= 2")
    s = complex(s)

    try:
        log_id = 2.0 * float(F.zeta_minus_one) * (loggamma2(s)
                                                  + loggamma2(s + 1.0))
    except ValidationError as exc:
        raise ValidationError(
            f"Z_id pole at s={s} (exponent {2 * float(F.zeta_minus_one)}): "
            f"{exc}") from exc

    tab = alpha_table(m, F)
    log_ell = 0.0 + 0.0j
    for e in tab.entries:
        for l in range(e.nu):
            w = (e.nu - 1 - e.alpha[l] - e.alpha_bar[l]) / e.nu
            if w == 0.0:
                continue
            arg = (s + l) / e.nu
            if abs(arg.imag) < 1e-12 \
                    and abs(arg.real - round(arg.real)) < 1e-12 \
                    and round(arg.real) <= 0:
                raise ValidationError(
                    f"Z_ell pole at s={s}: Gamma({arg}) pole from class "
                    f"(nu={e.nu}, t={e.t}), l={l}, exponent {w}")
            log_ell += w * loggamma(arg)

    if m >= 4:
        z_par = 1.0 + 0.0j
        try:
            z_hyp2 = (zeta_eps(s + m / 2.0 - 1.0, F)
                      / zeta_eps(s + m / 2.0 - 2.0, F))
        except ValidationError as exc:
            raise ValidationError(
                f"Z_hyp2_sct simple pole/zero line at s={s}: {exc}") from exc
    else:
        z_par = cmath.exp(-2.0 * s * F.regulator)
        try:
            z_hyp2 = zeta_eps(s, F) ** 2
        except ValidationError as exc:
            raise ValidationError(
                f"Z_hyp2_sct double pole at s={s}: {exc}") from exc

    return {
        "Z_id": cmath.exp(log_id),
        "Z_ell": cmath.exp(log_ell),
        "Z_par_sct": z_par,
        "Z_hyp2_sct": z_hyp2,
    }


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
    e = F.euler_char
    if e is None:
        raise ValidationError(f"no census attached for D={F.D}")
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
    if m < 2 or m % 2:
        raise ValidationError(f"weight m={m} must be even and >= 2")
    if k_max < 0:
        raise ValidationError(f"k_max {k_max} must be >= 0")
    spacing = math.pi / F.regulator
    entries: List[DivisorEntry] = []
    residue_note = ("order includes the -2kN residue term; a companion "
                    "closed form omits it, see the project decision log")
    if m == 2:
        entries.append(DivisorEntry(
            kind="point", base=1.0 + 0.0j, order=-2, include_k0=True,
            label="double pole at s=1 from the squared unit factor"))
        entries.append(DivisorEntry(
            kind="lattice", base=0.0 + 0.0j, order=2, include_k0=False,
            label="paired zeros on the imaginary unit lattice, k != 0"))
        for k in range(k_max + 1):
            entries.append(DivisorEntry(
                kind="point", base=complex(-k, 0.0),
                order=residue_point_order(k, m, F), include_k0=True,
                label=f"residue point s={-k}", note=residue_note))
    else:
        entries.append(DivisorEntry(
            kind="lattice", base=complex(1.0 - m / 2.0, 0.0), order=1,
            include_k0=True, label="zero lattice from the unit-factor ratio"))
        entries.append(DivisorEntry(
            kind="lattice", base=complex(2.0 - m / 2.0, 0.0), order=-1,
            include_k0=True, label="pole lattice from the unit-factor ratio"))
        for k in range(k_max + 1):
            entries.append(DivisorEntry(
                kind="point", base=complex(-k, 0.0),
                order=residue_point_order(k, m, F), include_k0=True,
                label=f"residue point s={-k}", note=residue_note))
        if m == 4:
            for base in (0.0, 1.0):
                entries.append(DivisorEntry(
                    kind="point", base=complex(base, 0.0), order=1,
                    include_k0=True,
                    label=f"extra simple zero at s={base:g} for weight 4"))
    return DivisorLedger(m=m, D=F.D, spacing=spacing, k_max=k_max,
                         entries=tuple(entries))


def order_at(ledger: DivisorLedger, s: complex, tol: float = 1e-9) -> int:
    """Summed order of all ledger families passing through s."""
    s = complex(s)
    total = 0
    for e in ledger.entries:
        if e.kind == "point":
            if abs(s - e.base) < tol:
                total += e.order
            continue
        if abs(s.real - e.base.real) >= tol:
            continue
        k = round((s.imag - e.base.imag) / ledger.spacing)
        if abs(s.imag - e.base.imag - k * ledger.spacing) >= tol:
            continue
        if k == 0 and not e.include_k0:
            continue
        total += e.order
    return total


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


# ------------------------------------------------------------ functional factors

def fe_rhs(s: complex, F: FieldCtx) -> complex:
    """Reflection-product right side; even in s, vanishes to order 2n0 at 0."""
    s = complex(s)
    e = _euler_char(F)
    census = F.census_classes()
    n_cls = len(census)
    sin_pi_s = cmath.sin(math.pi * s)
    sine_power = 2 * e - 2 * n_cls
    if abs(sin_pi_s) < 1e-12 and sine_power < 0:
        raise ValidationError(
            f"reflection product pole at s={s}: sine factors carry "
            f"order {sine_power}")
    val = (-1.0) ** e * 2.0 ** (2 * e) * sin_pi_s ** sine_power
    for nu, _ in census:
        val *= cmath.sin(math.pi * s / nu) ** 2
    scatter = (zeta_eps(s - 1.0, F) * zeta_eps(s + 1.0, F)
               / zeta_eps(s, F) ** 2)
    return val * scatter ** 2


def fe_identity_checks(F: FieldCtx, n_points: int = 20, seed: int = 20240,
                       tol: float = 1e-8,
                       nus: Optional[Sequence[int]] = None) -> Dict[str, object]:
    """Spot-check the two factor identities behind the reflection product.

    Ξ(s) must equal -4 sin^2(pi s), and the quotient of shifted Gamma
    products must collapse to (sin(pi s/nu)/sin(pi s))^2.  Sample points
    stay in a window where all the principal branches agree.
    """
    if nus is None:
        nus = sorted({nu for nu, _ in F.census_classes()})
    rng = random.Random(seed)
    xi_err = 0.0
    ratio_err = 0.0
    pts = []
    for _ in range(n_points):
        s = complex(rng.uniform(0.06, 0.44), rng.uniform(-0.5, 0.5))
        pts.append(s)
        target = -4.0 * cmath.sin(math.pi * s) ** 2
        xi_err = max(xi_err, abs(xi_ratio(s) - target) / (1.0 + abs(target)))
        for nu in nus:
            lhs = _gnu_reflection_ratio(s, nu)
            rhs = (cmath.sin(math.pi * s / nu) / cmath.sin(math.pi * s)) ** 2
            ratio_err = max(ratio_err, abs(lhs - rhs) / (1.0 + abs(rhs)))
    report = {
        "xi_max_err": xi_err,
        "gnu_ratio_max_err": ratio_err,
        "n_points": n_points,
        "nus": tuple(nus),
        "window": "Re(s) in (0.06, 0.44), |Im(s)| <= 0.5",
    }
    if xi_err > tol or ratio_err > tol:
        raise InvariantViolation(
            f"factor identity drift beyond {tol}: {report}")
    return report


def _gnu_reflection_ratio(s: complex, nu: int) -> complex:
    """G_nu(1+s)G_nu(1-s) / (G_nu(s)G_nu(-s)) * Xi(s)^(-(nu-1)/nu)."""
    log_acc = 0.0 + 0.0j
    for l in range(nu):
        w = (nu - 1 - 2 * l) / nu
        if w == 0.0:
            continue
        log_acc += w * (loggamma((1.0 + s + l) / nu)
                        + loggamma((1.0 - s + l) / nu)
                        - loggamma((s + l) / nu)
                        - loggamma((-s + l) / nu))
    log_acc -= ((nu - 1) / nu) * cmath.log(xi_ratio(s))
    return cmath.exp(log_acc)
