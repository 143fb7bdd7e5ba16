"""The class number h(d) by Hecke's class number formula, with a proven error.

For a mixed-sign discriminant d over K = Q(sqrt D), K of class number
one, L = K(sqrt d) has two real places over the first place of K and a
complex one over the second.  Write (d) = f g^2, f the conductor of the
quadratic character chi of L/K, and A = D N(f).  Then

    h(d) = (sqrt(D)/pi) sqrt|N(d)| L(1, chi) prod_{P | g} (1 - chi(P)/N(P))
           / log eps_d,

eps_d = (t0 + u0 sqrt d)/2 the Pell unit (Hecke, Vorlesungen ueber die
Theorie der algebraischen Zahlen, 1923).  The constant, with O_d the
order O_K[(b + sqrt d)/2] of relative discriminant d:
- a form (a, b, c) is N_{L/K}(x a + y (-b + sqrt d)/2)/a on the O_d-ideal
  I = (a, (-b + sqrt d)/2), and SL(2, O_K)-classes of primitive forms
  are the pairs (I, nu), N(I) = (nu), modulo (I, nu) ~ (lam I, N(lam) nu),
  so h(d) = |Pic(O_d)| [O_K^x : N(O_d^x)];
- |Pic(O_d)| = h_L N(g) prod_{P | g} (1 - chi(P)/N(P)) / [O_L^x : O_d^x];
- Dirichlet's formula for L (r_1 = 2, r_2 = 1, w = 2, |d_L| = D^2 N(f))
  over that for K (h_K = 1) gives L(1, chi) = 2 pi h_L R_L / (sqrt(A) R_K);
- the units -1, eps_K and eps_d span a subgroup U of O_d^x of regulator
  2 R_K log eps_d (eps_d has absolute value 1 at the complex place), and
  N maps O_d^x / U one to one onto N(O_d^x) / eps_K^(2Z), whose index in
  O_K^x / eps_K^(2Z), of order 4, is [O_K^x : N(O_d^x)].  So
  R_L [O_L^x : O_d^x] = R(O_d) = R_K log eps_d [O_K^x : N(O_d^x)] / 2.
Together h(d) = sqrt(A) N(g) L(1, chi) prod (1 - chi(P)/N(P)) / (pi log eps_d),
and sqrt(A) N(g) = sqrt(D |N(d)|).

L(1, chi) is summed from the functional equation.  chi is unramified at
the real place where d > 0 and ramified at the other, so the gamma
factor is Gamma_R(s) Gamma_R(s + 1) = Gamma_C(s) = 2 (2 pi)^(-s) Gamma(s),
and Lambda(s) = A^(s/2) Gamma_C(s) L(s) = Lambda(1 - s): the root number
of a quadratic character is 1, as Lambda = Lambda_L / Lambda_K.  As
A^(s/2) Gamma_C(s) n^(-s) = 2 int_0^oo e^(-2 pi n y/sqrt A) y^s dy/y,
Lambda(s) = 2 int_0^oo theta(y) y^s dy/y with theta(y) = sum_n a_n
e^(-2 pi n y/sqrt A), and theta(1/y) = y theta(y).  Splitting the
integral at u0 and folding (0, u0) onto (1/u0, oo) by y -> 1/y gives,
at s = 1, with c_n = 2 pi n / sqrt(A) and Lambda(1) = sqrt(A) L(1)/pi,

    L(1) = sum_n a_n [e^(-c_n u0)/n + (2 pi/sqrt A) E_1(c_n/u0)]

for every u0 > 0.  A wrong conductor or a wrong chi(P) breaks the
functional equation and makes the sum depend on u0; this module sums at
u0 = 1 and u0 = 1/2 and raises when the two differ by more than their
proven errors.

The local data are exact (Cohen, GTM 193, on relative quadratic
extensions).  For odd P the conductor exponent is v_P(d) mod 2 and chi(P)
is Euler's criterion on the unit part of d; for P not dividing 2d that
is a Legendre symbol of d.a + d.b r (split or ramified p, r a root of
w's polynomial mod p) or of N(d) (inert p).  For P | 2, e = v_P(2):
2e + 1 if v_P(d) is odd; else, alpha = d / pi^v_P(d), 0 when alpha is a
square mod P^(2e) (chi(P) = 1 exactly when it is one mod P^(2e+1)), and
2e - t + 1 otherwise, t the largest k with alpha a square mod P^k.  A
generator of P is searched only for the primes above 2 and above the p
dividing N(d), once per field and prime.
"""

import functools
import math
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation
from .quadfield import (FieldCtx, QuadInt, _coord_mul, _lattice_ranges,
                        _omega_trace_norm)
from .records import PellSolution
from .specfun import exp1

__all__ = ["AnalyticClassNumber", "analytic_class_number", "MAX_TERMS"]

# the most Dirichlet coefficients one value may sum; more raises
# BudgetExceededError
MAX_TERMS = 1 << 22
# each evaluation's truncation tail, in units of h
_H_TAIL = 1e-9
# relative error of one summed term: E_1 (1e-14 against mpmath), the
# exponential, c_n and the products; also that of the constant in front
_TERM_ERR = 1e-13
_UNIT_ROUNDING = 2.0 ** -53
# the two split points of the theta integral: E_1(c_n/u0) at u0 = 1/2 is
# E_1(c_2n), so both sums read one E_1 grid
_U0 = (1.0, 0.5)
# rows of the box that one generator search may scan
_GENERATOR_ROWS = 1 << 16


class AnalyticClassNumber(NamedTuple):
    """h(d) by the class number formula: the value at u0 = 1, its proven
    error, and the number of Dirichlet coefficients summed."""

    value: float
    error: float
    terms: int

    @property
    def count(self) -> int:
        return round(self.value)

    @property
    def off(self) -> float:
        """|h - round h|, at most error."""
        return abs(self.value - self.count)


# ------------------------------------------------------------ primes


class _Sieve(NamedTuple):
    """Multiplicative structure of 1..bound: the primes, and for each n
    the power q of its least prime exactly dividing it and m = n/q, with
    the n > 1 grouped by their number of distinct prime factors."""

    primes: np.ndarray
    q: np.ndarray
    m: np.ndarray
    levels: Tuple[np.ndarray, ...]


def _bound(n: int) -> int:
    """The power of two, at least 256, that holds 1..n."""
    return max(256, 1 << (n - 1).bit_length())


@functools.cache
def _sieve(bound: int) -> _Sieve:
    n = np.arange(bound + 1)
    spf = n.copy()
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            seg = spf[p * p::p]
            seg[seg == n[p * p::p]] = p
    spf[:2] = 1
    q, m = spf.copy(), n // spf
    while True:
        more = (m % spf == 0) & (spf > 1)
        if not more.any():
            break
        q[more] *= spf[more]
        m[more] //= spf[more]
    omega = np.zeros(bound + 1, dtype=np.int64)
    for _ in range(bound.bit_length()):
        omega[2:] = omega[m[2:]] + 1
    levels = tuple(np.flatnonzero(omega == j)
                   for j in range(1, int(omega.max()) + 1))
    return _Sieve(np.flatnonzero((spf == n) & (n > 1)), q, m, levels)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    s, q = 0, p - 1
    while q % 2 == 0:
        s, q = s + 1, q // 2
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots(D: int, p: int) -> Tuple[int, ...]:
    """The distinct roots mod p of w's polynomial X^2 - t X + n: two for
    split p, one for ramified p, none for inert p.  Its discriminant is D."""
    t, n = _omega_trace_norm(D)
    if p == 2:
        return tuple(x for x in (0, 1) if (x * x - t * x + n) % 2 == 0)
    if D % p == 0:
        return (t * (p + 1) // 2 % p,)
    if pow(D % p, (p - 1) // 2, p) != 1:
        return ()
    s, half = _sqrt_mod(D, p), (p + 1) // 2
    return ((t + s) * half % p, (t - s) * half % p)


class _Primes(NamedTuple):
    """The primes up to a bound with the roots of w's polynomial mod
    each: r1 = r2 for ramified p, and -1 for inert p."""

    p: np.ndarray
    r1: np.ndarray
    r2: np.ndarray


@functools.cache
def _prime_table(D: int, bound: int) -> _Primes:
    ps = _sieve(bound).primes
    roots = [_roots(D, int(p)) for p in ps]
    r1 = np.array([r[0] if r else -1 for r in roots], dtype=np.int64)
    r2 = np.array([r[-1] if r else -1 for r in roots], dtype=np.int64)
    return _Primes(ps, r1, r2)


def _legendre(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Euler's criterion a^((p-1)/2) mod p as -1, 0 or 1, elementwise for
    odd primes p below 2^31 (1 for p = 2)."""
    e, r, b = (p - 1) // 2, np.ones_like(p), a % p
    while e.any():
        odd = (e & 1) == 1
        r[odd] = r[odd] * b[odd] % p[odd]
        b = b * b % p
        e >>= 1
    return np.where(r == p - 1, -1, r)


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out = []
    for p in _sieve(_bound(math.isqrt(n) + 1)).primes.tolist():
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    return out + ([n] if n > 1 else [])


# ------------------------------------------------------ local data


@functools.cache
def _generator(D: int, p: int, r: int, eps1: float) -> QuadInt:
    """A generator of the prime P = (p, w - r) of norm p over the field
    of class number one with fundamental unit eps1 > 1.  Some unit
    multiple of a generator has |pi_1|, |pi_2| <= sqrt(p eps1), and the
    elements x + y w of P are those with x = -y r (mod p)."""
    cap = math.sqrt(p * eps1) * (1.0 + 1e-9)
    rows = list(_lattice_ranges(D, cap, cap))
    if len(rows) > _GENERATOR_ROWS:
        raise BudgetExceededError(
            f"generator search for a prime above {p} over {len(rows)} rows")
    for y, lo, hi in rows:
        for x in range(lo + (-y * r - lo) % p, hi + 1, p):
            pi = QuadInt(D, x, y)
            if abs(pi.norm()) == p:
                return pi
    raise InvariantViolation(f"no generator of norm {p} in its box, D={D}")


def _valuation(x: QuadInt, pi: QuadInt) -> Tuple[int, QuadInt]:
    """v_P(x) for P = (pi), and x / pi^v."""
    v = 0
    while pi.divides(x):
        x, v = x.exact_div(pi), v + 1
    return v, x


@functools.cache
def _square_depths(D: int, pa: int, pb: int, e: int) -> np.ndarray:
    """For each unit alpha mod 8 O_K, as an 8x8 table on its coordinates:
    the largest k <= 2e + 1 with alpha a square mod P^k, P = (pa + pb w)
    above 2 with e = v_P(2).  P^k contains 8 O_K for k <= 3e, so alpha
    and the square roots range over O_K / 8 O_K."""
    t, n = _omega_trace_norm(D)
    top = 2 * e + 1
    xa, xb = np.divmod(np.arange(64), 8)
    sa, sb = _coord_mul(xa, xb, xa, xb, t, n)
    # beta = alpha - x^2 for every alpha (rows) and x (columns)
    ba = xa[:, None] - sa[None, :]
    bb = xb[:, None] - sb[None, :]
    depth = np.zeros((64, 64), dtype=np.int64)
    pk = QuadInt(D, 1, 0)
    for k in range(1, top + 1):
        pk = pk * QuadInt(D, pa, pb)
        c, nk = pk.conj(), abs(pk.norm())
        ya, yb = _coord_mul(ba, bb, c.a, c.b, t, n)
        depth[(ya % nk == 0) & (yb % nk == 0)] = k
    return depth.max(axis=1).reshape(8, 8)


class _Local(NamedTuple):
    """The local data of d: N(f), the product over P | g of
    1 - chi(P)/N(P), and the local polynomial 1 - e1 X + e2 X^2 of each
    rational p dividing 2 N(d)."""

    norm_f: int
    g_factor: float
    polys: Dict[int, Tuple[int, int]]


def _local_data(d: QuadInt, F: FieldCtx) -> _Local:
    """The local data of d at every prime above 2 or dividing N(d), by
    the rules of the module docstring; the valuations must make up
    |N(d)|, and each conductor exponent must leave an even v_P(g^2)."""
    D = d.D
    nd = d.norm()
    norm_f, g_factor, polys, seen = 1, 1.0, {}, 1
    for p in sorted({2, *_prime_factors(abs(nd))}):
        roots = _roots(D, p)
        # the primes above p: (root of P = (p, w - r), or None for the
        # inert P = (p), and N(P))
        above = ([(r, p) for r in roots] if roots else [(None, p * p)])
        chis = []
        for r, norm_p in above:
            residue = None if r is None else (d.a + d.b * r) % p
            if p == 2 or residue == 0 or (r is None and nd % p == 0):
                pi = (QuadInt(D, p, 0) if r is None
                      else _generator(D, p, r, F.eps1))
                v, alpha = _valuation(d, pi)
            else:
                pi, v, alpha = None, 0, d
            if p == 2:
                e = 2 if len(roots) == 1 else 1
                if v % 2:
                    f, chi = 2 * e + 1, 0
                else:
                    t = int(_square_depths(D, pi.a, pi.b, e)[
                        alpha.a % 8, alpha.b % 8])
                    f, chi = ((0, 1) if t > 2 * e else (0, -1) if t == 2 * e
                              else (2 * e - t + 1, 0))
            else:
                f = v % 2
                unit = (alpha.norm() if r is None
                        else alpha.a + alpha.b * r) % p
                chi = 0 if f else (1 if pow(unit, (p - 1) // 2, p) == 1
                                   else -1)
            if f > v or (v - f) % 2:
                raise InvariantViolation(
                    f"conductor exponent {f} at a prime above {p} does not "
                    f"fit v = {v} for d={d}")
            norm_f *= norm_p ** f
            seen *= norm_p ** v
            if v > f:
                g_factor *= 1.0 - chi / norm_p
            chis.append(chi)
        polys[p] = ((chis[0] + chis[1], chis[0] * chis[1]) if len(roots) == 2
                    else (chis[0], 0) if roots else (0, -chis[0]))
    if seen != abs(nd):
        raise InvariantViolation(
            f"prime valuations of d={d} give norm {seen}, not {abs(nd)}")
    return _Local(norm_f, g_factor, polys)


# ---------------------------------------------------- the L-series


def _coefficients(d: QuadInt, local: _Local, n_max: int) -> np.ndarray:
    """a_0 = 0, a_1, ..., a_bound of L(s, chi), bound >= n_max: the
    Euler factor at p is 1/(1 - e1 X + e2 X^2), X = p^(-s), with e1, e2
    from Legendre symbols of d away from 2 N(d) and local.polys there."""
    bound = _bound(n_max)
    sieve, table = _sieve(bound), _prime_table(d.D, bound)
    p = table.p
    inert = table.r1 < 0
    a1 = np.where(inert, d.norm() % p, (d.a % p + (d.b % p) * table.r1) % p)
    a2 = (d.a % p + (d.b % p) * table.r2) % p
    l1, l2 = _legendre(a1, p), _legendre(a2, p)
    split = table.r1 != table.r2
    e1 = np.where(inert, 0, np.where(split, l1 + l2, l1))
    e2 = np.where(inert, -l1, np.where(split, l1 * l2, 0))
    at = {q: e for q, e in local.polys.items() if q <= bound}
    i = np.searchsorted(p, list(at))
    e1[i], e2[i] = np.array(list(at.values()), dtype=np.int64).reshape(-1, 2).T
    # the Euler factor's coefficients c_k at p^k, c_k = e1 c_k-1 - e2 c_k-2
    c = np.zeros(bound + 1)
    prev, cur, pk = np.ones(len(p)), e1.astype(float), p.copy()
    while True:
        live = np.searchsorted(pk, bound, side="right")
        if not live:
            break
        prev, cur, pk = prev[:live], cur[:live], pk[:live]
        c[pk] = cur
        prev, cur, pk = cur, e1[:live] * cur - e2[:live] * prev, pk * p[:live]
    a = np.zeros(bound + 1)
    a[1] = 1.0
    for idx in sieve.levels:
        a[idx] = c[sieve.q[idx]] * a[sieve.m[idx]]
    return a


def _tail_terms(rate: float, weight: float, tol: float) -> Tuple[int, float]:
    """(N, bound): N terms leave a tail sum_{n > N} tau(n)/n weight
    e^(-rate n) of at most bound <= tol.  tau(n) <= 2 sqrt(n), so the
    tail is at most 2 weight e^(-rate (N + 1)) / (sqrt(N) (1 - e^-rate))."""
    geo = -math.expm1(-rate)
    n = max(1, math.ceil(math.log(2.0 * weight / (tol * geo)) / rate))
    return n, 2.0 * weight * math.exp(-rate * (n + 1)) / (math.sqrt(n) * geo)


def analytic_class_number(d: QuadInt, pell: PellSolution,
                          F: FieldCtx) -> AnalyticClassNumber:
    """h(d) by the class number formula of the module docstring, from
    the Pell solution of d, with a proven error.

    Each of the two sums, at u0 = 1 and 1/2, keeps the terms of its two
    parts until each tail is below _H_TAIL / 4 in h: |a_n| <= tau(n),
    and E_1(x) <= e^(-x)/x bounds the E_1 part by u0 e^(-c_n/u0)/n.  Its
    rounding is bounded by (_TERM_ERR + terms * 2^-53) times the sum of
    the terms' absolute values.  Raises InvariantViolation when the two
    values differ by more than their errors together, or the value at
    u0 = 1 is not within its error of an integer; BudgetExceededError
    when more than MAX_TERMS coefficients are needed.
    """
    if max(abs(d.a), abs(d.b), abs(d.norm())) >= 1 << 31:
        raise BudgetExceededError(
            f"class number formula for d={d}: coordinates too large for "
            "int64 Legendre symbols")
    local = _local_data(d, F)
    root_a = math.sqrt(F.D * local.norm_f)
    front = (math.sqrt(F.D * abs(d.norm())) * local.g_factor
             / (math.pi * math.log(pell.eps_d)))
    kappa = 2.0 * math.pi / root_a
    tol = _H_TAIL / (4.0 * abs(front))
    parts = [(_tail_terms(kappa * u0, 1.0, tol), _tail_terms(kappa / u0, u0, tol))
             for u0 in _U0]
    n_max = max(n for part in parts for n, _ in part)
    if n_max > MAX_TERMS:
        raise BudgetExceededError(
            f"class number formula for d={d} needs {n_max} terms, more than "
            f"{MAX_TERMS}")
    a = _coefficients(d, local, n_max)
    # E_1(c_m) for every m that either sum reads: c_n/u0 = c_(n/u0)
    m_max = max(round(nb / u0) for u0, (_, (nb, _)) in zip(_U0, parts))
    e1 = exp1(kappa * np.arange(1, m_max + 1))
    values = []
    for u0, ((na, tail_a), (nb, tail_b)) in zip(_U0, parts):
        n = np.arange(1, na + 1)
        head = a[1:na + 1] * np.exp(-kappa * u0 * n) / n
        tail = a[1:nb + 1] * ((2.0 * math.pi / root_a)
                              * e1[np.arange(1, nb + 1) * round(1 / u0) - 1])
        total = head.sum() + tail.sum()
        size = np.abs(head).sum() + np.abs(tail).sum()
        rounding = (_TERM_ERR + (na + nb) * _UNIT_ROUNDING) * size
        h = float(front * total)
        values.append((h, float(abs(front) * (tail_a + tail_b + rounding)
                             + _TERM_ERR * abs(h))))
    (h, err), (h2, err2) = values
    if abs(h - h2) > err + err2:
        raise InvariantViolation(
            f"class number formula for d={d} depends on u0: {h!r} at "
            f"u0 = 1, {h2!r} at u0 = 1/2, apart by more than "
            f"{err + err2:.2g}; its conductor or characters are wrong")
    if err >= 0.5 or abs(h - round(h)) > err:
        raise InvariantViolation(
            f"class number formula for d={d} gives {h!r}, not within its "
            f"error {err:.2g} of an integer")
    return AnalyticClassNumber(h, err, n_max)
