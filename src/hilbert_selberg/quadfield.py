"""Exact arithmetic in real quadratic fields of class number one.

Elements live in the ring of integers O_K of K = Q(sqrt(D)), D > 0 a
fundamental discriminant, written on the integral basis {1, w} with

    w = (1 + sqrt(D))/2   if D = 1 (mod 4),
    w = sqrt(D/4)         if D = 0 (mod 4),

equivalently w = (t + sqrt(D))/2 where t = D mod 2 is the trace of w.
Ring operations are exact (Python integers and fractions).  Floating
point enters only through the real embeddings.  The module imports no
numpy: the int64 box scans over these coordinates live in `orbits`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .errors import BudgetExceededError, InvariantViolation, ValidationError

# Fundamental discriminants D <= 100 whose real quadratic field has class
# number one.  Frozen table; the dual class-number machinery in pellforms
# rechecks h(K)=1 indirectly on every desk computation that relies on it.
CLASS_NUMBER_ONE = frozenset(
    {5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 41, 44, 53, 56, 57,
     61, 69, 73, 76, 77, 88, 89, 92, 93, 97}
)


def _squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def is_fundamental_discriminant(D: int) -> bool:
    if D <= 1:
        return False
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _omega_trace_norm(D: int) -> Tuple[int, int]:
    """Trace and norm of w, so w^2 = t*w - n."""
    if D % 4 == 1:
        return 1, (1 - D) // 4
    return 0, -(D // 4)


def _embed_consts(D: int) -> Tuple[float, float]:
    """The two real embeddings (w1, w2) of w."""
    t, _ = _omega_trace_norm(D)
    sq = math.sqrt(D)
    return (t + sq) / 2.0, (t - sq) / 2.0


def _coord_mul(xa: int, xb: int, ya: int, yb: int,
               t: int, n: int) -> Tuple[int, int]:
    """Coordinates of (xa + xb*w)(ya + yb*w), where w^2 = t*w - n."""
    bd = xb * yb
    return xa * ya - n * bd, xa * yb + xb * ya + t * bd


def _sign_half(A: int, b: int, D: int) -> int:
    """Exact sign of (A + b*sqrt(D))/2 for integers A, b and nonsquare D."""
    if b == 0:
        return (A > 0) - (A < 0)
    if A == 0:
        return (b > 0) - (b < 0)
    if (A > 0) == (b > 0):
        return 1 if A > 0 else -1
    if A * A > b * b * D:
        return (A > 0) - (A < 0)
    if A * A < b * b * D:
        return (b > 0) - (b < 0)
    raise ValidationError(f"D={D} is a perfect square; field is not quadratic")


@dataclass(frozen=True, slots=True)
class QuadInt:
    """Element a + b*w of O_K, exact integer coordinates."""

    D: int
    a: int
    b: int

    def _check(self, other: "QuadInt") -> None:
        if not isinstance(other, QuadInt):
            raise TypeError(f"expected QuadInt, got {type(other).__name__}")
        if self.D != other.D:
            raise ValidationError(
                f"mixed fields: D={self.D} vs D={other.D}")

    def __add__(self, other):
        if isinstance(other, int):
            return QuadInt(self.D, self.a + other, self.b)
        self._check(other)
        return QuadInt(self.D, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return QuadInt(self.D, self.a - other, self.b)
        self._check(other)
        return QuadInt(self.D, self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadInt(self.D, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.D, self.a * other, self.b * other)
        self._check(other)
        t, n = _omega_trace_norm(self.D)
        bd = self.b * other.b
        return QuadInt(
            self.D,
            self.a * other.a - n * bd,
            self.a * other.b + self.b * other.a + t * bd,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            inv = self.inverse_unit()
            return inv ** (-k)
        result = QuadInt(self.D, 1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "QuadInt":
        t, _ = _omega_trace_norm(self.D)
        return QuadInt(self.D, self.a + t * self.b, -self.b)

    def norm(self) -> int:
        t, n = _omega_trace_norm(self.D)
        return self.a * self.a + t * self.a * self.b + n * self.b * self.b

    def trace(self) -> int:
        t, _ = _omega_trace_norm(self.D)
        return 2 * self.a + t * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def inverse_unit(self) -> "QuadInt":
        n = self.norm()
        if abs(n) != 1:
            raise ValidationError(f"{self} is not a unit (norm {n})")
        c = self.conj()
        return c if n == 1 else -c

    def embed(self, j: int) -> float:
        """Real embedding: j=1 sends w to (t+sqrt(D))/2, j=2 to (t-sqrt(D))/2."""
        if j not in (1, 2):
            raise ValidationError("embedding index must be 1 or 2")
        t, _ = _omega_trace_norm(self.D)
        s = math.sqrt(self.D) if j == 1 else -math.sqrt(self.D)
        return self.a + self.b * (t + s) / 2.0

    def sign_embed(self, j: int) -> int:
        """Exact sign of the j-th embedding."""
        t, _ = _omega_trace_norm(self.D)
        A = 2 * self.a + t * self.b
        b = self.b if j == 1 else -self.b
        return _sign_half(A, b, self.D)

    def compare_embed(self, other: "QuadInt", j: int) -> int:
        """Exact sign of embed(self - other, j)."""
        if isinstance(other, int):
            other = QuadInt(self.D, other, 0)
        return (self - other).sign_embed(j)

    def exact_div(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in O_K")
        num = self * other.conj()
        if num.a % n or num.b % n:
            raise ValidationError(f"{other} does not divide {self}")
        return QuadInt(self.D, num.a // n, num.b // n)

    def divides(self, other: "QuadInt") -> bool:
        """True when self divides other in O_K."""
        self._check(other)
        n = self.norm()
        if n == 0:
            return other.is_zero()
        num = other * self.conj()
        return num.a % n == 0 and num.b % n == 0

    def __str__(self) -> str:
        return format_quadint(self)

    def __repr__(self) -> str:
        return f"QuadInt(D={self.D}, {format_quadint(self)})"


def format_quadint(x: QuadInt) -> str:
    """Render a + b*w, dropping zero and unit coefficients."""
    if x.b == 0:
        return str(x.a)
    if x.b == 1:
        wpart = "w"
    elif x.b == -1:
        wpart = "-w"
    else:
        wpart = f"{x.b}*w"
    if x.a == 0:
        return wpart
    sign = "+" if x.b > 0 else ""
    return f"{x.a}{sign}{wpart}"


_QUADINT_RE = re.compile(
    r"""^\s*
    (?:(?P<a>[+-]?\d+)(?!\s*\*))?        # rational part (not a w coefficient)
    \s*
    (?:(?P<bsign>[+-])?\s*(?:(?P<b>\d+)\s*\*\s*)?w)?
    \s*$""",
    re.VERBOSE,
)


def parse_quadint(text: str, D: int) -> QuadInt:
    """Parse 'a+b*w' (also 'a', 'w', '-w', 'b*w', 'a-b*w')."""
    m = _QUADINT_RE.match(text)
    if not m or (m.group("a") is None and "w" not in text):
        raise ValidationError(f"cannot parse O_K element from {text!r}")
    a = int(m.group("a")) if m.group("a") is not None else 0
    if "w" in text:
        mag = int(m.group("b")) if m.group("b") is not None else 1
        b = -mag if m.group("bsign") == "-" else mag
    else:
        b = 0
    return QuadInt(D, a, b)


def sigma1(n: int) -> int:
    """Sum of divisors."""
    if n <= 0:
        raise ValidationError("sigma1 needs a positive integer")
    total = 0
    k = 1
    while k * k <= n:
        if n % k == 0:
            total += k
            if k != n // k:
                total += n // k
        k += 1
    return total


def zeta_minus_one(D: int) -> Fraction:
    """zeta_K(-1) as an exact rational, via the finite divisor sum

        (1/60) * sum over b in Z, b^2 < D, b = D (mod 2) of sigma1((D-b^2)/4).
    """
    total = 0
    b = D % 2
    bs = [b] if b == 0 else []
    while b * b < D:
        if b > 0:
            bs.extend([b, -b])
        b += 2
    for b in bs:
        num = D - b * b
        if num % 4:
            raise ValidationError(f"divisor sum misaligned at D={D}, b={b}")
        total += sigma1(num // 4)
    return Fraction(total, 60)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # strip factors of 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol on odd n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def chi_D(D: int):
    """Quadratic character mod D attached to K (Kronecker symbol)."""

    def chi(n: int) -> int:
        return kronecker(D, n)

    return chi


def bernoulli_L_minus_one(D: int) -> Fraction:
    """L(-1, chi_D) = -B_{2,chi}/2 via generalized Bernoulli numbers,
    B_{2,chi} = D * sum_{a=1}^{D} chi(a) * B2(a/D),  B2(x) = x^2 - x + 1/6.
    """
    chi = chi_D(D)
    total = Fraction(0)
    for a in range(1, D + 1):
        c = chi(a)
        if c:
            x = Fraction(a, D)
            total += c * (x * x - x + Fraction(1, 6))
    b2chi = D * total
    return -b2chi / 2


def fundamental_unit(D: int) -> QuadInt:
    """Fundamental unit eps > 1 of O_K via the continued fraction of w.

    Runs the exact (P, Q) recurrence for the quadratic irrational
    w = (t + sqrt(D))/2 and tests each convergent p/q via the element
    u = (p - q*t) + q*w, whose norm is the w-minimal-polynomial form at
    (p, q).  Stops at the first |norm| = 1 with first embedding > 1.
    """
    t, n = _omega_trace_norm(D)
    sqrtD = math.isqrt(D)
    # complete quotient (P + sqrt(D))/Q, starting at w
    P, Q = t, 2
    p, p_prev = 1, 0  # p_{-1}, p_{-2}
    q, q_prev = 0, 1
    for _ in range(20000):
        a = (P + sqrtD) // Q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        u = QuadInt(D, p - q * t, q)
        if abs(u.norm()) == 1 and u.compare_embed(QuadInt(D, 1, 0), 1) > 0:
            return u
        P = a * Q - P
        Q = (D - P * P) // Q
    raise BudgetExceededError(f"no fundamental unit found for D={D} "
                              "within 20000 continued-fraction steps")


@dataclass(frozen=True)
class FieldCtx:
    """Immutable context for one field: unit, constants, elliptic census.

    elliptic_census is a tuple of (nu, t, count) triples describing the
    conjugacy classes of primitive elliptic pairs with rotation angles
    (pi/nu, t*pi/nu).  It is computed by modgroup and certified on first
    use for the fields of CENSUS_ORDERS, D in {5, 8, 12}, and is None
    elsewhere, without importing modgroup.  euler_char = 2*zeta_K(-1) + sum over classes
    of (nu-1)/nu, None without a census.
    """

    D: int
    eps: QuadInt
    regulator: float
    zeta_minus_one: Fraction

    @functools.cached_property
    def elliptic_census(self) -> Optional[Tuple[Tuple[int, int, int], ...]]:
        if self.D not in CENSUS_ORDERS:
            return None
        from . import modgroup  # deferred: modgroup depends on this module

        return modgroup.elliptic_census(self)

    @functools.cached_property
    def euler_char(self) -> Optional[Fraction]:
        if self.elliptic_census is None:
            return None
        return 2 * self.zeta_minus_one + sum(
            count * Fraction(nu - 1, nu)
            for nu, _t, count in self.elliptic_census)

    @property
    def omega(self) -> QuadInt:
        return QuadInt(self.D, 0, 1)

    @property
    def one(self) -> QuadInt:
        return QuadInt(self.D, 1, 0)

    @functools.cached_property
    def eps1(self) -> float:
        return self.eps.embed(1)

    def elem(self, a: int) -> QuadInt:
        return QuadInt(self.D, a, 0)

    def census_classes(self) -> Tuple[Tuple[int, int], ...]:
        """Census expanded to one (nu, t) per conjugacy class."""
        if self.elliptic_census is None:
            raise ValidationError(
                f"no elliptic census attached for D={self.D}")
        out = []
        for nu, t, count in self.elliptic_census:
            out.extend([(nu, t)] * count)
        return tuple(out)

    def to_json(self) -> dict:
        census = None
        if self.elliptic_census is not None:
            census = [[nu, t, c] for nu, t, c in self.elliptic_census]
        return {
            "D": self.D,
            "eps": [self.eps.a, self.eps.b],
            "regulator": self.regulator,
            "zeta_minus_one": f"{self.zeta_minus_one.numerator}"
                              f"/{self.zeta_minus_one.denominator}",
            "elliptic_census": census,
            "euler_char": (None if self.euler_char is None else
                           f"{self.euler_char.numerator}"
                           f"/{self.euler_char.denominator}"),
        }


# certified order multisets: the fields that carry an elliptic census
CENSUS_ORDERS = {
    5: (2, 2, 3, 3, 5, 5),
    8: (2, 2, 3, 3, 4, 4),
    12: (2, 2, 2, 3, 3, 6),
}

_FIELD_MEMO: dict = {}


def make_field(D: int) -> FieldCtx:
    """The FieldCtx of a whitelisted fundamental discriminant, one per D.

    The rational constant zeta_K(-1) is computed twice, through the
    divisor sum and through zeta(-1) * L(-1, chi_D), and the two must
    agree.  The elliptic census is not built here: it is computed on
    first use for D in {5, 8, 12} and is None elsewhere.
    """
    if not isinstance(D, int):
        raise ValidationError(f"D must be an integer, got {D!r}")
    if not is_fundamental_discriminant(D):
        raise ValidationError(
            f"D={D} is not a fundamental discriminant of a real quadratic field")
    if D not in CLASS_NUMBER_ONE:
        raise ValidationError(
            f"D={D} rejected: class number of Q(sqrt({D})) is not 1 "
            f"(supported D <= 100: {sorted(CLASS_NUMBER_ONE)})")
    if D in _FIELD_MEMO:
        return _FIELD_MEMO[D]

    zeta = zeta_minus_one(D)
    cross = Fraction(-1, 12) * bernoulli_L_minus_one(D)
    if zeta != cross:
        raise InvariantViolation(
            f"zeta_K(-1) routes disagree for D={D}: divisor sum {zeta}, "
            f"Bernoulli route {cross}")
    eps = fundamental_unit(D)
    ctx = FieldCtx(D=D, eps=eps, regulator=math.log(eps.embed(1)),
                   zeta_minus_one=zeta)
    _FIELD_MEMO[D] = ctx
    return ctx


def _lattice_ranges(D: int, bound1: float, bound2: float
                    ) -> Iterator[Tuple[int, int, int]]:
    """(b, lo, hi) for each b, in increasing order, such that the points
    a + b*w of lattice_points(D, bound1, bound2) are lo <= a <= hi.

    Embedding coordinates: x = a + b*w gives (x1 + x2) = 2a + t*b and
    (x1 - x2) = b*sqrt(D), so b is bounded first, then a for each b.
    """
    w1, w2 = _embed_consts(D)
    bmax = math.floor((bound1 + bound2) / math.sqrt(D) + 1e-12)
    for b in range(-bmax, bmax + 1):
        lo = max(-bound1 - b * w1, -bound2 - b * w2)
        hi = min(bound1 - b * w1, bound2 - b * w2)
        if lo <= hi:
            yield b, math.ceil(lo - 1e-9), math.floor(hi + 1e-9)


def lattice_points(D: int, bound1: float, bound2: float) -> Iterator[QuadInt]:
    """All x in O_K with |embed(x,1)| <= bound1 and |embed(x,2)| <= bound2,
    ordered by b, then a, for x = a + b*w; exact boundary checks are left
    to the caller when it matters."""
    for b, lo, hi in _lattice_ranges(D, bound1, bound2):
        for a in range(lo, hi + 1):
            yield QuadInt(D, a, b)


def exact_sqrt(y: QuadInt) -> QuadInt:
    """The square root of y in O_K with positive first embedding: each
    embedding's root, with both signs of the second, rounded to
    coordinates and checked exactly (the rounding may land on the
    negated root).  ValidationError unless y is a nonzero square."""
    if y.sign_embed(1) > 0 and y.sign_embed(2) > 0:
        w1, w2 = _embed_consts(y.D)
        r1, r2 = math.sqrt(y.embed(1)), math.sqrt(y.embed(2))
        for s2 in (r2, -r2):
            b = (r1 - s2) / (w1 - w2)
            root = QuadInt(y.D, round(r1 - b * w1), round(b))
            if root * root == y:
                return root if root.sign_embed(1) > 0 else -root
    raise ValidationError(f"{y} is not a square in O_K")


def canonical_disc(d: QuadInt, F: FieldCtx) -> QuadInt:
    """Representative of d modulo squares of units with embed(.,1) in [1, eps^2).

    Multiplying by eps^(2k) preserves the sign pattern of the embeddings,
    so membership in D_{+-} is unaffected.  Idempotent.
    """
    if d.is_zero():
        raise ValidationError("zero discriminant cannot be canonicalized")
    if d.sign_embed(1) <= 0:
        raise ValidationError(
            f"canonical_disc expects positive first embedding, got {d}")
    eps2 = F.eps * F.eps
    eps2_inv = eps2.inverse_unit()
    k = -math.floor(math.log(d.embed(1)) / (2 * F.regulator))
    y = d * (eps2 ** k) if k >= 0 else d * (eps2_inv ** (-k))
    while y.compare_embed(F.one, 1) < 0:
        y = y * eps2
    while (y - eps2).sign_embed(1) >= 0:
        y = y * eps2_inv
    return y
