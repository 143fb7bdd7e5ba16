"""The Hilbert modular group: elements, classification, elliptic census.

Group elements are 2x2 matrices over O_K of determinant 1, acting on
H x H through the pair (gamma, gamma') of real embeddings.  Conjugacy
searches walk the Cayley graph of conjugation by a fixed generator set
(translations by +-1, +-w and the inversion S), with per-embedding
height caps, so a target missed within the caps proves nothing about
conjugacy.

Conjugation orbits run on the orbit engine of `orbits`, with PSL(2, O_K)
elements as states.  Conjugation keeps the trace, so one search runs in
the slice of its seeds' trace tr: a state is keyed by the int64 index of
its entries a, b and c alone (d = tr - a), the representative of trace
tr stands for g and -g, and for tr = 0 the smaller key of the two does.
The generators' integer matrix is applied as one float64 product, exact
because the engine's int64 guard keeps every coordinate below 2^31.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .orbits import Orbit, capped_bfs
from .quadfield import (FieldCtx, QuadInt, _box_rows, _coord_mul,
                        _embed_consts, _factor_pairs, _omega_trace_norm)

Key = Tuple[int, int, int, int, int, int, int, int]


@dataclass(frozen=True, slots=True)
class GroupElem:
    """Matrix [[a, b], [c, d]] over O_K with det 1, sign-normalized so the
    first nonzero entry of (a, b, c, d) has positive first embedding."""

    a: QuadInt
    b: QuadInt
    c: QuadInt
    d: QuadInt

    @staticmethod
    def make(a: QuadInt, b: QuadInt, c: QuadInt, d: QuadInt) -> "GroupElem":
        det = a * d - b * c
        if not det.is_one():
            raise ValidationError(f"determinant {det} != 1")
        for entry in (a, b, c, d):
            if not entry.is_zero():
                if entry.sign_embed(1) < 0:
                    a, b, c, d = -a, -b, -c, -d
                break
        return GroupElem(a, b, c, d)

    @property
    def D(self) -> int:
        return self.a.D

    def trace(self) -> QuadInt:
        return self.a + self.d

    def key(self) -> Key:
        return (self.a.a, self.a.b, self.b.a, self.b.b,
                self.c.a, self.c.b, self.d.a, self.d.b)

    @staticmethod
    def from_key(key: Key, D: int) -> "GroupElem":
        aa, ab, ba, bb, ca, cb, da, db = key
        return GroupElem.make(QuadInt(D, aa, ab), QuadInt(D, ba, bb),
                              QuadInt(D, ca, cb), QuadInt(D, da, db))

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        return GroupElem.make(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElem":
        return GroupElem.make(self.d, -self.b, -self.c, self.a)

    def __pow__(self, k: int) -> "GroupElem":
        base = self if k >= 0 else self.inverse()
        one, zero = QuadInt(self.D, 1, 0), QuadInt(self.D, 0, 0)
        out = GroupElem(one, zero, zero, one)
        for _ in range(abs(k)):
            out = out * base
        return out

    def is_identity_psl(self) -> bool:
        return (self.b.is_zero() and self.c.is_zero()
                and self.a == self.d and abs(self.a.a) == 1 and self.a.b == 0)

    def psl_order(self) -> Optional[int]:
        """Order in PSL(2, O_K), or None if it exceeds 14."""
        p = self
        for k in range(1, 15):
            if p.is_identity_psl():
                return k
            p = p * self
        return None


@dataclass(frozen=True)
class ElementClass:
    """Classification of a group element by the exact signs of the two
    embeddings of trace^2 - 4, plus the standard invariants."""

    kind: str  # identity | parabolic | elliptic | hyperbolic
               # | hyperbolic-elliptic | elliptic-hyperbolic
    trace: QuadInt
    theta: Optional[Tuple[float, float]] = None  # elliptic rotation angles
    norm: Optional[float] = None                 # hyperbolic-slot norm
    omega: Optional[float] = None                # elliptic-slot angle


def classify(g: GroupElem) -> ElementClass:
    t = g.trace()
    disc = t * t - 4
    if disc.is_zero():
        if g.is_identity_psl():
            return ElementClass("identity", t)
        return ElementClass("parabolic", t)
    s1, s2 = disc.sign_embed(1), disc.sign_embed(2)
    t1, t2 = t.embed(1), t.embed(2)
    if s1 < 0 and s2 < 0:
        return ElementClass("elliptic", t,
                            theta=(math.acos(t1 / 2.0), math.acos(t2 / 2.0)))
    if s1 > 0 and s2 > 0:
        return ElementClass("hyperbolic", t)
    if s1 > 0 and s2 < 0:
        N = ((abs(t1) + math.sqrt(t1 * t1 - 4.0)) / 2.0) ** 2
        return ElementClass("hyperbolic-elliptic", t,
                            norm=N, omega=math.acos(t2 / 2.0))
    N = ((abs(t2) + math.sqrt(t2 * t2 - 4.0)) / 2.0) ** 2
    return ElementClass("elliptic-hyperbolic", t,
                        norm=N, omega=math.acos(t1 / 2.0))


# ---------------------------------------------------- conjugation orbits


def _sign_rows(A: np.ndarray, b: np.ndarray, D: int) -> np.ndarray:
    """Row version of quadfield._sign_half: exact signs of (A + b*sqrt(D))/2
    for int64 arrays A, b whose A^2 and b^2 D stay inside int64."""
    lhs, rhs = A * A, b * b * D
    if np.any((lhs == rhs) & (b != 0)):
        raise ValidationError(
            f"D={D} is a perfect square; field is not quadratic")
    # that of A when A^2 > b^2 D, else that of b
    return np.where(lhs > rhs, np.sign(A), np.sign(b))


def _normalize_rows(rows: np.ndarray, D: int, t: int) -> np.ndarray:
    """Negate, in place, every row whose first nonzero coordinate pair
    (x, y), read as x + y*w, has negative first embedding."""
    x, y = rows[:, 0::2], rows[:, 1::2]
    nz = (x != 0) | (y != 0)
    if not nz.any(axis=1).all():
        raise ValidationError("zero matrix cannot be normalized")
    r = np.arange(len(rows))
    i = nz.argmax(axis=1)
    neg = _sign_rows(2 * x[r, i] + t * y[r, i], y[r, i], D) < 0
    return np.negative(rows, out=rows, where=neg[:, None])


# the translation generators mu = +1, -1, +w, -w as coordinate columns
_MU_A = np.array([[1], [-1], [0], [0]])
_MU_B = np.array([[0], [0], [1], [-1]])


def _conj_neighbors(rows: np.ndarray, D: int, t: int, n: int) -> np.ndarray:
    """Conjugates of each row by the five generators, with the row's sign;
    row i's images are rows 5i..5i+4, in the order S, T_1, T_-1, T_w, T_-w.

    T_mu g T_mu^{-1} = [[a + mu c, b + mu(d - a) - mu^2 c], [c, d - mu c]]
    S g S^{-1} = [[d, -c], [-b, a]]
    """
    aa, ab, ba, bb, ca, cb, da, db = rows.T
    out = np.repeat(rows[:, None], 5, axis=1)
    out[:, 0] = rows[:, [6, 7, 4, 5, 2, 3, 0, 1]] * [1, 1, -1, -1, -1, -1, 1, 1]
    mca, mcb = _coord_mul(_MU_A, _MU_B, ca, cb, t, n)
    m2a, m2b = _coord_mul(_MU_A, _MU_B, _MU_A, _MU_B, t, n)
    m2ca, m2cb = _coord_mul(m2a, m2b, ca, cb, t, n)
    mda, mdb = _coord_mul(_MU_A, _MU_B, da - aa, db - ab, t, n)
    T = out[:, 1:]  # the T_mu images, (N, 4, 8), start as copies of the row
    T[..., 0] += mca.T
    T[..., 1] += mcb.T
    T[..., 2] += (mda - m2ca).T
    T[..., 3] += (mdb - m2cb).T
    T[..., 6] -= mca.T
    T[..., 7] -= mcb.T
    return out.reshape(-1, 8)


def conjugation_orbit(seeds, D: int, cap1: float, cap2: float,
                      max_states: int = 400000,
                      targets: Optional[Iterable[Key]] = None,
                      keep_states: bool = True) -> Tuple[Orbit, bool]:
    """Height-capped BFS orbits of conjugation in PSL(2, O_K) from one
    key or an (S, 8) array of them; returns (orbit, hit_target).

    The seeds must share one trace up to sign; ValidationError
    otherwise.  Stops early when any target key is reached (one seed
    only).  Raises when the state budget is exhausted (the orbit is then
    reported incomplete).
    """
    t, n = _omega_trace_norm(D)
    return capped_bfs("conjugation", seeds,
                      lambda rows: _conj_neighbors(rows, D, t, n),
                      D, cap1, cap2, max_states, targets, psl=True,
                      keep_states=keep_states)


# ------------------------------------------------------- elliptic census


@dataclass(frozen=True)
class EllipticClass:
    """Primitive elliptic conjugacy class with rotation pair
    (pi/nu, t*pi/nu); rep is theta1-normalized (lower-left entry has
    positive first embedding)."""

    nu: int
    t: int
    rep: GroupElem
    theta1: float
    theta2: float


def _two_cos_table(F: FieldCtx) -> Dict[int, QuadInt]:
    """Exact 2cos(pi/nu) as elements of O_K, for the nu possible in K."""
    table = {2: F.elem(0), 3: F.elem(1)}
    if F.D == 5:
        table[5] = F.omega              # (1+sqrt5)/2
    elif F.D == 8:
        table[4] = F.omega              # sqrt2
    elif F.D == 12:
        table[6] = F.omega              # sqrt3
    return table


def _matrices_with_trace(F: FieldCtx, tr: QuadInt,
                         cap1: float, cap2: float) -> np.ndarray:
    """All det-1 matrices with the given trace and per-embedding entry
    heights within (cap1, cap2), as the rows of an (N, 8) int64 array,
    ordered by a, then b, in box order."""
    D = F.D
    t, n = _omega_trace_norm(D)
    # box coordinates are at most H, those of tr - a at most T, those of
    # b*c at most Pmax; the products of the scan stay under (|n| + 4) H Pmax
    H = math.floor(cap1 + cap2) + 1
    T = H + max(abs(tr.a), abs(tr.b))
    Pmax = (abs(n) + 3) * H * T + 1
    if (abs(n) + 4) * H * Pmax >= 2 ** 62:
        raise BudgetExceededError(
            f"entry boxes ({cap1:.6g}, {cap2:.6g}) overflow int64 arithmetic")
    box = _box_rows(D, cap1, cap2)
    # b*c = a*d - 1 with d = tr - a, for every a in the box; the scan
    # skips b*c = 0, triangular matrices, which are never elliptic: c = 0
    # gives |trace| >= 2 in each embedding, likewise b = 0 after S
    d = [tr.a, tr.b] - box
    bc = np.column_stack(_coord_mul(*box.T, *d.T, t, n)) - [1, 0]
    i, b, c = _factor_pairs(bc, box, D, cap1, cap2)
    return np.column_stack([box[i], b, c, d[i]])


def _elliptic_candidates(F: FieldCtx, height_bound: float
                         ) -> Dict[int, np.ndarray]:
    """Candidate rows per order nu, sign-normalized, distinct and in
    increasing order: the entry-bounded matrices of trace 2cos(pi/nu)
    whose c has positive first embedding (all of them for nu = 2, of
    trace 0); one with c < 0 is the negative of a theta1-normalized
    element of trace -2cos(pi/nu), a candidate of the inverse class."""
    D = F.D
    t, _ = _omega_trace_norm(D)
    out: Dict[int, np.ndarray] = {}
    for nu, tr in _two_cos_table(F).items():
        rows = _matrices_with_trace(F, tr, height_bound, height_bound)
        if nu != 2:
            rows = rows[_sign_rows(2 * rows[:, 4] + t * rows[:, 5],
                                   rows[:, 5], D) > 0]
        if len(rows):
            out[nu] = np.unique(_normalize_rows(rows, D, t), axis=0)
    return out


def enumerate_elliptic(F: FieldCtx, height_bound: float
                       ) -> Tuple[EllipticClass, ...]:
    """Primitive elliptic conjugacy classes (rotation pair (pi/nu, t*pi/nu)).

    Brute enumeration over admissible traces and height-bounded entries,
    then partition by conjugation BFS.  The candidates of order nu are one
    row filter, `_elliptic_candidates`, on the (N, 8) scan of trace
    2cos(pi/nu): the rows whose c has positive first embedding (every row
    for nu = 2), sign-normalized.  A class is kept only when it generates
    the full point stabilizer: proper powers of a higher-order generator
    (the square of an order-4 rotation is an order-2 rotation about the
    same point) carry the right trace but have a point of larger isotropy.

    The PSL order and rotation angles are checked once per class.  By
    Cayley-Hamilton every g of trace tau has g^k = a_k(tau) g + b_k(tau) I,
    so all candidates of one order share the representative's order, and
    the direction of rotation in each embedding is a conjugacy invariant.
    """
    D = F.D
    two_cos = _two_cos_table(F)
    cap_bfs = height_bound * 2.5
    w1, w2 = _embed_consts(D)

    # one conjugation search per order; its components are the classes
    candidates = _elliptic_candidates(F, height_bound)
    records: List[dict] = []
    for nu, seeds in candidates.items():
        # only an order that a larger order's power can land in is asked
        # which class holds a key
        queried = any(m > nu and m % nu == 0 for m in candidates)
        orbit, _ = conjugation_orbit(seeds, D, cap_bfs, cap_bfs,
                                     keep_states=queried)
        tr = two_cos[nu]
        th1 = math.acos(tr.embed(1) / 2.0)
        for root in orbit.reps:
            rep = GroupElem.from_key(tuple(seeds[root].tolist()), D)
            order = rep.psl_order()
            if order != nu:
                raise InvariantViolation(
                    f"element with trace {tr} has PSL order {order}, "
                    f"expected {nu}")
            # sign of c in embedding 2 once theta1-normalized (c_1 > 0)
            c2 = rep.c.sign_embed(1) * rep.c.sign_embed(2)
            th2 = math.copysign(math.acos(tr.embed(2) / 2.0), c2) \
                % (2.0 * math.pi)
            tj = round(th2 * nu / math.pi)
            if abs(th2 - tj * math.pi / nu) > 1e-9 or math.gcd(tj, nu) != 1 \
                    or tj % 2 == 0:
                raise InvariantViolation(
                    f"bad rotation angle {th2} for nu={nu}")
            records.append({"nu": nu, "tj": tj, "th1": th1, "th2": th2,
                            "rep": rep, "orbit": orbit, "root": root,
                            "members": seeds[orbit.roots == root],
                            "primitive": True})

    # drop classes that are proper powers of a larger stabilizer generator
    for rec in sorted(records, key=lambda r: -r["nu"]):
        if not rec["primitive"]:
            continue
        nu = rec["nu"]
        for div in range(2, nu):
            if nu % div:
                continue
            pkey = (rec["rep"] ** (nu // div)).key()
            sub = [r for r in records if r["nu"] == div]
            # the class whose component at cap_bfs holds the power
            owner = next((r for r in sub if r["orbit"].component(
                np.array([pkey]))[0] == r["root"]), None)
            if owner is None:
                pcap = max(cap_bfs, 1.5 * max(
                    abs(pkey[2 * i] + pkey[2 * i + 1] * wj)
                    for i in range(4) for wj in (w1, w2)))
                tgt = np.concatenate([np.empty((0, 8), dtype=np.int64)]
                                     + [r["members"] for r in sub])
                porb, hit = conjugation_orbit(pkey, D, pcap, pcap, targets=tgt)
                if hit:
                    owners = [r for r in sub for _ in r["members"]]
                    owner = owners[np.flatnonzero(porb.contains(tgt))[0]]
            if owner is None:
                raise InvariantViolation(
                    f"order-{div} power of an order-{nu} class not located "
                    "among the enumerated classes")
            owner["primitive"] = False

    classes = [EllipticClass(nu=r["nu"], t=r["tj"] % r["nu"], rep=r["rep"],
                             theta1=r["th1"], theta2=r["th2"])
               for r in records if r["primitive"]]
    classes.sort(key=lambda c: (c.nu, c.t, c.rep.key()))
    return tuple(classes)


# certified order multisets: the fields that carry an elliptic census
CENSUS_ORDERS = {
    5: (2, 2, 3, 3, 5, 5),
    8: (2, 2, 3, 3, 4, 4),
    12: (2, 2, 2, 3, 3, 6),
}


def elliptic_census(F: FieldCtx, height_bound: float = 8.0
                    ) -> Tuple[Tuple[int, int, int], ...]:
    """(nu, t, count) census of primitive elliptic classes.

    For D in {5, 8, 12} the computed order multiset is checked against
    the certified one: too few classes raises BudgetExceededError (the
    height bound missed a representative), too many raises
    InvariantViolation (the BFS failed to merge equivalent elements).
    """
    classes = enumerate_elliptic(F, height_bound=height_bound)
    counts: Dict[Tuple[int, int], int] = {}
    for cl in classes:
        counts[(cl.nu, cl.t)] = counts.get((cl.nu, cl.t), 0) + 1
    census = tuple((nu, tj, c) for (nu, tj), c in sorted(counts.items()))
    if F.D in CENSUS_ORDERS:
        got = tuple(sorted(cl.nu for cl in classes))
        want = CENSUS_ORDERS[F.D]
        if got != want:
            if len(got) < len(want) or set(got) < set(want):
                raise BudgetExceededError(
                    f"census incomplete for D={F.D}: orders {got}, "
                    f"expected {want}; raise height_bound > {height_bound}")
            raise InvariantViolation(
                f"census mismatch for D={F.D}: orders {got}, expected {want}")
    return census
