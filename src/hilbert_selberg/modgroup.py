"""The Hilbert modular group: elements, classification, elliptic census.

Group elements are 2x2 matrices over O_K of determinant 1, acting on
H x H through the pair (gamma, gamma') of real embeddings.  Conjugacy
searches walk the Cayley graph of conjugation by a fixed generator set
(translations by +-1, +-w and the inversion S), with per-embedding
height caps, so two elements in different components within the caps
are not thereby proved non-conjugate.

Conjugation orbits run on the orbit engine of `orbits`, with PSL(2, O_K)
elements as states.  Conjugation keeps the trace, so one search runs in
the slice of its seeds' trace tr: a state is keyed by the int64 index of
its entries a, b and c alone (d = tr - a), the representative of trace
tr stands for g and -g, and for tr = 0 the smaller key of the two does.
The generators' integer matrix is applied as one float64 product, exact
because the engine's int64 guard keeps every coordinate below 2^31.
The census's matrix search is seeded by the trace-t scan, in the sign of
trace t, and negates the powers it seeds to that sign; the class count's
stabilizer search (`pellforms`) negates its form matrices to the sign of
trace t0: the engine takes seeds of one exact trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .orbits import (GeneratorTables, Orbit, budget_error, capped_bfs,
                     generator_tables, height_predicate, unique_rows,
                     _box_rows, _factor_pairs)
from .quadfield import (CENSUS_ORDERS, FieldCtx, QuadInt, _coord_mul,
                        _omega_trace_norm)

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
        return ElementClass("hyperbolic-elliptic", t, norm=N)
    N = ((abs(t2) + math.sqrt(t2 * t2 - 4.0)) / 2.0) ** 2
    return ElementClass("elliptic-hyperbolic", t, norm=N)


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


def _embed_signs(rows: np.ndarray, D: int, j: int) -> np.ndarray:
    """Exact signs of the j-th embeddings of the (N, 2) coordinate rows
    (x, y), read as x + y*w with w = (t + sqrt(D))/2 and w' its
    conjugate."""
    t, _ = _omega_trace_norm(D)
    x, y = rows.T
    return _sign_rows(2 * x + t * y, y if j == 1 else -y, D)


# the translation generators mu = +1, -1, +w, -w as coordinate columns
_MU_A = np.array([[1], [-1], [0], [0]])
_MU_B = np.array([[0], [0], [1], [-1]])
# g -> P g^-1 P with P = diag(1, -1): [[A, B], [C, E]] -> [[E, B], [C, A]]
# turns conjugation by h into conjugation by PhP, which maps S to itself
# (in PSL) and T_mu to T_-mu, so orbits are searched modulo it; it keeps
# the trace, and C with it
_CONJ_MIRROR = np.eye(8, dtype=np.int64)[[6, 7, 2, 3, 4, 5, 0, 1]]


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


@functools.cache
def _conj_tables(D: int) -> GeneratorTables:
    """Conjugation's generator tables over Q(sqrt D), built once."""
    t, n = _omega_trace_norm(D)
    return generator_tables(
        "conjugation", lambda rows: _conj_neighbors(rows, D, t, n),
        _CONJ_MIRROR)


def conjugation_orbit(seeds, D: int, cap1, cap2,
                      groups: Optional[np.ndarray] = None
                      ) -> Tuple[Orbit, np.ndarray]:
    """Height-capped BFS orbits of conjugation in PSL(2, O_K) from one
    key or an (S, 8) array of them; returns (orbit, reps), reps the
    seed rows that are their components' roots.

    The seeds must have exactly the first seed's trace and lie inside
    the caps; ValidationError otherwise.  With `groups`, the seeds of
    each group share one trace instead, and the caps are arrays with
    one cap per group; with no `groups` the seeds are group 0.  A group
    with a component past orbits.MAX_STATES states is marked in
    orbit.failed, from which the caller raises orbits.budget_error
    (see orbits.capped_bfs).  The search runs modulo the mirror
    g -> P g^-1 P, P = diag(1, -1), which keeps the trace and c.
    """
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1, 8)
    orbit = capped_bfs("conjugation", seeds,
                       functools.partial(_conj_tables, D), D, cap1, cap2,
                       groups)
    return orbit, seeds[orbit.reps]


# ------------------------------------------------------- elliptic census


@dataclass(frozen=True)
class EllipticClass:
    """Primitive elliptic conjugacy class with rotation pair
    (pi/nu, t*pi/nu); rep is its least candidate row as a GroupElem,
    sign-normalized by its first nonzero entry."""

    nu: int
    t: int
    rep: GroupElem


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


def _matrices_with_trace(F: FieldCtx, tr: QuadInt, cap1: float,
                         cap2: float) -> np.ndarray:
    """The det-1 matrices of trace exactly tr whose a, b and c have
    heights within (cap1, cap2), d = tr - a unbounded, and whose c has
    positive first embedding, as (N, 8) int64 rows ordered by a, then
    c, in box order: a and c come from the box, b is their cofactor.
    The others are their conjugates by diag(1, -1)."""
    D = F.D
    t, n = _omega_trace_norm(D)
    # box coordinates are at most H, those of tr - a at most T, those of
    # b*c at most Pmax; the products of the scan stay under (|n| + 4) H Pmax
    # and the norms of the b*c under (|n| + 2) Pmax^2
    H = math.floor(cap1 + cap2) + 1
    T = H + max(abs(tr.a), abs(tr.b))
    Pmax = (abs(n) + 3) * H * T + 1
    if max((abs(n) + 4) * H, (abs(n) + 2) * Pmax) * Pmax >= 2 ** 62:
        raise BudgetExceededError(
            f"entry boxes ({cap1:.6g}, {cap2:.6g}) overflow int64 arithmetic")
    box = _box_rows(D, cap1, cap2)
    # b*c = a*d - 1 with d = tr - a, for every a in the box; the scan
    # skips b*c = 0, triangular matrices, which are never elliptic: c = 0
    # gives |trace| >= 2 in each embedding, likewise b = 0 after S
    d = [tr.a, tr.b] - box
    bc = np.column_stack(_coord_mul(*box.T, *d.T, t, n)) - [1, 0]
    half = box[_embed_signs(box, D, 1) > 0]
    i, c, b = _factor_pairs(bc, half, D, cap1, cap2)
    return np.column_stack([box[i], b, c, d[i]])


def _elliptic_candidates(F: FieldCtx, height_bound: float
                         ) -> Dict[int, np.ndarray]:
    """Candidate rows per order nu, distinct and in increasing order: the
    scan of trace 2cos(pi/nu) whose c has positive first embedding.  For
    nu = 2, of trace 0, that is one sign of each PSL element (c != 0)."""
    out: Dict[int, np.ndarray] = {}
    for nu, tr in _two_cos_table(F).items():
        rows = _matrices_with_trace(F, tr, height_bound, height_bound)
        if len(rows):
            out[nu] = unique_rows(rows)
    return out


def enumerate_elliptic(F: FieldCtx, height_bound: float
                       ) -> Tuple[EllipticClass, ...]:
    """Primitive elliptic conjugacy classes (rotation pair (pi/nu, t*pi/nu)).

    Brute enumeration over admissible traces and height-bounded entries,
    then partition by conjugation BFS.  The candidates of order nu are
    the (N, 8) scan of trace 2cos(pi/nu) over the matrices whose c has
    positive first embedding (`_elliptic_candidates`).  A class is kept
    only when it generates the full point stabilizer: proper powers of a
    higher-order generator (the square of an order-4 rotation is an
    order-2 rotation about the same point) carry the right trace but
    have a point of larger isotropy.
    Orders are searched largest first, one search per order, whose
    components are the classes.  The powers of the larger orders'
    primitive classes that land at an order and lie inside its caps are
    seeded into its search after the candidates, each in its sign of
    trace 2cos(pi/nu), so a power in a candidate's component has that
    candidate as its root.  A power outside the caps, or in no
    candidate's component, raises: the height bound was too small when
    the power lies outside the candidate box (BudgetExceededError), and
    the search failed when it lies inside (InvariantViolation).  A
    search past orbits.MAX_STATES raises budget_error("conjugation").

    The PSL order and rotation angles are checked once per class.  By
    Cayley-Hamilton every g of trace tau has g^k = a_k(tau) g + b_k(tau) I,
    so all candidates of one order share the representative's order, and
    the direction of rotation in each embedding is a conjugacy invariant.
    """
    D = F.D
    two_cos = _two_cos_table(F)
    cap_bfs = height_bound * 2.5
    inside = height_predicate(D, cap_bfs, cap_bfs)
    in_box = height_predicate(D, height_bound, height_bound)

    candidates = _elliptic_candidates(F, height_bound)
    classes: List[EllipticClass] = []
    for nu in sorted(two_cos, reverse=True):
        tr = two_cos[nu]
        cands = candidates.get(nu, np.empty((0, 8), dtype=np.int64))
        S = len(cands)
        powers = [(c.nu, c.rep ** (c.nu // nu)) for c in classes
                  if c.nu % nu == 0]
        prows = np.array([p.key() for _, p in powers],
                         dtype=np.int64).reshape(-1, 8)
        # GroupElem normalizes a power by sign: negate those of trace -tr
        prows[[p.trace() != tr for _, p in powers]] *= -1
        near = inside(prows)
        orbit, reps = conjugation_orbit(np.concatenate([cands, prows[near]]),
                                        D, cap_bfs, cap_bfs)
        if orbit.failed[0]:
            raise budget_error("conjugation")
        by_root: Dict[int, EllipticClass] = {}
        for root, row in zip(orbit.reps.tolist(), reps.tolist()):
            if root >= S:  # a power's own component, not a class
                break
            rep = GroupElem.from_key(tuple(row), D)
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
            by_root[root] = EllipticClass(nu=nu, t=tj % nu, rep=rep)

        # drop the classes that are proper powers of a larger stabilizer
        # generator
        roots = np.full(len(prows), -1)
        roots[near] = orbit.roots[S:]
        for (m, _), prow, root in zip(powers, prows, roots.tolist()):
            if not 0 <= root < S:
                if not in_box(prow[None])[0]:
                    # its class may have no element inside the box
                    raise BudgetExceededError(
                        f"order-{nu} power of an order-{m} class lies "
                        f"outside the candidate box; raise "
                        f"height_bound > {height_bound}")
                raise InvariantViolation(
                    f"order-{nu} power of an order-{m} class not "
                    "located among the enumerated classes")
            by_root.pop(root, None)
        classes.extend(by_root.values())

    classes.sort(key=lambda c: (c.nu, c.t, c.rep.key()))
    return tuple(classes)


# entry height of the census candidates: every certified field's
# classes have a representative inside it
CENSUS_HEIGHT = 8.0


def elliptic_census(F: FieldCtx) -> Tuple[Tuple[int, int, int], ...]:
    """(nu, t, count) census of primitive elliptic classes, enumerated at
    entry height CENSUS_HEIGHT.

    For D in {5, 8, 12} the computed order multiset is checked against
    the certified one: too few classes raises BudgetExceededError (the
    height bound missed a representative), too many raises
    InvariantViolation (the BFS failed to merge equivalent elements).
    """
    classes = enumerate_elliptic(F, CENSUS_HEIGHT)
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
                    f"expected {want}; raise CENSUS_HEIGHT > {CENSUS_HEIGHT}")
            raise InvariantViolation(
                f"census mismatch for D={F.D}: orders {got}, expected {want}")
    return census
