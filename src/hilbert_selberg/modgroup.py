"""The Hilbert modular group: elements, classification, elliptic census.

Group elements are 2x2 matrices over O_K of determinant 1, acting on
H x H through the pair (gamma, gamma') of real embeddings.  Conjugacy
searches walk the Cayley graph of conjugation by a fixed generator set
(translations by +-1, +-w and the inversion S), with per-embedding
height caps, so a target missed within the caps proves nothing about
conjugacy.

One orbit engine, `capped_bfs`, serves matrix conjugation here and the
form action in `pellforms`.  States are int64 coordinate rows, a level
at a time; a visited orbit is an `Orbit`, the sorted array of the exact
complex128 keys its in-cap states pack to, so tuples are built only for
seeds and representatives.  Each level's images are deduplicated
against the current and the previous level alone.  That is exact
because the capped generator graph is undirected: S is an involution
(on forms, and under conjugation since S^2 = -1 is central),
T_mu^-1 = T_-mu, and the height test is a property of the state, so a
neighbour of a level-k state lies on level k - 1, k or k + 1.
Conjugation states are PSL(2, O_K) elements: each pair index of a key
maps to R - 1 - idx under negation, so key(-g) = (R^2 - 1 - re,
R^2 - 1 - im), and the smaller of key(g) and key(-g) keys both signs
without sign-normalizing any image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
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

    def psl_order(self, cap: int = 14) -> Optional[int]:
        """Order in PSL(2, O_K), or None if it exceeds cap."""
        p = self
        for k in range(1, cap + 1):
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


# ---------------------------------------------------------------- BFS core


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


def height_predicate(D: int, cap1: float, cap2: float
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """Row mask: every coordinate pair (x, y) of a row, read as x + y*w,
    has embeddings within (cap1, cap2); works for matrix and form rows."""
    w1, w2 = _embed_consts(D)

    def ok(rows: np.ndarray) -> np.ndarray:
        x, y = rows[:, 0::2], rows[:, 1::2]
        return ((np.abs(x + y * w1) <= cap1)
                & (np.abs(x + y * w2) <= cap2)).all(axis=1)
    return ok


def _row_packer(what: str, D: int, cap1: float, cap2: float, seed: tuple,
                psl: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Exact complex128 sort keys for in-cap rows of 6 or 8 entries.

    An in-cap pair x + y*w has |2x + t*y| <= cap1 + cap2 and
    |y| sqrt(D) <= cap1 + cap2, so it has an offset index below R in that
    box; two indices go into each float64 half, exact while R^2 < 2^53.
    Negating a pair maps its index to R - 1 - idx, so an 8-entry row
    -g packs to (R^2 - 1 - re, R^2 - 1 - im); with `psl` set, a row
    packs to the smaller of key(g) and key(-g), one key for both signs.
    Raises BudgetExceededError up front when the caps break exactness,
    or when the neighbour maps could reach 2^62 in int64 arithmetic.
    """
    t, n = _omega_trace_norm(D)
    A = math.floor(cap1 + cap2) + 1
    B = math.floor((cap1 + cap2) / math.sqrt(D)) + 1
    R = (2 * A + 1) * (2 * B + 1)
    if R * R >= 2 ** 53:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) too large for "
            "exact packed keys")
    # in-cap coordinates are at most cap1 + cap2; one generator step
    # multiplies that by at most 4|n| + 8, and the sign test squares it
    M = (4 * abs(n) + 8) * max(A, max(abs(v) for v in seed))
    if M * M * max(9, D) >= 2 ** 62:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) or seed overflow "
            "int64 arithmetic")
    top = R * R - 1

    def pack(rows: np.ndarray) -> np.ndarray:
        x, y = rows[:, 0::2], rows[:, 1::2]
        idx = (2 * x + t * y + A) * (2 * B + 1) + (y + B)
        re = idx[:, 0] * R + idx[:, 1]
        im = idx[:, 2] * R + (idx[:, 3] if idx.shape[1] > 3 else 0)
        if psl:
            flip = (2 * re > top) | ((2 * re == top) & (2 * im > top))
            re = np.where(flip, top - re, re)
            im = np.where(flip, top - im, im)
        keys = np.empty(len(rows), dtype=np.complex128)
        keys.real, keys.imag = re, im
        return keys
    return pack


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the keys present in the sorted key array."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


class Orbit:
    """The states one capped_bfs run visited.

    `keys` is the sorted array of the packed keys of its in-cap states;
    a seed outside the caps is kept as a row (with its negative for a
    PSL orbit).  len() is the state count, `contains` tests the rows of
    an (N, k) array at once and `in` tests one key.
    """

    __slots__ = ("keys", "_pack", "_inside", "_outside")

    def __init__(self, keys: np.ndarray, pack: Callable, inside: Callable,
                 outside: np.ndarray):
        self.keys, self._pack = keys, pack
        self._inside, self._outside = inside, outside

    def __len__(self) -> int:
        return len(self.keys) + (len(self._outside) > 0)

    def contains(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        inside = self._inside(rows)
        out = (rows[:, None] == self._outside).all(axis=2).any(axis=1)
        out[inside] = _in_sorted(self.keys, self._pack(rows[inside]))
        return out

    def __contains__(self, key: tuple) -> bool:
        return bool(self.contains(np.array([key], dtype=np.int64))[0])


def capped_bfs(what: str, seed: tuple,
               neighbors: Callable[[np.ndarray], np.ndarray],
               D: int, cap1: float, cap2: float, max_states: int,
               targets: Optional[Iterable[tuple]] = None,
               psl: bool = False) -> Tuple[Orbit, bool]:
    """Height-capped BFS from seed; returns (orbit, hit_target).

    The frontier is expanded a whole level at a time: `neighbors` maps
    an (N, k) int64 array to its (m*N, k) images, row i's images in
    rows m*i..m*i+m-1.  The new states of a level are the first
    occurrences, in that order, of in-cap images on neither the current
    nor the previous level (exact on the undirected capped graph, see
    the module docstring), so orbits, target hits and the state at
    which the budget trips are those of a key-by-key walk that checks
    each neighbour in turn: already visited, over the height cap, a
    target (stop at once), then the state budget, which raises
    BudgetExceededError for the `what` orbit.  With `psl` set, g and
    -g are one state.
    """
    height_ok = height_predicate(D, cap1, cap2)
    pack = _row_packer(what, D, cap1, cap2, seed, psl)
    frontier = np.array([seed], dtype=np.int64)
    prev = np.empty(0, dtype=np.complex128)
    curr = pack(frontier[height_ok(frontier)])
    outside = (frontier[:0] if len(curr) else
               np.concatenate([frontier, -frontier]) if psl else frontier)
    goal = None
    if targets is not None:
        rows = np.array(list(targets), dtype=np.int64).reshape(-1, len(seed))
        goal = np.unique(pack(rows[height_ok(rows)]))
    levels, count, hit = [curr], 1, False
    while len(frontier):
        images = neighbors(frontier)
        images = images[height_ok(images)]
        keys = pack(images)
        uniq, first = np.unique(keys, return_index=True)
        new = ~(_in_sorted(curr, uniq) | _in_sorted(prev, uniq))
        fresh = np.sort(first[new])  # the level's new states, in walk order
        # a key-by-key walk checks state `trip` against the targets, then
        # raises because adding it took the count past max_states
        trip = max(0, max_states - count)
        if goal is not None:
            at = np.flatnonzero(_in_sorted(goal, keys[fresh[:trip + 1]]))
            if len(at):
                levels.append(keys[fresh[:at[0] + 1]])
                hit = True
                break
        if trip < len(fresh):
            raise BudgetExceededError(
                f"{what} orbit exceeded {max_states} states")
        frontier = images[fresh]
        prev, curr = curr, uniq[new]
        levels.append(curr)
        count += len(curr)
    return Orbit(np.sort(np.concatenate(levels)), pack, height_ok,
                 outside), hit


def partition_orbits(rows: np.ndarray, orbit_of: Callable[[tuple], Orbit]
                     ) -> Iterator[Tuple[tuple, Orbit]]:
    """Split the rows of an (N, k) key array into orbits: yields
    (seed, orbit) with seed the least row, as a tuple, not yet covered;
    orbit_of(seed) must contain seed."""
    remaining = np.unique(rows, axis=0)
    while len(remaining):
        seed = tuple(remaining[0].tolist())
        orbit = orbit_of(seed)
        yield seed, orbit
        remaining = remaining[~orbit.contains(remaining)]


def conjugation_orbit(seed: Key, D: int, cap1: float, cap2: float,
                      max_states: int = 400000,
                      targets: Optional[Iterable[Key]] = None
                      ) -> Tuple[Orbit, bool]:
    """Height-capped BFS orbit of conjugation in PSL(2, O_K); returns
    (orbit, hit_target).

    Stops early when any target key is reached.  Raises when the state
    budget is exhausted (the orbit is then reported incomplete).
    """
    t, n = _omega_trace_norm(D)
    seed = _normalize_rows(np.array([seed], dtype=np.int64), D, t)[0]
    return capped_bfs("conjugation", tuple(seed.tolist()),
                      lambda rows: _conj_neighbors(rows, D, t, n),
                      D, cap1, cap2, max_states, targets, psl=True)


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


def _signed_angle(tr_embed: float, c_sign: int) -> float:
    """Rotation angle in (-pi, pi) \\ {0} from trace embedding and sign of c."""
    theta = math.acos(max(-1.0, min(1.0, tr_embed / 2.0)))
    return theta if c_sign > 0 else -theta


def enumerate_elliptic(F: FieldCtx, height_bound: float = 10.0
                       ) -> Tuple[EllipticClass, ...]:
    """Primitive elliptic conjugacy classes (rotation pair (pi/nu, t*pi/nu)).

    Brute enumeration over admissible traces and height-bounded entries,
    then partition by conjugation BFS.  Candidates are elements whose
    theta1-normalized trace equals 2cos(pi/nu) exactly; a candidate class
    is kept only when its elements generate the full point stabilizer.
    Proper powers of a higher-order generator (the square of an order-4
    rotation is an order-2 rotation about the same point) carry the right
    trace but belong to a point of larger isotropy and are dropped.
    """
    D = F.D
    two_cos = _two_cos_table(F)
    cap_bfs = height_bound * 2.5
    w1, w2 = _embed_consts(D)

    # collect candidate matrices, one bucket per order; trace -tr gives
    # the negatives of the trace-tr matrices, the same PSL elements
    buckets: Dict[int, List[Key]] = {}
    meta: Dict[Key, Tuple[int, int, float, float]] = {}
    for nu, tr in two_cos.items():
        for key in _matrices_with_trace(F, tr, height_bound,
                                        height_bound).tolist():
            g = GroupElem.from_key(key, D)  # signs as in _normalize_rows
            order = g.psl_order()
            if order != nu:
                raise InvariantViolation(
                    f"element with trace {tr} has PSL order {order}, "
                    f"expected {nu}")
            # theta1 normalization: representative with embed(c, 1) > 0
            ga = g if g.c.sign_embed(1) > 0 else \
                GroupElem(-g.a, -g.b, -g.c, -g.d)
            tr1 = ga.trace()
            if not (tr1 == two_cos[nu]):
                continue  # theta1 = pi - pi/nu variant; inverse class rep
            theta2 = _signed_angle(tr1.embed(2), ga.c.sign_embed(2)) \
                % (2.0 * math.pi)
            tj = round(theta2 * nu / math.pi)
            if abs(theta2 - tj * math.pi / nu) > 1e-9 or math.gcd(tj, nu) != 1 \
                    or tj % 2 == 0:
                raise InvariantViolation(
                    f"bad rotation angle {theta2} for nu={nu}")
            nk = g.key()
            buckets.setdefault(nu, []).append(nk)
            meta[nk] = (nu, tj, math.acos(tr1.embed(1) / 2.0), theta2)

    # partition each bucket by conjugation BFS, keeping the orbits
    records: List[dict] = []
    for bucket in buckets.values():
        rows = np.array(bucket, dtype=np.int64)
        for seed, orbit in partition_orbits(
                rows,
                lambda k: conjugation_orbit(k, D, cap_bfs, cap_bfs)[0]):
            nu, tj, th1, th2 = meta[seed]
            records.append({"nu": nu, "tj": tj, "th1": th1, "th2": th2,
                            "seed": seed, "orbit": orbit,
                            "members": rows[orbit.contains(rows)],
                            "primitive": True})

    # drop classes that are proper powers of a larger stabilizer generator
    for rec in sorted(records, key=lambda r: -r["nu"]):
        if not rec["primitive"]:
            continue
        nu = rec["nu"]
        rep = GroupElem.from_key(rec["seed"], D)
        for div in range(2, nu):
            if nu % div:
                continue
            pkey = (rep ** (nu // div)).key()
            sub = [r for r in records if r["nu"] == div]
            owner = next((r for r in sub if pkey in r["orbit"]), None)
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

    classes: List[EllipticClass] = []
    for rec in records:
        if not rec["primitive"]:
            continue
        rep = GroupElem.from_key(rec["seed"], D)
        classes.append(EllipticClass(nu=rec["nu"], t=rec["tj"] % rec["nu"],
                                     rep=rep, theta1=rec["th1"],
                                     theta2=rec["th2"]))
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
