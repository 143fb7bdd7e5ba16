"""Binary quadratic forms over O_K, Pell equations, and class numbers.

A discriminant here is a totally mixed-sign element d of O_K (positive
at the first embedding, negative at the second) that is congruent to a
square mod 4.  For each such d the forms a x^2 + b xy + c y^2 with
b^2 - 4ac = d fall into finitely many SL(2, O_K)-orbits; the class
number h_K(d) is computed twice, by a direct orbit partition of the
forms and by counting matrix conjugacy classes through the stabilizer
generator map, and the two counts must agree.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .modgroup import (GroupElem, Key, capped_bfs, conjugation_orbit,
                       partition_orbits, _matrices_with_trace, _normalize_key,
                       _MU_A, _MU_B)
from .quadfield import (FieldCtx, QuadInt, canonical_disc, lattice_points,
                        _coord_mul, _embed_consts, _omega_trace_norm)

__all__ = [
    "FormOverOK", "PellSolution", "DiscriminantRecord", "content",
    "euclid_gcd", "in_Dpm", "pell_fundamental", "class_number",
    "form_to_matrix", "enumerate_forms",
]


# ------------------------------------------------------------ gcd helpers


def _gcd_coords(xa: int, xb: int, ya: int, yb: int,
                t: int, n: int) -> Tuple[int, int]:
    """Coordinates of a gcd of xa + xb*w and ya + yb*w in O_K, where
    w^2 = t*w - n, by nearest-lattice division with a neighbor rescue.

    Nearest rounding strictly shrinks |N(r)| in the norm-Euclidean
    fields; elsewhere a small offset scan usually rescues the step, and
    a budget error is raised if it cannot.
    """
    def norm(a: int, b: int) -> int:
        return abs(a * a + t * a * b + n * b * b)

    for _ in range(200):
        if ya == 0 and yb == 0:
            return xa, xb
        ny = ya * ya + t * ya * yb + n * yb * yb
        # nearest quotient: x * conj(y) / N(y), conj(y) = (ya + t*yb, -yb)
        numa, numb = _coord_mul(xa, xb, ya + t * yb, -yb, t, n)
        sgn, m = (1, ny) if ny > 0 else (-1, -ny)
        qa = (2 * sgn * numa + m) // (2 * m)
        qb = (2 * sgn * numb + m) // (2 * m)
        pa, pb = _coord_mul(qa, qb, ya, yb, t, n)
        ra, rb = xa - pa, xb - pb
        if norm(ra, rb) >= m:
            best = None
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    pa, pb = _coord_mul(qa + da, qb + db, ya, yb, t, n)
                    r2 = norm(xa - pa, xb - pb)
                    if best is None or r2 < best[0]:
                        best = (r2, xa - pa, xb - pb)
            _, ra, rb = best
            if best[0] >= m:
                raise BudgetExceededError(  # t^2 - 4n is the field's D
                    f"euclidean step stalled for D={t * t - 4 * n}; "
                    "field may not admit nearest-lattice division")
        xa, xb, ya, yb = ya, yb, ra, rb
    raise BudgetExceededError("gcd iteration budget exhausted")


def euclid_gcd(x: QuadInt, y: QuadInt) -> QuadInt:
    """gcd in O_K (any associate); see _gcd_coords."""
    if x.D != y.D:
        raise ValidationError("gcd of elements from different fields")
    t, n = _omega_trace_norm(x.D)
    return QuadInt(x.D, *_gcd_coords(x.a, x.b, y.a, y.b, t, n))


def content(a: QuadInt, b: QuadInt, c: QuadInt) -> QuadInt:
    """gcd of the three coefficients (any associate)."""
    g = euclid_gcd(a, b)
    return euclid_gcd(g, c)


# ------------------------------------------------------------ form type


FormKey = Tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class FormOverOK:
    """Primitive binary quadratic form a x^2 + b xy + c y^2 over O_K."""

    a: QuadInt
    b: QuadInt
    c: QuadInt

    def __post_init__(self):
        if not (self.a.D == self.b.D == self.c.D):
            raise ValidationError("form coefficients from different fields")
        if not content(self.a, self.b, self.c).is_unit():
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


# ------------------------------------------------------- membership test


def _square_in_OK(d: QuadInt) -> Optional[QuadInt]:
    """Exact square root of d in O_K if one exists."""
    e1, e2 = d.embed(1), d.embed(2)
    if e1 < 0 or e2 < 0:
        return None
    w1, _ = _embed_consts(d.D)
    sq = math.sqrt(d.D)
    r1 = math.sqrt(e1)
    for s2 in (math.sqrt(e2), -math.sqrt(e2)):
        bf = (r1 - s2) / sq
        af = r1 - bf * w1
        for aa in (math.floor(af), math.ceil(af)):
            for bb in (math.floor(bf), math.ceil(bf)):
                x = QuadInt(d.D, int(aa), int(bb))
                if x * x == d:
                    return x
    return None


def in_Dpm(d: QuadInt, F: Optional[FieldCtx] = None) -> bool:
    """Membership in the mixed-sign discriminant set.

    Requires embed(d,1) > 0 > embed(d,2), d not a square, and a witness
    b with d = b^2 (mod 4).  Since b^2 mod 4 only depends on b mod 2,
    the witness search runs over the four residues of O_K / 2O_K; this
    is equivalent to scanning all sixteen residues mod 4.
    """
    if d.sign_embed(1) <= 0 or d.sign_embed(2) >= 0:
        return False
    # the sign pattern already excludes squares; keep the check explicit
    if _square_in_OK(d) is not None:
        return False
    D = d.D
    four = QuadInt(D, 4, 0)
    for ba in (0, 1):
        for bb in (0, 1):
            b = QuadInt(D, ba, bb)
            if four.divides(d - b * b):
                return True
    return False


# ---------------------------------------------------------- Pell solver


def pell_fundamental(d: QuadInt, F: FieldCtx,
                     eps_cap: float = 200.0) -> PellSolution:
    """Minimal solution of t^2 - d u^2 = 4 with (t + u sqrt d)/2 > 1.

    The second embedding forces t'^2 + |d'| u'^2 = 4, so |u'| lives in
    a fixed tiny interval; the first is bounded through the eps cap.
    """
    if not in_Dpm(d, F):
        raise ValidationError(f"{d} is not a mixed-sign discriminant")
    D = d.D
    d1, d2 = d.embed(1), d.embed(2)
    cap1 = 2.0 * eps_cap / math.sqrt(d1)
    cap2 = 2.0 / math.sqrt(-d2) + 1e-9
    four = QuadInt(D, 4, 0)
    sq = math.sqrt(D)
    w1, _ = _embed_consts(D)
    best: Optional[Tuple[float, QuadInt, QuadInt]] = None
    for u in lattice_points(D, cap1, cap2):
        if u.is_zero() or u.embed(1) <= 0:
            continue
        rhs = d * (u * u) + four
        e1, e2 = rhs.embed(1), rhs.embed(2)
        if e1 < 0 or e2 < 0:
            continue
        r1 = math.sqrt(e1)
        r2 = math.sqrt(e2)
        for s2 in (r2, -r2):
            bf = (r1 - s2) / sq
            af = r1 - bf * w1
            cand = QuadInt(D, round(af), round(bf))
            if cand * cand != rhs:
                continue
            t0 = cand if cand.sign_embed(1) > 0 else -cand
            eps = (t0.embed(1) + u.embed(1) * math.sqrt(d1)) / 2.0
            if eps <= 1.0 + 1e-12:
                continue
            if best is None or eps < best[0] - 1e-12:
                best = (eps, t0, u)
    if best is None:
        raise BudgetExceededError(
            f"no pell solution for {d} within eps <= {eps_cap}")
    sol = PellSolution(d=d, t0=best[1], u0=best[2])
    sol.verify()
    return sol


# --------------------------------------------------------- form orbits


def _form_neighbors(rows: np.ndarray, D: int, t: int, n: int) -> np.ndarray:
    """Images of each form row under the swap and translation generators;
    row i's images are rows 5i..5i+4, in the order S, T_1, T_-1, T_w, T_-w.

    (a, b, c) -> (a, b + 2 a mu, c + b mu + a mu^2)   [x -> x + mu y]
    (a, b, c) -> (c, -b, a)                            [x,y -> -y,x]
    """
    aa, ab, ba, bb, ca, cb = rows.T
    out = np.repeat(rows[:, None], 5, axis=1)
    out[:, 0] = rows[:, [4, 5, 2, 3, 0, 1]] * [1, 1, -1, -1, 1, 1]
    m2a, m2b = _coord_mul(_MU_A, _MU_B, _MU_A, _MU_B, t, n)
    ta, tb = _coord_mul(2 * aa, 2 * ab, _MU_A, _MU_B, t, n)
    bma, bmb = _coord_mul(ba, bb, _MU_A, _MU_B, t, n)
    am2a, am2b = _coord_mul(aa, ab, m2a, m2b, t, n)
    T = out[:, 1:]  # the T_mu images, (N, 4, 6), start as copies of the row
    T[..., 2] += ta.T
    T[..., 3] += tb.T
    T[..., 4] += (bma + am2a).T
    T[..., 5] += (bmb + am2b).T
    return out.reshape(-1, 6)


def form_orbit(seed: FormKey, D: int, cap1: float, cap2: float,
               max_states: int = 400000) -> Set[FormKey]:
    """Height-capped BFS orbit of the form under the generator action."""
    t, n = _omega_trace_norm(D)
    visited, _ = capped_bfs("form", seed,
                            lambda rows: _form_neighbors(rows, D, t, n),
                            D, cap1, cap2, max_states)
    return visited


def _form_boxes(d: QuadInt, height: float) -> Tuple[float, float]:
    """Per-embedding coefficient boxes.  Every class owns a member with
    coefficients on the scale of sqrt(|d_j|) at slot j, so the boxes
    track the discriminant even when its embeddings are lopsided."""
    h1 = max(height, 3.0 + 1.5 * math.sqrt(abs(d.embed(1))))
    h2 = max(height, 3.0 + 1.5 * math.sqrt(abs(d.embed(2))))
    return h1, h2


def enumerate_forms(d: QuadInt, F: FieldCtx,
                    height: float = 8.0) -> List[FormKey]:
    """Keys of all primitive forms of discriminant d with coefficient
    heights inside the per-embedding boxes derived from d and `height`."""
    D = d.D
    t, n = _omega_trace_norm(D)
    h1, h2 = _form_boxes(d, height)
    # box coordinates are at most H, |b^2 - d| at most N; the products
    # below stay under 4(|n| + 4) H N
    H = math.floor(h1 + h2) + 1
    N = (abs(n) + 3) * H * H + abs(d.a) + abs(d.b)
    if 4 * (abs(n) + 4) * H * N >= 2 ** 62:
        raise BudgetExceededError(
            f"form boxes ({h1:.6g}, {h2:.6g}) overflow int64 arithmetic")
    pts = list(lattice_points(D, h1, h2))
    if not pts:
        return []
    xa = np.array([p.a for p in pts], dtype=np.int64)
    xb = np.array([p.b for p in pts], dtype=np.int64)
    w1, w2 = _embed_consts(D)
    # num = b^2 - d for the whole b-column at once
    numa = xa * xa - n * xb * xb - d.a
    numb = 2 * xa * xb + t * xb * xb - d.b
    out: List[FormKey] = []
    for a in pts:
        if a.is_zero():
            continue
        fa, fb = 4 * a.a, 4 * a.b
        nf = fa * fa + t * fa * fb + n * fb * fb
        # num * conj(4a), conj(x + y*w) = (x + t*y, -y)
        cx, cy = fa + t * fb, -fb
        pa = numa * cx - n * (numb * cy)
        pb = numa * cy + numb * cx + t * (numb * cy)
        ok = (pa % nf == 0) & (pb % nf == 0)
        idx = np.nonzero(ok)[0]
        if idx.size == 0:
            continue
        ca = pa[idx] // nf
        cb = pb[idx] // nf
        keep = (np.abs(ca + cb * w1) <= h1) & (np.abs(ca + cb * w2) <= h2)
        for j in np.nonzero(keep)[0]:
            i = idx[j]
            key = (a.a, a.b, int(xa[i]), int(xb[i]), int(ca[j]), int(cb[j]))
            g = _gcd_coords(*key[:4], t, n)
            ga, gb = _gcd_coords(*g, *key[4:], t, n)
            if abs(ga * ga + t * ga * gb + n * gb * gb) == 1:
                out.append(key)
    return out


# ------------------------------------------------- matrix-count oracle


def _matrix_boxes(pell: PellSolution, height: float) -> Tuple[float, float]:
    """Entry boxes for the conjugacy-count oracle.  The stabilizer of a
    box-reduced form has entries of scale |t0_j| + sqrt|t0_j^2 - 4| at
    slot j (the Pell relation gives sqrt|d_j| * |u0_j| = sqrt|t0_j^2-4|)."""
    out = []
    for j in (1, 2):
        tj = abs(pell.t0.embed(j))
        ej = tj + math.sqrt(abs(tj * tj - 4.0))
        out.append(max(height, 2.0 + 1.25 * ej))
    return out[0], out[1]


def _matrix_class_count(dc: QuadInt, pell: PellSolution, F: FieldCtx,
                        m1: float, m2: float, cap1: float, cap2: float) -> int:
    """Count HE conjugacy classes whose primitive form content matches dc.

    This walks the stabilizer-generator correspondence backwards:
    a matrix [[A, B], [C, E]] of trace t0 carries the form
    (C, E - A, -B); dividing out the content leaves a primitive form
    whose discriminant must canonicalize to dc.
    """
    D = F.D
    t, _ = _omega_trace_norm(D)
    keys: List[Key] = []
    canonical = {}  # few distinct discriminants recur many times
    tr = pell.t0
    for key in _matrices_with_trace(F, tr, m1, m2):
        aa, ab, ba, bb, ca, cb, da, db = key
        fa = QuadInt(D, ca, cb)
        fb = QuadInt(D, da - aa, db - ab)
        fc = QuadInt(D, -ba, -bb)
        if fa.is_zero() and fc.is_zero():
            continue
        # the primitive form is (fa, fb, fc) / k, of discriminant
        # disc(fa, fb, fc) / k^2
        k = content(fa, fb, fc)
        disc = (fb * fb - 4 * (fa * fc)).exact_div(k * k)
        if disc.sign_embed(1) <= 0 or disc.sign_embed(2) >= 0:
            continue
        if (disc.a, disc.b) not in canonical:
            canonical[disc.a, disc.b] = canonical_disc(disc, F)
        if canonical[disc.a, disc.b] != dc:
            continue
        keys.append(_normalize_key(key, D, t))
    return sum(1 for _ in partition_orbits(
        keys, lambda k: conjugation_orbit(k, D, cap1, cap2)[0]))


# ------------------------------------------------------- class numbers


def class_number(d: QuadInt, F: FieldCtx,
                 height: float = 8.0) -> DiscriminantRecord:
    """Dual-route class count for the canonical associate of d.

    The orbit partition of height-bounded primitive forms is the
    primary algorithm; the conjugacy-class count through the stabilizer
    map is the oracle.  A mismatch raises instead of picking a side.
    """
    if not in_Dpm(d, F):
        raise ValidationError(f"{d} is not a mixed-sign discriminant")
    dc = canonical_disc(d, F)
    pell = pell_fundamental(dc, F)
    D = F.D
    h1, h2 = _form_boxes(dc, height)
    cap1, cap2 = 3.0 * h1, 3.0 * h2

    forms = enumerate_forms(dc, F, height=height)
    reps = [seed for seed, _ in partition_orbits(
        forms, lambda k: form_orbit(k, D, cap1, cap2))]
    h_orbit = len(reps)

    m1, m2 = _matrix_boxes(pell, height)
    mcap1, mcap2 = max(cap1, 1.5 * m1), max(cap2, 1.5 * m2)
    h_matrix = _matrix_class_count(dc, pell, F, m1, m2, mcap1, mcap2)
    if h_orbit != h_matrix:
        raise InvariantViolation(
            f"ambiguous class count for d={dc}: form orbits give "
            f"{h_orbit}, matrix conjugacy gives {h_matrix}; "
            f"height={height}, bfs_factor=3.0")
    if h_orbit < 1:
        raise InvariantViolation(f"no forms found for d={dc}")
    return DiscriminantRecord(
        d=dc, pell=pell, class_number=h_orbit,
        forms=tuple(FormOverOK.from_key(k, D) for k in reps))


def form_to_matrix(Q: FormOverOK, pell: PellSolution) -> GroupElem:
    """Stabilizer generator of the form:
    [[(t0 - b u0)/2, -c u0], [a u0, (t0 + b u0)/2]]."""
    D = Q.a.D
    two = QuadInt(D, 2, 0)
    t0, u0 = pell.t0, pell.u0
    bu = Q.b * u0
    if not (two.divides(t0 - bu) and two.divides(t0 + bu)):
        raise ValidationError(
            "t0 and b*u0 have mismatched parity; discriminant witness "
            "b^2 = d (mod 4) is inconsistent with this form")
    return GroupElem.make((t0 - bu).exact_div(two), -(Q.c * u0),
                          Q.a * u0, (t0 + bu).exact_div(two))
