"""Binary quadratic forms over O_K, Pell equations, and class numbers.

A discriminant here is a totally mixed-sign element d of O_K (positive
at the first embedding, negative at the second) that is congruent to a
square mod 4.  For each such d the forms a x^2 + b xy + c y^2 with
b^2 - 4ac = d fall into finitely many SL(2, O_K)-orbits; the class
number h_K(d) is computed twice, by a direct orbit partition of the
forms and by counting matrix conjugacy classes through the stabilizer
generator map, and the two counts must agree.

Primitivity is one exact test on both routes: a form (a, b, c) is
primitive when the ideal (a, b, c) is all of O_K, that is, when its
index in O_K, the gcd of the 2x2 minors of its Z-generators, is 1.  No
gcd element is ever needed, so there is no division step to stall and
no search.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .modgroup import (GroupElem, conjugation_orbit, _matrices_with_trace,
                       _normalize_rows, _MU_A, _MU_B)
from .orbits import Orbit, capped_bfs, _row_packer
from .quadfield import (FieldCtx, QuadInt, canonical_disc, lattice_points,
                        _box_rows, _coord_mul, _embed_consts, _factor_pairs,
                        _omega_trace_norm)

__all__ = [
    "FormOverOK", "PellSolution", "DiscriminantRecord", "content_norm",
    "in_Dpm", "pell_fundamental", "class_number", "form_to_matrix",
    "enumerate_forms",
]


# ------------------------------------------------------- content ideal


def _content_norm_rows(rows: np.ndarray, t: int, n: int) -> np.ndarray:
    """Index in O_K of the ideal spanned by the three coordinate pairs of
    each (N, 6) form row, where w^2 = t*w - n: the norm of the content
    ideal, 1 exactly when the form is primitive, 0 for the zero form.

    As a Z-lattice in O_K = Z + Zw the ideal is spanned by each
    coefficient x + y*w and its product with w, -n*y + (x + t*y)*w, and
    the index of a lattice spanned by vectors of Z^2 is the gcd of their
    2x2 minors (Cohen, GTM 138, 2.4).  Exact on int64 rows while the
    minors stay inside int64, and on object rows of Python ints for any
    size.
    """
    x, y = rows[:, 0::2], rows[:, 1::2]
    u = np.concatenate([x, -n * y], axis=1)
    v = np.concatenate([y, x + t * y], axis=1)
    g = 0  # one minor at a time: no (N, 15) temporaries
    for i, j in zip(*np.triu_indices(6, 1)):
        g = np.gcd(g, u[:, i] * v[:, j] - u[:, j] * v[:, i])
    return g


def content_norm(a: QuadInt, b: QuadInt, c: QuadInt) -> int:
    """Norm of the ideal (a, b, c) of O_K; 1 exactly when the form with
    these coefficients is primitive.  Exact for coefficients of any size."""
    t, n = _omega_trace_norm(a.D)
    row = np.array([[a.a, a.b, b.a, b.b, c.a, c.b]], dtype=object)
    return int(_content_norm_rows(row, t, n)[0])


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


# ------------------------------------------------------- membership test


def in_Dpm(d: QuadInt) -> bool:
    """Membership in the mixed-sign discriminant set.

    Requires embed(d,1) > 0 > embed(d,2), which rules out squares, and
    a witness b with d = b^2 (mod 4).  Since b^2 mod 4 only depends on
    b mod 2, the witness search runs over the four residues of
    O_K / 2O_K; this is equivalent to scanning all sixteen residues
    mod 4.
    """
    if d.sign_embed(1) <= 0 or d.sign_embed(2) >= 0:
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
    if not in_Dpm(d):
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


def form_orbit(seeds, D: int, cap1: float, cap2: float,
               max_states: int = 400000, keep_states: bool = True) -> Orbit:
    """Height-capped BFS orbits under the generator action from one form
    key or an (S, 6) array of them."""
    t, n = _omega_trace_norm(D)
    return capped_bfs("form", seeds,
                      lambda rows: _form_neighbors(rows, D, t, n),
                      D, cap1, cap2, max_states,
                      keep_states=keep_states)[0]


def _form_boxes(d: QuadInt, height: float) -> Tuple[float, float]:
    """Per-embedding coefficient boxes.  Every class owns a member with
    coefficients on the scale of sqrt(|d_j|) at slot j, so the boxes
    track the discriminant even when its embeddings are lopsided."""
    h1 = max(height, 3.0 + 1.5 * math.sqrt(abs(d.embed(1))))
    h2 = max(height, 3.0 + 1.5 * math.sqrt(abs(d.embed(2))))
    return h1, h2


def enumerate_forms(d: QuadInt, F: FieldCtx,
                    height: float = 8.0) -> np.ndarray:
    """All primitive forms of discriminant d with coefficient heights
    inside the per-embedding boxes derived from d and `height`, as the
    key rows of an (N, 6) int64 array."""
    D = d.D
    t, n = _omega_trace_norm(D)
    h1, h2 = _form_boxes(d, height)
    # box coordinates are at most H, |b^2 - d| at most N; the products
    # of the scan stay under 4(|n| + 4) H N, and so do the primitivity
    # minors, which are at most 2((|n| + 2) H)^2 as N >= (|n| + 3) H^2
    H = math.floor(h1 + h2) + 1
    N = (abs(n) + 3) * H * H + abs(d.a) + abs(d.b)
    if 4 * (abs(n) + 4) * H * N >= 2 ** 62:
        raise BudgetExceededError(
            f"form boxes ({h1:.6g}, {h2:.6g}) overflow int64 arithmetic")
    box = _box_rows(D, h1, h2)
    # a*c = (b^2 - d)/4 for every b in the box with b^2 = d (mod 4)
    num = np.column_stack(_coord_mul(*box.T, *box.T, t, n)) - [d.a, d.b]
    j = np.nonzero((num % 4 == 0).all(axis=1))[0]
    i, a, c = _factor_pairs(num[j] // 4, box, D, h1, h2)
    rows = np.column_stack([a, box[j[i]], c])
    return rows[_content_norm_rows(rows, t, n) == 1]


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


def _matrix_keys(pell: PellSolution, F: FieldCtx,
                 m1: float, m2: float) -> np.ndarray:
    """Sign-normalized key rows, (N, 8), of the oracle's matrices: those
    of trace t0 in the entry boxes whose form is u0 times a primitive
    form.

    This walks the stabilizer-generator correspondence backwards.  A
    matrix [[A, B], [C, E]] of trace t0 and determinant 1 carries the
    form (C, E - A, -B), of discriminant (E - A)^2 + 4BC = t0^2 - 4 =
    dc u0^2 by the Pell relation, dc = pell.d.  Dividing by its content
    k leaves a primitive form of discriminant dc (u0/k)^2, which is
    mixed-sign as dc is and (u0/k)^2 is totally positive.
    canonical_disc identifies d with d eps^(2j) only, so that
    discriminant canonicalizes to dc exactly when (u0/k)^2 = eps^(2j),
    that is, when u0/k is a unit.  Equivalently, u0 divides C, E - A
    and B, and the quotient form is primitive.
    """
    D = F.D
    t, n = _omega_trace_norm(D)
    rows = _matrices_with_trace(F, pell.t0, m1, m2)
    aa, ab, ba, bb, ca, cb, ea, eb = rows.T
    form = np.column_stack([ca, cb, ea - aa, eb - ab, -ba, -bb])
    # x / u0 = x conj(u0) / N(u0); with form coordinates up to M and
    # those of conj(u0) up to U the products stay under P, and so do
    # the quotient's, whose primitivity minors stay under 2(|n| + 3)^2 P^2
    ua, ub = pell.u0.a + t * pell.u0.b, -pell.u0.b
    norm_u0 = pell.u0.norm()
    M = int(np.abs(form).max(initial=0))
    P = (abs(n) + 3) * M * max(abs(ua), abs(ub))
    if 2 * (abs(n) + 3) ** 2 * P * P >= 2 ** 62:
        raise BudgetExceededError(
            f"matrix boxes ({m1:.6g}, {m2:.6g}) overflow int64 arithmetic")
    prod = np.stack(_coord_mul(form[:, 0::2], form[:, 1::2], ua, ub, t, n),
                    axis=2).reshape(-1, 6)
    keep = (prod % norm_u0 == 0).all(axis=1)
    keep[keep] = _content_norm_rows(prod[keep] // norm_u0, t, n) == 1
    return _normalize_rows(rows[keep], D, t)


# ------------------------------------------------------- class numbers


def class_number(d: QuadInt, F: FieldCtx, height: float = 8.0,
                 pell: Optional[PellSolution] = None) -> DiscriminantRecord:
    """Dual-route class count for the canonical associate of d.

    The orbit partition of height-bounded primitive forms is the
    primary algorithm; the conjugacy-class count through the stabilizer
    map is the oracle.  Each route is one capped search from all of its
    rows at once.  A mismatch raises instead of picking a side.
    Caps that either search would refuse raise BudgetExceededError
    before any box is scanned.
    A caller that has already solved Pell for the canonical associate
    passes that solution as `pell`; otherwise it is solved here.
    """
    if not in_Dpm(d):
        raise ValidationError(f"{d} is not a mixed-sign discriminant")
    dc = canonical_disc(d, F)
    if pell is None:
        pell = pell_fundamental(dc, F)
    elif pell.d != dc:
        raise ValidationError(
            f"Pell solution for {pell.d} passed for discriminant {dc}")
    D = F.D
    h1, h2 = _form_boxes(dc, height)
    cap1, cap2 = 3.0 * h1, 3.0 * h2
    m1, m2 = _matrix_boxes(pell, height)
    mcap1, mcap2 = max(cap1, 1.5 * m1), max(cap2, 1.5 * m2)
    # both searches' key limits and int64 guards, before either box scan:
    # their seeds lie inside the caps
    _row_packer("form", D, cap1, cap2)
    _row_packer("conjugation", D, mcap1, mcap2)

    seeds = np.unique(enumerate_forms(dc, F, height=height), axis=0)
    reps = seeds[form_orbit(seeds, D, cap1, cap2, keep_states=False).reps]
    h_orbit = len(reps)

    orbit, _ = conjugation_orbit(
        np.unique(_matrix_keys(pell, F, m1, m2), axis=0), D, mcap1, mcap2,
        keep_states=False)
    h_matrix = len(orbit.reps)
    if h_orbit != h_matrix:
        raise InvariantViolation(
            f"ambiguous class count for d={dc}: form orbits give "
            f"{h_orbit}, matrix conjugacy gives {h_matrix}; "
            f"height={height}, form caps ({cap1:.6g}, {cap2:.6g}), "
            f"matrix caps ({mcap1:.6g}, {mcap2:.6g})")
    if h_orbit < 1:
        raise InvariantViolation(f"no forms found for d={dc}")
    return DiscriminantRecord(
        d=dc, pell=pell, class_number=h_orbit,
        forms=tuple(FormOverOK.from_key(k, D) for k in reps.tolist()))


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
