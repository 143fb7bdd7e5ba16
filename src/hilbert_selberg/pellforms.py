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
from typing import Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, InvariantViolation, ValidationError
from .modgroup import (GroupElem, Orbit, capped_bfs, conjugation_orbit,
                       partition_orbits, _matrices_with_trace, _normalize_rows,
                       _sign_rows, _MU_A, _MU_B)
from .quadfield import (FieldCtx, QuadInt, canonical_disc, lattice_points,
                        _box_rows, _coord_mul, _embed_consts, _factor_pairs,
                        _omega_trace_norm)

__all__ = [
    "FormOverOK", "PellSolution", "DiscriminantRecord", "content", "in_Dpm",
    "pell_fundamental", "class_number", "form_to_matrix", "enumerate_forms",
]


# ------------------------------------------------------------ gcd kernel


def _gcd_rows(xa: np.ndarray, xb: np.ndarray, ya: np.ndarray,
              yb: np.ndarray, t: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise coordinates of a gcd of xa + xb*w and ya + yb*w in O_K,
    where w^2 = t*w - n, by nearest-lattice division with a neighbor
    rescue, on int64 arrays.

    Nearest rounding strictly shrinks |N(r)| in the norm-Euclidean
    fields; elsewhere a small offset scan usually rescues the step, and
    a budget error is raised if it cannot, or if a product of the step
    could reach 2^62.
    """
    def norm(a, b):
        return np.abs(a * a + t * a * b + n * b * b)

    xa, xb, ya, yb = (np.array(v, dtype=np.int64) for v in (xa, xb, ya, yb))
    for _ in range(200):
        live = np.nonzero((ya != 0) | (yb != 0))[0]
        if not live.size:
            return xa, xb
        xl, xm, yl, ym = xa[live], xb[live], ya[live], yb[live]
        # q*y, with q up to (|n| + 4) M^2 + 3, is the largest product;
        # remainders are (x/y - q)*y, x/y - q of coordinates up to 3/2
        M = max(int(np.abs(v).max()) for v in (xl, xm, yl, ym))
        if (abs(n) + 4) ** 3 * (M + 2) ** 3 >= 2 ** 62:
            raise BudgetExceededError(
                f"gcd coordinates up to {M} overflow int64 arithmetic")
        ny = yl * yl + t * yl * ym + n * ym * ym
        # nearest quotient: x * conj(y) / N(y), conj(y) = (ya + t*yb, -yb)
        numa, numb = _coord_mul(xl, xm, yl + t * ym, -ym, t, n)
        sgn, m = np.sign(ny), np.abs(ny)
        qa = (2 * sgn * numa + m) // (2 * m)
        qb = (2 * sgn * numb + m) // (2 * m)
        pa, pb = _coord_mul(qa, qb, yl, ym, t, n)
        ra, rb = xl - pa, xm - pb
        bad = np.nonzero(norm(ra, rb) >= m)[0]
        if bad.size:
            # argmin keeps the first minimum of the 3x3 scan, da-major
            da, db = np.divmod(np.arange(9), 3)
            pa, pb = _coord_mul(qa[bad, None] + da - 1, qb[bad, None] + db - 1,
                                yl[bad, None], ym[bad, None], t, n)
            sa, sb = xl[bad, None] - pa, xm[bad, None] - pb
            best = norm(sa, sb).argmin(axis=1)
            r = np.arange(bad.size)
            ra[bad], rb[bad] = sa[r, best], sb[r, best]
            if np.any(norm(ra[bad], rb[bad]) >= m[bad]):
                raise BudgetExceededError(  # t^2 - 4n is the field's D
                    f"euclidean step stalled for D={t * t - 4 * n}; "
                    "field may not admit nearest-lattice division")
        xa[live], xb[live], ya[live], yb[live] = yl, ym, ra, rb
    raise BudgetExceededError("gcd iteration budget exhausted")


def _content_rows(rows: np.ndarray, t: int, n: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise gcd of the three coordinate pairs of (N, 6) form rows."""
    return _gcd_rows(*_gcd_rows(*rows[:, :4].T, t, n), *rows[:, 4:].T, t, n)


def content(a: QuadInt, b: QuadInt, c: QuadInt) -> QuadInt:
    """gcd of the three coefficients (any associate)."""
    t, n = _omega_trace_norm(a.D)
    ka, kb = _content_rows(np.array([[a.a, a.b, b.a, b.b, c.a, c.b]]), t, n)
    return QuadInt(a.D, int(ka[0]), int(kb[0]))


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


def form_orbit(seed: FormKey, D: int, cap1: float, cap2: float,
               max_states: int = 400000) -> Orbit:
    """Height-capped BFS orbit of the form under the generator action."""
    t, n = _omega_trace_norm(D)
    return capped_bfs("form", seed,
                      lambda rows: _form_neighbors(rows, D, t, n),
                      D, cap1, cap2, max_states)[0]


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
    # of the scan stay under 4(|n| + 4) H N
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
    ka, kb = _content_rows(rows, t, n)
    unit = np.abs(ka * ka + t * ka * kb + n * kb * kb) == 1
    return rows[unit]


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


def _matrix_keys(dc: QuadInt, pell: PellSolution, F: FieldCtx,
                 m1: float, m2: float) -> np.ndarray:
    """Sign-normalized key rows, (N, 8), of the oracle's matrices: those
    of trace t0 in the entry boxes whose primitive form content matches
    dc.

    This walks the stabilizer-generator correspondence backwards:
    a matrix [[A, B], [C, E]] of trace t0 carries the form
    (C, E - A, -B); dividing out the content k leaves a primitive form
    whose discriminant must canonicalize to dc.
    """
    D = F.D
    t, n = _omega_trace_norm(D)
    rows = _matrices_with_trace(F, pell.t0, m1, m2)
    aa, ab, ba, bb, ca, cb, ea, eb = rows.T
    # disc = (E - A)^2 + 4BC fits int64 as the boxes hold t0; the sign
    # tests square it, and disc * conj(k^2) / N(k)^2 divides by k^2
    sa, sb = _coord_mul(ea - aa, eb - ab, ea - aa, eb - ab, t, n)
    pa, pb = _coord_mul(ba, bb, ca, cb, t, n)
    da, db = sa + 4 * pa, sb + 4 * pb
    ka, kb = _content_rows(
        np.column_stack([ca, cb, ea - aa, eb - ab, -ba, -bb]), t, n)
    Md, Mk = (int(np.abs(v).max(initial=0)) for v in ((da, db), (ka, kb)))
    if (max(9, D) * Md * Md >= 2 ** 62
            or 2 * (abs(n) + 3) ** 2 * Mk * Mk * max(Md, Mk * Mk) >= 2 ** 62):
        raise BudgetExceededError(
            f"matrix boxes ({m1:.6g}, {m2:.6g}) overflow int64 arithmetic")
    # k^2 is totally positive, so disc / k^2 has the signs of disc
    A = 2 * da + t * db
    mixed = (_sign_rows(A, db, D) > 0) & (_sign_rows(A, -db, D) < 0)
    rows, da, db, ka, kb = (v[mixed] for v in (rows, da, db, ka, kb))
    k2a, k2b = _coord_mul(ka, kb, ka, kb, t, n)
    na, nb = _coord_mul(da, db, k2a + t * k2b, -k2b, t, n)
    nk2 = (ka * ka + t * ka * kb + n * kb * kb) ** 2
    # few distinct discriminants recur many times
    discs, inv = np.unique(np.column_stack([na // nk2, nb // nk2]), axis=0,
                           return_inverse=True)
    match = np.array([canonical_disc(QuadInt(D, a, b), F) == dc
                      for a, b in discs.tolist()], dtype=bool)
    return _normalize_rows(rows[match[inv.reshape(-1)]], D, t)


# ------------------------------------------------------- class numbers


def class_number(d: QuadInt, F: FieldCtx, height: float = 8.0,
                 pell: Optional[PellSolution] = None) -> DiscriminantRecord:
    """Dual-route class count for the canonical associate of d.

    The orbit partition of height-bounded primitive forms is the
    primary algorithm; the conjugacy-class count through the stabilizer
    map is the oracle.  A mismatch raises instead of picking a side.
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

    forms = enumerate_forms(dc, F, height=height)
    reps = [seed for seed, _ in partition_orbits(
        forms, lambda k: form_orbit(k, D, cap1, cap2))]
    h_orbit = len(reps)

    m1, m2 = _matrix_boxes(pell, height)
    mcap1, mcap2 = max(cap1, 1.5 * m1), max(cap2, 1.5 * m2)
    h_matrix = sum(1 for _ in partition_orbits(
        _matrix_keys(dc, pell, F, m1, m2),
        lambda k: conjugation_orbit(k, D, mcap1, mcap2)[0]))
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
