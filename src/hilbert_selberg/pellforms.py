"""Binary quadratic forms over O_K, Pell equations, and class numbers.

A discriminant here is a totally mixed-sign element d of O_K (positive
at the first embedding, negative at the second) that is congruent to a
square mod 4.  For each such d the forms a x^2 + b xy + c y^2 with
b^2 - 4ac = d fall into finitely many SL(2, O_K)-orbits; the class
number h_K(d) is computed twice, by a direct orbit partition of the
forms and by Hecke's class number formula (`lfun`), and the two counts
must agree.  The orbit search covers the half of the forms that is
positive definite at the second embedding, and the other half follows
exactly (see class_numbers).  The stabilizer generator of a form, a
matrix of trace t0, is form_to_matrix; the stabilizers of a count's
form representatives must fall in distinct conjugacy classes.

Primitivity is one exact test: a form (a, b, c) is
primitive when the ideal (a, b, c) is all of O_K, that is, when its
index in O_K, the gcd of the 2x2 minors of its Z-generators, is 1.  No
gcd element is ever needed, so there is no division step to stall and
no search.

The records returned here, FormOverOK, PellSolution and
DiscriminantRecord, live in `records`.
"""

import functools
import itertools
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (BudgetExceededError, HilbertSelbergError,
                     InvariantViolation, ValidationError)
from .lfun import AnalyticClassNumber, analytic_class_number
from .modgroup import (GroupElem, conjugation_orbit, _embed_signs,
                       _MU_A, _MU_B)
from .orbits import (GeneratorTables, Orbit, budget_error, capped_bfs,
                     generator_tables, unique_rows, _box_rows,
                     _factor_pairs, _row_packer)
from .quadfield import (FieldCtx, QuadInt, canonical_disc, exact_sqrt,
                        lattice_points, _coord_mul, _embed_consts,
                        _omega_trace_norm)
from .records import DiscriminantRecord, FormOverOK, PellSolution

__all__ = [
    "content_norm", "in_Dpm", "pell_fundamental", "class_number",
    "class_numbers", "form_to_matrix", "enumerate_forms",
]


# ------------------------------------------------------- content ideal


# the minors (i, j) of _content_norm_rows, the norms of a, b and c, the
# minors (i, i + 3), first: a primitive form's gcd mostly reaches 1 on them
_MINORS = sorted(itertools.combinations(range(6), 2),
                 key=lambda ij: ij[1] - ij[0] != 3)


def _content_norm_rows(rows: np.ndarray, t: int, n: int) -> np.ndarray:
    """Index in O_K of the ideal spanned by the three coordinate pairs of
    each (N, 6) form row, where w^2 = t*w - n: the norm of the content
    ideal, 1 exactly when the form is primitive, 0 for the zero form.

    As a Z-lattice in O_K = Z + Zw the ideal is spanned by each
    coefficient x + y*w and its product with w, -n*y + (x + t*y)*w, and
    the index of a lattice spanned by vectors of Z^2 is the gcd of their
    2x2 minors (Cohen, GTM 138, 2.4).  Exact on int64 rows while the
    minors stay inside int64, and on object rows of Python ints for any
    size.  The minors are taken one at a time, and a row leaves the
    loop once its running gcd is 1, which no further minor changes.
    """
    x, y = rows[:, 0::2], rows[:, 1::2]
    u = np.concatenate([x, -n * y], axis=1)
    v = np.concatenate([y, x + t * y], axis=1)
    g = np.zeros(len(rows), dtype=rows.dtype)
    live = np.arange(len(rows))  # the rows whose gcd is not yet 1
    for i, j in _MINORS:
        ul, vl = u[live], v[live]
        g[live] = np.gcd(g[live], ul[:, i] * vl[:, j] - ul[:, j] * vl[:, i])
        live = live[g[live] != 1]
        if not len(live):
            break
    return g


def content_norm(a: QuadInt, b: QuadInt, c: QuadInt) -> int:
    """Norm of the ideal (a, b, c) of O_K; 1 exactly when the form with
    these coefficients is primitive.  Exact for coefficients of any size."""
    t, n = _omega_trace_norm(a.D)
    row = np.array([[a.a, a.b, b.a, b.b, c.a, c.b]], dtype=object)
    return int(_content_norm_rows(row, t, n)[0])


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


# the largest eps_d that pell_fundamental searches
_PELL_EPS_CAP = 200.0


def pell_fundamental(d: QuadInt, F: FieldCtx) -> PellSolution:
    """Minimal solution of t^2 - d u^2 = 4 with (t + u sqrt d)/2 > 1.

    The second embedding forces t'^2 + |d'| u'^2 = 4, so |u'| lives in
    a fixed tiny interval; the first is bounded through _PELL_EPS_CAP,
    and a d whose eps_d lies past it raises BudgetExceededError.
    """
    if not in_Dpm(d):
        raise ValidationError(f"{d} is not a mixed-sign discriminant")
    d1, d2 = d.embed(1), d.embed(2)
    cap1 = 2.0 * _PELL_EPS_CAP / math.sqrt(d1)
    cap2 = 2.0 / math.sqrt(-d2) + 1e-9
    best: Optional[Tuple[float, QuadInt, QuadInt]] = None
    for u in lattice_points(d.D, cap1, cap2):
        if u.is_zero() or u.embed(1) <= 0:
            continue
        try:
            t0 = exact_sqrt(d * (u * u) + 4)
        except ValidationError:
            continue
        eps = (t0.embed(1) + u.embed(1) * math.sqrt(d1)) / 2.0
        if best is None or eps < best[0] - 1e-12:
            best = (eps, t0, u)
    if best is None:
        raise BudgetExceededError(
            f"no pell solution for {d} within eps <= {_PELL_EPS_CAP}")
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


# (a, b, c) -> (a, -b, c), improper equivalence by diag(1, -1): it maps S
# to itself and T_mu to T_-mu, so orbits are searched modulo it
_FORM_MIRROR = np.diag([1, 1, -1, -1, 1, 1])


@functools.cache
def _form_tables(D: int) -> GeneratorTables:
    """The form action's generator tables over Q(sqrt D), built once."""
    t, n = _omega_trace_norm(D)
    return generator_tables(
        "form", lambda rows: _form_neighbors(rows, D, t, n), _FORM_MIRROR)


def form_orbit(seeds, D: int, cap1, cap2,
               groups: Optional[np.ndarray] = None) -> Orbit:
    """Height-capped BFS orbits under the generator action from one form
    key or an (S, 6) array of them, all inside the caps; with `groups`,
    one group per seed and one cap pair per group, or none for group 0.
    A group with a component past orbits.MAX_STATES is marked in
    Orbit.failed, from which the caller raises orbits.budget_error (see
    orbits.capped_bfs)."""
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1, 6)
    return capped_bfs("form", seeds, functools.partial(_form_tables, D),
                      D, cap1, cap2, groups)


def _form_boxes(d: QuadInt, height: float) -> Tuple[float, float]:
    """Per-embedding coefficient boxes.  Every class owns a member with
    coefficients on the scale of sqrt(|d_j|) at slot j, so the boxes
    track the discriminant even when its embeddings are lopsided."""
    h1 = max(height, 3.0 + 1.5 * math.sqrt(abs(d.embed(1))))
    h2 = max(height, 3.0 + 1.5 * math.sqrt(abs(d.embed(2))))
    return h1, h2


def enumerate_forms(d: QuadInt, F: FieldCtx,
                    height: float = 8.0) -> np.ndarray:
    """The primitive forms of discriminant d with coefficient heights
    inside the per-embedding boxes derived from d and `height` whose a
    is positive at the second embedding, as the key rows of an (N, 6)
    int64 array.  The other forms inside the boxes are exactly their
    negatives: the boxes are symmetric, and (-a, -b, -c) has the
    discriminant and content of (a, b, c)."""
    D = d.D
    t, n = _omega_trace_norm(D)
    h1, h2 = _form_boxes(d, height)
    # box coordinates are at most H, |b^2 - d| at most N; the products
    # of the scan stay under 4(|n| + 4) H N, and so do the primitivity
    # minors, which are at most 2((|n| + 2) H)^2 as N >= (|n| + 3) H^2;
    # the norms of the (b^2 - d)/4 stay under (|n| + 2) N^2
    H = math.floor(h1 + h2) + 1
    N = (abs(n) + 3) * H * H + abs(d.a) + abs(d.b)
    if max(4 * (abs(n) + 4) * H, (abs(n) + 2) * N) * N >= 2 ** 62:
        raise BudgetExceededError(
            f"form boxes ({h1:.6g}, {h2:.6g}) overflow int64 arithmetic")
    box = _box_rows(D, h1, h2)
    # a*c = (b^2 - d)/4 for every b in the box with b^2 = d (mod 4), a
    # from the half of the box positive at the second embedding
    num = np.column_stack(_coord_mul(*box.T, *box.T, t, n)) - [d.a, d.b]
    j = np.nonzero((num % 4 == 0).all(axis=1))[0]
    half = box[_embed_signs(box, D, 2) > 0]
    i, a, c = _factor_pairs(num[j] // 4, half, D, h1, h2)
    rows = np.column_stack([a, box[j[i]], c])
    return rows[_content_norm_rows(rows, t, n) == 1]


# ------------------------------------------------------- class numbers


# form seeds at which a batch of class counts closes: a batch pays one
# set of level passes for all its discriminants, and the bound keeps its
# widest levels, and so its peak memory, near those of the widest single
# discriminants of a window
_BATCH_SEEDS = 6144


class _Scanned(NamedTuple):
    """A discriminant ready to search: its canonical associate and Pell
    solution, the form caps, the distinct form rows, and the class number
    formula's value, None when it raised `error`."""

    dc: QuadInt
    pell: PellSolution
    caps: Tuple[float, float]
    forms: np.ndarray
    analytic: Optional[AnalyticClassNumber]
    error: Optional[HilbertSelbergError]


def _scan(d: QuadInt, F: FieldCtx, height: float,
          pell: Optional[PellSolution]) -> _Scanned:
    """Check d and its Pell solution, solving it if None, scan its form
    seeds and evaluate the class number formula.  Raises what
    class_number raises before its form search; an error of the formula,
    which class_number raises after the form search, is kept in the
    result instead."""
    if not in_Dpm(d):
        raise ValidationError(f"{d} is not a mixed-sign discriminant")
    dc = canonical_disc(d, F)
    if pell is None:
        pell = pell_fundamental(dc, F)
    elif pell.d != dc:
        raise ValidationError(
            f"Pell solution for {pell.d} passed for discriminant {dc}")
    h1, h2 = _form_boxes(dc, height)
    cap1, cap2 = 3.0 * h1, 3.0 * h2
    # the search's key limits and int64 guard, before the box scan: its
    # seeds lie inside the caps
    _row_packer("form", F.D, cap1, cap2)
    forms = unique_rows(enumerate_forms(dc, F, height=height))
    try:
        analytic, error = analytic_class_number(dc, pell, F), None
    except HilbertSelbergError as exc:
        analytic, error = None, exc
    return _Scanned(dc, pell, (cap1, cap2), forms, analytic, error)


def _stabilizer_rows(forms: Sequence[FormOverOK], pell: PellSolution
                     ) -> Tuple[np.ndarray, Tuple[float, float]]:
    """The keys of the forms' stabilizer generators (form_to_matrix), as
    (N, 8) int64 rows in the sign of trace t0, and the least caps that
    hold them all."""
    rows = np.array([form_to_matrix(Q, pell).key() for Q in forms],
                    dtype=np.int64).reshape(-1, 8)
    flip = (rows[:, 0:2] + rows[:, 6:8] != [pell.t0.a, pell.t0.b]).any(1)
    rows[flip] *= -1
    x, y = rows[:, 0::2], rows[:, 1::2]
    return rows, tuple(float(np.abs(x + y * w).max())
                       for w in _embed_consts(pell.d.D))


def _count_batch(batch: List[_Scanned], D: int,
                 height: float) -> List[DiscriminantRecord]:
    """The records of a batch, one form search for all of it and one
    conjugation search of their stabilizers, each discriminant a group;
    raises the failure of the first discriminant that fails, as
    class_number would.  One walk stops at the first discriminant that
    fails up to its stabilizers' key guard, and the conjugation verdicts
    of those before it are read before that failure is raised."""
    if not batch:
        return []
    seeds = np.concatenate([c.forms for c in batch]).reshape(-1, 6)
    groups = np.repeat(np.arange(len(batch)), [len(c.forms) for c in batch])
    orbit = form_orbit(seeds, D, *np.array([c.caps for c in batch]).T, groups)
    # the form classes: each component's least seed and the negative of
    # its greatest, the least seeds of the full search's components
    greatest = orbit.roots.copy()
    np.maximum.at(greatest, orbit.roots, np.arange(len(seeds)))
    reps = orbit.reps
    edges = np.searchsorted(reps, np.cumsum([0] + [len(c.forms)
                                                   for c in batch]))
    found, stabilizers, error = [], [], None
    for g, c in enumerate(batch):
        r = reps[edges[g]:edges[g + 1]]
        forms = unique_rows(np.concatenate([seeds[r], -seeds[greatest[r]]]))
        h = c.analytic
        if orbit.failed[g]:
            error = budget_error("form")
        elif c.error is not None:
            error = c.error
        elif len(forms) != h.count:
            error = InvariantViolation(
                f"ambiguous class count for d={c.dc}: form orbits give "
                f"{len(forms)}, the class number formula gives {h.count} "
                f"within {h.error:.2g}; height={height}, form caps "
                f"({c.caps[0]:.6g}, {c.caps[1]:.6g})")
        else:
            found.append(tuple(FormOverOK.from_key(k, D)
                               for k in forms.tolist()))
            try:
                rows, caps = _stabilizer_rows(found[g], c.pell)
                _row_packer("conjugation", D, *caps)
                stabilizers.append((rows, caps))
            except HilbertSelbergError as exc:
                error = exc
        if error is not None:
            break
    records = []
    if stabilizers:
        rows, caps = zip(*stabilizers)
        groups = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        conj, _ = conjugation_orbit(np.concatenate(rows), D,
                                    *np.array(caps).T, groups)
        classes = np.bincount(groups[conj.reps], minlength=len(rows))
        for g, (c, cap) in enumerate(zip(batch, caps)):
            if conj.failed[g]:
                raise budget_error("conjugation")
            if classes[g] != c.analytic.count:
                raise InvariantViolation(
                    f"conjugate stabilizers for d={c.dc}: the "
                    f"{c.analytic.count} form classes' stabilizer generators "
                    f"fall in {classes[g]} conjugacy classes within caps "
                    f"({cap[0]:.6g}, {cap[1]:.6g})")
            records.append(DiscriminantRecord(
                d=c.dc, pell=c.pell, class_number=c.analytic.count,
                forms=found[g]))
    if error is not None:
        raise error
    return records


def class_numbers(ds: Sequence[QuadInt], F: FieldCtx, height: float,
                  pells: Sequence[Optional[PellSolution]]
                  ) -> List[DiscriminantRecord]:
    """The class count of the canonical associate of each d of ds, by two
    independent routes, in order, counted in batches.  pells holds each
    canonical associate's Pell solution, or None to solve it here.

    The two routes, for each discriminant: the orbit partition of
    height-bounded primitive forms, which also gives the record's
    representatives, and Hecke's class number formula
    (lfun.analytic_class_number), which needs no box and comes with a
    proven error.  A count of the forms that differs from the formula's
    integer raises instead of picking a side.  The record's forms are
    then checked against the group side: their stabilizer generators
    (form_to_matrix) must fall in as many conjugacy classes as there are
    forms, by a conjugation search capped at the generators' own heights,
    which can only find conjugacies the form search missed; no
    conjugation search counts a class.  Caps that the form search would
    refuse raise BudgetExceededError before its box is scanned.  The
    failures come in this order: the checks of d and its Pell solution
    and the caps, the form scan, the form search, the formula, the
    stabilizers' key guard and conjugation search.

    A batch is a run of consecutive discriminants, each scanned just
    before it joins; it closes before its form seeds would pass
    _BATCH_SEEDS, and a discriminant with more seeds than that is a
    batch of its own.  Each batch is one form search with a group per
    discriminant, which keeps the levels, components, state count and
    budget verdict (Orbit.failed) of a search of its own, so every
    record is class_number's.  The stabilizers of a batch's
    discriminants, up to the first that fails before that search, are
    one conjugation search with a group each.  The first discriminant
    that fails raises its own failure, and none after it starts a
    search.

    The search covers one definiteness half of the forms and doubles its
    count.  That is exact:
    - Definiteness at the second embedding is invariant.  A form has
      4 a_2 c_2 = b_2^2 - d_2 > 0, so a_2 and c_2 share one sign; T_mu
      keeps a and S maps it to c.
    - Negation (a, b, c) -> (-a, -b, -c) commutes with S and T_mu, which
      act linearly, keeps heights, primitivity and the discriminant, and
      flips a_2.  So the forms of the other half are the negatives of
      enumerate_forms' forms, and its components are the negatives of
      this half's, state for state.  Negation reverses the order of
      rows, so the least seed of a negated component is the negative of
      the greatest seed of the component.
    - The mirror (a, -b, c) keeps the half: it keeps a.
    So the count is twice its half's, a component of the other half has
    as many states as its image here, and the budget verdicts agree.
    The forms of the record are the sorted union of each component's
    least seed and the negative of its greatest seed: the least seeds of
    the components of the full search.
    """
    records: List[DiscriminantRecord] = []
    batch: List[_Scanned] = []
    for d, pell in zip(ds, pells):
        try:
            scanned = _scan(d, F, height, pell)
        except HilbertSelbergError:
            _count_batch(batch, F.D, height)  # an earlier failure wins
            raise
        if batch and (sum(len(c.forms) for c in batch) + len(scanned.forms)
                      > _BATCH_SEEDS):
            records += _count_batch(batch, F.D, height)
            batch = []
        batch.append(scanned)
        if scanned.error is not None:
            break  # it fails: nothing after it searches
    return records + _count_batch(batch, F.D, height)


def class_number(d: QuadInt, F: FieldCtx,
                 height: float = 8.0) -> DiscriminantRecord:
    """Two-route class count for the canonical associate of d: the
    one-discriminant batch of class_numbers, whose docstring has the
    algorithm, with the Pell equation solved here."""
    return class_numbers([d], F, height, [None])[0]


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
