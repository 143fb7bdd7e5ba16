"""Forms, Pell solutions, and dual-route class numbers."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hilbert_selberg import pellforms
from hilbert_selberg.cli import main
from hilbert_selberg.errors import (BudgetExceededError, InvariantViolation,
                                    ValidationError)
from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.modgroup import (GroupElem, classify,
                                      _matrices_with_trace)
from hilbert_selberg.orbits import capped_bfs
from hilbert_selberg.pellforms import (FormOverOK, class_number,
                                       content_norm, enumerate_forms,
                                       form_to_matrix, in_Dpm,
                                       pell_fundamental, _content_norm_rows,
                                       _form_boxes, _matrix_boxes,
                                       _matrix_keys)
from hilbert_selberg.quadfield import (CLASS_NUMBER_ONE, QuadInt,
                                       canonical_disc, fundamental_unit,
                                       lattice_points, make_field,
                                       _omega_trace_norm)

from oracles import (gcd_coords_ref, ideal_index_ref, matrix_filter_ref,
                     primitive_forms_ref)

# Canonical mixed-sign discriminants with eps_K(d) <= 15 over Q(sqrt(5)),
# with class numbers confirmed by both the form-orbit partition and the
# matrix-conjugacy count (class_number raises when the routes disagree).
SWEEP_D5 = {
    (-7, 5): 2, (-10, 7): 2, (-4, 4): 2, (-19, 13): 4, (-44, 28): 4,
    (-11, 8): 2, (-42, 27): 4, (-51, 33): 4, (-91, 57): 4, (-62, 39): 4,
    (-128, 80): 4, (-126, 79): 8, (-56, 36): 4, (-95, 60): 4,
    (-135, 85): 4, (-282, 175): 4, (-31, 20): 2, (-96, 60): 4,
    (-311, 193): 8, (-348, 216): 8, (-207, 129): 8, (-199, 124): 4,
}

EPS_D_HAND = 3.985135479697773  # (t0_1 + u0_1 * sqrt(d_1)) / 2 for d = 1+8w


def _sweep_discs(D, x):
    F = make_field(D)
    four = QuadInt(D, 4, 0)
    seen = {}
    for t in lattice_points(D, x + 1.0 / x, 2.0):
        if t.embed(1) <= 2.0 or abs(t.embed(2)) >= 2.0:
            continue
        d = t * t - four
        if not in_Dpm(d):
            continue
        dc = canonical_disc(d, F)
        seen.setdefault((dc.a, dc.b), dc)
    return F, seen


@pytest.fixture(scope="module")
def sweep5():
    F, seen = _sweep_discs(5, 15.0)
    return F, {k: class_number(dc, F) for k, dc in sorted(seen.items())}


def test_in_Dpm_hand_examples():
    t = QuadInt(5, 1, 2)  # 2 + sqrt(5)
    assert in_Dpm(t * t - QuadInt(5, 4, 0))
    assert not in_Dpm(QuadInt(5, 4, 0))
    assert not in_Dpm(QuadInt(5, -1, 2))  # sqrt(5) itself


def _in_Dpm_oracle(d):
    # independent residue scan: b over all 16 classes of O_K / 4O_K
    if d.sign_embed(1) <= 0 or d.sign_embed(2) >= 0:
        return False
    four = QuadInt(d.D, 4, 0)
    for x in range(4):
        for y in range(4):
            b = QuadInt(d.D, x, y)
            if four.divides(d - b * b):
                return True
    return False


@pytest.mark.parametrize("D", [5, 8, 12])
def test_in_Dpm_matches_residue_oracle(D):
    for a in range(-6, 7):
        for b in range(-6, 7):
            d = QuadInt(D, a, b)
            assert in_Dpm(d) == _in_Dpm_oracle(d), d


def test_pell_hand_example():
    F = make_field(5)
    d = QuadInt(5, 1, 8)  # 5 + 4*sqrt(5) = (2+sqrt(5))^2 - 4
    sol = pell_fundamental(d, F)
    assert sol.t0 == QuadInt(5, 1, 2)
    assert sol.u0 == QuadInt(5, 1, 0)
    sol.verify()  # raises on violation
    assert sol.eps_d == pytest.approx(EPS_D_HAND, rel=1e-14)


def test_pell_minimality_brute_force():
    # no Pell solution with 1 < eps < eps_fund in a generous box
    F = make_field(5)
    d = QuadInt(5, 1, 8)
    sol = pell_fundamental(d, F)
    four = QuadInt(5, 4, 0)
    s1, s2 = math.sqrt(d.embed(1)), math.sqrt(-d.embed(2))
    best = None
    for u in lattice_points(5, 2.2 * sol.eps_d / s1, 2.0 / s2 + 0.25):
        if u.is_zero():
            continue
        rhs = d * (u * u) + four
        if rhs.sign_embed(1) <= 0 or rhs.sign_embed(2) <= 0:
            continue
        r1, r2 = math.sqrt(rhs.embed(1)), math.sqrt(rhs.embed(2))
        for sgn in (1.0, -1.0):
            ta = round((r1 + sgn * r2) / 2.0 + (r1 - sgn * r2) / 2.0)
            # reconstruct integer coordinates of t from the embeddings
        # exact scan instead: try all t in a box around the embeddings
        for t in lattice_points(5, r1 + 0.5, 2.5):
            if t * t == rhs:
                eps = (t.embed(1) + abs(u.embed(1)) * s1) / 2.0
                if eps > 1.0 + 1e-9:
                    best = eps if best is None else min(best, eps)
    assert best == pytest.approx(sol.eps_d, rel=1e-9)


def test_pell_budget_error():
    F = make_field(5)
    with pytest.raises(BudgetExceededError):
        pell_fundamental(QuadInt(5, -135, 85), F, eps_cap=2.0)


def test_class_number_sweep_frozen(sweep5):
    F, recs = sweep5
    assert set(recs) == set(SWEEP_D5)
    for key, rec in recs.items():
        assert rec.class_number == SWEEP_D5[key], key
        assert rec.class_number == len(rec.forms)
        rec.pell.verify()
        assert 1.0 < rec.pell.eps_d <= 15.0
    assert sum(r.class_number for r in recs.values()) == 94


def test_class_number_reuses_given_pell(sweep5):
    F, recs = sweep5
    (ka, rec_a), (kb, rec_b) = list(recs.items())[:2]
    d = QuadInt(5, *ka)
    again = class_number(d, F, pell=pell_fundamental(d, F, eps_cap=30.0))
    assert again == rec_a
    with pytest.raises(ValidationError, match="Pell solution for"):
        class_number(d, F, pell=rec_b.pell)


@pytest.mark.parametrize("route", ["form", "conjugation"])
def test_class_number_budget_before_the_scans(route, monkeypatch):
    # caps that a route's search would refuse fail before either box scan
    def never(*args, **kwargs):
        pytest.fail("a box was scanned")

    monkeypatch.setattr(pellforms, "enumerate_forms", never)
    monkeypatch.setattr(pellforms, "_matrix_keys", never)
    height = 400.0
    if route == "conjugation":
        # the form caps of height 8 pass; the matrix boxes are too large
        height = 8.0
        monkeypatch.setattr(pellforms, "_matrix_boxes",
                            lambda pell, height: (1e4, 1e4))
    with pytest.raises(BudgetExceededError,
                       match=f"^{route} orbit caps .* exact packed keys$"):
        class_number(QuadInt(5, -7, 5), make_field(5), height=height)


def test_cli_budget_before_the_form_scan(capsys, monkeypatch):
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    assert main(["forms", "--D", "5", "--d=-7+5*w", "--height", "400"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("budget exceeded: form orbit caps (1200, 1200) too "
                       "large for exact packed keys\n")


def test_route_mismatch_names_the_caps(capsys, monkeypatch):
    # a search without edges leaves every seed form its own component, so
    # the form route counts every form and the two routes disagree; the
    # message names the caps each route used
    def lone_form_orbit(seeds, D, cap1, cap2, keep_states):
        return capped_bfs("form", seeds, lambda rows: rows[:0],
                          D, cap1, cap2, 1, keep_states=keep_states)[0]

    monkeypatch.setattr(pellforms, "form_orbit", lone_form_orbit)
    F = make_field(5)
    d = QuadInt(5, -126, 79)  # h = 8; the two routes' caps differ
    h1, h2 = _form_boxes(d, 8.0)
    m1, m2 = _matrix_boxes(pell_fundamental(d, F), 8.0)
    caps = (f"form caps ({3 * h1:.6g}, {3 * h2:.6g}), matrix caps "
            f"({max(3 * h1, 1.5 * m1):.6g}, {max(3 * h2, 1.5 * m2):.6g})")
    assert caps == "form caps (24, 68.4996), matrix caps (38.1201, 68.4996)"
    with pytest.raises(InvariantViolation) as exc:
        class_number(d, F)
    assert (f"form orbits give {len(enumerate_forms(d, F))}, matrix "
            "conjugacy gives 8; ") in str(exc.value)
    assert str(exc.value).endswith(f"height=8.0, {caps}")
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    assert main(["forms", "--D", "5", "--d=-126+79*w"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("invariant violation: ambiguous class count")
    assert out.err.endswith(f"{caps}\n")


def test_doubling_stability(sweep5):
    F, recs = sweep5
    for key in ((-135, 85), (-126, 79)):
        d = QuadInt(5, *key)
        r16 = class_number(d, F, height=16.0)
        assert r16.class_number == recs[key].class_number


def test_gQ_properties(sweep5):
    F, recs = sweep5
    for rec in recs.values():
        eps2 = rec.pell.eps_d ** 2
        for Q in rec.forms:
            assert Q.disc == rec.d
            g = form_to_matrix(Q, rec.pell)
            assert g.trace() in (rec.pell.t0, -1 * rec.pell.t0)
            cl = classify(g)
            assert cl.kind == "hyperbolic-elliptic"
            assert cl.norm == pytest.approx(eps2, abs=1e-9)


def _translate(Q, mu):
    return FormOverOK(Q.a, Q.b + 2 * (Q.a * mu),
                      Q.c + Q.b * mu + Q.a * (mu * mu))


def _swap(Q):
    return FormOverOK(Q.c, -1 * Q.b, Q.a)


def test_equivalent_forms_map_to_conjugate_matrices(sweep5):
    # Q~(v) = Q(Mv)  implies  g(Q~) = M^-1 g(Q) M
    F, recs = sweep5
    rng = random.Random(7)
    one, zero = QuadInt(5, 1, 0), QuadInt(5, 0, 0)
    om = QuadInt(5, 0, 1)
    S = GroupElem.make(zero, -1 * one, one, zero)
    picks = [rec.forms[0] for rec in list(recs.values())[:8]]
    for rec, Q in zip(list(recs.values())[:8], picks):
        M = GroupElem.make(one, zero, zero, one)
        Qt = Q
        for _ in range(6):
            if rng.random() < 0.5:
                mu = rng.choice([one, -1 * one, om, -1 * om])
                Qt = _translate(Qt, mu)
                M = M * GroupElem.make(one, mu, zero, one)
            else:
                Qt = _swap(Qt)
                M = M * S
        g, gt = form_to_matrix(Q, rec.pell), form_to_matrix(Qt, rec.pell)
        assert M.inverse() * g * M == gt


@pytest.mark.parametrize("D,coords,h", [(5, (1, 8), 4), (8, (-1, 2), 2),
                                        (12, (3, 4), 4)])
def test_unit_square_twist_invariance(D, coords, h):
    F = make_field(D)
    d = QuadInt(D, *coords)
    v = fundamental_unit(D)
    rec = class_number(d, F)
    rec2 = class_number((v * v) * d, F)
    assert rec.class_number == rec2.class_number == h
    assert rec.d == rec2.d  # same canonical representative


def test_parity_mismatch_raises():
    # a form paired with the Pell solution of a different discriminant
    F = make_field(5)
    pell = pell_fundamental(QuadInt(5, 1, 8), F)  # t0 = 1+2w, odd
    Q = FormOverOK(QuadInt(5, 1, 0), QuadInt(5, 0, 0), QuadInt(5, 1, -1))
    with pytest.raises(ValidationError):
        form_to_matrix(Q, pell)


def test_nonprimitive_form_rejected():
    with pytest.raises(ValidationError):
        FormOverOK(QuadInt(5, 2, 0), QuadInt(5, 0, 0), QuadInt(5, 2, -2))


def test_enumerate_forms_disc_exact():
    F = make_field(5)
    d = QuadInt(5, 1, 8)
    forms = enumerate_forms(d, F)
    assert forms.shape[0] > 0 and forms.shape[1] == 6
    for k in forms.tolist():
        assert FormOverOK.from_key(k, 5).disc == d


@pytest.mark.parametrize("D,d,height", [
    (5, (-7, 5), 4.0), (5, (-19, 13), 3.0), (5, (1, 8), 8.0),
    (8, (-1, 2), 4.0), (8, (-9, 10), 3.0), (12, (0, 2), 4.0),
    (12, (-12, 8), 3.0), (13, (-7, 4), 3.0), (17, (1, 3), 3.0),
    (69, (1, 1), 3.0),  # nearest-quotient division stalls in this field
])
def test_enumerate_forms_matches_brute_force(D, d, height):
    F = make_field(D)
    d = QuadInt(D, *d)
    assert in_Dpm(d)
    keys = list(map(tuple, enumerate_forms(d, F, height=height).tolist()))
    assert len(keys) == len(set(keys))
    assert set(keys) == primitive_forms_ref(d, *_form_boxes(d, height))


def test_principal_form_from_witness(sweep5):
    F, recs = sweep5
    four = QuadInt(5, 4, 0)
    one = QuadInt(5, 1, 0)
    for key, rec in list(recs.items())[:6]:
        d = rec.d
        witness = None
        for x in range(4):
            for y in range(4):
                b = QuadInt(5, x, y)
                if four.divides(b * b - d):
                    witness = b
                    break
            if witness is not None:
                break
        assert witness is not None
        c = (witness * witness - d).exact_div(four)
        Q = FormOverOK(one, witness, c)
        assert Q.disc == d


def test_content_divides_all():
    a, b, c = QuadInt(5, 6, 0), QuadInt(5, 2, 4), QuadInt(5, 0, 2)
    assert content_norm(a, b, c) == 4  # (a, b, c) = 2 * (3, 1+2w, w)
    assert content_norm(*(x.exact_div(QuadInt(5, 2, 0))
                          for x in (a, b, c))) == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CLASS_NUMBER_ONE)),
       st.lists(st.tuples(*[st.integers(-60, 60)] * 6), min_size=1,
                max_size=20),
       st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
@example(69, [(-31, -17, 36, 1, 0, 0)], (1, 0))  # the Euclidean step stalls
def test_content_norm_is_the_ideal_index(D, rows, z):
    # the norm of the ideal (a, b, c), on int64 rows and on QuadInts; it
    # is |N| of a gcd wherever the Euclidean reference finds one, and
    # scales by |N(z)| when every coefficient is multiplied by z
    t, n = _omega_trace_norm(D)
    want = [ideal_index_ref(row, t, n) for row in rows]
    assert _content_norm_rows(np.array(rows), t, n).tolist() == want
    z = QuadInt(D, *z)
    scaled = []
    for row, k in zip(rows, want):
        a, b, c = (QuadInt(D, row[i], row[i + 1]) for i in (0, 2, 4))
        assert content_norm(a, b, c) == k
        scaled.append([v for x in (a, b, c) for v in ((z * x).a, (z * x).b)])
        try:
            g = gcd_coords_ref(*gcd_coords_ref(*row[:4], t, n), *row[4:],
                               t, n)
        except BudgetExceededError:
            pass  # nearest-quotient division stalls in this field
        else:
            assert abs(QuadInt(D, *g).norm()) == k
        assert content_norm(z * a, z * b, z * c) == abs(z.norm()) * k
    assert (_content_norm_rows(np.array(scaled), t, n).tolist()
            == [abs(z.norm()) * k for k in want])


# fields whose form route at height 8 still finds fewer classes than the
# matrix route at x = 8 (ROADMAP item 7's form boxes)
ROUTE_MISMATCH_X8 = {17, 21, 24, 28, 29, 33, 37, 41, 44, 53, 56, 57, 61, 69,
                     73, 76, 77, 88, 92}


@pytest.mark.parametrize("D", [
    pytest.param(D, marks=pytest.mark.xfail(
        strict=True, raises=InvariantViolation,
        reason="form boxes miss classes")) if D in ROUTE_MISMATCH_X8 else D
    for D in sorted(CLASS_NUMBER_ONE)])
def test_every_field_enumerates_within_budget(D):
    # no class-number-one field runs out of a search or arithmetic budget
    window = enumerate_geodesics(make_field(D), 8.0)
    assert all(c.norm <= 64.0 * (1 + 1e-12) for c in window)


@pytest.mark.parametrize("D,x", [(5, 12.0), (8, 10.0), (12, 10.0), (69, None)])
def test_row_filter_matches_matrix_filter_ref(D, x):
    F = make_field(D)
    if x is None:
        # the class-count routes disagree in this field (ROUTE_MISMATCH_X8),
        # so take the Pell solutions of two small discriminants directly
        pells = [pell_fundamental(QuadInt(D, *d), F)
                 for d in ((1, 1), (-3, 1))]
    else:
        pells = [c.record.pell for c in enumerate_geodesics(F, x)]
    for pell in pells:
        m1, m2 = _matrix_boxes(pell, 8.0)
        rows = _matrices_with_trace(F, pell.t0, m1, m2).tolist()
        keys = list(map(tuple, _matrix_keys(pell, F, m1, m2).tolist()))
        assert len(keys) == len(set(keys))
        assert set(keys) == matrix_filter_ref(rows, pell.d, F)
