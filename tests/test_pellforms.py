"""Forms, Pell solutions, and dual-route class numbers."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hilbert_selberg import geodesics, lfun, modgroup, orbits, pellforms
from hilbert_selberg.cli import main
from hilbert_selberg.errors import (BudgetExceededError, InvariantViolation,
                                    ValidationError)
from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.modgroup import (GroupElem, classify,
                                      _matrices_with_trace)
from hilbert_selberg.orbits import capped_bfs, generator_tables
from hilbert_selberg.pellforms import (class_number, class_numbers,
                                       content_norm, enumerate_forms,
                                       form_to_matrix,
                                       in_Dpm, pell_fundamental,
                                       _content_norm_rows, _form_boxes)
from hilbert_selberg.quadfield import (CLASS_NUMBER_ONE, QuadInt,
                                       canonical_disc, fundamental_unit,
                                       lattice_points, make_field,
                                       _omega_trace_norm)
from hilbert_selberg.records import FormOverOK

from oracles import (gcd_coords_ref, ideal_index_ref, matrix_boxes_ref,
                     matrix_class_count_ref, matrix_filter_ref,
                     matrix_keys_ref, normalize_key_ref,
                     pell_fundamental_ref, primitive_forms_ref)

# Canonical mixed-sign discriminants with eps_K(d) <= 15 over Q(sqrt(5)),
# with class numbers confirmed by both the form-orbit partition and the
# class number formula (class_number raises when the routes disagree).
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


def test_pell_budget_error(monkeypatch):
    F = make_field(5)
    # t0 = 110 + 180w, eps_d = 401.2: past the box, and past the u-scan
    d = QuadInt(5, -183600, 113472)
    with pytest.raises(BudgetExceededError,
                       match=r"^no pell solution for -183600\+113472\*w "
                             r"within eps <= 400\.0$"):
        pell_fundamental(d, F)
    assert pell_fundamental_ref(d, F) is None
    monkeypatch.setattr(pellforms, "_PELL_EPS_CAP", 2.0)
    with pytest.raises(BudgetExceededError, match=r"within eps <= 2\.0"):
        pell_fundamental(QuadInt(5, -135, 85), F)


# every discriminant a test hands to pell_fundamental itself, by field
PELL_CASES = {
    5: [(1, 8), (-135, 85), (-7, 5), (-3, 4), (-4, 4)] + sorted(SWEEP_D5),
    8: [(0, 4)], 12: [(0, 2), (-385, 224), (-384, 226)],
    13: [(-1, 1), (-300, 131), (-15, 8)], 17: [(-3, 3), (4, 5)],
    28: [(-4, 2), (7, 4), (19, 8)], 41: [(7, 3)], 44: [(11, 4)],
    53: [(13, 5)], 69: [(1, 1), (-3, 1)], 77: [(19, 5)],
}


@pytest.mark.parametrize("D", sorted(PELL_CASES))
def test_pell_matches_the_u_scan(D):
    # the trace box gives the u-scan's solution for each d as given and
    # for its canonical associate
    F = make_field(D)
    for d in PELL_CASES[D]:
        d = QuadInt(D, *d)
        for dd in (d, canonical_disc(d, F)):
            assert pell_fundamental(dd, F) == pell_fundamental_ref(dd, F), dd


@pytest.mark.parametrize("D", sorted(CLASS_NUMBER_ONE))
def test_the_box_reaches_the_u_scan(D):
    # the u-scan kept eps_d - 1/eps_d = u0_1 sqrt(d_1) <= 2 * 200, so
    # t0_1 <= 2 sqrt(200^2 + 1); the box of _PELL_EPS_CAP = 400 holds
    # t0_1 <= 400 + 1/400, and no trace of the field lies in between
    cap = pellforms._PELL_EPS_CAP
    assert cap == 400.0
    lo, hi = cap + 1.0 / cap, 2.0 * math.sqrt(200.0 ** 2 + 1.0)
    assert not [t for t in lattice_points(D, hi, 2.0)
                if lo < t.embed(1) <= hi and abs(t.embed(2)) < 2.0]


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
    ka, rec_a = next(iter(recs.items()))
    again, = class_numbers([pell_fundamental(QuadInt(5, *ka), F)], F, 8.0)
    assert again == rec_a


def test_class_number_budget_before_the_scans(monkeypatch):
    # caps that the form search would refuse fail before the box scan and
    # before the class number formula
    def never(*args, **kwargs):
        pytest.fail("a box was scanned or the formula evaluated")

    monkeypatch.setattr(pellforms, "enumerate_forms", never)
    monkeypatch.setattr(pellforms, "analytic_class_number", never)
    with pytest.raises(BudgetExceededError,
                       match="^form orbit caps .* exact packed keys$"):
        class_number(QuadInt(5, -7, 5), make_field(5), height=400.0)


def test_cli_budget_before_the_form_scan(capsys, monkeypatch):
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    assert main(["forms", "--D", "5", "--d=-7+5*w", "--height", "400"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("budget exceeded: form orbit caps (1200, 1200) too "
                       "large for exact packed keys\n")


def test_route_mismatch_names_the_caps(capsys, monkeypatch):
    # a search without edges leaves every seed form its own component, so
    # the form route counts every form and disagrees with the class
    # number formula; the message names both counts, the formula's
    # proven error, the height and the form caps
    lone = generator_tables("form", lambda rows: rows[:0],
                            pellforms._FORM_MIRROR)

    def lone_form_orbit(seeds, D, cap1, cap2, groups):
        return capped_bfs("form", seeds, lambda: lone, D, cap1, cap2, groups)

    monkeypatch.setattr(pellforms, "form_orbit", lone_form_orbit)
    F = make_field(5)
    d = QuadInt(5, -126, 79)  # h = 8
    h1, h2 = _form_boxes(d, 8.0)
    caps = f"form caps ({3 * h1:.6g}, {3 * h2:.6g})"
    assert caps == "form caps (24, 68.4996)"
    with pytest.raises(InvariantViolation) as exc:
        class_number(d, F)
    # the search covers half of the forms and counts their negatives too
    assert re.fullmatch(
        r"ambiguous class count for d=-126\+79\*w: form orbits give "
        f"{2 * len(enumerate_forms(d, F))}, the class number formula gives "
        r"8 within \d\.\de-1\d; height=8\.0, " + re.escape(caps),
        str(exc.value))
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    assert main(["forms", "--D", "5", "--d=-126+79*w"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("invariant violation: ambiguous class count")
    assert out.err.endswith(f"{caps}\n")


def test_conjugate_stabilizers_raise(monkeypatch):
    # the stabilizers of a count's form representatives must fall in
    # distinct conjugacy classes; a form_to_matrix that gives every form
    # the first representative's stabilizer leaves one class
    F = make_field(5)
    d = QuadInt(5, -126, 79)  # h = 8
    rec = class_number(d, F)
    first = pellforms.form_to_matrix(rec.forms[0], rec.pell)
    monkeypatch.setattr(pellforms, "form_to_matrix", lambda Q, pell: first)
    with pytest.raises(InvariantViolation) as exc:
        class_number(d, F)
    assert re.fullmatch(
        r"conjugate stabilizers for d=-126\+79\*w: the 8 form classes' "
        r"stabilizer generators fall in 1 conjugacy classes within caps "
        r"\([\d.]+, [\d.]+\)", str(exc.value))


def test_stabilizer_guard_raises_after_the_formula(monkeypatch):
    # the key guard of the stabilizers' caps runs after the form search
    # and the formula agree, and its refusal is the count's error
    packer = pellforms._row_packer
    searched = []

    def refusing(what, *args):
        if what == "conjugation":
            raise BudgetExceededError("stabilizer caps refused")
        return packer(what, *args)

    form_orbit = pellforms.form_orbit
    monkeypatch.setattr(pellforms, "_row_packer", refusing)
    monkeypatch.setattr(pellforms, "form_orbit", lambda *args: (
        searched.append(1) or form_orbit(*args)))
    with pytest.raises(BudgetExceededError,
                       match="^stabilizer caps refused$"):
        class_number(QuadInt(5, -7, 5), make_field(5))
    assert searched == [1]


def _window_candidates(D, x):
    """(F, pells): the Pell solutions of the candidates
    enumerate_geodesics(make_field(D), x) counts, in order."""
    F = make_field(D)
    seen = []

    def capture(pells, F, height):
        seen.append(list(pells))
        return class_numbers(pells, F, height)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geodesics, "class_numbers", capture)
        try:
            enumerate_geodesics(F, x)
        except InvariantViolation:
            pass
    return F, seen[-1]


# state budgets per field at x = 12: the default, one that a form search
# first passes at a later candidate and one that it passes at the first
BATCH_BUDGETS = {5: (400000, 2000, 1000), 12: (400000, 400, 100)}


@pytest.mark.parametrize("D", sorted(BATCH_BUDGETS))
def test_batches_keep_every_record_and_verdict(D, monkeypatch):
    # batches of one seed, which count each discriminant alone, of the
    # default size and of the whole window give the same records, state
    # totals and budget verdicts: every discriminant before the first
    # that fails alone counts as alone, and the window raises that one's
    # error, also when it is the last candidate
    F, pells = _window_candidates(D, 12.0)
    states = []
    form_orbit = pellforms.form_orbit
    monkeypatch.setattr(pellforms, "form_orbit", lambda *args: (
        states.append(len(orbit := form_orbit(*args))) or orbit))

    def run(n, batch_seeds, ms, first=0):
        """(records, states) of candidates first..n-1, or the type and
        message of the error they raise."""
        states.clear()
        with monkeypatch.context() as patch:
            patch.setattr(pellforms, "_BATCH_SEEDS", batch_seeds)
            patch.setattr(orbits, "MAX_STATES", ms)
            try:
                return (class_numbers(pells[first:n], F, 8.0),
                        sum(states))
            except BudgetExceededError as exc:
                return type(exc), str(exc)

    for ms in BATCH_BUDGETS[D]:
        alone = [run(i + 1, 1, ms, i) for i in range(len(pells))]
        failed = [i for i, out in enumerate(alone)
                  if isinstance(out[0], type)]
        j = failed[0] if failed else len(pells)
        want = ([rec for recs, _ in alone[:j] for rec in recs],
                sum(n for _, n in alone[:j]))
        assert bool(failed) == (ms != 400000)
        for batch_seeds in (1, pellforms._BATCH_SEEDS, 10 ** 9):
            assert run(j, batch_seeds, ms) == want, (ms, batch_seeds)
            if failed:
                assert run(j + 1, batch_seeds, ms) == alone[j]
                assert run(len(pells), batch_seeds, ms) == alone[j]


def test_key_space_runs_keep_the_window(monkeypatch):
    # groups that one packed-key space cannot hold search as consecutive
    # runs that it can: at a capacity of 1, 2 and 3 groups the D = 5,
    # x = 12 window, or its budget error, and each form and conjugation
    # search's roots, per-group state counts and verdicts, are those of
    # one run per search, and a search of G groups makes
    # ceil(G / capacity) runs; at the default budget and at one that a
    # later candidate's form search passes
    F = make_field(5)
    searches, runs = [], []
    search = orbits._search
    monkeypatch.setattr(orbits, "_search", lambda *args: (
        runs.append(len(args[3])) or search(*args)))
    for name in ("form_orbit", "conjugation_orbit"):
        def recorded(*args, _search=getattr(pellforms, name), _name=name):
            out = _search(*args)
            orbit = out[0] if isinstance(out, tuple) else out
            searches.append((_name, orbit.roots.tolist(),
                             orbit.states.tolist(), orbit.failed.tolist()))
            return out
        monkeypatch.setattr(pellforms, name, recorded)

    def window(ms, capacity=None):
        """(classes or error, searches, runs) of the window at the state
        budget ms and that capacity."""
        searches.clear()
        runs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(orbits, "MAX_STATES", ms)
            if capacity is not None:
                patch.setattr(orbits, "max_groups", lambda *args: capacity)
            try:
                out = list(enumerate_geodesics(F, 12.0))
            except BudgetExceededError as exc:
                out = str(exc)
        return out, list(searches), list(runs)

    for ms in (400000, 2000):
        classes, want, one = window(ms)
        sizes = [len(failed) for _, _, _, failed in want]
        assert one == sizes and max(sizes) > 3
        assert {name for name, *_ in want} == {"form_orbit",
                                               "conjugation_orbit"}
        assert isinstance(classes, str) == (ms != 400000)
        assert any(True in failed for *_, failed in want) == (ms != 400000)
        for capacity in (1, 2, 3):
            got, searched, split = window(ms, capacity)
            assert got == classes and searched == want, (ms, capacity)
            assert split == [min(capacity, G - lo) for G in sizes
                             for lo in range(0, G, capacity)], capacity


def _refusing(scan, d):
    """pellforms' `scan`, enumerate_forms or analytic_class_number,
    raising for the discriminant d, with every discriminant it is called
    for recorded.  enumerate_forms takes the discriminant, the formula
    its Pell solution."""
    fn = getattr(pellforms, scan)
    called = []

    def refused(*args, **kwargs):
        dc = args[0].d if scan == "analytic_class_number" else args[0]
        called.append(dc)
        if dc == d:
            raise BudgetExceededError(f"scan refused for {d}")
        return fn(*args, **kwargs)
    return refused, called


@pytest.mark.parametrize("scan", ["enumerate_forms", "analytic_class_number"])
def test_a_later_failure_leaves_the_first_error(scan, monkeypatch):
    # D = 12 at x = 25: the first candidate, -385 + 224w, has a route
    # mismatch.  A later candidate whose form scan or class number
    # formula raises, in its batch or in a later one, leaves that error
    # standing
    F, pells = _window_candidates(12, 25.0)
    ds = [pell.d for pell in pells]
    assert ds[0] == QuadInt(12, -385, 224)
    for batch_seeds in (1, pellforms._BATCH_SEEDS, 10 ** 9):
        for later in (ds[1], ds[-1]):
            with monkeypatch.context() as patch:
                patch.setattr(pellforms, "_BATCH_SEEDS", batch_seeds)
                refused, called = _refusing(scan, later)
                patch.setattr(pellforms, scan, refused)
                with pytest.raises(InvariantViolation,
                                   match=r"^ambiguous class count for "
                                         r"d=-385\+224\*w: "):
                    enumerate_geodesics(F, 25.0)
            # every candidate is scanned before it joins a batch, and all
            # of them join the one batch of 10^9 seeds
            if later == ds[1] or batch_seeds == 10 ** 9:
                assert later in called, (batch_seeds, later)


@pytest.mark.parametrize("scan", ["enumerate_forms", "analytic_class_number"])
def test_an_earlier_failure_wins(scan, monkeypatch):
    # -385 + 224w is the first candidate of D = 12 at x = 25, so the
    # earlier candidate is one put before it: its failing scan raises,
    # and no discriminant after it is scanned or searched
    F, pells = _window_candidates(12, 25.0)
    ds = [pell.d for pell in pells]
    order = [1, 0, 2]
    for batch_seeds in (1, pellforms._BATCH_SEEDS, 10 ** 9):
        with monkeypatch.context() as patch:
            patch.setattr(pellforms, "_BATCH_SEEDS", batch_seeds)
            refused, called = _refusing(scan, ds[1])
            patch.setattr(pellforms, scan, refused)
            with pytest.raises(BudgetExceededError,
                               match=re.escape(f"scan refused for {ds[1]}")):
                class_numbers([pells[i] for i in order], F, 8.0)
            assert called == [ds[1]]


def test_a_failing_formula_puts_no_form_into_a_search(monkeypatch):
    # the formula runs before the form search: a discriminant whose
    # formula raises joins no batch, and the earlier -385 + 224w of
    # D = 12 at x = 25 still raises its route mismatch first
    F, pells = _window_candidates(12, 25.0)
    ds = [pell.d for pell in pells]
    first = len(pellforms.unique_rows(enumerate_forms(ds[0], F, 8.0)))
    form_orbit = pellforms.form_orbit
    for batch_seeds in (1, pellforms._BATCH_SEEDS, 10 ** 9):
        searched = []
        with monkeypatch.context() as patch:
            patch.setattr(pellforms, "_BATCH_SEEDS", batch_seeds)
            patch.setattr(pellforms, "form_orbit", lambda seeds, *args: (
                searched.append(len(seeds)) or form_orbit(seeds, *args)))
            refused, called = _refusing("analytic_class_number", ds[1])
            patch.setattr(pellforms, "analytic_class_number", refused)
            with pytest.raises(BudgetExceededError,
                               match=re.escape(f"scan refused for {ds[1]}")):
                class_numbers(pells[1:2], F, 8.0)
            assert searched == [] and called == [ds[1]]
            with pytest.raises(InvariantViolation,
                               match=r"^ambiguous class count for "
                                     r"d=-385\+224\*w: "):
                class_numbers(pells[:2], F, 8.0)
            assert searched == [first] and called == ds[1:2] + ds[:2]


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
    # the forms whose a is positive at the second embedding; the others
    # are exactly their negatives
    ref = primitive_forms_ref(d, *_form_boxes(d, height))
    assert set(keys) == {k for k in ref if QuadInt(D, *k[:2]).sign_embed(2) > 0}
    assert ref == set(keys) | {tuple(-v for v in k) for k in keys}


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


# fields where the form route at height 8 counts some class of the x = 8
# window other than the class number formula does (ROADMAP item 7's form
# boxes)
ROUTE_MISMATCH_X8 = {17, 21, 24, 28, 29, 33, 37, 41, 44, 53, 56, 57, 61, 69,
                     73, 76, 77, 88, 92}


@pytest.mark.parametrize("D", [
    pytest.param(D, marks=pytest.mark.xfail(
        strict=True, raises=InvariantViolation,
        reason="form count differs from the class number formula"))
    if D in ROUTE_MISMATCH_X8 else D
    for D in sorted(CLASS_NUMBER_ONE)])
def test_every_field_enumerates_within_budget(D):
    # no class-number-one field runs out of a search or arithmetic budget
    window = enumerate_geodesics(make_field(D), 8.0)
    assert all(c.norm <= 64.0 * (1 + 1e-12) for c in window)


def test_unbounded_d_leaves_the_d44_mismatch_standing():
    # D = 44, d = 11 + 4w: the class number formula gives h = 4 and the
    # form route reads 2 at height 8 (4 at height 16), so no wider matrix
    # scan can make the count pass: it raises and names both
    with pytest.raises(InvariantViolation,
                       match=r"^ambiguous class count for d=11\+4\*w: form "
                             r"orbits give 2, the class number formula "
                             r"gives 4 within "):
        class_number(QuadInt(44, 11, 4), make_field(44))


@pytest.mark.parametrize("D,x", [(5, 12.0), (8, 10.0), (12, 10.0), (69, None)])
def test_row_filter_matches_matrix_filter_ref(D, x):
    F = make_field(D)
    if x is None:
        # the window raises in this field (ROUTE_MISMATCH_X8), so take the
        # Pell solutions of two small discriminants directly
        pells = [pell_fundamental(QuadInt(D, *d), F)
                 for d in ((1, 1), (-3, 1))]
    else:
        pells = [c.record.pell for c in enumerate_geodesics(F, x)]
    for pell in pells:
        m1, m2 = matrix_boxes_ref(pell, 8.0)
        # the full scan: the half with C positive at the first embedding
        # and its conjugates [[A, -B], [-C, E]] by diag(1, -1)
        half = _matrices_with_trace(F, pell.t0, m1, m2)
        rows = np.concatenate([half, half * [1, 1, -1, -1, -1, -1, 1, 1]])
        got = matrix_keys_ref(pell, F, m1, m2)
        keys = list(map(tuple, got.tolist()))
        assert len(keys) == len(set(keys))
        # the matrices of trace t0 whose C is positive at the second
        # embedding; the others are exactly their conjugates by
        # diag(1, -1)
        assert (got[:, 0:2] + got[:, 6:8] == [pell.t0.a, pell.t0.b]).all()
        ref = matrix_filter_ref(rows.tolist(), pell.d, F)
        psl = {normalize_key_ref(k, D) for k in keys}
        assert len(psl) == len(keys)
        assert psl == {k for k in ref if _c_at_t0(k, pell) > 0}
        assert ref == psl | {_mirror_key(k, D) for k in keys}


def _c_at_t0(key, pell):
    """The sign, at the second embedding, of C in the sign of key whose
    trace is t0."""
    g = GroupElem.from_key(key, pell.d.D)
    return g.c.sign_embed(2) * (1 if g.trace() == pell.t0 else -1)


def _mirror_key(key, D):
    """The sign-normalized key of the conjugate [[A, -B], [-C, E]] by
    diag(1, -1)."""
    aa, ab, ba, bb, ca, cb, ea, eb = key
    return normalize_key_ref((aa, ab, -ba, -bb, -ca, -cb, ea, eb), D)


@pytest.mark.parametrize("D,x", [(5, 12.0), (8, 12.0), (12, 12.0), (13, 8.0)])
def test_half_searches_match_the_full_searches(D, x):
    # per class, the count and forms of class_number are those of one
    # search over both definiteness halves: the forms and their
    # negatives, the matrices and their conjugates by diag(1, -1), which
    # are the matrices of the full scan, or their inverses; each full
    # search visits exactly twice the states of its half
    F = make_field(D)
    for c in enumerate_geodesics(F, x):
        rec = c.record
        h1, h2 = _form_boxes(rec.d, 8.0)
        cap1, cap2 = 3.0 * h1, 3.0 * h2
        m1, m2 = matrix_boxes_ref(rec.pell, 8.0)
        mcap1, mcap2 = max(cap1, 1.5 * m1), max(cap2, 1.5 * m2)
        half = enumerate_forms(rec.d, F)
        full = np.unique(np.concatenate([half, -half]), axis=0)
        assert len(full) == 2 * len(half)
        orbit = pellforms.form_orbit(full, D, cap1, cap2)
        assert len(orbit.reps) == rec.class_number
        assert [FormOverOK.from_key(k, D) for k in full[orbit.reps].tolist()] \
            == list(rec.forms)
        assert len(orbit) == 2 * len(pellforms.form_orbit(
            np.unique(half, axis=0), D, cap1, cap2))
        rows = matrix_keys_ref(rec.pell, F, m1, m2)
        keys = set(map(tuple, rows.tolist()))
        states = len(modgroup.conjugation_orbit(
            np.unique(rows, axis=0), D, mcap1, mcap2)[0])
        # [[A, -B], [-C, E]] and the inverses [[E, -B], [-C, A]], both in
        # the sign of trace t0, the one sign the search takes
        flip = [1, 1, -1, -1, -1, -1, 1, 1]
        for other in (rows * flip, rows[:, [6, 7, 2, 3, 4, 5, 0, 1]] * flip):
            images = set(map(tuple, other.tolist()))
            assert len(images) == len(keys) and not keys & images
            orbit, classes = modgroup.conjugation_orbit(
                np.array(sorted(keys | images)), D, mcap1, mcap2)
            assert len(classes) == rec.class_number
            assert len(orbit) == 2 * states


@pytest.mark.parametrize("D,x", [(5, 12.0), (8, 10.0), (12, 10.0)])
def test_matrix_oracle_matches_both_routes(D, x):
    # the matrix-conjugacy count of the oracle equals the form count and
    # the class number formula on every class of the window
    F = make_field(D)
    for c in enumerate_geodesics(F, x):
        rec = c.record
        h = lfun.analytic_class_number(rec.pell, F)
        assert (matrix_class_count_ref(rec.pell, F) == rec.class_number
                == h.count), rec.d
