"""Geodesic class enumeration and counting reports."""

import math

import pytest

from hilbert_selberg import geodesics, modgroup, orbits, pellforms
from hilbert_selberg.errors import ValidationError
from hilbert_selberg.geodesics import (enumerate_geodesics,
                                       square_divisor_quotients)
from hilbert_selberg.pellforms import (content_norm, form_to_matrix,
                                       pell_fundamental)
from hilbert_selberg.quadfield import CLASS_NUMBER_ONE, QuadInt, make_field
from hilbert_selberg.records import GeodesicWindow, count_reports
from hilbert_selberg.specfun import li

# D=5, eps <= 10, ordered by norm; (d coords, multiplicity) frozen after
# the form and matrix class counts agreed and the list survived doubling
# of the trace box and of the class-number height; the class number
# formula gives the same counts.
X10_D5 = [
    ((-7, 5), 2), ((-4, 4), 2), ((-10, 7), 2), ((-19, 13), 4),
    ((-44, 28), 4), ((-42, 27), 4), ((-11, 8), 2), ((-51, 33), 4),
    ((-62, 39), 4), ((-91, 57), 4), ((-128, 80), 4), ((-126, 79), 8),
    ((-95, 60), 4),
]


@pytest.fixture(scope="module")
def d5_x10():
    F = make_field(5)
    return F, enumerate_geodesics(F, 10.0)


def test_frozen_list_x10(d5_x10):
    F, cls = d5_x10
    assert [((c.d.a, c.d.b), c.multiplicity) for c in cls] == X10_D5
    assert sum(c.multiplicity for c in cls) == 48


# the levels each discriminant's own searches walk on D = 5 at x = 12, in
# candidate order, counting the pass over the last level's images: the
# form search and the conjugation search of its stabilizers
X12_OWN_PASSES = {
    "form": [18, 14, 14, 13, 14, 15, 13, 17, 18, 13, 12, 11, 12, 11, 11,
             12],
    "conjugation": [15, 17, 14, 14, 14, 15, 16, 17, 13, 14, 14, 12, 14, 13,
                    12, 16],
}


def _x12_run(monkeypatch, batch_seeds=None):
    """enumerate_geodesics(make_field(5), 12.0), with pellforms'
    _BATCH_SEEDS patched when given: the window, its work counts, each
    search's (groups, _dedup passes) per route, its _dedup passes, and
    the generator tables built by it and the census."""
    counts = {"conjugation": [], "form": [], "forms": []}
    searches = {"conjugation": [], "form": []}
    passes, builds = [], []
    dedup = orbits._dedup

    def counted(name, fn, size):
        def wrapper(*args, **kwargs):
            before = len(passes)
            out = fn(*args, **kwargs)
            counts[name].append(size(out))
            if name in searches:  # (seeds, D, cap1, cap2, groups)
                searches[name].append((len(args[2]), len(passes) - before))
            return out
        return wrapper

    def building(build):
        def wrapper(what, *args):
            builds.append(what)
            return build(what, *args)
        return wrapper

    with monkeypatch.context() as patch:
        for name, attr, size in (
                ("conjugation", "conjugation_orbit", lambda out: len(out[0])),
                ("form", "form_orbit", len),
                ("forms", "enumerate_forms", len)):
            patch.setattr(pellforms, attr,
                          counted(name, getattr(pellforms, attr), size))
        # every search runs one _dedup per level, the seeds' level 0 too,
        # and one for the images of its last level, which hold no new state
        patch.setattr(orbits, "_dedup",
                      lambda *args: passes.append(1) or dedup(*args))
        for module in (pellforms, modgroup):
            patch.setattr(module, "generator_tables",
                          building(module.generator_tables))
        if batch_seeds is not None:
            patch.setattr(pellforms, "_BATCH_SEEDS", batch_seeds)
        pellforms._form_tables.cache_clear()
        modgroup._conj_tables.cache_clear()
        F = make_field(5)
        cls = enumerate_geodesics(F, 12.0)
        levels = len(passes)
        modgroup.elliptic_census(F)
    return cls, counts, searches, levels, builds


def test_x12_work_counts(monkeypatch):
    # the states the form search and the stabilizers' conjugation search
    # visit on D = 5 at x = 12, and the forms the box scan lists; a change
    # to the state graph (the generators, the caps, the PSL identification
    # or the definiteness half) moves these sums, and a faster search must
    # visit the same levels
    cls, counts, searches, passes, builds = _x12_run(monkeypatch)
    assert sum(c.multiplicity for c in cls) == 60
    # one batch: the 4544 seeds stay under _BATCH_SEEDS, and its 60
    # stabilizers are one conjugation search
    assert [len(v) for v in counts.values()] == [1, 1, 16]
    assert [sum(v) for v in counts.values()] == [10648, 56412, 4544]
    assert passes == sum(max(v) for v in X12_OWN_PASSES.values())
    # each route's generator tables are built once per field
    assert sorted(builds) == ["conjugation", "form"]
    # alone, each discriminant walks its own levels; in a batch, every
    # group keeps them, so the batch walks as many as its deepest group
    _, alone, own, passes, _ = _x12_run(monkeypatch, batch_seeds=1)
    assert [len(v) for v in alone.values()] == [16, 16, 16]
    assert sum(alone["conjugation"]) == sum(counts["conjugation"])
    assert passes == sum(map(sum, X12_OWN_PASSES.values()))
    for route, want in X12_OWN_PASSES.items():
        assert own[route] == [(1, n) for n in want]
        start = 0
        for groups, n in searches[route]:
            assert n == max(want[start:start + groups])
            start += groups
        assert start == len(want)


class _Captured(Exception):
    """Raised by a patched class_numbers with the (ds, pells) it got."""


def _candidates(D, x):
    """(F, ds, pells) that enumerate_geodesics(make_field(D), x) passes
    to class_numbers, captured before any class count runs."""
    F = make_field(D)

    def capture(ds, F, height, pells):
        raise _Captured(list(ds), list(pells))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geodesics, "class_numbers", capture)
        with pytest.raises(_Captured) as caught:
            enumerate_geodesics(F, x)
    return F, *caught.value.args


@pytest.mark.parametrize("D,x", [(5, 20.0), (8, 20.0), (12, 20.0),
                                 (13, 12.0), (5, 40.0), (8, 40.0)]
                         + [(D, 8.0) for D in sorted(CLASS_NUMBER_ONE)])
def test_least_trace_is_the_pell_solution(D, x):
    # each candidate's least trace in the box, with the root of
    # (t0^2 - 4)/d, is the solution the Pell search finds
    F, ds, pells = _candidates(D, x)
    assert [pell.d for pell in pells] == ds
    for pell in pells:
        want = pell_fundamental(pell.d, F)
        assert (pell.t0, pell.u0) == (want.t0, want.u0), pell.d


def test_the_window_runs_no_pell_search(d5_x10, monkeypatch):
    # the trace box holds every candidate's Pell solution, so no path of
    # the enumeration searches for one
    def no_search(*args, **kwargs):
        raise AssertionError("pell_fundamental called")

    monkeypatch.setattr(pellforms, "pell_fundamental", no_search)
    monkeypatch.setattr(geodesics, "pell_fundamental", no_search)
    F, cls = d5_x10
    assert enumerate_geodesics(F, 10.0) == cls


def test_form_matrix_round_trip(d5_x10):
    # [[A, B], [C, E]] = form_to_matrix(Q) carries the form (C, E - A, -B),
    # which is exactly u0 * Q up to the sign of g; Q is primitive
    F, cls = d5_x10
    for c in cls:
        t0, u0 = c.record.pell.t0, c.record.pell.u0
        for Q in c.record.forms:
            g = form_to_matrix(Q, c.record.pell)
            su0 = u0 if g.trace() == t0 else -u0
            assert (g.c, g.d - g.a, -g.b) == (su0 * Q.a, su0 * Q.b, su0 * Q.c)
            assert content_norm(Q.a, Q.b, Q.c) == 1
            assert Q.disc == c.d


def test_class_invariants(d5_x10):
    F, cls = d5_x10
    for c in cls:
        assert c.norm > 1.0
        assert 0.0 < c.angle < math.pi
        t0 = c.record.pell.t0
        eps = math.sqrt(c.norm)
        assert eps + 1.0 / eps == pytest.approx(t0.embed(1), abs=1e-9)
        assert 2.0 * math.cos(c.angle) == pytest.approx(t0.embed(2),
                                                        abs=1e-9)
        assert c.norm <= 100.0 * (1 + 1e-12)
        assert c.multiplicity == c.record.class_number


def test_sorted_by_norm(d5_x10):
    F, cls = d5_x10
    norms = [c.norm for c in cls]
    assert norms == sorted(norms)


def test_window_coverage_and_cut(d5_x10):
    F, cls = d5_x10
    assert isinstance(cls, GeodesicWindow)
    assert cls.coverage == max(c.norm for c in cls) <= 100.0
    assert cls.count_upto(cls.coverage) == len(cls)
    n = cls.count_upto(50.0)
    assert all(c.norm <= 50.0 for c in cls[:n]) and cls[n].norm > 50.0
    with pytest.raises(ValidationError, match="geodesics to x >= 20 first"):
        cls.count_upto(400.0)
    # the prefix count carries the cut's slack: 1e-9 past the coverage,
    # 1e-12 below a listed norm
    assert cls.count_upto(cls.coverage * (1.0 + 0.9e-9)) == len(cls)
    with pytest.raises(ValidationError):
        cls.count_upto(cls.coverage * (1.0 + 1.1e-9))
    assert cls.count_upto(cls[3].norm * (1.0 - 0.9e-12)) == 4
    assert cls.count_upto(cls[3].norm * (1.0 - 1.1e-12)) == 3
    wide = GeodesicWindow(cls, coverage=400.0)
    assert wide.count_upto(400.0) == len(cls)
    assert wide.coverage == 400.0 and wide != cls


def test_window_count_constants(d5_x10):
    # the fits: largest running count over li(N), and running
    # h*log N over N, each with its safety factor
    F, cls = d5_x10
    counts, logs = 0, 0.0
    c1 = c2 = 0.0
    for c in cls:
        counts += c.multiplicity
        logs += c.multiplicity * math.log(c.norm)
        c1 = max(c1, counts / li(c.norm)) if c.norm >= 3.0 else c1
        c2 = max(c2, logs / c.norm)
    assert cls.count_constant == 1.6 * c1
    assert cls.weighted_count_constant == 1.5 * c2
    empty = GeodesicWindow([])
    assert empty.count_constant == 1.6 * 4.0
    assert empty.weighted_count_constant == 1.5 * 4.0


def test_within_refuses_a_wider_bound(d5_x10):
    # a window cut past the x it was enumerated to would miss the
    # classes beyond it, and a bare class list records no x at all
    F, cls = d5_x10
    assert cls.bound == 10.0 and cls.within(8.0).bound == 8.0
    with pytest.raises(ValidationError, match="at x = 12: it was enumerated to x = 10 only"):
        enumerate_geodesics(make_field(5), 10.0).within(12.0)
    with pytest.raises(ValidationError, match="at x = 9: it was enumerated to x = 8 only"):
        cls.within(8.0).within(9.0)
    with pytest.raises(ValidationError, match="at x = 5: it records no enumeration bound"):
        GeodesicWindow(cls).within(5.0)


def test_empty_below_first_geodesic():
    F = make_field(5)
    empty = enumerate_geodesics(F, 2.0)
    assert len(empty) == 0 and empty.coverage == 0.0


@pytest.mark.parametrize("x", [6.0, 8.0, 10.0])
def test_within_equals_enumeration(window10, x):
    # the cut of a wider window is the enumeration at the narrower bound:
    # the same classes, coverage, Pell records and forms
    F = make_field(window10[0].d.D)
    cut, fresh = window10.within(x), enumerate_geodesics(F, x)
    assert isinstance(cut, GeodesicWindow)
    assert list(cut) == list(fresh) and cut.coverage == fresh.coverage
    assert [c.record for c in cut] == [c.record for c in fresh]
    assert [c.record.forms for c in cut] == [c.record.forms for c in fresh]
    if x < 10.0:
        assert len(cut) < len(window10)
    with pytest.raises(ValidationError):
        window10.within(0.5)


def test_within_equals_enumeration_without_a_census():
    # D = 13 has no elliptic census, and its x = 10 window cuts the same
    F = make_field(13)
    wide = enumerate_geodesics(F, 10.0)
    for x in (6.0, 8.0):
        cut, fresh = wide.within(x), enumerate_geodesics(F, x)
        assert list(cut) == list(fresh) and cut.coverage == fresh.coverage
        assert [c.record for c in cut] == [c.record for c in fresh]


def _enumerated(F):
    """The window count_reports reads, enumerated to the largest cutoff."""
    return lambda x: enumerate_geodesics(F, x)


def test_reports_take_a_window(d5_x10):
    F, cls = d5_x10
    for scale, grid in ((False, [8.0]), (True, [5.0, 8.0])):
        assert count_reports(grid, cls.within, scale) == \
            count_reports(grid, _enumerated(F), scale)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_cutoff_refuses_non_finite(d5_x10, x):
    F, cls = d5_x10
    with pytest.raises(ValidationError, match="not finite"):
        enumerate_geodesics(F, x)
    with pytest.raises(ValidationError, match="not finite"):
        cls.within(x)


def test_cutoff_validation():
    F = make_field(5)
    with pytest.raises(ValidationError):
        enumerate_geodesics(F, 0.5)

    def unread(x):
        raise AssertionError("window read before the grid was checked")

    with pytest.raises(ValidationError, match="report cutoff needs x > 1"):
        count_reports([1.0], unread, geodesic_scale=False)
    with pytest.raises(ValidationError, match="report grid needs x > 1"):
        count_reports([1.0, 5.0], unread, geodesic_scale=True)


def test_square_divisor_quotients():
    F = make_field(5)
    P = 4 * QuadInt(5, 1, 8)
    qs = {(q.a, q.b) for q in square_divisor_quotients(P, F)}
    assert (4, 32) in qs   # u a unit
    assert (1, 8) in qs    # u = 2
    om = QuadInt(5, 0, 1)  # unit, so only the trivial quotient
    P2 = (om * om) * QuadInt(5, 1, 8)
    assert [(q.a, q.b) for q in square_divisor_quotients(P2, F)] \
        == [(P2.a, P2.b)]


def test_square_divisor_classes_found_d8():
    # d = -4+4w over Q(sqrt(2)) only arises as (t^2-4)/4, never as t^2-4
    F = make_field(8)
    cls = enumerate_geodesics(F, 5.0)
    coords = {(c.d.a, c.d.b) for c in cls}
    assert (-4, 4) in coords
    assert (-8, 8) in coords  # the companion with the same norm
    pair = [c for c in cls if (c.d.a, c.d.b) in {(-4, 4), (-8, 8)}]
    assert pair[0].norm == pytest.approx(pair[1].norm, rel=1e-12)


def test_reports_consistent(d5_x10):
    F, cls = d5_x10
    rep = count_reports([5.0, 10.0], _enumerated(F), geodesic_scale=True)
    avg, = count_reports([10.0], _enumerated(F), geodesic_scale=False)
    assert avg.psi_sum * 2 == rep[1].psi_sum
    assert avg.pi_sum == rep[1].pi_sum == 48
    X = 100.0
    assert rep[1].residuals["pi_main"] == 2.0 * li(X)
    assert avg.residuals["pi_main"] == 2.0 * li(X)
    assert rep[1].residuals["psi_main"] == 2.0 * X
    assert avg.residuals["psi_main"] == X
    # psi recomputed from the class list
    psi = sum(c.multiplicity * math.log(c.norm) for c in cls)
    assert rep[1].psi_sum == pytest.approx(psi, rel=1e-14)


def test_report_sums_monotone():
    F = make_field(5)
    grid = [3.0, 5.0, 8.0, 10.0]
    reps = count_reports(grid, _enumerated(F), geodesic_scale=True)
    for a, b in zip(reps, reps[1:]):
        assert a.psi_sum <= b.psi_sum
        assert a.pi_sum <= b.pi_sum


def test_report_below_first_geodesic_pure_residual():
    F = make_field(5)
    rep, = count_reports([2.0], _enumerated(F), geodesic_scale=True)
    assert rep.psi_sum == 0.0 and rep.pi_sum == 0
    assert rep.residuals["pi_resid"] == pytest.approx(-2.0 * li(4.0))
