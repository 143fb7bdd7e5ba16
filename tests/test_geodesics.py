"""Geodesic class enumeration and counting reports."""

import math

import pytest

from hilbert_selberg import pellforms
from hilbert_selberg.errors import ValidationError
from hilbert_selberg.geodesics import (GeodesicWindow, class_average_report,
                                       enumerate_geodesics, pgt_report,
                                       square_divisor_quotients)
from hilbert_selberg.pellforms import content_norm, form_to_matrix
from hilbert_selberg.quadfield import QuadInt, make_field
from hilbert_selberg.specfun import li

# D=5, eps <= 10, ordered by norm; (d coords, multiplicity) frozen after
# the dual-route class counts agreed and the list survived doubling of
# the trace box and of the class-number height.
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


def test_x12_work_counts(monkeypatch):
    # the states both class-count routes visit on D = 5 at x = 12, one
    # search per route and family; a change to the state graph (the
    # generators, the caps or the PSL identification) moves these sums
    states = {"conjugation": [], "form": []}
    conj, form = pellforms.conjugation_orbit, pellforms.form_orbit

    def counted_conj(*args, **kwargs):
        out = conj(*args, **kwargs)
        states["conjugation"].append(len(out[0]))
        return out

    def counted_form(*args, **kwargs):
        out = form(*args, **kwargs)
        states["form"].append(len(out))
        return out

    monkeypatch.setattr(pellforms, "conjugation_orbit", counted_conj)
    monkeypatch.setattr(pellforms, "form_orbit", counted_form)
    cls = enumerate_geodesics(make_field(5), 12.0)
    assert sum(c.multiplicity for c in cls) == 60
    assert [len(v) for v in states.values()] == [16, 16]
    assert sum(states["conjugation"]) == 259056
    assert sum(states["form"]) == 112824


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
    assert cls.upto(cls.coverage) == cls.classes
    low = cls.upto(50.0)
    assert low == cls.classes[:len(low)]
    assert all(c.norm <= 50.0 for c in low) and cls[len(low)].norm > 50.0
    with pytest.raises(ValidationError, match="geodesics to x >= 20 first"):
        cls.upto(400.0)
    # the prefix count carries the cut's slack: 1e-9 past the coverage,
    # 1e-12 below a listed norm
    assert cls.count_upto(cls.coverage * (1.0 + 0.9e-9)) == len(cls)
    with pytest.raises(ValidationError):
        cls.count_upto(cls.coverage * (1.0 + 1.1e-9))
    assert cls.count_upto(cls[3].norm * (1.0 - 0.9e-12)) == 4
    assert cls.count_upto(cls[3].norm * (1.0 - 1.1e-12)) == 3
    wide = GeodesicWindow(cls, coverage=400.0)
    assert wide.upto(400.0) == cls.classes
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


def test_trace_box_doubling_stable(d5_x10):
    F, cls = d5_x10
    wide = enumerate_geodesics(F, 10.0, trace_bound=2 * (10.0 + 0.1))
    assert [(c.d.a, c.d.b, c.multiplicity) for c in cls] == \
           [(c.d.a, c.d.b, c.multiplicity) for c in wide]


def test_empty_below_first_geodesic():
    F = make_field(5)
    empty = enumerate_geodesics(F, 2.0)
    assert len(empty) == 0 and empty.coverage == 0.0


def test_cutoff_validation():
    F = make_field(5)
    with pytest.raises(ValidationError):
        enumerate_geodesics(F, 0.5)
    with pytest.raises(ValidationError):
        class_average_report(F, 1.0)
    with pytest.raises(ValidationError):
        pgt_report(F, [1.0, 5.0])


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
    rep = pgt_report(F, [5.0, 10.0])
    avg = class_average_report(F, 10.0)
    assert avg.psi_sum * 2 == rep[1].psi_sum
    assert avg.pi_sum == rep[1].pi_sum == 48
    X = 100.0
    assert rep[1].main_terms == (X, 2.0 * li(X))
    assert avg.main_terms == (X, 2.0 * li(X))
    assert rep[1].residuals["psi_main"] == 2.0 * X
    assert avg.residuals["psi_main"] == X
    # psi recomputed from the class list
    psi = sum(c.multiplicity * math.log(c.norm) for c in cls)
    assert rep[1].psi_sum == pytest.approx(psi, rel=1e-14)


def test_report_sums_monotone():
    F = make_field(5)
    grid = [3.0, 5.0, 8.0, 10.0]
    reps = pgt_report(F, grid)
    for a, b in zip(reps, reps[1:]):
        assert a.psi_sum <= b.psi_sum
        assert a.pi_sum <= b.pi_sum


def test_report_below_first_geodesic_pure_residual():
    F = make_field(5)
    rep = pgt_report(F, [2.0])[0]
    assert rep.psi_sum == 0.0 and rep.pi_sum == 0
    assert rep.residuals["pi_resid"] == pytest.approx(-2.0 * li(4.0))
