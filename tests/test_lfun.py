"""The class number formula (lfun) and the exponential integral E_1."""

import mpmath
import numpy as np
import pytest

from hilbert_selberg import lfun, pellforms
from hilbert_selberg.cli import main
from hilbert_selberg.errors import BudgetExceededError, InvariantViolation
from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.pellforms import class_number, pell_fundamental
from hilbert_selberg.quadfield import (CLASS_NUMBER_ONE, QuadInt,
                                       canonical_disc, make_field,
                                       _omega_trace_norm)
from hilbert_selberg.specfun import exp1


def test_exp1_matches_mpmath():
    # both sides of the switch from the series to the continued fraction
    x = np.concatenate([np.geomspace(1e-3, 60.0, 2001), [1.0, 1.0 + 1e-12]])
    with mpmath.workdps(30):
        want = np.array([float(mpmath.e1(v)) for v in x])
    assert np.max(np.abs(exp1(x) / want - 1.0)) <= 1e-14


def test_exp1_keeps_the_order_of_its_arguments():
    x = np.array([30.0, 0.5, 2.0, 1.5, 0.01])
    assert exp1(x).tolist() == [exp1(np.array([v]))[0] for v in x]


@pytest.mark.parametrize("D,x", [(5, 40.0), (8, 40.0), (12, 20.0), (13, 12.0)])
def test_formula_matches_every_bfs_count(D, x):
    F = make_field(D)
    window = enumerate_geodesics(F, x)
    for c in window:
        h = lfun.analytic_class_number(c.d, c.record.pell, F)
        assert h.count == c.record.class_number, c.d
        assert h.off <= h.error < 1e-6


# where the form route at height 8 fails: the class numbers the formula
# gives, as computed in mpmath at 30 digits (ROADMAP item 10)
FAILING_FIELDS = [
    (12, (-385, 224), 8), (12, (-384, 226), 32), (13, (-300, 131), 12),
    (13, (-15, 8), 4), (17, (4, 5), 4), (28, (-4, 2), 4), (28, (7, 4), 4),
    (28, (19, 8), 4), (41, (7, 3), 4), (44, (11, 4), 4), (53, (13, 5), 8),
    (77, (19, 5), 6),
]


@pytest.mark.parametrize("D,d,h", FAILING_FIELDS)
def test_formula_on_the_failing_fields(D, d, h):
    F = make_field(D)
    dc = canonical_disc(QuadInt(D, *d), F)
    value = lfun.analytic_class_number(dc, pell_fundamental(dc, F), F)
    assert value.count == h
    assert value.off <= value.error < 1e-6


def test_a_dropped_two_adic_conductor_trips_the_u0_check(monkeypatch):
    # every unit a square mod P^(2e+1): the 2-adic conductor exponent of
    # -4 + 2w over Q(sqrt 7) falls to 0, the functional equation fails,
    # and the sums at u0 = 1 and 1/2 part
    monkeypatch.setattr(lfun, "_square_depths",
                        lambda D, pa, pb, e: np.full((8, 8), 2 * e + 1))
    F = make_field(28)
    d = QuadInt(28, -4, 2)
    with pytest.raises(InvariantViolation, match="depends on u0"):
        lfun.analytic_class_number(d, pell_fundamental(d, F), F)


def test_too_many_terms_exceed_the_budget(capsys, monkeypatch):
    # after the form search, as class_number orders its failures
    monkeypatch.setattr(lfun, "MAX_TERMS", 10)
    F = make_field(5)
    d = QuadInt(5, -7, 5)
    with pytest.raises(BudgetExceededError, match="needs .* terms"):
        lfun.analytic_class_number(d, pell_fundamental(d, F), F)
    searched = []
    form_orbit = pellforms.form_orbit
    monkeypatch.setattr(pellforms, "form_orbit", lambda *args: (
        searched.append(1) or form_orbit(*args)))
    with pytest.raises(BudgetExceededError, match="needs .* terms"):
        class_number(d, F)
    assert searched == [1]
    monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
    assert main(["forms", "--D", "5", "--d=-7+5*w"]) == 2
    assert capsys.readouterr().err.startswith(
        "budget exceeded: class number formula for d=-7+5*w needs ")


@pytest.mark.parametrize("D", sorted(CLASS_NUMBER_ONE))
def test_roots_and_generators(D):
    # the roots of w's polynomial mod p by brute force, and a generator
    # of norm +-p of each prime (p, w - r) of degree one
    t, n = _omega_trace_norm(D)
    eps1 = make_field(D).eps1
    for p in lfun._sieve(256).primes.tolist()[:25]:
        roots = tuple(sorted(lfun._roots(D, p)))
        assert roots == tuple(x for x in range(p)
                              if (x * x - t * x + n) % p == 0)
        for r in roots:
            pi = lfun._generator(D, p, r, eps1)
            assert abs(pi.norm()) == p and (pi.a + pi.b * r) % p == 0
