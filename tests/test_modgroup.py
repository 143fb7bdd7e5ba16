import math

import pytest

from hilbert_selberg.errors import (BudgetExceededError, InvariantViolation,
                                    ValidationError)
from hilbert_selberg.modgroup import (
    GroupElem, classify, conjugation_orbit, elliptic_census,
    enumerate_elliptic, height_predicate, _conj_neighbors,
    _normalize_key,
)
from hilbert_selberg.pellforms import enumerate_forms, form_orbit, _form_neighbors
from hilbert_selberg.quadfield import QuadInt, make_field, _omega_trace_norm


def elem(D, rows):
    (aa, ab), (ba, bb), (ca, cb), (da, db) = rows
    return GroupElem.make(QuadInt(D, aa, ab), QuadInt(D, ba, bb),
                          QuadInt(D, ca, cb), QuadInt(D, da, db))


# frozen census tables: orders nu with slot-2 rotation parameter t (mod nu)
CENSUS = {
    5: [(2, 1), (2, 1), (3, 1), (3, 2), (5, 2), (5, 3)],
    8: [(2, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3)],
    12: [(2, 1), (2, 1), (2, 1), (3, 1), (3, 1), (6, 5)],
}


class TestGroupElem:
    def test_det_validation(self):
        with pytest.raises(ValidationError):
            elem(5, ((1, 0), (0, 0), (0, 0), (2, 0)))

    def test_psl_sign_normalization(self):
        g = elem(5, ((-1, 0), (0, 0), (0, 0), (-1, 0)))
        assert g.is_identity_psl()

    def test_group_ops(self):
        g = elem(8, ((1, 0), (1, 0), (0, 0), (1, 0)))  # translation by 1
        h = elem(8, ((0, 0), (-1, 0), (1, 0), (0, 0)))  # inversion
        k = g * h
        assert (k.inverse() * k).is_identity_psl()
        assert (g ** 3).b == QuadInt(8, 3, 0)
        assert (g ** -2) * (g ** 2) * g == g

    def test_psl_order(self):
        s = elem(5, ((0, 0), (-1, 0), (1, 0), (0, 0)))
        assert s.psl_order() == 2
        t = elem(5, ((1, 0), (1, 0), (0, 0), (1, 0)))
        assert t.psl_order() is None


class TestClassify:
    def test_kinds(self):
        assert classify(elem(5, ((1, 0), (0, 0), (0, 0), (1, 0)))).kind \
            == "identity"
        assert classify(elem(5, ((1, 0), (1, 0), (0, 0), (1, 0)))).kind \
            == "parabolic"
        assert classify(elem(5, ((0, 0), (-1, 0), (1, 0), (0, 0)))).kind \
            == "elliptic"
        assert classify(elem(5, ((2, 0), (1, 0), (1, 0), (1, 0)))).kind \
            == "hyperbolic"

    def test_mixed_kinds(self):
        F = make_field(5, with_census=False)
        # companion matrix of trace 1 + omega: embeddings ~ 2.618, 0.382
        g = elem(5, ((1, 1), (-1, 0), (1, 0), (0, 0)))
        c = classify(g)
        assert c.kind == "hyperbolic-elliptic"
        t1 = 1 + F.omega.embed(1)
        assert c.norm == pytest.approx(
            ((t1 + math.sqrt(t1 * t1 - 4)) / 2) ** 2)
        # trace 3 - 2*omega: embeddings ~ -0.236, 4.236
        g2 = elem(5, ((3, -2), (-1, 0), (1, 0), (0, 0)))
        assert classify(g2).kind == "elliptic-hyperbolic"

    def test_elliptic_angles(self):
        g = elem(5, ((0, 0), (-1, 0), (1, 0), (1, 0)))  # trace 1, order 3
        c = classify(g)
        # angles are reported for the sign-normalized matrix, so each slot
        # carries theta or pi - theta
        for th in c.theta:
            assert min(th, math.pi - th) == pytest.approx(math.pi / 3)


class TestConjugacy:
    def test_direct_conjugates_are_reached(self):
        D = 8
        g = elem(D, ((0, 0), (-1, 0), (1, 0), (0, 0)))
        u = elem(D, ((1, 0), (2, 1), (0, 0), (1, 0)))
        h = u * g * u.inverse()
        _, hit = conjugation_orbit(g.key(), D, 30.0, 30.0,
                                   targets={h.key()})
        assert hit

    def test_orbit_is_conjugation_closed(self):
        D = 5
        g = elem(D, ((0, 0), (-1, 0), (1, 0), (1, 0)))
        orbit, _ = conjugation_orbit(g.key(), D, 12.0, 12.0)
        t, _ = _omega_trace_norm(D)
        assert _normalize_key(g.key(), D, t) in orbit
        # every member has the same PSL trace and classification
        for key in list(orbit)[:50]:
            h = GroupElem.from_key(key, D)
            assert classify(h).kind == "elliptic"
            tr = h.trace()
            assert tr == g.trace() or tr == -g.trace()


def _orbit_case(kind):
    """(seed, orbit(seed, cap, max_states), neighbor map) over Q(sqrt 5)."""
    D = 5
    if kind == "conjugation":
        g = elem(D, ((0, 0), (-1, 0), (1, 0), (1, 0)))
        seed = _normalize_key(g.key(), D, _omega_trace_norm(D)[0])
        return (seed,
                lambda cap, ms: conjugation_orbit(seed, D, cap, cap,
                                                  max_states=ms)[0],
                _conj_neighbors)
    seed = min(f.key() for f in enumerate_forms(QuadInt(D, -7, 5),
                                                make_field(D)))
    return (seed,
            lambda cap, ms: form_orbit(seed, D, cap, cap, max_states=ms),
            _form_neighbors)


@pytest.mark.parametrize("kind", ["conjugation", "form"])
class TestOrbitEngine:
    CAP = 12.0

    def test_closed_under_neighbors_within_caps(self, kind):
        D = 5
        t, n = _omega_trace_norm(D)
        seed, orbit_of, neighbors = _orbit_case(kind)
        orbit = orbit_of(self.CAP, 400000)
        assert seed in orbit and len(orbit) > 1
        inside = height_predicate(D, self.CAP, self.CAP)
        for key in orbit:
            assert inside(key)
            for nb in neighbors(key, D, t, n):
                assert nb in orbit or not inside(nb)

    def test_budget_trips_at_the_state_count(self, kind):
        seed, orbit_of, _ = _orbit_case(kind)
        full = orbit_of(self.CAP, 400000)
        assert orbit_of(self.CAP, len(full)) == full
        with pytest.raises(BudgetExceededError,
                           match=f"{kind} orbit exceeded {len(full) - 1} "):
            orbit_of(self.CAP, len(full) - 1)
        with pytest.raises(BudgetExceededError):
            orbit_of(self.CAP, 3)


class TestCensus:
    @pytest.mark.parametrize("D", [5, 8, 12])
    def test_certified_tables(self, D):
        F = make_field(D, with_census=False)
        classes = enumerate_elliptic(F, height_bound=6.0)
        assert [(c.nu, c.t) for c in classes] == CENSUS[D]

    @pytest.mark.parametrize("D", [5, 8, 12])
    def test_stability_under_larger_bound(self, D):
        F = make_field(D, with_census=False)
        a = [(c.nu, c.t) for c in enumerate_elliptic(F, height_bound=6.0)]
        b = [(c.nu, c.t) for c in enumerate_elliptic(F, height_bound=9.0)]
        assert a == b

    def test_reps_have_advertised_invariants(self):
        F = make_field(8, with_census=False)
        for c in enumerate_elliptic(F, height_bound=6.0):
            assert c.rep.psl_order() == c.nu
            assert math.gcd(c.t, c.nu) == 1 and 0 < c.t < c.nu
            got = classify(c.rep)
            assert got.kind == "elliptic"
            assert min(got.theta[0], math.pi - got.theta[0]) == pytest.approx(
                math.pi / c.nu, abs=1e-9)

    def test_powers_are_not_primitive(self):
        # the square of an order-4 class lands on an order-2 point with
        # isotropy 4; it must not enlarge the census
        F = make_field(8, with_census=False)
        classes = enumerate_elliptic(F, height_bound=6.0)
        four = [c for c in classes if c.nu == 4]
        twos = [c for c in classes if c.nu == 2]
        assert len(four) == 2 and len(twos) == 2
        for q in four:
            sq = q.rep * q.rep
            assert sq.psl_order() == 2
            _, hit = conjugation_orbit(sq.key(), 8, 25.0, 25.0,
                                       targets={c.rep.key() for c in twos})
            assert not hit

    def test_census_memoized_and_certified(self):
        F = make_field(12)
        assert F.euler_char == 4
        orders = sorted(nu for nu, _ in F.census_classes())
        assert orders == [2, 2, 2, 3, 3, 6]
