import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hilbert_selberg.errors import ValidationError
from hilbert_selberg.quadfield import (
    CLASS_NUMBER_ONE, QuadInt, canonical_disc, chi_D, exact_sqrt,
    format_quadint, fundamental_unit, is_fundamental_discriminant,
    kronecker, lattice_points, make_field, parse_quadint, sigma1,
    zeta_minus_one, bernoulli_L_minus_one, _omega_trace_norm,
)
from hilbert_selberg.modgroup import _sign_rows

from oracles import kronecker_ref, L_minus_one_ref, zeta_K_minus_one_ref


# frozen from the generalized Bernoulli route (independent oracle)
ZETA_MINUS_ONE = {
    5: Fraction(1, 30), 8: Fraction(1, 12), 12: Fraction(1, 6),
    13: Fraction(1, 6), 17: Fraction(1, 3), 21: Fraction(1, 3),
    24: Fraction(1, 2), 28: Fraction(2, 3), 44: Fraction(7, 6),
    97: Fraction(17, 3),
}

# frozen minimal totally positive-norm units, coordinates over (1, omega)
FUNDAMENTAL_UNITS = {
    5: (0, 1), 8: (1, 1), 12: (2, 1), 13: (1, 1), 17: (3, 2),
    21: (2, 1), 24: (5, 2), 28: (8, 3), 44: (10, 3), 97: (5035, 1138),
}


def coords(D):
    return st.builds(QuadInt, st.just(D),
                     st.integers(-50, 50), st.integers(-50, 50))


class TestQuadIntRing:
    @given(x=coords(5), y=coords(5), z=coords(5))
    @settings(max_examples=150)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x + (y + z) == (x + y) + z

    @given(x=coords(13), y=coords(13))
    @settings(max_examples=150)
    def test_norm_trace_conj(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x + y).trace() == x.trace() + y.trace()
        assert (x * y).conj() == x.conj() * y.conj()
        assert x * x.conj() == QuadInt(13, x.norm(), 0)

    @given(x=coords(8))
    @settings(max_examples=100)
    def test_embeddings_match_invariants(self, x):
        e1, e2 = x.embed(1), x.embed(2)
        assert e1 + e2 == pytest.approx(float(x.trace()), abs=1e-9)
        assert e1 * e2 == pytest.approx(float(x.norm()), rel=1e-9, abs=1e-9)

    def test_exact_sign_on_near_zero_values(self):
        # Fibonacci convergents make a + b*omega nearly vanish at slot 1
        fib = [1, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        for k in range(10, 38):
            x = QuadInt(5, fib[k], -fib[k - 1])
            import mpmath as mp
            with mp.workdps(60):
                ref = mp.sign(fib[k] - fib[k - 1] * (1 + mp.sqrt(5)) / 2)
            assert x.sign_embed(1) == int(ref)

    def test_powers_and_unit_inverse(self):
        F = make_field(8)
        eps = F.eps
        assert eps ** 3 == eps * eps * eps
        assert (eps ** -2) * eps ** 2 == F.one
        with pytest.raises(ValidationError):
            QuadInt(8, 2, 0).inverse_unit()


class TestFormatting:
    def test_round_trip(self):
        for text in ("0", "1", "-1", "w", "-w", "1+8*w", "3-2*w", "-5+w"):
            x = parse_quadint(text, 5)
            assert parse_quadint(format_quadint(x), 5) == x

    def test_explicit_format(self):
        assert format_quadint(QuadInt(5, 0, 1)) == "w"

    def test_rejects_garbage(self):
        for bad in ("", "1+", "w*w", "2.5", "1 + 2w"):
            with pytest.raises(ValidationError):
                parse_quadint(bad, 5)


class TestFieldConstants:
    def test_discriminant_whitelist(self):
        assert 5 in CLASS_NUMBER_ONE and 97 in CLASS_NUMBER_ONE
        assert 40 not in CLASS_NUMBER_ONE  # class number 2
        for D in CLASS_NUMBER_ONE:
            assert is_fundamental_discriminant(D)

    def test_zeta_minus_one_frozen(self):
        for D, val in ZETA_MINUS_ONE.items():
            assert zeta_minus_one(D) == val

    def test_zeta_minus_one_dual_route(self):
        # lattice-sum route against the Bernoulli route, all fields
        for D in sorted(CLASS_NUMBER_ONE):
            lhs = zeta_minus_one(D)
            rhs = Fraction(-1, 12) * bernoulli_L_minus_one(D)
            assert lhs == rhs, D

    def test_L_minus_one_against_oracle(self):
        for D in (5, 8, 12, 17, 29, 41):
            assert bernoulli_L_minus_one(D) == L_minus_one_ref(D)
            assert zeta_minus_one(D) == zeta_K_minus_one_ref(D)

    def test_kronecker_against_oracle(self):
        for D in (5, 8, 12, 13):
            chi = chi_D(D)
            for a in range(1, 60):
                assert kronecker(D, a) == kronecker_ref(D, a)
                assert chi(a) == kronecker_ref(D, a)

    def test_chi_vanishes_on_common_factors(self):
        assert chi_D(5)(10) == 0
        assert chi_D(12)(6) == 0

    def test_sigma1(self):
        assert sigma1(1) == 1
        assert sigma1(6) == 12
        assert sigma1(12) == 28


class TestUnits:
    def test_frozen_units(self):
        for D, (a, b) in FUNDAMENTAL_UNITS.items():
            assert fundamental_unit(D) == QuadInt(D, a, b)

    def test_unit_properties(self):
        for D in sorted(CLASS_NUMBER_ONE):
            eps = fundamental_unit(D)
            assert abs(eps.norm()) == 1
            assert eps.embed(1) > 1.0

    def test_minimality_by_scan(self):
        # any unit strictly between 1 and eps at slot 1 would show up as
        # a solution of y^2 D = x^2 -+ 4 with smaller height
        for D in (5, 8, 12, 13, 17):
            eps = fundamental_unit(D)
            e1 = eps.embed(1)
            found = []
            for b in range(1, 2000):
                for shift in (-4, 4):
                    x2 = b * b * D + shift
                    if x2 <= 0:
                        continue
                    a = math.isqrt(x2)
                    if a * a == x2:
                        found.append((a + b * math.sqrt(D)) / 2.0)
            assert found and min(found) == pytest.approx(e1, rel=1e-12)


class TestFieldCtx:
    def test_make_field_rejects_bad_discriminants(self):
        with pytest.raises(ValidationError):
            make_field(6)
        with pytest.raises(ValidationError):
            make_field(16)
        with pytest.raises(ValidationError):
            make_field(40)

    def test_regulator(self):
        F = make_field(12)
        assert F.regulator == pytest.approx(math.log(2.0 + math.sqrt(3.0)))

    def test_census_and_euler_characteristic(self):
        expected = {
            5: (2, 2, 3, 3, 5, 5),
            8: (2, 2, 3, 3, 4, 4),
            12: (2, 2, 2, 3, 3, 6),
        }
        for D, orders in expected.items():
            F = make_field(D)
            got = tuple(sorted(nu for nu, _ in F.census_classes()))
            assert got == orders
            assert F.euler_char == 4

    def test_census_unavailable_elsewhere(self):
        F = make_field(13)
        assert F.elliptic_census is None
        assert F.euler_char is None

    def test_field_json(self):
        F = make_field(5)
        blob = F.to_json()
        assert blob["D"] == 5
        assert blob["zeta_minus_one"] == "1/30"
        assert blob["eps"] == [0, 1]


class TestCanonicalization:
    def test_canonical_disc_stable_under_square_units(self):
        F = make_field(12)
        eps2 = F.eps * F.eps
        d = QuadInt(12, 13, 4)
        base = canonical_disc(d, F)
        assert canonical_disc(d * eps2, F) == base
        assert canonical_disc(d * eps2 * eps2, F) == base

    def test_lattice_points_box(self):
        pts = list(lattice_points(5, 3.0, 3.0))
        assert len(pts) == len(set((p.a, p.b) for p in pts))
        for p in pts:
            assert abs(p.embed(1)) <= 3.0 + 1e-9
            assert abs(p.embed(2)) <= 3.0 + 1e-9
        assert QuadInt(5, 1, 1) in pts


class TestExactSqrt:
    @pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 33, 57, 76])
    def test_squares_round_trip(self, D):
        for a in range(-12, 13):
            for b in range(-12, 13):
                r = QuadInt(D, a, b)
                if r.is_zero():
                    continue
                root = exact_sqrt(r * r)
                assert root == (r if r.sign_embed(1) > 0 else -r)
                assert root.sign_embed(1) > 0

    @pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 33, 57, 76])
    def test_refuses_non_squares_and_non_positive(self, D):
        # a square's norm is a square; sqrt(D) has mixed signs
        t, _ = _omega_trace_norm(D)
        eps = fundamental_unit(D)
        ys = [QuadInt(D, a, b) * QuadInt(D, a, b) + k
              for a in range(-3, 4) for b in range(-3, 4) for k in (1, 2, 3)]
        refused = [y for y in ys if math.isqrt(y.norm()) ** 2 != y.norm()]
        assert len(refused) >= 50
        refused += [QuadInt(D, 0, 0), QuadInt(D, -4, 0), -(eps * eps),
                    QuadInt(D, -t, 2)]
        for y in refused:
            with pytest.raises(ValidationError, match="not a square"):
                exact_sqrt(y)

    def test_root_rounded_to_its_negative(self):
        # on D = 17 the + sign of the second embedding rounds to 2 - w,
        # the negated root; -2 + w is the Pell u0 of d = 20 + 13w, t0 = 2 + w
        root = exact_sqrt(QuadInt(17, 8, -3))
        assert root == QuadInt(17, -2, 1)
        t0, d = QuadInt(17, 2, 1), QuadInt(17, 20, 13)
        assert t0 * t0 - d * (root * root) == QuadInt(17, 4, 0)


class TestCanonicalDiscProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([5, 8, 12, 13]), st.integers(-60, 60),
           st.integers(-60, 60), st.integers(-3, 3))
    def test_idempotent_and_square_unit_invariant(self, D, a, b, k):
        d = QuadInt(D, a, b)
        if d.is_zero() or d.sign_embed(1) <= 0:
            return
        F = make_field(D)
        base = canonical_disc(d, F)
        assert canonical_disc(base, F) == base
        assert canonical_disc(d * (F.eps * F.eps) ** k, F) == base


@functools.lru_cache(maxsize=None)
def _near_zero(D):
    """(tiny, fits): elements of O_K whose first embedding is below 1e-9,
    and the ten deepest whose (A, b) = (2a + t*b, b) are inside
    _sign_rows' int64 precondition.  Drawn from p - q*sqrt(D) for the
    continued-fraction convergents p/q of sqrt(D) and from the conjugates
    of the powers of the fundamental unit, up to coordinates 10^24."""
    t, _ = _omega_trace_norm(D)
    r = math.isqrt(D)
    cands = []
    m, d, a = 0, 1, r
    p, p_prev, q, q_prev = r, 1, 1, 0
    while q < 10 ** 24:
        cands.append(QuadInt(D, p + q * t, -2 * q))  # p - q*sqrt(D)
        m = d * a - m
        d = (D - m * m) // d
        a = (r + m) // d
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
    eps, u = fundamental_unit(D), QuadInt(D, 1, 0)
    while abs(u.a) < 10 ** 24:
        u = u * eps
        cands.append(u.conj())
    tiny = [x for x in cands if abs(_embed_mp(x, 1)) < 1e-9]
    fits = [x for x in cands if (2 * x.a + t * x.b) ** 2 < 2 ** 63
            and x.b * x.b * D < 2 ** 63]
    fits.sort(key=lambda x: abs(x.a))
    return tiny, fits[-10:]


def _embed_mp(x, j):
    t, _ = _omega_trace_norm(x.D)
    with mp.workdps(60):
        s = mp.sqrt(x.D) if j == 1 else -mp.sqrt(x.D)
        return x.a + x.b * (t + s) / 2


@pytest.mark.parametrize("D", sorted(CLASS_NUMBER_ONE))
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6),
                          st.sampled_from([1, 2]), st.sampled_from([1, -1])),
                min_size=1, max_size=6),
       st.integers(-50, 50), st.integers(-50, 50))
def test_exact_signs_near_the_boundary(D, picks, za, zb):
    # exact embedding signs against mpmath at 60 digits, at both slots,
    # on elements whose embedding at `slot` nearly vanishes
    t, _ = _omega_trace_norm(D)
    tiny, fits = _near_zero(D)
    z = QuadInt(D, za, zb)
    rows = []
    for deep, k, slot, sign in picks:
        pool = fits if deep else tiny
        x = sign * pool[k % len(pool)]
        x = x if slot == 1 else x.conj()
        for j in (1, 2):
            ref = int(mp.sign(_embed_mp(x, j)))
            assert x.sign_embed(j) == ref
            assert (x + z).compare_embed(z, j) == ref
            assert (x + za).compare_embed(za, j) == ref
            if deep:
                rows.append((2 * x.a + t * x.b, x.b if j == 1 else -x.b, ref))
    if rows:
        A, b, ref = np.array(rows, dtype=np.int64).T
        assert (_sign_rows(A, b, D) == ref).all()
