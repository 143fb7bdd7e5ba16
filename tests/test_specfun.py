import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from hilbert_selberg.errors import ValidationError
from hilbert_selberg.quadfield import make_field
from hilbert_selberg.specfun import (
    ZETA_PRIME_MINUS_ONE, digamma, gamma2, li, log_barnes_g, loggamma,
    loggamma2, xi_ratio, zeta_eps,
)

from oracles import li_gauss_legendre


def test_zeta_prime_minus_one_constant():
    with mp.workdps(40):
        ref = float(mp.zeta(-1, derivative=1))
    assert ZETA_PRIME_MINUS_ONE == pytest.approx(ref, abs=1e-16)


class TestBarnesDoubleGamma:
    def test_against_mpmath(self):
        pts = [0.3, 1.7, 4.2, 0.5 + 2.1j, -0.7 + 0.4j, 3.0 - 5.0j, 12.5,
               0.1 - 0.1j]
        for z in pts:
            ref = complex(mp.barnesg(mp.mpc(z)))
            got = cmath.exp(log_barnes_g(complex(z)))
            assert got == pytest.approx(ref, rel=5e-12)

    def test_gamma2_at_one(self):
        assert gamma2(1.0 + 0j) == pytest.approx(1.0, rel=1e-12)

    def test_ladder(self):
        # Gamma_2(s+1)/Gamma_2(s) = sqrt(2 pi)/Gamma(s)
        for s in (0.4, 1.3 + 0.8j, 2.6 - 1.1j, 5.5):
            lhs = gamma2(s + 1) / gamma2(s)
            with mp.workdps(30):
                rhs = complex(mp.sqrt(2 * mp.pi) / mp.gamma(mp.mpc(s)))
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_pole_guard(self):
        with pytest.raises(ValidationError):
            log_barnes_g(0.0 + 0j)
        with pytest.raises(ValidationError):
            log_barnes_g(-3.0 + 0j)

    def test_xi_ratio_closed_form(self):
        # exp(L(s+2) + L(2-s) - L(s) - L(-s)) == -4 sin^2(pi s),
        # L = log Gamma_2 shifted; the combination is branch-stable
        rng = np.random.default_rng(7)
        for _ in range(12):
            s = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.5, 0.5))
            want = -4.0 * cmath.sin(cmath.pi * s) ** 2
            assert xi_ratio(s) == pytest.approx(want, rel=5e-12)

    def test_loggamma2_matches_gamma2(self):
        z = 1.3 + 0.4j
        assert cmath.exp(loggamma2(z)) == pytest.approx(gamma2(z), rel=1e-12)


def _oracle_points():
    """Random points of Re z in [-30, 30], |Im z| <= 50, plus points on
    both sides of the negative real axis down to |Im z| = 1e-12."""
    rng = np.random.default_rng(20261018)
    pts = [complex(rng.uniform(-30.0, 30.0), rng.uniform(-50.0, 50.0))
           for _ in range(200)]
    for re in (-29.5, -7.25, -2.5, -0.3, 0.4, 3.7):
        for im in (1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            pts += [complex(re, im), complex(re, -im)]
    return pts


def _close(got: complex, ref: complex) -> bool:
    return abs(got - ref) <= 2e-14 * (1.0 + abs(ref))


class TestLoggamma:
    def test_against_scipy_and_mpmath(self):
        for z in _oracle_points():
            got = loggamma(z)
            assert _close(got, complex(sp.loggamma(z))), z
            with mp.workdps(30):
                assert _close(got, complex(mp.loggamma(mp.mpc(z)))), z

    def test_branch_follows_the_recurrence(self):
        # the branch is continuous off the negative real axis and
        # log Gamma(z + 1) = log Gamma(z) + log z holds across it
        for z in (-3.5 + 1e-12j, -3.5 - 1e-12j, -0.5 + 2.0j, 4.0 - 3.0j):
            assert loggamma(z + 1) == pytest.approx(
                loggamma(z) + cmath.log(z), abs=1e-13)
        assert loggamma(-2.5 + 1e-12j).imag == pytest.approx(-3 * math.pi)
        assert loggamma(-2.5 - 1e-12j).imag == pytest.approx(3 * math.pi)

    def test_pole_guard(self):
        for z in (0.0, -1.0, -4.0, -17.0 + 1e-13j):
            with pytest.raises(ValidationError, match="pole"):
                loggamma(complex(z))


class TestDigamma:
    def test_against_mpmath(self):
        for z in (0.3, 2.0 + 1.0j, -1.5 + 0.2j, 17.0):
            assert digamma(complex(z)) == pytest.approx(
                complex(mp.digamma(mp.mpc(z))), rel=1e-12)

    def test_against_scipy_and_mpmath(self):
        for z in _oracle_points():
            got = digamma(z)
            assert _close(got, complex(sp.digamma(z))), z
            with mp.workdps(30):
                assert _close(got, complex(mp.digamma(mp.mpc(z)))), z

    def test_pole_guard(self):
        for z in (-2.0, 0.0, -11.0 - 1e-11j):
            with pytest.raises(ValidationError, match="digamma pole"):
                digamma(complex(z))


class TestLi:
    def test_li_values(self):
        assert li(2.0) == 0.0
        assert li(10.0) == pytest.approx(li_gauss_legendre(10.0), rel=1e-12)
        assert li(1000.0) == pytest.approx(li_gauss_legendre(1000.0),
                                           rel=1e-12)

    def test_against_oracles(self):
        rng = np.random.default_rng(5)
        xs = [1.0001, 1.5, 2.0001, 3.0, 1e4]
        xs += list(np.exp(rng.uniform(1e-4, math.log(1e4), 40)))
        for x in xs:
            with mp.workdps(30):
                ref = float(mp.li(x) - mp.li(2))
            assert abs(li(x) - ref) <= 1e-14 * (1.0 + abs(ref)), x
        for x in (3.0, 1e3, 1e4):
            assert li(x) == pytest.approx(li_gauss_legendre(x), rel=1e-12)

    def test_li_domain(self):
        for x in (1.0, 0.5):
            with pytest.raises(ValidationError, match="x > 1"):
                li(x)


class TestZetaEps:
    def test_geometric_series_identity(self):
        F = make_field(5, with_census=False)
        s = 1.3 + 0.7j
        eps1 = F.eps.embed(1)
        direct = sum(eps1 ** (-2 * s * k) for k in range(200))
        assert zeta_eps(s, F) == pytest.approx(direct, rel=1e-12)

    def test_pole_guard_names_lattice(self):
        # poles of (1 - eps^{-2s})^{-1} sit at s = i pi k / (2 log eps) * 2
        F = make_field(5, with_census=False)
        with pytest.raises(ValidationError):
            zeta_eps(complex(0.0, math.pi / F.regulator), F)
        with pytest.raises(ValidationError):
            zeta_eps(0j, F)
