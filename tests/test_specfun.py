import contextlib
import math
import signal

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from hilbert_selberg.errors import ValidationError
from hilbert_selberg.specfun import digamma, li

from oracles import li_gauss_legendre


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

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_li_refuses_non_finite(self, x):
        # a NaN once kept the Ei series summing forever
        with _deadline(5.0), pytest.raises(ValidationError, match="finite"):
            li(x)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
