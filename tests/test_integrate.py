import math

import numpy as np
import pytest

from hilbert_selberg.integrate import GK15, GK21, quad


@pytest.mark.parametrize("rule, n", [(GK21, 10), (GK15, 7)])
def test_rules_against_gauss_legendre_and_moments(rule, n):
    nodes, wk, wg = rule
    gx, gw = np.polynomial.legendre.leggauss(n)
    gauss = wg != 0.0
    assert np.allclose(nodes[gauss], gx, rtol=0, atol=1e-15)
    assert np.allclose(wg[gauss], gw, rtol=0, atol=1e-15)
    # the Kronrod extension of the n-point Gauss rule is exact to 3n + 1
    for k in range(3 * n + 2):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ nodes ** k - exact) <= 1e-15


def test_finite_real():
    val, err = quad(np.sin, 0.0, math.pi, epsabs=1e-13, epsrel=1e-12)
    assert val.shape == () and err.shape == ()
    assert abs(val - 2.0) <= max(err, 1e-15) and err <= 1e-12
    val, err = quad(lambda x: 1.0 / (1.0 + x * x), -3.0, 5.0,
                    epsabs=1e-13, epsrel=1e-12, limit=100)
    assert abs(val - (math.atan(5.0) + math.atan(3.0))) <= err


def test_complex_vector_per_component():
    ks = np.array([1.0, 7.0, 30.0])
    scales = np.array([1e6, 1.0, 1e-6])

    def f(x):
        calls.append(x.size)
        return scales[:, None] * np.exp(1j * ks[:, None] * x)

    calls = []
    val, err = quad(f, 0.0, 3.0, epsabs=0.0, epsrel=1e-11, limit=200)
    exact = scales * (np.exp(3j * ks) - 1.0) / (1j * ks)
    assert val.shape == (3,) and err.shape == (3,)
    assert val.dtype == complex
    # each component meets its own relative tolerance, however small
    assert np.all(np.abs(val - exact) <= err)
    assert np.all(err <= 1e-11 * np.abs(exact))
    # one call per refinement level, on whole panels of 21 nodes
    assert all(n % 21 == 0 for n in calls)
    assert len(calls) <= 10


def test_semi_infinite_tail():
    val, err = quad(lambda x: np.exp(-x * x), 0.0, np.inf,
                    epsabs=1e-14, epsrel=1e-12, limit=100)
    assert abs(val - math.sqrt(math.pi) / 2.0) <= max(err, 1e-15)
    val, err = quad(lambda x: 1.0 / (x * x), 1.0, np.inf,
                    epsabs=1e-14, epsrel=1e-12)
    assert abs(val - 1.0) <= max(err, 1e-15)
    val, err = quad(lambda x: np.stack([np.exp(-x), x * np.exp(-2j * x)]),
                    2.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=100)
    exact = [math.exp(-2.0), np.exp(-4j) * (2.0 / 2j + 1.0 / (2j) ** 2)]
    assert np.all(np.abs(val - exact) <= np.maximum(err, 1e-15))


@pytest.mark.parametrize("f, a, b, exact", [
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0,
     (math.atan(70.0) + math.atan(30.0)) / 1e-2),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
])
def test_exhausted_limit_still_bounds_error(f, a, b, exact):
    nodes = []

    def g(x):
        nodes.append(x.size)
        return f(x)

    val, err = quad(g, a, b, epsabs=1e-14, epsrel=1e-14, limit=5)
    assert err > 1e-14 * abs(exact)  # the budget ran out first
    assert abs(val - exact) <= err
    assert sum(nodes) <= (2 * 5 - 1) * 21


def test_interval_validation():
    for a, b in ((1.0, 1.0), (2.0, 1.0), (-np.inf, 0.0), (0.0, -np.inf)):
        with pytest.raises(ValueError):
            quad(np.exp, a, b)
