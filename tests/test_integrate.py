import math

import numpy as np
import pytest

from hilbert_selberg import integrate, traceform
from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.integrate import FIRST_MESH, GK15, quad
from hilbert_selberg.quadfield import make_field


def _on(f, a, b):
    """f's integral over [a, b] as a half-line integral from 0: for
    finite b, by x = a + (b - a) y/(1 + y), which quad's own map turns
    into the linear x = b - (b - a) t on t in (0, 1]."""
    if math.isinf(b):
        return lambda x: f(a + x)
    return lambda y: f(a + (b - a) * y / (1.0 + y)) * (b - a) / (1.0 + y) ** 2


def test_rules_against_gauss_legendre_and_moments():
    nodes, wk, wg = GK15
    gx, gw = np.polynomial.legendre.leggauss(7)
    gauss = wg != 0.0
    assert np.allclose(nodes[gauss], gx, rtol=0, atol=1e-15)
    assert np.allclose(wg[gauss], gw, rtol=0, atol=1e-15)
    # the Kronrod extension of the 7-point Gauss rule is exact to 22
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ nodes ** k - exact) <= 1e-15


def test_finite_real():
    val, err = quad(_on(np.sin, 0.0, math.pi), 0.0, epsabs=1e-13,
                    epsrel=1e-12)
    assert val.shape == () and err.shape == ()
    assert abs(val - 2.0) <= max(err, 1e-15) and err <= 1e-12
    val, err = quad(_on(lambda x: 1.0 / (1.0 + x * x), -3.0, 5.0), 0.0,
                    epsabs=1e-13, epsrel=1e-12, limit=100)
    assert abs(val - (math.atan(5.0) + math.atan(3.0))) <= err


def test_complex_vector_per_component():
    ks = np.array([1.0, 7.0, 30.0])
    scales = np.array([1e6, 1.0, 1e-6])

    def f(x):
        calls.append(x.size)
        return scales[:, None] * np.exp(1j * ks[:, None] * x)

    calls = []
    val, err = quad(_on(f, 0.0, 3.0), 0.0, epsabs=0.0, epsrel=1e-11,
                    limit=200)
    exact = scales * (np.exp(3j * ks) - 1.0) / (1j * ks)
    assert val.shape == (3,) and err.shape == (3,)
    assert val.dtype == complex
    # each component meets its own relative tolerance, however small
    assert np.all(np.abs(val - exact) <= err)
    assert np.all(err <= 1e-11 * np.abs(exact))
    # one call per refinement level, on whole panels of 15 nodes
    assert all(n % 15 == 0 for n in calls)
    assert len(calls) <= 10


def test_per_component_tolerances():
    # a sharp peak with a loose tolerance next to e^-x with a tight one:
    # each component stops at its own tolerance, so the peak is not
    # refined to the tight one
    eps = 1e-3

    def peak(x):
        return eps / (math.pi * (eps * eps + (x - 3.0) ** 2))

    def levels(f, **tols):
        calls = []

        def g(x):
            calls.append(x.size)
            return f(x)

        val, err = quad(g, 0.0, limit=400, **tols)
        return val, err, len(calls)

    exact = [0.5 + math.atan(3.0 / eps) / math.pi, 1.0]
    val, err, both = levels(lambda x: np.stack([peak(x), np.exp(-x)]),
                            epsabs=[1e-4, 0.0], epsrel=[0.0, 1e-13])
    assert np.all(np.abs(val - exact) <= np.maximum(err, 1e-15))
    assert 1e-9 < err[0] <= 1e-4 and err[1] <= 1e-13
    _, _, tight = levels(peak, epsabs=0.0, epsrel=1e-13)
    assert both < tight


def test_semi_infinite_tail():
    val, err = quad(lambda x: np.exp(-x * x), 0.0,
                    epsabs=1e-14, epsrel=1e-12, limit=100)
    assert abs(val - math.sqrt(math.pi) / 2.0) <= max(err, 1e-15)
    val, err = quad(lambda x: 1.0 / (x * x), 1.0,
                    epsabs=1e-14, epsrel=1e-12)
    assert abs(val - 1.0) <= max(err, 1e-15)
    val, err = quad(lambda x: np.stack([np.exp(-x), x * np.exp(-2j * x)]),
                    2.0, epsabs=1e-14, epsrel=1e-12, limit=100)
    exact = [math.exp(-2.0), np.exp(-4j) * (2.0 / 2j + 1.0 / (2j) ** 2)]
    assert np.all(np.abs(val - exact) <= np.maximum(err, 1e-15))


@pytest.mark.parametrize("f, a, b, exact", [
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0,
     (math.atan(70.0) + math.atan(30.0)) / 1e-2),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
])
def test_exhausted_limit_still_bounds_error(f, a, b, exact):
    nodes = []
    g = _on(f, a, b)

    def counted(x):
        nodes.append(x.size)
        return g(x)

    val, err = quad(counted, 0.0, epsabs=1e-14, epsrel=1e-14, limit=5)
    assert err > 1e-14 * abs(exact)  # the budget ran out first
    assert abs(val - exact) <= err
    assert sum(nodes) <= (2 * 5 - 1) * 15


def test_interval_validation():
    for a in (-np.inf, np.inf, np.nan):
        with pytest.raises(ValueError):
            quad(np.exp, a)


@pytest.mark.parametrize("limit", [1, 3, FIRST_MESH, 40])
@pytest.mark.parametrize("b", [2.0, np.inf])
def test_first_mesh_is_uniform_and_within_limit(limit, b):
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (1e-3 + (x - 0.7) ** 2)

    quad(_on(f, 0.0, b), 0.0, epsabs=1e-14, epsrel=1e-14, limit=limit)
    panels = min(FIRST_MESH, limit)
    assert calls[0].size == panels * 15
    # uniform in t, which is x = (1 - t)/t on the half-line and the
    # linear x = b (1 - t) on [0, b]
    mids = calls[0].reshape(panels, 15)[:, 7]
    t = 1.0 / (1.0 + mids) if math.isinf(b) else 1.0 - mids / b
    assert np.allclose(t, (np.arange(panels) + 0.5) / panels)
    # every later level bisects panels, and never beyond the budget
    assert sum(x.size for x in calls) <= (2 * limit - panels) * 15


def test_saturated_panel_of_first_mesh_is_refined():
    # a narrow bump inside the t-panel [5/8, 6/8], zero elsewhere, that
    # the 8-panel mesh under-resolves: the tolerance is met at once, and
    # only the saturation test refines that one panel
    calls = []

    def f(x):
        calls.append(x)
        t = 1.0 / (1.0 + x)
        return np.maximum(0.0, 1.0 - ((t - 0.67) / 0.006) ** 2) ** 2

    quad(f, 0.0, epsabs=1.0, epsrel=0.0)
    assert len(calls) >= 2
    assert calls[1].size == 2 * 15
    t = 1.0 / (1.0 + calls[1])
    assert np.all((t > 5.0 / 8.0) & (t < 6.0 / 8.0))


# the geometric sides' test functions in the benchmark's analytic pool
GAUSSIANS = [traceform.gaussian_testfunction(b)
             for b in (0.025, 0.03, 0.035, 0.05, 0.07, 0.08, 0.1, 0.12, 0.15,
                       0.2)]
RATIONALS = [traceform.rational_testfunction(*r)
             for r in ((1.6, 2.5, 3.5), (2.0, 2.0, 3.0), (2.5, 3.0, 4.5),
                       (2.9 + 1j, 2.5, 4.0))]


def test_geometric_side_integrands_finish_in_few_levels(monkeypatch):
    F = make_field(5)
    classes = enumerate_geodesics(F, 10.0)
    plain = integrate.quad
    levels = []

    def counted(f, *args, **kwargs):
        n = [0]

        def g(x):
            n[0] += 1
            return f(x)

        out = plain(g, *args, **kwargs)
        levels.append(n[0])
        return out

    monkeypatch.setattr(integrate, "quad", counted)
    for tf in RATIONALS:
        levels.clear()
        traceform.geom_side_double_difference(2, tf, F, classes)
        # identity, elliptic and HE-tail integrals share one mesh; as
        # three quadratures they took up to 4, 5 and 2 levels
        assert len(levels) == 1 and levels[0] <= 4, (tf.metadata, levels)
    # heat pairs and heat grids take no quadrature at all
    levels.clear()
    for tf in GAUSSIANS:
        traceform.geom_side_double_difference(2, tf, F, classes)
    traceform.heat_asymptotic_check(
        F, (0.15, 0.1, 0.07, 0.05, 0.035), classes)
    assert levels == []
