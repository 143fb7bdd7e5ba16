"""Euler products, exponent tables, ledger orders, and factor identities.

Frozen integer tables below were recomputed independently with plain
modular arithmetic over the certified class census before being pinned
here; the leading coefficients come from the closed form evaluated at
30 digits.
"""

import dataclasses
import math
import pickle
import random
import time

import numpy as np
import pytest

from hilbert_selberg import cache
from hilbert_selberg.cache import get_or_compute
from hilbert_selberg.errors import ValidationError
from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.quadfield import make_field
from hilbert_selberg.records import GeodesicWindow
from hilbert_selberg.zetafun import (ZetaParams, alpha_table,
                                     divisor_ledger,
                                     residue_point_order, ruelle,
                                     _norm_tail,
                                     ruelle_leading, selberg_log_deriv,
                                     selberg_zeta)
from oracles import (class_log_deriv_mp, ruelle_ref, selberg_log_deriv_ref,
                     selberg_zeta_ref, selberg_zeta_uniform_ref)

# residue-point orders at s = -k, k = 0..7
RESIDUE_ORDERS = {
    (5, 2): [4, 0, 0, 0, 0, 0, 4, 0],
    (5, 4): [-2, 0, 0, 2, 0, 2, -2, 2],
    (5, 6): [0, 0, 2, -2, 2, 0, 2, 0],
    (8, 2): [4, 0, 0, 0, 4, 0, 4, 0],
    (8, 4): [-2, 2, 0, 2, 0, 4, 0, 4],
    (8, 6): [0, -2, 4, 0, 2, 0, 4, 2],
    (12, 2): [4, 0, 2, 2, 4, 0, 8, 4],
    (12, 4): [-2, 3, 1, 3, 1, 6, 2, 7],
    (12, 6): [1, -1, 4, 0, 5, 3, 5, 3],
}

ABS_LEADING = {5: 1.6040191066934307, 8: 2.1019242122616387,
               12: 2.0857307956994519}

COVERAGE = 100.0


@pytest.fixture(scope="module")
def d5():
    F = make_field(5)
    return F, GeodesicWindow(enumerate_geodesics(F, 10.0), coverage=COVERAGE)


def test_empty_product_limit(d5):
    F, cls = d5
    v = selberg_zeta(ZetaParams(50.0 + 0j, 4, 100.0, 40), cls)
    assert abs(v.value - 1.0) < 1e-12


def test_weight_two_real_on_real_axis(d5):
    F, cls = d5
    v = selberg_zeta(ZetaParams(2.2 + 0j, 2, 100.0, 40), cls)
    assert v.value.imag == pytest.approx(0.0, abs=1e-14)
    ld = selberg_log_deriv(ZetaParams(3.0 + 0j, 2, 100.0, 40), cls)
    assert ld.value.imag == pytest.approx(0.0, abs=1e-14)


def test_log_deriv_matches_finite_difference(d5):
    F, cls = d5
    h = 1e-4
    rng = random.Random(7)
    points = [(2.5 + 0j, 4)]
    for _ in range(10):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.0))
        points.append((s, rng.choice([2, 4, 6])))
    for s, m in points:
        p = ZetaParams(s, m, 100.0, 60)
        f = lambda z: selberg_zeta(
            ZetaParams(z, m, 100.0, 60), cls).log_value
        fd = (f(s + h) - f(s - h)) / (2.0 * h)
        ld = selberg_log_deriv(p, cls).value
        assert abs(fd - ld) <= 1e-6 * abs(ld)


def test_log_deriv_decays_far_right(d5):
    F, cls = d5
    v = selberg_log_deriv(ZetaParams(40.0 + 0j, 4, 100.0, 40), cls)
    assert abs(v.value) < 1e-15


def test_deeper_inner_product_stays_within_tail(d5):
    F, cls = d5
    a = selberg_zeta(ZetaParams(2.0 + 0.5j, 4, 100.0, 8), cls)
    b = selberg_zeta(ZetaParams(2.0 + 0.5j, 4, 100.0, 16), cls)
    assert abs(a.log_value - b.log_value) <= a.tail_bound


def test_depth_beyond_negligible_costs_nothing(d5):
    # 10^9 powers would be hours of work and about 200 GB as one array;
    # the k-sum is in closed form, and past K = 40 its factor
    # 1 - N^-(l(K+1)) is 1.0 in double precision
    F, cls = d5
    p = ZetaParams(2.0 + 0.5j, 4, 100.0, 40)
    t0 = time.perf_counter()
    deep = selberg_zeta(dataclasses.replace(p, trunc_k=10 ** 9), cls)
    assert time.perf_counter() - t0 < 5.0
    base = selberg_zeta(p, cls)
    assert abs(deep.log_value - base.log_value) \
        <= 1e-15 * abs(base.log_value)
    # the tail is still placed at the requested depth, where the k-tail
    # underflows and only the norm tail is left
    assert deep.tail_bound == _norm_tail(cls, 100.0, 2.0)


def test_conjugation_symmetry(d5):
    F, cls = d5
    rng = random.Random(11)
    for m in (2, 4, 6):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(0.2, 1.5))
        za = selberg_zeta(ZetaParams(s, m, 100.0, 40), cls)
        zb = selberg_zeta(ZetaParams(s.conjugate(), m, 100.0, 40), cls)
        assert abs(za.value - zb.value.conjugate()) < 1e-12 * abs(za.value)


def test_weight_reflection_at_two(d5):
    # m = 2 is the self-paired weight: Z(s;2) = conj(Z(conj(s); 4-2))
    F, cls = d5
    s = 1.8 + 0.9j
    za = selberg_zeta(ZetaParams(s, 2, 100.0, 40), cls)
    zb = selberg_zeta(ZetaParams(s.conjugate(), 2, 100.0, 40), cls)
    assert abs(za.value - zb.value.conjugate()) < 1e-12 * abs(za.value)


def test_domain_and_window_errors(d5):
    F, cls = d5
    with pytest.raises(ValidationError):
        selberg_zeta(ZetaParams(0.8 + 0j, 4, 100.0, 40), cls)
    with pytest.raises(ValidationError):
        selberg_log_deriv(ZetaParams(1.0 + 2j, 4, 100.0, 40), cls)
    # window reaching past what the class list covers
    with pytest.raises(ValidationError):
        selberg_zeta(ZetaParams(2.5 + 0j, 4, 400.0, 40), cls)
    with pytest.raises(ValidationError):
        ZetaParams(2.5 + 0j, 3, 100.0, 40).validate()
    with pytest.raises(ValidationError):
        ZetaParams(2.5 + 0j, 4, 100.0, -1).validate()


def test_ruelle_dual_evaluation(d5):
    F, cls = d5
    rng = random.Random(3)
    for _ in range(10):
        s = complex(rng.uniform(1.5, 3.5), rng.uniform(-1.0, 1.0))
        r = ruelle(s, cls)
        assert abs(r.value - r.direct) <= r.tail_bound + 1e-11 * abs(r.value)
    r = ruelle(2.2 + 0j, cls)
    assert r.value.imag == pytest.approx(0.0, abs=1e-14)
    far = ruelle(50.0 + 0j, cls)
    assert abs(far.value - 1.0) < 1e-12


@pytest.mark.parametrize("s", [math.nan, math.inf, complex(2.0, math.nan),
                               complex(2.0, math.inf)])
def test_ruelle_refuses_non_finite(d5, s):
    # NaN passed the ratio-against-direct check, where comparisons are false
    with pytest.raises(ValidationError, match="not finite"):
        ruelle(s, d5[1])


def test_alpha_table_weight_two_collapses():
    F = make_field(5)
    tab = alpha_table(2, F)
    for j, e in enumerate(tab.entries):
        assert e.alpha == tuple(range(e.nu))
        assert e.alpha_bar == tuple(range(e.nu))
        for k in range(12):
            assert tab.beta(k, j) == 0


def test_alpha_table_frozen_rows():
    F = make_field(5)
    tab = alpha_table(4, F)
    rows = {(e.nu, e.t): (e.alpha, e.alpha_bar) for e in tab.entries}
    assert rows[(2, 1)] == ((1, 0), (1, 0))
    assert rows[(3, 1)] == ((1, 2, 0), (2, 0, 1))
    assert rows[(5, 3)] == ((3, 4, 0, 1, 2), (2, 3, 4, 0, 1))
    # the order-two class at weight 4, depth 0
    j2 = next(i for i, e in enumerate(tab.entries) if e.nu == 2)
    assert tab.beta(0, j2) == 1
    assert tab.beta_sum(0) == 6
    assert [tab.beta_sum(k) for k in range(4)] == [6, 0, 0, -2]


@pytest.mark.parametrize("D", [5, 8, 12])
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_beta_integrality_sweep(D, m):
    tab = alpha_table(m, make_field(D))
    for j, e in enumerate(tab.entries):
        for k in range(51):
            b = tab.beta(k, j)
            assert isinstance(b, int)
            assert (e.alpha[k % e.nu] + e.alpha_bar[k % e.nu]
                    - 2 * (k % e.nu)) % e.nu == 0


@pytest.mark.parametrize("D", [5, 8, 12])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_residue_orders_frozen(D, m):
    F = make_field(D)
    got = [residue_point_order(k, m, F) for k in range(8)]
    assert got == RESIDUE_ORDERS[(D, m)]


def order_at(led, s, tol=1e-9):
    """Summed order of the ledger families through s: a point at its
    base, a lattice at base + i*k*spacing (k = 0 only if include_k0)."""
    total = 0
    for e in led.entries:
        k = 0 if e.kind == "point" else round((s - e.base).imag / led.spacing)
        if abs(s - e.base - 1j * k * led.spacing) < tol and (
                k or e.include_k0):
            total += e.order
    return total


def test_ledger_weight_two():
    F = make_field(5)
    led = divisor_ledger(2, F, k_max=8)
    assert order_at(led, 1.0 + 0j) == -2
    assert [order_at(led, complex(-k, 0)) for k in range(7)] == \
        [4, 0, 0, 0, 0, 0, 4]
    spacing = math.pi / F.regulator
    assert order_at(led, complex(0.0, spacing)) == 2
    assert order_at(led, complex(0.0, -3 * spacing)) == 2
    # the lattice is symbolic: far beyond k_max still answers
    assert order_at(led, complex(0.0, 10000 * spacing)) == 2
    assert order_at(led, 0.37 + 0.4j) == 0


def test_ledger_weight_four_coincidences():
    F = make_field(5)
    led = divisor_ledger(4, F, k_max=8)
    spacing = math.pi / F.regulator
    # s=0: residue -2, pole lattice -1, extra zero +1
    assert order_at(led, 0.0 + 0j) == -2
    # s=-1: residue 0 plus the zero-lattice base point
    assert order_at(led, -1.0 + 0j) == 1
    assert order_at(led, -2.0 + 0j) == 0
    assert order_at(led, -3.0 + 0j) == 2
    # s=1: only the extra simple zero lives there
    assert order_at(led, 1.0 + 0j) == 1
    assert order_at(led, complex(-1.0, spacing)) == 1
    assert order_at(led, complex(0.0, spacing)) == -1


def test_ledger_weight_six():
    F = make_field(5)
    led = divisor_ledger(6, F, k_max=8)
    assert order_at(led, 0.0 + 0j) == 0
    assert order_at(led, -1.0 + 0j) == -1
    assert order_at(led, -2.0 + 0j) == 3
    assert all(isinstance(e.order, int) for e in led.entries)


def test_ledger_json_shape():
    F = make_field(5)
    led = divisor_ledger(2, F, k_max=4)
    doc = led.to_json()
    assert doc["m"] == 2 and doc["D"] == 5
    assert doc["lattice_spacing"] == pytest.approx(math.pi / F.regulator)
    kinds = {e["kind"] for e in doc["entries"]}
    assert kinds == {"point", "lattice"}


@pytest.mark.parametrize("D", [5, 8, 12])
def test_leading_term_frozen(D):
    out = ruelle_leading(make_field(D))
    assert out["n0"] == 6
    assert out["abs_leading"] == pytest.approx(ABS_LEADING[D], rel=1e-12)


def test_leading_term_prefactors():
    assert ruelle_leading(make_field(5))["stabilizer_product"] == 900
    assert ruelle_leading(make_field(8))["stabilizer_product"] == 576
    assert ruelle_leading(make_field(12))["stabilizer_product"] == 432


def test_completed_factors_weight_two(d5):
    F, _ = d5
    # weight-two exponents of the completed elliptic Gamma factors
    # collapse to (nu - 1 - 2l)/nu
    tab = alpha_table(2, F)
    for e in tab.entries:
        for l in range(e.nu):
            got = (e.nu - 1 - e.alpha[l] - e.alpha_bar[l]) / e.nu
            assert got == pytest.approx((e.nu - 1 - 2 * l) / e.nu)


# ------------------------------------------------------------ scalar oracles

SIGMAS = (1.05, 2.0, 40.0)


def _close(got, want, floor=1e-15):
    return abs(got - want) <= max(1e-13 * abs(want), floor)


def _cuts(cls):
    """trunc_norm at each listed norm, just below it, and at the coverage."""
    cuts = [x for c in cls for x in (c.norm, math.nextafter(c.norm, 0.0))]
    return [x for x in cuts if x >= 3.0] + [cls.coverage]


@pytest.mark.parametrize("m", [2, 4, 6])
def test_products_match_scalar_loops(window10, m):
    for sigma in SIGMAS:
        s = complex(sigma, 0.5)
        for x in _cuts(window10):
            for k in (0, 1, 5, 40, 80):
                p = ZetaParams(s, m, x, k)
                got = selberg_zeta(p, window10)
                want = selberg_zeta_ref(p, window10)
                assert _close(got.log_value, want.log_value), (p, got, want)
                assert _close(got.value, want.value), (p, got, want)
                assert _close(got.tail_bound, want.tail_bound, 0.0), \
                    (p, got, want)
            got = selberg_log_deriv(p, window10)
            want = selberg_log_deriv_ref(p, window10)
            assert _close(got.value, want.value), (p, got, want)
            assert _close(got.tail_bound, want.tail_bound, 0.0), \
                (p, got, want)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_log_deriv_tail_bound_covers_omitted_powers(window10, m):
    # against the exact series over the kept classes: the powers the
    # grid leaves out stay below 2^-60 of the classes' leading size
    # h ln N N^-sigma, so tail_bound covers them, and the value is off
    # the exact series by no more than that and its rounding
    import mpmath
    depth = np.diff(window10.power_grid.stops)
    h = 2.0 * window10.halves
    for s in (1.001 + 0.5j, 2.0 - 1.0j, 40.0 + 0.5j):
        series = [class_log_deriv_mp(c.norm, c.angle, s, m, int(d))
                  for c, d in zip(window10, depth)]
        norm = window10.norms
        lead = h * window10.log_norms * norm ** -s.real
        size = lead / ((1.0 - 1.0 / norm) * (1.0 - norm ** -s.real))
        for x in _cuts(window10):
            n = window10.count_upto(x)
            got = selberg_log_deriv(ZetaParams(s, m, x, 40), window10)
            omitted = sum(hh * abs(complex(full - head))
                          for hh, (head, full) in zip(h[:n], series[:n]))
            assert omitted <= 2.0 ** -60 * lead[:n].sum()
            assert omitted <= got.tail_bound
            exact = complex(mpmath.fsum(
                hh * full for hh, (_, full) in zip(h[:n], series[:n])))
            # N^-s moves by |s| times a rounding of log N
            assert abs(got.value - exact) <= (
                got.tail_bound + 4.0 * 2.0 ** -52 * abs(s) * size[:n].sum())


@pytest.fixture(scope="module")
def window20():
    return enumerate_geodesics(make_field(5), 20.0)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_per_class_depth_matches_uniform_depth(window10, window20, m):
    # the grid runs each class's log-series to its own 2^-60 depth; the
    # product with every class at the smallest norm's negligible depth
    # differs from it by less than the sum's rounding
    for cls in (window10, window20):
        for s in (1.05 + 0.5j, 1.3, 2.0 + 3.0j, 2.9 - 7.0j, 40.0 + 0.5j):
            for x in (3.0, 10.0, cls.coverage):
                for k in (0, 1, 5, 40, 10 ** 9):
                    p = ZetaParams(s, m, x, k)
                    got = selberg_zeta(p, cls)
                    want = selberg_zeta_uniform_ref(p, cls)
                    assert abs(got.value - want.value) \
                        <= 1e-15 * abs(want.value), (p, got, want)
                    assert got.tail_bound == want.tail_bound


def test_ruelle_matches_scalar_loops(window10):
    for sigma in SIGMAS:
        r = ruelle(complex(sigma, 0.5), window10)
        ratio, direct = ruelle_ref(complex(sigma, 0.5), window10)
        assert _close(r.value, ratio), (sigma, r, ratio)
        assert _close(r.direct, direct), (sigma, r, direct)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_kernel_edges_match_exact_products(window10, m):
    # sigma = 1.001 runs the same grid as sigma = 2, so the grid's depth
    # holds as sigma falls to 1; at trunc_k 0..2 the closed-form k-sum
    # is what separates the product from its infinite-depth limit, and
    # at 16 only in the last digits; the cuts sit at each listed norm
    # and just below it
    for s in (1.001 + 0.5j, 2.0 - 1.0j):
        for x in _cuts(window10):
            for k in (0, 1, 2, 16):
                p = ZetaParams(s, m, x, k)
                got = selberg_zeta(p, window10)
                want = selberg_zeta_ref(p, window10)
                assert _close(got.log_value, want.log_value), (p, got, want)
                assert _close(got.value, want.value), (p, got, want)
                assert _close(got.tail_bound, want.tail_bound, 0.0), \
                    (p, got, want)
            got = selberg_log_deriv(p, window10)
            want = selberg_log_deriv_ref(p, window10)
            assert _close(got.value, want.value), (p, got, want)


def test_kernel_far_up_the_line(window10):
    # N^-s moves by |s| times a rounding of log N, so at |Im s| = 200 the
    # float inputs set the error: 4 ulps of |s| times the series' size
    norm = window10.norms
    for m in (2, 4, 6):
        for s in (1.05 + 200j, 2.0 - 200j, 2.9 + 200j):
            size = float(np.sum(2.0 * window10.halves * np.log(norm)
                                * norm ** -s.real / (1.0 - norm ** -s.real)))
            for k in (0, 40):
                p = ZetaParams(s, m, window10.coverage, k)
                got = selberg_zeta(p, window10)
                want = selberg_zeta_ref(p, window10)
                assert abs(got.log_value - want.log_value) \
                    <= 4.0 * 2.0 ** -52 * abs(s) * size, (p, got, want)
                assert _close(got.tail_bound, want.tail_bound, 0.0)


def test_power_grid_built_once_and_not_pickled(window10):
    fresh = GeodesicWindow(window10.classes)
    blob = pickle.dumps(fresh)
    assert "power_grid" not in vars(fresh)
    p = ZetaParams(2.0 + 0.5j, 4, fresh.coverage, 40)
    selberg_zeta(p, fresh)
    grid = fresh.power_grid
    selberg_log_deriv(p, fresh)
    ruelle(2.5, fresh)
    assert fresh.power_grid is grid
    # nothing keyed by s, m or trunc_k is kept on the window
    assert set(vars(fresh)) <= {
        "classes", "coverage", "bound", "norms", "log_norms", "angles", "halves",
        "power_grid", "count_constant", "weighted_count_constant"}
    assert pickle.dumps(fresh) == blob
    assert set(vars(pickle.loads(blob))) == {"classes", "coverage", "bound"}
    assert cache._FORMAT == 5
    # class-major: class c owns grid[stops[c]:stops[c + 1]], l = 1..L,
    # with L the least depth whose omitted tail the proof puts below
    # 2^-60 of the class's leading size
    assert grid.stops[0] == 0 and grid.stops[-1] == len(grid.exponent)
    for c, lo, hi in zip(fresh, grid.stops[:-1], grid.stops[1:]):
        N, L = c.norm, hi - lo
        assert grid.exponent[hi - 1] == pytest.approx(L * math.log(N))
        assert N ** -L / (1.0 - 1.0 / N) ** 2 <= 2.0 ** -60 \
            < N ** -(L - 1) / (1.0 - 1.0 / N) ** 2


def test_cached_window_gives_identical_values(d5, tmp_path):
    _, fresh = d5
    assert fresh.norms[0] == fresh[0].norm  # columns built before the store
    key = ("geodesics", {"D": 5, "x": 10.0})
    get_or_compute(*key, lambda: fresh, cache_dir=str(tmp_path))
    loaded = get_or_compute(*key, lambda: pytest.fail("expected a hit"),
                            cache_dir=str(tmp_path))
    # the columns are derived again after the load, not pickled
    assert set(vars(loaded)) == {"classes", "coverage", "bound"}
    assert loaded == fresh
    for m in (2, 4, 6):
        p = ZetaParams(2.0 + 0.5j, m, fresh.coverage, 40)
        assert selberg_zeta(p, loaded) == selberg_zeta(p, fresh)
        assert selberg_log_deriv(p, loaded) == selberg_log_deriv(p, fresh)
    assert ruelle(2.5, loaded) == ruelle(2.5, fresh)
