"""Euler products, exponent tables, ledger orders, and factor identities.

Frozen integer tables below were recomputed independently with plain
modular arithmetic over the certified class census before being pinned
here; the leading coefficients come from the closed form evaluated at
30 digits.
"""

import cmath
import dataclasses
import math
import random
import time

import pytest

from hilbert_selberg.cache import get_or_compute
from hilbert_selberg.errors import InvariantViolation, ValidationError
from hilbert_selberg.geodesics import GeodesicWindow, enumerate_geodesics
from hilbert_selberg.quadfield import make_field
from hilbert_selberg.zetafun import (AlphaTable, ZetaParams, alpha_table,
                                     completed_factors, divisor_ledger,
                                     fe_identity_checks, fe_rhs, order_at,
                                     residue_point_order, ruelle,
                                     _norm_tail,
                                     ruelle_leading, selberg_log_deriv,
                                     selberg_zeta)
from oracles import (ruelle_ref, selberg_log_deriv_ref, selberg_zeta_ref,
                     selberg_zeta_uniform_ref)

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
    # past the cut every power is below the sum's rounding
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


def test_completed_factors_structure(d5):
    F, _ = d5
    s = 2.3 + 0.4j
    out = completed_factors(s, 4, F)
    assert set(out) == {"Z_id", "Z_ell", "Z_par_sct", "Z_hyp2_sct"}
    assert out["Z_par_sct"] == 1.0 + 0.0j
    mirror = completed_factors(s.conjugate(), 4, F)
    for key in out:
        assert abs(out[key] - mirror[key].conjugate()) \
            < 1e-10 * (1.0 + abs(out[key]))


def test_completed_factors_weight_two(d5):
    F, _ = d5
    s = 1.7 + 0j
    out = completed_factors(s, 2, F)
    assert out["Z_par_sct"] == pytest.approx(math.exp(-2 * 1.7 * F.regulator))
    from hilbert_selberg.specfun import zeta_eps
    assert out["Z_hyp2_sct"] == pytest.approx(zeta_eps(s, F) ** 2)
    # weight-two exponents collapse to (nu - 1 - 2l)/nu
    tab = alpha_table(2, F)
    for e in tab.entries:
        for l in range(e.nu):
            got = (e.nu - 1 - e.alpha[l] - e.alpha_bar[l]) / e.nu
            assert got == pytest.approx((e.nu - 1 - 2 * l) / e.nu)


def test_completed_factors_pole_reports(d5):
    F, _ = d5
    with pytest.raises(ValidationError):
        completed_factors(0.0 + 0j, 2, F)
    with pytest.raises(ValidationError):
        completed_factors(3.0 + 0j, 3, F)


def test_fe_rhs_even_and_vanishing(d5):
    F, _ = d5
    rng = random.Random(5)
    for _ in range(8):
        s = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.6, 0.6))
        a, b = fe_rhs(s, F), fe_rhs(-s, F)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))
    fit = (math.log(abs(fe_rhs(0.02 + 0j, F)))
           - math.log(abs(fe_rhs(0.01 + 0j, F)))) / math.log(2.0)
    n0 = ruelle_leading(F)["n0"]
    assert abs(fit - 2 * n0) < 0.05
    with pytest.raises(ValidationError):
        fe_rhs(1.0 + 0j, F)


def test_fe_identity_checks(d5):
    F, _ = d5
    report = fe_identity_checks(F, n_points=20, nus=(2, 3, 5, 6))
    assert report["xi_max_err"] <= 1e-8
    assert report["gnu_ratio_max_err"] <= 1e-8


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


@pytest.fixture(scope="module")
def window20():
    return enumerate_geodesics(make_field(5), 20.0)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_per_class_depth_matches_uniform_depth(window10, window20, m):
    # each class is cut at its own negligible depth; the powers between
    # that and the smallest norm's depth are below the sum's rounding
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


def test_cached_window_gives_identical_values(d5, tmp_path):
    _, fresh = d5
    assert fresh.norms[0] == fresh[0].norm  # columns built before the store
    key = ("geodesics", {"D": 5, "x": 10.0})
    get_or_compute(*key, lambda: fresh, cache_dir=str(tmp_path))
    loaded = get_or_compute(*key, lambda: pytest.fail("expected a hit"),
                            cache_dir=str(tmp_path))
    # the columns are derived again after the load, not pickled
    assert set(vars(loaded)) == {"classes", "coverage"}
    assert loaded == fresh
    for m in (2, 4, 6):
        p = ZetaParams(2.0 + 0.5j, m, fresh.coverage, 40)
        assert selberg_zeta(p, loaded) == selberg_zeta(p, fresh)
        assert selberg_log_deriv(p, loaded) == selberg_log_deriv(p, fresh)
    assert ruelle(2.5, loaded) == ruelle(2.5, fresh)
