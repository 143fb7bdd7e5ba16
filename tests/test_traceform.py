import cmath
import dataclasses
import math
import random

import pytest
import scipy.integrate as integrate

from hilbert_selberg.errors import InvariantViolation, ValidationError
from hilbert_selberg.geodesics import GeodesicWindow, enumerate_geodesics
from hilbert_selberg.quadfield import make_field
from hilbert_selberg.traceform import (
    GeomSideBreakdown,
    _hyp_ell_sum,
    double_difference_closed_forms,
    elliptic_zero_width_limit,
    gaussian_testfunction,
    geom_side_difference,
    geom_side_double_difference,
    heat_asymptotic_check,
    rational_testfunction,
)
from hilbert_selberg.zetafun import (ZetaParams, selberg_log_deriv,
                                     selberg_zeta)
from oracles import hyp_ell_sum_ref

# high-precision re-evaluation of the same sums, 30 digits
GAUSS_TOTALS_D5_BETA01 = {
    2: -2.0505766747276926,
    4: 1.1846790398976629,
    6: 0.3207905251217363,
}


@pytest.fixture(scope="module")
def d5():
    F = make_field(5)
    return F, enumerate_geodesics(F, 10.0)


@pytest.fixture(scope="module")
def d5_wide():
    F = make_field(5)
    return enumerate_geodesics(F, 14.0)


def _families(bd: GeomSideBreakdown):
    return (bd.identity_term, bd.elliptic_term, bd.hyp_ell_term,
            bd.par_sct_term, bd.hyp2_sct_term, bd.total)


def test_rational_coefficients_sum_to_minus_one():
    for s in (2.5, 1.7 + 0.9j, 3.0 - 0.25j):
        tf = rational_testfunction(s, 2.5, 3.5)
        assert tf.metadata["c1"] + tf.metadata["c2"] == -1.0


def test_rational_partial_fractions_equal_product_form():
    rng = random.Random(20240817)
    s, b1, b2 = 2.5, 2.5, 3.5
    tf = rational_testfunction(s, b1, b2)
    a2 = (s - 0.5) ** 2
    for _ in range(20):
        r = rng.uniform(-8.0, 8.0)
        prod = ((b1 * b1 - a2) * (b2 * b2 - a2)
                / ((r * r + a2) * (r * r + b1 * b1) * (r * r + b2 * b2)))
        assert abs(tf.h1(r) - prod) <= 1e-14 * (1.0 + abs(prod))


def test_fourier_transform_recovers_h1():
    tf = rational_testfunction(2.5, 2.5, 3.5)
    re, _ = integrate.quad(
        lambda u: (tf.g1(u) * cmath.exp(0.7j * u)).real,
        -math.inf, math.inf, limit=400)
    im, _ = integrate.quad(
        lambda u: (tf.g1(u) * cmath.exp(0.7j * u)).imag,
        -math.inf, math.inf, limit=400)
    assert abs(complex(re, im) - tf.h1(0.7)) <= 1e-8


def test_pair_validation():
    with pytest.raises(ValidationError):
        rational_testfunction(2.5, 3.0, 3.0)
    with pytest.raises(ValidationError):
        rational_testfunction(2.5, 1.5, 3.0)
    with pytest.raises(ValidationError):
        rational_testfunction(0.9, 2.5, 3.5)
    with pytest.raises(ValidationError):
        gaussian_testfunction(0.0)


def test_pairs_are_even():
    rng = random.Random(7)
    for tf in (gaussian_testfunction(0.07),
               rational_testfunction(2.2 + 0.4j, 2.5, 3.5)):
        for _ in range(10):
            r = rng.uniform(0.1, 5.0)
            assert tf.h1(r) == tf.h1(-r)
            assert tf.g1(r) == tf.g1(-r)


def test_total_is_ordered_sum(d5):
    F, classes = d5
    tf = rational_testfunction(2.5, 2.5, 3.5)
    for bd in (geom_side_double_difference(4, tf, F, classes),
               geom_side_difference(4, tf, F, classes)):
        resum = (((bd.identity_term + bd.elliptic_term) + bd.hyp_ell_term)
                 + bd.par_sct_term) + bd.hyp2_sct_term
        assert bd.total == resum


def test_parabolic_term_by_weight(d5):
    F, classes = d5
    tf = gaussian_testfunction(0.1)
    for m in (4, 6, 8):
        assert geom_side_double_difference(
            m, tf, F, classes).par_sct_term == 0.0
    bd = geom_side_double_difference(2, tf, F, classes)
    expected = -2.0 * F.regulator * tf.g1(0.0)
    assert abs(bd.par_sct_term - expected) <= 1e-15


def test_weight_two_exposes_spectral_constant(d5):
    F, classes = d5
    for tf in (gaussian_testfunction(0.1),
               rational_testfunction(2.5, 2.5, 3.5)):
        bd = geom_side_double_difference(2, tf, F, classes)
        assert abs(bd.diagnostics["spectral_constant"]
                   - (-2.0 * tf.h1(0.5j))) <= 1e-14
    bd4 = geom_side_double_difference(4, gaussian_testfunction(0.1),
                                      F, classes)
    assert "spectral_constant" not in bd4.diagnostics


def test_gaussian_totals_match_high_precision(d5):
    F, classes = d5
    for m, expected in GAUSS_TOTALS_D5_BETA01.items():
        bd = geom_side_double_difference(m, gaussian_testfunction(0.1),
                                         F, classes)
        assert abs(bd.total.real - expected) <= 1e-10
        assert abs(bd.total.imag) <= 1e-9


def test_gaussian_totals_real(d5):
    F, classes = d5
    for m in (2, 4, 6):
        for beta in (0.1, 0.05):
            bd = geom_side_double_difference(
                m, gaussian_testfunction(beta), F, classes)
            assert abs(bd.total.imag) <= 1e-9 * (1.0 + abs(bd.total.real))


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("s", [2.5, 2.2 + 0.4j])
def test_closed_forms_match_quadrature(d5, m, s):
    F, classes = d5
    report = double_difference_closed_forms(m, s, 2.5, 3.5, F, classes)
    for family, entry in report.items():
        scale = 1.0 + abs(entry["closed"])
        assert entry["diff"] <= 1e-7 * scale, (family, entry)


def test_closed_forms_weight_two(d5):
    F, classes = d5
    report = double_difference_closed_forms(2, 2.5, 2.5, 3.5, F, classes)
    for family, entry in report.items():
        assert entry["diff"] <= 1e-7 * (1.0 + abs(entry["closed"])), family


def test_closed_forms_validation(d5):
    F, classes = d5
    with pytest.raises(ValidationError):
        double_difference_closed_forms(3, 2.5, 2.5, 3.5, F, classes)
    with pytest.raises(ValidationError):
        double_difference_closed_forms(0, 2.5, 2.5, 3.5, F, classes)


def test_double_difference_is_difference_of_singles(d5):
    F, classes = d5
    tf = rational_testfunction(2.5, 2.5, 3.5)
    for m in (2, 4, 6):
        dd = geom_side_double_difference(m, tf, F, classes)
        hi = geom_side_difference(m, tf, F, classes)
        lo = geom_side_difference(m - 2, tf, F, classes)
        for a, b, c in zip(_families(dd), _families(hi), _families(lo)):
            assert abs(a - (b - c)) <= 1e-12 * (1.0 + abs(a))


def test_weight_flip_antisymmetry(d5):
    # flipping m to 4-m negates the complementary single difference
    F, classes = d5
    tf = rational_testfunction(2.5, 2.5, 3.5)
    for m in (4, 6):
        flip = geom_side_difference(4 - m, tf, F, classes)
        comp = geom_side_difference(m - 2, tf, F, classes)
        for a, b in zip(_families(flip), _families(comp)):
            assert abs(a + b) <= 1e-12 * (1.0 + abs(a))


def test_conjugation_symmetry(d5):
    F, classes = d5
    tf = rational_testfunction(2.2 + 0.4j, 2.5, 3.5)
    tfc = rational_testfunction(2.2 - 0.4j, 2.5, 3.5)
    for m in (2, 4):
        for evaluator in (geom_side_double_difference, geom_side_difference):
            a = evaluator(m, tf, F, classes).total
            b = evaluator(m, tfc, F, classes).total
            assert abs(a - b.conjugate()) <= 1e-12 * (1.0 + abs(a))


def test_eps_series_geometric_cutoff(d5):
    F, classes = d5
    tf = gaussian_testfunction(0.1)
    m = 4
    k0 = math.ceil(50.0 / ((m - 1) * F.regulator))
    short = geom_side_difference(m, tf, F, classes, eps_terms=k0)
    long = geom_side_difference(m, tf, F, classes, eps_terms=4 * k0)
    assert abs(short.hyp2_sct_term - long.hyp2_sct_term) <= 1e-16 * (
        1.0 + abs(long.hyp2_sct_term))


def test_truncation_stability(d5, d5_wide):
    F, classes = d5
    for tf, m in ((gaussian_testfunction(0.1), 2),
                  (rational_testfunction(2.5, 2.5, 3.5), 4)):
        base = geom_side_double_difference(m, tf, F, classes)
        wide = geom_side_double_difference(m, tf, F, d5_wide)
        assert (abs(wide.hyp_ell_term - base.hyp_ell_term)
                <= base.diagnostics["he_tail"])
        doubled = geom_side_double_difference(
            m, tf, F, classes, eps_terms=2 * base.diagnostics["eps_terms"])
        assert (abs(doubled.hyp2_sct_term - base.hyp2_sct_term)
                <= base.diagnostics["eps_tail"] + 1e-30)


def test_gaussian_window_requires_enough_classes(d5):
    F, _ = d5
    thin = enumerate_geodesics(F, 3.0)
    with pytest.raises(ValidationError, match="enumerate"):
        geom_side_double_difference(2, gaussian_testfunction(0.2), F, thin)


def test_class_order_is_independent_of_list_order(d5):
    F, classes = d5
    order = list(classes)
    random.Random(7).shuffle(order)
    assert order != list(classes)
    shuffled = GeodesicWindow(order)
    assert shuffled == classes
    for m, s in ((2, 1.7 + 0.4j), (4, 2.5), (6, 1.4 - 2.0j)):
        p = ZetaParams(s=s, m=m, trunc_norm=90.0, trunc_k=40)
        for fn in (selberg_zeta, selberg_log_deriv):
            assert fn(p, shuffled) == fn(p, classes)
        tf = gaussian_testfunction(0.1)
        a = geom_side_double_difference(m, tf, F, shuffled)
        b = geom_side_double_difference(m, tf, F, classes)
        assert _families(a) == _families(b)
        assert a.diagnostics == b.diagnostics


def test_odd_multiplicity_rejected(d5):
    _, classes = d5
    bad = [dataclasses.replace(classes[0], multiplicity=3)]
    with pytest.raises(InvariantViolation, match="odd class multiplicity 3"):
        GeodesicWindow(bad, coverage=100.0)


@pytest.mark.parametrize("single", [True, False])
def test_hyp_ell_sum_matches_scalar_loop(window10, single):
    for tf in (gaussian_testfunction(0.05), gaussian_testfunction(2.0),
               rational_testfunction(2.5 + 0.3j, 2.5, 3.5),
               rational_testfunction(1.3, 2.0, 4.0)):
        for m in (2, 4, 6):
            got = _hyp_ell_sum(m, tf, window10, single)
            want = hyp_ell_sum_ref(m, tf, window10, single)
            assert abs(got - want) <= max(1e-13 * abs(want), 1e-15), \
                (tf.kind, tf.metadata, m, got, want)


def test_degenerate_power_angle_names_class_and_power(d5):
    # angle pi/2: sin(2 * pi/2) vanishes at the second power
    F, cls = d5
    c = cls[0]
    bad = GeodesicWindow([dataclasses.replace(c, angle=math.pi / 2.0),
                          *cls[1:]], coverage=cls.coverage)
    tf = gaussian_testfunction(0.05)
    with pytest.raises(InvariantViolation,
                       match=rf"degenerate power angle at "
                             rf"d=\({c.d.a},{c.d.b}\), l=2$"):
        geom_side_difference(4, tf, F, bad)
    # the double difference folds to cosines and has no such pole
    assert math.isfinite(abs(geom_side_double_difference(4, tf, F, bad).total))


def test_heat_fit_lands_on_targets(d5):
    F, classes = d5
    report = heat_asymptotic_check(F, None, classes)
    assert report["a_rel_err"] <= 0.02
    assert report["b_rel_err"] <= 0.05
    assert abs(report["a_fit"] - 1.0 / 30.0) <= 0.02 / 30.0
    assert math.isfinite(report["c_fit"])
    assert report["condition_number"] < 1e5
    assert abs(report["elliptic_limit"] - (-269.0 / 180.0)) <= 1e-12
    # removed families are O(1) and fade as beta shrinks
    removed = report["removed_families"]
    assert abs(removed[-1]) < abs(removed[0])


def test_heat_fit_validation(d5):
    F, classes = d5
    with pytest.raises(ValidationError):
        heat_asymptotic_check(F, (0.2, 0.1, 0.05), classes)
    with pytest.raises(ValidationError):
        heat_asymptotic_check(F, (0.3, 0.1, 0.05, 0.025), classes)


def test_breakdown_json_shape(d5):
    F, classes = d5
    bd = geom_side_double_difference(2, gaussian_testfunction(0.1),
                                     F, classes)
    blob = bd.to_json()
    assert set(blob) == {"identity_term", "elliptic_term", "hyp_ell_term",
                         "par_sct_term", "hyp2_sct_term", "total",
                         "diagnostics"}
    assert blob["total"][0] == bd.total.real
    assert blob["diagnostics"]["spectral_constant"][1] == 0.0
