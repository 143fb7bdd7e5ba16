import cmath
import dataclasses
import math
import random

import pytest
import scipy.integrate as integrate

from hilbert_selberg.errors import (BudgetExceededError, InvariantViolation,
                                    ValidationError)
from hilbert_selberg.geodesics import enumerate_geodesics
from hilbert_selberg.quadfield import make_field
from hilbert_selberg.records import GeodesicWindow
from hilbert_selberg.traceform import (
    GeomSideBreakdown,
    _geom_sides,
    _hyp_ell_sums,
    _side_integrals,
    double_difference_closed_forms,
    gaussian_testfunction,
    geom_side_difference,
    geom_side_double_difference,
    heat_asymptotic_check,
    rational_testfunction,
)
from hilbert_selberg.zetafun import (ZetaParams, selberg_log_deriv,
                                     selberg_zeta)
from oracles import (heat_elliptic_ref, heat_identity_ref, hyp_ell_sum_ref,
                     unit_series_ref)

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


@pytest.mark.parametrize("s, beta1, beta2", [
    (math.nan, 2.5, 3.5), (math.inf, 2.5, 3.5),
    (complex(2.5, math.nan), 2.5, 3.5), (2.5, math.nan, 3.5),
    (2.5, 2.5, math.inf)])
def test_pair_refuses_non_finite(s, beta1, beta2):
    with pytest.raises(ValidationError, match="finite"):
        rational_testfunction(s, beta1, beta2)


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
    # the weight rule of the products, tables and ledger
    for m in (3, 0):
        with pytest.raises(ValidationError,
                           match=f"^weight m={m} must be even and >= 2$"):
            double_difference_closed_forms(m, 2.5, 2.5, 3.5, F, classes)


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


@pytest.mark.parametrize("single", [True, False],
                         ids=["difference", "double"])
@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("tf", [gaussian_testfunction(0.1),
                                rational_testfunction(2.5, 2.5, 3.5)],
                         ids=["gaussian", "rational"])
def test_eps_series_geometric_cutoff(d5, tf, m, single):
    # the unit series stops at its first term below 1e-18 (1 + |sum|);
    # summed on term by term to four times as many terms it moves by no
    # more than its geometric tail bound
    F, classes = d5
    evaluator = geom_side_difference if single else geom_side_double_difference
    bd = evaluator(m, tf, F, classes)
    ref = unit_series_ref(m, tf, F, single, 4 * bd.diagnostics["eps_terms"])
    assert abs(bd.hyp2_sct_term - ref) <= bd.diagnostics["eps_tail"]


def test_truncation_stability(d5, d5_wide):
    F, classes = d5
    for tf, m in ((gaussian_testfunction(0.1), 2),
                  (rational_testfunction(2.5, 2.5, 3.5), 4)):
        base = geom_side_double_difference(m, tf, F, classes)
        wide = geom_side_double_difference(m, tf, F, d5_wide)
        assert (abs(wide.hyp_ell_term - base.hyp_ell_term)
                <= base.diagnostics["he_tail"])
        doubled = unit_series_ref(m, tf, F, False,
                                  2 * base.diagnostics["eps_terms"])
        assert (abs(doubled - base.hyp2_sct_term)
                <= base.diagnostics["eps_tail"] + 1e-30)


@pytest.mark.parametrize("beta", [0.025, 0.05, 0.1, 0.2])
def test_gaussian_he_tail_matches_closed_form(d5, beta):
    # e^{u/2} g1(u) over [L, inf), L = log(coverage), completes the
    # square to e^{beta/4} erfc((L - beta)/(2 sqrt beta)) / 2
    F, classes = d5
    bd = geom_side_double_difference(2, gaussian_testfunction(beta), F,
                                     classes)
    got = bd.diagnostics["he_tail"] / (1.6 * classes.count_constant)
    big_l = math.log(classes.coverage)
    want = 0.5 * math.exp(beta / 4.0) * math.erfc(
        (big_l - beta) / (2.0 * math.sqrt(beta)))
    assert abs(got - want) <= 1e-13 * want


def test_he_tail_integrates_the_whole_half_line(d5):
    # g1 of the pair (1.02, 2, 3) is a positive sum of exponentials
    # e^{-b u} past L, so e^{u/2} g1 integrates in closed form; the
    # integrand decays like e^{-0.02 u}, and a range cut at
    # L + 48/kappa + 5 gave 160.5 of its 187.3
    F, classes = d5
    tf = rational_testfunction(1.02, 2.0, 3.0)
    meta = tf.metadata
    s = meta["s"]
    big_l = math.log(classes.coverage)
    want = sum((w * math.exp(-(b - 0.5) * big_l) / (b - 0.5)).real
               for w, b in ((1.0 / (2.0 * s - 1.0), s.real - 0.5),
                            (meta["c1"] / 4.0, 2.0), (meta["c2"] / 6.0, 3.0)))
    want *= 1.6 * classes.count_constant
    for m in (2, 4):
        bd = geom_side_double_difference(m, tf, F, classes)
        assert abs(bd.diagnostics["he_tail"] - want) <= 1e-9 * want
    assert 187.2 < want < 187.4


def test_slow_decay_is_refused(d5):
    # kappa = 0.505: the HE tail's integrand decays like e^{-0.005 u}
    F, classes = d5
    tf = rational_testfunction(1.005, 2.0, 3.0)
    with pytest.raises(ValidationError, match="decays too slowly"):
        geom_side_double_difference(2, tf, F, classes)


def test_gaussian_window_requires_enough_classes(d5):
    F, _ = d5
    thin = enumerate_geodesics(F, 3.0)
    with pytest.raises(ValidationError,
                       match="needs the class list to hold a class of norm"):
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
    # the grid runs deeper than the oracle's cut for the Gaussians and
    # stops before it for (1.02, 2, 3), kappa = 0.52
    tfs = (gaussian_testfunction(0.05), gaussian_testfunction(2.0),
           rational_testfunction(2.5 + 0.3j, 2.5, 3.5),
           rational_testfunction(1.3, 2.0, 4.0),
           rational_testfunction(1.02, 2.0, 3.0))
    for m in (2, 4, 6):
        for tf, got in zip(tfs, _hyp_ell_sums(m, tfs, window10, single)):
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
    report = heat_asymptotic_check(F, (0.2, 0.1, 0.05, 0.025), classes)
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


@pytest.mark.parametrize("single, m", [(False, 2), (True, 4)])
def test_stacked_grid_matches_one_member_sides(d5, single, m):
    F, classes = d5
    tfs = [gaussian_testfunction(b) for b in (0.2, 0.1, 0.05, 0.025)]
    stacked = _geom_sides(m, tfs, F, classes, single)
    side = geom_side_difference if single else geom_side_double_difference
    for tf, got in zip(tfs, stacked):
        want = side(m, tf, F, classes)
        for fam in ("identity", "elliptic"):
            err = (got.diagnostics[f"{fam}_quad_err"]
                   + want.diagnostics[f"{fam}_quad_err"])
            assert abs(getattr(got, f"{fam}_term")
                       - getattr(want, f"{fam}_term")) <= err, (tf, fam)
        # the finite sums do not depend on the other members
        assert (got.hyp_ell_term, got.par_sct_term, got.hyp2_sct_term) == \
            (want.hyp_ell_term, want.par_sct_term, want.hyp2_sct_term)
        assert got.diagnostics["he_tail"] == pytest.approx(
            want.diagnostics["he_tail"], rel=1e-6)


@pytest.mark.parametrize("D", [5, 8, 12])
def test_trapezoid_bounds_hold_against_mpmath(D):
    # each heat pair's identity integral and census-angle elliptic
    # integrals against mpmath at 30 digits: the trapezoid's error lies
    # within its reported bound, and the bound within 1e-12 (1 + |value|)
    F = make_field(D)
    betas = (0.2, 0.1, 0.05, 0.025, 0.005)
    sides = _side_integrals([gaussian_testfunction(b) for b in betas], F,
                            GeodesicWindow([]))
    angles = {(nu, ell) for nu, _ in F.census_classes()
              for ell in range(1, nu)}
    for beta, (identity, identity_err, elliptic, _) in zip(betas, sides):
        assert set(elliptic) == angles
        checks = [(identity, identity_err, heat_identity_ref(beta))] + [
            (got, bound, heat_elliptic_ref(beta, ell * math.pi / nu))
            for (nu, ell), (got, bound) in sorted(elliptic.items())]
        for got, bound, (want, mp_err) in checks:
            assert mp_err <= 1e-25 * (1.0 + abs(want))
            assert abs(got - want) <= bound <= 1e-12 * (1.0 + abs(got)), \
                (beta, got, want, bound)


def test_heat_pair_past_the_node_budget_is_refused(d5):
    # the identity sum needs about 81/sqrt(beta) nodes: 2.6e6 here
    F, classes = d5
    with pytest.raises(BudgetExceededError, match="trapezoid nodes"):
        geom_side_double_difference(2, gaussian_testfunction(1e-9), F,
                                    classes)


def test_heat_grid_names_the_first_under_covered_beta(d5):
    F, _ = d5
    thin = enumerate_geodesics(F, 6.0)
    grid = (0.1, 0.2, 0.05, 0.15)
    # what the per-beta loop raised: the first beta in grid order whose
    # Gaussian tail outruns the window
    want = None
    for beta in grid:
        try:
            geom_side_double_difference(2, gaussian_testfunction(beta), F,
                                        thin)
        except ValidationError as exc:
            want = str(exc)
            break
    assert want is not None and "beta=0.2 " in want
    with pytest.raises(ValidationError) as info:
        heat_asymptotic_check(F, grid, thin)
    assert str(info.value) == want


def test_missing_census_is_named_before_the_window():
    # the empty window is too narrow for every Gaussian; the field's
    # missing census is what gets reported
    F = make_field(13)
    empty = GeodesicWindow([])
    want = r"^no elliptic census attached for D=13$"
    with pytest.raises(ValidationError, match=want):
        heat_asymptotic_check(F, (0.2, 0.1, 0.05, 0.025), empty)
    with pytest.raises(ValidationError, match=want):
        geom_side_difference(4, gaussian_testfunction(0.1), F, empty)


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
