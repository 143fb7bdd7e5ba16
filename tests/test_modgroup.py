import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hilbert_selberg import modgroup, pellforms
from hilbert_selberg.errors import BudgetExceededError, ValidationError
from hilbert_selberg.modgroup import (
    GroupElem, classify, conjugation_orbit, enumerate_elliptic,
    _conj_neighbors, _elliptic_candidates, _matrices_with_trace,
    _normalize_rows,
)
from hilbert_selberg.orbits import height_predicate, _row_packer
from hilbert_selberg.pellforms import (enumerate_forms, form_orbit,
                                       pell_fundamental, _form_boxes,
                                       _form_neighbors, _matrix_boxes,
                                       _matrix_keys)
from hilbert_selberg.quadfield import (CLASS_NUMBER_ONE, QuadInt,
                                       canonical_disc, lattice_points,
                                       make_field, _omega_trace_norm)

from oracles import (capped_bfs_ref, conj_neighbors_ref,
                     elliptic_candidates_ref, form_neighbors_ref,
                     height_ok_ref, matrices_with_trace_ref,
                     normalize_key_ref, partition_ref)


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
        F = make_field(5)
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
        assert normalize_key_ref(g.key(), D) in orbit
        members, _ = capped_bfs_ref(g.key(), conj_neighbors_ref(D),
                                    height_ok_ref(D, 12.0, 12.0), 400000)
        assert _agrees((orbit, False), (members, False))
        # every member has the same PSL trace and classification
        for key in members[:50]:
            h = GroupElem.from_key(key, D)
            assert classify(h).kind == "elliptic"
            tr = h.trace()
            assert tr == g.trace() or tr == -g.trace()


def _orbit_case(kind):
    """(seed, orbit(seed, cap, max_states), neighbor map) over Q(sqrt 5)."""
    D = 5
    if kind == "conjugation":
        g = elem(D, ((0, 0), (-1, 0), (1, 0), (1, 0)))
        seed = normalize_key_ref(g.key(), D)
        return (seed,
                lambda cap, ms: conjugation_orbit(seed, D, cap, cap,
                                                  max_states=ms)[0],
                _conj_neighbors)
    seed = min(map(tuple, enumerate_forms(QuadInt(D, -7, 5),
                                          make_field(D)).tolist()))
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
        # the orbit's states, listed by the key-by-key walk
        ref_map = (conj_neighbors_ref if kind == "conjugation"
                   else form_neighbors_ref)
        members, _ = capped_bfs_ref(seed, ref_map(D),
                                    height_ok_ref(D, self.CAP, self.CAP),
                                    400000)
        assert _agrees((orbit, False), (members, False))
        inside = height_predicate(D, self.CAP, self.CAP)
        rows = np.array(members)
        assert inside(rows).all()
        images = neighbors(rows, D, t, n)
        assert (orbit.contains(images) | ~inside(images)).all()

    def test_budget_trips_at_the_state_count(self, kind):
        seed, orbit_of, _ = _orbit_case(kind)
        full = orbit_of(self.CAP, 400000)
        # same seed and caps, so the packed keys compare level by level
        at_budget = orbit_of(self.CAP, len(full))
        assert len(at_budget) == len(full)
        assert all(np.array_equal(a, b) for (a, _), (b, _)
                   in zip(at_budget.levels, full.levels, strict=True))
        with pytest.raises(BudgetExceededError,
                           match=f"{kind} orbit exceeded {len(full) - 1} "):
            orbit_of(self.CAP, len(full) - 1)
        with pytest.raises(BudgetExceededError):
            orbit_of(self.CAP, 3)


REFERENCE_CASES = ["conjugation", "form", "outside-seed", "d12"]


def _reference_case(kind):
    """(engine(max_states, targets), reference(max_states, targets),
    extra targets) for one orbit."""
    if kind == "form":
        D, cap = 5, 12.0
        seed = min(map(tuple, enumerate_forms(QuadInt(D, -7, 5),
                                              make_field(D)).tolist()))
        return (lambda ms, tg: (form_orbit(seed, D, cap, cap, ms), False),
                lambda ms, tg: capped_bfs_ref(seed, form_neighbors_ref(D),
                                              height_ok_ref(D, cap, cap), ms),
                set())
    if kind == "conjugation":
        # the D = 8 orbit of test_direct_conjugates_are_reached, with its
        # direct conjugate as an extra target
        D, cap = 8, 30.0
        g = elem(D, ((0, 0), (-1, 0), (1, 0), (0, 0)))
        u = elem(D, ((1, 0), (2, 1), (0, 0), (1, 0)))
        seed, extra = g.key(), {(u * g * u.inverse()).key()}
    elif kind == "outside-seed":
        # T_mu S T_-mu with mu = 2 + 3w has an entry -23 - 12 sqrt 2
        # beyond the cap; its T_-1 conjugate is inside
        D, cap = 8, 30.0
        s = elem(D, ((0, 0), (-1, 0), (1, 0), (0, 0)))
        mu = elem(D, ((1, 0), (2, 3), (0, 0), (1, 0)))
        seed = (mu * s * mu.inverse()).key()
        assert not height_ok_ref(D, cap, cap)(seed)
        extra = {seed}
    else:
        # D = 12, where w = sqrt 3 has trace t = 0: an order-6 rotation
        D, cap = 12, 30.0
        seed = elem(D, ((0, 1), (-1, 0), (1, 0), (0, 0))).key()
        extra = {seed}
    return (lambda ms, tg: conjugation_orbit(seed, D, cap, cap, ms, tg),
            lambda ms, tg: capped_bfs_ref(seed, conj_neighbors_ref(D),
                                          height_ok_ref(D, cap, cap), ms, tg),
            extra)


def _outcome(run, max_states, targets=None):
    try:
        return run(max_states, targets)
    except BudgetExceededError:
        return "budget"


def _agrees(got, want):
    """An engine outcome, (orbit, hit) or "budget", against a reference
    one, (visit order, hit) or "budget".  The reference lists distinct
    states, so equal counts and every listed state a member mean equal
    state sets."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    (orbit, hit), (order, want_hit) = got, want
    return (hit == want_hit and len(orbit) == len(order)
            and orbit.contains(np.array(order)).all())


@pytest.mark.parametrize("kind", REFERENCE_CASES)
class TestEngineMatchesKeyByKeyBFS:
    def test_visited_set(self, kind):
        engine, ref, _ = _reference_case(kind)
        order, hit = ref(400000, None)
        assert _agrees(engine(400000, None), (order, hit))
        assert hit is False and len(order) > 100

    def test_budget_trip_point(self, kind):
        engine, ref, _ = _reference_case(kind)
        n = len(ref(400000, None)[0])
        for ms in (0, 1, 2, 7, n // 3, n - 2, n - 1, n):
            assert _agrees(_outcome(engine, ms), _outcome(ref, ms)), ms


def test_engine_target_hits_match_key_by_key_bfs():
    for kind in ("conjugation", "outside-seed", "d12"):
        engine, ref, extra = _reference_case(kind)
        order, _ = ref(400000, None)
        for pos in (1, 5, 6, len(order) // 2, len(order) - 1):
            targets = {order[pos]} | extra
            for ms in (pos - 2, pos - 1, pos, pos + 1, 400000):
                got, want = (_outcome(engine, ms, targets),
                             _outcome(ref, ms, targets))
                assert _agrees(got, want), (kind, pos, ms)


# one small discriminant per field: its forms at height 3, and the
# oracle's matrices for its Pell solution, split into a few orbits
PARTITION_CASES = [(5, (-3, 4)), (8, (0, 4)), (12, (0, 2)), (13, (-1, 1)),
                   (17, (-3, 3))]


def _partition_case(kind, D, d):
    """(rows, engine(rows, max_states, keep_states) -> (seeds, orbit),
    reference(rows, max_states) -> partition_ref result) with the caps
    1.5 times the boxes that bound the rows; like class_number, the
    engine keeps only roots unless asked."""
    F = make_field(D)
    d = canonical_disc(QuadInt(D, *d), F)
    if kind == "form":
        cap1, cap2 = (1.5 * h for h in _form_boxes(d, 3.0))
        rows = enumerate_forms(d, F, height=3.0)
        orbit_of, ref_map, canon = form_orbit, form_neighbors_ref(D), tuple
    else:
        pell = pell_fundamental(d, F)
        m1, m2 = _matrix_boxes(pell, 3.0)
        cap1, cap2 = 1.5 * m1, 1.5 * m2
        rows = _matrix_keys(pell, F, m1, m2)
        rows = np.concatenate([rows, -rows[::3]])  # -g is g in PSL(2, O_K)

        def orbit_of(seeds, D, cap1, cap2, max_states, keep_states):
            return conjugation_orbit(seeds, D, cap1, cap2, max_states,
                                     keep_states=keep_states)[0]
        ref_map = conj_neighbors_ref(D)

        def canon(key):
            return normalize_key_ref(key, D)

    def engine(rows, ms, keep=False):
        seeds = np.unique(rows, axis=0)
        return seeds, orbit_of(seeds, D, cap1, cap2, ms, keep)

    return (rows, engine,
            lambda rows, ms: partition_ref(rows.tolist(), ref_map,
                                           height_ok_ref(D, cap1, cap2),
                                           ms, canon))


def _engine_partition(seeds, orbit):
    """(reps, rep_of) of an engine partition, as partition_ref gives."""
    keys = list(map(tuple, seeds.tolist()))
    return ([keys[i] for i in orbit.reps],
            {k: keys[r] for k, r in zip(keys, orbit.roots)})


@pytest.mark.parametrize("D,d", PARTITION_CASES)
@pytest.mark.parametrize("kind", ["form", "matrix"])
def test_partition_matches_seed_by_seed_reference(kind, D, d):
    rows, engine, ref = _partition_case(kind, D, d)
    reps, rep_of, sizes = ref(rows, 400000)
    seeds, orbit = engine(rows, 400000)
    assert _engine_partition(seeds, orbit) == (reps, rep_of)
    assert len(seeds) > 30 and len(reps) > 1
    with pytest.raises(ValueError, match="only the roots"):
        orbit.contains(seeds)
    # the input order does not matter
    perm = np.random.default_rng(D).permutation(len(rows))
    assert _engine_partition(*engine(rows[perm], 400000)) == (reps, rep_of)
    # the search raises exactly when some orbit of the loop exceeds the
    # state budget
    for ms in sorted({0, 1, min(sizes) - 1, min(sizes), max(sizes) - 1,
                      max(sizes)}):
        raised = any(size > max(ms, 1) for size in sizes)
        if raised:
            with pytest.raises(BudgetExceededError,
                               match=f"orbit exceeded {ms} states"):
                engine(rows, ms)
        else:
            assert len(engine(rows, ms)[1]) == sum(sizes)


def test_several_seeds_lie_inside_the_caps_and_take_no_targets():
    # the outside seed of _reference_case("outside-seed")
    D, cap = 8, 30.0
    s = elem(D, ((0, 0), (-1, 0), (1, 0), (0, 0)))
    mu = elem(D, ((1, 0), (2, 3), (0, 0), (1, 0)))
    outside = (mu * s * mu.inverse()).key()
    with pytest.raises(ValidationError, match="inside the caps"):
        conjugation_orbit([s.key(), outside], D, cap, cap)
    with pytest.raises(ValidationError, match="no targets"):
        conjugation_orbit([s.key(), s.key()], D, cap, cap,
                          targets={s.key()})


@pytest.mark.parametrize("kind", REFERENCE_CASES + ["form-rows",
                                                    "matrix-rows"])
def test_orbit_len_is_the_state_count(kind):
    # bench/spans.py counts states as len(conjugation_orbit(...)[0]) and
    # len(form_orbit(...)); from many seeds, that is the sum of the sizes
    # of the orbits the seed-by-seed loop visits
    if kind in REFERENCE_CASES:
        engine, ref, _ = _reference_case(kind)
        orbit, _ = engine(400000, None)
        assert len(orbit) == len(ref(400000, None)[0])
        return
    rows, engine, ref = _partition_case(kind[:-5], *PARTITION_CASES[0])
    want = sum(ref(rows, 400000)[2])
    for keep in (False, True):
        assert len(engine(rows, 400000, keep)[1]) == want


class TestArithmeticGuards:
    """Caps or seeds that could overflow int64 fail before any search:
    each test patches out the function a search would call first."""

    def test_orbit_seed_too_large(self, monkeypatch):
        monkeypatch.setattr(modgroup, "_conj_neighbors", None)
        with pytest.raises(BudgetExceededError, match="int64"):
            conjugation_orbit((1, 0, 2 ** 40, 0, 0, 0, 1, 0), 5, 12.0, 12.0)

    def test_orbit_caps_too_large_to_pack(self, monkeypatch):
        monkeypatch.setattr(pellforms, "_form_neighbors", None)
        with pytest.raises(BudgetExceededError, match="packed keys"):
            form_orbit((1, 0, 1, 0, -1, 1), 5, 1e5, 1e5)

    def test_matrix_boxes(self, monkeypatch):
        monkeypatch.setattr(modgroup, "_box_rows", None)
        F = make_field(5)
        with pytest.raises(BudgetExceededError, match="int64"):
            _matrices_with_trace(F, QuadInt(5, 3, 1), 1e9, 1e9)

    def test_form_boxes(self, monkeypatch):
        monkeypatch.setattr(pellforms, "_box_rows", None)
        F = make_field(5)
        with pytest.raises(BudgetExceededError, match="int64"):
            enumerate_forms(QuadInt(5, -7, 5), F, height=1e9)

    def test_oracle_filter(self, monkeypatch):
        # the products with conj(u0) fit int64, but the primitivity minors
        # of the quotient would square its coordinates past int64
        F = make_field(5)
        pell = pellforms.pell_fundamental(QuadInt(5, 1, 8), F)  # u0 = 1
        big = np.array([[2 ** 31, 0, 1, 0, 1, 0, -2 ** 31, 0]])
        monkeypatch.setattr(pellforms, "_matrices_with_trace",
                            lambda *args: big)
        monkeypatch.setattr(pellforms, "_coord_mul", None)
        with pytest.raises(BudgetExceededError, match="matrix boxes"):
            _matrix_keys(pell, F, 10.0, 10.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 8, 12, 13]), st.integers(-9, 9), st.integers(-5, 5),
       st.floats(1.0, 12.0), st.floats(1.0, 12.0))
def test_matrices_with_trace_match_per_a_loop(D, ta, tb, cap1, cap2):
    F = make_field(D)
    tr = QuadInt(D, ta, tb)
    got = _matrices_with_trace(F, tr, cap1, cap2)
    want = matrices_with_trace_ref(F, tr, cap1, cap2)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 8, 13]), st.floats(1.0, 40.0),
       st.floats(1.0, 40.0), st.sampled_from([6, 8]), st.data())
def test_packed_keys_injective_on_in_cap_rows(D, cap1, cap2, width, data):
    pts = [(p.a, p.b) for p in lattice_points(D, cap1, cap2)]
    picks = st.lists(st.sampled_from(pts), min_size=width // 2,
                     max_size=width // 2)
    rows = np.array([sum(data.draw(picks), ()) for _ in range(12)]
                    + [sum(data.draw(picks), ())] * 2, dtype=np.int64)
    rows = rows[height_predicate(D, cap1, cap2)(rows)]
    zero = np.zeros((1, width), dtype=np.int64)
    pack, unpack = _row_packer("test", D, cap1, cap2, zero)
    keys = pack(rows)
    assert len(set(keys.tolist())) == len({tuple(r) for r in rows.tolist()})
    # the frontier is kept as keys: in-cap rows come back exactly
    assert np.array_equal(unpack(keys), rows)
    if width == 6:
        return
    # rows whose first two pairs vanish tie with their negatives on the
    # real half of the key
    tied = rows.copy()
    tied[:, :4] = 0
    rows = np.concatenate([rows, tied])
    keys, neg = pack(rows), pack(-rows)
    # every pair index maps to R - 1 - idx under negation
    A = math.floor(cap1 + cap2) + 1
    B = math.floor((cap1 + cap2) / math.sqrt(D)) + 1
    top = ((2 * A + 1) * (2 * B + 1)) ** 2 - 1
    assert (neg.real == top - keys.real).all()
    assert (neg.imag == top - keys.imag).all()
    # the PSL key is the smaller of key(g) and key(-g): one per sign pair
    canon, uncanon = _row_packer("test", D, cap1, cap2, zero, psl=True)
    assert (canon(rows) == canon(-rows)).all()
    # a PSL key unpacks to one of the two signs
    back = uncanon(canon(rows))
    assert ((back == rows).all(axis=1) | (back == -rows).all(axis=1)).all()
    assert [min(k, m, key=lambda z: (z.real, z.imag))
            for k, m in zip(keys.tolist(), neg.tolist())] \
        == canon(rows).tolist()
    both = np.concatenate([rows, -rows])
    pairs = {min(tuple(r), tuple(-v for v in r)) for r in both.tolist()}
    assert len(set(canon(both).tolist())) == len(pairs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 8, 12]),
       st.lists(st.integers(-50, 50), min_size=8, max_size=8)
       .filter(any))
def test_row_normalization_matches_key_normalization(D, key):
    t, _ = _omega_trace_norm(D)
    rows = _normalize_rows(np.array([key, [-v for v in key]]), D, t)
    want = normalize_key_ref(key, D)
    assert [tuple(r) for r in rows.tolist()] == [want, want]


@pytest.mark.parametrize("D,height_bound",
                         [(D, 6.0) for D in sorted(CLASS_NUMBER_ONE)]
                         + [(5, 8.0), (8, 8.0), (12, 8.0)])
def test_elliptic_candidates_match_per_candidate_reference(D, height_bound):
    # the reference asserts the PSL order of every candidate, which the
    # census checks on one representative per class
    F = make_field(D)
    got = _elliptic_candidates(F, height_bound)
    for rows in got.values():
        assert np.array_equal(rows, np.unique(rows, axis=0))
    assert {nu: set(map(tuple, rows.tolist())) for nu, rows in got.items()} \
        == elliptic_candidates_ref(F, height_bound)


class TestCensus:
    @pytest.mark.parametrize("D", [5, 8, 12])
    def test_certified_tables(self, D):
        F = make_field(D)
        classes = enumerate_elliptic(F, height_bound=6.0)
        assert [(c.nu, c.t) for c in classes] == CENSUS[D]

    @pytest.mark.parametrize("D", [5, 8, 12])
    def test_stability_under_larger_bound(self, D):
        F = make_field(D)
        a = [(c.nu, c.t) for c in enumerate_elliptic(F, height_bound=6.0)]
        b = [(c.nu, c.t) for c in enumerate_elliptic(F, height_bound=9.0)]
        assert a == b

    def test_reps_have_advertised_invariants(self):
        F = make_field(8)
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
        F = make_field(8)
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
