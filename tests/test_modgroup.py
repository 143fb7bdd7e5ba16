import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hilbert_selberg import modgroup, orbits, pellforms, quadfield
from hilbert_selberg.errors import (BudgetExceededError, InvariantViolation,
                                   ValidationError)
from hilbert_selberg.modgroup import (
    GroupElem, classify, conjugation_orbit, enumerate_elliptic,
    _conj_neighbors, _elliptic_candidates, _matrices_with_trace,
)
from hilbert_selberg.orbits import (height_predicate, unique_rows,
                                    _box_rows, _factor_pairs, _row_packer)
from hilbert_selberg.pellforms import (enumerate_forms, form_orbit,
                                       pell_fundamental, _form_boxes,
                                       _form_neighbors)
from hilbert_selberg.quadfield import (CLASS_NUMBER_ONE, QuadInt,
                                       canonical_disc, fundamental_unit,
                                       lattice_points, make_field,
                                       _omega_trace_norm)

from oracles import (capped_bfs_ref, conj_neighbors_ref,
                     elliptic_candidates_ref, factor_pairs_ref,
                     form_neighbors_ref, height_ok_ref, matrix_boxes_ref,
                     matrix_keys_ref, matrices_with_trace_ref,
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
        _, reps = conjugation_orbit([g.key(), h.key()], D, 30.0, 30.0)
        assert len(reps) == 1

    def test_orbit_is_conjugation_closed(self):
        D, cap = 5, 12.0
        g = elem(D, ((0, 0), (-1, 0), (1, 0), (1, 0)))
        members = capped_bfs_ref(g.key(), conj_neighbors_ref(D),
                                 height_ok_ref(D, cap, cap), 400000)
        assert _is_the_orbit(
            lambda seeds: conjugation_orbit(seeds, D, cap, cap)[0],
            members, _conj_neighbors, D, cap)
        # every member has the same PSL trace and classification
        for key in members[:50]:
            h = GroupElem.from_key(key, D)
            assert classify(h).kind == "elliptic"
            tr = h.trace()
            assert tr == g.trace() or tr == -g.trace()


def _in_seed_trace(order):
    """A reference walk's visit order, seed first, as an array; matrix
    keys, which the walk sign-normalizes, each in the sign of the seed's
    trace, the one sign a conjugation search takes."""
    rows = np.array(order)
    if rows.shape[1] == 8:
        traces = rows[:, 0:2] + rows[:, 6:8]
        rows[(traces != traces[0]).any(axis=1)] *= -1
    return rows


def _is_the_orbit(orbit_of, members, neighbors, D, cap):
    """Seeded with the states of a reference orbit and their in-cap
    neighbour images, the engine finds one component with the
    reference's state count: it visits the same states, and they are
    closed under the neighbour map inside the caps."""
    t, n = _omega_trace_norm(D)
    rows = _in_seed_trace(members)
    images = neighbors(rows, D, t, n)
    images = images[height_predicate(D, cap, cap)(images)]
    orbit = orbit_of(np.unique(np.concatenate([rows, images]), axis=0))
    return len(orbit.reps) == 1 and len(orbit) == len(members)


def _budgeted(ms, search, *args):
    """search(*args) with orbits.MAX_STATES, the state budget of every
    search, monkeypatched to ms; a search of one group that failed
    raises its budget error, as its callers do from Orbit.failed[0]."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "MAX_STATES", ms)
        out = search(*args)
        orbit = out[0] if isinstance(out, tuple) else out
        if orbit.failed.tolist() == [True]:
            what = "conjugation" if np.shape(args[0])[-1] == 8 else "form"
            raise orbits.budget_error(what)
    return out


def _orbit_case(kind):
    """(seed, orbit(seeds, cap, budget), neighbor map, reference map)
    over Q(sqrt 5)."""
    D = 5
    if kind == "conjugation":
        g = elem(D, ((0, 0), (-1, 0), (1, 0), (1, 0)))
        return (normalize_key_ref(g.key(), D),
                lambda seeds, cap, ms: _budgeted(
                    ms, conjugation_orbit, seeds, D, cap, cap)[0],
                _conj_neighbors, conj_neighbors_ref(D))
    seed = min(map(tuple, enumerate_forms(QuadInt(D, -7, 5),
                                          make_field(D)).tolist()))
    return (seed,
            lambda seeds, cap, ms: _budgeted(ms, form_orbit, seeds, D, cap,
                                             cap),
            _form_neighbors, form_neighbors_ref(D))


@pytest.mark.parametrize("kind", ["conjugation", "form"])
class TestOrbitEngine:
    CAP = 12.0

    def test_closed_under_neighbors_within_caps(self, kind):
        D = 5
        seed, orbit_of, neighbors, ref_map = _orbit_case(kind)
        # the orbit's states, listed by the key-by-key walk
        members = capped_bfs_ref(seed, ref_map,
                                 height_ok_ref(D, self.CAP, self.CAP), 400000)
        assert len(members) > 1
        assert _is_the_orbit(lambda seeds: orbit_of(seeds, self.CAP, 400000),
                             members, neighbors, D, self.CAP)

    def test_budget_trips_at_the_state_count(self, kind):
        seed, orbit_of, _, _ = _orbit_case(kind)
        full = orbit_of(seed, self.CAP, 400000)
        assert len(orbit_of(seed, self.CAP, len(full))) == len(full)
        with pytest.raises(BudgetExceededError,
                           match=f"{kind} orbit exceeded {len(full) - 1} "):
            orbit_of(seed, self.CAP, len(full) - 1)
        with pytest.raises(BudgetExceededError):
            orbit_of(seed, self.CAP, 3)


REFERENCE_CASES = ["conjugation", "form", "d12"]


def _reference_case(kind):
    """(engine(seeds, budget), reference(budget), seed) for one orbit:
    the engine's orbit and the key-by-key walk's visit order."""
    if kind == "form":
        D, cap = 5, 12.0
        seed = min(map(tuple, enumerate_forms(QuadInt(D, -7, 5),
                                              make_field(D)).tolist()))
        return (lambda seeds, ms: _budgeted(ms, form_orbit, seeds, D, cap,
                                            cap),
                lambda ms: capped_bfs_ref(seed, form_neighbors_ref(D),
                                          height_ok_ref(D, cap, cap), ms),
                seed)
    if kind == "conjugation":
        # the D = 8 orbit of test_direct_conjugates_are_reached
        D, cap = 8, 30.0
        seed = elem(D, ((0, 0), (-1, 0), (1, 0), (0, 0))).key()
    else:
        # D = 12, where w = sqrt 3 has trace t = 0: an order-6 rotation
        D, cap = 12, 30.0
        seed = elem(D, ((0, 1), (-1, 0), (1, 0), (0, 0))).key()
    return (lambda seeds, ms: _budgeted(ms, conjugation_orbit, seeds, D, cap,
                                        cap)[0],
            lambda ms: capped_bfs_ref(seed, conj_neighbors_ref(D),
                                      height_ok_ref(D, cap, cap), ms),
            seed)


def _outcome(run):
    """The state count of a run, or "budget" if it raised."""
    try:
        return len(run())
    except BudgetExceededError:
        return "budget"


@pytest.mark.parametrize("kind", REFERENCE_CASES)
class TestEngineMatchesKeyByKeyBFS:
    def test_visited_set(self, kind):
        # the reference lists distinct states, so one component of as
        # many states from all of them is exactly the reference's set
        engine, ref, _ = _reference_case(kind)
        order = ref(400000)
        assert len(order) > 100
        orbit = engine(np.unique(_in_seed_trace(order), axis=0), 400000)
        assert len(orbit.reps) == 1 and len(orbit) == len(order)

    def test_budget_trip_point(self, kind):
        # both raise exactly when the state count exceeds the budget
        engine, ref, seed = _reference_case(kind)
        n = len(ref(400000))
        for ms in (0, 1, 2, 7, n // 3, n - 2, n - 1, n):
            assert (_outcome(lambda: engine(seed, ms))
                    == _outcome(lambda: ref(ms))), ms


# [[A, B], [C, E]] -> [[A, -B], [-C, E]], conjugation by diag(1, -1)
_CONJ_P = np.array([1, 1, -1, -1, -1, -1, 1, 1])


# one small discriminant per field: its forms at height 3, and the
# oracle's matrices for its Pell solution, split into a few orbits
PARTITION_CASES = [(5, (-3, 4)), (8, (0, 4)), (12, (0, 2)), (13, (-1, 1)),
                   (17, (-3, 3))]


def _both_halves(kind, rows):
    """The distinct rows of both definiteness halves, in increasing
    order, from the rows of one: forms and their negatives, or matrices
    and their conjugates [[A, -B], [-C, E]] by diag(1, -1)."""
    if kind == "form":
        return unique_rows(np.concatenate([rows, -rows]))
    return unique_rows(np.concatenate([rows, rows * _CONJ_P]))


def _partition_case(kind, D, d):
    """(rows, engine(rows, budget) -> (seeds, orbit),
    reference(rows, budget) -> partition_ref result) with the caps
    1.5 times the boxes that bound the rows."""
    F = make_field(D)
    d = canonical_disc(QuadInt(D, *d), F)
    if kind == "form":
        cap1, cap2 = (1.5 * h for h in _form_boxes(d, 3.0))
        rows = _both_halves("form", enumerate_forms(d, F, height=3.0))
        orbit_of, ref_map, canon = form_orbit, form_neighbors_ref(D), tuple
    else:
        pell = pell_fundamental(d, F)
        m1, m2 = matrix_boxes_ref(pell, 3.0)
        cap1, cap2 = 1.5 * m1, 1.5 * m2
        rows = _both_halves("matrix", matrix_keys_ref(pell, F, m1, m2))

        def orbit_of(seeds, D, cap1, cap2):
            return conjugation_orbit(seeds, D, cap1, cap2)[0]
        ref_map = conj_neighbors_ref(D)

        def canon(key):
            return normalize_key_ref(key, D)

    def engine(rows, ms):
        seeds = np.unique(rows, axis=0)
        return seeds, _budgeted(ms, orbit_of, seeds, D, cap1, cap2)

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


def _matches_reference(rows, engine, ref):
    """The engine's roots, reps, state count and budget verdicts on the
    rows are those of the seed-by-seed reference: the largest orbit's
    size as the budget passes, one less raises."""
    reps, rep_of, sizes = ref(rows, 400000)
    seeds, orbit = engine(rows, 400000)
    assert _engine_partition(seeds, orbit) == (reps, rep_of)
    assert len(orbit) == sum(sizes) and max(sizes) > 1
    assert len(engine(rows, max(sizes))[1]) == sum(sizes)
    with pytest.raises(BudgetExceededError):
        engine(rows, max(sizes) - 1)


def _mirrored(rows, mirror):
    return {tuple(r) for r in (rows @ mirror.T).tolist()}


@pytest.mark.parametrize("D", [5, 8, 12])
def test_mirror_search_on_census_candidates(D):
    # each order's candidates, trace 0 for nu = 2, as one search; the
    # mirror [[E, B], [C, A]] keeps the trace, b and c, so it maps a
    # candidate onto a candidate exactly when its unbounded d = E lies in
    # the entry box; for nu = 2, [[0, B], [C, 0]] is its own image
    F, cap = make_field(D), 10.0
    for nu, rows in _elliptic_candidates(F, 4.0).items():
        seeds = set(map(tuple, rows.tolist()))
        in_box = height_predicate(D, 4.0, 4.0)(rows[:, 6:8])
        assert in_box.any()
        assert _mirrored(rows, modgroup._CONJ_MIRROR) & seeds \
            == _mirrored(rows[in_box], modgroup._CONJ_MIRROR)
        fixed = (rows[:, 0:2] == rows[:, 6:8]).all(axis=1)
        assert fixed.any() == (nu == 2) and 2 * fixed.sum() < len(rows)
        _matches_reference(
            rows,
            lambda rows, ms: (rows, _budgeted(ms, conjugation_orbit, rows,
                                              D, cap, cap)[0]),
            lambda rows, ms: partition_ref(
                rows.tolist(), conj_neighbors_ref(D),
                height_ok_ref(D, cap, cap), ms,
                lambda key: normalize_key_ref(key, D)))


@pytest.mark.parametrize("D,d", PARTITION_CASES[:3])
def test_mirror_search_on_random_form_subsets(D, d):
    rows, engine, ref = _partition_case("form", D, d)
    rng = np.random.default_rng(D)
    for size in (2, 5, 12, len(rows) // 2):
        subset = rows[rng.choice(len(rows), size, replace=False)]
        if size > 2:  # not closed under the mirror
            assert _mirrored(subset, pellforms._FORM_MIRROR) != set(
                map(tuple, subset.tolist()))
        _matches_reference(subset, engine, ref)


def test_mirror_search_with_self_mirror_forms():
    # the forms (a, 0, c) of d = -4 + 4w are their own mirror images
    rows, engine, ref = _partition_case("form", 5, (-4, 4))
    assert (rows[:, 2:4] == 0).all(axis=1).sum() >= 10
    _matches_reference(rows, engine, ref)
    _matches_reference(rows[(rows[:, 2:4] == 0).all(axis=1)], engine, ref)
    # at caps (6, 5) the forms (-1 - w, -+(2 + 2w), -4 + w) are mirror
    # images joined only through (-1 - w, 0, -3 + 2w), their image under
    # T_-+1, whose other edges leave the caps: one orbit of six states
    D, cap1, cap2 = 5, 6.0, 5.0
    pair = np.array([[-1, -1, -2, -2, -4, 1], [-1, -1, 2, 2, -4, 1]])
    reps, _, sizes = partition_ref(pair.tolist(), form_neighbors_ref(D),
                                   height_ok_ref(D, cap1, cap2), 400000)
    orbit = form_orbit(pair, D, cap1, cap2)
    assert len(reps) == len(orbit.reps) == 1
    assert sizes == [len(orbit)] == [6]


def _census_case(D, cap=10.0):
    """_partition_case for the trace-0 census candidates of D, whose
    elements are their own negatives."""
    rows = _elliptic_candidates(make_field(D), 4.0)[2]
    return (rows,
            lambda rows, ms: (rows, _budgeted(ms, conjugation_orbit, rows,
                                              D, cap, cap)[0]),
            lambda rows, ms: partition_ref(
                rows.tolist(), conj_neighbors_ref(D),
                height_ok_ref(D, cap, cap), ms,
                lambda key: normalize_key_ref(key, D)))


def _blocked_run(engine, rows, ms, block, monkeypatch):
    """engine(rows, ms) with the images of a level formed `block`
    frontier rows at a time: (partition, state count, levels), or
    ("budget", levels) when it raised, levels the _dedup passes run."""
    passes = []
    dedup = orbits._dedup
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_BFS_BLOCK", block)
        patch.setattr(orbits, "_dedup",
                      lambda *args: passes.append(1) or dedup(*args))
        try:
            seeds, orbit = engine(rows, ms)
        except BudgetExceededError:
            return "budget", len(passes)
    return _engine_partition(seeds, orbit), len(orbit), len(passes)


@pytest.mark.parametrize("case", [("form", 5, (-3, 4)), ("matrix", 8, (0, 4)),
                                  ("census", 5), ("census", 12)],
                         ids=["form-5", "matrix-8", "census-5", "census-12"])
def test_levels_over_several_blocks(case, monkeypatch):
    # a level whose images are formed in blocks of a few frontier rows
    # gives the roots, state count and budget verdict of one block per
    # level and of the seed-by-seed reference, and a budget error at
    # the same level
    if case[0] == "census":
        rows, engine, ref = _census_case(case[1])
    else:
        rows, engine, ref = _partition_case(*case)
    reps, rep_of, sizes = ref(rows, 400000)
    for ms in sorted({400000, 0, min(sizes), max(sizes) - 1, max(sizes)}):
        runs = [_blocked_run(engine, rows, ms, block, monkeypatch)
                for block in (orbits._BFS_BLOCK, 1, 3)]
        assert runs[1:] == runs[:1] * 2, ms
        if any(size > max(ms, 1) for size in sizes):
            assert runs[0][0] == "budget"
        else:
            assert runs[0][:2] == ((reps, rep_of), sum(sizes))
            # a pair is at most two states, so some level carries more
            # than three rows: it spans several blocks of three
            assert sum(sizes) > 2 * 3 * runs[0][2]


def _group_cases(kind, D, discs):
    """(search(seeds, cap1, cap2, groups), [(rows, cap1, cap2)]): the
    distinct rows of both halves of each discriminant's forms or oracle
    matrices at height 3, with caps 1.5 times their boxes."""
    F = make_field(D)
    cases = []
    for d in discs:
        d = canonical_disc(QuadInt(D, *d), F)
        if kind == "form":
            boxes = _form_boxes(d, 3.0)
            rows = enumerate_forms(d, F, height=3.0)
        else:
            pell = pell_fundamental(d, F)
            boxes = matrix_boxes_ref(pell, 3.0)
            rows = matrix_keys_ref(pell, F, *boxes)
        cases.append((_both_halves(kind, rows), *(1.5 * b for b in boxes)))
    if kind == "form":
        return (lambda *args: form_orbit(args[0], D, *args[1:])), cases
    # the census searches one group; the engine's grouped conjugation
    # search is tested here on the oracle's matrices
    return (lambda *args: orbits.capped_bfs(
        "conjugation", args[0], functools.partial(modgroup._conj_tables, D),
        D, *args[1:])), cases


@pytest.mark.parametrize("kind", ["form", "matrix"])
def test_groups_search_as_their_own_searches(kind, monkeypatch):
    # three discriminants, each with its own caps and, for matrices, its
    # own trace, as the groups of one search: each group keeps the roots,
    # state count and budget verdict of its own search, and the run
    # walks as many levels as the deepest group
    search, cases = _group_cases(kind, 5, [(-3, 4), (-7, 5), (-4, 4)])
    passes = []
    dedup = orbits._dedup
    monkeypatch.setattr(orbits, "_dedup",
                        lambda *args: passes.append(1) or dedup(*args))

    def alone(rows, cap1, cap2, ms):
        """(roots, states, levels) of a group's own search, or None when
        it raised."""
        passes.clear()
        try:
            orbit = _budgeted(ms, search, rows, cap1, cap2)
        except BudgetExceededError:
            return None
        return orbit.roots.tolist(), len(orbit), len(passes)

    seeds = np.concatenate([rows for rows, _, _ in cases])
    groups = np.repeat(np.arange(3), [len(rows) for rows, _, _ in cases])
    starts = np.cumsum([0] + [len(rows) for rows, _, _ in cases])
    caps = np.array([caps for _, *caps in cases]).T
    sizes = [alone(*case, 400000)[1] for case in cases]
    assert len(set(map(tuple, caps.T.tolist()))) == 3
    verdicts = set()
    for ms in [400000, 0, *range(1, max(sizes), max(sizes) // 16)]:
        own = [alone(*case, ms) for case in cases]
        passes.clear()
        orbit = _budgeted(ms, search, seeds, *caps, groups)
        assert orbit.failed.tolist() == [out is None for out in own], ms
        verdicts.add(tuple(orbit.failed.tolist()))
        for g, out in enumerate(own):
            if out is not None:
                roots = orbit.roots[starts[g]:starts[g + 1]] - starts[g]
                assert roots.tolist() == out[0]
        if None not in own:
            assert len(orbit) == sum(out[1] for out in own)
            assert len(passes) == max(out[2] for out in own)
    # some budget fails one group and passes another
    assert any(len(set(v)) == 2 for v in verdicts)
    if kind == "matrix":
        # a group's seeds must share one trace, and trace 0, where g and
        # -g share a key, searches as one group
        with pytest.raises(ValidationError, match="share one trace"):
            search(seeds, *caps, np.roll(groups, 1))
        rows = _elliptic_candidates(make_field(5), 4.0)[2]
        with pytest.raises(ValidationError, match="trace 0"):
            search(rows, [10.0, 10.0], [10.0, 10.0],
                   np.arange(len(rows)) % 2)


def test_trace_zero_seeds_search_as_one_group():
    # at trace 0, g and -g share the smaller of two keys, which no group
    # offset keeps apart from another group's: the census's order-2
    # candidates search as one group, but not split into two groups, nor
    # as a group beside one of another trace
    D, cap = 5, 10.0
    rows = _elliptic_candidates(make_field(D), 4.0)[2]
    other = _elliptic_candidates(make_field(D), 4.0)[3]
    orbit, _ = conjugation_orbit(rows, D, cap, cap)
    assert orbit.failed.tolist() == [False] and len(orbit.reps) > 1
    for seeds, groups in ((rows, np.arange(len(rows)) % 2),
                          (np.concatenate([other, rows]),
                           np.repeat([0, 1], [len(other), len(rows)]))):
        with pytest.raises(ValidationError) as exc:
            conjugation_orbit(seeds, D, [cap, cap], [cap, cap], groups)
        assert str(exc.value) == ("conjugation seeds of trace 0 must search "
                                  "as one group")


def test_mirror_must_be_a_symmetry_of_the_generators():
    D, t, n = 5, *_omega_trace_norm(5)
    seed = np.array([[1, 0, 1, 0, -1, 1]])
    tables = orbits.generator_tables(
        "form", lambda rows: _form_neighbors(rows, D, t, n),
        pellforms._FORM_MIRROR)
    orbit = orbits.capped_bfs("form", seed, lambda: tables, D, 12.0, 12.0)
    assert len(orbit) > 1
    for mirror, neighbors in (
            (np.diag([-1, -1, 1, 1, 1, 1]), _form_neighbors),
            (pellforms._FORM_MIRROR,  # T_1 without T_-1: no inverse
             lambda rows, D, t, n: _form_neighbors(rows, D, t, n)[1::5])):
        with pytest.raises(ValidationError, match="exactly one"):
            orbits.generator_tables(
                "form", lambda rows: neighbors(rows, D, t, n), mirror)
    # the mirror must be a signed permutation of whole coordinate pairs
    # with P^2 = I: a sign vector, a 3-cycle of the pairs, a sign on one
    # coordinate of a pair and a pair split across two pairs are refused
    cycle = np.kron(np.eye(3, dtype=int)[[1, 2, 0]], np.eye(2, dtype=int))
    split = np.eye(6, dtype=int)[[0, 2, 1, 3, 4, 5]]
    for mirror in ([1, 1, -1, -1, 1, 1], cycle, np.diag([1, -1, 1, 1, 1, 1]),
                   split, 2 * np.eye(6, dtype=int)):
        with pytest.raises(ValidationError, match="signed permutation"):
            orbits.generator_tables(
                "form", lambda rows: _form_neighbors(rows, D, t, n), mirror)


def test_several_seeds_lie_inside_the_caps_and_take_no_targets():
    # T_mu S T_-mu with mu = 2 + 3w has an entry -23 - 12 sqrt 2 beyond
    # the cap; its edges to in-cap states would run one way only
    D, cap = 8, 30.0
    s = elem(D, ((0, 0), (-1, 0), (1, 0), (0, 0)))
    mu = elem(D, ((1, 0), (2, 3), (0, 0), (1, 0)))
    outside = (mu * s * mu.inverse()).key()
    assert not height_ok_ref(D, cap, cap)(outside)
    with pytest.raises(ValidationError, match="inside the caps"):
        conjugation_orbit([s.key(), outside], D, cap, cap)


@pytest.mark.parametrize("width", [6, 8])
def test_empty_seed_list_is_an_empty_orbit(width):
    # an empty list searches like an empty array of the rows' width:
    # no states, no components and, for conjugation, no rows
    def search(seeds):
        if width == 6:
            return form_orbit(seeds, 5, 10.0, 10.0), ()
        return conjugation_orbit(seeds, 5, 10.0, 10.0)

    for seeds in ([], np.empty((0, width), dtype=np.int64)):
        orbit, reps = search(seeds)
        assert len(orbit) == 0 and orbit.roots.shape == (0,)
        assert len(orbit.reps) == 0 and len(reps) == 0


@pytest.mark.parametrize("kind", REFERENCE_CASES + ["form-rows",
                                                    "matrix-rows"])
def test_orbit_len_is_the_state_count(kind):
    # bench/spans.py counts states as len(conjugation_orbit(...)[0]) and
    # len(form_orbit(...)); from many seeds, that is the sum of the sizes
    # of the orbits the seed-by-seed loop visits
    if kind in REFERENCE_CASES:
        engine, ref, seed = _reference_case(kind)
        assert len(engine(seed, 400000)) == len(ref(400000))
        return
    rows, engine, ref = _partition_case(kind[:-5], *PARTITION_CASES[0])
    assert len(engine(rows, 400000)[1]) == sum(ref(rows, 400000)[2])


def _guard_limit(D):
    """The bound A = floor(cap1 + cap2) + 1 on in-cap coordinates at the
    largest caps whose keys _row_packer accepts, by bisection on the
    integer cap sums."""
    lo, hi = 0, 2 ** 20
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _row_packer("test", D, mid / 2, mid / 2)
            lo = mid
        except BudgetExceededError:
            hi = mid
    return lo + 1


@pytest.mark.parametrize("D", [5, 8, 12, 13])
@pytest.mark.parametrize("kind", ["form", "conjugation"])
def test_float64_neighbour_product_is_exact(kind, D):
    t, n = _omega_trace_norm(D)
    k, neighbors = ((6, _form_neighbors) if kind == "form"
                    else (8, _conj_neighbors))
    M = neighbors(np.eye(k, dtype=np.int64), D, t, n).reshape(k, -1)
    big = _guard_limit(D)
    # every product and partial sum of an image coordinate is at most
    # 4|n| + 8 times the largest coordinate (see the test below)
    assert (4 * abs(n) + 8) * big < 2 ** 31
    rng = np.random.default_rng(D)
    rows = np.concatenate([
        rng.choice([-big, -big + 1, -1, 0, 1, big - 1, big], (2048, k)),
        rng.integers(-big, big, (2048, k), endpoint=True)])
    images = (rows.astype(float) @ M.astype(float)).astype(np.int64)
    assert np.array_equal(images, rows @ M)


@pytest.mark.parametrize("D", sorted(CLASS_NUMBER_ONE))
def test_neighbour_matrices_respect_the_guard_bound(D):
    # the exactness argument of the float64 product on every field
    t, n = _omega_trace_norm(D)
    for k, neighbors in ((6, _form_neighbors), (8, _conj_neighbors)):
        M = neighbors(np.eye(k, dtype=np.int64), D, t, n).reshape(k, -1)
        assert np.abs(M).sum(axis=0).max() <= 4 * abs(n) + 8


class TestArithmeticGuards:
    """Caps or seeds that a search refuses, or that could overflow int64,
    fail before any search: each test patches out the function a search
    would call first.  The orbit tests empty the per-field generator
    table caches, so the tables are not built, whatever ran before."""

    def test_orbit_seed_outside_the_caps(self, monkeypatch):
        modgroup._conj_tables.cache_clear()
        monkeypatch.setattr(modgroup, "_conj_neighbors", None)
        monkeypatch.setattr(orbits, "_row_packer", None)
        with pytest.raises(ValidationError, match="inside the caps"):
            conjugation_orbit((1, 0, 2 ** 40, 0, 0, 0, 1, 0), 5, 12.0, 12.0)

    def test_orbit_caps_too_large_to_pack(self, monkeypatch):
        pellforms._form_tables.cache_clear()
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

    @pytest.mark.parametrize("scan", ["matrices", "forms"])
    def test_factor_norms(self, monkeypatch, scan):
        # boxes whose scan products fit int64 but whose factor-pair
        # norms N(P) might not: at H = 40001 on D = 5 the product bounds
        # stay below 2^53 and the norm bound passes 2^66
        F = make_field(5)
        if scan == "matrices":
            monkeypatch.setattr(modgroup, "_box_rows", None)
            with pytest.raises(BudgetExceededError, match="int64"):
                _matrices_with_trace(F, QuadInt(5, 3, 1), 2e4, 2e4)
        else:
            monkeypatch.setattr(pellforms, "_box_rows", None)
            with pytest.raises(BudgetExceededError, match="int64"):
                enumerate_forms(QuadInt(5, -7, 5), F, height=2e4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 8, 12, 13]), st.integers(-9, 9), st.integers(-5, 5),
       st.floats(1.0, 12.0), st.floats(1.0, 12.0))
def test_matrices_with_trace_match_per_a_loop(D, ta, tb, cap1, cap2):
    # the half scan and its conjugates [[a, -b], [-c, d]] by diag(1, -1)
    # are the per-a loop's matrices, each once
    F = make_field(D)
    tr = QuadInt(D, ta, tb)
    half = _matrices_with_trace(F, tr, cap1, cap2)
    got = np.concatenate([half, half * _CONJ_P])
    want = matrices_with_trace_ref(F, tr, cap1, cap2)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert sorted(got.tolist()) == sorted(want.tolist())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 8, 12, 13]), st.integers(-9, 9), st.integers(-5, 5),
       st.floats(1.0, 12.0), st.floats(1.0, 12.0))
@example(D=5, ta=0, tb=0, cap1=2.0, cap2=1.9999999999999982)
def test_c_half_scan_matches_the_filtered_loop(D, ta, tb, cap1, cap2):
    # the scan that draws c from the half of the box positive at the
    # first embedding lists the per-a loop's matrices whose c is
    # positive there, by the exact sign, ordered by a, then c
    F = make_field(D)
    tr = QuadInt(D, ta, tb)
    got = _matrices_with_trace(F, tr, cap1, cap2)
    want = [row for row in matrices_with_trace_ref(F, tr, cap1, cap2).tolist()
            if QuadInt(D, row[4], row[5]).sign_embed(1) > 0]
    assert got.dtype == np.int64 and got.shape == (len(want), 8)
    assert sorted(got.tolist()) == sorted(want)
    box = [[p.a, p.b] for p in lattice_points(D, cap1, cap2)]
    place = [(box.index(r[0:2]), box.index(r[4:6])) for r in got.tolist()]
    assert place == sorted(place)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 8, 12, 13]), st.floats(1.0, 40.0),
       st.floats(1.0, 40.0), st.sampled_from([6, 8]), st.data())
def test_packed_keys_injective_on_in_cap_rows(D, cap1, cap2, width, data):
    pts = [(p.a, p.b) for p in lattice_points(D, cap1, cap2)]
    picks = st.lists(st.sampled_from(pts), min_size=3, max_size=3)
    rows = np.array([sum(data.draw(picks), ()) for _ in range(16)]
                    + [sum(data.draw(picks), ())] * 2, dtype=np.int64)
    if width == 6:
        pack = _row_packer("test", D, cap1, cap2)
        keys = pack(rows)
        assert keys.dtype == np.int64
        assert len(set(keys.tolist())) \
            == len({tuple(r) for r in rows.tolist()})
        return
    # a slice of matrices [[A, B], [C, E]] of one trace: E = tr - A is
    # not in the key, and only rows with E inside the caps are states
    tr = np.array(data.draw(st.sampled_from([(0, 0)] + pts)))
    rows = np.column_stack([rows, tr - rows[:, 0:2]])
    rows = rows[height_predicate(D, cap1, cap2)(rows)]
    pack = _row_packer("test", D, cap1, cap2, trace=tr)
    keys = pack(rows)
    if tr.any():
        # one element of trace tr for each sign pair: keys are injective
        assert len(set(keys.tolist())) \
            == len({tuple(r) for r in rows.tolist()})
        return
    # trace 0: g and -g share the trace and one key, the smaller of
    # key(g) and key(-g) = R^3 - 1 - key(g)
    A = math.floor(cap1 + cap2) + 1
    B = math.floor((cap1 + cap2) / math.sqrt(D)) + 1
    top = ((2 * A + 1) * (2 * B + 1)) ** 3 - 1
    assert (pack(-rows) == keys).all()
    plain = _row_packer("test", D, cap1, cap2)
    assert (keys == np.minimum(plain(rows[:, :6]), top - plain(rows[:, :6]))
            ).all()
    both = np.concatenate([rows, -rows])
    pairs = {min(tuple(r), tuple(-v for v in r)) for r in both.tolist()}
    assert len(set(pack(both).tolist())) == len(pairs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([6, 8]), st.integers(0, 40), st.data())
def test_unique_rows_matches_np_unique(width, count, data):
    # few distinct values, so duplicate rows are common
    entry = st.sampled_from([-2 ** 40, -3, -1, 0, 1, 2, 2 ** 40])
    rows = np.array(data.draw(st.lists(
        st.lists(entry, min_size=width, max_size=width),
        min_size=count, max_size=count)),
        dtype=np.int64).reshape(count, width)
    got, want = unique_rows(rows), np.unique(rows, axis=0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _factor_rows(D):
    """Rows P: products y*z of small elements, units, rows with a zero
    coordinate, arbitrary rows and zero rows."""
    small = st.tuples(st.integers(-4, 4), st.integers(-4, 4))

    def product(yz):
        (ya, yb), (za, zb) = yz
        p = QuadInt(D, ya, yb) * QuadInt(D, za, zb)
        return p.a, p.b

    def unit(ks):
        sign, k = ks
        u = fundamental_unit(D) ** k * sign
        return u.a, u.b

    row = st.one_of(
        st.tuples(small, small).map(product),
        st.tuples(st.sampled_from([1, -1]), st.integers(-2, 2)).map(unit),
        st.tuples(st.integers(-30, 30), st.just(0)),
        st.tuples(st.just(0), st.integers(-30, 30)),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
    return st.lists(row, min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 8, 12, 13, 17, 41]), st.floats(0.1, 60.0),
       st.floats(0.1, 60.0))
def test_box_rows_match_lattice_points(D, bound1, bound2):
    # the lattice points that pass the height test of the cofactors
    ok = height_predicate(D, bound1, bound2)
    want = [(p.a, p.b) for p in lattice_points(D, bound1, bound2)
            if ok(np.array([p.a, p.b]))]
    got = _box_rows(D, bound1, bound2)
    assert got.dtype == np.int64 and got.shape == (len(want), 2)
    assert got.tolist() == [list(p) for p in want]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([5, 8, 12, 13]), st.floats(1.5, 6.0),
       st.floats(1.5, 6.0), st.floats(1.0, 12.0), st.floats(1.0, 12.0),
       st.data())
def test_factor_pairs_matches_quadint_reference(D, b1, b2, cap1, cap2, data):
    t, _ = _omega_trace_norm(D)
    box = _box_rows(D, b1, b2)
    # conj(y) has the norm of y but is in general no multiple of it (on
    # D = 5, 3 + w = conj(4 - w), both of norm 11, are not associates):
    # norm collisions that are no divisors
    conj = [(ya + t * yb, -yb) for ya, yb in
            data.draw(st.lists(st.sampled_from(box.tolist()), max_size=3))]
    P = np.array(data.draw(_factor_rows(D)) + conj,
                 dtype=np.int64).reshape(-1, 2)
    i, y, z = _factor_pairs(P, box, D, cap1, cap2)
    got = [(r, *yy, *zz) for r, yy, zz in zip(i.tolist(), y.tolist(),
                                              z.tolist())]
    assert got == factor_pairs_ref(P.tolist(), box.tolist(), D, cap1, cap2)


@pytest.mark.parametrize("D", [5, 8, 12, 13])
def test_packer_raises_exactly_when_the_radix_product_reaches_2_63(D):
    # the radix R of a pair index is (2A + 1)(2B + 1); near R = 2^21 the
    # cap sum steps A and B across the limit R^3 < 2^63
    mid = math.sqrt(2 ** 19 * math.sqrt(D))
    raised = []
    for total in np.arange(mid - 6.0, mid + 6.0, 0.25):
        A = math.floor(total) + 1
        B = math.floor(total / math.sqrt(D)) + 1
        R = (2 * A + 1) * (2 * B + 1)
        try:
            _row_packer("test", D, total / 2, total / 2)
            raised.append(False)
        except BudgetExceededError as exc:
            assert "exact packed keys" in str(exc)
            raised.append(True)
        assert raised[-1] == (R ** 3 >= 2 ** 63), total
    assert True in raised and False in raised


def test_seeds_must_share_one_exact_trace():
    # the D = 5 order-3 orbit of test_orbit_is_conjugation_closed, of
    # trace -1 in its seed's sign: from either sign alone it is one
    # orbit, but its negatives, of trace 1, and rows of another trace are
    # refused next to it
    D, cap = 5, 12.0
    g = elem(D, ((0, 0), (-1, 0), (1, 0), (1, 0)))
    rows = _in_seed_trace(capped_bfs_ref(g.key(), conj_neighbors_ref(D),
                                         height_ok_ref(D, cap, cap), 400000))
    assert (rows[:, 0:2] + rows[:, 6:8] == [-1, 0]).all()
    for seeds in (rows, -rows):
        orbit, reps = conjugation_orbit(seeds, D, cap, cap)
        assert len(reps) == 1 and len(orbit) == len(rows)
    other = rows.copy()
    other[:, 6] += 1  # trace 2 + w
    for seeds in (np.concatenate([rows, -rows]), np.concatenate([-rows, rows]),
                  np.concatenate([rows[:1], other[:1]])):
        with pytest.raises(ValidationError, match="seeds must share one "
                           "trace$"):
            conjugation_orbit(seeds, D, cap, cap)


@pytest.mark.parametrize("D", [5, 12])
def test_trace_zero_states_stand_for_their_negatives(D):
    # at trace 0, g and -g are one state: the census's order-2
    # candidates with the negatives of a third of them give the same
    # partition as the candidates alone
    rows, engine, ref = _census_case(D)
    both = np.concatenate([rows, -rows[::3]])
    seeds, orbit = engine(np.unique(both, axis=0), 400000)
    assert len(orbit) == len(engine(rows, 400000)[1])
    assert _engine_partition(seeds, orbit) == ref(both, 400000)[:2]


@pytest.mark.parametrize("D,height_bound",
                         [(D, 6.0) for D in sorted(CLASS_NUMBER_ONE)]
                         + [(5, 8.0), (8, 8.0), (12, 8.0)])
def test_elliptic_candidates_match_per_candidate_reference(D, height_bound):
    # the reference asserts the PSL order of every candidate, which the
    # census checks on one representative per class; the two compare as
    # PSL sets.  Each candidate has trace 2cos(pi/nu) and c positive at
    # the first embedding, and no two are one PSL element
    F = make_field(D)
    got = _elliptic_candidates(F, height_bound)
    two_cos = modgroup._two_cos_table(F)
    psl = {}
    for nu, rows in got.items():
        assert np.array_equal(rows, np.unique(rows, axis=0))
        assert (rows[:, 0:2] + rows[:, 6:8] == [two_cos[nu].a,
                                                two_cos[nu].b]).all()
        assert all(QuadInt(D, ca, cb).sign_embed(1) > 0
                   for ca, cb in rows[:, 4:6].tolist())
        psl[nu] = {normalize_key_ref(key, D) for key in rows.tolist()}
        assert len(psl[nu]) == len(rows)
    assert psl == {nu: {normalize_key_ref(key, D) for key in keys}
                   for nu, keys in elliptic_candidates_ref(
                       F, height_bound).items()}


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

    def test_census_missing_classes_is_a_budget_error(self, monkeypatch):
        # at entry height 1 the D = 5 census finds one class per order;
        # a fresh field, so no census computed earlier is read
        monkeypatch.setattr(quadfield, "_FIELD_MEMO", {})
        monkeypatch.setattr(modgroup, "CENSUS_HEIGHT", 1.0)
        with pytest.raises(BudgetExceededError) as exc:
            modgroup.elliptic_census(make_field(5))
        assert str(exc.value) == (
            "census incomplete for D=5: orders (2, 3, 5), expected "
            "(2, 2, 3, 3, 5, 5); raise CENSUS_HEIGHT > 1.0")

    def test_census_budget_exits_2_at_the_command(self, capsys,
                                                   monkeypatch):
        # the census reads its search's verdict from Orbit.failed[0] and
        # raises the budget error itself: the largest D = 5 census
        # component has 1121 states, so `field` exits 0 at that budget
        # and 2 one state below it; a fresh field each time, so no
        # census computed earlier is read
        from hilbert_selberg.cli import main
        monkeypatch.delenv("HILBERT_SELBERG_CACHE", raising=False)
        for ms, code in ((1121, 0), (1120, 2)):
            monkeypatch.setattr(quadfield, "_FIELD_MEMO", {})
            monkeypatch.setattr(orbits, "MAX_STATES", ms)
            assert main(["field", "--D", "5"]) == code
            out = capsys.readouterr()
            if code:
                assert out.out == ""
                assert out.err == ("budget exceeded: conjugation orbit "
                                   "exceeded 1120 states\n")

    def test_census_extra_classes_is_an_invariant_violation(
            self, monkeypatch):
        monkeypatch.setattr(quadfield, "_FIELD_MEMO", {})
        monkeypatch.setitem(quadfield.CENSUS_ORDERS, 5, (2, 2, 3, 3, 5))
        with pytest.raises(InvariantViolation) as exc:
            modgroup.elliptic_census(make_field(5))
        assert str(exc.value) == (
            "census mismatch for D=5: orders (2, 2, 3, 3, 5, 5), expected "
            "(2, 2, 3, 3, 5)")

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
            # the square's root among [two reps..., square] is its own
            orbit, _ = conjugation_orbit(
                [c.rep.key() for c in twos] + [sq.key()], 8, 25.0, 25.0)
            assert orbit.roots[-1] == len(twos)

    # (nu, t) of every class at heights 2, 3, 4, 6 and 9.  The powers of
    # the order-4 classes (D = 8) and of the order-6 class (D = 12) land
    # at smaller orders; at D = 8 and height 3 an order-2 power outside
    # the candidate box lies in no candidate's component, also at a cap
    # that holds it, so the height is too small (None)
    GRID = {
        5: ["2/1 2/1 3/1 3/2 5/2 5/3"] * 5,
        8: ["2/1 3/1 4/3", None] + ["2/1 2/1 3/1 3/2 4/1 4/3"] * 3,
        12: ["2/1 3/1 6/5", "2/1 2/1 3/1 6/5"]
        + ["2/1 2/1 2/1 3/1 3/1 6/5"] * 3,
        13: ["2/1 3/1", "2/1 3/1 3/1 3/2"]
        + ["2/1 2/1 3/1 3/1 3/2 3/2"] * 3,
        17: ["2/1 3/1", "2/1 3/1", "2/1 2/1 3/1", "2/1 2/1 2/1 2/1 3/1",
             "2/1 2/1 2/1 2/1 3/1 3/2"],
        21: ["2/1 3/1", "2/1 2/1 2/1 3/1 3/1 3/1",
             "2/1 2/1 2/1 3/1 3/1 3/1 3/2",
             "2/1 2/1 2/1 2/1 3/1 3/1 3/1 3/1 3/2 3/2",
             "2/1 2/1 2/1 2/1 2/1 2/1 3/1 3/1 3/1 3/1 3/1 3/1 3/2 3/2"],
    }

    @pytest.mark.parametrize("D", sorted(GRID))
    def test_census_grid_frozen(self, D):
        F = make_field(D)
        for height, want in zip((2.0, 3.0, 4.0, 6.0, 9.0), self.GRID[D]):
            if want is None:
                with pytest.raises(BudgetExceededError,
                                   match="order-2 power of an order-4 class "
                                         "lies outside the candidate box; "
                                         "raise height_bound > 3.0"):
                    enumerate_elliptic(F, height)
                continue
            got = " ".join(f"{c.nu}/{c.t}"
                           for c in enumerate_elliptic(F, height))
            assert got == want, height

    def test_census_memoized_and_certified(self):
        F = make_field(12)
        assert F.euler_char == 4
        orders = sorted(nu for nu, _ in F.census_classes())
        assert orders == [2, 2, 2, 3, 3, 6]
