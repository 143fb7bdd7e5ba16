"""The orbit engine: height-capped breadth-first search over integer
coordinate rows, shared by matrix conjugation (`modgroup`) and the form
action (`pellforms`).

States are integer coordinate rows; a level is the sorted int64 array of
the exact keys its in-cap states pack to, and it carries each state's
label, coordinate row and back edge, so no tuple is built per state, nor
a row rebuilt from its key.  A level is one pass: its frontier's images
are formed a block of rows at a time, then deduplicated, looked up in
the current and the previous level and merged into the components once.
The generator tables are built and checked once per route and field.
Each level's images are deduplicated against the current and the
previous level alone.  That is exact because the capped generator graph
is undirected: S is an involution (on forms, and under conjugation
since S^2 = -1 is central), T_mu^-1 = T_-mu, and the height test is a
property of the state, so a neighbour of a level-k state lies on level
k - 1, k or k + 1.  A state carries its back edge: the generator
that maps its carried row onto its parent's on level k - 1.  That
image is dropped after the height test; the edge was seen from the
parent's end.

A state's key is one int64: the base-R number whose digits are the box
indices of its first three coordinate pairs (see _row_packer).  A form
has three pairs.  A conjugation state [[A, B], [C, E]] has four, but
conjugation keeps the trace, so every state of one search has the
seeds' trace tr: E = tr - A is left out of the key.  States are
PSL(2, O_K) elements, g and -g one state.  For tr != 0 exactly one of
them has trace tr, the sign every seed must come in, so no image is
ever sign-normalized.  For tr = 0 both have it; a pair index maps to
R - 1 - idx under negation, so key(-g) = R^3 - 1 - key(g), and the
smaller of the two keys both.  The row a level carries is then either
sign, which the keys, the height test and the images up to sign do not
see.

The search runs modulo a mirror: a signed permutation matrix P with
P^2 = I that conjugates every generator map to one of them, applied as
one index and one sign vector, Px = sign * x[perm].  The form mirror is
diag(1, -1): (a, b, c) -> (a, -b, c), fixing S and swapping T_mu with
T_-mu.  The conjugation mirror is g -> P g^-1 P with P = diag(1, -1):
[[A, B], [C, E]] -> [[E, B], [C, A]], which swaps the diagonal pairs;
it turns conjugation by h into conjugation by PhP, so it too fixes S
(PSP = -S) and swaps T_mu with T_-mu.  Each mirror permutes and signs
whole coordinate pairs, so it keeps heights and the key box, and the
conjugation mirror keeps the trace: it is an automorphism of the
capped graph, whose quotient, undirected too, is what the levels walk.
Neither mirror leaves the definiteness half that `pellforms` searches
(the form mirror keeps a, the conjugation mirror c).  A state is a
pair {x, Px}, keyed by the smaller of its two keys, and carries one of
x and Px as an image reached it.  Components live on a double cover:
node s is the component of seed s and node S + s that of its mirror
image, so a label names a row's component and its twin the mirror's.
A carried row keeps its own label, which its images inherit; the
pair's joins, lookups and counts use the label of the row its key
packs, the twin of the row's own when that is the mirror.  Every edge
x - y is seen from the carried row of one end's
pair, and Px - Py is an edge too, so each join is made twice, (a, b)
and their twins; a state that is its own mirror joins its label with
its twin.  A pair counts one state on its label and one on its twin, a
self-mirror state once, so each union-find set counts its component.
The sets whose least node is below S are exactly the components the
plain search from the seeds visits, also for seeds not closed under
the mirror, and a set and its mirror image count alike: roots, state
count and budget verdict are the plain search's.

The generators act Z-linearly, so a block's images are one product of
the map's integer matrix with its rows, and one height test covers
every coordinate pair of every image.  The product is computed in
float64, where BLAS runs it, and is exact: the int64 guard of
_row_packer keeps every image coordinate, and every partial sum forming
it, an integer below 2^31, and float64 holds integers exactly to 2^53.
The seeds and the images go through the same height test.

One search partitions a whole set of rows: it starts from all of them
at once, so a level is the set of states at distance k from the seed
set, and the argument above holds unchanged for those distances.  When
an image meets a state of another component on the current level, or a
new state another parent reached, the two components join in a
union-find whose root is always the least node.  That sees every edge
between visited states: one within a level from either end, one between
levels k and k + 1 when level k is expanded.  So the components are
exactly the orbits the seed-by-seed loop (least row not yet covered,
then its orbit) visits, and with the seeds the distinct rows in
increasing order, as `unique_rows` gives them, their least seeds are
its representatives.
Every search is a search of groups: each seed has a group, say the
discriminant whose class count it seeds, and each group its own caps
and, for conjugation, its own trace; a search without groups is group
0.  Groups never meet.  A row's label names its seed, so its group,
which its images inherit, and every row gets its own group's height
test.  Every group's rows are keyed with the one radix R of the
largest caps: an in-cap pair of smaller caps lies in the larger box,
so each group's keys stay injective.  Forms of two groups may still
share a key, and so may matrices, whose key leaves out E = tr - A and
so does not see the trace.  The groups therefore search in
consecutive runs of G groups with G R^3 <= 2^63 (max_groups), one
after another, and group g of a run gets the key offset g R^3.  A trace-0 search, where g
and -g share the smaller of two keys, is one group.  So no dedup,
lookup or join ever pairs rows of two groups, and level k of a run is
the union of its groups' level k: each group keeps exactly the levels,
components, roots and state count of a search of its own.  The budget
test runs per component after each level's merge, as alone, so a
group fails at the level its own search would: it is marked in
`Orbit.failed`, its rows leave the level there and the other groups go
on.  The engine raises no state-budget error; its callers raise
budget_error from the verdicts they read.
Every seed must lie inside the caps: a seed outside them has edges that
run one way only.  A search returns the roots and the state counts and
holds just the last two levels; neither, nor the budget test on each
component's state count, depends on the order of a level's states, on
the blocks its images are formed in, or on the order of its joins: a
union-find's sets do not, and the test runs once the level's joins are
merged.

The seeds of both searches come from the int64 box scans at the end of
this module: a lattice box as coordinate rows, cut by the height test
that the factor-pair scan puts to its cofactors, and that scan, which
form enumeration and the trace-t matrix scan run on.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .quadfield import (_coord_mul, _embed_consts, _lattice_ranges,
                        _omega_trace_norm)


def height_predicate(D: int, cap1, cap2
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """Mask over the rows of an array whose last axis holds coordinate
    rows: every pair (x, y) of a row, read as x + y*w, has embeddings
    within (cap1, cap2); works for matrix and form rows, and for a
    strided view such as the search's images.  The caps are numbers, or
    (N, 1) arrays of one cap per row of an (..., N, k) array."""
    w1, w2 = _embed_consts(D)

    def ok(rows: np.ndarray) -> np.ndarray:
        x, y = rows[..., 0::2], rows[..., 1::2]
        # every pair at once, in a buffer laid out like x
        emb = np.empty_like(x, dtype=float)

        def embedding(w: float) -> np.ndarray:  # |x + y*w| into emb
            np.multiply(y, w, out=emb)
            return np.abs(np.add(x, emb, out=emb), out=emb)
        mask = np.less_equal(embedding(w1), cap1,
                             out=np.empty_like(x, dtype=bool))
        mask &= embedding(w2) <= cap2
        return mask.all(axis=-1)
    return ok


def _key_radix(D: int, cap1: float, cap2: float) -> Tuple[int, int, int]:
    """(A, B, R): an in-cap pair x + y*w has |2x + t*y| <= cap1 + cap2
    < A and |y| sqrt(D) <= cap1 + cap2 < B sqrt(D), so its offset index
    (2x + t*y + A)(2B + 1) + y + B lies below R = (2A + 1)(2B + 1)."""
    A = math.floor(cap1 + cap2) + 1
    B = math.floor((cap1 + cap2) / math.sqrt(D)) + 1
    return A, B, (2 * A + 1) * (2 * B + 1)


def max_groups(D: int, cap1: float, cap2: float) -> int:
    """The most groups one capped_bfs run keys exactly at caps no larger
    than these: G groups of base-R keys below R^3 take the offsets
    0, R^3, ..., (G - 1) R^3, and the last key G R^3 - 1 must fit int64.
    0 when one group's keys do not fit."""
    return (2 ** 63 - 1) // _key_radix(D, cap1, cap2)[2] ** 3


def _row_packer(what: str, D: int, cap1: float, cap2: float,
                trace: Optional[np.ndarray] = None
                ) -> Callable[[np.ndarray], np.ndarray]:
    """Exact int64 sort keys for in-cap rows.  Rows are forms, 6
    entries, or with `trace` set, PSL(2, O_K) elements [[A, B], [C, E]]
    of that trace, 8 entries.

    An in-cap pair has an offset index below R (see _key_radix); the
    indices of a row's first three pairs are the digits of one base-R
    key below R^3, exact in int64 while R^3 < 2^63, so packing is
    injective on in-cap rows.  A matrix's fourth pair is E = trace - A.
    Negating a pair maps its index to R - 1 - idx, so -g packs to
    R^3 - 1 - key(g); for trace 0, where g and -g share the trace, a row
    packs to the smaller of the two, one key for both signs.
    Raises BudgetExceededError up front when the caps break exactness,
    or when the neighbour maps could leave 2^31 from an in-cap row.
    """
    t, n = _omega_trace_norm(D)
    A, B, R = _key_radix(D, cap1, cap2)
    rad = 2 * B + 1
    if R ** 3 >= 2 ** 63:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) too large for "
            "exact packed keys")
    # in-cap coordinates are below A, and every column of a generator
    # map's integer matrix has absolute sum at most 4|n| + 8; so every
    # image coordinate, and every partial sum of the float64 product that
    # forms it, is an integer of absolute value at most M, and the test
    # below keeps M < 2^31, far inside the 2^53 where float64 holds
    # integers exactly.  A fortiori A < 2^31: a level's in-cap rows are
    # exact in int32
    M = (4 * abs(n) + 8) * A
    if M * M * max(9, D) >= 2 ** 62:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) overflow int64 "
            "arithmetic")
    top = R ** 3 - 1
    # key = sum of idx_j R^(2 - j) with idx = (2x + t*y + A)(2B + 1) + y + B
    # for the first three pairs (x, y): one weight per coordinate.  An
    # in-cap pair's two terms together stay below R^3 / 2 in absolute
    # value, so no partial sum leaves int64
    weights = np.array([[2 * rad * R ** p, (t * rad + 1) * R ** p]
                        for p in (2, 1, 0)]).ravel()
    base = (A * rad + B) * (R * R + R + 1)
    trace0 = trace is not None and not np.any(trace)

    def pack(rows: np.ndarray, mirror: Optional[Tuple[np.ndarray, ...]]
             = None) -> np.ndarray:
        """The keys of the rows, or with mirror = (perm, sign) those of
        their images sign * row[perm]."""
        if mirror is None:
            keys = rows[:, :6] @ weights + base
        else:  # the image's coordinate c is sign[c] * row[perm[c]]
            perm, sign = mirror
            w = np.zeros(rows.shape[1], dtype=np.int64)
            w[perm[:6]] = weights * sign[:6]
            keys = rows @ w + base
        return np.minimum(keys, top - keys) if trace0 else keys
    return pack


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D integer array in increasing signed
    lexicographic order, as np.unique(rows, axis=0) gives them."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """(mask, pos): which keys the sorted key array holds, and where."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), int)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys, pos


def _merge(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the nodes a[i] and b[i] in the union-find `parent`, in place.
    `parent` stays flat, every entry its set's root, and a root is its
    set's least node: two roots join under the smaller."""
    a, b = parent[a], parent[b]
    while True:
        diff = a != b
        if not diff.any():
            return
        lo, hi = np.minimum(a[diff], b[diff]), np.maximum(a[diff], b[diff])
        parent[hi] = lo  # a root that meets several keeps one; the rest loop
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up
        a, b = parent[lo], parent[hi]


def _dedup(keys: np.ndarray, labs: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, a, b): the index of one entry per distinct key, in
    increasing key order, and the labels a[i], b[i] of the entries that
    share a key, to be joined."""
    perm = np.argsort(keys)
    keys, labs = keys[perm], labs[perm]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    same = ~first[1:]
    return perm[first], labs[1:][same], labs[:-1][same]


class Orbit:
    """The states one capped_bfs search visited, split into components,
    with a verdict per group; a search without groups is group 0.

    `roots[s]` is the index of the least seed in seed s's component,
    `states[g]` group g's state count and len() their sum.  `failed[g]`
    says whether group g had a component past MAX_STATES; its roots
    and count then stop at the level where it did, and its caller
    raises budget_error.
    """

    __slots__ = ("roots", "states", "failed")

    def __init__(self, roots: np.ndarray, states: np.ndarray,
                 failed: np.ndarray):
        self.roots, self.states, self.failed = roots, states, failed

    def __len__(self) -> int:
        return int(self.states.sum())

    @property
    def reps(self) -> np.ndarray:
        """The indices of the seeds that are their components' roots."""
        return np.flatnonzero(self.roots == np.arange(len(self.roots)))


def budget_error(what: str) -> BudgetExceededError:
    """The error of a `what` search with a component past MAX_STATES."""
    return BudgetExceededError(f"{what} orbit exceeded {MAX_STATES} states")


def _pair_mirror(what: str, mirror) -> np.ndarray:
    """The mirror as a k x k integer matrix P, checked to be a signed
    permutation of coordinate pairs with P^2 = I: P = Q (x) I_2 for a
    signed permutation Q of the k/2 pairs with Q^2 = I."""
    P = np.asarray(mirror)
    k = len(P)
    Q = P[0::2, 0::2] if P.shape == (k, k) else None
    if not (Q is not None and np.isin(Q, (-1, 0, 1)).all()
            and (np.abs(Q).sum(axis=1) == 1).all()
            and np.array_equal(Q @ Q, np.eye(k // 2))
            and np.array_equal(P, np.kron(Q, np.eye(2)))):
        raise ValidationError(
            f"{what} mirror must be a signed permutation of coordinate "
            "pairs P with P^2 = I")
    return P


class GeneratorTables(NamedTuple):
    """A route's generator maps as capped_bfs reads them: rows
    j*k..(j+1)*k of the (m*k, k) float64 `Mt` map a row to its image
    under generator j, generator inverse[j] is its inverse, and the
    mirror is P x = sign * x[perm]."""

    Mt: np.ndarray
    inverse: np.ndarray
    perm: np.ndarray
    sign: np.ndarray


def generator_tables(what: str, neighbors: Callable[[np.ndarray], np.ndarray],
                     mirror) -> GeneratorTables:
    """The read-only tables of the generator maps `neighbors` modulo
    `mirror`, a k x k signed permutation matrix P with P^2 = I that moves
    whole coordinate pairs.  `neighbors` maps an (N, k) int64 array to
    its (m*N, k) images, row i's images in rows m*i..m*i+m-1, and must
    be Z-linear: its matrix is read off the unit rows.  The maps must be
    closed under inverses and under conjugation by P; ValidationError
    otherwise, naming the `what` route."""
    P = _pair_mirror(what, mirror)
    k = len(P)
    # the neighbour map is Z-linear, so one matrix product writes a
    # block's images, generator j's in Mt[j*k:(j+1)*k]; in float64 it
    # runs on BLAS and is exact (see the int64 guard of _row_packer)
    Mt = np.ascontiguousarray(
        neighbors(np.eye(k, dtype=np.int64)).reshape(k, -1).T, dtype=float)
    gens = Mt.reshape(-1, k, k)
    perm = np.abs(P).argmax(axis=1)  # P x = sign * x[perm]
    sign = P[np.arange(k), perm]

    def index(match: np.ndarray, of: str) -> np.ndarray:
        """match[j, i]: generator i is the `of` of generator j."""
        if (match.sum(axis=1) != 1).any():
            raise ValidationError(
                f"{what} generator maps need exactly one {of} each")
        return np.nonzero(match)[1]
    inverse = index((gens[None] @ gens[:, None] == np.eye(k)).all(
        axis=(2, 3)), "inverse")
    index(((P @ gens @ P)[:, None] == gens[None]).all(axis=(2, 3)),
          "mirror image")
    tables = GeneratorTables(Mt, inverse, perm, sign)
    for a in tables:
        a.flags.writeable = False
    return tables


# frontier rows whose images are formed at a time: bounds the image
# product and the height test of a wide level
_BFS_BLOCK = 768

# the state budget of every search: no component may exceed it
MAX_STATES = 400000


def capped_bfs(what: str, seeds: np.ndarray,
               tables: Callable[[], GeneratorTables], D: int, cap1, cap2,
               groups: Optional[np.ndarray] = None) -> Orbit:
    """Height-capped BFS from every row of `seeds` at once, an (S, k)
    int64 array; returns the orbit with its components.

    `groups` holds a group index in 0..G-1 per seed, and the caps are
    G caps each; with no `groups` the seeds are group 0 and the caps
    numbers.  The groups search as searches of their own that never
    meet, in consecutive runs of as many as one packed-key space holds
    (max_groups; see the module docstring).  A group with a component
    past MAX_STATES is marked in `Orbit.failed` and its rows leave the
    search; the other groups go on, and no state budget raises here.
    The generator maps and the mirror are those of `tables()`, which is
    called once the seeds and the caps have passed the checks below;
    states are the mirror pairs of the module docstring.
    Every seed must lie inside its group's caps (the edges of a seed
    outside them run one way only); ValidationError otherwise.  Caps
    that break the exactness of the keys raise BudgetExceededError (see
    _row_packer).  Rows of k = 8 entries are matrices [[A, B], [C, E]],
    g and -g one state, and the seeds of a group must share one trace,
    which is 0 only for a search of one group (ValidationError
    otherwise).
    """
    S, k = seeds.shape
    caps1, caps2 = np.atleast_1d(cap1), np.atleast_1d(cap2)
    G = len(caps1)
    if groups is None:
        groups = np.zeros(S, dtype=np.intp)
    trace = None
    if k == 8:  # conjugation keeps the trace: search each group's slice
        traces = seeds[:, 0:2] + seeds[:, 6:8]
        firsts = np.zeros((G, 2), dtype=np.int64)
        firsts[groups[::-1]] = traces[::-1]  # each group's first trace
        if not (traces == firsts[groups]).all():
            raise ValidationError(f"{what} seeds must share one trace")
        if G > 1 and not traces.any(axis=1).all():
            raise ValidationError(
                f"{what} seeds of trace 0 must search as one group")
        trace = firsts[groups[0] if S else 0]
    if not height_predicate(D, caps1[groups, None],
                            caps2[groups, None])(seeds).all():
        raise ValidationError(f"{what} seeds must lie inside the caps")
    # one radix, that of the largest caps, keys every group's rows, and
    # the groups search in runs of as many as one key space holds
    big = int(np.argmax(caps1 + caps2))
    pack = _row_packer(what, D, caps1[big], caps2[big], trace)
    radix = _key_radix(D, caps1[big], caps2[big])[2]
    per = max_groups(D, caps1[big], caps2[big])
    maps = tables()
    roots, states, failed = np.arange(S), np.zeros(G, int), np.zeros(G, bool)
    for lo in range(0, G, per):
        run = np.flatnonzero((groups >= lo) & (groups < lo + per))
        orbit = _search(seeds[run], groups[run] - lo, caps1[lo:lo + per],
                        caps2[lo:lo + per], pack, radix, maps, D)
        roots[run] = run[orbit.roots]
        states[lo:lo + per], failed[lo:lo + per] = orbit.states, orbit.failed
    return Orbit(roots, states, failed)


def _search(seeds: np.ndarray, groups: np.ndarray, caps1: np.ndarray,
            caps2: np.ndarray, pack: Callable[..., np.ndarray], radix: int,
            tables: GeneratorTables, D: int) -> Orbit:
    """One run of capped_bfs, of groups 0..G-1 keyed with offsets g R^3.
    A level is the sorted keys of the in-cap images, but the parents, on
    neither the current nor the previous level, with the label, the
    int32 carried row and the back edge of each; the images of
    _BFS_BLOCK frontier rows at a time are one exact float64 product.
    An image that meets a state of another component on the current
    level, or the same new state as one, joins the two labels and their
    twins (see _merge)."""
    S, k = seeds.shape
    G = len(caps1)
    node_group = np.concatenate((groups, groups))
    node_caps = caps1[node_group, None], caps2[node_group, None]
    offset = node_group * radix ** 3

    def height_ok(rows: np.ndarray, labs: np.ndarray) -> np.ndarray:
        """Each row against its label's group's caps."""
        return height_predicate(D, *(c[labs] for c in node_caps))(rows)
    Mt, inverse, perm, sign = tables
    m = len(Mt) // k
    inverse = inverse.astype(np.int8)  # back edges: one byte each
    twin = np.roll(np.arange(2 * S, dtype=np.int32), S)
    parent = np.arange(2 * S, dtype=np.int32)

    def canonical(found: np.ndarray, labs: np.ndarray
                  ) -> Tuple[np.ndarray, ...]:
        """(keys, pair labels, labels, rows, alone) of labelled rows: the
        key of each row's mirror pair, the smaller of its two, offset by
        its group's, the label of the row that key packs, the row's own
        label, the row in int32 (in-cap coordinates lie below 2^31, see
        _row_packer), and whether the row is its own mirror, whose label
        then joins its twin."""
        raw, mirrored = pack(found), pack(found, (perm, sign))
        keys = np.minimum(raw, mirrored) + offset[labs]
        return (keys, np.where(mirrored < raw, twin[labs], labs), labs,
                found.astype(np.int32), mirrored == raw)

    def images(block: np.ndarray, labs: np.ndarray, back: np.ndarray
               ) -> Tuple[np.ndarray, ...]:
        """canonical() of the in-cap images of a block of frontier rows,
        but their parents, with the back edge of each."""
        out = (Mt @ block.T).reshape(m, k, len(block))
        # in-cap images generator by generator, each in row order
        ok = height_ok(out.transpose(0, 2, 1), labs)
        ok &= back != np.arange(m)[:, None]
        j, i = np.nonzero(ok)
        return (*canonical(out[j, :, i].astype(np.int64), labs[i]),
                inverse[j])

    def tally(labs: np.ndarray, alone: np.ndarray) -> np.ndarray:
        """States per node: one per pair on its label, one on the twin
        unless the state is its own mirror."""
        return np.bincount(np.concatenate((labs, twin[labs[~alone]])),
                           minlength=2 * S)

    # the seeds are level 0, the images of no level
    keys, pairs, labs, rows, alone = canonical(
        seeds, np.arange(S, dtype=np.int32))
    back = np.full(S, -1, dtype=np.int8)
    curr = prev = np.empty(0, dtype=np.int64)
    held = np.empty(0, dtype=np.int32)  # the pair labels of curr
    counts = np.zeros(2 * S, dtype=np.int64)
    failed = np.zeros(G, dtype=bool)
    limit = max(MAX_STATES, 1)  # no component exceeds the total
    while True:
        keep, a, b = _dedup(keys, pairs)
        hit, pos = _lookup(curr, keys[keep])
        a = np.concatenate((pairs[alone], a, pairs[keep[hit]]))
        b = np.concatenate((twin[pairs[alone]], b, held[pos[hit]]))
        # the level's one merge, each join made with the twins too
        _merge(parent, np.concatenate((a, twin[a])),
               np.concatenate((b, twin[b])))
        keep = keep[~hit]
        # an edge to the previous level was seen from its other end, as
        # the parent of a new state, so a hit there joins nothing new
        keep = keep[~_lookup(prev, keys[keep])[0]]
        keys, pairs, labs, rows, alone, back = (
            x[keep] for x in (keys, pairs, labs, rows, alone, back))
        counts += tally(pairs, alone)
        if counts.sum() > limit:
            over = np.bincount(parent, weights=counts,
                               minlength=2 * S) > limit
            if over.any():
                # a failed group's rows leave the level: it stops here
                failed[node_group[over]] = True
                live = ~failed[node_group[pairs]]
                keys, pairs, labs, rows, alone, back = (
                    x[live] for x in (keys, pairs, labs, rows, alone, back))
        prev, curr, held = curr, keys, pairs
        if not len(curr):
            plain = parent < S  # the plain search's nodes
            return Orbit(parent[:S], np.bincount(
                node_group[plain], weights=counts[plain],
                minlength=G).astype(np.int64), failed)
        keys, pairs, labs, rows, alone, back = (
            np.concatenate(part) for part in zip(*(
                images(*(x[lo:lo + _BFS_BLOCK] for x in (rows, labs, back)))
                for lo in range(0, len(curr), _BFS_BLOCK))))


# ------------------------------------------------------------ box scans


def _box_rows(D: int, bound1: float, bound2: float) -> np.ndarray:
    """lattice_points(D, bound1, bound2) as an (N, 2) int64 array of
    coordinate rows (a, b), in the same order, less those that fail the
    height test of _factor_pairs' cofactors."""
    b, lo, hi = np.array(list(_lattice_ranges(D, bound1, bound2)),
                         dtype=np.int64).reshape(-1, 3).T
    size = hi - lo + 1
    # a runs from lo up within each b: the row index less its b's start
    start = np.cumsum(size) - size
    a = np.arange(size.sum()) + np.repeat(lo - start, size)
    rows = np.column_stack([a, np.repeat(b, size)])
    return rows[height_predicate(D, bound1, bound2)(rows)]


# (row, distinct norm) pairs of one block in _factor_pairs
_FACTOR_BLOCK = 1 << 14


def _factor_pairs(P: np.ndarray, box: np.ndarray, D: int, cap1: float,
                  cap2: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every factorisation P[i] = y*z of a nonzero row of the (M, 2) array
    P with y a row of box and |embed(z, j)| <= cap_j, as (i, y, z): row
    indices and (K, 2) coordinate rows, ordered by i, then by y's place
    in box.  The caller keeps the norms N(P[i]) and the products
    P * conj(y) inside int64."""
    t, n = _omega_trace_norm(D)
    w1, w2 = _embed_consts(D)

    def norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * a + t * a * b + n * b * b
    j = np.nonzero(box.any(axis=1))[0]
    ya, yb = box[j].T
    ny = norm(ya, yb)
    # box entries share norms: each distinct norm is tested once, and its
    # entries, in box order, are by_norm[start[u]:start[u] + size[u]]
    norms, of = np.unique(ny, return_inverse=True)
    by_norm = np.argsort(of, kind="stable")
    size = np.bincount(of, minlength=len(norms))
    start = np.cumsum(size) - size
    rows = np.nonzero(P.any(axis=1))[0]
    nP = norm(P[rows, 0], P[rows, 1])
    step = max(1, _FACTOR_BLOCK // max(1, len(norms)))
    out = [np.empty((0, 4), dtype=np.int64)]
    for s in range(0, len(rows), step):
        # y | P needs N(y) | N(P): one int64 modulo per row and distinct
        # norm, and the coordinates only for the pairs that pass it
        ri, u = np.nonzero(nP[s:s + step, None] % norms == 0)
        # every box entry of each norm that passed, then in (row, entry)
        # order
        many = size[u]
        ri = np.repeat(ri, many)
        k = by_norm[np.arange(many.sum())
                    + np.repeat(start[u] - np.cumsum(many) + many, many)]
        order = np.argsort(ri * len(j) + k)
        ri, k = ri[order], k[order]
        r = rows[s:s + step][ri]
        # P * conj(y), conj(y) = (ya + t*yb, -yb)
        numa, numb = _coord_mul(P[r, 0], P[r, 1], ya[k] + t * yb[k], -yb[k],
                                t, n)
        div = (numa % ny[k] == 0) & (numb % ny[k] == 0)
        r, k, numa, numb = r[div], k[div], numa[div], numb[div]
        za, zb = numa // ny[k], numb // ny[k]
        keep = (np.abs(za + zb * w1) <= cap1) & (np.abs(za + zb * w2) <= cap2)
        out.append(np.column_stack([r, k, za, zb])[keep])
    i, k, za, zb = np.concatenate(out).T
    return i, box[j[k]], np.column_stack([za, zb])
