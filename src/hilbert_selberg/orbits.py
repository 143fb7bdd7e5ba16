"""The orbit engine: height-capped breadth-first search over integer
coordinate rows, shared by matrix conjugation (`modgroup`) and the form
action (`pellforms`).

States are int64 coordinate rows; a level is the sorted int64 array of
the exact keys its in-cap states pack to, and the frontier is unpacked
from it a block of rows at a time, so tuples are built only for seeds
and representatives.  Each level's images are deduplicated
against the current and the previous level alone.  That is exact
because the capped generator graph is undirected: S is an involution
(on forms, and under conjugation since S^2 = -1 is central),
T_mu^-1 = T_-mu, and the height test is a property of the state, so a
neighbour of a level-k state lies on level k - 1, k or k + 1.

A state's key is one int64: the base-R number whose digits are the box
indices of its first three coordinate pairs (see _row_packer).  A form
has three pairs.  A conjugation state [[A, B], [C, E]] has four, but
conjugation keeps the trace, so every state of one search has the
seeds' trace tr: E = tr - A is left out of the key and restored on
unpacking.  States are PSL(2, O_K) elements, g and -g one state.  For
tr != 0 exactly one of them has trace tr, so seeds and queried rows of
trace -tr are negated and no image is ever sign-normalized.  For
tr = 0 both have it; a pair index maps to R - 1 - idx under negation,
so key(-g) = R^3 - 1 - key(g), and the smaller of the two keys both.

The generators act Z-linearly, so a block's images are one product of
its rows with the map's integer matrix.  It is computed in float64,
where BLAS runs it, and is exact: the int64 guard of _row_packer keeps
every image coordinate, and every partial sum forming it, an integer
below 2^31, and float64 holds integers exactly to 2^53.

One search partitions a whole set of rows: it starts from all of them
at once, so a level is the set of states at distance k from the seed
set, and the argument above holds unchanged for those distances.  Every
state carries a seed of its component; when an image meets a state of
another component on the current level, or a new state another parent
reached, the two components join in a union-find over the seed indices
whose root is always the least seed.  That sees every edge between
visited states: one within a level from either end, one between
levels k and k + 1 when level k is expanded.  So the components are
exactly the orbits the seed-by-seed loop (least row not yet covered,
then its orbit) visits, and with the seeds the distinct rows in
increasing order, as `np.unique(rows, axis=0)` gives them, their least
seeds are its representatives.
Several seeds must lie inside the caps: a seed outside them has edges
that run one way only.  A search whose caller needs only the roots and
the state count holds just the last two levels.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .quadfield import _embed_consts, _omega_trace_norm


def height_predicate(D: int, cap1: float, cap2: float
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """Row mask: every coordinate pair (x, y) of a row, read as x + y*w,
    has embeddings within (cap1, cap2); works for matrix and form rows."""
    w1, w2 = _embed_consts(D)

    def ok(rows: np.ndarray) -> np.ndarray:
        mask = np.ones(len(rows), dtype=bool)
        for j in range(0, rows.shape[1], 2):  # one pair at a time
            x, y = rows[:, j], rows[:, j + 1]
            mask &= np.abs(x + y * w1) <= cap1
            mask &= np.abs(x + y * w2) <= cap2
        return mask
    return ok


def _row_packer(what: str, D: int, cap1: float, cap2: float,
                seed_max: int = 0, trace: Optional[np.ndarray] = None
                ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                           Callable[[np.ndarray], np.ndarray]]:
    """(pack, unpack): exact int64 sort keys for in-cap rows and the rows
    back from their keys.  Rows are forms, 6 entries, or with `trace`
    set, PSL(2, O_K) elements [[A, B], [C, E]] of that trace, 8 entries.

    An in-cap pair x + y*w has |2x + t*y| <= cap1 + cap2 and
    |y| sqrt(D) <= cap1 + cap2, so it has an offset index below R in that
    box; the indices of a row's first three pairs are the digits of one
    base-R key below R^3, exact in int64 while R^3 < 2^63, so packing is
    a bijection on in-cap rows.  A matrix's fourth pair is E = trace - A,
    which unpacking restores.  Negating a pair maps its index to
    R - 1 - idx, so -g packs to R^3 - 1 - key(g); for trace 0, where g
    and -g share the trace, a row packs to the smaller of the two, one
    key for both signs, and unpacks to one of g and -g.
    Raises BudgetExceededError up front when the caps break exactness,
    or when the neighbour maps could leave 2^31 from a row whose
    coordinates are in-cap or at most seed_max.
    """
    t, n = _omega_trace_norm(D)
    A = math.floor(cap1 + cap2) + 1
    B = math.floor((cap1 + cap2) / math.sqrt(D)) + 1
    rad = 2 * B + 1
    R = (2 * A + 1) * rad
    if R ** 3 >= 2 ** 63:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) too large for "
            "exact packed keys")
    # in-cap coordinates are below A, and every column of a generator
    # map's integer matrix has absolute sum at most 4|n| + 8; so every
    # image coordinate, and every partial sum of the float64 product that
    # forms it, is an integer of absolute value at most M, and the test
    # below keeps M < 2^31, far inside the 2^53 where float64 holds
    # integers exactly
    M = (4 * abs(n) + 8) * max(A, seed_max)
    if M * M * max(9, D) >= 2 ** 62:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) or seed overflow "
            "int64 arithmetic")
    top = R ** 3 - 1
    # key = sum of idx_j R^(2 - j) with idx = (2x + t*y + A)(2B + 1) + y + B
    # for the first three pairs (x, y): one weight per coordinate.  An
    # in-cap pair's two terms together stay below R^3 / 2 in absolute
    # value, so no partial sum leaves int64
    weights = np.array([[2 * rad * R ** p, (t * rad + 1) * R ** p]
                        for p in (2, 1, 0)]).ravel()
    base = (A * rad + B) * (R * R + R + 1)
    trace0 = trace is not None and not np.any(trace)

    def pack(rows: np.ndarray) -> np.ndarray:
        keys = rows[:, :6] @ weights + base
        return np.minimum(keys, top - keys) if trace0 else keys

    def unpack(keys: np.ndarray) -> np.ndarray:
        idx = np.column_stack([keys // (R * R), keys // R % R, keys % R])
        y = idx % rad - B
        rows = np.empty((len(keys), 6 if trace is None else 8),
                        dtype=np.int64)
        rows[:, 1:6:2] = y
        rows[:, 0:6:2] = (idx // rad - A - t * y) // 2
        if trace is not None:
            rows[:, 6:8] = trace - rows[:, 0:2]
        return rows
    return pack, unpack


def _to_trace(rows: np.ndarray, trace: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, ok): the matrix rows with those of trace -trace negated, the
    same elements of PSL(2, O_K), and which rows now have trace `trace`."""
    tr = rows[:, 0:2] + rows[:, 6:8]
    flip = (tr == -trace).all(axis=1)
    return (np.where(flip[:, None], -rows, rows),
            flip | (tr == trace).all(axis=1))


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """(mask, pos): which keys the sorted key array holds, and where."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), int)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys, pos


def _merge(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of seeds a[i] and b[i] in the union-find
    `parent`, in place.  `parent` stays flat, every entry its
    component's root, and a root is its component's least seed: two
    roots join under the smaller."""
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


def _dedup(keys: np.ndarray, labs: np.ndarray, parent: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(uniq, first, labels): the sorted distinct keys, the index of each
    one's first occurrence and a label it carries; joins the components
    of the labels that share a key."""
    perm = np.argsort(keys)
    keys, labs = keys[perm], labs[perm]
    same = keys[1:] == keys[:-1]
    _merge(parent, labs[1:][same], labs[:-1][same])
    at = np.flatnonzero(np.concatenate([[True], ~same]))[:len(keys)]
    first = np.minimum.reduceat(perm, at) if len(at) else perm
    return keys[at], first, labs[at]


class Orbit:
    """The states one capped_bfs run visited, split into components.

    `roots[s]` is the index of the least seed in seed s's component and
    len() the state count.  A search that keeps its states also holds
    `levels`, one (keys, labels) pair per BFS level: the sorted packed
    keys of its in-cap states and, for each, a seed of its component; a
    lone seed outside the caps is kept as a row (with its negative for
    a PSL orbit).  Then `component` maps the rows of an (N, k) array to
    their components' roots (a PSL row of trace -tr through its
    negative, one of any other trace to -1), `contains` tests them for
    membership and `in` tests one key.  `reps` lists the seeds that are
    roots.
    """

    __slots__ = ("levels", "roots", "_count", "_pack", "_admit",
                 "_outside")

    def __init__(self, levels: Optional[List[Tuple[np.ndarray, np.ndarray]]],
                 roots: np.ndarray, count: int, pack: Callable,
                 admit: Callable, outside: np.ndarray):
        self.levels, self.roots, self._count = levels, roots, count
        self._pack, self._admit, self._outside = pack, admit, outside

    def __len__(self) -> int:
        return self._count

    def component(self, rows: np.ndarray) -> np.ndarray:
        """The root seed of each row's component, -1 for a row not
        visited."""
        if self.levels is None:
            raise ValueError("the search kept only the roots")
        rows = np.asarray(rows, dtype=np.int64)
        out = np.where(
            (rows[:, None] == self._outside).all(axis=2).any(axis=1), 0, -1)
        rows, inside = self._admit(rows)
        keys = self._pack(rows[inside])
        roots = np.full(len(keys), -1)
        for level, labels in self.levels:
            found, pos = _lookup(level, keys)
            roots[found] = self.roots[labels[pos[found]]]
        out[inside] = roots
        return out

    def contains(self, rows: np.ndarray) -> np.ndarray:
        return self.component(rows) >= 0

    @property
    def reps(self) -> np.ndarray:
        """The indices of the seeds that are their components' roots."""
        return np.flatnonzero(self.roots == np.arange(len(self.roots)))

    def __contains__(self, key: tuple) -> bool:
        return bool(self.contains(np.array([key], dtype=np.int64))[0])


# frontier rows unpacked and expanded at a time: bounds the transient
# image arrays of a wide level
_BFS_BLOCK = 768


def capped_bfs(what: str, seeds,
               neighbors: Callable[[np.ndarray], np.ndarray],
               D: int, cap1: float, cap2: float, max_states: int,
               targets: Optional[Iterable[tuple]] = None,
               psl: bool = False, keep_states: bool = True
               ) -> Tuple[Orbit, bool]:
    """Height-capped BFS from every row of `seeds` at once, an (S, k)
    array or one key; returns (orbit, hit_target).

    The frontier is expanded a level at a time, in blocks of rows:
    `neighbors` maps an (N, k) int64 array to its (m*N, k) images, row
    i's images in rows m*i..m*i+m-1, and must be Z-linear: the search
    reads its matrix off the unit rows once and applies that to each
    block of rows as an exact float64 product.  The new states of a
    level are the first occurrences, in that order, of in-cap images on
    neither the current nor the previous level (exact on the undirected
    capped graph, see the module docstring).  Each state carries a seed of its
    component; an image that meets a state of another component on the
    current level, or the same new state as one, joins the two (see
    _merge).

    With one seed, orbits, target hits and the state at which the
    budget trips are those of a key-by-key walk that checks each
    neighbour in turn: already visited, over the height cap, a target
    (stop at once), then the state budget, which raises
    BudgetExceededError for the `what` orbit.  Several seeds must lie
    inside the caps (the edges of a seed outside them run one way only)
    and take no targets; the search then raises exactly when some
    component exceeds max_states states.  With `psl` set, rows are
    8-entry matrices [[A, B], [C, E]], g and -g are one state, and the
    seeds must share one trace up to sign (ValidationError otherwise);
    targets of another trace are never reached.  Without `keep_states`,
    only the last two levels are held, and the orbit keeps its roots and
    state count alone.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.int64))
    S, k = seeds.shape
    trace = None
    if psl:  # conjugation keeps the trace: search the seeds' trace slice
        trace = seeds[0, 0:2] + seeds[0, 6:8] if S else np.zeros(2, int)
        seeds, same = _to_trace(seeds, trace)
        if not same.all():
            raise ValidationError(
                f"{what} seeds must share one trace up to sign")
    height_ok = height_predicate(D, cap1, cap2)

    def admit(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, ok): the rows as states of the search's slice, and
        which of them lie in the slice and inside the caps."""
        if trace is None:
            return rows, height_ok(rows)
        rows, ok = _to_trace(rows, trace)
        return rows, ok & height_ok(rows)

    pack, unpack = _row_packer(what, D, cap1, cap2,
                               int(np.abs(seeds).max(initial=0)), trace)
    inside = height_ok(seeds)
    if S > 1 and (targets is not None or not inside.all()):
        raise ValidationError(
            "several seeds must lie inside the caps and take no targets")
    parent = np.arange(S, dtype=np.int32)
    curr, _, labels = _dedup(pack(seeds[inside]),
                             np.flatnonzero(inside).astype(np.int32), parent)
    levels, hit = [(curr, labels)], False
    outside = (seeds[:0] if len(curr) else
               np.concatenate([seeds, -seeds]) if psl else seeds)
    goal = None
    if targets is not None:
        rows, ok = admit(np.array(list(targets), dtype=np.int64)
                         .reshape(-1, k))
        goal = np.unique(pack(rows[ok]))
    # states per label; a component's size is the sum over its labels
    counts = np.bincount(levels[0][1], minlength=S) + (len(outside) > 0)

    # the neighbour map is Z-linear, so one matrix product writes a
    # block's images; in float64 it runs on BLAS and is exact (see the
    # int64 guard of _row_packer)
    M = neighbors(np.eye(k, dtype=np.int64)).reshape(k, -1).astype(float)

    def expand(rows: np.ndarray, labs: np.ndarray, lo: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, place, labels) of the new states among the in-cap
        images of a block of frontier rows, lo the block's first row:
        their sorted keys, each one's first place among the level's
        images and a label.  Joins the components that a repeated image
        or an image on the current level shows adjacent."""
        images = (rows.astype(float) @ M).reshape(-1, k)
        m = len(images) // len(rows)
        where = np.flatnonzero(height_ok(images))
        keys = pack(images[where].astype(np.int64))
        del images
        uniq, first, labs = _dedup(
            keys, np.repeat(parent[labs], m)[where], parent)
        curr, curr_lab = levels[-1]
        found, pos = _lookup(curr, uniq)
        _merge(parent, labs[found], curr_lab[pos[found]])
        # an edge to the previous level was seen from its other end, as
        # the parent of a new state, so a hit there joins nothing new
        for prev, _ in levels[-2:-1]:
            found |= _lookup(prev, uniq)[0]
        return uniq[~found], lo * m + where[first[~found]], labs[~found]

    front = seeds  # the seed rows, then the last level in walk order
    while len(front):
        blocks, (curr, curr_lab) = [], levels[-1]
        for lo in range(0, len(front), _BFS_BLOCK):
            at = front[lo:lo + _BFS_BLOCK]
            if front.ndim == 2:
                blocks.append(expand(at, np.arange(
                    lo, lo + len(at), dtype=np.int32), lo))
            else:
                blocks.append(expand(unpack(curr[at]), curr_lab[at], lo))
        if len(blocks) == 1:
            (uniq, place, labs), = blocks
        else:
            keys, place, labs = (np.concatenate(part)
                                 for part in zip(*blocks))
            # a block lists a key once, so a key's first index here is in
            # the earliest block that met it, its first place in the walk
            uniq, first, labs = _dedup(keys, labs, parent)
            place = place[first]
            del keys, first
        del blocks
        walk = np.argsort(place)  # the level's new states, in walk order
        if goal is not None:
            # a key-by-key walk checks state `trip` against the targets,
            # then raises because adding it took the count past max_states
            trip = max(0, max_states - int(counts[0]))
            at = np.flatnonzero(_lookup(goal, uniq[walk[:trip + 1]])[0])
            if len(at):
                reached = np.sort(walk[:at[0] + 1])
                levels.append((uniq[reached], labs[reached]))
                counts[0] += len(reached)
                hit = True
                break
        counts += np.bincount(labs, minlength=S)
        limit = max(max_states, 1)  # no component exceeds the total
        if counts.sum() > limit and (np.bincount(
                parent, weights=counts, minlength=S) > limit).any():
            raise BudgetExceededError(
                f"{what} orbit exceeded {max_states} states")
        levels.append((uniq, labs))
        if not keep_states:
            del levels[:-2]
        front = walk
    return Orbit(levels if keep_states else None, parent, int(counts.sum()),
                 pack, admit, outside), hit

