"""The orbit engine: height-capped breadth-first search over integer
coordinate rows, shared by matrix conjugation (`modgroup`) and the form
action (`pellforms`).

States are int64 coordinate rows; a level is the sorted array of the
exact complex128 keys its in-cap states pack to, and the frontier is
unpacked from it a block of rows at a time, so tuples are built only
for seeds and representatives.  Each level's images are deduplicated
against the current and the previous level alone.  That is exact
because the capped generator graph is undirected: S is an involution
(on forms, and under conjugation since S^2 = -1 is central),
T_mu^-1 = T_-mu, and the height test is a property of the state, so a
neighbour of a level-k state lies on level k - 1, k or k + 1.
Conjugation states are PSL(2, O_K) elements: each pair index of a key
maps to R - 1 - idx under negation, so key(-g) = (R^2 - 1 - re,
R^2 - 1 - im), and the smaller of key(g) and key(-g) keys both signs
without sign-normalizing any image.

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
                seeds: np.ndarray, psl: bool = False
                ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                           Callable[[np.ndarray], np.ndarray]]:
    """(pack, unpack): exact complex128 sort keys for in-cap rows of the
    width of `seeds`, 6 or 8 entries, and the rows back from their keys.

    An in-cap pair x + y*w has |2x + t*y| <= cap1 + cap2 and
    |y| sqrt(D) <= cap1 + cap2, so it has an offset index below R in that
    box; two indices go into each float64 half, exact while R^2 < 2^53,
    so packing is a bijection on in-cap rows.
    Negating a pair maps its index to R - 1 - idx, so an 8-entry row
    -g packs to (R^2 - 1 - re, R^2 - 1 - im); with `psl` set, a row
    packs to the smaller of key(g) and key(-g), one key for both signs,
    and unpacks to one of g and -g.
    Raises BudgetExceededError up front when the caps break exactness,
    or when the neighbour maps could reach 2^62 in int64 arithmetic.
    """
    t, n = _omega_trace_norm(D)
    A = math.floor(cap1 + cap2) + 1
    B = math.floor((cap1 + cap2) / math.sqrt(D)) + 1
    R = (2 * A + 1) * (2 * B + 1)
    if R * R >= 2 ** 53:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) too large for "
            "exact packed keys")
    # in-cap coordinates are at most cap1 + cap2; one generator step
    # multiplies that by at most 4|n| + 8, and the sign test squares it
    M = (4 * abs(n) + 8) * max(A, int(np.abs(seeds).max(initial=0)))
    if M * M * max(9, D) >= 2 ** 62:
        raise BudgetExceededError(
            f"{what} orbit caps ({cap1:.6g}, {cap2:.6g}) or seed overflow "
            "int64 arithmetic")
    top = R * R - 1
    width = seeds.shape[1]

    def pack(rows: np.ndarray) -> np.ndarray:
        x, y = rows[:, 0::2], rows[:, 1::2]
        idx = (2 * x + t * y + A) * (2 * B + 1) + (y + B)
        re = idx[:, 0] * R + idx[:, 1]
        im = idx[:, 2] * R + (idx[:, 3] if width > 6 else 0)
        if psl:
            flip = (2 * re > top) | ((2 * re == top) & (2 * im > top))
            re = np.where(flip, top - re, re)
            im = np.where(flip, top - im, im)
        keys = np.empty(len(rows), dtype=np.complex128)
        keys.real, keys.imag = re, im
        return keys

    def unpack(keys: np.ndarray) -> np.ndarray:
        re, im = keys.real.astype(np.int64), keys.imag.astype(np.int64)
        idx = np.column_stack([re // R, re % R, im // R, im % R])
        y = idx[:, :width // 2] % (2 * B + 1) - B
        rows = np.empty((len(keys), width), dtype=np.int64)
        rows[:, 1::2] = y
        rows[:, 0::2] = (idx[:, :width // 2] // (2 * B + 1) - A - t * y) // 2
        return rows
    return pack, unpack


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
    their components' roots, `contains` tests them for membership and
    `in` tests one key.  `reps` lists the seeds that are roots.
    """

    __slots__ = ("levels", "roots", "_count", "_pack", "_inside",
                 "_outside")

    def __init__(self, levels: Optional[List[Tuple[np.ndarray, np.ndarray]]],
                 roots: np.ndarray, count: int, pack: Callable,
                 inside: Callable, outside: np.ndarray):
        self.levels, self.roots, self._count = levels, roots, count
        self._pack, self._inside, self._outside = pack, inside, outside

    def __len__(self) -> int:
        return self._count

    def component(self, rows: np.ndarray) -> np.ndarray:
        """The root seed of each row's component, -1 for a row not
        visited."""
        if self.levels is None:
            raise ValueError("the search kept only the roots")
        rows = np.asarray(rows, dtype=np.int64)
        inside = self._inside(rows)
        out = np.where(
            (rows[:, None] == self._outside).all(axis=2).any(axis=1), 0, -1)
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
    block of rows.  The new states of a level are the
    first occurrences, in that order, of in-cap images on neither the
    current nor the previous level (exact on the undirected capped
    graph, see the module docstring).  Each state carries a seed of its
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
    component exceeds max_states states.  With `psl` set, g and -g are
    one state.  Without `keep_states`, only the last two levels are
    held, and the orbit keeps its roots and state count alone.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.int64))
    S, k = seeds.shape
    height_ok = height_predicate(D, cap1, cap2)
    pack, unpack = _row_packer(what, D, cap1, cap2, seeds, psl)
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
        rows = np.array(list(targets), dtype=np.int64)
        rows = rows.reshape(-1, k)
        goal = np.unique(pack(rows[height_ok(rows)]))
    # states per label; a component's size is the sum over its labels
    counts = np.bincount(levels[0][1], minlength=S) + (len(outside) > 0)

    # the neighbour map is Z-linear, so one matrix product writes a
    # block's images, with no temporaries
    M = neighbors(np.eye(k, dtype=np.int64)).reshape(k, -1)

    def expand(rows: np.ndarray, labs: np.ndarray, lo: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, place, labels) of the new states among the in-cap
        images of a block of frontier rows, lo the block's first row:
        their sorted keys, each one's first place among the level's
        images and a label.  Joins the components that a repeated image
        or an image on the current level shows adjacent."""
        images = (rows @ M).reshape(-1, k)
        m = len(images) // len(rows)
        where = np.flatnonzero(height_ok(images))
        images = images[where]
        keys = pack(images)
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
                 pack, height_ok, outside), hit

