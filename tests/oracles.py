"""Independent reference computations used to freeze expected values.

Everything here is deliberately written against the underlying
definitions (character sums, generalized Bernoulli numbers, quadrature)
rather than the package's own algorithms, so a test that compares the
two is a genuine cross-check and not a tautology.
"""

import functools
import math
from fractions import Fraction


def kronecker_ref(a: int, b: int) -> int:
    """Kronecker symbol (a|b) via the classical reciprocity algorithm."""
    if b == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    v = 0
    while b % 2 == 0:
        v += 1
        b //= 2
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    while True:
        if b == 1:
            return k
        if a == 0:
            return 0
        v = 0
        while a % 2 == 0:
            v += 1
            a //= 2
        if v % 2 == 1 and b % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % a, a
    raise AssertionError


def L_minus_one_ref(D: int) -> Fraction:
    """L(-1, chi_D) = -B_{2,chi}/2 with B_{2,chi} computed from the
    defining sum D * sum_a chi(a) B_2(a/D)."""
    total = Fraction(0)
    for a in range(1, D + 1):
        x = Fraction(a, D)
        b2 = x * x - x + Fraction(1, 6)
        total += kronecker_ref(D, a) * b2
    return -Fraction(D) * total / 2


def zeta_K_minus_one_ref(D: int) -> Fraction:
    """zeta_K(-1) = zeta(-1) * L(-1, chi_D) with zeta(-1) = -1/12."""
    return Fraction(-1, 12) * L_minus_one_ref(D)


def li_gauss_legendre(x: float) -> float:
    """Logarithmic integral from 2 by composite 20-point Gauss-Legendre
    on 1024 uniform panels, good to about 3e-14 relative up to 1e4
    (64 panels under-resolve 1/log t near t = 2: 7e-6 at 1e4)."""
    import numpy.polynomial.legendre as lg
    xs, ws = lg.leggauss(20)
    panels = 1024
    total = 0.0
    for k in range(panels):
        a = 2.0 + (x - 2.0) * k / panels
        b = 2.0 + (x - 2.0) * (k + 1) / panels
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for xi, wi in zip(xs, ws):
            total += wi * half / math.log(mid + half * xi)
    return total


def capped_bfs_ref(seed, neighbors, height_ok, max_states):
    """Key-by-key height-capped BFS: returns the visit order.

    Each neighbour is checked in turn: already visited, over the height
    cap, then the state budget, which raises.
    """
    from hilbert_selberg.errors import BudgetExceededError
    order, seen, frontier = [seed], {seed}, [seed]
    while frontier:
        nxt = []
        for key in frontier:
            for nb in neighbors(key):
                if nb in seen or not height_ok(nb):
                    continue
                seen.add(nb)
                order.append(nb)
                nxt.append(nb)
                if len(order) > max_states:
                    raise BudgetExceededError(
                        f"orbit exceeded {max_states} states")
        frontier = nxt
    return order


def partition_ref(rows, neighbors, height_ok, max_states, canon=tuple):
    """The seed-by-seed partition that one multi-source search replaced:
    the least row not yet covered seeds a capped_bfs_ref walk, and the
    rows among its states, compared through canon (sign normalization
    for PSL keys), join that orbit.  Returns (reps, rep_of, sizes): the
    seed rows in order, the seed row of each row's orbit, and the state
    count of each orbit."""
    rows = sorted(set(map(tuple, rows)))
    reps, rep_of, sizes = [], {}, []
    for row in rows:
        if row in rep_of:
            continue
        order = capped_bfs_ref(canon(row), neighbors, height_ok,
                               max_states)
        members = {canon(key) for key in order}
        for other in rows:
            if other not in rep_of and canon(other) in members:
                rep_of[other] = row
        reps.append(row)
        sizes.append(len(order))
    return reps, rep_of, sizes


def height_ok_ref(D, cap1, cap2):
    """Every pair (x, y) of a key has |x + y*w_j| within cap_j."""
    t = 1 if D % 4 == 1 else 0
    w1, w2 = (t + math.sqrt(D)) / 2.0, (t - math.sqrt(D)) / 2.0
    return lambda key: all(
        abs(x + y * w1) <= cap1 and abs(x + y * w2) <= cap2
        for x, y in zip(key[0::2], key[1::2]))


def _translations(D):
    from hilbert_selberg.quadfield import QuadInt
    return [QuadInt(D, 1, 0), QuadInt(D, -1, 0), QuadInt(D, 0, 1),
            QuadInt(D, 0, -1)]


def conj_neighbors_ref(D):
    """Conjugates h g h^-1 by S, T_1, T_-1, T_w, T_-w, in group arithmetic."""
    from hilbert_selberg.modgroup import GroupElem
    from hilbert_selberg.quadfield import QuadInt
    zero, one = QuadInt(D, 0, 0), QuadInt(D, 1, 0)
    gens = [GroupElem.make(zero, -one, one, zero)] + [
        GroupElem.make(one, mu, zero, one) for mu in _translations(D)]
    return lambda key: [(h * GroupElem.from_key(key, D) * h.inverse()).key()
                        for h in gens]


def form_neighbors_ref(D):
    """Images of (a, b, c) under x,y -> -y,x and x -> x + mu y."""
    from hilbert_selberg.quadfield import QuadInt

    def nbrs(key):
        a, b, c = (QuadInt(D, key[i], key[i + 1]) for i in (0, 2, 4))
        images = [(c, -b, a)] + [(a, b + 2 * a * mu, c + b * mu + a * mu * mu)
                                 for mu in _translations(D)]
        return [(p.a, p.b, q.a, q.b, r.a, r.b) for p, q, r in images]
    return nbrs


def gcd_coords_ref(xa, xb, ya, yb, t, n):
    """Scalar gcd in O_K, w^2 = t*w - n: nearest-lattice division with a
    3x3 rescue scan (first minimum) and a 200-step budget."""
    from hilbert_selberg.errors import BudgetExceededError

    def mul(xa, xb, ya, yb):
        bd = xb * yb
        return xa * ya - n * bd, xa * yb + xb * ya + t * bd

    def norm(a, b):
        return abs(a * a + t * a * b + n * b * b)

    for _ in range(200):
        if ya == 0 and yb == 0:
            return xa, xb
        ny = ya * ya + t * ya * yb + n * yb * yb
        numa, numb = mul(xa, xb, ya + t * yb, -yb)
        sgn, m = (1, ny) if ny > 0 else (-1, -ny)
        qa = (2 * sgn * numa + m) // (2 * m)
        qb = (2 * sgn * numb + m) // (2 * m)
        pa, pb = mul(qa, qb, ya, yb)
        ra, rb = xa - pa, xb - pb
        if norm(ra, rb) >= m:
            best = None
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    pa, pb = mul(qa + da, qb + db, ya, yb)
                    r2 = norm(xa - pa, xb - pb)
                    if best is None or r2 < best[0]:
                        best = (r2, xa - pa, xb - pb)
            _, ra, rb = best
            if best[0] >= m:
                raise BudgetExceededError(
                    f"euclidean step stalled for D={t * t - 4 * n}; "
                    "field may not admit nearest-lattice division")
        xa, xb, ya, yb = ya, yb, ra, rb
    raise BudgetExceededError("gcd iteration budget exhausted")


def ideal_index_ref(row, t, n):
    """Index in O_K = Z + Zw, w^2 = t*w - n, of the ideal spanned by the
    three coordinate pairs of a form row, by integer Hermite reduction
    of its 2x6 generator matrix (columns x and x*w = (-n*y, x + t*y)).
    Euclid's column steps on the first row leave one pivot column (p, s)
    and columns (0, r_i); the lattice is then spanned by (p, s) and
    (0, gcd r_i), of index |p * gcd r_i|."""
    cols = []
    for x, y in zip(row[0::2], row[1::2]):
        cols += [(x, y), (-n * y, x + t * y)]
    pivot, rest = (0, 0), 0
    for col in cols:
        while col[0]:
            q = pivot[0] // col[0]
            pivot, col = col, (pivot[0] - q * col[0], pivot[1] - q * col[1])
        rest = math.gcd(rest, col[1])
    return abs(pivot[0] * rest)


def normalize_key_ref(key, D):
    """Negate the key when its first nonzero entry x + y*w has negative
    first embedding (QuadInt.sign_embed)."""
    from hilbert_selberg.quadfield import QuadInt
    for x, y in zip(key[0::2], key[1::2]):
        if x or y:
            if QuadInt(D, x, y).sign_embed(1) < 0:
                return tuple(-v for v in key)
            return tuple(key)
    raise ValueError("zero key")


def content_generator_ref(f, F):
    """A generator k of the content ideal (f0, f1, f2) of a nonzero form,
    K of class number one: an element of norm +-N, N the ideal index,
    dividing every coefficient.  Multiplying by a power of eps_K brings
    some generator to |k_1|^2, |k_2|^2 <= N eps_K, so the search over
    that box is finite and exact."""
    from hilbert_selberg.quadfield import fundamental_unit, lattice_points
    D = F.D
    t = D % 2
    n = (1 - D) // 4 if D % 4 == 1 else -(D // 4)
    N = ideal_index_ref(tuple(v for x in f for v in (x.a, x.b)), t, n)
    bound = math.sqrt(N * fundamental_unit(D).embed(1)) + 1e-9
    for k in lattice_points(D, bound, bound):
        if abs(k.norm()) == N and all(k.divides(x) for x in f):
            return k
    raise AssertionError(f"no generator of norm {N} found")


def matrix_filter_ref(rows, dc, F):
    """Per-matrix oracle filter in QuadInt arithmetic: the normalized keys
    of the matrices [[A, B], [C, E]] whose form (C, E - A, -B), divided
    by its content k, has a mixed-sign discriminant canonicalizing to dc."""
    from hilbert_selberg.quadfield import QuadInt, canonical_disc
    D = F.D
    keys = set()
    for key in rows:
        aa, ab, ba, bb, ca, cb, da, db = key
        fa = QuadInt(D, ca, cb)
        fb = QuadInt(D, da - aa, db - ab)
        fc = QuadInt(D, -ba, -bb)
        if fa.is_zero() and fc.is_zero():
            continue
        k = content_generator_ref((fa, fb, fc), F)
        disc = (fb * fb - 4 * (fa * fc)).exact_div(k * k)
        if disc.sign_embed(1) <= 0 or disc.sign_embed(2) >= 0:
            continue
        if canonical_disc(disc, F) == dc:
            keys.add(normalize_key_ref(key, D))
    return keys


def matrix_boxes_ref(pell, height):
    """Entry boxes of the matrix-conjugacy count.  The stabilizer of a
    box-reduced form has entries of scale |t0_j| + sqrt|t0_j^2 - 4| at
    slot j (the Pell relation gives sqrt|d_j| * |u0_j| = sqrt|t0_j^2-4|)."""
    out = []
    for j in (1, 2):
        tj = abs(pell.t0.embed(j))
        out.append(max(height, 2.0 + 1.25 * (tj + math.sqrt(abs(tj * tj - 4.0)))))
    return out[0], out[1]


def matrix_keys_ref(pell, F, m1, m2):
    """Key rows, (N, 8), of the matrices the conjugacy count partitions:
    the rows of trace t0 with C_2 > 0 and A, B and C in the entry boxes,
    ordered by A, then C, each by its place in the box (by b, then a),
    whose form (C, E - A, -B) is u0 times a primitive form, in Python
    integers.  The scan modgroup._matrices_with_trace holds the rows
    with C_1 > 0, and the others are their conjugates [[A, -B],
    [-C, E]] by diag(1, -1); the rows with C_2 > 0 are taken from both
    by the exact sign.

    That form has discriminant (E - A)^2 + 4BC = t0^2 - 4 = d u0^2.
    Dividing by its content k leaves a primitive form of discriminant
    d (u0/k)^2, which canonicalizes to d exactly when u0/k is a unit."""
    import numpy as np
    from hilbert_selberg.modgroup import _matrices_with_trace
    from hilbert_selberg.quadfield import QuadInt
    D, u0 = F.D, pell.u0
    t = D % 2
    n = (1 - D) // 4 if D % 4 == 1 else -(D // 4)
    rows = _matrices_with_trace(F, pell.t0, m1, m2)
    rows = np.concatenate([rows, rows * [1, 1, -1, -1, -1, -1, 1, 1]])
    rows = rows[[QuadInt(D, ca, cb).sign_embed(2) > 0
                 for ca, cb in rows[:, 4:6].tolist()]]
    rows = rows[np.lexsort((rows[:, 4], rows[:, 5], rows[:, 0], rows[:, 1]))]
    keep = []
    for aa, ab, ba, bb, ca, cb, ea, eb in rows.tolist():
        form = (QuadInt(D, ca, cb), QuadInt(D, ea - aa, eb - ab),
                QuadInt(D, -ba, -bb))
        if all(u0.divides(x) for x in form):
            q = [x.exact_div(u0) for x in form]
            if ideal_index_ref([v for x in q for v in (x.a, x.b)], t, n) == 1:
                keep.append((aa, ab, ba, bb, ca, cb, ea, eb))
    return np.array(keep, dtype=np.int64).reshape(-1, 8)


def matrix_class_count_ref(pell, F, height=8.0):
    """The class count of pell.d by matrix conjugacy, the route the class
    number formula replaced in class_numbers: the conjugacy classes of
    the matrices of matrix_keys_ref under PSL(2, O_K), searched by
    modgroup.conjugation_orbit with caps max(3 h_j, 1.5 m_j), h_j the
    form boxes and m_j the entry boxes.  The search covers the half with
    C_2 > 0; g -> [[A, -B], [-C, E]] maps its capped graph onto the other
    half's, so the count is twice its classes; past orbits.MAX_STATES,
    which the search marks in Orbit.failed[0], it raises
    BudgetExceededError."""
    from hilbert_selberg.modgroup import conjugation_orbit
    from hilbert_selberg.orbits import budget_error
    from hilbert_selberg.pellforms import _form_boxes
    m1, m2 = matrix_boxes_ref(pell, height)
    h1, h2 = _form_boxes(pell.d, height)
    orbit, classes = conjugation_orbit(
        matrix_keys_ref(pell, F, m1, m2), F.D,
        max(3.0 * h1, 1.5 * m1), max(3.0 * h2, 1.5 * m2))
    if orbit.failed[0]:
        raise budget_error("conjugation")
    return 2 * len(classes)


def _within_caps(z, cap1, cap2):
    """|embed(z, j)| <= cap_j, by exact embedding signs against the
    float caps read as exact rationals."""
    for j, cap in ((1, cap1), (2, cap2)):
        p, q = Fraction(cap).as_integer_ratio()
        if (z * q).compare_embed(p, j) > 0 or (z * q).compare_embed(-p, j) < 0:
            return False
    return True


def factor_pairs_ref(P, box, D, cap1, cap2):
    """(i, ya, yb, za, zb) for every P[i] = y*z with P[i] nonzero, y in
    box and z within the caps, in QuadInt arithmetic; ordered by i, then
    by y's place in box."""
    from hilbert_selberg.quadfield import QuadInt
    out = []
    for i, (pa, pb) in enumerate(P):
        p = QuadInt(D, int(pa), int(pb))
        if p.is_zero():
            continue
        for ya, yb in box:
            y = QuadInt(D, int(ya), int(yb))
            if y.is_zero() or not y.divides(p):
                continue
            z = p.exact_div(y)
            if _within_caps(z, cap1, cap2):
                out.append((i, y.a, y.b, z.a, z.b))
    return out


def matrices_with_trace_ref(F, tr, cap1, cap2):
    """The per-A divisor loop that _matrices_with_trace replaced: for each
    A in the box, every b in the box dividing P = A*(tr - A) - 1 with
    c = P/b in the box, as (A, b, c, tr - A) rows.  The box is one test,
    |x + y*w_j| <= cap_j in float64, for A, b and c alike."""
    import numpy as np
    from hilbert_selberg.quadfield import lattice_points
    D = F.D
    t = D % 2
    n = (1 - D) // 4 if D % 4 == 1 else -(D // 4)
    w1, w2 = (t + math.sqrt(D)) / 2.0, (t - math.sqrt(D)) / 2.0
    pts = [p for p in lattice_points(D, cap1, cap2)
           if abs(p.a + p.b * w1) <= cap1 and abs(p.a + p.b * w2) <= cap2]
    pa = np.array([p.a for p in pts], dtype=np.int64)
    pb = np.array([p.b for p in pts], dtype=np.int64)
    out = [np.empty((0, 8), dtype=np.int64)]
    for A in pts:
        da, db = tr.a - A.a, tr.b - A.b
        bd = A.b * db
        Pa = A.a * da - n * bd - 1
        Pb = A.a * db + A.b * da + t * bd
        if Pa == 0 and Pb == 0:
            continue
        NB = pa * pa + t * pa * pb + n * pb * pb
        safe = np.where(NB == 0, 1, NB)
        numa = Pa * (pa + t * pb) - n * (Pb * -pb)
        numb = Pa * -pb + Pb * (pa + t * pb) + t * (Pb * -pb)
        idx = np.nonzero((NB != 0) & (numa % safe == 0)
                         & (numb % safe == 0))[0]
        ca, cb = numa[idx] // NB[idx], numb[idx] // NB[idx]
        keep = (np.abs(ca + cb * w1) <= cap1) & (np.abs(ca + cb * w2) <= cap2)
        j = idx[keep]
        out.append(np.column_stack(np.broadcast_arrays(
            A.a, A.b, pa[j], pb[j], ca[keep], cb[keep], da, db)))
    return np.concatenate(out)


def elliptic_candidates_ref(F, height_bound):
    """The per-candidate loop that _elliptic_candidates replaced: for each
    order nu, every matrix of trace 2cos(pi/nu) in the entry boxes as a
    GroupElem, its PSL order asserted to be nu, kept when its
    theta1-normalized sign (c with positive first embedding) still has
    trace 2cos(pi/nu); returns {nu: set of sign-normalized keys}."""
    from hilbert_selberg.modgroup import GroupElem, _two_cos_table
    out = {}
    for nu, tr in _two_cos_table(F).items():
        for key in matrices_with_trace_ref(F, tr, height_bound,
                                           height_bound).tolist():
            g = GroupElem.from_key(tuple(key), F.D)
            assert g.psl_order() == nu, (key, nu)
            ga = g if g.c.sign_embed(1) > 0 else \
                GroupElem(-g.a, -g.b, -g.c, -g.d)
            if ga.trace() == tr:
                out.setdefault(nu, set()).add(g.key())
    return out


def pell_fundamental_ref(d, F, eps_cap=200.0):
    """The Pell search that pellforms.pell_fundamental's trace box
    replaced: a lattice scan over u for the least eps = (t + u sqrt d)/2
    with t^2 - d u^2 = 4 and u_1 > 0, as a PellSolution.  The second
    embedding forces t_2^2 + |d_2| u_2^2 = 4, so |u_2| <= 2/sqrt|d_2|;
    the first is cut at u_1 sqrt(d_1) <= 2 eps_cap, which keeps every
    eps with eps - 1/eps <= 2 eps_cap.  None when no u in the box
    solves the equation."""
    from hilbert_selberg.quadfield import exact_sqrt, lattice_points
    from hilbert_selberg.records import PellSolution
    from hilbert_selberg.errors import ValidationError
    d1, d2 = d.embed(1), d.embed(2)
    cap1 = 2.0 * eps_cap / math.sqrt(d1)
    cap2 = 2.0 / math.sqrt(-d2) + 1e-9
    best = None
    for u in lattice_points(d.D, cap1, cap2):
        if u.is_zero() or u.embed(1) <= 0:
            continue
        try:
            t0 = exact_sqrt(d * (u * u) + 4)
        except ValidationError:
            continue
        eps = (t0.embed(1) + u.embed(1) * math.sqrt(d1)) / 2.0
        if best is None or eps < best[0] - 1e-12:
            best = (eps, t0, u)
    return None if best is None else PellSolution(d=d, t0=best[1],
                                                  u0=best[2])


def primitive_forms_ref(d, h1, h2):
    """Keys (a, b, c) of the primitive forms b^2 - 4ac = d with a, b, c
    in the per-embedding boxes, by brute force over (a, b) in QuadInt
    arithmetic."""
    from hilbert_selberg.quadfield import lattice_points
    D = d.D
    t = D % 2
    n = (1 - D) // 4 if D % 4 == 1 else -(D // 4)
    pts = list(lattice_points(D, h1, h2))
    keys = set()
    for a in pts:
        for b in pts:
            if a.is_zero() or not (4 * a).divides(b * b - d):
                continue
            c = (b * b - d).exact_div(4 * a)
            if abs(c.embed(1)) > h1 or abs(c.embed(2)) > h2:
                continue
            key = (a.a, a.b, b.a, b.b, c.a, c.b)
            if ideal_index_ref(key, t, n) == 1:
                keys.add(key)
    return keys


def _pairwise_sum_ref(terms):
    """Reduce a fixed-order term list as a balanced binary tree."""
    vals = list(terms)
    if not vals:
        return 0.0 + 0.0j
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _upto_ref(classes, x):
    """Classes with norm <= x, by a per-class test in place of
    GeodesicWindow.count_upto's prefix count; x must lie within the
    coverage."""
    from hilbert_selberg.errors import ValidationError
    if x > classes.coverage * (1.0 + 1e-9):
        raise ValidationError(f"trunc_norm={x} beyond the coverage")
    return tuple(c for c in classes.classes if c.norm <= x * (1.0 + 1e-12))


def _k_tail_ref(kept, sigma, k_cut):
    total = 0.0
    for c in kept:
        total += (1.22 * c.multiplicity
                  * c.norm ** (-(k_cut + 1 + sigma)) / (1.0 - 1.0 / c.norm))
    return total


# digits of the exact zeta oracles, and the size below which a power
# of the product is left out
_MP_DPS = 40
_MP_NEGLIGIBLE = 1e-40


@functools.lru_cache(maxsize=4096)
def _class_log_prefixes_mp(norm, angle, s, m):
    """The partial sums over k <= K of
    log(1 - rot z_k) + log(1 - conj(rot) z_k), with z_k = N^-(k+s) and
    rot = exp(i (m-2) angle), for K = 0, 1, ... until |z_K| < 1e-40, at
    _MP_DPS digits from the float inputs taken as exact.  The two logs
    are taken as one, log(1 - 2 cos z + z^2), which is the same branch
    since both factors have positive real part."""
    import mpmath
    with mpmath.workdps(_MP_DPS):
        log_n = mpmath.log(mpmath.mpf(norm))
        two_cos = 2 * mpmath.cos((m - 2) * mpmath.mpf(angle))
        step = mpmath.exp(-log_n)
        z = mpmath.exp(-mpmath.mpc(s) * log_n)
        acc = mpmath.mpc(0)
        sums = []
        while norm ** -(len(sums) + s.real) >= _MP_NEGLIGIBLE:
            acc += mpmath.log(1 - (two_cos - z) * z)
            sums.append(acc)
            z *= step
        return tuple(sums)


def _product_mp(kept, p, depth):
    """(log_value, value) of the Euler product over the kept classes to
    inner depth `depth`, rounded from _MP_DPS digits."""
    import mpmath
    s = complex(p.s)
    with mpmath.workdps(_MP_DPS):
        log_z = mpmath.mpc(0)
        for c in kept:
            sums = _class_log_prefixes_mp(c.norm, c.angle, s, p.m)
            if sums:
                log_z -= (c.multiplicity // 2) * sums[min(depth,
                                                          len(sums) - 1)]
        return complex(log_z), complex(mpmath.exp(log_z))


@functools.lru_cache(maxsize=4096)
def class_log_deriv_mp(norm, angle, s, m, depth):
    """One class's log-derivative series per unit multiplicity,
    -sum_l cos(l (m-2) angle) ln N / (1 - N^-l) N^-(l s), at _MP_DPS
    digits from the float inputs taken as exact: (its first `depth`
    powers, all of them until |N^-(l s)| < 1e-40)."""
    import mpmath
    with mpmath.workdps(_MP_DPS):
        log_n = mpmath.log(mpmath.mpf(norm))
        step = mpmath.exp(-mpmath.mpc(s) * log_n)
        z = step
        acc = mpmath.mpc(0)
        head = None
        ell = 1
        while ell <= depth or norm ** -(ell * s.real) >= _MP_NEGLIGIBLE:
            acc -= (mpmath.cos(ell * (m - 2) * mpmath.mpf(angle)) * log_n
                    / (1 - mpmath.exp(-ell * log_n)) * z)
            if ell == depth:
                head = acc
            z *= step
            ell += 1
        return head, acc


def selberg_zeta_ref(p, classes):
    """The class-by-class, power-by-power Euler product at the full
    requested depth trunc_k, evaluated exactly (at 40 digits, powers
    below 1e-40 left out): a ZetaValue with the same tail bound."""
    from hilbert_selberg.zetafun import ZetaValue, _norm_tail
    s = complex(p.s)
    kept = _upto_ref(classes, p.trunc_norm)
    log_z, value = _product_mp(kept, p, p.trunc_k)
    tail = (_k_tail_ref(kept, s.real, p.trunc_k)
            + _norm_tail(classes, p.trunc_norm, s.real))
    return ZetaValue(value=value, log_value=log_z, tail_bound=tail)


def selberg_zeta_uniform_ref(p, classes):
    """The product with every class to the one depth
    min(trunc_k, ceil(60 ln 2 / ln N_min)) set by the smallest kept
    norm, evaluated exactly like selberg_zeta_ref, with
    zetafun.selberg_zeta's own tail bound."""
    from hilbert_selberg.zetafun import ZetaValue, _k_tail, _norm_tail
    s = complex(p.s)
    n = classes.count_upto(p.trunc_norm)
    kept = classes.classes[:n]
    depth = min(p.trunc_k, math.ceil(60.0 * math.log(2.0)
                                     / math.log(kept[0].norm))) if n else 0
    log_z, value = _product_mp(kept, p, depth)
    tail = (_k_tail(classes, n, s.real, p.trunc_k)
            + _norm_tail(classes, p.trunc_norm, s.real))
    return ZetaValue(value=value, log_value=log_z, tail_bound=tail)


def selberg_log_deriv_ref(p, classes):
    """The per-class power loop that zetafun.selberg_log_deriv replaced,
    with its tail bound."""
    import cmath
    from hilbert_selberg.zetafun import ZetaValue
    s = complex(p.s)
    kept = _upto_ref(classes, p.trunc_norm)
    phase_mult = p.m - 2
    sigma = s.real
    terms = []
    power_tail = 0.0
    for c in kept:
        half = c.multiplicity // 2
        log_n = math.log(c.norm)
        acc = 0.0 + 0.0j
        ell = 1
        while ell * sigma * log_n <= 44.0:
            weight = log_n / (1.0 - c.norm ** (-ell))
            osc = 2.0 * math.cos(phase_mult * ell * c.angle)
            acc += weight * osc * cmath.exp(-ell * s * log_n)
            ell += 1
        terms.append(-half * acc)
        # the power grid's bound on the powers it leaves out
        power_tail += 2.0 ** -60 * c.multiplicity * log_n * c.norm ** -sigma
    total = _pairwise_sum_ref(terms)
    unseen = (1.5 * classes.weighted_count_constant * sigma / (sigma - 1.0)
              * p.trunc_norm ** (1.0 - sigma))
    return ZetaValue(value=total, log_value=total,
                     tail_bound=power_tail + unseen)


def ruelle_ref(s, classes):
    """(ratio, direct): the weight-2 ratio of two depth-80 reference
    products, and the class-by-class direct product, over the window."""
    import cmath
    from hilbert_selberg.zetafun import ZetaParams
    s = complex(s)
    x = classes.coverage
    za = selberg_zeta_ref(ZetaParams(s=s, m=2, trunc_norm=x, trunc_k=80),
                          classes)
    zb = selberg_zeta_ref(ZetaParams(s=s + 1.0, m=2, trunc_norm=x,
                                     trunc_k=80), classes)
    ratio = cmath.exp(za.log_value - zb.log_value)
    terms = [-c.multiplicity * cmath.log(1.0 - cmath.exp(-s * math.log(c.norm)))
             for c in _upto_ref(classes, x)]
    return ratio, cmath.exp(_pairwise_sum_ref(terms))


def hyp_ell_sum_ref(m, tf, classes, single):
    """The per-class power loop that traceform._hyp_ell_sums replaced,
    cut where the test function's transform was taken as negligible:
    past sqrt(184 beta) + 6 for a Gaussian, 48/kappa for a rational
    pair."""
    import numpy as np
    from hilbert_selberg.errors import InvariantViolation
    meta = tf.metadata
    u_cut = (math.sqrt(4.0 * meta["beta"] * 46.0) + 6.0
             if tf.kind == "gaussian" else 48.0 / meta["kappa"])
    weights, us = [], []
    for c in _upto_ref(classes, classes.coverage):
        half = c.multiplicity // 2
        log_n = math.log(c.norm)
        ell = 1
        while ell * log_n <= u_cut:
            w = log_n / (c.norm ** (ell / 2.0) - c.norm ** (-ell / 2.0))
            lam = ell * c.angle
            if single:
                sl = math.sin(lam)
                if abs(sl) < 1e-9:
                    raise InvariantViolation(
                        f"degenerate power angle at d=({c.d.a},{c.d.b}), "
                        f"l={ell}")
                osc = -math.sin((m - 1) * lam) / sl
            else:
                osc = -2.0 * math.cos((m - 2) * lam)
            weights.append(half * w * osc)
            us.append(ell * log_n)
            ell += 1
    return complex(np.dot(weights, tf.g1(us))) if us else 0.0 + 0.0j


def unit_series_ref(m, tf, F, single, terms):
    """The unit-factor series of a geometric side summed term by term to
    k = terms: -2 ln(eps) g1(2 k ln eps) times eps^-(m-1)k signed by
    m - 1, less the same at m - 3 for the double difference."""
    eps = F.eps.embed(1)
    log_eps = math.log(eps)

    def unit(j, k):
        return math.copysign(eps ** (-abs(j) * k), j - 0.5)

    total = 0.0 + 0.0j
    for k in range(1, terms + 1):
        u = unit(m - 1, k) - (0.0 if single else unit(m - 3, k))
        total += -2.0 * log_eps * complex(tf.g1(2.0 * k * log_eps)) * u
    return total


@functools.lru_cache(maxsize=64)
def heat_identity_ref(beta):
    """The identity integral over R of r e^{-beta r^2} tanh(pi r) by
    mpmath.quad at 30 digits, as (value, mpmath's error estimate).  The
    range stops at |r| = 10/sqrt(beta), past which the integral is
    e^-100/beta."""
    import mpmath
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        val, err = mpmath.quad(
            lambda r: r * mpmath.exp(-b * r * r) * mpmath.tanh(mpmath.pi * r),
            mpmath.linspace(0, 10 / mpmath.sqrt(b), 5), error=True)
        return 2 * float(val), 2 * float(err)


@functools.lru_cache(maxsize=256)
def heat_elliptic_ref(beta, theta1):
    """The elliptic integral over R of g1(u) k(u) by mpmath.quad at 30
    digits, as (value, mpmath's error estimate), with g1(u) =
    e^{-u^2/(4 beta)}/sqrt(4 pi beta) and k(u) = e^{-u/2} (e^u -
    e^{2i theta1})/(cosh u - cos 2 theta1) as written, not in the
    trapezoid's form.  The range stops at |u| = 20 sqrt(beta), past
    which g1 has mass erfc(10) and |k| <= 1/sin(theta1)."""
    import mpmath
    with mpmath.workdps(30):
        b = mpmath.mpf(beta)
        g_norm = 1 / mpmath.sqrt(4 * mpmath.pi * b)
        rot = mpmath.expj(2 * mpmath.mpf(theta1))
        cos2 = mpmath.cos(2 * mpmath.mpf(theta1))
        val, err = mpmath.quad(
            lambda u: g_norm * mpmath.exp(-u * u / (4 * b))
            * mpmath.exp(-u / 2) * (mpmath.exp(u) - rot)
            / (mpmath.cosh(u) - cos2),
            mpmath.linspace(-20 * mpmath.sqrt(b), 20 * mpmath.sqrt(b), 7),
            error=True)
        return complex(val), float(err)
