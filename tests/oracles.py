"""Independent reference computations used to freeze expected values.

Everything here is deliberately written against the underlying
definitions (character sums, generalized Bernoulli numbers, quadrature)
rather than the package's own algorithms, so a test that compares the
two is a genuine cross-check and not a tautology.
"""

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


def capped_bfs_ref(seed, neighbors, height_ok, max_states, targets=None):
    """Key-by-key height-capped BFS: returns (visit order, hit_target).

    Each neighbour is checked in turn: already visited, over the height
    cap, a target (stop at once), then the state budget, which raises.
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
                if targets is not None and nb in targets:
                    return order, True
                nxt.append(nb)
                if len(order) > max_states:
                    raise BudgetExceededError(
                        f"orbit exceeded {max_states} states")
        frontier = nxt
    return order, False


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
        order, _ = capped_bfs_ref(canon(row), neighbors, height_ok,
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
    c = P/b in the box, as (A, b, c, tr - A) rows."""
    import numpy as np
    from hilbert_selberg.quadfield import lattice_points
    D = F.D
    t = D % 2
    n = (1 - D) // 4 if D % 4 == 1 else -(D // 4)
    w1, w2 = (t + math.sqrt(D)) / 2.0, (t - math.sqrt(D)) / 2.0
    pts = list(lattice_points(D, cap1, cap2))
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
    """Classes with norm <= x, by the per-class test GeodesicWindow.upto
    made before the prefix count; x must lie within the coverage."""
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


def selberg_zeta_ref(p, classes):
    """The class-by-class, power-by-power Euler product that
    zetafun.selberg_zeta replaced, at the full requested depth trunc_k:
    a ZetaValue with the same tail bound."""
    import cmath
    from hilbert_selberg.zetafun import ZetaValue, _norm_tail
    s = complex(p.s)
    kept = _upto_ref(classes, p.trunc_norm)
    phase_mult = p.m - 2
    terms = []
    for c in kept:
        half = c.multiplicity // 2
        log_n = math.log(c.norm)
        rot = cmath.exp(1j * phase_mult * c.angle)
        acc = 0.0 + 0.0j
        for k in range(p.trunc_k + 1):
            z = cmath.exp(-(k + s) * log_n)
            acc += cmath.log(1.0 - rot * z) + cmath.log(1.0 - rot.conjugate() * z)
        terms.append(-half * acc)
    log_z = _pairwise_sum_ref(terms)
    tail = (_k_tail_ref(kept, s.real, p.trunc_k)
            + _norm_tail(classes, p.trunc_norm, s.real))
    return ZetaValue(value=cmath.exp(log_z), log_value=log_z,
                     tail_bound=tail)


def selberg_zeta_uniform_ref(p, classes):
    """The array product that zetafun.selberg_zeta replaced: every class
    to the one depth min(trunc_k, ceil(60 ln 2 / ln N_min)) set by the
    smallest kept norm, as a (class x power) array."""
    import cmath
    import numpy as np
    from hilbert_selberg.zetafun import (ZetaValue, _NEGLIGIBLE, _k_tail,
                                         _norm_tail)
    s = complex(p.s)
    n = classes.count_upto(p.trunc_norm)
    log_n = classes.log_norms[:n, None]
    log_z = 0.0 + 0.0j
    if n:
        depth = min(p.trunc_k, math.ceil(_NEGLIGIBLE / log_n[0, 0]))
        z = np.exp(-(np.arange(depth + 1) + s) * log_n)
        rot = np.exp(1j * (p.m - 2) * classes.angles[:n, None])
        acc = np.sum(np.log(1.0 - rot * z) + np.log(1.0 - rot.conj() * z),
                     axis=1)
        log_z = complex(np.sum(-classes.halves[:n] * acc))
    tail = (_k_tail(classes, n, s.real, p.trunc_k)
            + _norm_tail(classes, p.trunc_norm, s.real))
    return ZetaValue(value=cmath.exp(log_z), log_value=log_z,
                     tail_bound=tail)


def selberg_log_deriv_ref(p, classes):
    """The per-class power loop that zetafun.selberg_log_deriv replaced."""
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
        drop = c.norm ** (-ell * sigma)
        power_tail += (1.5 * c.multiplicity * log_n * drop
                       / (1.0 - c.norm ** (-sigma)))
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
    """The per-class power loop that traceform._hyp_ell_sum replaced."""
    import numpy as np
    from hilbert_selberg.errors import InvariantViolation
    u_cut = float(tf.metadata["u_cut"])
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
