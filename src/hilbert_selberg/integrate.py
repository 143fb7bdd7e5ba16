"""Adaptive Gauss-Kronrod quadrature over vector-valued integrands.

quad(f, a, b, epsabs, epsrel, limit) integrates f over [a, b], where b
may be +inf.  The integrand is called once per refinement level, with
the nodes of every live panel in one 1-D array x; it returns an array
whose last axis matches x, of shape (n,) for one component or (m, n)
for a stack of m real or complex components.  Each component must meet
its own tolerance max(epsabs, epsrel * |value|).

Finite intervals use the QUADPACK 21-point Kronrod rule; [a, inf) uses
the 15-point rule after the map x = a + (1 - t)/t on t in (0, 1].  Each
panel's error is QUADPACK's heuristic: |Kronrod - Gauss| rescaled by
the panel's mean absolute deviation, and never below 50 machine
epsilons of its absolute integral.  Unlike QUADPACK, which starts from
one panel and bisects the single worst panel at a time, the first level
is a uniform mesh of FIRST_MESH panels (at most `limit`), and every
panel whose error is needed to reach a component's tolerance is bisected
in the same level.  QUADPACK's first-panel test applies to every panel
of the first mesh: a panel whose error estimate is saturated at its
whole deviation in some component is bisected whatever the tolerance.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
# panels of the uniform first mesh: the geometric sides' integrands need
# at least this resolution, which bisection from one panel reaches only
# after three levels
FIRST_MESH = 8


def _rule(xgk, wgk, wg) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full symmetric nodes, Kronrod and Gauss weights on [-1, 1] from
    QUADPACK's half tables (descending nodes ending at 0; the Gauss
    nodes are xgk[1], xgk[3], ...)."""
    xgk, wgk = np.array(xgk), np.array(wgk)
    wgh = np.zeros_like(wgk)
    wgh[1::2] = wg
    nodes = np.concatenate([-xgk[:-1], xgk[::-1]])
    return (nodes, np.concatenate([wgk[:-1], wgk[::-1]]),
            np.concatenate([wgh[:-1], wgh[::-1]]))


GK21 = _rule(
    (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
     0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
     0.0),
    (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
     0.123491976262065851077208892107770, 0.134709217311473325928054001771707,
     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
     0.149445554002916905664936468389821),
    (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
     0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
     0.295524224714752870173892994651338))

GK15 = _rule(
    (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0),
    (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714),
    (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
     0.381830050505118944950369775488975, 0.417959183673469387755102040816327))


def _panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
            hi: np.ndarray, rule, a: float, infinite: bool):
    """Kronrod value, QUADPACK error and mean absolute deviation (resasc)
    of each panel [lo_i, hi_i], as (m, P) arrays with one row per
    component, and f's component shape."""
    nodes, wk, wg = rule
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    if infinite:
        vals = np.asarray(f((a + (1.0 - t) / t).ravel()))
        shape = vals.shape[:-1]
        vals = vals.reshape((-1,) + t.shape) / (t * t)
    else:
        vals = np.asarray(f(t.ravel()))
        shape = vals.shape[:-1]
        vals = vals.reshape((-1,) + t.shape)
    resk = vals @ wk
    resabs = (np.abs(vals) @ wk) * half
    resasc = (np.abs(vals - 0.5 * resk[..., None]) @ wk) * half
    err = np.abs(resk - vals @ wg) * half
    scaled = resasc * np.minimum(
        1.0, (200.0 * err / np.where(resasc == 0.0, 1.0, resasc)) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                   np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * half, err, resasc, shape


def quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
         epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
         limit: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """Integral of f over [a, b] (b may be inf) and its error estimate.

    Both have f's component shape: a 0-d array for one component.  At
    most `limit` panels are used; when that budget runs out the current
    value is returned with its unmet error estimate.
    """
    a, b = float(a), float(b)
    infinite = math.isinf(b)
    if not math.isfinite(a) or (infinite and b < 0) or not a < b:
        raise ValueError(f"quad needs finite a < b or b = +inf, "
                         f"got [{a}, {b}]")
    rule = GK15 if infinite else GK21
    edges = np.linspace(0.0 if infinite else a, 1.0 if infinite else b,
                        max(1, min(FIRST_MESH, limit)) + 1)
    lo, hi = edges[:-1], edges[1:]
    res, err, resasc, shape = _panels(f, lo, hi, rule, a, infinite)
    # QUADPACK's first-panel test: an error estimate saturated at the
    # panel's whole deviation says nothing, so that panel is refined
    saturated = ((err == resasc) & (err != 0.0)).any(axis=0)
    while True:
        total = res.sum(axis=1)
        errsum = err.sum(axis=1)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        open_ = errsum > tol
        room = limit - lo.size
        if not (open_.any() or saturated.any()) or room <= 0:
            return total.reshape(shape), errsum.reshape(shape)
        # for each open component, the worst panels whose errors together
        # leave less than half of its tolerance to the rest
        e = err[open_]
        worst_first = -np.sort(-e, axis=1)
        rest = np.cumsum(worst_first[:, ::-1], axis=1)[:, ::-1]
        k = (rest > 0.5 * tol[open_, None]).sum(axis=1)
        cut = worst_first[np.arange(k.size), k - 1]
        split = (saturated | (e >= cut[:, None]).any(axis=0)) & (
            hi - lo > 200.0 * _EPMACH * np.maximum(np.abs(lo), np.abs(hi))
            + 1000.0 * _UFLOW)
        idx = np.flatnonzero(split)
        if idx.size == 0:
            return total.reshape(shape), errsum.reshape(shape)
        if idx.size > room:
            worst = (err[:, idx] / tol[:, None]).max(axis=0)
            idx = np.sort(idx[np.argsort(-worst, kind="stable")[:room]])
        keep = np.ones(lo.size, dtype=bool)
        keep[idx] = False
        mid = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate([lo[idx], mid])
        new_hi = np.concatenate([mid, hi[idx]])
        new_res, new_err, _, _ = _panels(f, new_lo, new_hi, rule, a,
                                         infinite)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        res = np.concatenate([res[:, keep], new_res], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        saturated = np.zeros(lo.size, dtype=bool)
