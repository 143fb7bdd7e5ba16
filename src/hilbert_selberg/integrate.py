"""Adaptive Gauss-Kronrod quadrature of vector-valued integrands over
a half-line.

quad(f, a, epsabs, epsrel, limit) integrates f over [a, inf).  The
integrand is called once per refinement level, with the nodes of every
live panel in one 1-D array x; it returns an array whose last axis
matches x, of shape (n,) for one component or (m, n) for a stack of m
real or complex components.  Each component must meet its own
tolerance max(epsabs, epsrel * |value|), where epsabs and epsrel are
numbers or arrays of f's component shape, one tolerance per component.

The QUADPACK 15-point Kronrod rule runs after the map x = a + (1 - t)/t
on t in (0, 1].  Each panel's error is QUADPACK's heuristic:
|Kronrod - Gauss| rescaled by the panel's mean absolute deviation, and
never below 50 machine epsilons of its absolute integral.  Unlike
QUADPACK, which starts from one panel and bisects the single worst
panel at a time, the first level is a uniform mesh of FIRST_MESH panels
(at most `limit`), and every panel whose error is needed to reach a
component's tolerance is bisected in the same level, so components
share one mesh.  QUADPACK's first-panel test applies to every panel of
the first mesh: a panel whose error estimate is saturated at its whole
deviation in some component is bisected whatever the tolerance.
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
            hi: np.ndarray, a: float):
    """Kronrod value, QUADPACK error and mean absolute deviation (resasc)
    of each t-panel [lo_i, hi_i], as (m, P) arrays with one row per
    component, and f's component shape."""
    nodes, wk, wg = GK15
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    vals = np.asarray(f((a + (1.0 - t) / t).ravel()))
    shape = vals.shape[:-1]
    vals = vals.reshape((-1,) + t.shape) / (t * t)
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


def quad(f: Callable[[np.ndarray], np.ndarray], a: float,
         epsabs: float | np.ndarray = 1.49e-8,
         epsrel: float | np.ndarray = 1.49e-8,
         limit: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """Integral of f over [a, inf) and its error estimate.

    Both have f's component shape: a 0-d array for one component.
    epsabs and epsrel broadcast to that shape.  At most `limit` panels
    are used; when that budget runs out the current value is returned
    with its unmet error estimates.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"quad needs a finite lower end, got {a}")
    edges = np.linspace(0.0, 1.0, max(1, min(FIRST_MESH, limit)) + 1)
    lo, hi = edges[:-1], edges[1:]
    res, err, resasc, shape = _panels(f, lo, hi, a)
    epsabs = np.broadcast_to(np.asarray(epsabs, dtype=float), shape).ravel()
    epsrel = np.broadcast_to(np.asarray(epsrel, dtype=float), shape).ravel()
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
            hi - lo > 200.0 * _EPMACH * hi + 1000.0 * _UFLOW)
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
        new_res, new_err, _, _ = _panels(f, new_lo, new_hi, a)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        res = np.concatenate([res[:, keep], new_res], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        saturated = np.zeros(lo.size, dtype=bool)
