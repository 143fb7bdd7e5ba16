"""Outside-in tracing of hilbert_selberg layers.

A layer is a module-level function of the package.  `install` wraps each
one and puts the wrapper into every package module namespace that holds
the original, so calls between modules go through it and the package
source stays untouched.  `uninstall` restores the originals.

Each wrapped call records a span [name, start, end, parent, counts,
error].  Work counters (states, matrices, forms, lattice points,
quadrature calls and evaluations) are added to the span that did the
work.  `accumulate` folds a span list into totals and `per_layer` turns
totals into the benchmark's per-layer metrics.

Spans are attributed by phase.  The benchmark opens a root span named
"setup", "warmup" or "timed"; layer totals count only spans under "timed", and
spans under `make_field` belong to the field set-up (census) rather than
to the layers they call.  `make_field.s` and `elliptic_census.s` count in
every phase.
"""

import functools
import importlib
import sys
import time

# (module, attribute, counter) for every span layer; the span name drops
# the leading underscore of private helpers.
SPAN_LAYERS = (
    ("quadfield", "make_field", None),
    ("modgroup", "elliptic_census", None),
    ("modgroup", "conjugation_orbit", ("states", lambda out: len(out[0]))),
    ("modgroup", "_matrices_with_trace", ("matrices", len)),
    ("pellforms", "class_number", None),
    ("pellforms", "form_orbit", ("states", len)),
    ("pellforms", "enumerate_forms", ("forms", len)),
    ("pellforms", "pell_fundamental", None),
    ("geodesics", "enumerate_geodesics", None),
    ("zetafun", "selberg_zeta", None),
    ("zetafun", "selberg_log_deriv", None),
    ("zetafun", "ruelle", None),
    ("traceform", "geom_side_double_difference", None),
    ("traceform", "geom_side_difference", None),
    ("traceform", "double_difference_closed_forms", None),
    ("traceform", "heat_asymptotic_check", None),
    ("specfun", "digamma", None),
    ("specfun", "li", None),
    ("cache", "get_or_compute", None),
)

PACKAGE = "hilbert_selberg"
FIELD = "quadfield.make_field"
CENSUS = "modgroup.elliptic_census"
ENUMERATE = "geodesics.enumerate_geodesics"
PELL = "pellforms.pell_fundamental"
CLASS_NUMBER = "pellforms.class_number"
CACHE = "cache.get_or_compute"
ORACLE = ("modgroup.conjugation_orbit", "modgroup.matrices_with_trace",
          CLASS_NUMBER)
ENUMERATION_LAYERS = ORACLE + ("pellforms.form_orbit",
                               "pellforms.enumerate_forms", PELL, ENUMERATE)
CLI_COMMANDS = ("field", "pell", "forms", "geodesics", "zeta", "ledger",
                "trace", "trace_heatfit", "report_classavg")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


SPAN_NAMES = tuple(span_name(m, a) for m, a, _ in SPAN_LAYERS)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, counts, error]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error=None) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = error
        self._stack.pop()

    def counts(self) -> dict:
        """Counters of the innermost open span."""
        return self.spans[self._stack[-1]][4]


def _add(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _spanned(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, type(exc).__name__)
            raise
        if counter is not None:
            _add(tracer.spans[idx][4], counter[0], counter[1](out))
        tracer.close(idx)
        return out
    return wrapper


def _counted_points(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = tracer.counts()
        n = 0
        try:
            for point in fn(*args, **kwargs):
                n += 1
                yield point
        finally:
            _add(counts, "points", n)
    return wrapper


class _CountedIntegrate:
    """Stand-in for traceform's scipy.integrate that counts quad work."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, func, *args, **kwargs):
        counts = self._tracer.counts()
        evals = [0]

        def counted(x, *fargs):
            evals[0] += 1
            return func(x, *fargs)

        try:
            return self._module.quad(counted, *args, **kwargs)
        finally:
            _add(counts, "quad_calls", 1)
            _add(counts, "quad_evals", evals[0])


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> list:
    """Wrap every layer in every loaded package module that refers to it.

    Returns the undo list for `uninstall`.  Modules imported later keep
    the originals, so import the package modules in use first; the
    layer modules themselves are imported here.
    """
    originals = {}
    for module, attr, counter in SPAN_LAYERS:
        fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
        originals[id(fn)] = _spanned(tracer, span_name(module, attr), fn,
                                     counter)
    points = sys.modules[PACKAGE + ".quadfield"].lattice_points
    originals[id(points)] = _counted_points(tracer, points)

    undo = []
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            wrapper = originals.get(id(val))
            if wrapper is not None:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrapper)
    # only traceform's quadrature is counted; specfun shares the module
    traceform = sys.modules[PACKAGE + ".traceform"]
    undo.append((traceform, "integrate", traceform.integrate))
    traceform.integrate = _CountedIntegrate(tracer, traceform.integrate)
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


# ------------------------------------------------------------ aggregation


def accumulate(totals: dict, spans: list) -> dict:
    """Add one span list's layer sums into totals (a plain dict)."""
    n = len(spans)
    self_t = [s[2] - s[1] for s in spans]
    has_child = [False] * n
    root = [""] * n
    in_field = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent < 0:
            root[i] = name
            continue
        self_t[parent] -= end - start
        has_child[parent] = True
        root[i] = root[parent]
        in_field[i] = in_field[parent] or spans[parent][0] == FIELD

    def bump(key, value):
        totals[key] = totals.get(key, 0) + value

    for i, (name, start, end, parent, counts, error) in enumerate(spans):
        if name in (FIELD, CENSUS):
            bump(f"{name}.s", end - start)
            continue
        if root[i] != "timed" or in_field[i]:
            continue
        for key, value in counts.items():
            bump(f"{name}.{key}", value)
        if name not in SPAN_NAMES:
            continue
        bump(f"{name}.self_s", self_t[i])
        bump(f"{name}.calls", 1)
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == ENUMERATE:
            bump(f"{name}.s", end - start)
        elif name == PELL:
            bump(f"{name}.budget_skips",
                 int(error == "BudgetExceededError"))
            if parent_name == ENUMERATE:
                bump("geodesics.candidates", 1)
        elif name == CLASS_NUMBER and parent_name == ENUMERATE:
            bump("geodesics.families", 1)
        elif name == CACHE:
            bump(f"{name}.store_s" if has_child[i] else f"{name}.load_s",
                 self_t[i])
    return totals


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(totals: dict) -> dict:
    """Per-layer metrics (name -> value) from accumulated totals.

    Counts of lattice points and quadrature work are summed over the
    spans that consumed them, whatever layer that was.
    """
    out = {}
    for name in SPAN_NAMES:
        if name in (FIELD, CENSUS):
            out[f"{name}.s"] = totals.get(f"{name}.s", 0.0)
        elif name != CACHE:
            out[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0)
            out[f"{name}.calls"] = totals.get(f"{name}.calls", 0)
    for layer, key in (("modgroup.conjugation_orbit", "states"),
                       ("modgroup.matrices_with_trace", "matrices"),
                       ("pellforms.form_orbit", "states"),
                       ("pellforms.enumerate_forms", "forms")):
        out[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0)
    out[f"{PELL}.budget_skips"] = totals.get(f"{PELL}.budget_skips", 0)
    out["geodesics.kept_ratio"] = _share(totals.get("geodesics.families", 0),
                                         totals.get("geodesics.candidates", 0))
    out["quadfield.lattice_points.points"] = sum(
        v for k, v in totals.items() if k.endswith(".points"))
    out["traceform.quad.calls"] = sum(
        v for k, v in totals.items() if k.endswith(".quad_calls"))
    out["traceform.quad.evals"] = sum(
        v for k, v in totals.items() if k.endswith(".quad_evals"))
    for key in ("hits", "misses"):
        out[f"{CACHE}.{key}"] = totals.get(f"{CACHE}.{key}", 0)
    for key in ("load_s", "store_s"):
        out[f"{CACHE}.{key}"] = totals.get(f"{CACHE}.{key}", 0.0)
    out["cli.import_s"] = totals.get("cli.import_s", 0.0)
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = totals.get(f"cli.{cmd}.s", 0.0)
    oracle = sum(out[f"{name}.self_s"] for name in ORACLE)
    base = totals.get(f"{ENUMERATE}.s", 0.0)
    out["oracle.self_s"] = oracle
    out["oracle.base_s"] = base
    out["oracle.share"] = _share(oracle, base)
    out["enumerate.layer_sum_s"] = sum(
        out[f"{name}.self_s"] for name in ENUMERATION_LAYERS)
    return out
