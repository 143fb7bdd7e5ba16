"""Every name a module under src/ or tests/ imports is read in it, and
every package name is imported from the module that defines it.

A name counts as read when the module loads it anywhere (annotations
and string annotations too), lists it in a literal module-level
__all__, or imports it on a line marked `# noqa: F401`.

A name imported from a package module (`from .mod import name` or
`from hilbert_selberg.mod import name`, in src/, tests/ or demos/) must
be defined at the top level of mod, by a def, a class or an assignment,
or be a submodule: one home per name, so no module is loaded only to
pass on another's.

Every parameter with a default in src/ is passed by some call in src/,
save the few UNPASSED_KEPT names with their reasons: an option only
tests set is code no command runs.

No module under src/ holds an assert statement: `python -O` strips
them, so a verdict resting on one would pass unchecked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests")
                 for path in (ROOT / top).rglob("*.py"))
PACKAGE = "hilbert_selberg"
PACKAGE_DIR = ROOT / "src" / PACKAGE


def _annotation_names(node):
    """Names inside a string annotation such as "GeodesicWindow"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in lines[i - 1]
                   for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.append((node.lineno, name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.arg):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in read]


def test_scan_flags_and_excuses():
    source = "\n".join([
        "import os",
        "import os.path as osp",
        "import json  # noqa: F401",
        "from typing import (Dict,",
        "                    List)",
        "from math import pi, tau",
        "from sys import argv",
        "__all__ = ['tau']",
        "def f(x: 'Dict') -> 'int':",
        "    return pi",
    ])
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (4, "List"),
                                      (7, "argv")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES
             for line, name in unused_imports(path.read_text())]
    assert not found, "imported but never read:\n" + "\n".join(found)


def defined_names(source: str):
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def borrowed_imports(source: str, homes):
    """(line, "mod.name") of every package import whose module does not
    define the name.  homes maps each package module, relative to the
    package ("" for the package itself), to its defined names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            mod = node.module or ""
        elif node.level == 0 and node.module == PACKAGE:
            mod = ""
        elif node.level == 0 and node.module.startswith(PACKAGE + "."):
            mod = node.module[len(PACKAGE) + 1:]
        else:
            continue
        for alias in node.names:
            qualified = f"{mod}.{alias.name}" if mod else alias.name
            if alias.name not in homes.get(mod, ()) and qualified not in homes:
                found.append((node.lineno, qualified))
    return found


def test_borrowed_scan_flags_and_excuses():
    assert defined_names("\n".join([
        "import os",
        "from .records import GeodesicWindow",
        "A, (B, C) = 1, (2, 3)",
        "D: int = 4",
        "def f(): pass",
        "class G: pass",
    ])) == {"A", "B", "C", "D", "f", "G"}
    homes = {"": set(), "records": {"GeodesicWindow", "count_reports"},
             "geodesics": {"enumerate_geodesics"}, "pellforms": set()}
    source = "\n".join([
        "from .records import GeodesicWindow",
        "from .geodesics import GeodesicWindow, enumerate_geodesics",
        "from hilbert_selberg.pellforms import FormOverOK",
        "from hilbert_selberg import geodesics",
        "from . import nowhere",
        "from oracles import anything",
        "def f():",
        "    from hilbert_selberg.records import count_reports",
    ])
    assert borrowed_imports(source, homes) == [
        (2, "geodesics.GeodesicWindow"), (3, "pellforms.FormOverOK"),
        (5, "nowhere")]


def test_each_name_is_imported_from_its_home():
    homes = {("" if path.stem == "__init__" else path.stem):
             defined_names(path.read_text())
             for path in PACKAGE_DIR.glob("*.py")}
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES + sorted((ROOT / "demos").rglob("*.py"))
             for line, name in borrowed_imports(path.read_text(), homes)]
    assert not found, "imported from a module that does not define it:\n" \
        + "\n".join(found)


# --------------------------------------------------- options without a caller

# parameters with a default that no call in src/ passes, and why they stay
UNPASSED_KEPT = {
    "cli.main(argv)": "the entry point the tests drive",
    "records.GeodesicWindow.__init__(coverage)": "API documented in the README",
}


def _defaulted_params(fn, method):
    """(name, position) of each parameter of fn with a default; position
    counts the arguments a call passes, None for keyword-only ones."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list) else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults)
            if d is not None]
    return out


def unpassed_defaults(sources):
    """Every "module.qualname(param)" whose param has a default, in a
    top-level function or a method of a top-level class, that no call in
    sources (module -> source text) passes by keyword or by position.
    Calls match by the called name: f(...) and x.f(...) both call f, and
    C(...) calls C.__init__."""
    params, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        called = node.name if fn.name == "__init__" else fn.name
                        params += [(f"{module}.{node.name}.{fn.name}({p})",
                                    called, p, i)
                                   for p, i in _defaulted_params(fn, True)]
            elif isinstance(node, ast.FunctionDef):
                params += [(f"{module}.{node.name}({p})", node.name, p, i)
                           for p, i in _defaulted_params(node, False)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)

    def passed(call, param, pos):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return pos is not None and len(call.args) > pos

    return [label for label, called, param, pos in params
            if not any(passed(c, param, pos) for c in calls.get(called, ()))]


def test_unpassed_scan_flags_and_excuses():
    source = "\n".join([
        "def f(a, b=1, c=2, *, d=3, e=4):",
        "    return g(a) + g(a, 1)",
        "def g(x, y=0, z=0):",
        "    return f(x, 5, e=6)",
        "class C:",
        "    def __init__(self, u, v=None):",
        "        self.m(1, 2)",
        "    def m(self, p=0, q=0, r=0):",
        "        def inner(w=1):",
        "            return w",
        "        return C(p) if r else h(*q)",
        "def h(s=0, t=0):",
        "    return 0",
    ])
    assert unpassed_defaults({"mod": source}) == [
        "mod.f(c)", "mod.f(d)", "mod.g(z)", "mod.C.__init__(v)", "mod.C.m(r)"]


def test_every_option_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = unpassed_defaults(sources)
    assert sorted(found) == sorted(UNPASSED_KEPT), \
        "defaults no call in src/ passes:\n" + "\n".join(
            f for f in found if f not in UNPASSED_KEPT)


# ------------------------------------------------------- asserts in src/

def assert_statements(source: str):
    """Line of every assert statement in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_assert_scan_flags_statements_only():
    source = "\n".join([
        "def f(x):",
        "    assert x > 0, x",
        "    if x:",
        "        assert x",
        "    return 'assert x'  # assert x",
        "def assert_ok():",
        "    raise AssertionError",
    ])
    assert assert_statements(source) == [2, 4]


def test_no_assert_in_src():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in assert_statements(path.read_text())]
    assert not found, "assert statements in src/, stripped by python -O:\n" \
        + "\n".join(found)
