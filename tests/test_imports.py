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
