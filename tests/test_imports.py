"""Every name a module under src/ or tests/ imports is read in it.

A name counts as read when the module loads it anywhere (annotations
and string annotations too), lists it in a literal module-level
__all__, or imports it on a line marked `# noqa: F401`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests")
                 for path in (ROOT / top).rglob("*.py"))


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
