"""Source hygiene: every name a module of the package imports is used.

No linter ships with the package, so the check is an ``ast`` walk: a name
bound by an import counts as used when it is read anywhere in the module
(as a ``Name``, including the base of an attribute chain or an annotation).
Names the module lists in ``__all__`` are its exports, and ``__version__``
is the package's; both are exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "orderinv").glob("*.py"))


def unused_imports(text: str) -> list[str]:
    """The names ``text`` imports but never reads, in import order."""
    tree = ast.parse(text)
    imported, used, exported = [], {"__version__"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used | exported]


def test_unused_import_check_finds_what_it_should():
    text = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
            "from math import gcd, lcm\nfrom . import kept\n__all__ = ['lcm']\n"
            "x: kept.T = gcd(1, 2)\n")
    assert unused_imports(text) == ["os", "regex"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
