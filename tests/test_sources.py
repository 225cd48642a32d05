"""Source hygiene: every name a module of the package imports is used, and
every private function or class it defines is referenced.

No linter ships with the package, so the checks are ``ast`` walks: a name
bound by an import counts as used when it is read anywhere in the module
(as a ``Name``, including the base of an attribute chain or an annotation).
Names the module lists in ``__all__`` are its exports, and ``__version__``
is the package's; both are exempt.  A module-level ``_name`` function or
class counts as referenced when some module of the package reads it, as a
``Name`` or an attribute, outside its own definition.
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


def unreferenced_private_names(texts: list[str]) -> list[str]:
    """The module-level private functions and classes defined in ``texts``
    that no code outside their own definition reads, in definition order."""
    defined, read = [], set()
    for text in texts:
        for node in ast.parse(text).body:
            own = getattr(node, "name", None)  # a def or class: its reads of itself don't count
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append(own)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name and name != own:
                    read.add(name)
    return [name for name in defined if name not in read]


def test_unreferenced_private_check_finds_what_it_should():
    texts = ["def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n)\n\n"
             "class _Dead:\n    def _method(self):\n        pass\n\n"
             "def __getattr__(name):\n    return _used()\n",
             "from . import a\n\nclass _Base:\n    pass\n\nclass Kept(_Base):\n    pass\n\n"
             "x = a._by_attribute\n\ndef _by_attribute():\n    pass\n"]
    assert unreferenced_private_names(texts) == ["_recursive", "_Dead"]


def test_every_private_function_and_class_is_referenced():
    assert unreferenced_private_names([path.read_text() for path in SOURCES]) == []
