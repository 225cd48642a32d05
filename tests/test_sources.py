"""Source hygiene: every name a module of the package imports is used,
every private function or class it defines is referenced, and no module
reaches for another module's private name.

No linter ships with the package, so the checks are ``ast`` walks: a name
bound by an import counts as used when it is read anywhere in the module
(as a ``Name``, including the base of an attribute chain or an annotation).
Names the module lists in ``__all__`` are its exports, and ``__version__``
is the package's; both are exempt.  A module-level ``_name`` function or
class counts as referenced when some module of the package reads it, as a
``Name`` or an attribute, outside its own definition.  A private name is
``_x`` but not ``__x__``; a module may neither import one from another
module (``from .m import _x``) nor read one off a name it imported
(``m._x``).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "orderinv").glob("*.py"))


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


def defined_and_read(texts: list[str]) -> tuple[list[str], set[str]]:
    """The module-level functions and classes defined in ``texts``, in
    definition order, and every name the code reads outside the definition
    of that name: as a ``Name``, an attribute or a name imported from a
    module."""
    defined, read = [], set()
    for text in texts:
        for node in ast.parse(text).body:
            own = getattr(node, "name", None)  # a def or class: its reads of itself don't count
            if own:
                defined.append(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    names = [alias.name for alias in sub.names]
                else:
                    names = [sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)]
                read |= {name for name in names if name and name != own}
    return defined, read


def unreferenced_private_names(texts: list[str]) -> list[str]:
    """The module-level private functions and classes defined in ``texts``
    that no code outside their own definition reads, in definition order."""
    defined, read = defined_and_read(texts)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_unreferenced_private_check_finds_what_it_should():
    texts = ["def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n)\n\n"
             "class _Dead:\n    def _method(self):\n        pass\n\n"
             "def __getattr__(name):\n    return _used()\n",
             "from . import a\n\nclass _Base:\n    pass\n\nclass Kept(_Base):\n    pass\n\n"
             "x = a._by_attribute\n\ndef _by_attribute():\n    pass\n"]
    assert unreferenced_private_names(texts) == ["_recursive", "_Dead"]


def test_every_private_function_and_class_is_referenced():
    assert unreferenced_private_names([path.read_text() for path in SOURCES]) == []


def unreferenced_public_names(sources: list[str], readers: list[str], config: str) -> list[str]:
    """The module-level public functions and classes defined in ``sources``
    that no code of ``sources`` or ``readers`` reads outside their own
    definition, and that ``config`` does not name, in definition order."""
    defined, _ = defined_and_read(sources)
    _, read = defined_and_read(sources + readers)
    named = set(re.findall(r"\w+", config))
    return [name for name in defined
            if not name.startswith("_") and name not in read | named]


def test_unreferenced_public_check_finds_what_it_should():
    sources = ["def kept():\n    pass\n\ndef dead(n):\n    return dead(n)\n\n"
               "class Exported:\n    pass\n\ndef entry():\n    return _helper()\n\n"
               "def _helper():\n    pass\n",
               "from .a import kept\n\ndef orphan():\n    pass\n"]
    readers = ["import pkg\n\npkg.Exported()\n"]
    config = 'orderinv = "pkg.a:entry"\n'
    assert unreferenced_public_names(sources, readers, config) == ["dead", "orphan"]
    assert unreferenced_public_names(sources, readers, "") == ["dead", "entry", "orphan"]


def test_every_public_function_and_class_is_read():
    # read in src/ or demos/, or named in pyproject.toml (the console script)
    sources = [path.read_text() for path in SOURCES]
    readers = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    assert unreferenced_public_names(
        sources, readers, (ROOT / "pyproject.toml").read_text()) == []


def private_names_of_other_modules(text: str) -> list[str]:
    """'module._name' for each private name ``text`` imports from another
    module or reads off a name it imported, in source order."""
    tree = ast.parse(text)
    imported, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
            hits += [(node.lineno, node.col_offset, f"{node.module or '.'}.{a.name}")
                     for a in node.names if _is_private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in imported):
            hits.append((node.lineno, node.col_offset, f"{node.value.id}.{node.attr}"))
    return [name for _, _, name in sorted(hits)]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_private_name_check_finds_what_it_should():
    text = ("from .a import _hidden, shown\nfrom . import b\nimport os.path as osp\n"
            "def f(self, c):\n    return b._inner, b.public, b.__name__, self._own, c._x\n"
            "y = osp._joinrealpath\n")
    assert private_names_of_other_modules(text) == [
        "a._hidden", "b._inner", "osp._joinrealpath"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_names_of_other_modules(path.read_text()) == []


def imported_modules(text: str) -> set[str]:
    """The package modules ``text`` imports from, by their names."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.rpartition(".")[2] for a in node.names
                      if a.name.startswith("orderinv")}
    return names


def test_imported_module_check_finds_what_it_should():
    text = ("import json\nimport orderinv.catalog\nfrom . import groups\n"
            "from .theorems import CLAIMS\nfrom math import gcd\n")
    assert imported_modules(text) == {"catalog", "groups", "theorems"}


def test_claims_read_no_label_parser():
    # a claim takes its parameters from the group's family slot, so the
    # module of the claims imports nothing from the module of the labels
    text = (ROOT / "src" / "orderinv" / "theorems.py").read_text()
    assert "catalog" not in imported_modules(text)
