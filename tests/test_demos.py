"""Each demo script runs to completion against the public package API."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orderinv

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _names_imported_from_orderinv(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "orderinv"
        for alias in node.names
    }


def test_package_exports_exactly_what_demos_and_readme_import():
    sources = [demo.read_text() for demo in DEMOS]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(sources) > len(DEMOS)  # the README's library example was found
    used = set().union(*map(_names_imported_from_orderinv, sources))
    assert used == set(orderinv.__all__)
    for name in orderinv.__all__:
        assert getattr(orderinv, name) is not None, name
