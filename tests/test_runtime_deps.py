"""The package imports nothing at run time but the standard library and
numpy.  scipy, networkx and hypothesis are installed for the tests, so a
stray import of one of them would still run here; this test catches it."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crmgraph"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_modules(tree: ast.AST) -> list[str]:
    """Top-level names of the absolute imports anywhere in ``tree``,
    function-level ones included."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_package_files_found():
    assert len(list(PACKAGE.glob("*.py"))) >= 9


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_stdlib_or_numpy(path):
    modules = imported_modules(ast.parse(path.read_text(), str(path)))
    assert sorted(set(modules) - ALLOWED) == []


def test_stray_import_is_caught():
    tree = ast.parse("import numpy\nfrom . import x\ndef f():\n    import scipy.stats\n")
    assert set(imported_modules(tree)) - ALLOWED == {"scipy"}
