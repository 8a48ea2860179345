"""Static checks on the library source, stdlib only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ellk3"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_detects_a_dead_import():
    assert unused_imports("import os\nfrom fractions import Fraction\nos.sep\n") == ["Fraction"]
    assert unused_imports("import os.path as osp\nosp.sep\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
