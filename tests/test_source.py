"""Static checks on the library and test sources, stdlib only."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ellk3"
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


@pytest.mark.parametrize("test_file", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_unused_test_imports(test_file):
    assert unused_imports((TESTS / test_file).read_text()) == []


def imported_modules(source):
    """Every dotted component of the modules that import statements
    anywhere in source name, and the names they import from them."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def test_imported_modules_sees_every_import_form():
    for source in ("from .multipoly import MultiPoly", "from . import multipoly",
                   "import ellk3.multipoly", "def f():\n    from ellk3 import multipoly\n"):
        assert "multipoly" in imported_modules(source), source
    assert "multipoly" not in imported_modules("from .binforms import BinaryForm\n")


def test_weierstrass_does_not_import_invariants():
    # divisor membership comes from the fiber report, not from evaluating k552
    assert "invariants" not in imported_modules((SRC / "weierstrass.py").read_text())


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("__init__.py", "multipoly.py")])
def test_library_does_not_import_multipoly(module):
    # MultiPoly serves only the tests' reference derivations
    assert "multipoly" not in imported_modules((SRC / module).read_text())


@pytest.mark.parametrize("module", MODULES)
def test_library_does_not_import_sympy(module):
    # sympy is the tests' factoring oracle; the library factors on its own kernels
    assert "sympy" not in imported_modules((SRC / module).read_text())


def domain_rule_breaches(source):
    """Code that applies the coefficient-domain rule outside ``scalars``:
    isinstance(..., ModP) calls, reads of an attribute v (a residue's
    representative), and underscore names imported from elimination."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and any(
                isinstance(n, ast.Name) and n.id == "ModP" for arg in node.args[1:] for n in ast.walk(arg)):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr == "v":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "elimination":
            found.extend(alias.name for alias in node.names if alias.name.startswith("_"))
    return found


def test_domain_rule_breaches_sees_each_kind():
    source = ("from .elimination import _domain, resultant\n"
              "isinstance(c, (ModP, Fraction))\nisinstance(c, Fraction)\nc.v\nc.p\n")
    assert domain_rule_breaches(source) == ["_domain", "isinstance(c, (ModP, Fraction))", "c.v"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "scalars.py"])
def test_only_scalars_applies_the_domain_rule(module):
    # residues are unwrapped and wrapped by scalars' coefficient_domain,
    # plain_ints and wrap_ints alone
    assert domain_rule_breaches((SRC / module).read_text()) == []


def test_value_classes_take_eq_hash_and_read_only_fields_from_record():
    # ModP compares with ints, and MultiPoly with the scalars that generic
    # form entries meet; every other value class is a Record
    defines, assigns = {}, set()
    for module in MODULES:
        for cls in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        defines.setdefault(node.name, set()).add(cls.name)
                    elif isinstance(node, ast.Assign):
                        assigns.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert defines["__eq__"] == {"Record", "ModP", "MultiPoly"}
    assert defines["__hash__"] == {"Record", "ModP"}
    assert defines["__setattr__"] == defines["__delattr__"] == {"Record"}
    assert not assigns & {"__eq__", "__hash__", "__setattr__", "__delattr__"}
