"""The lazy top-level namespace: every public name resolves to the object its
defining module binds, and nothing else resolves."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ellk3

# the public names and where they are defined, as the package has always
# re-exported them
PUBLIC = {
    "binforms": ["BinaryForm"],
    "elimination": ["CONVENTION_TAG", "discriminant_binary", "gcd_and_squarefree", "resultant"],
    "hilbert": ["HilbertSeries", "character_series", "invariant_basis",
                "invariant_dimension_oracle", "molien_series", "raising_operator"],
    "invariants": ["InvariantValue", "delta264", "gm_act", "grading_constants", "k552", "r96",
                   "random_surface", "sl2_act", "slice_divisibility", "verify_bulk"],
    "multipoly": ["MultiPoly"],
    "qseries": ["QSeries", "borcherds_input", "eisenstein"],
    "scalars": ["DomainError", "InexactDivision", "ModP"],
    "weierstrass": ["FiberReport", "SurfaceParams", "assemble", "degeneration_component",
                    "fiber_profile", "kodaira_type"],
}
HOME = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_exactly_the_public_names():
    assert sorted(ellk3.__all__) == sorted(name for _, name in HOME)
    assert len(set(ellk3.__all__)) == len(ellk3.__all__)
    assert ellk3.__version__ == "0.1.0"


@pytest.mark.parametrize("module,name", HOME)
def test_public_name_is_its_modules_object(module, name):
    assert getattr(ellk3, name) is getattr(importlib.import_module("ellk3." + module), name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ellk3 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ellk3.__all__)
    assert namespace["fiber_profile"] is ellk3.weierstrass.fiber_profile


def test_submodules_are_attributes():
    for module in list(PUBLIC) + ["cli"]:
        assert getattr(ellk3, module) is importlib.import_module("ellk3." + module)


def test_a_submodule_read_first_as_an_attribute_is_imported():
    # in a new interpreter no submodule is loaded, so ellk3.<submodule>
    # goes through the package's __getattr__
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellk3.__file__)))
    code = ("import json, sys, ellk3; before = [m for m in sys.modules if m.startswith('ellk3.')]; "
            "print(json.dumps([before, [getattr(ellk3, m).__name__ for m in %r]]))" % (list(PUBLIC) + ["cli"]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [[], ["ellk3." + m for m in list(PUBLIC) + ["cli"]]]


@pytest.mark.parametrize("name", ["no_such_name", "sympy"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ellk3, name)
    assert not hasattr(ellk3, name)


def test_dir_lists_the_public_names():
    assert set(ellk3.__all__) <= set(dir(ellk3))


def test_a_name_reads_its_modules_current_binding(monkeypatch):
    # a wrapper patched into the defining module is what ellk3.<name> returns
    def wrapped(u):
        return "wrapped"

    monkeypatch.setattr(ellk3.invariants, "r96", wrapped)
    assert ellk3.r96 is wrapped
    monkeypatch.undo()
    assert ellk3.r96 is ellk3.invariants.r96 and ellk3.r96 is not wrapped
