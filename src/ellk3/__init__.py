"""Exact computer algebra for elliptic K3 Weierstrass models: singular
fiber classification, the weighted invariants r96 / k552 / Delta264, the
Molien-Weyl Hilbert series of the SL2-invariant ring with an independent
raising-operator oracle, and the Eisenstein q-series feeding the
weight-132 Borcherds product.

Every public name below is re-exported lazily (PEP 562): ``import ellk3``
loads no submodule, and ``ellk3.fiber_profile`` imports
``ellk3.weierstrass`` on first use.  So ``python -m ellk3.cli`` pays only
for the modules its command runs.  Submodules are reachable as attributes
too (``ellk3.hilbert``).

:class:`Record`, the one read-only value class that the library's values
are built on, is defined here rather than in a submodule: the package runs
before any of its submodules, so each of them, ``hilbert`` included, takes
``from . import Record`` without loading another module.
"""

import importlib


class Record:
    """A value class on __slots__, in place of a dataclass, whose import
    would cost every CLI start-up.  Its fields are its slots, in order,
    which __init__ sets once from its positional arguments; they are
    read-only after.  == (between instances of one class) and hash run
    over the fields, so a record holding a list or a form has no hash,
    and repr shows the first SHOWN of them, all by default."""

    __slots__ = ()
    SHOWN = None

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        shown = ("%s=%r" % (name, getattr(self, name)) for name in self.__slots__[:self.SHOWN])
        return "%s(%s)" % (type(self).__name__, ", ".join(shown))


_EXPORTS = {
    "binforms": ("BinaryForm",),
    "elimination": ("CONVENTION_TAG", "discriminant_binary", "gcd_and_squarefree", "resultant"),
    "hilbert": (
        "HilbertSeries",
        "character_series",
        "invariant_basis",
        "invariant_dimension_oracle",
        "molien_series",
        "raising_operator",
    ),
    "invariants": (
        "InvariantValue",
        "delta264",
        "gm_act",
        "grading_constants",
        "k552",
        "r96",
        "random_surface",
        "sl2_act",
        "slice_divisibility",
        "verify_bulk",
    ),
    "multipoly": ("MultiPoly",),
    "qseries": ("QSeries", "borcherds_input", "eisenstein"),
    "scalars": ("DomainError", "InexactDivision", "ModP"),
    "weierstrass": (
        "FiberReport",
        "SurfaceParams",
        "assemble",
        "degeneration_component",
        "fiber_profile",
        "kodaira_type",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a name always reads its module's current binding
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
