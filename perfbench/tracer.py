"""Spans and counts recorded around calls into ellk3's public functions.

The tracer lives entirely in the benchmark: it wraps each listed public
function in this process, wherever an ellk3 module has bound it, so calls
from one layer into another are seen as well as the benchmark's own calls.
``uninstall`` puts the original functions back.  While ``enabled`` is
false a wrapper only forwards the call.
"""

import functools
import sys
import time
from fractions import Fraction

# public functions wrapped, per module
TRACED_FUNCTIONS = {
    "ellk3.scalars": ("reduce_scalar_mod",),
    "ellk3.elimination": (
        "resultant",
        "discriminant_binary",
        "gcd_and_squarefree",
        "squarefree_decomposition",
    ),
    "ellk3.weierstrass": ("assemble", "fiber_profile"),
    "ellk3.invariants": ("r96", "k552", "delta264", "slice_divisibility", "verify_bulk"),
    "ellk3.hilbert": (
        "raising_table",
        "invariant_dimension_oracle",
        "monomial_basis",
        "molien_series",
        "character_series",
    ),
    "ellk3.qseries": ("borcherds_input", "eisenstein"),
}
# public methods wrapped, per module and class
TRACED_METHODS = {"ellk3.binforms": {"BinaryForm": ("substitute",)}}

# a Z-coefficient whose absolute value needs more bits than this is "bigint"
BIGINT_BITS = 32


class Span:
    __slots__ = ("name", "parent", "seconds", "detail")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.seconds = 0.0
        self.detail = None

    def inside(self, name):
        """Whether some enclosing span has the given name."""
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


def scalar_bits(c):
    """Bit size of an int or Fraction: the larger of numerator and
    denominator."""
    c = Fraction(c)
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def coefficient_domain(forms, modp_type):
    """(domain, bits) of the coefficients of binary forms: "modp", "frac",
    "int" or "bigint", and the largest numerator or denominator bit size
    (None for residues)."""
    coeffs = [c for f in forms for c in f.coeffs]
    if any(isinstance(c, modp_type) for c in coeffs):
        return "modp", None
    bits = max(scalar_bits(c) for c in coeffs)
    if any(Fraction(c).denominator != 1 for c in coeffs):
        return "frac", bits
    return ("bigint" if bits > BIGINT_BITS else "int"), bits


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self._stack = []
        self._patches = []

    def install(self):
        modp_type = sys.modules["ellk3.scalars"].ModP
        details = {
            "ellk3.elimination.resultant": lambda a, r: coefficient_domain(a[:2], modp_type),
            "ellk3.elimination.discriminant_binary": lambda a, r: coefficient_domain(a[:1], modp_type),
            "ellk3.weierstrass.fiber_profile": lambda a, r: len(r.places),
            "ellk3.hilbert.monomial_basis": lambda a, r: (a[0], a[1], len(r)),
            "ellk3.hilbert.invariant_dimension_oracle": lambda a, r: a[0],
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ellk3" and m is not None]
        for modname, names in TRACED_FUNCTIONS.items():
            home = sys.modules[modname]
            for name in names:
                key = "%s.%s" % (modname, name)
                orig = getattr(home, name)
                wrapped = self._wrap(key, orig, details.get(key))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        for modname, classes in TRACED_METHODS.items():
            for clsname, names in classes.items():
                cls = getattr(sys.modules[modname], clsname)
                for name in names:
                    orig = cls.__dict__[name]
                    self._patches.append((cls, name, orig))
                    setattr(cls, name, self._wrap("%s.%s.%s" % (modname, clsname, name), orig, None))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def _wrap(self, name, fn, detail):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = Span(name, tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.spans.append(span)
            if detail is not None:
                span.detail = detail(args, result)
            return result

        return wrapper

    def select(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name):
        return sum(s.seconds for s in self.select(name))
