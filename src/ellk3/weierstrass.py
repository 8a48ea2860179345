"""Weierstrass models z^2 = y^3 + g2(x,w) y + g3(x,w) of elliptic K3
surfaces: assembly of (g2, g3, h), Kodaira classification of singular
fibers from vanishing orders, and the at-worst-RDP membership flag.
"""

from math import lcm

from . import Record
from .binforms import BinaryForm, _convolve
from .elimination import factor_multiplicity, gcd_and_squarefree
from .scalars import coefficient_domain, plain_ints, reduce_scalar_mod, scalar_from_str, scalar_to_str, wrap_ints

# order of vanishing of the zero form at any place
INFINITE_ORDER = 10 ** 9

# weights of g2's and g3's coefficients under the Gm-action
G2_WEIGHT = 4
G3_WEIGHT = 6


class SurfaceParams(Record):
    """u = (9 octic coefficients, 13 duodecic coefficients), held in
    tuples: a surface cannot change after it is built, which lets r96 and
    k552 remember their value for the last surface object asked."""

    __slots__ = ("g2_coeffs", "g3_coeffs")

    def __init__(self, g2_coeffs, g3_coeffs):
        g2_coeffs, g3_coeffs = tuple(g2_coeffs), tuple(g3_coeffs)
        if len(g2_coeffs) != 9:
            raise ValueError("g2 needs exactly 9 coefficients")
        if len(g3_coeffs) != 13:
            raise ValueError("g3 needs exactly 13 coefficients")
        super().__init__(g2_coeffs, g3_coeffs)

    @classmethod
    def make(cls, g2_coeffs, g3_coeffs):
        """The same as SurfaceParams(g2_coeffs, g3_coeffs)."""
        return cls(g2_coeffs, g3_coeffs)

    def reduce_mod(self, p):
        return SurfaceParams(
            (reduce_scalar_mod(c, p) for c in self.g2_coeffs),
            (reduce_scalar_mod(c, p) for c in self.g3_coeffs),
        )

    def to_json_dict(self):
        return {
            "g2": [scalar_to_str(c) for c in self.g2_coeffs],
            "g3": [scalar_to_str(c) for c in self.g3_coeffs],
        }

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or not all(isinstance(d.get(k), list) for k in ("g2", "g3")):
            raise ValueError("surface parameters need 'g2' and 'g3' arrays")
        # JSON integers are read through their decimal form
        g2 = [scalar_from_str(str(c)) for c in d["g2"]]
        g3 = [scalar_from_str(str(c)) for c in d["g3"]]
        return cls(g2, g3)


def on_ints(*surfaces):
    """(p, forms, wrap): the surfaces on plain ints, as the lists g2, g3 of
    each in turn.  Residues become their balanced representatives mod p
    (``plain_ints``); otherwise each u becomes lam u under the Gm-action,
    lam the lcm of every denominator (1 over Z).  A covariant of Gm-weight
    w (g2: 4, g3: 6, J: 10, h: 12, r96: 96) is its value on these ints over
    lam^w, which wrap(ints, w) gives in the surfaces' domain (DomainError
    unless ints and Fractions, or residues of one modulus)."""
    coeffs = [c for u in surfaces for c in u.g2_coeffs + u.g3_coeffs]
    p, rational = coefficient_domain(coeffs)
    lam = lcm(*(c.denominator for c in coeffs)) if rational else 1
    forms = [[c.numerator * (m // c.denominator) for c in f] if rational else plain_ints(f, p, False)[0]
             for u in surfaces for f, m in ((u.g2_coeffs, lam ** G2_WEIGHT), (u.g3_coeffs, lam ** G3_WEIGHT))]
    return p, forms, lambda ints, w: wrap_ints(ints, p, rational, lam ** w)


def assemble(u):
    """(g2, g3, h) with h = 4 g2^3 + 27 g3^2, the discriminant of the
    Weierstrass cubic; h has degree 24 in (x, w) and may be the zero form.
    h is convolved ``on_ints`` and wrapped once: over Q every coefficient
    is a Fraction."""
    _, (a, b), wrap = on_ints(u)
    return BinaryForm(8, u.g2_coeffs), BinaryForm(12, u.g3_coeffs), BinaryForm(24, wrap(h_on_ints(a, b), 3 * G2_WEIGHT))


def h_on_ints(a, b):
    """h = 4 g2^3 + 27 g3^2 on the int coefficient lists a of g2 and b of
    g3, high-to-low: ``assemble``'s h, and ``k552``'s, before any wrap."""
    return [4 * s + 27 * t for s, t in zip(_convolve(_convolve(a, a), a), _convolve(b, b))]


def kodaira_type(m2, m3, d):
    """Kodaira tag from (ord g2, ord g3, ord h) at a place, following the
    standard minimal-Weierstrass table.  Triples matching no row raise
    ValueError (an arithmetic bug upstream, not a user error)."""
    if d == 0:
        return "I0"
    if m2 == 0 and m3 == 0:
        return "I%d" % d
    if m2 >= 4 and m3 >= 6:
        return "NON-MINIMAL"
    if m2 >= 1 and m3 == 1 and d == 2:
        return "II"
    if m2 == 1 and m3 >= 2 and d == 3:
        return "III"
    if m2 >= 2 and m3 == 2 and d == 4:
        return "IV"
    if m2 >= 2 and m3 >= 3 and d == 6:
        return "I0*"
    if m2 == 2 and m3 == 3 and d >= 7:
        return "I%d*" % (d - 6)
    if m2 >= 3 and m3 == 4 and d == 8:
        return "IV*"
    if m2 == 3 and m3 >= 5 and d == 9:
        return "III*"
    if m2 >= 4 and m3 == 5 and d == 10:
        return "II*"
    raise ValueError("inconsistent vanishing orders (m2, m3, d) = (%s, %s, %s)" % (m2, m3, d))


class PlaceRecord(Record):
    __slots__ = ("place", "m2", "m3", "d", "kodaira")

    @property
    def residue_degree(self):
        return self.place.n

    def to_json_dict(self):
        return {
            "place": self.place.to_str(),
            "residue_degree": self.residue_degree,
            "m2": self.m2 if self.m2 < INFINITE_ORDER else "inf",
            "m3": self.m3 if self.m3 < INFINITE_ORDER else "inf",
            "d": self.d,
            "kodaira": self.kodaira,
        }


class FiberReport(Record):
    """The places of h, sorted; the flags and the Euler sum derive from them."""

    __slots__ = ("places",)

    @property
    def h_is_zero(self):
        return not self.places

    @property
    def in_U(self):
        return bool(self.places) and all(r.kodaira != "NON-MINIMAL" for r in self.places)

    @property
    def euler_sum(self):
        return sum(r.d * r.residue_degree for r in self.places)

    def to_json_dict(self):
        return {
            "places": [p.to_json_dict() for p in self.places],
            "in_U": self.in_U,
            "h_is_zero": self.h_is_zero,
            "euler_sum": self.euler_sum,
        }


def fiber_profile(u):
    """Classify every singular fiber of the model defined by u (over Q).

    Vanishing orders at a place come from the factorization of h over Q;
    the infinity place [1:0] is the factor w.  Each place is tagged by
    kodaira_type, which raises on a triple matching no row; the report
    derives in_U, h_is_zero and euler_sum from the places.
    """
    g2, g3, h = assemble(u)
    if h.is_zero():
        return FiberReport([])
    _, hfactors = gcd_and_squarefree(h)
    places = []
    for factor, d in hfactors:
        m2 = factor_multiplicity(g2, factor)
        m3 = factor_multiplicity(g3, factor)
        if m2 is None:
            m2 = INFINITE_ORDER
        if m3 is None:
            m3 = INFINITE_ORDER
        places.append(PlaceRecord(factor, m2, m3, d, kodaira_type(m2, m3, d)))
    if len(places) > 1:
        # the key prints each place, even a lone one
        places.sort(key=lambda r: (r.residue_degree, r.place.to_str()))
    return FiberReport(places)


def degeneration_component(u):
    """Locate u on the two-component degeneration divisor {k552 = 0}:

    * "A1-component": an I_n fiber with n >= 2 and g2, g3 nonzero there
      (two I_1 fibers collided; the surface gains an A_1 singularity);
    * "II-component": some place where both g2 and g3 vanish (type II
      fiber; equivalently r96 = 0);
    * "deeper": both or neither pattern, i.e. off the generic strata.

    k552 vanishes exactly when h has a repeated root, so membership is read
    from the fiber report: u is on the divisor iff some place has d >= 2.
    """
    report = fiber_profile(u)
    if report.h_is_zero:
        raise ValueError("degenerate family: h vanishes identically")
    if all(r.d < 2 for r in report.places):
        raise ValueError("u is not on the divisor: k552(u) != 0")
    # generic patterns on the two strata: an I_n (n >= 2) fiber where
    # neither g2 nor g3 vanishes, vs. a type II fiber where both do
    a1 = any(r.m2 == 0 and r.m3 == 0 and r.d >= 2 for r in report.places)
    ii = any(r.kodaira == "II" for r in report.places)
    if a1 and not ii:
        return "A1-component"
    if ii and not a1:
        return "II-component"
    return "deeper"
