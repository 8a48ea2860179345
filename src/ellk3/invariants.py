"""The SL2 x Gm action on the 22-dimensional parameter space and the three
weighted invariants: the resultant r96 of (g2, g3), the discriminant k552
of h, and their exact quotient Delta264 = k552 / r96^3.

k552 and Delta264 are never expanded symbolically in all 22 variables;
the degree and divisibility claims are certified by exact pointwise
integer factorization in bulk and by exact polynomial division on random
one-parameter slices.
"""

import functools
import random
from fractions import Fraction

from . import Record
from .binforms import BinaryForm, _convolve
from .elimination import (
    CONVENTION_TAG, _domain, discriminant_binary, exact_quotient, poly_primitive, poly_trim, resultant,
)
from .scalars import PRIME_BOUND, InexactDivision, ModP, clear_denominators, exact_scalar_div, is_prime
from .weierstrass import SurfaceParams, assemble

DECLARED_WEIGHTS = {"r96": 96, "k552": 552, "delta264": 264}

# weights of the 22 ambient variables under the Gm-action
G2_WEIGHT = 4
G3_WEIGHT = 6


class InvariantValue(Record):
    """A value of an invariant named in DECLARED_WEIGHTS, its weight table."""

    __slots__ = ("name", "value")
    convention_tag = CONVENTION_TAG  # a class constant, not a field

    def __init__(self, name, value):
        if name not in DECLARED_WEIGHTS:
            raise ValueError("unknown invariant %r" % (name,))
        super().__init__(name, value)

    @property
    def declared_weight(self):
        return DECLARED_WEIGHTS[self.name]


# -- group actions ---------------------------------------------------


def sl2_act(gamma, u):
    """gamma . u via substitution on g2 and g3; requires det gamma = 1."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL2: det = %s" % (a * d - b * c,))
    g2 = BinaryForm(8, u.g2_coeffs).substitute(gamma)
    g3 = BinaryForm(12, u.g3_coeffs).substitute(gamma)
    return SurfaceParams(g2.coeffs, g3.coeffs)


def gm_act(lam, u):
    """Rescaling: g2-coefficients pick up lambda^4, g3's lambda^6."""
    if not lam:
        raise ValueError("lambda must be nonzero")
    l4 = lam ** G2_WEIGHT
    l6 = lam ** G3_WEIGHT
    return SurfaceParams(
        [c * l4 for c in u.g2_coeffs], [c * l6 for c in u.g3_coeffs]
    )


# -- invariants ------------------------------------------------------


def _per_surface(invariant):
    """invariant(u), remembered for the last surface u: asked again of
    that same object, it returns the value without computing it.  The slot
    holds u itself, so a recycled id never matches; errors are not kept."""
    last = None, None

    @functools.wraps(invariant)
    def remembered(u):
        nonlocal last
        surface, value = last
        if surface is not u:
            value = invariant(u)
            last = u, value
        return value

    return remembered


@_per_surface
def r96(u):
    """Resultant of (g2, g3): the 20 x 20 Sylvester determinant, weighted
    homogeneous of degree 12*4 + 8*6 = 96 and SL2-invariant.  The value
    for the last surface asked is remembered and returned when that same
    object is asked again: keyed by identity, since an == surface may hold
    Fractions or residues, whose r96 is one too (``_per_surface``)."""
    g2 = BinaryForm(8, u.g2_coeffs)
    g3 = BinaryForm(12, u.g3_coeffs)
    return InvariantValue("r96", resultant(g2, g3))


@_per_surface
def k552(u):
    """Discriminant of the degree-24 form h, the 46 x 46 Sylvester
    determinant Res(dh/dx, dh/dw); weighted homogeneous of degree
    2*23*12 = 552, SL2-invariant, and zero iff h has a repeated root.  The
    value for the last surface asked is remembered and returned when that
    same object is asked again: keyed by identity, since an == surface may
    hold Fractions or residues, whose k552 is one too (``_per_surface``).
    The ValueError on h = 0 is raised on every call."""
    return InvariantValue("k552", _disc_h(assemble(u)[2]))


def _disc_h(h):
    """k552 from the form h; ValueError on the zero form."""
    if h.is_zero():
        raise ValueError("degenerate family: h vanishes identically")
    return discriminant_binary(h)


def delta264(u):
    """k552(u) / r96(u)^3, exact; weighted degree 552 - 3*96 = 264.

    Integer inputs divide exactly in Z (polynomial divisibility plus
    Gauss's lemma); inexactness is a hard error, as is r96(u) = 0.  A
    surface report asks r96 and k552 of u first, which remember their
    values, and this is then one exact division.
    """
    r = r96(u).value
    if not r:
        raise ZeroDivisionError("delta264 undefined: r96(u) = 0")
    k = k552(u).value
    q = exact_scalar_div(k, r ** 3)
    return InvariantValue("delta264", q)


def grading_constants():
    """The numerical grading data, recomputed from the weight table."""
    variable_weights = (G2_WEIGHT,) * 9 + (G3_WEIGHT,) * 13
    canonical_weight = -sum(variable_weights)
    relation_weight = DECLARED_WEIGHTS["k552"] - 3 * DECLARED_WEIGHTS["r96"]
    borcherds_weight = relation_weight // 2
    return {
        "canonical_weight": canonical_weight,
        "modular_dim": canonical_weight + borcherds_weight,
        "borcherds_weight": borcherds_weight,
        "relation_weight": relation_weight,
        "ambient_variable_count": len(variable_weights),
        "variable_weights": variable_weights,
    }


# -- slice divisibility ---------------------------------------------


class SliceWitness(Record):
    """R^3 | K on a line, over Q (modulus None) or mod a prime: the quotient
    (empty on failure) and K = k552, R = r96 on the line, low-to-high.  K =
    0 (on a line in the I2 locus, say) succeeds with the empty quotient, so
    quotient_degree = k_degree = -1, not k_degree - r3_degree.  repr shows
    success and modulus only."""

    __slots__ = ("success", "modulus", "quotient", "K", "R")
    SHOWN = 2

    @property
    def quotient_degree(self):
        return len(self.quotient) - 1

    @property
    def k_degree(self):
        return len(self.K) - 1

    @property
    def r3_degree(self):
        return 3 * (len(self.R) - 1)


# plain degree bounds in u: r96 is a 20 x 20 determinant with entries
# linear in u, h-coefficients are cubic in u, k552 a 46 x 46 determinant
R96_U_DEGREE = 20
K552_U_DEGREE = 138

# The true degree of k552 in u, and so a bound on its degree on any line.
# h(t u) = t^2 (27 g3^2 + 4 t g2^3) and disc is homogeneous of degree 46 in
# h's coefficients, so k552(t u) = t^92 D(t) with D(t) = disc(27 g3^2 +
# 4 t g2^3) of degree <= 46 in t; and D(t) = t^46 E(1/t) with E(e) =
# disc(4 g2^3 + 27 e g3^2).  Take g2 with 8 simple roots, none of them a
# root of g3 or at infinity.  For small e each root of g2 splits into three
# roots of 4 g2^3 + 27 e g3^2 at mutual distance of order |e|^(1/3), so
# their three pairs put |e|^2 into the product of squared root differences,
# while every other factor of E stays away from 0.  So E vanishes to order
# >= 16 at e = 0 for such (g2, g3); its coefficients of e^0, ..., e^15 are
# polynomials in u vanishing on a dense set, hence identically, and deg D
# <= 46 - 16 = 30.  The homogeneous parts of k552 of degree above 92 + 30
# = 122 therefore vanish, over Z and so mod every prime, and every line
# restriction of k552 has degree <= 122 (a random line reaches it).
K552_LINE_DEGREE = 122


def line_restriction(u0, u1):
    """(g2 and g3, h) on the line u(s) = u0 + s u1: two functions of an int
    s, giving (g2, g3) and h at u(s) as the BinaryForms ``assemble(u(s))``
    gives, on ints and Fractions or on residues of one modulus.  g2(s) and
    g3(s) are built coefficient by coefficient.  With g2 = a + s b and g3 =
    c + s d, h = 4 g2^3 + 27 g3^2 is the cubic H0 + s H1 + s^2 H2 + s^3 H3
    in s whose four forms

        H0 = 4 a^3 + 27 c^2,  H1 = 12 a^2 b + 54 c d,
        H2 = 12 a b^2 + 27 d^2,  H3 = 4 b^3

    are convolved once per line (on plain ints for residues, reduced
    once), and h(s) is Horner's rule in s on each coefficient."""
    p, _ = _domain(u0.g2_coeffs + u0.g3_coeffs + u1.g2_coeffs + u1.g3_coeffs)
    a, b, c, d = ([x.v if isinstance(x, ModP) else x for x in f]
                  for f in (u0.g2_coeffs, u1.g2_coeffs, u0.g3_coeffs, u1.g3_coeffs))
    aa, bb = _convolve(a, a), _convolve(b, b)
    H = [[4 * x + 27 * y for x, y in zip(_convolve(aa, a), _convolve(c, c))],
         [12 * x + 54 * y for x, y in zip(_convolve(aa, b), _convolve(c, d))],
         [12 * x + 27 * y for x, y in zip(_convolve(bb, a), _convolve(d, d))],
         [4 * x for x in _convolve(bb, b)]]
    if p:
        H = [[x % p for x in f] for f in H]

    def form(n, cs):
        return BinaryForm(n, [ModP(x, p) for x in cs] if p else cs)

    def pair(s):
        return form(8, [x + s * y for x, y in zip(a, b)]), form(12, [x + s * y for x, y in zip(c, d)])

    def h(s):
        return form(24, [((h3 * s + h2) * s + h1) * s + h0 for h0, h1, h2, h3 in zip(*H)])

    return pair, h


def check_modulus(modulus):
    """ValueError unless modulus is None or a prime above K552_U_DEGREE
    and below PRIME_BOUND, where ``is_prime`` is exact.  The slice points
    s = -61, ..., 61 stay distinct mod any such prime; the threshold keeps
    the plain bound, so that the moduli accepted stay the same."""
    if modulus is None:
        return
    try:
        prime = modulus > K552_U_DEGREE and is_prime(modulus)
    except ValueError:
        raise ValueError("modulus must lie below %d, where primality is decided exactly" % PRIME_BOUND) from None
    if not prime:
        raise ValueError("modulus must be prime and exceed %d" % K552_U_DEGREE)


def slice_divisibility(u0, u1, modulus=None):
    """Polynomial-level divisibility witness on the line u(s) = u0 + s u1,
    over Q or mod a prime modulus above K552_U_DEGREE (a smaller one raises
    ValueError).  Each restriction is interpolated by ``_interp`` from as
    many points, centred on s = 0, as its degree bound needs, with the
    forms of ``line_restriction``: R(s) = r96(u(s)) is the resultant of
    g2(s) and g3(s) at s = -10, ..., 10 (R96_U_DEGREE = 20), and K(s) =
    k552(u(s)) the discriminant of h(s) at s = -61, ..., 61
    (K552_LINE_DEGREE = 122); an h(s) that vanishes identically there
    raises ValueError, as k552 does.  K is divided by R^3 exactly, on ints:
    mod p on the residues, and over Q on the primitive parts, by Gauss's
    lemma.  There K = a Kp and R = c P with a, c rational and Kp, P
    primitive; P^3 is primitive too, so it divides Kp in Z[s] exactly when
    R^3 divides K in Q[s], and the integer quotient is scaled by a / c^3
    once.  A failed witness carries the empty quotient."""
    check_modulus(modulus)
    p = modulus or 0
    if p:
        u0, u1 = u0.reduce_mod(p), u1.reduce_mod(p)
    pair, h = line_restriction(u0, u1)

    def restriction(value, degree):
        vals = [value(s) for s in _centred(degree + 1)]
        return _interp([v.v for v in vals] if p else vals, p)

    R = restriction(lambda s: resultant(*pair(s)), R96_U_DEGREE)
    if not R:
        raise ValueError("r96 vanishes identically on this line")
    K = restriction(lambda s: _disc_h(h(s)), K552_LINE_DEGREE)
    P, Kp = (R, K) if p else (poly_primitive(R), poly_primitive(K))
    R3 = _convolve(_convolve(P, P), P)
    q = exact_quotient(Kp, R3, p)
    if q and not p:
        scale = K[-1] / Kp[-1] / (R[-1] / P[-1]) ** 3
        q = [c * scale if c else 0 for c in q]
    return SliceWitness(q is not None, modulus, q or [], K, R)


def _centred(n):
    """The n points centred on 0, s = s0, ..., s0 + n - 1 with s0 = -(n //
    2): s = -61, ..., 61 for n = 123."""
    return range(-(n // 2), n - n // 2)


def _interp(ys, p):
    """Interpolant of the values ys at the n = len(ys) points ``_centred(n)``,
    low-to-high and trimmed: over Q on ints or Fractions (p = 0,
    Fraction coefficients) or mod a prime p >= n on int residues.  Over Q
    the values' common denominator den is cleared first, so all the work is
    on ints.  The forward differences d_j give den (n-1)! times it as
    sum_j d_j ((n-1)!/j!) (s-s0)(s-s0-1)...(s-s0-j+1), expanded exactly;
    den (n-1)! is divided out once at the end."""
    d, den = clear_denominators(ys)
    n = len(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) % p if p else d[i] - d[i - 1]
    # Horner on the falling factorials: poly = poly * (s - t_j) + d_j (n-1)!/j!
    poly, scale, points = d[-1:], 1, _centred(n)
    for j in range(n - 2, -1, -1):
        scale *= j + 1
        t = points[j]  # t_j
        poly = [d[j] * scale - t * poly[0]] + [a - t * b for a, b in zip(poly, poly[1:])] + poly[-1:]
        if p:
            poly = [c % p for c in poly]
    inv = pow(scale, -1, p) if p else None
    return poly_trim([c * inv % p if p else Fraction(c, scale * den) for c in poly])


# -- reproducible verification harness -------------------------------


class VerifyDefaults(Record):
    """Trial counts of verify_bulk, whose surfaces have entries in [-9, 9]."""

    __slots__ = ("pointwise_trials", "homogeneity_trials", "sl2_trials", "slice_lines")
    homogeneity_prime = 4611686018427388039  # 2**62 + 135; not a field: verify_bulk(modulus=...) sets it

    def __init__(self, pointwise_trials=200, homogeneity_trials=50, sl2_trials=50, slice_lines=1):
        super().__init__(pointwise_trials, homogeneity_trials, sl2_trials, slice_lines)


DEFAULTS = VerifyDefaults()


def random_surface(rng, bound=9):
    return SurfaceParams(
        [rng.randint(-bound, bound) for _ in range(9)],
        [rng.randint(-bound, bound) for _ in range(13)],
    )


def random_sl2(rng):
    """Random integer SL2 matrix other than the identity with entries in
    [-3, 3], a product of one to four elementary shears."""
    while True:
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 4)):
            t = rng.randint(-2, 2)
            m = _matmul(m, ((1, t), (0, 1)) if rng.random() < 0.5 else ((1, 0), (t, 1)))
        if max(abs(x) for row in m for x in row) <= 3 and m != ((1, 0), (0, 1)):
            return m


def _matmul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def verify_bulk(seed, trials=None, modulus=None):
    """Run the bulk identity checks behind the divisibility and invariance
    claims, with the trial counts in DEFAULTS; returns a deterministic
    report dict."""
    p = DEFAULTS.homogeneity_prime if modulus is None else modulus
    check_modulus(p)
    rng = random.Random(seed)
    trials = DEFAULTS.pointwise_trials if trials is None else trials
    failures = []

    # (a) pointwise integer factorization k552 = r96^3 * delta264; a draw
    # with r96 = 0 is drawn again
    done = 0
    while done < trials:
        u = random_surface(rng)
        try:
            delta264(u)
        except ZeroDivisionError:
            continue
        except InexactDivision:
            failures.append(("pointwise", u.to_json_dict()))
        done += 1

    # (b) weighted homogeneity and (c) SL2-invariance mod p: act(u) gives u
    # and g.u mod p and the factors chi96, chi552 that r96 and k552 pick up,
    # lambda^96 and lambda^552 for lambda in Gm, 1 and 1 for SL2.  Where h =
    # 0 mod p, k552 is undefined (its one ValueError) and r96 is compared
    # alone; only draws with r96 = 0 can assemble h = 0.
    def gm(u):
        lam = ModP(rng.choice([2, 3, 5]), p)
        return u.reduce_mod(p), gm_act(lam, u), lam ** 96, lam ** 552

    def sl2(u):
        return u.reduce_mod(p), sl2_act(random_sl2(rng), u).reduce_mod(p), 1, 1

    for label, count, act in (("homogeneity", DEFAULTS.homogeneity_trials, gm), ("sl2", DEFAULTS.sl2_trials, sl2)):
        for _ in range(count):
            u = random_surface(rng)
            up, vp, chi96, chi552 = act(u)
            r = r96(up).value
            if r96(vp).value != chi96 * r:
                failures.append((label + "-r96", u.to_json_dict()))
            if (r or not assemble(up)[2].is_zero()) and k552(vp).value != chi552 * k552(up).value:
                failures.append((label + "-k552", u.to_json_dict()))

    # (d) one slice division
    for _ in range(DEFAULTS.slice_lines):
        u0 = random_surface(rng)
        u1 = random_surface(rng)
        try:
            wit = slice_divisibility(u0, u1, modulus=p)
            if not wit.success:
                failures.append(("slice", {"u0": u0.to_json_dict(), "u1": u1.to_json_dict()}))
        except ValueError:
            failures.append(("slice-degenerate", {"u0": u0.to_json_dict(), "u1": u1.to_json_dict()}))

    return {
        "seed": seed,
        "trials": trials,
        "modulus": p,
        "convention_tag": CONVENTION_TAG,
        "failures": [list(f) for f in sorted(failures, key=repr)],
    }
