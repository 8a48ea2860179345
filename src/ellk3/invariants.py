"""The SL2 x Gm action on the 22-dimensional parameter space and the three
weighted invariants: the resultant r96 of (g2, g3), the discriminant k552
of h, and their exact quotient Delta264 = k552 / r96^3.

k552 is computed as 2^42 3^70 r96 Res(h, J), with J = (g2, g3)_1 the
Jacobian covariant of degree 18: one resultant of degrees 24 and 18 on top
of r96 (the proof is in ``k552``'s docstring).  Over Z, Q and F_p alike
the forms are built on plain ints (``on_ints``, mod p on balanced
representatives) and go to the engine's int entry ``resultants_ints``;
only a value is wrapped back into the surface's domain, once.  r96 and
k552 have list forms, ``r96_batch`` and ``k552_batch``, which ask the
engine once for a whole list of surfaces, and the one-surface invariants
are their one-element case.  k552 and
Delta264 are never expanded symbolically in all 22 variables; the degree
and divisibility claims are certified by exact pointwise integer
factorization in bulk, where k552 is also checked against its definition
disc(h), and by exact polynomial division on random one-parameter slices.
"""

import functools
import random
from fractions import Fraction

from . import Record
from .binforms import BinaryForm, _convolve, _partials
from .elimination import CONVENTION_TAG, discriminant_binary, exact_quotient, poly_primitive, poly_trim, resultants_ints
from .scalars import PRIME_BOUND, InexactDivision, ModP, exact_scalar_div, is_prime
from .weierstrass import G2_WEIGHT, G3_WEIGHT, SurfaceParams, assemble, h_on_ints, on_ints

DECLARED_WEIGHTS = {"r96": 96, "k552": 552, "delta264": 264}


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
    Fractions or residues, whose r96 is one too (``_per_surface``).  It is
    ``r96_batch`` of the one surface."""
    return r96_batch([u])[0]


def r96_batch(us):
    """r96 of each surface of the list us, from one call of the resultant
    engine: the list form of ``r96``.  The surfaces are taken on ints
    together (``on_ints``), so they must share a domain (ints and
    Fractions, or residues of one modulus), and each value is in it."""
    p, forms, wrap = on_ints(*us)
    values = wrap(resultants_ints(list(zip(forms[::2], forms[1::2])), p), DECLARED_WEIGHTS["r96"])
    return [InvariantValue("r96", v) for v in values]


# k552 = JACOBIAN_SCALE r96 Res(h, J), fixed by evaluation (``k552``); Res(h,
# J) has Gm-weight 12 * 18 + 10 * 24 = 552 - 96
JACOBIAN_SCALE = 2**42 * 3**70
RES_HJ_WEIGHT = DECLARED_WEIGHTS["k552"] - DECLARED_WEIGHTS["r96"]


@_per_surface
def k552(u):
    """Discriminant of the degree-24 form h, disc(h) = Res(dh/dx, dh/dw) (a
    46 x 46 Sylvester determinant); weighted homogeneous of degree 2*23*12
    = 552, SL2-invariant, and zero iff h has a repeated root.  It is
    computed as

        k552 = 2^42 3^70 r96 Res(h, J),  J = (g2, g3)_1 = g2_x g3_w - g2_w g3_x,

    one resultant of degrees 24 and 18 on top of r96, which a surface
    report has already asked for.  h = 0 raises ValueError (h = 0 forces
    r96 = 0, and Res(0, J) = 0 would hide it); r96 = 0 gives the zero of
    r96's domain, as the identity does.

    Proof of the identity (Olver, Classical Invariant Theory; Gelfand,
    Kapranov and Zelevinsky 1994, ch. 12).  Both sides are polynomials in
    u, so it is enough to prove it where lc(h) != 0 and g2 vanishes at no
    root of h.  At a root t = (a, 1) of h put tau = -3 g3 / (2 g2); h = 0
    gives g2 = -3 tau^2 and g3 = 2 tau^3 there.  Euler's identities x f_x +
    w f_w = deg(f) f for g2 and g3 give w J = 12 g3 g2_x - 8 g2 g3_x, so at
    t

        w J = 24 tau^2 (tau g2_x + g3_x),  h_x = 12 g2^2 g2_x + 54 g3 g3_x
            = 108 tau^3 (tau g2_x + g3_x),  hence h_x = (9/2) tau w J.

    Take the product over the 24 roots, with w = 1 at each.  Euler for h
    gives 24^23 Res(h, h_x) = Res(w h_w, h_x) = +-24 lc(h) disc(h), and
    Res(h, h_x) = lc(h)^23 prod h_x(t), so disc(h) = c lc(h)^22 prod tau
    prod J(t) with prod J(t) = Res(h, J) / lc(h)^18.  Further prod tau^2 =
    prod (-g2(t) / 3) = 3^-24 Res(h, g2) / lc(h)^8, and Res(h, g2) =
    Res(27 g3^2, g2) = 3^24 r96^2, so prod tau = +-r96 / lc(h)^4: a
    rational function with a constant sign on the irreducible parameter
    space.  The powers of lc(h) cancel, disc(h) = c r96 Res(h, J) with c
    a constant, and evaluation at any one surface gives c = 2^42 3^70.

    The value for the last surface asked is remembered and returned when
    that same object is asked again: keyed by identity, since an ==
    surface may hold Fractions or residues, whose k552 is one too
    (``_per_surface``).  The ValueError on h = 0 is raised on every
    call.  It is ``k552_batch`` of the one surface, with its r96."""
    return k552_batch([u], [r96(u)])[0]


def k552_batch(us, r96s):
    """k552 of each surface of the list us, given r96s, the r96 values
    (``InvariantValue``) of the same surfaces: the list form of ``k552``.
    Every h is checked first, so the first surface in order with h = 0
    raises the ValueError; then Res(h, J) of the surfaces with r96 != 0
    comes from one call of the resultant engine.  h and J are built
    ``on_ints``, as in ``r96_batch``, and only Res(h, J) is wrapped."""
    p, forms, wrap = on_ints(*us)
    gs = list(zip(forms[::2], forms[1::2]))
    hs = [h_on_ints(a, b) for a, b in gs]
    for h in hs:
        _require_nonzero(h, p)
    asked = [(h, _jacobian(a, b)) for h, (a, b), r in zip(hs, gs, r96s) if r.value]
    res_hj = iter(wrap(resultants_ints(asked, p), RES_HJ_WEIGHT))
    # r96 = 0 gives its zero, in r96's domain
    return [InvariantValue("k552", r.value and JACOBIAN_SCALE * r.value * next(res_hj)) for r in r96s]


def _require_nonzero(h, p):
    """ValueError when the int coefficients h of a form all vanish (mod p
    when p > 0), where k552 is undefined."""
    if not any(c % p if p else c for c in h):
        raise ValueError("degenerate family: h vanishes identically")


def _jacobian(a, b):
    """The 19 coefficients of J = g2_x g3_w - g2_w g3_x, high-to-low, from
    the coefficient lists a of g2 (degree 8) and b of g3 (degree 12), on
    plain ints."""
    (ax, aw), (bx, bw) = _partials(a), _partials(b)
    return [s - t for s, t in zip(_convolve(ax, bw), _convolve(aw, bx))]


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
    JACOBIAN_SCALE R T with T = Res(h, J) on the line (``k552``), so the
    quotient K / R^3 is JACOBIAN_SCALE T / R^2.  K = 0 (on a line in the I2
    locus, say) succeeds with the empty quotient, so quotient_degree =
    k_degree = -1, not k_degree - r3_degree.  repr shows success and
    modulus only."""

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

# Res(h, J) is the 42 x 42 Sylvester determinant of 18 rows of h's
# coefficients, cubic in u, and 24 rows of J's, quadratic in u: on a line
# it has degree <= 18*3 + 24*2 = 102, so k552 = JACOBIAN_SCALE r96 Res(h,
# J) has degree <= 20 + 102 = 122 there (a random line reaches it)
RES_HJ_LINE_DEGREE = 102


def line_restriction(u0, u1):
    """(pair, h, jacobian, wrap) on the line u(s) = u0 + s u1: three
    functions of an int s, giving the coefficient lists of (g2, g3), of h
    and of the Jacobian covariant J = (g2, g3)_1 of ``k552`` at u(s), high-
    to-low on plain ints, and the ``wrap`` of ``on_ints``: wrap(ints, w)
    turns a list of Gm-weight w (g2: 4, g3: 6, J: 10, h: 12) into the
    coefficients ``assemble(u(s))`` gives, on ints and Fractions or on
    residues of one modulus.  g2(s) and g3(s) are built coefficient by
    coefficient.  With g2 = a + s b and g3 = c + s d, h = 4 g2^3 + 27 g3^2
    is the cubic H0 + s H1 + s^2 H2 + s^3 H3 in s whose four forms

        H0 = 4 a^3 + 27 c^2,  H1 = 12 a^2 b + 54 c d,
        H2 = 12 a b^2 + 27 d^2,  H3 = 4 b^3,

    and J, bilinear in (g2, g3), is the quadratic J0 + s J1 + s^2 J2 with
    J0 = J(a, c), J1 = J(a, d) + J(b, c) and J2 = J(b, d).  These seven
    forms are convolved once per line ``on_ints``, and h(s) and J(s) are
    Horner's rule in s on each coefficient.  Mod p nothing is reduced
    here: ``on_ints`` hands out balanced representatives, so a line of
    small ints stays on small ints, and ``resultants_ints`` reduces."""
    p, (a, c, b, d), wrap = on_ints(u0, u1)
    aa, bb = _convolve(a, a), _convolve(b, b)
    H = [[4 * x + 27 * y for x, y in zip(_convolve(aa, a), _convolve(c, c))],
         [12 * x + 54 * y for x, y in zip(_convolve(aa, b), _convolve(c, d))],
         [12 * x + 27 * y for x, y in zip(_convolve(bb, a), _convolve(d, d))],
         [4 * x for x in _convolve(bb, b)]]
    J = [_jacobian(a, c), [x + y for x, y in zip(_jacobian(a, d), _jacobian(b, c))], _jacobian(b, d)]

    def pair(s):
        return [x + s * y for x, y in zip(a, b)], [x + s * y for x, y in zip(c, d)]

    def h(s):
        return [((h3 * s + h2) * s + h1) * s + h0 for h0, h1, h2, h3 in zip(*H)]

    def jacobian(s):
        return [(j2 * s + j1) * s + j0 for j0, j1, j2 in zip(*J)]

    return pair, h, jacobian, wrap


class R96VanishesOnLine(ValueError):
    """r96 vanishes identically on a slice line: a property of the line
    (both ends with u_(0,8) = u_(0,12) = 0, say), not a failed check."""


def check_modulus(modulus):
    """ValueError unless modulus is None or a prime above K552_U_DEGREE
    and below PRIME_BOUND, where ``is_prime`` is exact.  The slice points
    s = -51, ..., 51 stay distinct mod any such prime; the threshold keeps
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
    int lists of ``line_restriction`` fed straight to ``resultants_ints``,
    one call per restriction: R(s) = r96(u(s)) is the resultant of g2(s)
    and g3(s) at s = -10, ..., 10 (R96_U_DEGREE = 20), and T(s) = Res(h(s),
    J(s)) at s = -51, ..., 51 (RES_HJ_LINE_DEGREE = 102).  An R that
    vanishes identically raises R96VanishesOnLine, a ValueError, and then
    an h(s) that vanishes identically at one of T's points ValueError, as
    k552 does.  Over Q, wrap scales back R and T of
    a rational line's lam-scaled ints.  Then
    K = k552(u(s)) = JACOBIAN_SCALE R T, and R^3 divides K exactly when R^2
    divides T.  T is divided by R^2 on ints: mod p on the residues, and
    over Q on the primitive parts, by Gauss's lemma.  There T = t Tp and R
    = r P with t, r rational and Tp, P primitive; P^2 is primitive too, so
    it divides Tp in Z[s] exactly when R^2 divides T in Q[s].  K and the
    quotient are the products and the quotient of the primitive parts,
    scaled by JACOBIAN_SCALE and the contents once.  A failed witness
    carries the empty quotient."""
    check_modulus(modulus)
    p = modulus or 0
    if p:
        u0, u1 = u0.reduce_mod(p), u1.reduce_mod(p)
    pair, h, jacobian, wrap = line_restriction(u0, u1)
    R = _interp(resultants_ints([pair(s) for s in _centred(R96_U_DEGREE + 1)], p), p)
    if not R:
        raise R96VanishesOnLine("r96 vanishes identically on this line")
    hjs = [(h(s), jacobian(s)) for s in _centred(RES_HJ_LINE_DEGREE + 1)]
    for hs, _ in hjs:
        _require_nonzero(hs, p)
    T = _interp(resultants_ints(hjs, p), p)
    if not p:
        R, T = wrap(R, DECLARED_WEIGHTS["r96"]), wrap(T, RES_HJ_WEIGHT)
    P, Tp = (R, T) if p else (poly_primitive(R), poly_primitive(T))
    q = exact_quotient(Tp, _convolve(P, P), p)
    if p:
        K = poly_trim([JACOBIAN_SCALE * c % p for c in _convolve(R, T)])
        q = q and [JACOBIAN_SCALE * c % p for c in q]
    elif T:
        r, t = R[-1] / P[-1], JACOBIAN_SCALE * T[-1] / Tp[-1]
        rt, scale = r * t, t / r ** 2
        K = [rt * c for c in _convolve(P, Tp)]
        q = q and [c * scale if c else 0 for c in q]
    else:
        K = []
    return SliceWitness(q is not None, modulus, q or [], K, R)


def _centred(n):
    """The n points centred on 0, s = s0, ..., s0 + n - 1 with s0 = -(n //
    2): s = -51, ..., 51 for n = 103."""
    return range(-(n // 2), n - n // 2)


def _interp(ys, p):
    """Interpolant of the int values ys at the n = len(ys) points
    ``_centred(n)``, low-to-high and trimmed: over Q (p = 0, Fraction
    coefficients) or mod a prime p >= n (residues).  The forward
    differences d_j give (n-1)! times it as sum_j d_j ((n-1)!/j!)
    (s-s0)(s-s0-1)...(s-s0-j+1), expanded exactly on ints; (n-1)! is
    divided out once at the end."""
    d = list(ys)  # a copy: the differences overwrite it
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
    return poly_trim([c * inv % p if p else Fraction(c, scale) for c in poly])


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

    # (a) pointwise integer factorization k552 = r96^3 * delta264, and on a
    # draw that passes it k552 against its definition disc(h); a draw with
    # r96 = 0 is drawn again
    done = 0
    while done < trials:
        u = random_surface(rng)
        try:
            delta264(u)
        except ZeroDivisionError:
            continue
        except InexactDivision:
            failures.append(("pointwise", u.to_json_dict()))
        else:
            if discriminant_binary(assemble(u)[2]) != k552(u).value:
                failures.append(("k552-identity", u.to_json_dict()))
        done += 1

    # (b) weighted homogeneity and (c) SL2-invariance mod p: act(u) gives u
    # and g.u mod p and the factors chi96, chi552 that r96 and k552 pick up,
    # lambda^96 and lambda^552 for lambda in Gm, 1 and 1 for SL2.  Every
    # trial is drawn first, in the order of one trial at a time, and then
    # r96 and k552 of all the surfaces come from the list forms, each one
    # call of the resultant engine.  Where h = 0 mod p, k552 is undefined
    # (its one ValueError) and r96 is compared alone; only draws with r96 =
    # 0 can assemble h = 0.
    def gm(u):
        lam = ModP(rng.choice([2, 3, 5]), p)
        return u.reduce_mod(p), gm_act(lam, u), lam ** 96, lam ** 552

    def sl2(u):
        return u.reduce_mod(p), sl2_act(random_sl2(rng), u).reduce_mod(p), 1, 1

    acts = []
    for label, count, act in (("homogeneity", DEFAULTS.homogeneity_trials, gm), ("sl2", DEFAULTS.sl2_trials, sl2)):
        for _ in range(count):
            u = random_surface(rng)
            acts.append((label, u) + act(u))
    surfaces = [s for _, _, up, vp, _, _ in acts for s in (up, vp)]
    r = r96_batch(surfaces)
    # surfaces 2t and 2t + 1 are trial t's u mod p and its image; k552 is
    # asked of both where h(u) != 0 mod p
    asked = [j for t in range(len(acts)) if r[2 * t].value or not assemble(surfaces[2 * t])[2].is_zero()
             for j in (2 * t, 2 * t + 1)]
    k = dict(zip(asked, k552_batch([surfaces[j] for j in asked], [r[j] for j in asked])))
    for t, (label, u, _, _, chi96, chi552) in enumerate(acts):
        if r[2 * t + 1].value != chi96 * r[2 * t].value:
            failures.append((label + "-r96", u.to_json_dict()))
        if 2 * t in k and k[2 * t + 1].value != chi552 * k[2 * t].value:
            failures.append((label + "-k552", u.to_json_dict()))

    # (d) one slice division; a line on which r96 vanishes identically is
    # drawn again, as (a) draws again where r96 = 0
    for _ in range(DEFAULTS.slice_lines):
        while True:
            u0, u1 = random_surface(rng), random_surface(rng)
            line = {"u0": u0.to_json_dict(), "u1": u1.to_json_dict()}
            try:
                if not slice_divisibility(u0, u1, modulus=p).success:
                    failures.append(("slice", line))
            except R96VanishesOnLine:
                continue
            except ValueError:
                failures.append(("slice-degenerate", line))
            break

    return {
        "seed": seed,
        "trials": trials,
        "modulus": p,
        "convention_tag": CONVENTION_TAG,
        "failures": [list(f) for f in sorted(failures, key=repr)],
    }
