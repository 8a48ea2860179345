"""Factoring over Z without sympy (``ellk3._factor``): factor multisets
against sympy's ``factor_list`` on seeded reducible forms, on the h the
certificate gives up on and on every surface fixture class; Yun's
decomposition, the factors mod p, the Hensel lift and the choice of prime
one by one; and the order ``gcd_and_squarefree`` lists factors in."""

import random
from fractions import Fraction

import pytest
import sympy

from ellk3 import _factor, elimination
from ellk3.binforms import BinaryForm
from ellk3.elimination import (
    CERT_PRIMES,
    IRREDUCIBLE,
    _irreducible_factors,
    _neg_inverses,
    gcd_and_squarefree,
    irreducibility_certificate,
    poly_primitive,
)
from ellk3.invariants import random_surface
from ellk3.weierstrass import SurfaceParams, assemble
from test_certificate import LC_140, h_dense, mul

X = sympy.Symbol("x")


def sympy_factors(f):
    """sympy's factor_list of f's primitive part, as sorted (low-to-high
    primitive factor, multiplicity) pairs."""
    _, parts = sympy.Poly(poly_primitive(f)[::-1], X, domain="ZZ").factor_list()
    return sorted(([int(c) for c in reversed(g.all_coeffs())], m) for g, m in parts)


def rand_poly(rng, n, bound):
    """A polynomial of degree n with entries in [-bound, bound], low to high."""
    return [rng.randint(-bound, bound) for _ in range(n)] + [rng.choice([-1, 1]) * rng.randint(1, bound)]


# irreducible over Q, yet split mod every prime
SPLIT_EVERYWHERE = ([1, 0, 0, 0, 1], [1, 0, -1, 0, 1], [9, 0, 0, 0, 1], [1, 0, -10, 0, 1], [1, 0, -4, 0, 1])


def reducible_form(rng, kind):
    bound = rng.choice([1, 3, 9, 100, 10 ** 6])
    if kind == "product":  # 2 to 4 factors
        f = [1]
        for _ in range(rng.randint(2, 4)):
            f = mul(f, rand_poly(rng, rng.randint(1, 8), bound))
    elif kind == "power":  # a square or a cube, times a cofactor
        a = rand_poly(rng, rng.randint(1, 6), bound)
        f = mul(mul(a, a), a) if rng.random() < 0.5 else mul(a, a)
        f = mul(f, rand_poly(rng, rng.randint(0, 6), bound))
    elif kind == "x power":  # x^e splits off before the certificate
        f = [0] * rng.randint(1, 5) + mul(rand_poly(rng, rng.randint(1, 10), bound),
                                          rand_poly(rng, rng.randint(0, 6), bound))
    elif kind == "split everywhere":
        c = rng.choice(SPLIT_EVERYWHERE)
        f = mul(c, rand_poly(rng, rng.randint(1, 8), bound))
        if rng.random() < 0.5:
            f = mul(f, c)
    elif kind == "leading coefficient":  # small primes divide lc(f), as in LC_140
        a = rand_poly(rng, rng.randint(1, 8), bound)
        a[-1] *= rng.choice([140, 2310, 1155, 6])
        f = mul(a, rand_poly(rng, rng.randint(1, 8), bound))
    else:  # entries up to 10^6
        f = mul(rand_poly(rng, rng.randint(1, 10), 10 ** 6), rand_poly(rng, rng.randint(1, 10), 10 ** 6))
        if rng.random() < 0.3:
            f = mul(f, rand_poly(rng, rng.randint(1, 3), 10 ** 6))
    scale = rng.choice([1, -1, 3])
    return [c * scale for c in f]


KINDS = ("product", "power", "x power", "split everywhere", "leading coefficient", "large")


@pytest.mark.parametrize("kind", KINDS)
def test_factors_match_sympy_on_reducible_forms(kind):
    rng = random.Random(KINDS.index(kind))
    for _ in range(30):
        f = reducible_form(rng, kind)
        want = sympy_factors(f)
        assert len(want) > 1 or want[0][1] > 1, f
        assert sorted(_irreducible_factors(f)) == want, f


def surface_h(u):
    return assemble(u)[2].dehomogenize()[0]


# seeded |c| <= 9 surfaces whose h the certificate gives up on, with its verdict
GIVE_UP = {43: "pattern bound", 63: "pattern bound", 71: "pattern bound", 79: "singular bound",
           929: "singular bound", 1089: "singular bound"}


@pytest.mark.parametrize("seed", sorted(GIVE_UP))
def test_give_up_surfaces_match_sympy(seed):
    h = surface_h(random_surface(random.Random(seed)))
    assert irreducibility_certificate(poly_primitive(h))[0] == GIVE_UP[seed]
    assert sorted(_irreducible_factors(h)) == sympy_factors(h)


def bf(n, bound, rng):
    while True:
        c = [rng.randint(-bound, bound) for _ in range(n)] + [rng.randint(1, bound)]
        if any(c):
            return BinaryForm(n, c)


def fixture_surface(rng, kind):
    """A surface of each class the surfaces benchmark draws."""
    x = BinaryForm(1, [1, 0])
    if kind == "small":
        return random_surface(rng, 9)
    if kind == "large":
        return random_surface(rng, 10 ** 6)
    if kind == "rational":
        return SurfaceParams(*[[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for n in (9, 13)])
    if kind == "type_ii":
        return SurfaceParams((x * bf(7, 3, rng)).coeffs, (x * bf(11, 3, rng)).coeffs)
    if kind == "non_minimal":
        return SurfaceParams((x ** 4 * bf(4, 3, rng)).coeffs, (x ** 6 * bf(6, 3, rng)).coeffs)
    if kind == "i2_collision":
        f = bf(4, 3, rng)
        return SurfaceParams((-3 * f ** 2).coeffs, (2 * f ** 3 + x ** 2 * bf(10, 3, rng)).coeffs)
    s = rng.choice([1, 2])  # w divides h
    return SurfaceParams([-3 * s * s] + [rng.randint(-9, 9) for _ in range(8)],
                         [2 * s ** 3] + [rng.randint(-9, 9) for _ in range(12)])


FIXTURE_KINDS = ("small", "large", "rational", "type_ii", "non_minimal", "i2_collision", "w_divides_h")


@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_surface_fixture_classes_match_sympy(kind):
    rng = random.Random(FIXTURE_KINDS.index(kind))
    for _ in range(6):
        h = surface_h(fixture_surface(rng, kind))
        if any(h):
            assert sorted(_irreducible_factors(h)) == sympy_factors(h)


def test_an_irreducible_split_everywhere_stays_whole():
    # x^4 + 1 splits mod every prime, so only recombination proves it irreducible
    for c in SPLIT_EVERYWHERE:
        trail = irreducibility_certificate(c)[1]
        assert _factor.factor_uncertified(c, trail) == [(c, 1)]


def test_yun_parts_multiply_back():
    a, b, c = [-2, 0, 1], [3, 1], [1, 1, 0, 5]
    f = mul(mul(a, mul(b, b)), mul(c, mul(c, c)))
    assert _factor._yun(f) == [(a, 1), (b, 2), (c, 3)]
    assert _factor._yun([-1, 0, 1]) == [([-1, 0, 1], 1)]
    # a missing multiplicity gives the part [1]
    assert _factor._yun(mul(mul(b, b), mul(b, a))) == [(a, 1), ([1], 2), (b, 3)]


@pytest.mark.parametrize("p", [3, 5, 13, 101, 401])
def test_factors_mod_p_match_sympy(p):
    rng = random.Random(p)
    checked = 0
    for _ in range(12):
        f = [rng.randrange(p) for _ in range(rng.randint(2, 16))] + [1]
        fp = sympy.Poly(f[::-1], X, modulus=p)
        if fp.degree() != len(f) - 1 or sympy.degree(sympy.gcd(fp, fp.diff(X))) > 0:
            continue  # not squarefree mod p
        _, parts = fp.factor_list()
        want = sorted([c % p for c in reversed(g.monic().all_coeffs())] for g, _ in parts)
        assert sorted(_factor._factor_mod(f, p)) == want
        checked += 1
    assert checked >= 5


def test_hensel_lift_multiplies_back():
    # (x - 1)(x + 2)(x^2 + 3) mod 5^6, from its factors mod 5
    p, l = 5, 6
    f = mul(mul([-1, 1], [2, 1]), [3, 0, 1])
    mods = [[4, 1], [2, 1], [3, 0, 1]]
    lifted = _factor._lift(f, mods, p, l)
    M = p ** l
    assert [[c % p for c in g] for g in lifted] == mods
    assert _factor._product(lifted, M) == [c % M for c in f]
    assert sorted(lifted) == sorted([[M - 1, 1], [2, 1], [3, 0, 1]])


def test_a_trail_without_patterns_picks_the_next_good_prime():
    # (3 5 ... 397) x^2 + 1: every certificate prime divides the leading coefficient
    lc = 1
    for p in CERT_PRIMES:
        lc *= p
    trail = irreducibility_certificate([1, 0, lc])[1]
    assert _factor._choose_prime([1, 0, lc], trail) == 401
    # the give-up h of seed 1089 is squarefree but singular mod 3, 5, 7, 11 and 13
    f = poly_primitive(surface_h(random_surface(random.Random(1089))))
    verdict, trail = irreducibility_certificate(f)
    assert verdict == "singular bound" and [p for p, _ in trail] == [3, 5, 7, 11, 13]
    assert _factor._choose_prime(f, trail) == 17
    assert _factor.factor_uncertified(f, trail) == [(f, 1)]


def test_the_prime_with_the_fewest_factors_is_chosen():
    f = mul([1, 0, 0, 0, 1], [-1, 2, 0, 1])
    verdict, trail = irreducibility_certificate(f)
    counts = {p: len(o[0]) + (o[1] > 0) if isinstance(o[0], tuple) else len(o)
              for p, o in trail if isinstance(o, tuple)}
    p = _factor._choose_prime(f, trail)
    assert counts[p] == min(counts.values()) and p == min(q for q in counts if counts[q] == counts[p])


def test_trail_sums_are_the_certificates():
    # the sums left after a trail are those every outcome allows
    rng = random.Random(5)
    for _ in range(20):
        f = poly_primitive(mul(rand_poly(rng, rng.randint(1, 8), 9), rand_poly(rng, rng.randint(1, 8), 9)))
        verdict, trail = irreducibility_certificate(f)
        sums = _factor._trail_sums(len(f) - 1, trail)
        assert verdict != IRREDUCIBLE and sums != 1 | 1 << len(f) - 1
        for g, _ in sympy_factors(f):
            assert sums >> len(g) - 1 & 1


def test_gcd_and_squarefree_lists_w_then_x_then_by_multiplicity_degree_and_coefficients():
    # w^2 x^3 (x + 2)^2 (x - 1)^2 (x^2 + 3) (x - 5)
    dense = mul(mul(mul([2, 1], [2, 1]), mul([-1, 1], [-1, 1])), mul([3, 0, 1], [-5, 1]))
    f = BinaryForm.homogenize([0, 0, 0] + dense, 12, 2)
    unit, factors = gcd_and_squarefree(f)
    assert unit == 1
    assert [(g.coeffs, m) for g, m in factors] == [
        ([0, 1], 2), ([1, 0], 3), ([1, -5], 1), ([1, 0, 3], 1), ([1, -1], 2), ([1, 2], 2)]


def test_every_factor_is_checked_by_exact_division(monkeypatch):
    # a recombination that skipped the division over Z would report a
    # product of lifted factors that does not divide
    calls = []
    quotient = _factor.exact_quotient
    monkeypatch.setattr(_factor, "exact_quotient", lambda *a: calls.append(a) or quotient(*a))
    f = mul(mul([1, 0, 0, 0, 1], [-7, 3, 2]), [5, -1, 0, 4])
    assert sorted(_irreducible_factors(f)) == sympy_factors(f)
    assert any(len(a) == 2 and a[0] == f for a in calls)


def test_negated_inverse_table():
    for p in (3, 5, 397, 4093):
        table = _neg_inverses(p)
        assert len(table) == p and table[0] == 0
        assert all(i * table[i] % p == p - 1 for i in range(1, p))
    assert elimination.INVERSE_TABLE_BOUND > CERT_PRIMES[-1]


def test_lc_140_surface_is_certified_and_its_times_a_square_factors():
    h = h_dense(LC_140)
    assert _irreducible_factors(h) == [(h, 1)]
    f = mul(mul(h, [3, -1]), [3, -1])
    assert sorted(_irreducible_factors(f)) == sympy_factors(f)
