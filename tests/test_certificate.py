"""The irreducibility certificate in ``elimination``: mod-p degree
patterns against sympy's factorization over GF(p), soundness (a
reducible polynomial is never certified), primes stopped early with the
verdict and degree sums of full patterns, one test per way a prime is
skipped or the certificate gives up, and reports that do not depend on
whether the certificate or the factoring module split h."""

import json
import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellk3 import _factor, elimination
from ellk3.binforms import BinaryForm
from ellk3.elimination import (
    CERT_MAX_PATTERNS,
    CERT_MAX_SINGULAR,
    CERT_PRIMES,
    IRREDUCIBLE,
    degree_pattern,
    gcd_and_squarefree,
    irreducibility_certificate,
    poly_primitive,
    squarefree_decomposition,
)
from ellk3.invariants import random_surface
from ellk3.weierstrass import SurfaceParams, assemble, fiber_profile
from reference import is_squarefree_mod, modp_factor_degrees, poly_mul


def h_dense(u):
    """Primitive part of h(x, 1), low-to-high."""
    return poly_primitive(assemble(u)[2].dehomogenize()[0])


@st.composite
def monic(draw, primes):
    """(f, p): a monic polynomial of degree 1..24 mod p, as low-to-high
    residues; mod the small primes many are not squarefree."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, 24))
    return draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1], p


def sympy_pattern(f, p):
    """The pattern, or None exactly when f is not squarefree mod p."""
    return modp_factor_degrees(f, p) if is_squarefree_mod(f, p) else None


@given(monic(CERT_PRIMES))
def test_degree_pattern_matches_sympy_over_the_certificate_primes(case):
    f, p = case
    assert degree_pattern(f, p) == sympy_pattern(f, p)


@given(monic((139, 149)))
def test_degree_pattern_matches_sympy_above_138(case):
    f, p = case
    assert degree_pattern(f, p) == sympy_pattern(f, p)


def test_degree_pattern_pinned():
    # (x + 1)(x^2 + 1)(x^3 + 2x + 1) mod 3: x^2 + 1 and x^3 + 2x + 1 have no root mod 3
    f = [c % 3 for c in poly_mul(poly_mul([1, 1], [1, 0, 1]), [1, 2, 0, 1])]
    assert degree_pattern([1, 1], 3) == [1]
    assert degree_pattern([1, 0, 1], 3) == [2]
    assert degree_pattern([1, 0, 1], 5) == [1, 1]
    assert degree_pattern([1, 0, 0, 0, 1], 3) == [2, 2]
    assert degree_pattern(f, 3) == modp_factor_degrees(f, 3) == [1, 2, 3]
    # (x + 1)^2 (x + 2) mod 5 has a square factor; x^3 - 1 = (x - 1)^3 mod 3
    # is inseparable, its derivative 3 x^2 being 0 mod 3
    assert degree_pattern([c % 5 for c in poly_mul(poly_mul([1, 1], [1, 1]), [2, 1])], 5) is None
    assert degree_pattern([2, 0, 0, 1], 3) is None


# degree 1..12, leading coefficient 1..6 (so some primes divide lc(f))
polys = st.tuples(st.integers(1, 12).flatmap(lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)),
                  st.integers(1, 6)).map(lambda t: t[0] + [t[1]])


@given(polys, polys)
def test_a_product_of_two_nonconstant_polynomials_is_never_certified(a, b):
    f = poly_primitive(poly_mul(a, b))
    verdict, trail, _, _ = irreducibility_certificate(f)
    assert verdict != IRREDUCIBLE
    assert verdict in ("pattern bound", "singular bound", "primes exhausted")
    # the factor's degree survives at every prime that gave a pattern
    k = len(a) - 1
    for _, outcome in trail:
        if isinstance(outcome, tuple):
            assert k in allowed_sums(outcome)


def test_x4_plus_1_reaches_the_pattern_bound_and_recombination_keeps_it_whole(monkeypatch):
    # irreducible over Q, yet it splits mod every prime: no pattern can rule out degree 2
    f = [1, 0, 0, 0, 1]
    verdict, trail, sums, prime = irreducibility_certificate(f)
    patterns = [o for _, o in trail if isinstance(o, tuple)]
    assert verdict == "pattern bound" and len(patterns) == CERT_MAX_PATTERNS
    assert all(o in ((1, 1, 1, 1), (1, 1, 2), (2, 2)) for o in patterns)
    calls = []
    factor = _factor.factor_uncertified
    monkeypatch.setattr(_factor, "factor_uncertified", lambda *args: calls.append(args) or factor(*args))
    unit, factors = gcd_and_squarefree(BinaryForm(4, [1, 0, 0, 0, 1]))
    assert calls == [(f, sums, prime)]
    assert unit == 1 and [(g.coeffs, m) for g, m in factors] == [([1, 0, 0, 0, 1], 1)]


def test_squarefree_decomposition_needs_no_sqf_list(monkeypatch):
    """The parts are the irreducible factors multiplied up by multiplicity:
    sympy's sqf_list parts, without a call to it."""
    x = sympy.Symbol("x")
    h = h_dense(random_surface(random.Random(3)))
    cases = ([-3, 7, -5, 1], poly_mul(poly_mul([1, 0, 0, 0, 1], [1, 0, 0, 0, 1]), [0, 2, 1]),
             poly_mul(poly_mul(h, h), poly_mul([-1, 3], [-1, 3])), [6, 0, -18, 12], [5])
    want = []
    for a in cases:
        _, parts = sympy.Poly(poly_primitive(a)[::-1], x, domain="ZZ").sqf_list()
        want.append([([int(c) for c in reversed(f.all_coeffs())], m) for f, m in parts])

    def refused(self):
        raise AssertionError("sqf_list called")

    monkeypatch.setattr(sympy.Poly, "sqf_list", refused)
    assert [squarefree_decomposition(a) for a in cases] == want


def test_certified_squarefree_decomposition_makes_no_factoring_call(monkeypatch):
    f = h_dense(random_surface(random.Random(8)))
    assert irreducibility_certificate(f)[0] == IRREDUCIBLE
    calls = []
    monkeypatch.setattr(_factor, "factor_uncertified", lambda prim, sums, prime: calls.append(prim))
    assert squarefree_decomposition([3 * c for c in f]) == [(f, 1)] and calls == []


def test_certified_h_is_irreducible_for_sympy_too():
    rng = random.Random(8)
    certified = 0
    x = sympy.Symbol("x")
    for _ in range(30):
        f = h_dense(random_surface(rng))
        if irreducibility_certificate(f)[0] == IRREDUCIBLE:
            certified += 1
            _, parts = sympy.Poly(f[::-1], x, domain="ZZ").factor_list()
            assert parts == [(sympy.Poly(f[::-1], x, domain="ZZ"), 1)]
    # the certificate is not vacuous: most generic h are proved irreducible
    assert certified >= 25


# g2 and g3 lead with 2, so h(x, 1) leads with 4 * 8 + 27 * 4 = 140 = 2^2 * 5 * 7
LC_140 = SurfaceParams([2, 3, 3, -3, -3, -3, -1, 3, -2], [2, 2, 3, 2, 3, -1, -1, 1, -2, 1, -3, 1, 2])


def subset_sums(degrees):
    """The set of sums of sub-multisets of degrees."""
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def allowed_sums(outcome):
    """The factor-degree sums a trail's pattern allows: the subset sums of
    a full pattern, or for a truncated (found, left, i) those of found
    plus a rest of degree left split into parts of degree > i, which can
    contribute 0, left or any s with i < s < left - i."""
    if isinstance(outcome[0], int):
        return subset_sums(outcome)
    found, left, i = outcome
    rest = {0, left} | set(range(i + 1, left - i))
    return {s + r for s in subset_sums(found) for r in rest}


def truncate(pattern, sums):
    """The trail entry of a prime whose full pattern is ``pattern``,
    stopped by the certificate's rule: at the first step i (from 0) where
    the sums still allowed meet ``sums`` exactly where the pattern with
    its rest as one factor does; a full pattern once 2 (i + 1) exceeds the
    degree left."""
    n, i = sum(pattern), 0
    while True:
        found = tuple(d for d in pattern if d <= i)
        left = n - sum(found)
        if 2 * i + 2 > left:
            return pattern
        if sums & allowed_sums((found, left, i)) == sums & subset_sums(found + (left,)):
            return found, left, i
        i += 1


def reference_certificate(f, pattern_mod=None, stop=True):
    """``irreducibility_certificate``'s verdict and trail, under the same
    "lc", "singular" and bound rules, from full patterns: by default with
    squarefreeness mod p from ``is_squarefree_mod`` and the patterns from
    ``modp_factor_degrees`` (sympy over GF(p)), or from
    ``pattern_mod(f, p)``, None when f is singular mod p.  With stop,
    each pattern is truncated by the certificate's stopping rule."""
    n = len(f) - 1
    full, sums = {0, n}, set(range(n + 1))
    trail, patterns, singular = [], 0, 0
    for p in CERT_PRIMES:
        if not f[-1] % p:
            trail.append((p, "lc"))
            continue
        if pattern_mod:
            pattern = pattern_mod(f, p)
        elif is_squarefree_mod(f, p):
            pattern = modp_factor_degrees(f, p)
        else:
            pattern = None
        if pattern is None:
            trail.append((p, "singular"))
            if not patterns:
                singular += 1
                if singular == CERT_MAX_SINGULAR:
                    return "singular bound", trail
        else:
            pattern = tuple(pattern)
            trail.append((p, truncate(pattern, sums) if stop else pattern))
            sums &= subset_sums(pattern)
            if sums == full:
                return IRREDUCIBLE, trail
            patterns += 1
            if patterns == CERT_MAX_PATTERNS:
                return "pattern bound", trail
    return "primes exhausted", trail


def sums_after_each_prime(f, trail):
    """The factor-degree sums still possible after each prime of a trail,
    recomputed from its outcomes."""
    sums, out = set(range(len(f))), []
    for _, outcome in trail:
        if isinstance(outcome, tuple):
            sums &= allowed_sums(outcome)
        out.append(sorted(sums))
    return out


def trail_inputs():
    """Seeded h with small and large coefficients, then one input per way
    a prime is skipped or the certificate gives up."""
    rng = random.Random(17)
    fs = [h_dense(random_surface(rng, bound)) for bound in [9] * 14 + [10 ** 6] * 6]
    return fs + [h_dense(LC_140), [1, 0, 0, 0, 1], poly_mul(poly_mul([-2, 0, 1], [-2, 0, 1]), [3, 1])]


def test_certificate_trails_match_sympy():
    for f in trail_inputs():
        assert irreducibility_certificate(f)[:2] == reference_certificate(f)


def library_pattern(f, p):
    """``degree_pattern`` of the monic reduction of f mod p: every step of
    the library's own distinct-degree factorization."""
    inv = pow(f[-1], -1, p)
    return degree_pattern([c * inv % p for c in f], p)


# seeded h with small and large coefficients, products of two factors,
# square factors, and leading coefficients divisible by small primes
cert_inputs = st.one_of(
    st.tuples(st.integers(0, 2 ** 32), st.sampled_from([9, 10 ** 6])).map(
        lambda t: h_dense(random_surface(random.Random(t[0]), t[1]))),
    st.tuples(polys, polys).map(lambda t: poly_mul(*t)),
    st.tuples(polys, polys).map(lambda t: poly_mul(poly_mul(t[0], t[0]), t[1])),
    st.tuples(polys, st.sampled_from([3, 15, 105, 1155])).map(lambda t: t[0][:-1] + [t[0][-1] * t[1]]),
).map(poly_primitive)


@settings(max_examples=80)
@given(cert_inputs)
def test_stopped_primes_keep_the_verdict_and_sums_of_full_patterns(f):
    verdict, trail, _, _ = irreducibility_certificate(f)
    want, full_trail = reference_certificate(f, library_pattern, stop=False)
    assert verdict == want
    assert [(p, o if isinstance(o, str) else "pattern") for p, o in trail] == \
        [(p, o if isinstance(o, str) else "pattern") for p, o in full_trail]
    assert sums_after_each_prime(f, trail) == sums_after_each_prime(f, full_trail)
    assert trail == reference_certificate(f, library_pattern)[1]


def test_certificate_gcd_budget(monkeypatch):
    """The gcds mod p (squarefree checks counted) that 30 seeded h cost:
    stopped primes save about 30% of those full patterns take."""
    calls = []
    euclid = elimination._euclid_mod
    monkeypatch.setattr(elimination, "_euclid_mod", lambda *args: calls.append(1) or euclid(*args))
    rng = random.Random(30)
    fs = [h_dense(random_surface(rng)) for _ in range(30)]
    verdicts = [irreducibility_certificate(f)[0] for f in fs]
    stopped = len(calls)
    assert [reference_certificate(f, library_pattern, stop=False)[0] for f in fs] == verdicts
    assert (stopped, len(calls) - stopped) == (739, 1063)


def test_a_prime_dividing_the_leading_coefficient_is_skipped():
    f = h_dense(LC_140)
    assert f[-1] == 140
    verdict, trail, _, _ = irreducibility_certificate(f)
    assert verdict == IRREDUCIBLE
    assert trail[1:3] == [(5, "lc"), (7, "lc")]


def test_a_prime_modulo_which_f_is_not_squarefree_is_skipped():
    # h = 4 g2^3 + 27 g3^2 is g2^3 mod 3, a cube
    f = h_dense(LC_140)
    verdict, trail, _, _ = irreducibility_certificate(f)
    assert trail[0] == (3, "singular") and verdict == IRREDUCIBLE
    # once a pattern has proved f squarefree, singular primes are skipped
    # without limit: x^2 - D splits mod 3 and is singular mod each prime of D
    D = 5 * 7 * 11 * 13 * 17 * 19 * 23
    verdict, trail, _, _ = irreducibility_certificate([-D, 0, 1])
    assert verdict == IRREDUCIBLE
    assert trail == [(3, (1, 1))] + [(p, "singular") for p in (5, 7, 11, 13, 17, 19, 23)] + [(29, (2,))]
    assert len(trail) - 2 > CERT_MAX_SINGULAR


def test_a_square_factor_reaches_the_singular_bound():
    # (x^2 - 2)^2 (x + 3): singular mod every prime
    f = poly_mul(poly_mul([-2, 0, 1], [-2, 0, 1]), [3, 1])
    verdict, trail, _, _ = irreducibility_certificate(f)
    assert verdict == "singular bound"
    assert [o for _, o in trail] == ["singular"] * CERT_MAX_SINGULAR
    unit, factors = gcd_and_squarefree(BinaryForm.homogenize(f, 5))
    assert sorted((g.n, m) for g, m in factors) == [(1, 1), (2, 2)]


def test_every_prime_dividing_the_leading_coefficient_exhausts_the_primes():
    lc = 1
    for p in CERT_PRIMES:
        lc *= p
    f = [1, 0, lc]  # lc x^2 + 1 has no real root
    verdict, trail, _, _ = irreducibility_certificate(f)
    assert verdict == "primes exhausted"
    assert trail == [(p, "lc") for p in CERT_PRIMES]
    unit, factors = gcd_and_squarefree(BinaryForm(2, [lc, 0, 1]))
    assert unit == lc and [(g.n, m) for g, m in factors] == [(2, 1)]


def test_reports_do_not_depend_on_who_splits_h(monkeypatch):
    rng = random.Random(11)
    surfaces = [random_surface(rng, b) for b in [9] * 10 + [10 ** 6] * 2] + [LC_140]
    certified = [json.dumps(fiber_profile(u).to_json_dict(), sort_keys=True) for u in surfaces]
    monkeypatch.setattr(elimination, "irreducibility_certificate", lambda f: ("off", [], (1 << len(f)) - 1, None))
    assert [json.dumps(fiber_profile(u).to_json_dict(), sort_keys=True) for u in surfaces] == certified
