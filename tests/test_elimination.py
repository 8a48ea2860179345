import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellk3.binforms import BinaryForm
from ellk3.elimination import (
    CONVENTION_TAG,
    INVERSE_TABLE_BOUND,
    _euclid_mod,
    _negated_inverses,
    _pack,
    _slot_bits,
    _unpack,
    discriminant_binary,
    factor_multiplicity,
    exact_quotient,
    gcd_and_squarefree,
    poly_divmod,
    poly_monic,
    poly_primitive,
    poly_trim,
    resultant,
    resultants_ints,
    squarefree_decomposition,
)
from ellk3.invariants import r96
from ellk3.multipoly import MultiPoly
from ellk3.scalars import DomainError, ModP, coefficient_domain as _domain
from ellk3.weierstrass import SurfaceParams
from reference import det_bareiss, field_divmod, poly_mul, rand_form, residues, sylvester_matrix, sylvester_resultant


def split_form(roots):
    # monic product of (x - r w) over the given roots
    f = BinaryForm(0, [1])
    for r in roots:
        f = f * BinaryForm(1, [1, -r])
    return f


def det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_convention_tag_frozen():
    assert CONVENTION_TAG == "sylv=f-rows-then-g-rows;disc=res(df/dx,df/dw)"


def test_sylvester_shape():
    rng = random.Random(0)
    f, g = rand_form(rng, 8), rand_form(rng, 12)
    rows = sylvester_matrix(f, g)
    assert len(rows) == 20
    assert all(len(r) == 20 for r in rows)


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(1)
    for n in range(1, 7):
        for _ in range(6):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(rows) == det_cofactor(rows)
    # rational entries
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(4)]
    assert det_bareiss(rows) == det_cofactor(rows)


def test_det_mod_matches_exact():
    rng = random.Random(2)
    p = 10007
    for n in (3, 5, 8):
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        exact = det_bareiss(rows)
        assert det_bareiss([[ModP(a, p) for a in r] for r in rows]) == exact % p


def test_det_multivariate_entries():
    x = MultiPoly.variable("x", ("x",))
    rows = [[x, 1], [1, x]]
    assert det_bareiss(rows) == x * x - 1


def test_resultant_root_product():
    # monic split forms: Res(f, g) = prod (alpha_i - beta_j)
    rng = random.Random(3)
    for _ in range(15):
        alphas = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        betas = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        f, g = split_form(alphas), split_form(betas)
        expected = 1
        for a in alphas:
            for b in betas:
                expected *= a - b
        assert resultant(f, g) == expected


def test_resultant_swap_sign():
    rng = random.Random(4)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        f, g = rand_form(rng, m), rand_form(rng, n)
        assert resultant(f, g) == (-1) ** (m * n) * resultant(g, f)


def test_resultant_multiplicativity():
    rng = random.Random(5)
    for _ in range(10):
        f1, f2, g = rand_form(rng, 2), rand_form(rng, 3), rand_form(rng, 3)
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)


def test_resultant_coprime_powers():
    assert resultant(BinaryForm.monomial(8, 0), BinaryForm.monomial(12, 12)) == 1


def test_resultant_vanishes_iff_common_root():
    f = split_form([1, 2])
    g = split_form([2, 5])
    assert resultant(f, g) == 0
    assert resultant(split_form([1, 3]), g) != 0


def test_discriminant_cubic_scalar_frozen():
    # disc(x^3 + p x w^2 + q w^3) = 3 * (4 p^3 + 27 q^2) under this convention
    for p, q in [(2, 3), (1, 1), (-4, 5), (0, 1), (7, -2)]:
        f = BinaryForm(3, [1, 0, p, q])
        assert discriminant_binary(f) == 3 * (4 * p**3 + 27 * q**2)


def test_discriminant_vanishes_iff_repeated_root():
    assert discriminant_binary(split_form([1, 1, 2])) == 0
    assert discriminant_binary(split_form([0, 1, 2])) != 0


def test_discriminant_substitution_covariance():
    # disc(gamma . f) = det(gamma)^{n(n-1)} disc(f); check with SL2 (det 1)
    rng = random.Random(6)
    for _ in range(10):
        f = rand_form(rng, 4)
        mat = [[1, rng.randint(-3, 3)], [0, 1]]
        assert discriminant_binary(f.substitute(mat)) == discriminant_binary(f)


def test_discriminant_scaling_weight():
    rng = random.Random(7)
    for n in (3, 4, 5):
        f = rand_form(rng, n)
        lam = 5
        assert discriminant_binary(lam * f) == lam ** (2 * (n - 1)) * discriminant_binary(f)


def test_squarefree_decomposition_univariate():
    # (x-1)^2 (x-3) as dense low-to-high coefficients
    a = [-3, 7, -5, 1]
    parts = squarefree_decomposition(a)
    got = {m: tuple(f) for f, m in parts}
    assert got == {1: (-3, 1), 2: (-1, 1)}


def test_gcd_and_squarefree_structure():
    f = split_form([1, 1, 2]) * BinaryForm.monomial(2, 2)  # (x-w)^2 (x-2w) w^2
    unit, factors = gcd_and_squarefree(f)
    rebuilt = BinaryForm(0, [unit])
    for fac, mult in factors:
        rebuilt = rebuilt * fac**mult
    assert rebuilt == f
    mults = sorted(m for _, m in factors)
    assert mults == [1, 2, 2]


def test_factor_multiplicity():
    w = BinaryForm(1, [0, 1])
    x = BinaryForm(1, [1, 0])
    f = x**3 * w**2 * BinaryForm(1, [1, -5])
    assert factor_multiplicity(f, x) == 3
    assert factor_multiplicity(f, w) == 2
    assert factor_multiplicity(f, BinaryForm(1, [1, -7])) == 0


def test_factor_multiplicity_rational_form_non_monic_place():
    # g = (3/7) (2x - 3w)^2 (x^2 + w^2): the place 2x - 3w is not monic and
    # g's coefficients are not integers
    place = BinaryForm(1, [2, -3])
    g = BinaryForm(0, [Fraction(3, 7)]) * place * place * BinaryForm(2, [1, 0, 1])
    assert any(c.denominator != 1 for c in g.coeffs)
    assert factor_multiplicity(g, place) == 2
    assert factor_multiplicity(g, BinaryForm(1, [Fraction(2, 5), Fraction(-3, 5)])) == 2
    assert factor_multiplicity(g, BinaryForm(2, [1, 0, 1])) == 1
    assert factor_multiplicity(g, BinaryForm(1, [3, -2])) == 0


@pytest.mark.parametrize("factor", [BinaryForm(0, [5]), BinaryForm(0, [0]), BinaryForm(2, [0, 0, 0])],
                         ids=["constant", "zero-constant", "zero-quadratic"])
def test_factor_multiplicity_refuses_constant_or_zero_factor(factor):
    # dividing by a unit always succeeds, so a constant factor would count forever
    with pytest.raises(ValueError, match="positive degree"):
        factor_multiplicity(BinaryForm(2, [1, 0, -1]), factor)


@pytest.mark.parametrize("coeffs, domain", [
    ([1, -2, 0], (0, False)), ([True, 2], (0, False)), ([ModP(1, 7), 3], (7, False)),
    ([Fraction(1, 2), 3, False], (0, True))])
def test_domain_of_coefficients(coeffs, domain):
    assert _domain(coeffs) == domain


@pytest.mark.parametrize("coeffs, match", [
    ([1, 1.5], "float"), (["1"], "str"), ([ModP(1, 7), ModP(1, 11)], "mod 7 and mod 11"),
    ([Fraction(1, 2), ModP(1, 7)], "Fraction")])
def test_domain_refuses_other_and_mixed_coefficients(coeffs, match):
    with pytest.raises(DomainError, match=match):
        _domain(coeffs)


def test_factoring_refuses_residues():
    f = BinaryForm(2, [1, 0, -1])
    with pytest.raises(DomainError, match="mod 7"):
        gcd_and_squarefree(f.reduce_mod(7))
    with pytest.raises(DomainError, match="mod 7"):
        factor_multiplicity(f.reduce_mod(7), BinaryForm(1, [1, 1]))
    with pytest.raises(DomainError, match="mod 7"):
        factor_multiplicity(f, BinaryForm(1, [1, 1]).reduce_mod(7))


def test_resultant_sl2_invariance():
    rng = random.Random(9)
    for _ in range(8):
        f, g = rand_form(rng, 3, 4), rand_form(rng, 4, 4)
        s = rng.randint(-3, 3)
        mat = [[1, s], [0, 1]] if rng.random() < 0.5 else [[1, 0], [s, 1]]
        assert resultant(f.substitute(mat), g.substitute(mat)) == resultant(f, g)


# -- the PRS engine against the Sylvester reference -------------------

P62 = 4611686018427388039
small_ints = st.integers(-9, 9)
big_ints = st.tuples(st.sampled_from([-1, 1]), st.integers(2**64, 2**90)).map(lambda t: t[0] * t[1])
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def forms(draw, coeff, min_degree=0, max_degree=6, w_power=0):
    """A form of degree >= max(min_degree, w_power) whose first w_power
    coefficients vanish, i.e. w^w_power divides it."""
    n = draw(st.integers(max(min_degree, w_power), max_degree))
    coeffs = draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))
    return BinaryForm(n, [0] * w_power + coeffs[w_power:])


def assert_engine_matches(f, g, kind):
    got, want = resultant(f, g), sylvester_resultant(f, g)
    assert got == want
    if not (f.is_zero() or g.is_zero()):
        assert isinstance(got, kind)


@given(forms(st.one_of(small_ints, big_ints)), forms(st.one_of(small_ints, big_ints)))
def test_engine_matches_sylvester_over_z(f, g):
    assert_engine_matches(f, g, int)


@given(forms(big_ints, min_degree=1), forms(big_ints, min_degree=1))
def test_engine_matches_sylvester_on_big_coefficients(f, g):
    assert_engine_matches(f, g, int)


@given(forms(st.one_of(fractions, small_ints)), forms(fractions))
def test_engine_matches_sylvester_over_q(f, g):
    assert_engine_matches(f, g, Fraction)


@given(st.sampled_from([101, 10007, P62]).flatmap(
    lambda p: st.tuples(forms(residues(p)), forms(residues(p)))))
def test_engine_matches_sylvester_mod_p(fg):
    assert_engine_matches(*fg, ModP)


@given(forms(st.integers(-3, 3).map(lambda v: ModP(v, 101)), max_degree=8),
       forms(st.integers(-3, 3).map(lambda v: ModP(v, 101)), max_degree=8))
def test_engine_matches_sylvester_mod_small_prime_with_drops(f, g):
    # small residues mod 101 make vanishing leading coefficients common
    assert_engine_matches(f, g, ModP)


# the mod-p engine is Euclid's sequence on true remainders; tiny fields
# make vanishing coefficients and large degree drops common
TINY_PRIMES = (3, 5, 7, 139)


def sparse_residues(p):
    return st.one_of(st.just(0), st.integers(0, p - 1)).map(lambda v: ModP(v, p))


@given(st.sampled_from(TINY_PRIMES).flatmap(lambda p: st.tuples(
    st.integers(0, 3).flatmap(lambda k: forms(sparse_residues(p), max_degree=8, w_power=k)),
    st.integers(0, 3).flatmap(lambda k: forms(sparse_residues(p), max_degree=8, w_power=k)))))
def test_engine_matches_sylvester_mod_tiny_primes(fg):
    # leading zeros (w divides one form, both or neither) and sparse forms
    assert_engine_matches(*fg, ModP)


@st.composite
def euclid_drops(draw):
    """(A, B) residue forms with A = B Q + R mod p, lc(B) and lc(Q) nonzero
    and deg R <= deg B - 2 (R may be zero), so that Euclid's first
    remainder drops two or more degrees below B."""
    p = draw(st.sampled_from(TINY_PRIMES))
    res, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    db = draw(st.integers(2, 7))
    B = [draw(unit)] + draw(st.lists(res, min_size=db, max_size=db))
    Q = [draw(unit)] + draw(st.lists(res, max_size=4))
    R = draw(st.lists(res, max_size=db - 1))
    A = poly_mul(B, Q)
    A[len(A) - len(R):] = [a + r for a, r in zip(A[len(A) - len(R):], R)]
    return tuple(BinaryForm(len(c) - 1, [ModP(x, p) for x in c]) for c in (A, B))


@given(euclid_drops())
def test_engine_matches_sylvester_mod_tiny_primes_on_degree_drops(ab):
    a, b = ab
    assert_engine_matches(a, b, ModP)
    assert_engine_matches(b, a, ModP)


@st.composite
def remainder_cases(draw):
    """(p, a, b, q, r) low-to-high residues with a = b q + r mod p, lc(b)
    nonzero and deg r < deg b: q empty makes deg a < deg b, r zero an
    exact multiple, and sparse r a cascade of leading zeros."""
    p = draw(st.sampled_from(TINY_PRIMES))
    sparse = st.one_of(st.just(0), st.integers(0, p - 1))
    b = draw(st.lists(sparse, max_size=7)) + [draw(st.integers(1, p - 1))]
    q = draw(st.lists(st.integers(0, p - 1), max_size=5))
    r = poly_trim(draw(st.lists(sparse, max_size=len(b) - 1)))
    a = [0] * max(len(b) + len(q) - 1, len(r))
    for i, x in enumerate(poly_mul(b, q)):
        a[i] += x
    for i, x in enumerate(r):
        a[i] += x
    return p, poly_trim([c % p for c in a]), b, poly_trim(q), r


@given(remainder_cases())
def test_rem_mod_matches_long_division(case):
    p, a, b, q, r = case
    bits = _slot_bits(p, max(len(a), len(b)) - 1)
    seq = _euclid_mod(_pack(a[::-1], bits), len(a) - 1, _pack(b[::-1], bits), len(b) - 1, p, bits, p - 1)
    # a mod b is the third member of the sequence, unlisted when it is zero
    d, lc, R = seq[2] if len(seq) > 2 else (-1, 0, 0)
    got = _unpack(R, d + 1, p, bits)[::-1]
    assert got == field_divmod(a, b, p)[1] == r
    assert (d, lc) == (len(r) - 1, r[-1] if r else 0)
    if not q:
        assert got == a


@given(st.sampled_from(TINY_PRIMES).flatmap(lambda p: st.tuples(
    st.just(p), *[st.lists(st.integers(0, p - 1), max_size=5)] * 3)))
def test_euclid_mod_finds_the_common_factor(case):
    # the last entry of Euclid's sequence is gcd(a, b), which g divides
    p, g, u, v = case
    a, b = poly_trim([c % p for c in poly_mul(g, u)]), poly_trim([c % p for c in poly_mul(g, v)])
    bits = _slot_bits(p, max(len(a), len(b)) - 1)
    d, _, G = _euclid_mod(_pack(a[::-1], bits), len(a) - 1, _pack(b[::-1], bits), len(b) - 1, p, bits, p - 1)[-1]
    if a or b:
        assert d >= len(poly_trim(g)) - 1
        if any(g):
            assert exact_quotient(_unpack(G, d + 1, p, bits)[::-1], g, p) is not None


# the packed kernel at every width it meets: tiny fields (frequent zeros
# and degree drops), the certificate's largest prime, and 2**62 + 135
KERNEL_PRIMES = (3, 5, 7, 397, 10007, P62)


@st.composite
def kernel_cases(draw):
    """(p, a, b, m, a_slots, b_slots): residue lists a, b (low-to-high, up
    to degree 46, a trimmed) and their packing slots for ``_euclid_mod``,
    each a representative c + p t <= m of its residue.  Zeros are common,
    so leading coefficients vanish after a step.  m is p - 1 (reduced
    slots) or the largest slot value, which forces a reduction before the
    first step.  One case in two is a long quotient: a of degree 46 is
    b q + r with b of degree 1 or 2."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    sparse = st.one_of(st.just(0), st.integers(0, p - 1))
    if draw(st.booleans()):
        b = draw(st.lists(sparse, min_size=1, max_size=2)) + [draw(st.integers(1, p - 1))]
        q = draw(st.lists(sparse, min_size=47 - len(b), max_size=47 - len(b))) + [draw(st.integers(1, p - 1))]
        r = draw(st.lists(sparse, max_size=len(b) - 1))
        a = poly_mul(b, q)
        a[:len(r)] = [x + y for x, y in zip(a, r)]
        a = [c % p for c in a]
    else:
        a, b = poly_trim(draw(st.lists(sparse, max_size=47))), draw(st.lists(sparse, max_size=47))
    bits = _slot_bits(p, max(len(a), len(b)) - 1)
    m = draw(st.sampled_from((p - 1, (1 << bits) - 1)))
    lift = st.integers(0, (m - p + 1) // p)
    a_slots = [c + p * draw(lift) for c in a]
    b_slots = [c + p * draw(lift) for c in b]
    return p, a, b, m, a_slots, b_slots


def reference_sequence(a, b, p):
    """Euclid's remainder sequence by schoolbook division: a, then b and
    each remainder up to the first zero (not listed) or a constant."""
    seq, prev, cur = [poly_trim(list(a))], a, poly_trim(list(b))
    while cur:
        seq.append(cur)
        if len(cur) == 1:
            break
        prev, cur = cur, field_divmod(prev, cur, p)[1]
    return seq


@given(kernel_cases())
def test_euclid_mod_and_gcd_match_the_reference_sequence(case):
    p, a, b, m, a_slots, b_slots = case
    bits = _slot_bits(p, max(len(a), len(b)) - 1)
    seq = _euclid_mod(_pack(a_slots[::-1], bits), len(a) - 1, _pack(b_slots[::-1], bits), len(b) - 1, p, bits, m)
    got = [(d, lc, _unpack(R, d + 1, p, bits)[::-1]) for d, lc, R in seq]
    assert got == [(len(r) - 1, r[-1] if r else 0, r) for r in reference_sequence(a, b, p)]


@pytest.mark.parametrize("p", [3, 139, P62])
def test_slot_bits_are_whole_bytes_above_the_slot_bound(p):
    for n in range(60):
        b = _slot_bits(p, n)
        assert b % 8 == 0 and b >= ((n + 1) ** 2 * p**6).bit_length() + 64


@given(st.sampled_from([3, 139, P62]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=48))))
def test_pack_round_trips_through_unpack(case):
    p, cs = case
    b = _slot_bits(p, len(cs) - 1)
    X = _pack(cs, b)
    assert _unpack(X, len(cs), p, b) == cs
    # the leading coefficient sits in the lowest slot, read off the bytes
    assert int.from_bytes(X.to_bytes(len(cs) * b // 8, byteorder="little")[:b // 8], byteorder="little") == cs[0]


@settings(max_examples=40)
@given(st.sampled_from(KERNEL_PRIMES).flatmap(lambda p: st.tuples(
    forms(sparse_residues(p), max_degree=46), forms(sparse_residues(p), max_degree=3))))
def test_engine_matches_sylvester_mod_p_up_to_degree_46(fg):
    # the Sylvester matrix stays below 50 rows, so Bareiss stays quick
    assert_engine_matches(*fg, ModP)
    assert_engine_matches(*fg[::-1], ModP)


@given(st.integers(1, 3).flatmap(lambda k: forms(small_ints, w_power=k)), forms(small_ints, min_degree=1))
def test_engine_infinity_place_w_divides_f(f, g):
    assert_engine_matches(f, g, int)
    assert_engine_matches(f.reduce_mod(101), g.reduce_mod(101), ModP)


@given(forms(small_ints, min_degree=1), st.integers(1, 3).flatmap(lambda k: forms(small_ints, w_power=k)))
def test_engine_infinity_place_w_divides_g(f, g):
    assert_engine_matches(f, g, int)
    assert_engine_matches(f.reduce_mod(101), g.reduce_mod(101), ModP)


@given(forms(st.one_of(small_ints, fractions), w_power=1), forms(small_ints, w_power=1))
def test_engine_infinity_place_w_divides_both(f, g):
    assert resultant(f, g) == 0 == sylvester_resultant(f, g)


@given(forms(small_ints, max_degree=1), forms(st.one_of(small_ints, fractions), max_degree=1),
       forms(small_ints, max_degree=1))
def test_engine_zero_and_low_degree_forms(f, g, h):
    assert resultant(f, g) == sylvester_resultant(f, g)
    fp, hp = f.reduce_mod(101), h.reduce_mod(101)
    assert resultant(fp, hp) == sylvester_resultant(fp, hp)


def test_engine_zero_and_constant_forms_pinned():
    zero3, c2 = BinaryForm.zero(3), BinaryForm(0, [5])
    g = BinaryForm(2, [1, 2, 3])
    assert resultant(zero3, g) == 0 and resultant(g, zero3) == 0
    assert resultant(c2, g) == 25 and resultant(g, c2) == 25
    assert resultant(c2, BinaryForm(0, [7])) == 1


@given(st.one_of(small_ints, big_ints), st.one_of(small_ints, big_ints))
def test_discriminant_cubic_scalar_property(p, q):
    f = BinaryForm(3, [1, 0, p, q])
    assert discriminant_binary(f) == 3 * (4 * p**3 + 27 * q**2) == sylvester_resultant(*f.partials())
    assert discriminant_binary(f.reduce_mod(P62)) == ModP(3 * (4 * p**3 + 27 * q**2), P62)


def test_discriminant_mod_a_prime_dividing_a_partial_multiplier():
    # df/dw has coefficients (i + 1) a_(i+1); with a_1 = ... = a_(p-1) = 0
    # its first nonzero int slot is p a_p, which is 0 mod p, so the partials
    # must be reduced before the place at infinity is read off them
    rng = random.Random(3)
    for p in (3, 5, 7):
        for n in range(p, 13):
            c = [rng.randint(-9, 9) for _ in range(n + 1)]
            c[1:p] = [0] * (p - 1)
            f = BinaryForm(n, c)
            assert discriminant_binary(f.reduce_mod(p)) == ModP(discriminant_binary(f), p)


def test_discriminant_is_the_sylvester_resultant_of_the_partials():
    rng = random.Random(11)
    P = 2**62 + 135
    for n in range(2, 7):
        for _ in range(3):
            f = rand_form(rng, n)
            # for n < 7, 7 stays in df/dx's denominators and 11 in df/dw's
            middle = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n - 1)]
            fq = BinaryForm(n, [Fraction(rng.randint(1, 9), 7)] + middle + [Fraction(rng.randint(1, 9), 11)])
            for g in (f, fq, f.reduce_mod(139), f.reduce_mod(P)):
                got, want = discriminant_binary(g), sylvester_resultant(*g.partials())
                assert want != 0 and got == want and type(got) is type(want), g
    for n in range(2, 7):
        # x^n and w^n: one partial is zero
        for coeffs in ([1] + [0] * n, [0] * n + [1]):
            f = BinaryForm(n, coeffs)
            for g, zero in ((f, 0), (BinaryForm(n, [Fraction(c) for c in coeffs]), Fraction(0)),
                            (f.reduce_mod(139), ModP(0, 139)), (f.reduce_mod(P), ModP(0, P))):
                got = discriminant_binary(g)
                assert got == zero and type(got) is type(zero), g
    for f in (BinaryForm(0, [3]), BinaryForm(1, [1, 2]), BinaryForm(1, [Fraction(1, 2), 0])):
        with pytest.raises(ValueError):
            discriminant_binary(f)


def test_zero_resultant_is_the_zero_of_the_coefficient_domain():
    # g2 = 7 * (...) vanishes mod 7, so r96 is the zero of F_7, not int 0
    u = SurfaceParams([7] * 9, range(1, 14)).reduce_mod(7)
    rv = r96(u).value
    assert isinstance(rv, ModP) and rv == ModP(0, 7)
    zero2 = BinaryForm.zero(2)
    assert resultant(zero2, BinaryForm(1, [ModP(1, 7), ModP(3, 7)])) == ModP(0, 7)
    assert type(resultant(zero2, BinaryForm(1, [Fraction(1, 2), 1]))) is Fraction
    assert type(resultant(zero2, BinaryForm(1, [1, 2]))) is int


def test_resultants_ints_is_the_engine_entry_on_plain_ints():
    """resultants_ints on coefficient lists of declared degrees gives the
    resultants of the int forms over Z, and mod p, on representatives
    shifted by multiples of p (negative ones too), the residues in [0, p)
    of the reduced forms' resultants; a form that is zero (mod p) gives 0."""
    rng = random.Random(17)
    P = 2**62 + 135
    for m, n in ((8, 12), (24, 18), (0, 3), (2, 0)):
        f, g = rand_form(rng, m), rand_form(rng, n)
        assert resultants_ints([(f.coeffs, g.coeffs)]) == [resultant(f, g)]
        for p in (139, P):
            shifted = [c + rng.randint(-3, 3) * p for c in f.coeffs]
            [got] = resultants_ints([(shifted, g.coeffs)], p)
            assert type(got) is int and 0 <= got < p and got == resultant(f.reduce_mod(p), g.reduce_mod(p))
    assert resultants_ints([([0, 0], [1, 2])]) == [0] == resultants_ints([([139, -278], [1, 2])], 139)


# 4099 is the first prime above INVERSE_TABLE_BOUND: below it a round's
# inverses are table reads, from it on Montgomery's trick
ENTRY_MODULI = (0, 139, 4099, P62)


def batch_pairs(rng):
    """High-to-low int coefficient lists (a, b) for one engine call, one of
    each kind the entry and the kernel tell apart: the invariants' (8, 12)
    and (24, 18) pairs, w dividing one form or both, a zero form, a degree-0
    form, a shared factor, and a remainder two or more degrees below its
    divisor; each pair also swapped."""
    def form(n, lead=True):
        return [rng.randint(1, 9)] * lead + [rng.randint(-9, 9) for _ in range(n + 1 - lead)]

    common = form(2)
    divisor, quotient, rest = form(6), form(2), form(3)  # deg rest = deg divisor - 3
    dividend = poly_mul(divisor, quotient)
    dividend[-len(rest):] = [x + y for x, y in zip(dividend[-len(rest):], rest)]
    pairs = [
        (form(8), form(12)),
        (form(24), form(18)),
        ([0, 0] + form(6), form(5)),  # w^2 divides a
        (form(4), [0] + form(6)),  # w divides b
        ([0] + form(3), [0, 0] + form(2)),  # w divides both: 0
        ([0] * 5, form(3)),  # a zero form: 0
        ([rng.randint(1, 9)], form(3)),  # degree 0
        (form(5), [rng.randint(1, 9)]),
        (poly_mul(common, form(3)), poly_mul(common, form(4))),  # a shared factor: 0
        (dividend, divisor),
    ]
    return pairs + [(b, a) for a, b in pairs]


@pytest.mark.parametrize("p", ENTRY_MODULI)
def test_a_batch_is_its_pairs_one_at_a_time_and_sylvester(p):
    """One engine call on a batch that mixes every kind of pair gives, pair
    by pair, the value of a one-pair call and of the Sylvester determinant
    (reduced mod p); the mod-p pairs run Euclid in lock-step, and their
    sequences end at different rounds."""
    for seed in range(3):
        pairs = batch_pairs(random.Random(seed))
        got = resultants_ints(pairs, p)
        assert got == [resultants_ints([pair], p)[0] for pair in pairs]
        want = [sylvester_resultant(BinaryForm(len(a) - 1, a), BinaryForm(len(b) - 1, b)) for a, b in pairs]
        assert got == [v % p if p else v for v in want]
        assert got[4] == got[5] == got[8] == 0 != got[0] * got[1] * got[9]


@pytest.mark.parametrize("p", ENTRY_MODULI)
def test_an_empty_batch_gives_no_values(p):
    assert resultants_ints([], p) == []


@settings(max_examples=40)
@given(st.sampled_from((3, 7) + ENTRY_MODULI[1:]).flatmap(lambda p: st.tuples(st.just(p), st.lists(
    st.tuples(forms(sparse_residues(p), max_degree=9), forms(sparse_residues(p), max_degree=9)), max_size=6))))
def test_a_batch_of_sparse_residue_forms_matches_sylvester(case):
    # sparse forms over small fields: degree drops and zero remainders at
    # every round of the lock-step
    p, fgs = case
    got = resultants_ints([([c.v for c in f.coeffs], [c.v for c in g.coeffs]) for f, g in fgs], p)
    assert got == [sylvester_resultant(f, g).v if not (f.is_zero() or g.is_zero()) else 0 for f, g in fgs]


@pytest.mark.parametrize("p", [139, INVERSE_TABLE_BOUND + 3, P62])
def test_negated_inverses_of_a_round(p):
    rng = random.Random(p)
    xs = [rng.randint(1, p - 1) for _ in range(20)] + [1, p - 1]
    assert [x * y % p for x, y in zip(xs, _negated_inverses(xs, p))] == [p - 1] * len(xs)
    assert _negated_inverses([], p) == []


# -- univariate division against schoolbook long division -------------


@st.composite
def division_cases(draw, coeff):
    """(a, b) low-to-high with a = b q + r for drawn q and r, r either
    zero (an exact division, on ints all the way) or of any degree."""
    b = draw(st.lists(coeff, min_size=1, max_size=6).filter(any))
    q = draw(st.lists(coeff, max_size=6))
    r = draw(st.lists(coeff, max_size=8) | st.just([]))
    a = [0] * max(len(b) + len(q) - 1, len(r))
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            a[i + j] += x * y
    for i, x in enumerate(r):
        a[i] += x
    return a, b


@given(division_cases(st.one_of(small_ints, big_ints)))
def test_exact_quotient_over_z_by_primitive_divisors(ab):
    """Gauss's lemma: a primitive b divides an integer a over Q exactly
    when the long division over Z is exact at every step."""
    a, b = ab
    assume(gcd(*b) == 1)
    q, r = field_divmod(a, b, 0)
    got = exact_quotient(a, b)
    assert got == (None if r else q)
    assert got is None or all(type(c) is int for c in got)


@given(division_cases(fractions))
def test_exact_quotient_of_primitive_parts_over_q(ab):
    """Over Q, b divides a exactly when b's primitive part divides a's on
    ints, and the quotients agree up to a rational scale."""
    a, b = ab
    q, r = field_divmod(a, b, 0)
    got = exact_quotient(poly_primitive(a), poly_primitive(b))
    assert (got is None) == bool(r)
    if got:
        assert [c * got[-1] for c in q] == [c * q[-1] for c in got]


@given(division_cases(small_ints), st.sampled_from(TINY_PRIMES))
def test_exact_quotient_mod_p_matches_long_division(ab, p):
    a, b = ab
    assume(any(c % p for c in b))
    q, r = field_divmod(a, b, p)
    assert exact_quotient(a, b, p) == (None if r else q)


def test_exact_quotient_stops_at_the_first_inexact_step():
    # (2x + 1) x over 2x + 1 is exact, and over the non-primitive 4x + 2
    # only over Q: the first step over Z, 2 / 4, is not exact
    assert exact_quotient([0, 1, 2], [1, 2]) == [0, 1]
    assert exact_quotient([0, 1, 2], [2, 4]) is None
    assert exact_quotient([1, 1, 2], [1, 2]) is None  # remainder 1
    assert exact_quotient([], [3]) == []


# -- the one long division ---------------------------------------------


@given(division_cases(st.one_of(small_ints, big_ints)), st.sampled_from(TINY_PRIMES + (P62,)))
def test_poly_divmod_mod_p_matches_long_division(ab, p):
    """Non-monic divisors with unreduced entries: the quotient and
    remainder of schoolbook long division mod p."""
    a, b = ab
    assume(any(c % p for c in b))
    assert poly_divmod(a, b, p) == field_divmod(a, b, p)


@given(division_cases(small_ints), st.sampled_from(TINY_PRIMES),
       st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_poly_divmod_mod_p_drops_leading_entries_that_vanish(ab, p, tops):
    # b padded with multiples of p divides as b itself does
    a, b = ab
    assume(any(c % p for c in b))
    padded = b + [p * t for t in tops]
    assert poly_divmod(a, padded, p) == field_divmod(a, b, p)


@given(st.sampled_from([(2, 62), (3, 20), (5, 6), (7, 1)]).flatmap(lambda pk: st.tuples(
    st.just(pk[0] ** pk[1]),
    st.lists(st.integers(-2**130, 2**130), max_size=12),
    st.lists(st.integers(-2**70, 2**70), max_size=5),
    st.integers(-3, 3))))
def test_poly_divmod_mod_prime_power_by_a_monic_divisor(case):
    """Mod p^k, as the Hensel lift divides, by b with lc(b) = 1 mod p^k and
    unreduced entries: a = q b + r mod p^k, deg r < deg b, both reduced
    and trimmed."""
    m, a, tail, t = case
    b = tail + [1 + m * t]
    q, r = poly_divmod(a, b, m)
    assert len(r) < len(b) and all(0 <= c < m for c in q + r)
    assert (not q or q[-1]) and (not r or r[-1])
    rebuilt = poly_mul(q, b) if q else []
    rebuilt += [0] * (len(a) - len(rebuilt))
    for i, c in enumerate(r):
        rebuilt[i] += c
    assert poly_trim([c % m for c in rebuilt]) == poly_trim([c % m for c in a])


@given(division_cases(st.one_of(small_ints, big_ints)), st.sampled_from([-1, 1]))
def test_poly_divmod_over_z_by_a_unit_leading_coefficient(ab, unit):
    # every leading division is exact, so Z gives Q's quotient and remainder
    a, b = ab
    b = b + [unit]
    assert poly_divmod(a, b) == field_divmod(a, b, 0)


@pytest.mark.parametrize("b, m", [([], 0), ([0, 0], 0), ([], 7), ([7, -14, 21], 7), ([0, P62], P62)])
def test_division_by_zero_raises(b, m):
    # a divisor that is zero, or zero mod m
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2, 3], b, m)
    with pytest.raises(ZeroDivisionError):
        exact_quotient([1, 2, 3], b, m)


def test_poly_monic_scales_by_the_inverse_leading_coefficient():
    assert poly_monic([1, 2, 3], 7) == [5, 3, 1]  # 1/3 = 5 mod 7
    assert poly_monic([-4, 0, -1], 139) == [4, 0, 1]
    assert poly_monic([3, 2], 5**6) == [7814, 1]  # 1/2 = 7813 mod 5^6


# -- the factorization against the PRS engine --------------------------


@st.composite
def factored_forms(draw):
    """(f, unit, w-power, [(monic dense factor, multiplicity)]) with
    f = c * w^e0 * prod L_i^e_i * (x^2 + k w^2)^e, the L_i distinct monic
    linear forms x - r w, k > 0, and degree f <= 12."""
    c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool))
    e0 = draw(st.integers(0, 3))
    roots = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                          max_size=4, unique=True))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    k = draw(st.integers(1, 9))
    e = draw(st.integers(0, 2))
    factors = [([-r, 1], m) for r, m in zip(roots, mults)]
    if e:
        factors.append(([k, 0, 1], e))
    total = e0 + sum((len(d) - 1) * m for d, m in factors)
    assume(total <= 12)
    f = BinaryForm(0, [c]) * BinaryForm.monomial(e0, e0)
    for dense, m in factors:
        f = f * BinaryForm.homogenize(dense, len(dense) - 1) ** m
    return f, c, e0, factors


@given(factored_forms())
def test_factorization_rebuilds_constructed_form(case):
    f, c, e0, built = case
    unit, factors = gcd_and_squarefree(f)
    rebuilt = BinaryForm(0, [unit])
    for fac, mult in factors:
        rebuilt = rebuilt * fac**mult
    assert rebuilt == f
    want = sorted([(1, e0)] * bool(e0) + [(len(d) - 1, m) for d, m in built])
    assert sorted((fac.n, m) for fac, m in factors) == want
    assert unit == c
    # distinct places are coprime, and no place has a repeated root
    for i, (a, _) in enumerate(factors):
        for b, _ in factors[i + 1:]:
            assert resultant(a, b) != 0
        if a.n >= 2:
            assert discriminant_binary(a) != 0
    assert (BinaryForm.monomial(1, 1) in [fac for fac, _ in factors]) == bool(e0)


@given(factored_forms())
def test_squarefree_parts_are_coprime_squarefree_and_multiply_back(case):
    f, _, _, _ = case
    dense, _ = f.dehomogenize()
    parts = squarefree_decomposition(dense)
    sq_forms = [(BinaryForm.homogenize(a, len(a) - 1), m) for a, m in parts]
    product = BinaryForm(0, [1])
    for form, m in sq_forms:
        assert form.n >= 1
        if form.n >= 2:
            assert discriminant_binary(form) != 0
        product = product * form**m
    for i, (a, _) in enumerate(sq_forms):
        for b, _ in sq_forms[i + 1:]:
            assert resultant(a, b) != 0
    assert len({m for _, m in parts}) == len(parts)
    assert product == BinaryForm.homogenize(poly_primitive(dense), len(dense) - 1)
