import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ellk3.binforms import BinaryForm
from ellk3.invariants import check_modulus
from ellk3.scalars import (
    DomainError,
    PRIME_BOUND,
    InexactDivision,
    ModP,
    exact_scalar_div,
    is_prime,
    reduce_scalar_mod,
    scalar_from_str,
    scalar_to_str,
)
from ellk3.weierstrass import SurfaceParams


def test_modp_field_arithmetic():
    p = 101
    a, b = ModP(45, p), ModP(77, p)
    assert (a + b).v == (45 + 77) % p
    assert (a - b).v == (45 - 77) % p
    assert (a * b).v == 45 * 77 % p
    assert (a / b) * b == a
    assert a ** (p - 1) == ModP(1, p)
    assert a ** (-1) * a == ModP(1, p)
    assert -a + a == ModP(0, p)


def test_modp_int_mixing_allowed():
    a = ModP(3, 7)
    assert a + 11 == ModP(0, 7)
    assert 2 * a == ModP(6, 7)


# residues mod two primes, and ints and Fractions on both sides of [0, p)
_EQ_SAMPLES = st.one_of(
    st.builds(ModP, st.integers(-300, 300), st.sampled_from([7, 139])),
    st.integers(-300, 300),
    st.builds(Fraction, st.integers(-300, 300), st.integers(1, 3)),
)


@given(_EQ_SAMPLES, _EQ_SAMPLES)
@example(ModP(1, 139), 1)
@example(ModP(1, 139), 140)
@example(ModP(1, 7), ModP(1, 139))
def test_modp_equality_agrees_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (b == a)


def test_modp_equals_only_its_canonical_int():
    assert ModP(1, 139) == 1 == ModP(140, 139) and 1 == ModP(1, 139)
    assert ModP(1, 139) != 140 and ModP(138, 139) != -1 and -1 != ModP(138, 139)
    assert ModP(0, 7) == 0 and ModP(0, 7) != 7
    # surfaces over Z and their reductions are equal exactly when every
    # coefficient already lies in [0, p), and then hash alike
    u = SurfaceParams(range(9), range(13))
    assert u == u.reduce_mod(139) and hash(u) == hash(u.reduce_mod(139))
    assert SurfaceParams([-1] * 9, range(13)) != SurfaceParams([-1] * 9, range(13)).reduce_mod(139)


def test_modp_cross_domain_rejected():
    with pytest.raises(DomainError):
        ModP(1, 7) + ModP(1, 11)
    with pytest.raises(DomainError):
        ModP(1, 7) * Fraction(1, 2)


@pytest.mark.parametrize("modulus", [9, 15, 91])
def test_composite_moduli_refused(modulus):
    # reduce_mod and resultant see residues only through ModP, so the one
    # check covers them: F_p must be a field for the mod-p resultant
    for make in (lambda: ModP(1, modulus), lambda: reduce_scalar_mod(5, modulus),
                 lambda: BinaryForm(1, [1, 2]).reduce_mod(modulus),
                 lambda: SurfaceParams(range(9), range(13)).reduce_mod(modulus)):
        with pytest.raises(ValueError, match="modulus must be an odd prime, got %d" % modulus):
            make()
    # a refused modulus stays refused, and a prime is accepted again
    with pytest.raises(ValueError):
        ModP(2, modulus)
    assert ModP(modulus, 139) == ModP(modulus, 139)


def test_modp_division_by_zero():
    # a negative power is a power of the inverse, so 0 ** -1 fails like 1 / 0
    for divide in (lambda: ModP(1, 7) / ModP(0, 7), lambda: ModP(0, 7) ** -1, ModP(0, 7).inverse):
        with pytest.raises(ZeroDivisionError):
            divide()
    assert ModP(3, 7) ** -2 == ModP(3, 7).inverse() ** 2 == ModP(4, 7)


def test_exact_scalar_div():
    assert exact_scalar_div(12, 4) == 3
    assert isinstance(exact_scalar_div(12, 4), int)
    assert exact_scalar_div(Fraction(1, 2), Fraction(3, 4)) == Fraction(2, 3)
    assert exact_scalar_div(ModP(3, 7), 2) == ModP(5, 7)
    with pytest.raises(InexactDivision):
        exact_scalar_div(7, 2)
    with pytest.raises(ZeroDivisionError):
        exact_scalar_div(1, 0)


def test_exact_scalar_div_refuses_mixed_domains():
    # the residue's own division decides, and refuses what it refuses
    for a, b in ((ModP(3, 7), Fraction(1, 2)), (Fraction(1, 2), ModP(3, 7)), (ModP(3, 7), ModP(3, 11))):
        with pytest.raises(DomainError):
            exact_scalar_div(a, b)
    assert exact_scalar_div(2, ModP(3, 7)) == ModP(3, 7)
    assert type(exact_scalar_div(-12, 4)) is int and exact_scalar_div(-12, 4) == -3


def test_reduce_scalar_mod():
    assert reduce_scalar_mod(10, 7) == ModP(3, 7)
    # 1/2 mod 7 = 4
    assert reduce_scalar_mod(Fraction(1, 2), 7) == ModP(4, 7)
    with pytest.raises(ZeroDivisionError):
        reduce_scalar_mod(Fraction(1, 7), 7)


@example(Fraction(-3, 7))
@example(Fraction(4, 2))
@example(-(2**64) - 1)
@given(st.one_of(st.integers(), st.integers(-2**200, 2**200),
                 st.fractions(max_denominator=2**80), st.fractions(max_value=-1)))
def test_scalar_str_roundtrip(x):
    # ints and integral Fractions both come back as int
    y = scalar_from_str(scalar_to_str(x))
    assert y == x
    assert type(y) is (int if x.denominator == 1 else Fraction)


def test_scalar_str_pinned():
    rng = random.Random(0)
    for _ in range(30):
        x = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        assert scalar_from_str(scalar_to_str(x)) == x
    assert scalar_from_str("-3") == -3
    assert isinstance(scalar_from_str("-3"), int)
    assert scalar_to_str(Fraction(4, 2)) == "2"


def test_scalar_to_str_past_the_digit_limit():
    # str(int) stops at the interpreter's digit limit; the text must not
    n = 7**20000
    text = scalar_to_str(-n)
    assert len(text) == 16903 and text.startswith("-9136929735") and text.endswith("00001")
    assert int(Decimal(text)) == -n
    num, den = scalar_to_str(Fraction(n, 3)).split("/")
    assert int(Decimal(num)) == n and den == "3"


@pytest.mark.parametrize(
    "text",
    ["1_0", " 1", "1 ", "+1", "1.0", "1e3", "0x10", "1/2/3", "1/-2", "", "-", "/2",
     "\u0661\u0662", "True", "None"],
)
def test_scalar_from_str_refuses_other_forms(text):
    # only -?digits and -?digits/digits, in ASCII digits
    with pytest.raises(ValueError):
        scalar_from_str(text)


def test_scalar_from_str_forms():
    assert scalar_from_str("10") == 10 and scalar_from_str("-007") == -7
    assert scalar_from_str("-6/4") == Fraction(-3, 2)
    assert reduce_scalar_mod(scalar_from_str("3/2"), 7) == ModP(5, 7)
    with pytest.raises(ZeroDivisionError):
        scalar_from_str("1/0")


# the smallest strong pseudoprimes to the first 12 and to the first 13
# prime bases: 399165290221 * 798330580441 and 1287836182261 * 2575672364521
PSP12 = 318665857834031151167461
PSP13 = 3317044064679887385961981


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(2147483629)
    assert is_prime(4611686018427388039)  # 2**62 + 135, the default slice prime
    assert not is_prime(1) and not is_prime(91) and not is_prime(2147483629 * 3)
    assert not is_prime(PSP12) and PSP12 == 399165290221 * 798330580441
    # exact below PSP13, the bound; above it only a base that divides n decides
    assert PSP13 == PRIME_BOUND == 1287836182261 * 2575672364521
    assert is_prime(3317044064679887385961813)  # the largest prime below it
    assert not is_prime(2 * PSP13)
    for n in (PSP13, 2**89 - 1):
        with pytest.raises(ValueError, match="decided only below %d" % PRIME_BOUND):
            is_prime(n)


def test_moduli_is_prime_cannot_decide_are_refused():
    with pytest.raises(ValueError, match="modulus must be an odd prime, got %d" % PSP12):
        ModP(1, PSP12)
    with pytest.raises(ValueError, match="decided only below %d" % PRIME_BOUND):
        ModP(1, PSP13)


def test_float_moduli_are_refused():
    with pytest.raises(TypeError, match="primality of a float"):
        is_prime(7.0)
    ModP(1, 7)  # 7 is now a known odd prime, which 7.0 must not pass for
    with pytest.raises(TypeError, match="primality of a float"):
        ModP(5, 7.0)
    with pytest.raises(TypeError, match="primality of a float"):
        check_modulus(139.0)
