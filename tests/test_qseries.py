import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellk3.qseries import QSeries, borcherds_input, eisenstein
from reference import borcherds_reference, fraction_reciprocal, schoolbook_product

# 1728 E4 / (E4^3 - E6^2) = q^-1 + 264 + 8244 q + 139520 q^2 + ... (frozen)
BORCHERDS_HEAD = [1, 264, 8244, 139520, 1672290, 15872256]


def test_sigma_divisor_sums():
    # the divisor sieve inside eisenstein against trial division
    def sigma(n, k):
        return sum(d**k for d in range(1, n + 1) if n % d == 0)

    assert eisenstein(4, 200).coeffs == [1] + [240 * sigma(n, 3) for n in range(1, 201)]
    assert eisenstein(6, 200).coeffs == [1] + [-504 * sigma(n, 5) for n in range(1, 201)]


def test_eisenstein_heads():
    e4 = eisenstein(4, 4)
    assert [e4[k] for k in range(5)] == [1, 240, 2160, 6720, 17520]
    e6 = eisenstein(6, 4)
    assert [e6[k] for k in range(5)] == [1, -504, -16632, -122976, -532728]


def test_eisenstein_rejects_other_weights():
    with pytest.raises(ValueError):
        eisenstein(8, 4)


def test_eisenstein_rejects_negative_order():
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        eisenstein(4, -1)


def test_repr_past_the_digit_limit():
    # str(int) stops at the interpreter's digit limit; the repr must not
    text = repr(QSeries(0, [10**5000, 1], 1))
    assert text == "QSeries(1" + "0" * 5000 + " + 1*q + O(q^2))"


def test_qseries_indexing_and_truncation_guard():
    f = QSeries(-1, [1, 2, 3], 1)
    assert f[-1] == 1 and f[0] == 2 and f[1] == 3
    assert f[-5] == 0  # below the window: genuinely zero
    with pytest.raises(IndexError):
        f[2]  # beyond the truncation: unknown, not zero


def test_leading_zero_normalization():
    f = QSeries(-2, [0, 0, 5, 7], 1)
    assert f.e0 == 0 and f.coeffs == [5, 7]


def test_window_consistency_enforced():
    with pytest.raises(ValueError):
        QSeries(0, [1, 2], 5)


def test_arithmetic_mod_high_terms():
    # (1 + q)(1 - q) = 1 - q^2
    one_p = QSeries(0, [1, 1] + [0] * 9, 10)
    one_m = QSeries(0, [1, -1] + [0] * 9, 10)
    prod = one_p * one_m
    assert [prod[k] for k in range(4)] == [1, 0, -1, 0]


def test_multiplication_truncation_is_conservative():
    # a Laurent factor shrinks the reliable window: the q^N coefficient of
    # the product would need the unknown q^(N+1) term of the other factor
    f = QSeries(-1, [1] + [0] * 5, 4)
    g = QSeries(0, [1] * 5, 4)
    assert (f * g).N == 3


def test_truncate_below_the_leading_exponent_is_zero():
    assert QSeries(5, [1, 2], 6).truncate(3) == QSeries.zero(3)
    assert QSeries.zero(4).truncate(2) == QSeries.zero(2)
    assert QSeries(5, [1, 2], 6).truncate(5) == QSeries(5, [1], 5)
    assert QSeries(-1, [1, 2], 0).truncate(-2) == QSeries.zero(-2)


# coefficients for the packed product: small and 40-digit signed ints,
# values at or one off a power of 2^8 (the ends of a slot byte), and Fractions
INTS = st.one_of(
    st.integers(-9, 9),
    st.integers(-10**40, 10**40),
    st.builds(lambda k, d, sign: sign * ((1 << 8 * k) + d),
              st.integers(1, 17), st.sampled_from((-1, 0, 1)), st.sampled_from((-1, 1))),
)
FRACTIONS = st.fractions(max_denominator=10**6)


def _series(coeff):
    # blocks of a coefficient followed by a run of zeros, cut to 1..40 terms
    blocks = st.lists(st.tuples(coeff, st.integers(0, 12)), min_size=1, max_size=20)
    terms = blocks.map(lambda bs: [x for c, z in bs for x in [c] + [0] * z][:40])
    return st.builds(lambda e0, cs: QSeries(e0, cs, e0 + len(cs) - 1), st.integers(-3, 3), terms)


def _nonzero(f):
    return not f.is_zero()


@settings(max_examples=300, deadline=None)
@given(_series(INTS).filter(_nonzero), _series(INTS).filter(_nonzero))
@example(QSeries(0, [1], 0), QSeries(0, [-1], 0))
@example(QSeries(-3, [255, -256, 257] + [0] * 30 + [-(1 << 64) + 1], 30),
         QSeries(3, [1 << 64, 0, -255], 5))
def test_packed_product_matches_schoolbook_on_ints(f, g):
    prod = f * g
    assert prod == schoolbook_product(f, g)
    assert all(type(c) is int for c in prod.coeffs)


@settings(max_examples=100, deadline=None)
@given(_series(st.one_of(FRACTIONS, INTS)).filter(_nonzero),
       st.one_of(_series(FRACTIONS), _series(INTS)).filter(_nonzero))
@example(QSeries(0, [Fraction(1, 3), Fraction(-2, 3)], 1), QSeries(-1, [Fraction(3, 2), 0, 7], 1))
def test_packed_product_matches_schoolbook_on_fractions(f, g):
    assert f * g == schoolbook_product(f, g) == g * f


def test_product_with_the_zero_series():
    f = QSeries(-1, [1, 2, 3], 1)
    assert f * QSeries.zero(4) == QSeries.zero(1)
    assert QSeries.zero(0) * f == QSeries.zero(0)


def test_reciprocal_roundtrip():
    rng = random.Random(0)
    coeffs = [1] + [rng.randint(-9, 9) for _ in range(10)]
    f = QSeries(0, coeffs, 10)
    prod = f * f.reciprocal()
    assert prod.e0 == 0 and prod.coeffs[0] == 1
    assert all(c == 0 for c in prod.coeffs[1:])


def test_reciprocal_of_unit_leader_stays_on_ints():
    rng = random.Random(3)
    for lead in (1, -1):
        for e0 in (-2, 0, 3):
            f = QSeries(e0, [lead] + [rng.randint(-99, 99) for _ in range(20)], e0 + 20)
            g = f.reciprocal()
            assert all(type(c) is int for c in g.coeffs)
            assert g == fraction_reciprocal(f)
            prod = f * g
            assert prod.e0 == 0 and prod.coeffs == [1] + [0] * prod.N


def test_reciprocal_of_integer_leader_matches_the_fraction_recurrence():
    """The recurrence scaled by powers of the leader, after the integer
    content is split off, gives exactly the Fractions that dividing by the
    leader at every step gives (same values, same types): on integer
    series with leaders 2, -3 and 1728, on E4^3 - E6^2 (leader and content
    1728), on a leader 6 with content 2 and on 2 + 3q (content 1)."""
    rng = random.Random(5)
    cases = [QSeries(e0, [lead] + [rng.randint(-99, 99) for _ in range(25)], e0 + 25)
             for lead in (2, -3, 1728) for e0 in (-1, 0, 2)]
    cases += [
        eisenstein(4, 40) ** 3 - eisenstein(6, 40) ** 2,
        QSeries(-1, [6] + [2 * rng.randint(-99, 99) for _ in range(25)], 24),
        QSeries(0, [2, 3], 1),
    ]
    for f in cases:
        g, want = f.reciprocal(), fraction_reciprocal(f)
        assert (g.e0, g.N, repr(g.coeffs)) == (want.e0, want.N, repr(want.coeffs))


def test_reciprocal_of_laurent_leader():
    f = QSeries(-1, [1, 2, 3], 1)
    g = f.reciprocal()
    assert g.e0 == 1
    prod = f * g
    assert prod[0] == 1


def test_zero_reciprocal_raises():
    with pytest.raises(ZeroDivisionError):
        QSeries.zero(5).reciprocal()


def test_pow_matches_repeated_mul():
    f = QSeries(0, [1, 1, 0, 2, 0, 0], 5)
    assert f**3 == f * f * f
    assert f**0 == QSeries.one(5)
    with pytest.raises(ValueError):
        f ** (-1)


def test_series_operators_agree():
    f = QSeries(0, [1, 1, 1], 2)
    assert f ** 2 == f * f
    assert (f * f) / f == f
    assert f / f == f * f.reciprocal()


def test_borcherds_input_head_frozen():
    b = borcherds_input(4)
    assert b.e0 == -1
    assert [b[k] for k in range(-1, 5)] == BORCHERDS_HEAD
    assert all(Fraction(c).denominator == 1 for c in b.coeffs)


def test_borcherds_input_truncation_consistency():
    assert borcherds_input(2) == borcherds_input(10).truncate(2)


def test_borcherds_input_satisfies_defining_equation():
    N = 12
    b = borcherds_input(N)
    e4 = eisenstein(4, N + 2)
    e6 = eisenstein(6, N + 2)
    lhs = b * (e4**3 - e6**2)
    rhs = 1728 * e4
    upto = lhs.N
    assert all(lhs[k] == rhs[k] for k in range(0, upto + 1))


def test_borcherds_input_matches_fraction_reference():
    b = borcherds_input(150)
    ref = borcherds_reference(150)
    assert (b.e0, b.N) == (ref.e0, ref.N) == (-1, 150)
    assert len(b.coeffs) == len(ref.coeffs)
    assert all(x == y for x, y in zip(b.coeffs, ref.coeffs))
    assert all(type(c) is int for c in b.coeffs)
