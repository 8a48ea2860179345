import random
from fractions import Fraction

import pytest

from ellk3.multipoly import MultiPoly
from ellk3.scalars import DomainError, ModP

V = ("x", "w")


def x_w():
    return MultiPoly.variable("x", V), MultiPoly.variable("w", V)


def rand_poly(rng, vars=V, nterms=5, maxexp=4, bound=9):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxexp) for _ in vars)
        terms[e] = rng.randint(-bound, bound)
    return MultiPoly(vars, terms)


def test_difference_of_squares():
    x, w = x_w()
    assert (x + w) * (x - w) == x * x - w * w


def test_additive_identity():
    rng = random.Random(0)
    f = rand_poly(rng)
    assert f + MultiPoly.zero(V) == f
    # comparison with a nonzero scalar reads the constant term
    x, _ = x_w()
    assert MultiPoly.constant(5, V) == 5 and MultiPoly.constant(-3, V) == -3
    assert MultiPoly.constant(5, V) != 4 and x + 5 != 5


def test_rational_normalization():
    x, w = x_w()
    p = (Fraction(3, 2) * x) * (Fraction(2, 3) * w)
    assert p == x * w
    ((exp, c),) = p.terms.items()
    assert c == 1 and isinstance(c, Fraction) and c.denominator == 1


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_variable_list_mismatch():
    x, _ = x_w()
    y = MultiPoly.variable("y", ("y", "z"))
    with pytest.raises(DomainError):
        x + y
    with pytest.raises(DomainError):
        x * y


def test_no_zero_terms_stored():
    x, w = x_w()
    p = (x + w) - x - w
    assert not p.terms and p == 0


def test_modp_domain_mixing_is_an_error():
    with pytest.raises(DomainError):
        ModP(1, 7) + Fraction(1, 2)
    with pytest.raises(DomainError):
        ModP(1, 7) * ModP(1, 11)


def test_sorted_terms_deterministic():
    x, w = x_w()
    p = x * x + w * w * w + x * w
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(0, 3), (2, 0), (1, 1)]  # graded-lex, descending
