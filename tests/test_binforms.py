import random
from fractions import Fraction
from math import comb

import pytest

from ellk3.binforms import BinaryForm
from ellk3.elimination import resultant
from ellk3.scalars import ModP
from reference import rand_form


def rand_sl2(rng, bound=3):
    # product of shears stays in SL2 with small entries
    mat = [[1, 0], [0, 1]]
    for _ in range(4):
        s = rng.randint(-bound, bound)
        if rng.random() < 0.5:
            sh = [[1, s], [0, 1]]
        else:
            sh = [[1, 0], [s, 1]]
        mat = matmul(mat, sh)
    return mat


def matmul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def test_binomial_expansion():
    f = BinaryForm(1, [1, 1]) ** 8  # (x + w)^8
    assert f.coeffs == [comb(8, k) for k in range(9)]


def test_coefficient_indexing():
    f = BinaryForm(3, [2, 0, 0, 5])  # 2 x^3 + 5 w^3
    assert f.evaluate(1, 0) == 2 and f.evaluate(0, 1) == 5


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        BinaryForm(2, [1, 0, 0]) + BinaryForm(3, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        BinaryForm(2, [1, 0])


def test_multiplication_degrees_add():
    rng = random.Random(0)
    f, g = rand_form(rng, 4), rand_form(rng, 6)
    assert (f * g).n == 10


def test_euler_identity():
    # x * f_x + w * f_w = n * f for homogeneous f
    rng = random.Random(1)
    for n in (2, 5, 8, 12):
        f = rand_form(rng, n)
        fx, fw = f.partials()
        lhs = BinaryForm(1, [1, 0]) * fx + BinaryForm(1, [0, 1]) * fw
        assert lhs == n * f


def test_substitute_matches_pointwise():
    rng = random.Random(2)
    entries = (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               lambda: ModP(rng.randint(0, 138), 139))
    for entry in entries * 25:
        n = rng.choice([0, 1, 3, 4, 8, 12])
        f = BinaryForm(n, [entry() for _ in range(n + 1)])
        mat = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        g = f.substitute(mat)
        x0, w0 = rng.randint(-5, 5), rng.randint(-5, 5)
        a, b = mat[0]
        c, d = mat[1]
        assert g.evaluate(x0, w0) == f.evaluate(a * x0 + b * w0, c * x0 + d * w0)


def test_substitute_composition_law():
    # substituting gamma then delta equals substituting gamma @ delta
    rng = random.Random(3)
    for _ in range(20):
        f = rand_form(rng, 6)
        g1 = rand_sl2(rng)
        g2 = rand_sl2(rng)
        lhs = f.substitute(g1).substitute(g2)
        assert lhs == f.substitute(matmul(g1, g2))
    ident = [[1, 0], [0, 1]]
    f = rand_form(rng, 9)
    assert f.substitute(ident) == f


def test_partials_of_monomial():
    f = BinaryForm.monomial(5, 2, 7)  # 7 x^3 w^2
    fx, fw = f.partials()
    assert fx == BinaryForm.monomial(4, 2, 21)
    assert fw == BinaryForm.monomial(4, 1, 14)


def test_dehomogenize_homogenize_roundtrip():
    rng = random.Random(4)
    for _ in range(25):
        f = rand_form(rng, 8)
        if f.is_zero():
            continue
        dense, wmult = f.dehomogenize()
        assert dense[-1] != 0
        back = BinaryForm.homogenize(dense, 8, wmult)
        assert back == f
    with pytest.raises(ValueError):
        BinaryForm.homogenize([1, 2, 3], 1)  # degree 2 data into degree 1


def test_rational_coefficients():
    f = BinaryForm(2, [Fraction(1, 2), 0, Fraction(1, 2)])
    assert (2 * f).coeffs == [1, 0, 1]


def test_reduce_mod():
    f = BinaryForm(2, [103, -1, 7])
    g = f.reduce_mod(101)
    assert [c.v for c in g.coeffs] == [2, 100, 7]


def test_product_of_residue_forms_has_only_residues():
    # w * x reaches only the middle slot; the end slots are the zero mod 7
    w = BinaryForm(1, [ModP(0, 7), ModP(1, 7)])
    x = BinaryForm(1, [ModP(1, 7), ModP(0, 7)])
    zero = BinaryForm(1, [ModP(0, 7), ModP(0, 7)])
    for prod in (w * x, zero * x, x ** 3 * w):
        assert all(isinstance(c, ModP) and c.p == 7 for c in prod.coeffs)
    assert w * x == BinaryForm(2, [0, 1, 0])
    for res in (resultant(w * x, w), resultant(zero * x, zero * w)):
        assert isinstance(res, ModP) and res == ModP(0, 7)
