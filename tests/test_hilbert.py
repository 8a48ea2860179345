import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellk3 import hilbert
from ellk3.binforms import BinaryForm
from ellk3.hilbert import (
    ORACLE_MAX_DEGREE,
    Q_WEIGHTS,
    U_VARS,
    U_WEIGHTS,
    _ORACLE_PRIMES,
    FeasibilityError,
    HilbertSeries,
    _echelon,
    _highest_weights,
    _raising_matrix,
    character_series,
    invariant_basis,
    invariant_dimension_oracle,
    molien_series,
    monomial_basis,
    raising_operator,
    raising_table,
)
from ellk3.invariants import random_sl2, random_surface, sl2_act
from ellk3.multipoly import MultiPoly
from reference import (
    cayley_sylvester,
    dense_kernel,
    det_bareiss,
    echelon_reference,
    filtered_weight_spaces,
    molien_reference,
    raising_matrix_reference,
    row_reduce,
    substituted_raising_table,
    sylvester_matrix,
)

# graded dimensions of the invariant ring, low degrees (frozen)
MOLIEN_LOW = [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 3, 0, 7, 0, 6, 0, 16]


def test_molien_low_degrees_frozen():
    H = molien_series(24)
    assert H.coefficients == MOLIEN_LOW


def test_molien_odd_degrees_vanish():
    H = molien_series(61)
    assert all(H[k] == 0 for k in range(1, 62, 2))
    # and below the first invariant nothing lives except constants
    assert all(H[k] == 0 for k in range(1, 8))


def test_molien_prefix_stability():
    assert molien_series(60).coefficients[:25] == molien_series(24).coefficients


def test_molien_negative_truncation():
    with pytest.raises(ValueError):
        molien_series(-1)


def test_packed_molien_matches_dict_expansion():
    ref = molien_reference(150)
    for N in range(151):
        assert molien_series(N).coefficients == ref[: N + 1]
    assert molien_series(300).coefficients == molien_reference(300)


def test_hilbert_series_checks_compares_and_indexes():
    H = HilbertSeries([1, 0, 2])
    assert (len(H), H[2], H[-1], H[:2]) == (3, 2, 2, [1, 0])
    assert repr(H) == "HilbertSeries(coefficients=[1, 0, 2])"
    assert H == HilbertSeries([1, 0, 2]) and H != HilbertSeries([1, 0, 3])
    assert H != [1, 0, 2] and HilbertSeries([]) == HilbertSeries([])
    with pytest.raises(TypeError):
        hash(H)
    with pytest.raises(ValueError, match="starts with 1"):
        HilbertSeries([2, 0])
    with pytest.raises(ValueError, match="negative graded dimension"):
        HilbertSeries([1, -1])


def test_character_series_free_extension():
    plain, ext = character_series(140)
    assert ext.coefficients[:132] == plain.coefficients[:132]
    assert all(ext[k] == plain[k] + plain[k - 132] for k in range(132, 141))
    assert ext[132] == plain[132] + 1


def test_q_weight_bookkeeping():
    # u_{n-i,i} carries torus weight 2i - n; total weight of x^j w^k terms
    assert Q_WEIGHTS[:9] == tuple(2 * i - 8 for i in range(9))
    assert Q_WEIGHTS[9:] == tuple(2 * i - 12 for i in range(13))
    assert U_WEIGHTS == (4,) * 9 + (6,) * 13


def test_raising_table_derived_images():
    # D(u_{n-i,i}) = (i+1) u_{n-i-1,i+1}; the top coordinate dies
    table = raising_table()
    assert table == substituted_raising_table()
    for n, names in ((8, U_VARS[:9]), (12, U_VARS[9:])):
        for i, name in enumerate(names):
            img = table[name]
            if i == n:
                assert img == []
            else:
                assert img == [(names[i + 1], i + 1)]


def test_raising_operator_is_a_derivation():
    rng = random.Random(0)
    for _ in range(5):
        f = MultiPoly.variable(rng.choice(U_VARS), U_VARS) * MultiPoly.variable(rng.choice(U_VARS), U_VARS)
        g = MultiPoly.variable(rng.choice(U_VARS), U_VARS) + rng.randint(-3, 3)
        df = MultiPoly(U_VARS, raising_operator(f.terms))
        dg = MultiPoly(U_VARS, raising_operator(g.terms))
        assert raising_operator((f * g).terms) == (df * g + f * dg).terms


def test_raising_operator_shifts_q_weight():
    def q_weight(mono):
        return sum(e * qw for e, qw in zip(mono, Q_WEIGHTS))

    v = MultiPoly.variable(U_VARS[3], U_VARS) * MultiPoly.variable(U_VARS[12], U_VARS)
    img = raising_operator(v.terms)
    (base_exp,) = v.terms
    assert img
    for exp in img:
        assert q_weight(exp) == q_weight(base_exp) + 2


def test_raising_operator_rejects_wrong_length():
    with pytest.raises(ValueError):
        raising_operator({(1,) * (len(U_VARS) - 1): 1})


def test_monomial_basis_counts_match_molien():
    # dim of the whole t-degree-d graded piece splits over q-weights; the
    # q^(-1)-residue formula says dim ker = |wt 0| - rank, so at least
    # |wt 0| >= |wt 2| is forced whenever invariants exist
    for d in (8, 12, 16, 20, 24):
        v0 = monomial_basis(d, 0)
        v2 = monomial_basis(d, 2)
        assert len(v0) - len(v2) <= molien_series(d)[d] <= len(v0)


def test_monomial_basis_matches_filter_reference():
    # same monomials in the same order, so columns, pivots and
    # invariant_basis do not depend on how the weight spaces are built; at
    # every weight present, and at an odd one and one past the largest |q|,
    # where no pair of buckets may complete the weight
    for d in range(31):
        spaces = filtered_weight_spaces(d)
        top = max(map(abs, spaces), default=0)
        for q in sorted(spaces) + [-1, 1, -top - 2, top + 2]:
            assert monomial_basis(d, q) == spaces.get(q, []), "degree %d, q-weight %d" % (d, q)


def test_raising_matrix_reads_monomial_basis(monkeypatch):
    # the oracle's bases are monomial_basis's, asked positionally: the
    # benchmark's tracer reads the degree and weight from args[0] and args[1]
    calls = []
    basis = hilbert.monomial_basis

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return basis(*args, **kwargs)

    monkeypatch.setattr(hilbert, "monomial_basis", recorder)
    v0, v2, _ = _raising_matrix(24)
    assert calls == [((24, 0), {}), ((24, 2), {})]
    assert (len(v0), len(v2)) == (1024, 1008)


def test_raising_matrix_matches_operator_reference():
    # the matrix against raising_operator applied monomial by monomial:
    # the same bases, the same entries and, as every column is
    # filled in order, the same column order within each row
    for d in list(range(0, 27, 2)) + [30]:
        v0, v2, rows = _raising_matrix(d)
        ref0, ref2, ref_rows = raising_matrix_reference(d)
        assert (v0, v2) == (ref0, ref2), "degree %d" % d
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in ref_rows], "degree %d" % d


def test_raising_matrix_rows_stay_in_their_octic_block():
    # a weight-2 monomial with octic part of degree a8 and weight q8 is hit
    # only by D12 from octic weight q8 and by D8 from q8 - 2, both of
    # degree a8: the shape monomial_basis's order lets _echelon follow
    def octic(m):
        return sum(m[:9]), sum(e * qw for e, qw in zip(m[:9], Q_WEIGHTS[:9]))

    for d in range(ORACLE_MAX_DEGREE + 1):
        v0, v2, rows = _raising_matrix(d)
        for i, row in enumerate(rows):
            a8, q8 = octic(v2[i])
            assert {octic(v0[j]) for j in row} <= {(a8, q8), (a8, q8 - 2)}, "degree %d, row %d" % (d, i)


def test_echelon_fill_on_raising_matrices_is_pinned():
    # entries stored in the pivot rows mod the first oracle prime; in plain
    # lexicographic basis order they were 5950 and 30133
    for d, fill in ((24, 4724), (28, 22880)):
        _, v2, rows = _raising_matrix(d)
        pivots = _echelon(rows, _ORACLE_PRIMES[0])
        assert len(pivots) == len(v2)
        assert sum(map(len, pivots.values())) == fill, "degree %d" % d


def test_highest_weights_match_cayley_sylvester():
    # each form at every degree the oracle reaches up to t-degree 30, and
    # every highest weight m >= 0, past the top one n a too, where both are 0
    for qweights, n, degrees in ((Q_WEIGHTS[:9], 8, range(8)), (Q_WEIGHTS[9:], 12, range(6))):
        for a in degrees:
            want = cayley_sylvester(n, a)
            got = _highest_weights(qweights, a, n * a + 4)
            assert got == [want.get(m, 0) for m in range(0, n * a + 5, 2)], "Sym^%d, degree %d" % (n, a)


def test_oracle_matches_joint_kernel():
    # the joint matrix D8 (x) 1 + 1 (x) D12 on the whole weight-0 space,
    # its rank taken mod the first oracle prime
    for d in range(27):
        v0, _, rows = _raising_matrix(d)
        assert invariant_dimension_oracle(d) == len(v0) - len(_echelon(rows, _ORACLE_PRIMES[0])), "degree %d" % d


def test_oracle_work_per_form_is_pinned(monkeypatch):
    # (rank problems, their rows, entries stored in their pivot rows), all
    # of full rank mod the first oracle prime: one problem per form, split
    # and shared highest weight; at t-degrees 24 and 30 the joint matrix
    # has 1008 and 5396 rows and 4724 and 45484 pivot-row entries
    echelon, calls = hilbert._echelon, []

    def recorder(rows, p):
        pivots = echelon(rows, p)
        calls.append((len(rows), p, sum(map(len, pivots.values()))))
        return pivots

    monkeypatch.setattr(hilbert, "_echelon", recorder)
    for d, work in ((24, (30, 348, 1085)), (30, (42, 1443, 5842))):
        calls.clear()
        invariant_dimension_oracle(d)
        assert {p for _, p, _ in calls} == {_ORACLE_PRIMES[0]}
        assert (len(calls), sum(r for r, _, _ in calls), sum(f for _, _, f in calls)) == work, "degree %d" % d


def test_oracle_refuses_negative_degrees():
    # as molien_series does, rather than report an empty space
    for call in (_raising_matrix, invariant_dimension_oracle, invariant_basis):
        for d in (-1, -4):
            with pytest.raises(ValueError, match="nonnegative") as info:
                call(d)
            assert not isinstance(info.value, FeasibilityError)


def test_oracle_matches_molien_small_degrees():
    H = molien_series(16)
    for d in range(0, 17):
        assert invariant_dimension_oracle(d) == H[d], "degree %d" % d


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def test_oracle_matches_independent_fraction_elimination():
    """Re-run the kernel computation with dense exact Gaussian elimination
    over Q (no primes, no sparse pivoting) at small degrees."""
    for d in (8, 12, 14, 16):
        v0, _, rows = _raising_matrix(d)
        assert invariant_dimension_oracle(d) == len(dense_kernel(_dense(rows, len(v0)), len(v0)))


def test_oracle_matches_molien_degree_26():
    assert invariant_dimension_oracle(26) == molien_series(26)[26] == 16


def test_oracle_matches_molien_degree_28():
    assert invariant_dimension_oracle(28) == molien_series(28)[28] == 32


def test_oracle_matches_molien_degree_30():
    assert invariant_dimension_oracle(30) == molien_series(30)[30] == 40


def test_oracle_feasibility_guard():
    assert ORACLE_MAX_DEGREE == 30
    with pytest.raises(FeasibilityError):
        invariant_dimension_oracle(ORACLE_MAX_DEGREE + 2)


def test_oracle_refuses_when_no_prime_gives_full_rank(monkeypatch):
    # mod 3 the raising matrix at t-degree 8 is rank-deficient, so the
    # rank certificate fails and the oracle must not return a dimension
    monkeypatch.setattr("ellk3.hilbert._ORACLE_PRIMES", (3,))
    with pytest.raises(ArithmeticError):
        invariant_dimension_oracle(8)


def test_oracle_skips_a_rank_deficient_prime(monkeypatch):
    monkeypatch.setattr("ellk3.hilbert._ORACLE_PRIMES", (3, 2147483629))
    assert invariant_dimension_oracle(8) == 1


def _assert_echelon_matches_reference(rows, p):
    got, want = _echelon(rows, p), echelon_reference(rows, p)
    assert got == want
    # pivots in the order the rows found them
    assert list(got) == list(want)
    return got


def test_echelon_matches_reference_on_raising_matrices():
    """The one-pass lazy elimination gives the rescanning reference's
    pivot rows exactly: mod the first oracle prime up to t-degree 24, mod 3
    at t-degree 8, where the rank falls short, and over Q up to 16."""
    for d in range(25):
        _, _, rows = _raising_matrix(d)
        _assert_echelon_matches_reference(rows, _ORACLE_PRIMES[0])
        if d <= 16:
            _assert_echelon_matches_reference(rows, 0)
    _, v2, rows = _raising_matrix(8)
    assert len(_assert_echelon_matches_reference(rows, 3)) < len(v2)


@st.composite
def sparse_rows(draw, p):
    """Sparse rows on at most 8 columns: empty rows, ints up to 2^70 and,
    mod p, entries that are 0 mod p but not 0, then duplicates and integer
    combinations of drawn rows, which cancel exactly.  Over Q no entry is
    stored as 0, as in the raising matrix."""
    ncols = draw(st.integers(1, 8))
    value = st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)
    value = value | st.integers(-3, 3).map(lambda k: k * p) if p else value.filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), value, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        combo = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in sorted(set(a) | set(b))}
        rows.insert(draw(st.integers(0, len(rows))), {j: v for j, v in combo.items() if v})
    return ncols, rows


@pytest.mark.parametrize("p", [3, 5, 2147483629, 0])
@settings(max_examples=150)
@given(data=st.data())
def test_echelon_matches_reference_on_random_rows(p, data):
    ncols, rows = data.draw(sparse_rows(p))
    pivots = _assert_echelon_matches_reference(rows, p)
    if not p:
        assert len(pivots) == len(row_reduce(_dense(rows, ncols))[1])


def test_invariant_basis_killed_by_raising_operator():
    for d in (8, 12, 16, 20, 24):
        basis = invariant_basis(d)
        assert len(basis) == molien_series(d)[d]
        for b in basis:
            assert raising_operator(b) == {}
            assert b and all(sum(w * e for w, e in zip(U_WEIGHTS, exp)) == d for exp in b)


def test_invariant_basis_spans_reference_kernel():
    def rank(vecs):
        return len(row_reduce(vecs)[1])

    for d in (8, 12, 14, 16):
        v0, _, rows = _raising_matrix(d)
        ref = dense_kernel(_dense(rows, len(v0)), len(v0))
        basis = [[b.get(m, 0) for m in v0] for b in invariant_basis(d)]
        assert len(basis) == rank(basis) == rank(ref) == rank(basis + ref), "degree %d" % d


def test_degree8_invariant_is_sl2_invariant_on_surfaces():
    (b,) = invariant_basis(8)

    def value(pt):
        return sum(c * prod(x ** e for x, e in zip(pt, exp)) for exp, c in b.items())

    rng = random.Random(1)
    for _ in range(5):
        u = random_surface(rng, 5)
        g = random_sl2(rng)
        pt = list(u.g2_coeffs) + list(u.g3_coeffs)
        v = sl2_act(g, u)
        pt2 = list(v.g2_coeffs) + list(v.g3_coeffs)
        assert value(pt) == value(pt2)


def test_raising_operator_annihilates_resultant_on_lines():
    """d/de r96(shear_e . u) = 0 as a polynomial identity.  The directional
    derivative of the 20 x 20 Sylvester determinant along the shear flow is
    a sum of 20 row-replaced determinants; r96 has u-degree 20, so checking
    21 points on a random line in u-space certifies vanishing on that line.
    """
    rng = random.Random(2)
    for _ in range(2):
        c2a = [rng.randint(-9, 9) for _ in range(9)]
        c2b = [rng.randint(-9, 9) for _ in range(9)]
        c3a = [rng.randint(-9, 9) for _ in range(13)]
        c3b = [rng.randint(-9, 9) for _ in range(13)]
        for s in range(21):
            g2 = BinaryForm(8, [a + s * b for a, b in zip(c2a, c2b)])
            g3 = BinaryForm(12, [a + s * b for a, b in zip(c3a, c3b)])
            # tangent of the lower-shear flow: delta f = x * df/dw
            x = BinaryForm(1, [1, 0])
            d2 = x * g2.partials()[1]
            d3 = x * g3.partials()[1]
            M = sylvester_matrix(g2, g3)
            N = sylvester_matrix(d2, d3)
            total = 0
            for k in range(20):
                rows = [N[r] if r == k else M[r] for r in range(20)]
                total += det_bareiss(rows)
            assert total == 0
