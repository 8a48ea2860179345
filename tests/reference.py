"""Definitional reference oracles, slow by design, that the tests
cross-check the fast paths against:

* for the resultant engine, the Sylvester matrix and a fraction-free
  (Bareiss) determinant over any integral domain with exact division
  (int, Fraction, ModP, MultiPoly);
* for the Hilbert oracle, the raising table derived by substituting the
  shear [[1, 0], [eps, 1]] into generic forms with MultiPoly entries,
  dense Gaussian elimination over Q on Fractions and the kernel it
  yields, the weight spaces by enumerating every monomial of a t-degree
  and filing it under its q-weight, and the raising matrix by applying
  ``raising_operator`` to each weight-0 monomial, and the sparse
  elimination that rescans each row for its rightmost column before every
  reduction step and reduces every entry mod p as it goes;
* for the Molien series, the t-adic expansion with each Laurent
  polynomial in q held as a dict exponent -> count;
* for the oracle's per-form multiplicities, Cayley-Sylvester's
  differences of the Gaussian binomial coefficients;
* for series products, the schoolbook double loop over the two windows;
* for the Borcherds input, the power-series reciprocal on Fractions;
* for slice interpolation, Newton divided differences at arbitrary
  distinct integer points, over Q on Fractions or mod p;
* for the slice certificate, the line evaluated at every point the plain
  u-degree bounds ask for (139 for k552, 61 for r96 and its cube), k552 by
  its definition disc(h), and K divided by R^3 by schoolbook long
  division;
* for the degree patterns behind the irreducibility certificate, sympy's
  factorization over GF(p);
* for assembly over Q, h = 4 g2^3 + 27 g3^2 by the schoolbook double
  loop on the coefficients as given, ints and Fractions;
* for ``verify_bulk``'s homogeneity and SL2 checks, one trial at a time
  on the public r96 and k552.
"""

from fractions import Fraction

import sympy
from hypothesis import strategies as st

from ellk3 import invariants
from ellk3.binforms import BinaryForm
from ellk3.elimination import discriminant_binary, poly_trim
from ellk3.hilbert import Q_WEIGHTS, U8_VARS, U12_VARS, U_VARS, U_WEIGHTS, raising_operator
from ellk3.invariants import K552_U_DEGREE, R96_U_DEGREE, SliceWitness, check_modulus, r96
from ellk3.multipoly import MultiPoly
from ellk3.qseries import QSeries, eisenstein
from ellk3.scalars import InexactDivision, ModP, exact_scalar_div
from ellk3.weierstrass import SurfaceParams, assemble


def rand_form(rng, n, bound=9):
    """A binary form of degree n with entries drawn from [-bound, bound]."""
    return BinaryForm(n, [rng.randint(-bound, bound) for _ in range(n + 1)])


def residues(p):
    """Hypothesis strategy: a ModP residue mod p."""
    return st.integers(0, p - 1).map(lambda v: ModP(v, p))


def sylvester_matrix(f, g):
    """(m+n) x (m+n) Sylvester matrix of f (degree m) and g (degree n):
    n shifted copies of f's coefficient row, then m shifted copies of g's."""
    m, n = f.n, g.n
    rows = []
    for k in range(n):
        rows.append([0] * k + list(f.coeffs) + [0] * (n - 1 - k))
    for k in range(m):
        rows.append([0] * k + list(g.coeffs) + [0] * (m - 1 - k))
    assert all(len(r) == m + n for r in rows)
    return rows


def sylvester_resultant(f, g):
    """Res(f, g) as the Sylvester determinant; zero forms give 0."""
    if f.is_zero() or g.is_zero():
        return 0
    return det_bareiss(sylvester_matrix(f, g))


def det_bareiss(rows):
    """Fraction-free determinant; entries in any integral domain with
    exact division (int, Fraction, MultiPoly, ModP)."""
    n = len(rows)
    if n == 0:
        return 1
    M = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0 * M[0][0] if isinstance(M[0][0], (MultiPoly, ModP)) else 0
        pk = M[k][k]
        for i in range(k + 1, n):
            ri = M[i]
            rk = M[k]
            mik = ri[k]
            for j in range(k + 1, n):
                num = pk * ri[j] - mik * rk[j]
                ri[j] = num if prev == 1 else _exact_div(num, prev)
            ri[k] = 0
        prev = pk
    d = M[n - 1][n - 1]
    return d if sign == 1 else -d


def _exact_div(a, b):
    if isinstance(a, MultiPoly):
        return multipoly_exact_divide(a, b if isinstance(b, MultiPoly) else MultiPoly.constant(b, a.vars))
    if isinstance(b, MultiPoly):
        if b.is_constant():
            return exact_scalar_div(a, b.constant_term())
        raise InexactDivision("scalar %r not divisible by %r" % (a, b))
    return exact_scalar_div(a, b)


def multipoly_exact_divide(f, g):
    """Quotient f/g when the division is exact; InexactDivision otherwise."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    f._compat(g)
    q = MultiPoly.zero(f.vars)
    r = f
    glt_exp, glt_c = g.sorted_terms()[0]
    while r:
        rlt_exp, rlt_c = r.sorted_terms()[0]
        diff = tuple(a - b for a, b in zip(rlt_exp, glt_exp))
        if any(e < 0 for e in diff):
            raise InexactDivision("leading term %r not divisible" % (rlt_exp,))
        c = exact_scalar_div(rlt_c, glt_c)
        t = MultiPoly(f.vars, {diff: c})
        q = q + t
        r = r - t * g
    return q


def row_reduce(rows):
    """Reduced row echelon form over Q of a dense matrix (a list of rows):
    (the nonzero reduced rows, their pivot columns), by exact Gaussian
    elimination on Fractions with the leftmost pivot."""
    rows = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = [a / rows[rank][col] for a in rows[rank]]
        rows[rank] = prow
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def echelon_reference(rows, p):
    """Row-reduce sparse rows (dicts column -> int) over F_p, or over Q on
    Fractions when p = 0.  Each row is reduced by the pivot rows found so
    far and, if anything is left, becomes a pivot row on its rightmost
    nonzero column, divided by that entry.  Returns {pivot column: the
    rest of its row}; every column of a pivot row lies left of its pivot,
    so the number of pivots is the rank."""
    pivots = {}
    for row in rows:
        row = {j: v % p for j, v in row.items() if v % p} if p else dict(row)
        while row:
            c = max(row)
            f = row.pop(c)
            prow = pivots.get(c)
            if prow is None:
                if p:
                    inv = pow(f, -1, p)
                    pivots[c] = {j: v * inv % p for j, v in row.items()}
                else:
                    pivots[c] = {j: Fraction(v) / f for j, v in row.items()}
                break
            for j, v in prow.items():
                x = (row.get(j, 0) - f * v) % p if p else row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return pivots


def dense_kernel(rows, ncols):
    """Basis of the right kernel over Q of a dense matrix with ncols
    columns: one vector per free column of ``row_reduce``, set to 1."""
    reduced, pivots = row_reduce(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in zip(reduced, pivots):
            v[c] = -r[free]
        basis.append(v)
    return basis


def substituted_raising_table():
    """Images D(u_{n-i,i}) of the coordinates under the infinitesimal
    upper shear, as {name: [(image name, coefficient)]}: substitute
    [[1, 0], [eps, 1]] into the generic octic and duodecic and take the
    eps-linear part of each coefficient, a Z-combination of the u's
    (never transcribed by hand)."""
    table = {}
    vars_eps = U_VARS + ("eps",)
    eps = MultiPoly.variable("eps", vars_eps)
    one = MultiPoly.constant(1, vars_eps)
    zero = MultiPoly.zero(vars_eps)
    for n, names in ((8, U8_VARS), (12, U12_VARS)):
        generic = BinaryForm(n, [MultiPoly.variable(v, vars_eps) for v in names])
        moved = generic.substitute([[one, zero], [eps, one]])
        for i, name in enumerate(names):
            linear = moved.coeffs[i].deriv("eps").substitute_var("eps", 0)
            image = []
            for exp, c in linear.sorted_terms():
                assert sum(exp) == 1
                image.append((U_VARS[exp.index(1)], c))
            table[name] = image
    return table


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def filtered_weight_spaces(tdegree):
    """{q-weight: exponent vectors} of the u-monomials of weighted t-degree
    tdegree, by visiting every octic and duodecic composition pair of each
    split and keeping the monomial under its q-weight, each list then
    sorted stably by octic degree a8 and octic q-weight, so ties keep the
    lexicographic visiting order; ``hilbert.monomial_basis(tdegree, q)``
    must equal the list at q."""
    spaces = {}
    for a8 in range(tdegree // 4 + 1):
        rem = tdegree - 4 * a8
        if rem % 6:
            continue
        for e8 in compositions(a8, 9):
            q8 = sum(e * qw for e, qw in zip(e8, Q_WEIGHTS[:9]))
            for e12 in compositions(rem // 6, 13):
                q = q8 + sum(e * qw for e, qw in zip(e12, Q_WEIGHTS[9:]))
                spaces.setdefault(q, []).append(e8 + e12)
    for monos in spaces.values():
        monos.sort(key=lambda m: (sum(m[:9]), sum(e * qw for e, qw in zip(m[:9], Q_WEIGHTS[:9]))))
    return spaces


def raising_matrix_reference(tdegree):
    """(v0, v2, rows) of the raising operator at one t-degree, as
    ``hilbert._raising_matrix`` returns them: v0 and v2 the weight-0 and
    weight-2 lists of ``filtered_weight_spaces``, and rows[i] {column j:
    the coefficient of v2[i] in raising_operator of the monomial v0[j]},
    filled column by column."""
    spaces = filtered_weight_spaces(tdegree)
    v0, v2 = spaces.get(0, []), spaces.get(2, [])
    index2 = {m: i for i, m in enumerate(v2)}
    rows = [{} for _ in v2]
    for col, mono in enumerate(v0):
        for image, c in raising_operator({mono: 1}).items():
            rows[index2[image]][col] = c
    return v0, v2, rows


def molien_reference(N):
    """Graded dimensions to t-degree N: prod (1 - q^a t^b)^(-1) expanded
    with each t-coefficient a dict q-exponent -> count, the residue read
    as c_0 - c_(-2) at every t-degree."""
    coeff = [dict() for _ in range(N + 1)]
    coeff[0][0] = 1
    for a, b in zip(Q_WEIGHTS, U_WEIGHTS):
        # new[d] = old[d] + q^a * new[d-b]
        for d in range(b, N + 1):
            dst = coeff[d]
            for qe, c in coeff[d - b].items():
                dst[qe + a] = dst.get(qe + a, 0) + c
    return [c.get(0, 0) - c.get(-2, 0) for c in coeff]


def cayley_sylvester(n, a):
    """{m: multiplicity of Sym^m in S^a(Sym^n)} for m = na - 2k >= 0, by
    Cayley-Sylvester: c_k - c_(k-1), where c_k is the q^k coefficient of
    the Gaussian binomial [a + n choose n]_q = prod_(j=1..n) (1 - q^(a+j))
    / (1 - q^j), built factor by factor as [a + j choose j]_q, a
    polynomial of degree a j, by one product and one exact division."""
    c = [1]
    for j in range(1, n + 1):
        num = c + [0] * (a + j)
        for k, x in enumerate(c):
            num[k + a + j] -= x
        # num / (1 - q^j): out_k = num_k + out_(k-j)
        out = []
        for k in range(a * j + 1):
            out.append(num[k] + (out[k - j] if k >= j else 0))
        c = out
    return {n * a - 2 * k: c[k] - (c[k - 1] if k else 0) for k in range(n * a // 2 + 1)}


def schoolbook_product(f, g):
    """f * g for two nonzero QSeries by the double loop over their
    windows, truncated at min(N_f + e0_g, N_g + e0_f)."""
    N = min(f.N + g.e0, g.N + f.e0)
    e0 = f.e0 + g.e0
    out = [0] * (N - e0 + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            if e0 + i + j > N:
                break
            out[i + j] += a * b
    return QSeries(e0, out, N)


def fraction_reciprocal(f):
    """1/f of a nonzero QSeries by the power-series recurrence, dividing
    by the leading coefficient on Fractions at every step."""
    c0 = Fraction(f.coeffs[0])
    n = f.N - f.e0
    inv = [1 / c0]
    for k in range(1, n + 1):
        s = sum(f.coeffs[j] * inv[k - j] for j in range(1, min(k, len(f.coeffs) - 1) + 1))
        inv.append(-s / c0)
    return QSeries(-f.e0, inv, n - f.e0)


def borcherds_reference(N):
    """1728 E4 * (E4^3 - E6^2)^(-1) truncated at q^N, with the reciprocal
    of the denominator itself (leading coefficient 1728) on Fractions."""
    e4 = eisenstein(4, N + 2)
    e6 = eisenstein(6, N + 2)
    return (1728 * e4 * fraction_reciprocal(e4 ** 3 - e6 ** 2)).truncate(N)


def newton_interp(xs, ys, p):
    """Newton interpolation through the points (xs, ys) at distinct
    integers xs, over Q on Fractions (p = 0) or mod p on plain int
    residues; coefficients low-to-high, trimmed."""
    coeffs = [y % p for y in ys] if p else [Fraction(y) for y in ys]
    n = len(xs)
    # divided differences
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            if p:
                coeffs[i] = (coeffs[i] - coeffs[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
            else:
                coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    # expand the Newton form by Horner: poly = poly * (x - xs[i]) + coeffs[i]
    poly = coeffs[-1:]
    for i in range(n - 2, -1, -1):
        poly = [coeffs[i] - xs[i] * poly[0]] + [
            a - xs[i] * b for a, b in zip(poly, poly[1:])
        ] + [poly[-1]]
        if p:
            poly = [c % p for c in poly]
    return poly_trim(poly)


def poly_mul(a, b):
    """The product of two coefficient lists (either order, as long as
    both share it) by the schoolbook double loop."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def schoolbook_h(u):
    """The 25 coefficients of h = 4 g2^3 + 27 g3^2, high-to-low, by the
    double loop on u's coefficients as they are."""
    g2, g3 = list(u.g2_coeffs), list(u.g3_coeffs)
    return [4 * s + 27 * t for s, t in zip(poly_mul(poly_mul(g2, g2), g2), poly_mul(g3, g3))]


def modp_factor_degrees(f, p):
    """Degrees of the irreducible factors of f mod p, repeated by
    multiplicity, in ascending order; f is a low-to-high int list whose
    leading coefficient p does not divide.  Taken from sympy's
    factorization over GF(p)."""
    _, parts = sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=p).factor_list()
    return sorted(fac.degree() for fac, mult in parts for _ in range(mult))


def is_squarefree_mod(f, p):
    """Whether f (low-to-high ints) is squarefree mod p, by sympy's gcd
    of f and its derivative over GF(p)."""
    fp = sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=p)
    return fp.gcd(fp.diff()).degree() == 0


def field_divmod(a, b, p):
    """Quotient and remainder of low-to-high lists by schoolbook long
    division over Q on Fractions (p = 0) or mod p on residues."""
    if p:
        a, b = [c % p for c in a], [c % p for c in b]
    else:
        a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    r, b = poly_trim(a), poly_trim(b)
    q = [0] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] * pow(b[-1], -1, p) % p if p else r[-1] / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] = (r[k + i] - c * y) % p if p else r[k + i] - c * y
        poly_trim(r)
    return poly_trim(q), r


def _eval_on_line(u0, u1, s, p=None):
    """The point u0 + s u1 of a line, computed over Q and then reduced mod
    p when p is given."""
    g2 = [a + s * b for a, b in zip(u0.g2_coeffs, u1.g2_coeffs)]
    g3 = [a + s * b for a, b in zip(u0.g3_coeffs, u1.g3_coeffs)]
    u = SurfaceParams(g2, g3)
    if p is not None:
        u = u.reduce_mod(p)
    return u


def k552_by_definition(u):
    """k552(u) as its definition, disc(h) = Res(dh/dx, dh/dw), not by the
    library's identity; ValueError where h vanishes identically, as k552
    raises."""
    h = assemble(u)[2]
    if h.is_zero():
        raise ValueError("degenerate family: h vanishes identically")
    return discriminant_binary(h)


def slice_reference(u0, u1, modulus=None):
    """The slice certificate from the plain u-degree bounds: K from k552 by
    its definition at s = 0, ..., K552_U_DEGREE, and R and R3 from r96 and
    its cube at s = 0, ..., 3 R96_U_DEGREE, each by Newton interpolation,
    then K / R3 by long division."""
    check_modulus(modulus)
    p = modulus or 0
    xs = list(range(K552_U_DEGREE + 1))
    points = [_eval_on_line(u0, u1, s, modulus) for s in xs]
    rvals = [r96(u).value for u in points[:3 * R96_U_DEGREE + 1]]
    r3vals = [v ** 3 for v in rvals]
    if not any(r3vals):
        raise ValueError("r96 vanishes identically on this line")
    kvals = [k552_by_definition(u) for u in points]
    if p:
        rvals, r3vals, kvals = ([v.v for v in vals] for vals in (rvals, r3vals, kvals))
    R = newton_interp(xs[:len(rvals)], rvals, p)
    R3 = newton_interp(xs[:len(rvals)], r3vals, p)
    K = newton_interp(xs, kvals, p)
    # the cube of R, interpolated on its own, has the degree r3_degree states
    assert len(R3) - 1 == 3 * (len(R) - 1)
    q, rem = field_divmod(K, R3, p)
    return SliceWitness(not rem, modulus, q, K, R)


def action_checks_reference(rng, p, homogeneity_trials, sl2_trials):
    """verify_bulk's parts (b) and (c) one trial at a time, each draw
    followed by its r96 and k552 through the public one-surface invariants
    (read from the invariants module, so a test's patch there applies):
    the failures, as (label, surface dict) in the order found, with rng
    left where verify_bulk leaves it."""
    def gm(u):
        lam = ModP(rng.choice([2, 3, 5]), p)
        return u.reduce_mod(p), invariants.gm_act(lam, u), lam ** 96, lam ** 552

    def sl2(u):
        return u.reduce_mod(p), invariants.sl2_act(invariants.random_sl2(rng), u).reduce_mod(p), 1, 1

    failures = []
    for label, count, act in (("homogeneity", homogeneity_trials, gm), ("sl2", sl2_trials, sl2)):
        for _ in range(count):
            u = invariants.random_surface(rng)
            up, vp, chi96, chi552 = act(u)
            r = invariants.r96(up).value
            k = invariants.k552(up).value if r or not assemble(up)[2].is_zero() else None
            if invariants.r96(vp).value != chi96 * r:
                failures.append((label + "-r96", u.to_json_dict()))
            if k is not None and invariants.k552(vp).value != chi552 * k:
                failures.append((label + "-k552", u.to_json_dict()))
    return failures
