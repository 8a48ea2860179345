"""Hilbert series of the SL2-invariants of the octic-plus-duodecic
parameter space, three ways:

* the Molien-Weyl residue formula, expanded t-adically so each t-degree
  carries a finite Laurent polynomial in q and the residue is the q^(-1)
  coefficient of (q^(-1) - q) times the product;
* an independent oracle computing the exact kernel dimension of the
  raising operator on the torus-weight-0 subspace (mod-p elimination as a
  prefilter, with the final kernel certified over Q by rational
  reconstruction and exact verification);
* the character-extended series (1 + t^132) H(t) realizing the rank-2
  free extension with its weight-264 relation.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .binforms import BinaryForm
from .multipoly import MultiPoly

# the 22 ambient variables: octic coefficients then duodecic ones
U8_VARS = tuple("u_{%d,%d}" % (8 - i, i) for i in range(9))
U12_VARS = tuple("u_{%d,%d}" % (12 - i, i) for i in range(13))
U_VARS = U8_VARS + U12_VARS
U_WEIGHTS = (4,) * 9 + (6,) * 13

# q-weights (torus weights) of the variables: 2i-8 and 2i-12
Q_WEIGHTS = tuple(2 * i - 8 for i in range(9)) + tuple(2 * i - 12 for i in range(13))

ORACLE_MAX_DEGREE = 24


@dataclass
class HilbertSeries:
    coefficients: list

    def __post_init__(self):
        if self.coefficients and self.coefficients[0] != 1:
            raise ValueError("a graded ring's Hilbert series starts with 1")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("negative graded dimension")

    def __getitem__(self, k):
        return self.coefficients[k]

    def __len__(self):
        return len(self.coefficients)


def molien_series(N):
    """Graded dimensions of the invariant ring up to t-degree N.

    Expands prod (1 - q^a t^b)^(-1) over the 22 variables as a t-adic
    series with Laurent-in-q coefficients (dicts q-exponent -> count),
    multiplies by (q^(-1) - q) and reads off the q^(-1) coefficient: for
    a t-coefficient c(q) this is c_0 - c_(-2).
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    # coeff[d] = Laurent polynomial in q at t-degree d
    coeff = [dict() for _ in range(N + 1)]
    coeff[0][0] = 1
    for a, b in zip(Q_WEIGHTS, U_WEIGHTS):
        # in-place recurrence for the geometric factor (1 - q^a t^b)^(-1):
        # new[d] = old[d] + q^a * new[d-b]
        for d in range(b, N + 1):
            dst = coeff[d]
            for qe, c in coeff[d - b].items():
                dst[qe + a] = dst.get(qe + a, 0) + c
    dims = []
    for d in range(N + 1):
        dims.append(coeff[d].get(0, 0) - coeff[d].get(-2, 0))
    if any(c < 0 for c in dims):
        raise ArithmeticError("residue extraction produced a negative integer")
    return HilbertSeries(dims)


def character_series(N):
    """(plain, with_characters) where with_characters[k] = plain[k] +
    plain[k-132]: the extension is free with basis {1, s_132} and the
    weight-264 relation identifies s_132^2 inside the plain part."""
    plain = molien_series(N)
    ext = list(plain.coefficients)
    for k in range(132, N + 1):
        ext[k] += plain[k - 132]
    return plain, HilbertSeries(ext)


# -- the raising operator --------------------------------------------


def _raising_table():
    """Images D(u_{n-i,i}) of the coordinates under the infinitesimal
    upper-shear action, derived by substituting [[1,0],[eps,1]] into the
    generic forms and extracting the eps-linear part (never transcribed
    by hand)."""
    table = {}
    vars_eps = U_VARS + ("eps",)
    weights_eps = U_WEIGHTS + (0,)
    eps = MultiPoly.variable("eps", vars_eps, weights_eps)
    one = MultiPoly.constant(1, vars_eps, weights_eps)
    zero = MultiPoly.zero(vars_eps, weights_eps)
    for n, names in ((8, U8_VARS), (12, U12_VARS)):
        generic = BinaryForm(n, [MultiPoly.variable(v, vars_eps, weights_eps) for v in names])
        moved = generic.substitute([[one, zero], [eps, one]])
        for i, name in enumerate(names):
            linear = moved.coeffs[i].deriv("eps").substitute_var("eps", 0)
            # linear is a Z-combination of the u-variables
            image = []
            for exp, c in linear.sorted_terms():
                assert sum(exp) == 1
                j = exp.index(1)
                image.append((U_VARS[j], c))
            table[name] = image
    return table


_RAISING_TABLE = None


def raising_table():
    global _RAISING_TABLE
    if _RAISING_TABLE is None:
        _RAISING_TABLE = _raising_table()
    return _RAISING_TABLE


def raising_operator(p):
    """Apply the raising derivation to a polynomial in the 22 u-variables;
    raises torus weight by 2 and annihilates every invariant."""
    table = raising_table()
    out = MultiPoly.zero(p.vars, p.weights)
    for name in p.vars:
        if name not in table:
            raise ValueError("unknown variable %r for the raising operator" % name)
        img = table[name]
        if not img:
            continue
        d = p.deriv(name)
        if not d:
            continue
        for target, c in img:
            out = out + d * (c * MultiPoly.variable(target, p.vars, p.weights))
    return out


def u_variable(name):
    return MultiPoly.variable(name, U_VARS, U_WEIGHTS)


def u_poly_from_exponents(exp, coeff=1):
    return MultiPoly(U_VARS, {tuple(exp): coeff}, U_WEIGHTS)


# -- monomial bases and the kernel oracle ----------------------------


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomial_basis(tdegree, qweight):
    """Exponent vectors of the u-monomials with the given weighted
    t-degree and torus q-weight."""
    out = []
    for a8 in range(tdegree // 4 + 1):
        rem = tdegree - 4 * a8
        if rem % 6:
            continue
        a12 = rem // 6
        for e8 in _compositions(a8, 9):
            q8 = sum(e * qw for e, qw in zip(e8, Q_WEIGHTS[:9]))
            for e12 in _compositions(a12, 13):
                q = q8 + sum(e * qw for e, qw in zip(e12, Q_WEIGHTS[9:]))
                if q == qweight:
                    out.append(e8 + e12)
    return out


def _raising_matrix(tdegree):
    """Sparse matrix of the raising operator from the q-weight-0 basis to
    the q-weight-2 basis at one t-degree.  Returns (cols, rows, entries)
    where entries maps (row, col) -> int."""
    table = raising_table()
    shift = {}
    for k, name in enumerate(U_VARS):
        img = table[name]
        if img:
            (target, c), = img
            shift[k] = (U_VARS.index(target), c)
    v0 = monomial_basis(tdegree, 0)
    v2 = monomial_basis(tdegree, 2)
    index2 = {m: i for i, m in enumerate(v2)}
    entries = {}
    for col, mono in enumerate(v0):
        for k, e in enumerate(mono):
            if not e or k not in shift:
                continue
            tgt, c = shift[k]
            out = list(mono)
            out[k] -= 1
            out[tgt] += 1
            row = index2[tuple(out)]
            key = (row, col)
            entries[key] = entries.get(key, 0) + e * c
    return v0, v2, entries


_ORACLE_PRIMES = (2147483629, 2147483587, 2147483563, 2147483549, 2147483543, 2147483497)


class FeasibilityError(ValueError):
    pass


def invariant_dimension_oracle(d, max_degree=ORACLE_MAX_DEGREE, return_kernel=False):
    """Exact dimension of the SL2-invariants at t-degree d, as the kernel
    of the raising operator on the torus-weight-0 subspace.

    Elimination runs mod 31-bit primes for speed; the kernel basis is then
    lifted to Q by CRT plus rational reconstruction and certified by exact
    sparse multiplication, so the returned dimension is proved over Q
    (rank mod p bounds the rational kernel from above, the verified
    vectors bound it from below).
    """
    if d > max_degree:
        raise FeasibilityError(
            "t-degree %d exceeds the oracle feasibility bound %d" % (d, max_degree)
        )
    if d < 0 or d % 2:
        return ([], []) if return_kernel else 0
    v0, v2, entries = _raising_matrix(d)
    if not v0:
        return ([], []) if return_kernel else 0
    if not entries:
        return (v0, [_unit_vec(len(v0), j) for j in range(len(v0))]) if return_kernel else len(v0)

    kernels = []
    moduli = []
    for p in _ORACLE_PRIMES:
        kb = _kernel_mod_p(entries, len(v2), len(v0), p)
        kernels.append(kb)
        moduli.append(p)
        if len(moduli) >= 2:
            dims = {len(k[1]) for k in kernels}
            frees = {tuple(k[0]) for k in kernels}
            if len(dims) == 1 and len(frees) == 1:
                vecs = _reconstruct_kernel(kernels, moduli)
                if vecs is not None and _verify_kernel(entries, vecs):
                    if return_kernel:
                        return v0, vecs
                    return len(vecs)
    raise ArithmeticError("kernel certification failed after %d primes" % len(moduli))


def _unit_vec(n, j):
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v


def _kernel_mod_p(entries, nrows, ncols, p):
    """(free columns, kernel basis vectors mod p) via numpy elimination."""
    import numpy as np

    M = np.zeros((nrows, ncols), dtype=np.int64)
    for (r, c), v in entries.items():
        M[r, c] = v % p
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = pow(int(M[r, c]), -1, p)
        M[r] = M[r] * inv % p
        col = M[r + 1:, c].copy()
        if col.any():
            M[r + 1:] = (M[r + 1:] - np.outer(col, M[r])) % p
        pivots.append(c)
        r += 1
    # back-substitute to reduced form on the pivot rows
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        col = M[:i, c].copy()
        if col.any():
            M[:i] = (M[:i] - np.outer(col, M[i])) % p
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(M[i, f])) % p
        basis.append(v)
    return free, basis


def _reconstruct_kernel(kernels, moduli):
    free = kernels[0][0]
    dim = len(kernels[0][1])
    M = 1
    for p in moduli:
        M *= p
    vecs = []
    for j in range(dim):
        vec = []
        for i in range(len(kernels[0][1][j])):
            residues = [k[1][j][i] for k in kernels]
            x = _crt(residues, moduli)
            r = _rat_reconstruct(x, M)
            if r is None:
                return None
            vec.append(r)
        vecs.append(vec)
    return vecs


def _crt(residues, moduli):
    x, m = 0, 1
    for r, p in zip(residues, moduli):
        t = (r - x) * pow(m, -1, p) % p
        x += m * t
        m *= p
    return x % m


def _rat_reconstruct(a, m):
    """Rational p/q with |p|, q <= sqrt(m/2) congruent to a mod m."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if gcd(r1, abs(s1)) != 1 and gcd(abs(s1), m) != 1:
        return None
    return Fraction(r1, s1)


def _verify_kernel(entries, vecs):
    """Exact check over Q that each candidate vector is killed by the
    operator (sparse accumulation of Fractions)."""
    for v in vecs:
        sums = {}
        for (r, c), val in entries.items():
            if v[c]:
                sums[r] = sums.get(r, 0) + val * v[c]
        if any(s for s in sums.values()):
            return False
    return True


def invariant_basis(d):
    """Exact rational invariants at t-degree d as MultiPoly values (the
    certified kernel vectors translated back to polynomials)."""
    v0, vecs = invariant_dimension_oracle(d, return_kernel=True)
    polys = []
    for v in vecs:
        poly = MultiPoly.zero(U_VARS, U_WEIGHTS)
        for mono, c in zip(v0, v):
            if c:
                poly = poly + u_poly_from_exponents(mono, c)
        polys.append(poly)
    return polys
