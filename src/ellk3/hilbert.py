"""Hilbert series of the SL2-invariants of the octic-plus-duodecic
parameter space, and the invariants themselves:

* the Molien-Weyl residue formula, expanded t-adically so each t-degree
  carries a finite Laurent polynomial in q and the residue is the q^(-1)
  coefficient of (q^(-1) - q) times the product.  Each Laurent polynomial
  is one nonnegative int with a slot per even q-exponent (Kronecker
  substitution), so a geometric factor costs one big-int shift and add per
  t-degree;
* an independent oracle counting the invariants of each split 4a + 6b
  of the t-degree by Clebsch-Gordan, sum_m h_m(S^a Sym^8) h_m(S^b Sym^12),
  each multiplicity h_m the kernel of one form's raising operator
  D(u_{n-i,i}) = (i+1) u_{n-i-1,i+1} from its weight-m to its weight-(m+2)
  bucket, certified by full row rank mod a single prime (one sparse
  elimination that visits each row's columns once, right to left, and
  reduces mod p lazily);
* explicit invariants as exponent-tuple -> Fraction dicts, the kernel over
  Q of the joint raising operator D8 (x) 1 + 1 (x) D12 from the
  torus-weight-0 to the weight-2 subspace, its matrix between the two
  monomial bases (each form's compositions bucketed by q-weight, ordered
  to follow D's octic-weight chain);
* the character-extended series (1 + t^132) H(t) realizing the rank-2
  free extension with its weight-264 relation.
"""

from bisect import insort
from fractions import Fraction
from functools import cache

from . import Record

# the 22 ambient variables: octic coefficients then duodecic ones
U8_VARS = tuple("u_{%d,%d}" % (8 - i, i) for i in range(9))
U12_VARS = tuple("u_{%d,%d}" % (12 - i, i) for i in range(13))
U_VARS = U8_VARS + U12_VARS
U_WEIGHTS = (4,) * 9 + (6,) * 13

# q-weights (torus weights) of the variables: 2i-8 and 2i-12
Q_WEIGHTS = tuple(2 * i - 8 for i in range(9)) + tuple(2 * i - 12 for i in range(13))

ORACLE_MAX_DEGREE = 30


class HilbertSeries(Record):
    """Graded dimensions: coefficients[k] is the dimension at t-degree k."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        if coefficients and coefficients[0] != 1:
            raise ValueError("a graded ring's Hilbert series starts with 1")
        if any(c < 0 for c in coefficients):
            raise ValueError("negative graded dimension")
        super().__init__(coefficients)

    def __getitem__(self, k):
        return self.coefficients[k]

    def __len__(self):
        return len(self.coefficients)


def molien_series(N):
    """Graded dimensions of the invariant ring up to t-degree N.

    Expands prod (1 - q^a t^b)^(-1) over the 22 variables as a t-adic
    series with Laurent-in-q coefficients, multiplies by (q^(-1) - q) and
    reads off the q^(-1) coefficient: for a t-coefficient c(q) this is
    c_0 - c_(-2).

    The coefficient at t-degree d is packed into one int, the count of
    q^e in slot e/2 + d of w bits.  Every q-weight is even and |a| <= 2b
    for every variable, so the exponents at t-degree d are even and lie in
    [-2d, 2d] (slots 0..2d), and the factor's recurrence new[d] = old[d] +
    q^a new[d-b] is a left shift of the packed new[d-b] by a/2 + b >= 0
    slots and an add.  A slot counts monomials of t-degree d with one
    q-weight, so it never exceeds m_d, the number of all monomials of
    t-degree d; with w = bitlen(max m_d) + 1 no slot carries into the
    next.  The m_d come from the same recurrence on plain ints for
    1/((1 - t^4)^9 (1 - t^6)^13).
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    monomials = [1] + [0] * N
    for b in U_WEIGHTS:
        for d in range(b, N + 1):
            monomials[d] += monomials[d - b]
    w = max(monomials).bit_length() + 1
    # coeff[d] = packed Laurent polynomial in q at t-degree d
    coeff = [1] + [0] * N
    for a, b in zip(Q_WEIGHTS, U_WEIGHTS):
        shift = (a // 2 + b) * w
        for d in range(b, N + 1):
            coeff[d] += coeff[d - b] << shift
    # q^(-2) sits in slot d - 1 and q^0 in slot d
    mask = (1 << w) - 1
    dims = [1]
    for d in range(1, N + 1):
        low = coeff[d] >> (d - 1) * w
        dims.append((low >> w & mask) - (low & mask))
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


def _raise(e):
    """D(u_{n-i,i}) = (i+1) u_{n-i-1,i+1}, the infinitesimal upper shear,
    on a monomial of one form given by its exponents e over u_{n,0}, ...,
    u_{0,n}: [(image exponents, coefficient)] in increasing i < n."""
    return [(e[:i] + (e[i] - 1, e[i + 1] + 1) + e[i + 2:], e[i] * (i + 1))
            for i in range(len(e) - 1) if e[i]]


def raising_table():
    """Images D(u_{n-i,i}) as {name: [(image name, coefficient)]}, the
    empty list for the two top coordinates."""
    return {name: [(names[img.index(1)], c) for img, c in _raise(tuple(int(v == name) for v in names))]
            for names in (U8_VARS, U12_VARS) for name in names}


def raising_operator(p):
    """Apply the raising derivation D to a polynomial given as {exponent
    tuple over U_VARS: coefficient}; returns D(p) the same way, without
    zero terms.  D raises torus weight by 2 and annihilates every
    invariant."""
    out = {}
    for mono, c in p.items():
        if len(mono) != len(U_VARS):
            raise ValueError("exponent vector of length %d, not %d" % (len(mono), len(U_VARS)))
        e8, e12 = mono[:9], mono[9:]
        images = [(img + e12, f) for img, f in _raise(e8)] + [(e8 + img, f) for img, f in _raise(e12)]
        for image, f in images:
            out[image] = out.get(image, 0) + f * c
    return {m: c for m, c in out.items() if c}


# -- monomial bases and the kernel oracle ----------------------------


@cache
def _form_buckets(qweights, total):
    """Every composition of `total` over one form's coefficients, whose
    q-weights are qweights, as {weight: [e, ...]}, each bucket in
    lexicographic order and the keys in increasing weight.  Parts are
    prepended from the last on, and the first takes what is left.
    Cached, and read directly by the oracle and through ``monomial_basis``
    by ``_raising_matrix``; the memo stays bounded because both refuse
    t-degrees above ORACLE_MAX_DEGREE, so they ask for octic degrees 0..7
    and duodecic degrees 0..5 only (14 entries, about 20,000
    compositions)."""
    level = [[((s,), s * qweights[-1])] for s in range(total + 1)]
    for qw in qweights[-2:0:-1]:
        level = [[((first,) + rest, q + first * qw) for first in range(s + 1) for rest, q in level[s - first]]
                 for s in range(total + 1)]
    buckets = {}
    for s in range(total, -1, -1):
        for rest, q in level[s]:
            buckets.setdefault(q + (total - s) * qweights[0], []).append((total - s,) + rest)
    return dict(sorted(buckets.items()))


def monomial_basis(tdegree, qweight):
    """Exponent vectors of the u-monomials of weighted t-degree tdegree
    and q-weight qweight, ordered by octic degree a8, then by octic
    q-weight q8, then lexicographically.

    Per split 4 a8 + 6 b12 = tdegree each form's compositions of its
    degree are taken from ``_form_buckets``, built once per form and
    degree for all splits, q-weights and t-degrees, and each octic bucket
    q8 is paired with the duodecic bucket qweight - q8.

    The order serves the elimination of the joint matrix in
    ``invariant_basis``.  D = D8 (x) 1 + 1 (x) D12 keeps a8, and a
    weight-2 row at octic weight q8 has its columns at q8 (D12) and q8 - 2
    (D8) only, so its rightmost column, where ``_echelon`` pivots, lies
    in its own q8 block, and a row's descending pass works down the chain
    q8, q8 - 2, ... block by block.  In plain lexicographic order the two
    blocks interleave and the pivots mix the chain's levels: at t-degree
    24 the pivot rows then hold 5950 entries, not 4724, and the
    elimination makes 92411 updates, not 57888."""
    out = []
    for a8 in range(tdegree // 4 + 1):
        b12, rem = divmod(tdegree - 4 * a8, 6)
        if rem:
            continue
        octic, duodecic = _form_buckets(Q_WEIGHTS[:9], a8), _form_buckets(Q_WEIGHTS[9:], b12)
        for q8, e8s in octic.items():
            e12s = duodecic.get(qweight - q8)
            if e12s:
                out.extend(e8 + e12 for e8 in e8s for e12 in e12s)
    return out


def _check_degree(tdegree):
    """Refuse t-degrees below 0 or above ORACLE_MAX_DEGREE, before anything
    is enumerated."""
    if tdegree < 0:
        raise ValueError("t-degree must be nonnegative")
    if tdegree > ORACLE_MAX_DEGREE:
        raise FeasibilityError("t-degree %d exceeds the oracle feasibility bound %d"
                               % (tdegree, ORACLE_MAX_DEGREE))


def _raising_matrix(tdegree):
    """D from V0 = monomial_basis(tdegree, 0) to V2 = monomial_basis(tdegree,
    2) as (v0, v2, rows), rows[i] mapping each column with a nonzero entry
    in row i to it, in column order.  D = D8 (x) 1 + 1 (x) D12 raises a
    column's octic part beside its duodecic part and vice versa, each
    distinct part once.  Refuses t-degrees below 0 or above
    ORACLE_MAX_DEGREE before enumerating."""
    _check_degree(tdegree)
    v0 = monomial_basis(tdegree, 0)
    v2 = monomial_basis(tdegree, 2)
    pos = {m: i for i, m in enumerate(v2)}
    rows = [{} for _ in v2]
    raised = cache(_raise)
    for j, m in enumerate(v0):
        e8, e12 = m[:9], m[9:]
        for img, c in raised(e8):
            rows[pos[img + e12]][j] = c
        for img, c in raised(e12):
            rows[pos[e8 + img]][j] = c
    return v0, v2, rows


_ORACLE_PRIMES = (2147483629, 2147483587, 2147483563, 2147483549, 2147483543, 2147483497)


class FeasibilityError(ValueError):
    pass


def _echelon(rows, p):
    """Row-reduce sparse rows (dicts column -> int) over F_p, or over Q on
    Fractions when p = 0.  Each row is reduced by the pivot rows found so
    far and, if anything is left, becomes a pivot row on its rightmost
    nonzero column, divided by that entry.  Returns {pivot column: the
    rest of its row}; every column of a pivot row lies left of its pivot,
    so the number of pivots is the rank.

    A row is eliminated in one descending pass (left-looking, as in
    Gilbert-Peierls): its columns sit in an ascending list, the largest is
    popped, and a pivot row only adds columns left of it, which go in by
    bisection, so no column is visited twice and the row is never
    rescanned for its maximum.  Mod p the reduction is lazy: an update
    subtracts f v with 0 <= f, v < p and neither reduces nor tests for
    zero; a popped entry is reduced once and skipped if it is 0 mod p, and
    a new pivot row keeps only its entries that are nonzero mod p.  An
    entry hit by k updates stays below its input plus k p^2, k being at
    most the number of pivot rows applied to its row; on the joint raising
    matrix mod the first oracle prime (p^2 < 2^62) k stays at most 102 and
    no entry passes 67 bits up to t-degree 30.  Over Q an entry that
    cancels to 0 is skipped the same way."""
    pivots = {}
    for row in rows:
        row = dict(row)
        cols = sorted(row)
        while cols:
            c = cols.pop()
            f = row.pop(c)
            if p:
                f %= p
            if not f:
                continue
            prow = pivots.get(c)
            if prow is None:
                if p:
                    inv = pow(f, -1, p)
                    pivots[c] = {j: x for j, v in row.items() if (x := v * inv % p)}
                else:
                    pivots[c] = {j: Fraction(v) / f for j, v in row.items() if v}
                break
            for j, v in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * v
                    insort(cols, j)
                else:
                    row[j] = x - f * v
    return pivots


def _kernel(pivots, ncols):
    """Basis of the kernel over Q of the echelon form ``_echelon(rows, 0)``
    of a matrix with ncols columns, one sparse vector (dict column ->
    Fraction) per free column, which it sets to 1."""
    reduced = {}
    for c in sorted(pivots):
        # every pivot column left of c is already reduced to free columns
        row = dict(pivots[c])
        for j in [j for j in row if j in pivots]:
            f = row.pop(j)
            for k, v in reduced[j].items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
        reduced[c] = row
    vecs = {j: {j: Fraction(1)} for j in range(ncols) if j not in pivots}
    for c, row in reduced.items():
        for j, v in row.items():
            vecs[j][c] = -v
    return list(vecs.values())


def _highest_weights(qweights, degree, top):
    """[h_0, h_2, ..., h_top] for the degree-`degree` compositions over one
    form's coefficients, whose q-weights are qweights: h_m is the number of
    copies of the irreducible Sym^m in that symmetric power, certified as
    the kernel of the raising operator D: W_m -> W_(m+2) between two of its
    weight buckets.

    D has integer entries, so rank_p(D) <= rank_Q(D) <= |W_(m+2)|, and full
    row rank mod a prime proves h_m = |W_m| - |W_(m+2)|.  A prime short of
    full rank is skipped; if every prime falls short this raises
    ArithmeticError rather than guess."""
    buckets = _form_buckets(qweights, degree)
    counts = []
    for m in range(0, top + 1, 2):
        source, target = buckets.get(m, []), buckets.get(m + 2, [])
        pos = {e: i for i, e in enumerate(target)}
        rows = [{} for _ in target]
        for j, e in enumerate(source):
            for img, c in _raise(e):
                rows[pos[img]][j] = c
        if not any(len(_echelon(rows, p)) == len(target) for p in _ORACLE_PRIMES):
            raise ArithmeticError(
                "raising operator on degree %d, weight %d lacks full row rank mod all %d oracle primes"
                % (degree, m, len(_ORACLE_PRIMES)))
        counts.append(len(source) - len(target))
    return counts


def invariant_dimension_oracle(d):
    """Exact dimension of the SL2-invariants at t-degree d, counted per
    split d = 4a + 6b by Clebsch-Gordan.

    The invariants of octic degree a and duodecic degree b are
    Hom(S^a Sym^8, S^b Sym^12)^SL2, as each Sym^m is self-dual, so by
    Schur's lemma they number sum_m h_m(S^a Sym^8) h_m(S^b Sym^12) over
    m = 0, 2, ..., min(8a, 12b), the highest weights the two share.  Each
    h_m is certified by ``_highest_weights`` from one form's raising
    matrix on one weight bucket, whose size is that form's alone.  Refuses
    t-degrees below 0 or above ORACLE_MAX_DEGREE before enumerating.
    """
    _check_degree(d)
    total = 0
    for a in range(d // 4 + 1):
        b, rem = divmod(d - 4 * a, 6)
        if not rem:
            top = min(8 * a, 12 * b)
            total += sum(x * y for x, y in zip(_highest_weights(Q_WEIGHTS[:9], a, top),
                                               _highest_weights(Q_WEIGHTS[9:], b, top)))
    return total


def invariant_basis(d):
    """Exact rational invariants at t-degree d, each as {exponent tuple
    over U_VARS: Fraction}: the kernel of the raising operator,
    eliminated over Q and read back as polynomials in the u-variables."""
    v0, _, rows = _raising_matrix(d)
    return [{v0[j]: c for j, c in vec.items()} for vec in _kernel(_echelon(rows, 0), len(v0))]
