"""Resultants, discriminants, univariate division, gcds and factorization.

Resultants of binary forms come from a dense polynomial remainder
sequence on plain Python ints.  Over Z and Q it is the subresultant PRS
(Collins 1967; Brown & Traub 1971; Cohen, Alg. 3.3.7) on pseudo-remainders
(``prem``), whose exact divisions keep the integers small: integer forms
after their contents are stripped, rational forms after their
denominators are cleared.  Over F_p the coefficients cannot grow, so
residue forms run Euclid's sequence on true remainders and collect the
powers of the leading coefficients that Res picks up.  The value is the
Sylvester determinant in the row convention of the displayed r96 matrix:
for f of degree m and g of degree n, n shifted rows of f's coefficients
and then m shifted rows of g's.  When w divides a form its dense degree
drops, and the place at infinity is put back by the homogeneous
correction in ``_res_dense``.

Euclid over F_p has one kernel, ``_euclid_mod``, for the mod-p resultant
and the certificate's gcds alike: a polynomial is one int with a
coefficient per b-bit slot, a remainder step is a few big-int operations,
and slots are reduced mod p only when a tracked bound says the next
division could overflow them (the width b grows with p and the degree).
For a small p the inverses come from a table kept per prime.

Univariate division is one long division on plain ints
(``poly_divmod``): mod m when lc(b) is a unit mod m, which covers F_p and
the Hensel lift's Z/p^k, or over Z, where it stops at the first leading
division that is not exact.  ``exact_quotient`` is its remainder test;
over Q it divides primitive parts, which Gauss's lemma makes exact
whenever the division over Q is.

Before a polynomial is factored over Q, its power of x splits off and an
exact certificate on plain ints tries to prove the rest irreducible:
distinct-degree factorizations mod small primes whose factor degrees
leave no room for a proper factor over Z (Musser 1978; Gathen & Gerhard,
ch. 14-15), each stopped once its next steps could not narrow the degrees
further.  The generic h = 4 g2^3 + 27 g3^2 passes.  Only a polynomial the
certificate gives up on goes on to ``_factor``, imported on first use:
Yun's squarefree decomposition where square factors are possible, and
Zassenhaus's method (factors mod the certificate's prime, Hensel lifting,
recombination within its degree sums) on the same kernels, each factor an
exact quotient over Z.
"""

from fractions import Fraction
from math import gcd

from .binforms import BinaryForm, _convolve, _partials
from .scalars import DomainError, clear_denominators, coefficient_domain, is_prime, plain_ints, wrap_ints

# sign/normalization conventions, fixed once and reported with Delta_264
# values so cross-implementation comparisons can reconcile scale
CONVENTION_TAG = "sylv=f-rows-then-g-rows;disc=res(df/dx,df/dw)"


# -- resultants and discriminants -----------------------------------


def resultant(f, g):
    """Res(f, g) of binary forms of declared degrees m and n: the Sylvester
    determinant, as an int, a Fraction or a ModP like the coefficients.
    A zero form gives the zero of that domain; a degree-0 form c gives
    c^(degree of the other).  The forms go to ``resultant_ints`` on plain
    ints, and the value is wrapped once."""
    p, rational = coefficient_domain(f.coeffs + g.coeffs)
    (a, da), (b, db) = plain_ints(f.coeffs, p, rational), plain_ints(g.coeffs, p, rational)
    # Res(da f, db g) = da^n db^m Res(f, g)
    return wrap_ints([resultant_ints(a, b, p)], p, rational, da ** g.n * db ** f.n)[0]


def resultant_ints(a, b, p=0):
    """The engine's one entry: Res of the forms with high-to-low int
    coefficient lists a and b of declared degrees len - 1, over Z (p = 0)
    or mod a prime p, reduced first, as a residue in [0, p); 0 for a zero
    form."""
    if p:
        a, b = [c % p for c in a], [c % p for c in b]
    if not any(a) or not any(b):
        return 0
    return _res_dense(a, b, p)


def discriminant_binary(f):
    """disc(f) := Res(df/dx, df/dw), the resultant of the two partials;
    homogeneous of coefficient-degree 2(n-1), vanishing iff f has a
    repeated root.  The partials are taken on plain ints, and the value is
    wrapped once."""
    if f.n < 2:
        raise ValueError("discriminant needs degree >= 2")
    p, rational = coefficient_domain(f.coeffs)
    a, d = plain_ints(f.coeffs, p, rational)
    # each partial of d f carries d: Res picks up d^(n-1) d^(n-1)
    return wrap_ints([resultant_ints(*_partials(a), p)], p, rational, d ** (2 * f.n - 2))[0]


def _res_dense(a, b, p):
    """Res of two nonzero forms given as high-to-low int coefficient lists
    of their declared degrees, over Z (p = 0) or mod a prime p."""
    ka = next(i for i, c in enumerate(a) if c)
    kb = next(i for i, c in enumerate(b) if c)
    if ka and kb:
        # w divides both forms: the Sylvester matrix's first column is zero
        return 0
    if ka:
        # w^ka | f: Res(f, g) = (-1)^(n ka) lc(g)^ka Res(f / w^ka, g)
        scale = (-1) ** ((len(b) - 1) * ka) * b[0] ** ka
        a = a[ka:]
    else:
        # w^kb | g (kb may be 0): Res(f, g) = lc(f)^kb Res(f, g / w^kb)
        scale = a[0] ** kb
        b = b[kb:]
    if p:
        return scale * _euclid_resultant(a, b, p) % p
    return scale * _prs_resultant(a, b)


def _prs_resultant(A, B):
    """Res(A, B) over Z of dense polynomials (high-to-low int lists with
    nonzero leading coefficients) by the subresultant PRS; every division
    below is exact."""
    dA, dB = len(A) - 1, len(B) - 1
    if not dA or not dB:
        return A[0] ** dB * B[0] ** dA
    ca, cb = gcd(*A), gcd(*B)
    if ca != 1:
        A = [c // ca for c in A]
    if cb != 1:
        B = [c // cb for c in B]
    t = ca ** dB * cb ** dA
    s = 1
    if dA < dB:
        A, B, dA, dB = B, A, dB, dA
        if dA & dB & 1:
            s = -1
    g = h = 1
    while True:
        delta = dA - dB
        if dA & dB & 1:
            s = -s
        R = prem(A, B)
        if not R:
            return 0
        d = g * h ** delta
        if d != 1:
            R = [c // d for c in R]
        A, B, dA, dB = B, R, dB, len(R) - 1
        g = A[0]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g ** delta // h ** (delta - 1)
        if not dB:
            return s * t * (B[0] ** dA // h ** (dA - 1))


def _euclid_resultant(A, B, p):
    """Res(A, B) mod a prime p of dense residue polynomials (high-to-low
    int lists with nonzero leading coefficients), read off the degrees d_i
    and leading coefficients of Euclid's sequence r_0 = A, r_1 = B, ...
    from ``_euclid_mod``, packed.  With r_(i+1) = r_(i-1) mod r_i,

        Res(r_(i-1), r_i) = (-1)^(d_(i-1) d_i) lc(r_i)^(d_(i-1) - d_(i+1)) Res(r_i, r_(i+1))

    (a swap with its sign when d_(i-1) < d_i), and the sequence ends in a
    constant c, Res(r_(k-1), c) = c^(d_(k-1)), or in a common factor."""
    b = _slot_bits(p, max(len(A), len(B)) - 1)
    seq = _euclid_mod(_pack(A, b), len(A) - 1, _pack(B, b), len(B) - 1, p, b, p - 1)
    if seq[-1][0]:
        return 0
    r = 1
    for (dA, _, _), (dB, lB, _), (dR, _, _) in zip(seq, seq[1:], seq[2:]):
        if dA & dB & 1:
            r = -r
        r = r * pow(lB, dA - dR, p) % p
    return r * pow(seq[-1][1], seq[-2][0], p) % p


def prem(A, B):
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) A mod B of high-to-low
    int lists: one step of the subresultant PRS."""
    lb, tail, nb = B[0], B[1:], len(B)
    e = len(A) - nb + 1
    R = A
    while len(R) >= nb:
        c = R[0]
        R = [lb * r - c * t for r, t in zip(R[1:nb], tail)] + [lb * r for r in R[nb:]]
        e -= 1
        while R and not R[0]:
            del R[0]
    if e and R:
        m = lb ** e
        R = [r * m for r in R]
    return R


# -- Euclid over F_p on packed ints ----------------------------------


def _slot_bits(p, n):
    """Slot width b for residue polynomials mod p of degree at most n, a
    whole number of bytes so that ``_pack`` is one ``int.from_bytes``.  A
    slot must hold (n + 1)^2 p^4, which bounds ``degree_pattern``'s row
    combinations and one division of reduced polynomials in
    ``_euclid_mod``, so no fixed width is safe for every p.  The factor
    p^2 2^64 on top lets the slot bound grow, by about k p per division of
    k steps, through several divisions before a reduction."""
    return -(-(((n + 1) ** 2 * p**6).bit_length() + 64) // 8) * 8


def _pack(cs, b):
    """The nonnegative ints cs (high-to-low coefficients) in b-bit slots of
    one int, the leading one in the lowest slot; b is a multiple of 8."""
    w = b // 8
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")


def _unpack(X, n, p, b):
    """The first n slots of X, each reduced mod p: high-to-low residues."""
    m = (1 << b) - 1
    return [(X >> s & m) % p for s in range(0, b * n, b)]


# each prime below this bound gets a table of negated inverses, built once;
# a larger p, such as the resultant's 2^62 + 135, inverts with pow
INVERSE_TABLE_BOUND = 1 << 12
_NEG_INVERSES = {}


def _neg_inverses(p):
    """The residues -1/i mod a prime p for i < p (0 at i = 0), built on
    first use by 1/i = -(p // i) / (p mod i) and kept."""
    table = _NEG_INVERSES.get(p)
    if table is None:
        inv = [0, 1]
        for i in range(2, p):
            inv.append(-(p // i) * inv[p % i] % p)
        table = _NEG_INVERSES[p] = [-v % p for v in inv]
    return table


def _euclid_mod(A, da, B, db, p, b, m):
    """Euclid's sequence mod a prime p, r_0 = A, r_1 = B, r_(i+1) = r_(i-1)
    mod r_i, as (degree, leading coefficient, packed r_i) up to the first
    zero remainder or a constant; a zero r_0 is (-1, 0, 0), and the last
    entry is the gcd up to a unit.  A and B come packed (``_pack``, width
    b = ``_slot_bits(p, n)``, n >= da, db), every slot a nonnegative
    representative, at most m, of its residue: A of degree da (a leading
    slot nonzero mod p, or A = 0 and da = -1), B of degree at most db.

    A step adds c B to A, with c = -lc(A)/lc(B) mod p, and shifts out A's
    leading slot, now a multiple of p.  Slot bound: if A's slots are at
    most ma and B's at most mb, a division's k = dA - dB + 1 steps add at
    most k (p - 1) mb to a slot.  While ma + k (p - 1) mb < 2^b no slot
    carries, so every sum and shift is exact slot by slot; otherwise A,
    then if need be B, is first reduced mod p, after which the sum is at
    most (p - 1) + (n + 1) (p - 1)^2 < 2^b by ``_slot_bits``.  For p below
    INVERSE_TABLE_BOUND the inverse of lc(B) is read from ``_neg_inverses``."""
    mask = (1 << b) - 1
    ma = mb = m
    neg_inv = _neg_inverses(p) if p < INVERSE_TABLE_BOUND else None
    seq = [(da, (A & mask) % p, A)]
    while True:
        while db >= 0 and not (lb := (B & mask) % p):
            B >>= b
            db -= 1
        if db >= 0:
            seq.append((db, lb, B))
        if db <= 0:
            return seq
        k = da - db + 1
        if k > 0:
            if ma + k * (p - 1) * mb > mask:
                A, ma = _pack(_unpack(A, da + 1, p, b), b), p - 1
                if ma + k * (p - 1) * mb > mask:
                    B, mb = _pack(_unpack(B, db + 1, p, b), b), p - 1
            ma += k * (p - 1) * mb
            inv = neg_inv[lb] if neg_inv else p - pow(lb, -1, p)
            for _ in range(k):
                c = (A & mask) * inv % p
                if c:
                    A += c * B
                A >>= b
            da -= k
        A, da, ma, B, db, mb = B, db, mb, A, da, ma


# -- univariate helpers (dense low-to-high lists) --------------------


def poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_divmod(a, b, m=0):
    """(q, r) with a = q b + r and deg r < deg b, for low-to-high int
    lists: the one long division.  Mod m > 0, q and r are residues, and
    lc(b) must be a unit mod m: any nonzero residue mod a prime, and 1 mod
    p^k for the Hensel lift.  a may be unreduced: a slot is reduced when it
    leads, and the remainder's slots at the end.  Over Z (m = 0) the
    division returns None at the first leading division that is not exact.
    A divisor that is zero (mod m) raises ZeroDivisionError."""
    b = poly_trim([c % m for c in b] if m else list(b))
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    db, lb, tail = len(b) - 1, b[-1], b[:-1]
    r = list(a)
    q = [0] * max(0, len(r) - db)
    inv = pow(lb, -1, m) if m else None
    for k in range(len(r) - 1, db - 1, -1):
        if m:
            c = r[k] * inv % m
        else:
            c, rem = divmod(r[k], lb)
            if rem:
                return None
        if c:
            lo = k - db
            r[lo:k] = [x - c * y for x, y in zip(r[lo:k], tail)]
            q[lo] = c
    return poly_trim(q), poly_trim([c % m for c in r[:db]] if m else r[:db])


def poly_monic(a, p):
    """The monic associate of a mod p, as residues; lc(a) must be a unit."""
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def exact_quotient(a, b, p=0):
    """The quotient a / b of low-to-high int lists when b divides a, and
    None when it does not, by ``poly_divmod``: mod a prime p on residues,
    or over Z, where the division stops at the first leading division
    that is not exact.  When b is primitive this decides divisibility over
    Q as well: by Gauss's lemma a primitive b that divides a in Q[x]
    divides it in Z[x] (Gathen & Gerhard, sec. 6.2)."""
    qr = poly_divmod(a, b, p)
    return None if qr is None or qr[1] else qr[0]


def poly_primitive(a):
    """Primitive integer polynomial proportional to a (a over Q or Z),
    with positive leading coefficient."""
    a = poly_trim(list(a))
    if not a:
        return []
    a, _ = clear_denominators(a)
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // g for c in a]


# -- irreducibility from mod-p factor-degree patterns (plain ints) -----

# primes the certificate tries, in order: 2 is left out, since h = 4 g2^3
# + 27 g3^2 is the square g3^2 mod 2
CERT_PRIMES = tuple(q for q in range(3, 400) if is_prime(q))
# the certificate gives up after this many degree patterns, or when f is
# not squarefree modulo this many primes before the first pattern: a square
# factor over Q stays one mod every prime, while h is g2^3 mod 3 and often
# singular mod 5 or 7 too
CERT_MAX_PATTERNS = 10
CERT_MAX_SINGULAR = 5

IRREDUCIBLE = "irreducible"


def ddf_steps(f, p, gcds=None):
    """The distinct-degree factorization mod p (Gathen & Gerhard, Alg.
    14.3) of a monic polynomial f of degree n, given as low-to-high
    residues, step by step: nothing when f is not squarefree mod p, else
    (0, 0, n) and then, after the gcd of step i, (i, r_i, left), with r_i
    factors of degree i and the factors of degree > i adding up to left.
    The steps end once twice the next degree exceeds left, what is left
    being one factor (or none); a caller may stop sooner.  A list gcds
    receives, at step i, gcd(f, x^(p^i) - x) as low-to-high residues up to
    a unit: the product of f's factors of degrees dividing i.

    Polynomials of degree < n are packed into one int each as
    ``_euclid_mod`` takes them; f is squarefree when Euclid's sequence of
    f and f' ends in a constant.  The Frobenius rows x^(p j) mod f, j < n,
    come from stepping x^k to x^(k+1) by a shift and one multiple of x^n
    mod f, so their cost grows like p n^2 (small p only).  Step 1 needs
    x^p mod f alone; the other rows are built when step 2 is asked for,
    and each x^(p^i) is then one combination of them.  N_i = deg gcd(f,
    x^(p^i) - x) = sum of j r_j over the divisors j of i gives r_i, and f
    is never divided.  Slot bound: a shift step adds at most (p - 1)^2 to
    a slot, so a row, at most (n - 1) p steps from x^0, has slots at most
    1 + (n - 1) p (p - 1)^2, and x^(p^i) - x, a combination of rows with
    residues, stays below n^2 p^4 (``_slot_bits``); it goes to the gcd
    unreduced."""
    n = len(f) - 1
    b = _slot_bits(p, n)
    F = _pack(f[::-1], b)
    dF = _pack([i * c % p for i, c in enumerate(f)][:0:-1], b)  # f'
    if _euclid_mod(F, n, dF, n - 1, p, b, p - 1)[-1][0]:
        return
    yield 0, 0, n
    mask = (1 << b) - 1
    tail = _pack([-c % p for c in reversed(f[:-1])], b)  # x^n = tail mod f
    X = 1 << b * (n - 1)
    rows = [X]  # x^(p j) mod f for j = 0, 1, ...
    bound = n * (p - 1) * (1 + (n - 1) * p * (p - 1) ** 2) + p - 1
    counts, left, i = [0], n, 0
    while 2 * (i + 1) <= left:
        i += 1
        while len(rows) < (2 if i == 1 else n):
            for _ in range(p):
                X = (X >> b) + (X & mask) % p * tail
            rows.append(X)
        # x^(p^i) = H(x)^p = H(x^p) mod f, with H = x^(p^(i-1)) unpacked
        H = sum(c * row for c, row in zip(_unpack(H, n, p, b), reversed(rows)) if c) if i > 1 else X
        xpx = H + ((p - 1) << b * (n - 2))  # x^(p^i) - x
        N, _, G = _euclid_mod(F, n, xpx, n - 1, p, b, bound)[-1]
        if gcds is not None:
            gcds.append(_unpack(G, N + 1, p, b)[::-1])
        counts.append((N - sum(j * counts[j] for j in range(1, i) if i % j == 0)) // i)
        left -= i * counts[i]
        yield i, counts[i], left


def degree_pattern(f, p):
    """Degrees of the irreducible factors mod p of a monic polynomial f,
    given as low-to-high residues, in ascending order, or None when f is
    not squarefree mod p: every step of ``ddf_steps``, and what is left at
    the end as one factor."""
    pattern, left = [], None
    for i, r, left in ddf_steps(f, p):
        pattern += [i] * r
    if left is None:
        return None
    return pattern + [left] if left else pattern


def irreducibility_certificate(f):
    """Try to prove a primitive integer polynomial f of degree n >= 1
    (low-to-high) irreducible over Q from its factor-degree patterns mod
    the primes in CERT_PRIMES (Musser 1978).  Returns (verdict, trail,
    sums, prime): the verdict is IRREDUCIBLE or the reason the certificate
    gave up; sums is a bitmask with bit d set while a factor of degree d is
    still possible; prime is the pattern prime with the fewest factors (a
    stopped prime counts those found and one for the rest), the smaller on
    a tie, or None when no prime gave a pattern; and the trail has one (p,
    outcome) per prime tried, the outcome being the reason p was skipped,
    the pattern, or a truncated pattern:

    * "lc": p divides the leading coefficient, so f's degree drops mod p;
    * "singular": f is not squarefree mod p, for which ``ddf_steps`` of
      f's monic reduction yields nothing;
    * (found, left, i): the prime stopped after step i of ``ddf_steps``,
      with the degrees found (ascending) and the rest of degree left.

    Why a pattern proves something: if f = g k over Z with 0 < deg g < n
    (Gauss), then mod a prime p not dividing lc(f) the reduction of g
    keeps its degree and divides f mod p, so when f mod p is squarefree
    deg g is a sum of some of that prime's factor degrees.  The
    certificate intersects the achievable sums of every pattern; once only
    0 and n are left, f is irreducible.  Any one prime that passes both
    checks also proves f squarefree over Q, since a square factor of f
    would stay a square factor mod p.  Reducible f are never certified;
    they and the unlucky ones end in "pattern bound" (CERT_MAX_PATTERNS
    patterns), "singular bound" (CERT_MAX_SINGULAR singular primes before
    any pattern; after one, f is known squarefree and a singular prime is
    only skipped) or "primes exhausted".

    A prime stops early.  After step i its pattern reaches at most the
    sums the found degrees allow with the rest split into parts of degree
    > i, and at least those with the rest one factor.  Once both meet the
    sums so far in the same set (at the last step they agree), that set is
    the full pattern's, and no further step can change it.  So verdicts,
    primes tried and sums are those of full patterns, and a prime costs no
    division mod p."""
    n = len(f) - 1
    full = 1 | 1 << n
    sums = (1 << n + 1) - 1
    trail = []
    patterns = singular = 0
    fewest = (n + 1, None)  # (factors, prime); no prime has n + 1 factors
    for p in CERT_PRIMES:
        if not f[-1] % p:
            trail.append((p, "lc"))
            continue
        found, reach = [], 1
        for i, r, left in ddf_steps(poly_monic(f, p), p):
            found += [i] * r
            for _ in range(r):
                reach |= reach << i
            least = allowed = reach | reach << left
            for d in range(i + 1, left - i):
                allowed |= reach << d
            if sums & allowed == sums & least:
                break
        else:  # no step at all, as the last step always breaks
            trail.append((p, "singular"))
            if not patterns:
                singular += 1
                if singular == CERT_MAX_SINGULAR:
                    return "singular bound", trail, sums, None
            continue
        if 2 * i + 2 > left:
            trail.append((p, tuple(found + [left] if left else found)))
        else:
            trail.append((p, (tuple(found), left, i)))
        fewest = min(fewest, (len(found) + (left > 0), p))
        sums &= least
        if sums == full:
            return IRREDUCIBLE, trail, sums, fewest[1]
        patterns += 1
        if patterns == CERT_MAX_PATTERNS:
            return "pattern bound", trail, sums, fewest[1]
    return "primes exhausted", trail, sums, fewest[1]


# -- squarefree and irreducible factors ------------------------------


def _irreducible_factors(dense):
    """[(irreducible primitive integer factor, multiplicity)] of a nonzero
    polynomial over Q (a constant has none): x^k splits off first, as [0,
    1] with multiplicity k, then the rest is one factor when the mod-p
    certificate proves it irreducible, and otherwise ``_factor`` splits it
    over Z, imported here on first use."""
    prim = poly_primitive(dense)
    k = next((i for i, c in enumerate(prim) if c), 0)
    factors = [([0, 1], k)] if k else []
    rest = prim[k:]
    if len(rest) > 1:
        verdict, _, sums, prime = irreducibility_certificate(rest)
        if verdict == IRREDUCIBLE:
            factors.append((rest, 1))
        else:
            from . import _factor

            factors += _factor.factor_uncertified(rest, sums, prime)
    return factors


def squarefree_decomposition(a):
    """Squarefree decomposition over Q: [(primitive integer factor,
    multiplicity)] with pairwise coprime squarefree factors, each
    low-to-high with positive leading coefficient, in ascending
    multiplicity.  Each is the product of the irreducible factors of that
    multiplicity, so the certificate comes first here too."""
    parts = {}
    for fac, mult in _irreducible_factors(a):
        parts[mult] = _convolve(parts.get(mult, [1]), fac)
    return [(parts[mult], mult) for mult in sorted(parts)]


# -- gcd and factor bookkeeping for binary forms ---------------------


def gcd_and_squarefree(f):
    """Factor a nonzero binary form over Q:

        f = unit * w^e_inf * prod p_i(x, w)^(e_i)

    with p_i monic irreducible in the dehomogenized variable.  Returns
    (unit, [(BinaryForm factor, multiplicity)]); the place at infinity
    [1:0] appears as the factor w like any other.  The factors come in a
    fixed order: w, then x, then the factors of f(x, 1) / x^k by
    ascending multiplicity, degree and primitive coefficients (low to
    high); a rest that ``irreducibility_certificate`` proves irreducible
    is one factor.
    """
    if p := coefficient_domain(f.coeffs)[0]:
        raise DomainError("factoring works over Q, not on residues mod %d" % p)
    if f.is_zero():
        raise ValueError("cannot factor the zero form")
    dense, winf = f.dehomogenize()
    factors = []
    if winf:
        factors.append((BinaryForm.homogenize([1], 1, 1), winf))
    for irr, mult in _irreducible_factors(dense):
        monic = [Fraction(c, irr[-1]) for c in irr]
        factors.append((BinaryForm.homogenize(monic, len(irr) - 1), mult))
    # monic factors absorb everything but the leading coefficient of f(x, 1)
    unit = Fraction(dense[-1])
    total = sum(form.n * mult for form, mult in factors)
    if total != f.n:
        raise AssertionError("factor degrees sum to %d, expected %d" % (total, f.n))
    return unit, factors


def factor_multiplicity(f, factor):
    """Multiplicity of an irreducible factor (a BinaryForm) in the form f;
    the zero form contains every factor infinitely often (returns None).
    Scaling changes no multiplicity, so the primitive part of f(x, 1) is
    divided by the primitive part of the factor's, on ints and exactly
    over Q by Gauss's lemma, until a division fails.  Residues raise
    DomainError, and a constant or zero factor ValueError."""
    if p := coefficient_domain(f.coeffs + factor.coeffs)[0]:
        raise DomainError("factoring works over Q, not on residues mod %d" % p)
    if factor.n < 1 or factor.is_zero():
        raise ValueError("a factor must be a nonzero form of positive degree: %s" % factor)
    if f.is_zero():
        return None
    dense, winf = f.dehomogenize()
    fd, fw = factor.dehomogenize()
    if fw:
        # the factor is w itself (times a unit)
        return winf
    mult, cur, fd = 0, poly_primitive(dense), poly_primitive(fd)
    while (cur := exact_quotient(cur, fd)) is not None:
        mult += 1
    return mult
