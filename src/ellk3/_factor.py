"""Factorization over Z of what the irreducibility certificate leaves
uncertified (Gathen & Gerhard, ch. 14-15), on the certificate's own
kernels.  ``elimination`` imports this module on first use, so a job whose
h the certificate proves irreducible never compiles it.

* Only a polynomial with no degree pattern in its trail (the certificate
  gave up at "singular bound") may have a square factor.  Yun's algorithm
  over Z (Yun 1976) splits it into squarefree parts, with gcds from the
  primitive PRS and every division an ``exact_quotient``.
* Each squarefree part the certificate does not prove irreducible is
  factored by Zassenhaus's method.  At the prime of its trail with the
  fewest factors, ``ddf_steps`` run to the end give the product of the
  factors of each degree mod p, and seeded equal-degree splitting (Cantor
  and Zassenhaus) splits those products.  A factor tree lifts the factors
  quadratically (Hensel) past the Mignotte bound, on Kronecker-packed
  products, and subsets of the lifted factors recombine, smallest first,
  filtered by the degree sums every pattern of the trail allows.

Every factor is an exact quotient over Z.  A part that no subset splits
is irreducible: a factor over Z reduces mod p to the product of a subset
of the factors mod p, and below the bound the lift recovers it exactly.
The cofactors of the Hensel lift come from an extended Euclid on lists,
since the packed kernel of ``elimination`` keeps none.
"""

import random
from itertools import combinations
from math import isqrt, prod

from .elimination import IRREDUCIBLE, ddf_steps, exact_quotient, irreducibility_certificate, poly_primitive, prem
from .scalars import is_prime

# equal-degree splitting draws from a generator seeded with this, so a
# factorization repeats exactly from run to run
SPLIT_SEED = 0


def factor_uncertified(f, trail):
    """[(irreducible primitive factor, multiplicity)] of a primitive f of
    degree >= 2 with f(0) != 0 (low-to-high ints) that the certificate,
    whose trail is given, did not prove irreducible; sorted by
    multiplicity, then degree, then coefficients."""
    if any(isinstance(o, tuple) for _, o in trail):
        parts = [(f, 1, trail)]  # a pattern proves f squarefree
    else:
        parts = [(a, m, None) for a, m in _yun(f) if len(a) > 1]
    factors = []
    for a, m, part_trail in parts:
        if part_trail is None:
            verdict, part_trail = irreducibility_certificate(a)
            if verdict == IRREDUCIBLE:
                factors.append((a, m))
                continue
        factors += [(g, m) for g in _zassenhaus(a, part_trail)]
    return sorted(factors, key=lambda fm: (fm[1], len(fm[0]), fm[0]))


# -- squarefree decomposition over Z ---------------------------------


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _exact(a, b):
    """a / b over Z, which must divide exactly."""
    q = exact_quotient(a, b)
    if q is None:
        raise AssertionError("a division in the squarefree decomposition is not exact")
    return q


def _gcd(a, b):
    """The primitive gcd, with positive leading coefficient, of a nonzero a
    and any b (low-to-high ints), by the primitive PRS: ``prem`` on
    high-to-low lists, each remainder divided by its content."""
    A, B = poly_primitive(a)[::-1], poly_primitive(b)[::-1]
    if len(A) < len(B):
        A, B = B, A
    while len(B) > 1:
        A, B = B, poly_primitive(prem(A, B)[::-1])[::-1]
    return [1] if B else A[::-1]


def _yun(f):
    """Yun's squarefree decomposition [(a_i, i)] of a primitive f with
    positive leading coefficient (Gathen & Gerhard, Alg. 14.21): f = prod
    a_i^i, the a_i primitive, squarefree and pairwise coprime, some of
    them [1]."""
    df = _derivative(f)
    g = _gcd(f, df)
    v, w = _exact(f, g), _exact(df, g)
    parts, i = [], 1
    while len(v) > 1:
        z = _add(w, [-c for c in _derivative(v)])
        a = _gcd(v, z)
        parts.append((a, i))
        v, w, i = _exact(v, a), _exact(z, a), i + 1
    return parts


# -- polynomials mod m: low-to-high lists of residues in [0, m) ---------


def _mul(a, b):
    """Product of low-to-high lists of nonnegative ints on one packed
    product (Kronecker): each w-byte slot holds min(len a, len b) max(a)
    max(b), bounded through bit lengths, so that a zero max(b) cannot
    shrink a slot below max(a)."""
    if not a or not b:
        return []
    w = (max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()) // 8 + 1
    A = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
    B = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in b]), "little")
    P = (A * B).to_bytes(w * (len(a) + len(b) - 1), "little")
    return [int.from_bytes(P[k:k + w], "little") for k in range(0, len(P), w)]


def _add(*polys):
    out = [0] * max(map(len, polys))
    for a in polys:
        for i, c in enumerate(a):
            out[i] += c
    return out


def _trim(a, m):
    """a mod m, without leading zeros."""
    a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _mulmod(a, b, m):
    return _trim(_mul(a, b), m)


def _divmod(a, h, m):
    """(q, r) with a = q h + r mod m and deg r < deg h, for a monic h."""
    dh = len(h) - 1
    r = list(a)
    q = [0] * max(0, len(r) - dh)
    tail = h[:-1]
    for k in range(len(r) - 1, dh - 1, -1):
        c = r[k] % m
        if c:
            lo = k - dh
            r[lo:k] = [x - c * y for x, y in zip(r[lo:k], tail)]
        q[k - dh] = c
    return _trim(q, m), _trim(r[:dh], m)


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _xgcd(a, b, p):
    """(g, s, t) with g the monic gcd of nonzero a and b mod a prime p and
    s a + t b = g: the monic Euclidean algorithm (Gathen & Gerhard, Alg.
    3.14)."""
    ia, ib = pow(a[-1], -1, p), pow(b[-1], -1, p)
    r0, s0, t0 = [c * ia % p for c in a], [ia], []
    r1, s1, t1 = [c * ib % p for c in b], [], [ib]
    while r1:
        q, r = _divmod(r0, r1, p)
        s = _trim(_add(s0, [-c for c in _mul(q, s1)]), p)
        t = _trim(_add(t0, [-c for c in _mul(q, t1)]), p)
        if r:
            inv = pow(r[-1], -1, p)
            r, s, t = [c * inv % p for c in r], [c * inv % p for c in s], [c * inv % p for c in t]
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, r, s, t
    return r0, s0, t0


def _powmod(a, e, g, p):
    """a^e mod g and p, for a monic g, by repeated squaring."""
    b = [1]
    while e:
        if e & 1:
            b = _divmod(_mul(b, a), g, p)[1]
        a = _divmod(_mul(a, a), g, p)[1]
        e >>= 1
    return b


# -- factors mod p -------------------------------------------------------


def _factor_mod(f, p):
    """The monic irreducible factors mod p of a monic f (low-to-high
    residues) that is squarefree mod p.  ``ddf_steps`` run to the end; its
    gcd at step i is the product of the factors of degrees dividing i, so
    the product of those of degree i is that gcd over the products of the
    degrees j | i, j < i, and what is left after the last step is one
    factor.  A product of more than one factor goes to
    ``_equal_degree``."""
    gcds = []
    for _ in ddf_steps(f, p, gcds):
        pass
    rng = random.Random(SPLIT_SEED)
    products, rest, factors = {}, f, []
    for i, g in enumerate(gcds, 1):
        g = _monic(g, p)
        for j, gj in products.items():
            if i % j == 0:
                g = exact_quotient(g, gj, p)
        if len(g) > 1:
            products[i] = g
            rest = exact_quotient(rest, g, p)
            factors += _equal_degree(g, i, p, rng)
    if len(rest) > 1:
        factors.append(rest)
    return factors


def _equal_degree(g, d, p, rng):
    """The monic factors of a monic g mod an odd prime p that is a product
    of distinct irreducibles of degree d (Cantor and Zassenhaus; Gathen &
    Gerhard, Alg. 14.8): for a random a, gcd(g, a^((p^d - 1)/2) - 1) is a
    proper factor with probability about 1/2."""
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        b = _trim(_add(_powmod(a, (p ** d - 1) // 2, g, p), [-1]), p)
        if not b:
            continue
        h = _xgcd(g, b, p)[0]
        if 1 < len(h) < len(g):
            return _equal_degree(h, d, p, rng) + _equal_degree(exact_quotient(g, h, p), d, p, rng)


# -- Hensel lifting and recombination ------------------------------------


def _hensel_step(f, g, h, s, t, m0, k, last):
    """One quadratic Hensel step (Gathen & Gerhard, Alg. 15.10) from m0 to
    m0 k, k | m0: from f = g h and s g + t h = 1 mod m0, h monic, to f = g
    h mod m0 k and, unless last, s g + t h = 1 mod m0 k.  The corrections
    are m0 times what the step computes mod k from the errors over m0."""
    m = m0 * k
    e = [c // m0 % k for c in _add(f, [-c for c in _mul(g, h)])]
    q, r = _divmod(_mulmod(s, e, k), h, k)
    g = _trim(_add(g, [m0 * c for c in _trim(_add(_mul(t, e), _mul(q, g)), k)]), m)
    h = _trim(_add(h, [m0 * c for c in r]), m)
    if last:
        return g, h, s, t
    b = [c // m0 % k for c in _add(_mul(s, g), _mul(t, h), [-1])]
    c, d = _divmod(_mulmod(s, b, k), h, k)
    s = _trim(_add(s, [-m0 * x for x in d]), m)
    t = _trim(_add(t, [-m0 * x for x in _trim(_add(_mul(t, b), _mul(c, g)), k)]), m)
    return g, h, s, t


def _lift(f, mods, p, l):
    """Monic factors mod p^l of a monic f mod p^l whose reductions mod p
    are the pairwise coprime monic mods, in the same order: a factor tree
    (Gathen & Gerhard, Alg. 15.17) split where the degrees balance, each
    node lifted by doubling the exponent of p up to l."""
    if len(mods) == 1:
        return [f]
    n, k, deg = len(f) - 1, 1, len(mods[0]) - 1
    while k < len(mods) - 1 and 2 * (deg + len(mods[k]) - 1) <= n:
        deg += len(mods[k]) - 1
        k += 1
    g, h = _product(mods[:k], p), _product(mods[k:], p)
    _, s, t = _xgcd(g, h, p)
    e = 1
    while e < l:
        step = min(e, l - e)
        g, h, s, t = _hensel_step(_trim(f, p ** (e + step)), g, h, s, t, p ** e, p ** step, e + step == l)
        e += step
    return _lift(g, mods[:k], p, l) + _lift(h, mods[k:], p, l)


def _product(polys, m):
    out = [1]
    for a in polys:
        out = _mulmod(out, a, m)
    return out


def _trail_sums(n, trail):
    """The factor-degree sums (a bitmask) that every pattern of a
    certificate trail for a polynomial of degree n allows: a full
    pattern's subset sums, and for a stopped prime (found, left, i) those
    of found with the rest as one factor, which is what the certificate
    intersected."""
    sums = (1 << n + 1) - 1
    for _, o in trail:
        if isinstance(o, tuple):
            found, left = (o[0], o[1]) if isinstance(o[0], tuple) else (o, 0)
            reach = 1
            for d in found:
                reach |= reach << d
            sums &= reach | reach << left
    return sums


def _choose_prime(f, trail):
    """The prime of the trail with the fewest factors (a stopped prime
    counts those found and one for the rest), the smaller on a tie; with
    no pattern in the trail, the first prime after those tried not
    dividing lc(f) mod which f is squarefree."""
    counted = [(len(o[0]) + (o[1] > 0) if isinstance(o[0], tuple) else len(o), p)
               for p, o in trail if isinstance(o, tuple)]
    if counted:
        return min(counted)[1]
    q = trail[-1][0] + 2 if trail else 3
    while True:
        if is_prime(q) and f[-1] % q and next(ddf_steps(_monic([c % q for c in f], q), q), None):
            return q
        q += 2


def _zassenhaus(f, trail):
    """The irreducible factors over Z, primitive with positive leading
    coefficients, of a squarefree primitive f of degree n >= 2 with f(0)
    != 0, given its certificate trail.

    Let q be f or a quotient of f by factors found, and g a factor of q of
    degree d.  Then (lc(q)/lc(g)) g has 1-norm at most 2^d M(q) <= 2^d
    M(f) <= 2^d ||f||_2 (Mignotte; M, the Mahler measure, is
    multiplicative and at least 1 on integer polynomials), and d is at
    most the largest proper degree sum the trail allows.  So once p^l
    exceeds twice that bound, lc(q) times the product of the lifted
    factors of g, read with residues in (-p^l/2, p^l/2], is (lc(q)/lc(g))
    g itself."""
    n = len(f) - 1
    sums = _trail_sums(n, trail)
    p = _choose_prime(f, trail)
    mods = _factor_mod(_monic([c % p for c in f], p), p)
    if len(mods) == 1:
        return [f]
    bound = 2 * 2 ** ((sums & ~(1 << n)).bit_length() - 1) * (isqrt(sum(c * c for c in f)) + 1)
    l, M = 1, p
    while M <= bound:
        l, M = l + 1, M * p
    return _recombine(f, _lift(_monic(_trim(f, M), M), mods, p, l), M, sums)


def _recombine(f, lifted, M, sums):
    """Zassenhaus's recombination (Gathen & Gerhard, Alg. 15.19): subsets
    of the lifted factors, smallest first and at most half of those left,
    whose degree and cofactor degree are allowed sums.  A subset whose
    lc(f) times product passes the constant-term test and divides f
    exactly over Z is a factor, and leaves with its lifted factors; what
    is left at the end is one more."""
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        n, b = len(f) - 1, f[-1]
        for subset in combinations(range(len(lifted)), size):
            d = sum(len(lifted[i]) - 1 for i in subset)
            if not (sums >> d & 1 and sums >> n - d & 1):
                continue
            c0 = _symmetric(b * prod(lifted[i][0] for i in subset) % M, M)
            if not c0 or b * f[0] % c0:
                continue
            g = poly_primitive([_symmetric(c, M) for c in _product([[b % M]] + [lifted[i] for i in subset], M)])
            q = exact_quotient(f, g)
            if q is not None:
                factors.append(g)
                f = q
                lifted = [a for i, a in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [f]


def _symmetric(c, M):
    """The representative of c mod M in (-M/2, M/2]."""
    return c - M if 2 * c > M else c
