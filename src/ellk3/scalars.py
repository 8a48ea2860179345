"""Exact coefficient domains: arbitrary-precision integers, normalized
rationals, and odd-prime residue fields.

Integers and ``fractions.Fraction`` are used as-is (the integers embed in
the rationals, so they may mix freely).  Mod-p residues are wrapped in
:class:`ModP`; mixing a residue with a rational, or residues of different
characteristic, is a :class:`DomainError` rather than a silent coercion.
"""

import re
from fractions import Fraction
from math import lcm


class DomainError(TypeError):
    """Raised when coefficient domains are mixed illegally."""


class InexactDivision(ArithmeticError):
    """Raised when an exact division leaves a remainder."""


# the moduli ModP has already found to be odd primes: after the first
# residue mod p, the check is one set lookup
_ODD_PRIMES = set()


class ModP:
    """Canonical residue in [0, p) for an odd prime p below PRIME_BOUND, the
    bound of ``is_prime``; the pinned prime of the mod-p checks is
    2**62 + 135.  A composite or even modulus is refused, since the
    resultant engine and the slice certificate divide mod p, and so is one
    too large to decide."""

    __slots__ = ("p", "v")

    def __init__(self, v, p):
        if type(p) is not int or p not in _ODD_PRIMES:
            if p < 3 or not is_prime(p):
                raise ValueError("modulus must be an odd prime, got %r" % (p,))
            _ODD_PRIMES.add(p)
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise DomainError("mixing residues mod %d and mod %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return ModP(other, self.p)
        raise DomainError("cannot mix %r with mod-%d residue" % (type(other).__name__, self.p))

    def __add__(self, other):
        other = self._coerce(other)
        return ModP(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return ModP(self.v - other.v, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        return ModP(other.v - self.v, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return ModP(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return ModP(-self.v, self.p)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** -e
        return ModP(pow(self.v, e, self.p), self.p)

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("inverse of 0 mod %d" % self.p)
        return ModP(pow(self.v, -1, self.p), self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self.inverse()

    def __eq__(self, other):
        # equal to an int only if it is v itself, so equal values hash alike
        if isinstance(other, ModP):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "ModP(%d, %d)" % (self.v, self.p)

    def __str__(self):
        return str(self.v)


def exact_scalar_div(a, b):
    """a / b in the common domain: ModP's or Fraction's own division, and for
    two ints an exact int quotient or InexactDivision."""
    if isinstance(a, (ModP, Fraction)) or isinstance(b, (ModP, Fraction)):
        return a / b
    q, r = divmod(a, b)
    if r:
        raise InexactDivision("%r not divisible by %r" % (a, b))
    return q


def clear_denominators(coeffs):
    """(ints, d): the coefficients (ints or Fractions) times d, the lcm of
    their denominators (1 for ints)."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def coefficient_domain(coeffs):
    """(p, rational): the modulus of any residue among the coefficients
    (0 if there is none) and whether any is a Fraction.  This and
    ``plain_ints`` and ``wrap_ints`` are the library's one rule for
    computing on plain ints: residues as their balanced representatives
    mod p, and over Q the numerators over the lcm of the denominators."""
    p, rational = 0, False
    for c in coeffs:
        if isinstance(c, ModP):
            if not p:
                p = c.p
            elif c.p != p:
                raise DomainError("mixing residues mod %d and mod %d" % (p, c.p))
        elif type(c) is int:
            # ahead of isinstance(c, Fraction), an ABC check ~15x slower
            pass
        elif isinstance(c, Fraction):
            rational = True
        elif not isinstance(c, int):
            raise DomainError("%s coefficients" % type(c).__name__)
    if p and rational:
        raise DomainError("cannot mix Fraction with mod-%d residues" % p)
    return p, rational


def plain_ints(coeffs, p, rational):
    """(ints, d): coefficients of the domain (p, rational) as plain ints,
    times d: residues as their representatives in (-p/2, p/2] (d = 1), so
    that a small int reduced mod p stays small, the numerators over d, the
    lcm of the denominators, over Q, and an all-int list as it is (d = 1)."""
    if p:
        reps = (c.v if isinstance(c, ModP) else c % p for c in coeffs)
        return [r - p if 2 * r > p else r for r in reps], 1
    return clear_denominators(coeffs) if rational else (coeffs, 1)


def wrap_ints(ints, p, rational, d=1):
    """The list ints / d in the domain (p, rational): residues mod p,
    Fractions over Q, and over Z the ints themselves (d = 1)."""
    if p:
        return [ModP(c, p) for c in ints]
    return [Fraction(c, d) for c in ints] if rational else ints


def reduce_scalar_mod(c, p):
    """Image of an integer or rational under the reduction map to F_p."""
    if isinstance(c, ModP):
        if c.p != p:
            raise DomainError("residue already lives mod %d" % c.p)
        return c
    if isinstance(c, int):
        return ModP(c, p)
    if isinstance(c, Fraction):
        if c.denominator % p == 0:
            raise ZeroDivisionError("denominator of %s vanishes mod %d" % (c, p))
        return ModP(c.numerator, p) * ModP(c.denominator, p).inverse()
    raise DomainError("cannot reduce %r mod %d" % (type(c).__name__, p))


def _digits(c):
    """str(c), exact for an int of any size: str() refuses ints past the
    interpreter's digit limit, which stays in force to guard parsing, and
    Decimal's conversion has no such limit."""
    try:
        return str(c)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(c))


def scalar_to_str(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return _digits(c.numerator)
        return "%s/%s" % (_digits(c.numerator), _digits(c.denominator))
    return _digits(c)


# the two written forms of a scalar: an integer and a fraction of integers
_SCALAR_FORM = re.compile(r"-?[0-9]+(/[0-9]+)?")


def scalar_from_str(s):
    """An int from "-?digits" or a Fraction from "-?digits/digits" (ASCII
    digits, nothing around them); any other string is a ValueError, and a
    zero denominator a ZeroDivisionError."""
    if not _SCALAR_FORM.fullmatch(s):
        raise ValueError("not an integer or p/q fraction: %r" % (s,))
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den)) if den else int(num)


# the first 13 primes as Miller-Rabin bases decide primality exactly below
# PRIME_BOUND (Sorenson & Webster 2015); the first 12 pass 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin, exact for every n below PRIME_BOUND =
    3317044064679887385961981; a larger n with no prime factor among the
    bases raises ValueError rather than guess, and a non-int n TypeError."""
    if not isinstance(n, int):
        raise TypeError("primality of a %s" % type(n).__name__)
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= PRIME_BOUND:
        raise ValueError("primality is decided only below %d" % PRIME_BOUND)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
