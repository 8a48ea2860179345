"""Truncated Laurent series in q with exact rational coefficients, the
Eisenstein series E4 and E6 from their divisor-sum expansions, and the
nearly holomorphic form E4 / Delta = 1/q + 264 + 8244 q + 139520 q^2 +
... whose Borcherds lift is the weight-132 cusp form.

A product of two series is one big-int product (Kronecker substitution):
each factor's window, cleared of denominators, is packed into an int with
one signed coefficient per byte-aligned slot, and the slots are wide
enough that no coefficient of the product reaches half a slot, so its
balanced digits are the product's coefficients.

Note: the divisor-sum formula gives E6 = 1 - 504 q - 16632 q^2 - ...
(-504 * sigma_5(2) = -16632); see the README for the known misprint in
one published display of this coefficient.
"""

from fractions import Fraction
from math import gcd
from operator import mul

from . import Record
from .scalars import clear_denominators, scalar_to_str


class QSeries(Record):
    """coeffs[k] is the coefficient of q^(e0 + k); truncation order N is
    the largest retained exponent."""

    __slots__ = ("e0", "coeffs", "N")

    def __init__(self, e0, coeffs, N):
        coeffs = list(coeffs)
        if e0 + len(coeffs) - 1 != N:
            raise ValueError("coefficient window does not end at the truncation order")
        # normalize the leading exponent
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            e0 += 1
        super().__init__(e0, coeffs, N)

    @classmethod
    def zero(cls, N):
        return cls(N + 1, [], N)

    @classmethod
    def one(cls, N):
        return cls(0, [1] + [0] * N, N)

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, e):
        """Coefficient of q^e; reading beyond the truncation is an error."""
        if e > self.N:
            raise IndexError("coefficient q^%d is beyond the truncation order %d" % (e, self.N))
        if e < self.e0:
            return 0
        return self.coeffs[e - self.e0]

    def truncate(self, N):
        if N > self.N:
            raise ValueError("cannot extend a truncated series")
        if N < self.e0:
            return QSeries.zero(N)
        return QSeries(self.e0, self.coeffs[: N - self.e0 + 1], N)

    def __add__(self, other):
        N = min(self.N, other.N)
        e0 = min(self.e0 if self.coeffs else N + 1, other.e0 if other.coeffs else N + 1)
        if e0 > N:
            return QSeries.zero(N)
        out = [0] * (N - e0 + 1)
        for series in (self, other):
            for k, c in enumerate(series.coeffs):
                e = series.e0 + k
                if e <= N:
                    out[e - e0] += c
        return QSeries(e0, out, N)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        """Product with a scalar or a series.  A term q^(e0_a + i) *
        q^(e0_b + j) is reliable only while the partner sums are complete,
        so the product of two series is truncated at the smaller of
        N_a + e0_b and N_b + e0_a.

        Its n coefficients need only the first n of each factor.  Each
        factor is scaled by the lcm of its denominators to ints a_i, b_j
        and packed as sum a_i 2^(s i), s = 8 nb.  Every product
        coefficient c_k = sum a_i b_(k-i) has at most min(len a, len b)
        terms, so |c_k| <= min(len a, len b) max|a| max|b| < 2^(s-1) once
        8 nb - 1 reaches that bound's bit length; then the low n digits of
        the packed product, read as unsigned bytes, give back each c_k
        with one borrow pass.  The digits are divided by the two lcms once
        at the end, so integer series stay on ints."""
        if not isinstance(other, QSeries):
            if not other:
                return QSeries.zero(self.N)
            return QSeries(self.e0, [c * other for c in self.coeffs], self.N)
        if self.is_zero() or other.is_zero():
            return QSeries.zero(min(self.N, other.N))
        N = min(self.N + other.e0, other.N + self.e0)
        e0 = self.e0 + other.e0
        n = N - e0 + 1
        a, da = clear_denominators(self.coeffs[:n])
        b, db = clear_denominators(other.coeffs[:n])
        bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
        nb = bound.bit_length() // 8 + 1
        s = 8 * nb
        digits = ((_pack(a, nb) * _pack(b, nb)) & ((1 << s * n) - 1)).to_bytes(nb * n, "little")
        half, full = 1 << (s - 1), 1 << s
        out = []
        borrow = 0
        for k in range(0, nb * n, nb):
            c = int.from_bytes(digits[k : k + nb], "little") + borrow
            borrow = c >= half
            out.append(c - full if borrow else c)
        den = da * db
        if den != 1:
            out = [Fraction(c, den) for c in out]
        return QSeries(e0, out, N)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("use reciprocal for negative powers")
        result = self if k else QSeries.one(self.N)
        for _ in range(k - 1):
            result = result * self
        return result

    def reciprocal(self):
        """1/f for f with nonzero leading coefficient c; the result is
        truncated so that f * (1/f) = 1 holds up to its order.  With f = c
        + a_1 q + a_2 q^2 + ..., the k-th coefficient of 1/f is b_k /
        c^(k+1), where b_0 = 1 and b_k = -sum_j a_j c^(j-1) b_(k-j): the
        recurrence 1/f satisfies, scaled by c^(k+1).  On an integer series
        the b_k are ints, and each coefficient costs one division at the
        end, none for an int leader of +-1 (its own inverse), which keeps
        the reciprocal an integer series.

        Any other integer series first gives up its content g, the gcd of
        its coefficients: 1/f = (1/g) (1/(f/g)), so the recurrence runs on
        f/g, whose leader c0/g has smaller powers (none past +-1 for
        E4^3 - E6^2 = 1728 Delta), and the final division is by g too."""
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of the zero series")
        coeffs, content = self.coeffs, 1
        c0 = coeffs[0]
        unit = isinstance(c0, int) and c0 in (1, -1)
        if not unit and all(isinstance(a, int) for a in coeffs):
            content = gcd(*coeffs)
            coeffs = [a // content for a in coeffs]
            c0 = coeffs[0]
        n = self.N - self.e0  # number of known terms past the leading one
        scaled, power = [], 1  # scaled[j - 1] = a_j c0^(j-1)
        for a in coeffs[1:]:
            scaled.append(a * power)
            power *= c0
        b = [1]
        for _ in range(n):
            b.append(-sum(map(mul, scaled, reversed(b))))
        inv, power = [], c0
        for bk in b:
            inv.append(bk * power if unit else Fraction(bk, content * power))
            power *= c0
        e0 = -self.e0
        return QSeries(e0, inv, e0 + n)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def __repr__(self):
        return "QSeries(%s)" % self.to_str()

    def to_str(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs[:6]):
            if not c:
                continue
            e = self.e0 + k
            c = scalar_to_str(c)
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append("%s*q" % c)
            else:
                parts.append("%s*q^%d" % (c, e))
        return " + ".join(parts) + " + O(q^%d)" % (self.N + 1)


def _pack(ints, nb):
    """sum ints[i] 2^(8 nb i) for signed ints of at most 8 nb bits, from
    the byte strings of their positive and negative parts."""
    pos = b"".join((c if c > 0 else 0).to_bytes(nb, "little") for c in ints)
    neg = b"".join((-c if c < 0 else 0).to_bytes(nb, "little") for c in ints)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def eisenstein(k, N):
    """E4 or E6 from the divisor-sum expansion: coefficient of q^n is
    240 sigma_3(n) resp. -504 sigma_5(n), with every sigma_k(n), n <= N,
    from one divisor sieve."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    if k == 4:
        c, power = 240, 3
    elif k == 6:
        c, power = -504, 5
    else:
        raise ValueError("only E4 and E6 are provided, got k=%d" % k)
    sigma = [0] * (N + 1)
    for d in range(1, N + 1):
        dk = d ** power
        for n in range(d, N + 1, d):
            sigma[n] += dk
    return QSeries(0, [1] + [c * s for s in sigma[1:]], N)


def borcherds_input(N):
    """E4 / Delta = 1728 E4 / (E4^3 - E6^2), a Laurent series with leading
    term 1/q, truncated at q^N.

    Delta is E4^3 - E6^2 divided by 1728, exactly; its leading coefficient
    is 1, so its reciprocal, and the product with E4, stay on ints."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    M = N + 2
    e4 = eisenstein(4, M)
    disc = e4 ** 3 - eisenstein(6, M) ** 2  # = 1728 q - 41472 q^2 + ...
    delta = QSeries(disc.e0, [a // 1728 for a in disc.coeffs], M)
    return (e4 * delta.reciprocal()).truncate(N)
