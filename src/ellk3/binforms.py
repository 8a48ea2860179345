"""Homogeneous bivariate forms of declared degree in (x, w).

Coefficient entry i is the coefficient of x^(n-i) w^i.  Entries are exact
scalars, or any ring elements with +, * and truthiness that are only
substituted into (the tests' reference derivation of the raising table
has MultiPoly entries).  The zero form keeps its declared degree.

Forms are read-only :class:`Record`s: every operation returns a new form.
"""

from . import Record
from .scalars import coefficient_domain, plain_ints, reduce_scalar_mod, scalar_to_str, wrap_ints


class BinaryForm(Record):
    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        coeffs = list(coeffs)
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if len(coeffs) != n + 1:
            raise ValueError("degree-%d form needs %d coefficients, got %d" % (n, n + 1, len(coeffs)))
        super().__init__(n, coeffs)

    @classmethod
    def zero(cls, n):
        return cls(n, [0] * (n + 1))

    @classmethod
    def monomial(cls, n, i, c=1):
        """c * x^(n-i) w^i."""
        coeffs = [0] * (n + 1)
        coeffs[i] = c
        return cls(n, coeffs)

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("cannot add forms of degrees %d and %d" % (self.n, other.n))
        return BinaryForm(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            # on plain ints, wrapped once: every slot is in the factors' domain
            p, rational = coefficient_domain(self.coeffs + other.coeffs)
            (a, da), (b, db) = plain_ints(self.coeffs, p, rational), plain_ints(other.coeffs, p, rational)
            return BinaryForm(self.n + other.n, wrap_ints(_convolve(a, b), p, rational, da * db))
        return BinaryForm(self.n, [c * other for c in self.coeffs])

    def __rmul__(self, other):
        return BinaryForm(self.n, [other * c for c in self.coeffs])

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a form")
        out = BinaryForm(0, [1])
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def partials(self):
        """(df/dx, df/dw), both of degree n-1; Euler identity
        x f_x + w f_w = n f holds exactly."""
        if self.n < 1:
            raise ValueError("partials of a degree-0 form")
        return tuple(BinaryForm(self.n - 1, c) for c in _partials(self.coeffs))

    def substitute(self, mat):
        """(gamma . f)(x, w) = f(a x + b w, c x + d w) for gamma = [[a, b],
        [c, d]], by Horner: P_0 = c_0, P_k = P_(k-1) (a x + b w) + c_k (c x
        + d w)^k, and P_n is the result.  Right action: (gamma delta) . f =
        gamma . (delta . f)."""
        (a, b), (c, d) = mat
        out, power = self.coeffs[:1], [1]
        for ck in self.coeffs[1:]:
            out = _convolve([a, b], out)
            power = _convolve([c, d], power)
            if ck:
                # where the power is 0, adding c_k * 0 would only change the slot's type
                out = [u + ck * v if v else u for u, v in zip(out, power)]
        return BinaryForm(self.n, out)

    def evaluate(self, x0, w0):
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * x0 ** (self.n - i) * w0 ** i
        return acc

    def dehomogenize(self):
        """(P(x) = f(x, 1) as a low-to-high coefficient list, mult of w).

        The w-multiplicity is the order of vanishing at the infinity place
        [1:0]; for the zero form it is reported as None.
        """
        if self.is_zero():
            return [], None
        first = next(i for i, c in enumerate(self.coeffs) if c)
        # f = w^first * (c_first x^(n-first) + ... + c_n w^(n-first))
        dense = self.coeffs[first:]
        return list(reversed(dense)), first

    @classmethod
    def homogenize(cls, coeffs_low_to_high, n, wmult=0):
        """Inverse of dehomogenize: w^wmult * sum c_k x^k w^(n-wmult-k)."""
        d = len(coeffs_low_to_high) - 1
        if coeffs_low_to_high and not coeffs_low_to_high[-1]:
            raise ValueError("dense coefficient list has zero leading entry")
        if wmult + d != n:
            raise ValueError("dense degree %d plus w-multiplicity %d must equal %d" % (d, wmult, n))
        # term c_k x^k w^(n-wmult-d... ) * w^wmult; with d = n - wmult the
        # x-exponent of c_k is k, so it lands in entry n - k
        out = [0] * (n + 1)
        for k, c in enumerate(coeffs_low_to_high):
            out[n - k] = c
        return cls(n, out)

    def reduce_mod(self, p):
        return BinaryForm(self.n, [reduce_scalar_mod(c, p) for c in self.coeffs])

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "BinaryForm(%d, %s)" % (self.n, self.to_str())

    def to_str(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            factors = [scalar_to_str(c)]
            if self.n - i == 1:
                factors.append("x")
            elif self.n - i > 1:
                factors.append("x^%d" % (self.n - i))
            if i == 1:
                factors.append("w")
            elif i > 1:
                factors.append("w^%d" % i)
            parts.append(" * ".join(factors))
        return " + ".join(parts)


def _partials(coeffs):
    """(d/dx, d/dw) of the form with coefficients coeffs (entry i that of
    x^(n-i) w^i), as the n coefficients of each partial."""
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:n])], [c * (i + 1) for i, c in enumerate(coeffs[1:])]


def _convolve(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b:
                out[i + j] = out[i + j] + a * b
    return out

