"""Sparse multivariate polynomials with exact coefficients and an optional
per-variable integer weight table (the G_m-grading: weight 4 on the octic
coefficients, 6 on the duodecic ones).

Terms are a map from dense exponent tuples to nonzero scalars; printed and
iterated in descending graded-lex order so output is byte-stable.
"""

import re
from fractions import Fraction

from .scalars import DomainError, ModP, reduce_scalar_mod, scalar_from_str, scalar_to_str


def _gradedlex_key(exp):
    # descending total degree, then descending lex
    return (-sum(exp), tuple(-e for e in exp))


class MultiPoly:
    __slots__ = ("vars", "weights", "terms")
    __hash__ = None

    def __init__(self, vars, terms=None, weights=None):
        self.vars = tuple(vars)
        if weights is None:
            weights = (0,) * len(self.vars)
        self.weights = tuple(weights)
        if len(self.weights) != len(self.vars):
            raise ValueError("weight table length != variable count")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        clean = {}
        if terms:
            nvars = len(self.vars)
            for exp, c in terms.items():
                if len(exp) != nvars:
                    raise ValueError("exponent vector of wrong length")
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars, weights=None):
        return cls(vars, {}, weights)

    @classmethod
    def constant(cls, c, vars, weights=None):
        if not c:
            return cls.zero(vars, weights)
        return cls(vars, {(0,) * len(vars): c}, weights)

    @classmethod
    def variable(cls, name, vars, weights=None):
        vars = tuple(vars)
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exp: 1}, weights)

    # -- structure ----------------------------------------------------

    def _compat(self, other):
        if self.vars != other.vars:
            raise DomainError("variable lists differ: %r vs %r" % (self.vars, other.vars))
        if self.weights != other.weights:
            raise DomainError("weight tables differ")

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _gradedlex_key(kv[0]))

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        # scalar comparison
        if not other:
            return not self.terms
        return self.is_constant() and self.constant_term() == other

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.vars, self.weights)
        self._compat(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        out = MultiPoly(self.vars, None, self.weights)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly(self.vars, None, self.weights)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.vars, self.weights)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return MultiPoly.zero(self.vars, self.weights)
            out = MultiPoly(self.vars, None, self.weights)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._compat(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        out = MultiPoly(self.vars, None, self.weights)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(1, self.vars, self.weights)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- calculus / evaluation ---------------------------------------

    def deriv(self, var):
        i = self.vars.index(var)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            e[i] -= 1
            terms[tuple(e)] = c * exp[i]
        out = MultiPoly(self.vars, None, self.weights)
        out.terms = terms
        return out

    def evaluate(self, point):
        """Exact evaluation by a Horner scheme in the first variable,
        recursing over the rest."""
        if len(point) != len(self.vars):
            raise ValueError("point length %d != variable count %d" % (len(point), len(self.vars)))
        return _horner(self.terms, list(point))

    def substitute_var(self, var, value):
        """Replace one variable by a scalar, returning a polynomial in the
        remaining variables."""
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        rw = self.weights[:i] + self.weights[i + 1:]
        out = MultiPoly.zero(rest, rw)
        terms = {}
        for exp, c in self.terms.items():
            e = exp[:i] + exp[i + 1:]
            s = terms.get(e, 0) + c * _power(value, exp[i])
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out.terms = terms
        return out

    def weighted_degree(self):
        """(homogeneous?, degree) under the weight table; the zero
        polynomial has no defined degree."""
        if not self.terms:
            raise ValueError("weighted degree of the zero polynomial is undefined")
        degs = {sum(w * e for w, e in zip(self.weights, exp)) for exp in self.terms}
        if len(degs) == 1:
            return True, degs.pop()
        return False, None

    def reduce_mod(self, p):
        out = MultiPoly(self.vars, None, self.weights)
        terms = {}
        for exp, c in self.terms.items():
            r = reduce_scalar_mod(c, p)
            if r:
                terms[exp] = r
        out.terms = terms
        return out

    # -- text format --------------------------------------------------

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "MultiPoly(%s)" % self.to_str()

    def to_str(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = [scalar_to_str(c)]
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            parts.append(" * ".join(factors))
        return " + ".join(parts)


def _power(value, e):
    if e == 0:
        return 1
    return value ** e


def _horner(terms, point):
    if not terms:
        return 0
    if not point:
        return sum(terms.values())
    x, rest = point[0], point[1:]
    groups = {}
    for exp, c in terms.items():
        groups.setdefault(exp[0], {})[exp[1:]] = c
    # gap-aware Horner: highest exponent first, multiply by x**gap between steps
    acc = 0
    prev = None
    for e in sorted(groups, reverse=True):
        if prev is not None:
            acc = acc * _power(x, prev - e)
        acc = acc + _horner(groups[e], rest)
        prev = e
    if prev:
        acc = acc * _power(x, prev)
    return acc


_TERM_RE = re.compile(r"\s*\*\s*")
_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_{},]*)(?:\^(\d+))?$")


def parse_poly(text, vars, weights=None, p=None):
    """Parse the `c * v^e * ...` + ... text format.  Inverse of
    :meth:`MultiPoly.to_str` on canonical output."""
    vars = tuple(vars)
    index = {name: i for i, name in enumerate(vars)}
    out = MultiPoly.zero(vars, weights)
    text = text.strip()
    if text == "0" or not text:
        return out
    for raw_term in text.split("+"):
        raw_term = raw_term.strip()
        if not raw_term:
            raise ValueError("empty term in polynomial text")
        coeff = 1
        exp = [0] * len(vars)
        for factor in _TERM_RE.split(raw_term):
            m = _FACTOR_RE.match(factor)
            if m and m.group(1) in index:
                exp[index[m.group(1)]] += int(m.group(2) or 1)
            elif m:
                raise ValueError("unknown variable %r" % m.group(1))
            else:
                coeff = coeff * scalar_from_str(factor)
        if p is not None:
            coeff = reduce_scalar_mod(coeff, p)
        term = MultiPoly(vars, {tuple(exp): coeff}, weights)
        out = out + term
    return out
