"""Sparse multivariate polynomials with exact coefficients: the ring
arithmetic, derivatives and substitutions of the tests' reference
derivation of the raising table; no other library module uses them.

Terms are a map from dense exponent tuples to nonzero scalars; sorted in
descending graded-lex order so output is byte-stable.
"""

from . import Record
from .scalars import DomainError


def _gradedlex_key(exp):
    # descending total degree, then descending lex
    return (-sum(exp), tuple(-e for e in exp))


class MultiPoly(Record):
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        clean = {}
        if terms:
            nvars = len(vars)
            for exp, c in terms.items():
                if len(exp) != nvars:
                    raise ValueError("exponent vector of wrong length")
                if c:
                    clean[tuple(exp)] = c
        super().__init__(vars, clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, c, vars):
        if not c:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exp: 1})

    # -- structure ----------------------------------------------------

    def _compat(self, other):
        if self.vars != other.vars:
            raise DomainError("variable lists differ: %r vs %r" % (self.vars, other.vars))

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

    def __repr__(self):
        return "MultiPoly(%r, %r)" % (self.vars, self.sorted_terms())

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.vars)
        self._compat(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return MultiPoly.zero(self.vars)
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
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
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def deriv(self, var):
        i = self.vars.index(var)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            e[i] -= 1
            terms[tuple(e)] = c * exp[i]
        return MultiPoly(self.vars, terms)

    def substitute_var(self, var, value):
        """Replace one variable by a scalar, returning a polynomial in the
        remaining variables."""
        i = self.vars.index(var)
        terms = {}
        for exp, c in self.terms.items():
            e = exp[:i] + exp[i + 1:]
            s = terms.get(e, 0) + c * _power(value, exp[i])
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MultiPoly(self.vars[:i] + self.vars[i + 1:], terms)


def _power(value, e):
    if e == 0:
        return 1
    return value ** e
