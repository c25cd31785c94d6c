"""Multivariate polynomials with exact rational coefficients.

Structure constants of the algebras handled here are polynomials in the two
bracket indices and the algebra parameters, so this is the one symbolic type
the engine needs.  Terms live in a dict keyed by monomial, where a monomial
is a sorted tuple of (variable, exponent) pairs with positive exponents; zero
coefficients are never stored, and the zero polynomial is the empty dict.
That makes structural equality coincide with mathematical equality, which is
what the symbolic Jacobi check and the parser round-trip lean on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .rational import _Frozen

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable name
Scalar = Union[Fraction, int]


def _as_fraction(value) -> Fraction:
    if isinstance(value, (Fraction, int)):  # a Fraction is immutable: no copy
        return value if type(value) is Fraction else Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    exps: dict = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


class IndexPolynomial(_Frozen):
    """Immutable polynomial over Fraction in named variables."""

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff:
                    cleaned[tuple(mono)] = coeff
        self.__dict__.update(_terms=cleaned)

    @classmethod
    def constant(cls, value: Scalar) -> "IndexPolynomial":
        value = _as_fraction(value)
        return cls({(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "IndexPolynomial":
        if not name:
            raise ValueError("empty variable name")
        return cls({((name, 1),): Fraction(1)})

    def term_items(self) -> list:
        return list(self._terms.items())

    def variables(self) -> frozenset:
        return frozenset(var for mono in self._terms for var, _ in mono)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get((), Fraction(0))

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at an exact point.  The assignment may bind extra
        variables, but every variable appearing in the polynomial must be
        bound.  The sum is kept as one integer numerator and denominator,
        and one Fraction is built per call, at the end."""
        total, scale = 0, 1
        for mono, coeff in self._terms.items():
            num, den = coeff.numerator, coeff.denominator
            for var, exp in mono:
                if var not in assignment:
                    raise ValueError(f"unbound variable {var!r}")
                value = assignment[var]
                if type(value) is not int:
                    value = _as_fraction(value)
                num *= value.numerator**exp
                den *= value.denominator**exp
            if den == scale:
                total += num
            else:
                total, scale = total * den + num * scale, scale * den
        return Fraction(total, scale)

    # arithmetic

    def __add__(self, other) -> "IndexPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, Fraction(0)) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return IndexPolynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "IndexPolynomial":
        return IndexPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mul_monomials(m1, m2)
                new = terms.get(mono, Fraction(0)) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    terms.pop(mono, None)
        return IndexPolynomial(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division only by a nonzero rational constant."""
        if isinstance(other, IndexPolynomial):
            if not other.is_constant():
                raise ValueError("division by a non-constant polynomial")
            other = other.constant_value()
        other = _as_fraction(other)
        if not other:
            raise ZeroDivisionError("division by zero")
        return IndexPolynomial({m: c / other for m, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # rendering

    def sorted_terms(self, var_order: Sequence[str] | None = None) -> list:
        """Terms in graded-lex order for the given variable order (default
        alphabetical), highest total degree first."""
        if var_order is None:
            order = sorted(self.variables())
        else:
            order = list(var_order)
            for var in sorted(self.variables()):
                if var not in order:
                    order.append(var)
        pos = {v: i for i, v in enumerate(order)}

        def key(item):
            mono, _ = item
            total = sum(e for _, e in mono)
            vec = [0] * len(order)
            for var, e in mono:
                vec[pos[var]] = e
            return (-total, [-e for e in vec])

        return sorted(self._terms.items(), key=key)

    def to_text(self, var_order: Sequence[str] | None = None) -> str:
        """Canonical text, re-parseable by the DSL expression grammar (no
        exponent operator, so powers render as repeated multiplication)."""
        if self.is_zero():
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms(var_order):
            factors = []
            for var, exp in mono:
                factors.extend([var] * exp)
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append((" + " if coeff > 0 else " - ") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"IndexPolynomial({self.to_text()})"

    __str__ = __repr__


def _coerce(value):
    if isinstance(value, IndexPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return IndexPolynomial.constant(value)
    return NotImplemented
