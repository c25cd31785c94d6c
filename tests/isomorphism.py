"""Graded isomorphisms between algebra specs, an exact oracle for the engine.

Three changes of basis turn an algebra with polynomial structure constants
into an isomorphic one of the same kind.  Each is built here as a
new AlgebraSpec, with its declared classes pulled back along it:

- shifted(spec, {F: k_F}): F'_m = F_{m+k_F}.  Then [F'_n, G'_m] =
  c(n + k_F, m + k_G) H'_{n+m}, which needs k_H = k_F + k_G for every
  nonzero bracket, and F'_m has the weight of F_{m+k_F}: offset w_F + k_F.
  A class line psi(A_n, B_m) = c(m) / d(m) on n + m = t becomes c(m + k_B) /
  d(m + k_B) on n + m = t - k_A - k_B, at the same degree.
- negated(spec, {F: s_F}), s_F = +1 or -1: F'_m = s_F F_{-m}.  Then
  c'(n, m) = c(-n, -m) s_F s_G / s_H, every weight offset is negated, and a
  line becomes s_A s_B c(-m) / d(-m) on n + m = -t.  The window [-N, N] maps
  onto itself and degree d onto -d, so at degree 0 every number h2 computes
  must be the same for spec and negated(spec) at the same parameters.
- rescaled(spec, {F: s_F}), s_F a nonzero rational: F'_m = s_F F_m.  Then
  c'(n, m) = c(n, m) s_F s_G / s_H, the weights do not change, and a
  line's coefficient is multiplied by s_A s_B.  Windows, degrees and
  supports stay, so every number h2 computes must be the same; only the
  sizes of the integers it computes with change: the bracket denominator,
  the coefficient bound and with it the packed slot width.

substituted(spec, {parameter: polynomial}) is the same algebra at other
parameters, so the transforms can be compared with the family they come
from: svir(lambda, mu) negates to svir(lambda, -mu) and shifts by Y -1,
M -2 to svir(lambda, mu - 1).  substitute and power are the polynomial
operations these need, and weight the grading they act on; the package
itself never substitutes.
"""

from fractions import Fraction

from lieext.algebra import AlgebraSpec, BracketRule, CocycleLine
from lieext.poly import IndexPolynomial

V = IndexPolynomial.variable


def power(poly, exponent: int) -> IndexPolynomial:
    """poly ** exponent, for an int exponent of at least 0."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = IndexPolynomial.constant(1)
    for _ in range(exponent):
        result = result * poly
    return result


def substitute(poly: IndexPolynomial, mapping) -> IndexPolynomial:
    """poly with each variable of mapping replaced by its polynomial or
    exact scalar; the other variables stay."""
    result = IndexPolynomial()
    for mono, coeff in poly.term_items():
        term = IndexPolynomial.constant(coeff)
        for var, exp in mono:
            term = term * power(mapping.get(var, V(var)), exp)
        result = result + term
    return result


def weight(spec: AlgebraSpec, element, params):
    """The weight of a basis element at bound parameters: its index plus its
    family's offset."""
    return element.index + spec.weight_offsets[element.family].evaluate(params)


def _rebuilt(spec: AlgebraSpec, offset, coeff, line) -> AlgebraSpec:
    """spec with offset(family) as each family's weight offset, coeff(rule)
    as each rule's coefficient, and each class line's coefficient, support
    offset and denominator the triple line(line)."""
    rules = {
        key: BracketRule(rule.left, rule.right, rule.var_left, rule.var_right, coeff(rule), rule.out_family)
        for key, rule in spec.rules.items()
    }
    classes = {
        name: [CocycleLine(each.family_a, each.family_b, *line(each), each.var_a, each.var_b) for each in lines]
        for name, lines in spec.cocycles.items()
    }
    weights = {fam: offset(fam) for fam in spec.families}
    return AlgebraSpec(spec.name, spec.parameters, spec.families, weights, rules, classes)


def substituted(spec: AlgebraSpec, mapping) -> AlgebraSpec:
    """spec with each parameter of mapping replaced by a polynomial in the
    parameters, in its weights, brackets and class lines."""

    def at(poly):
        return substitute(poly, mapping)

    return _rebuilt(
        spec,
        lambda fam: at(spec.weight_offsets[fam]),
        lambda rule: at(rule.coeff),
        lambda each: (at(each.coeff), at(each.offset), at(each.denom)),
    )


def shifted(spec: AlgebraSpec, shifts) -> AlgebraSpec:
    """The algebra of F'_m = F_{m+k_F}, k_F = shifts.get(F, 0)."""
    k = {fam: shifts.get(fam, 0) for fam in spec.families}
    for rule in spec.rules.values():
        if not rule.is_zero() and k[rule.out_family] != k[rule.left] + k[rule.right]:
            raise ValueError(f"the shifts of [{rule.left}, {rule.right}] do not add")

    def coeff(rule):
        at = {rule.var_left: V(rule.var_left) + k[rule.left], rule.var_right: V(rule.var_right) + k[rule.right]}
        return substitute(rule.coeff, at)

    def line(each):
        at = {each.var_b: V(each.var_b) + k[each.family_b]}
        offset = each.offset - k[each.family_a] - k[each.family_b]
        return substitute(each.coeff, at), offset, substitute(each.denom, at)

    return _rebuilt(spec, lambda fam: spec.weight_offsets[fam] + k[fam], coeff, line)


def negated(spec: AlgebraSpec, signs) -> AlgebraSpec:
    """The algebra of F'_m = s_F F_{-m}, s_F = signs.get(F, 1), graded by
    the negated weights."""
    s = {fam: signs.get(fam, 1) for fam in spec.families}
    if set(s.values()) - {1, -1}:
        raise ValueError("each sign must be 1 or -1")

    def coeff(rule):
        if rule.is_zero():
            return rule.coeff
        at = {rule.var_left: -V(rule.var_left), rule.var_right: -V(rule.var_right)}
        # 1 / s_H = s_H
        return s[rule.left] * s[rule.right] * s[rule.out_family] * substitute(rule.coeff, at)

    def line(each):
        at = {each.var_b: -V(each.var_b)}
        sign = s[each.family_a] * s[each.family_b]
        return sign * substitute(each.coeff, at), -each.offset, substitute(each.denom, at)

    return _rebuilt(spec, lambda fam: -spec.weight_offsets[fam], coeff, line)


def rescaled(spec: AlgebraSpec, scales) -> AlgebraSpec:
    """The algebra of F'_m = s_F F_m, s_F = scales.get(F, 1)."""
    s = {fam: Fraction(scales.get(fam, 1)) for fam in spec.families}
    if not all(s.values()):
        raise ValueError("each scale must be nonzero")

    def coeff(rule):
        if rule.is_zero():
            return rule.coeff
        return s[rule.left] * s[rule.right] / s[rule.out_family] * rule.coeff

    def line(each):
        return s[each.family_a] * s[each.family_b] * each.coeff, each.offset, each.denom

    return _rebuilt(spec, lambda fam: spec.weight_offsets[fam], coeff, line)
