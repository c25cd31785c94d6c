"""Graded Lie algebras with polynomial structure constants.

An algebra here has finitely many families of basis elements indexed by the
integers (e.g. L_n, Y_n, M_n), a weight for each element of the form
index + offset(parameters), and bracket rules

    [F_n, G_m] = c(n, m; parameters) * H_{n+m}

with c a polynomial.  Rules are stored once per unordered family pair in
declaration order; the reversed bracket is obtained by a sign flip, and a
same-family rule must have a coefficient antisymmetric under swapping its
two index variables, so the bracket table is skew by construction.

Both Jacobi checks live here: a windowed check that expands every triple of
basis elements with indices in a box, and a symbolic check that expands the
identity once per family triple with fully symbolic indices and parameters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Mapping, Sequence

from .poly import IndexPolynomial
from .rational import parse_rational

IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

ParamMap = Mapping[str, Fraction]


class ParameterError(ValueError):
    """Bad parameter binding (missing, unknown, or out-of-scope value)."""


@dataclass(frozen=True)
class BasisElement:
    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}({self.index})"


@dataclass(frozen=True)
class BracketRule:
    """One rule [left_var_left, right_var_right] = coeff * out_family(sum).

    out_family None means the bracket of this family pair vanishes; the
    coefficient is then the zero polynomial.
    """

    left: str
    right: str
    var_left: str
    var_right: str
    coeff: IndexPolynomial
    out_family: str | None

    def is_zero(self) -> bool:
        return self.out_family is None


def same_family_rule_is_antisymmetric(rule: BracketRule) -> bool:
    """Whether coeff(n, m) == -coeff(m, n) identically."""
    swapped = rule.coeff.substitute(
        {
            rule.var_left: IndexPolynomial.variable(rule.var_right),
            rule.var_right: IndexPolynomial.variable(rule.var_left),
        }
    )
    return (rule.coeff + swapped).is_zero()


def _fresh_names(count: int, taken) -> list:
    pool = ["n", "m", "i", "j", "k", "p", "q", "r", "s", "t"]
    out = []
    for name in pool:
        if len(out) == count:
            return out
        if name not in taken and name not in out:
            out.append(name)
    counter = 0
    while len(out) < count:
        name = f"x{counter}"
        counter += 1
        if name not in taken and name not in out:
            out.append(name)
    return out


class AlgebraSpec:
    """Validated, immutable description of one algebra.

    Rules are normalized on construction: every canonical family pair gets an
    entry (missing ones become zero rules), and a rule whose coefficient is
    the zero polynomial is stored as a zero rule with canonical index
    variable names.  Structural equality of two specs therefore coincides
    with them defining the same bracket table.
    """

    __slots__ = ("name", "parameters", "families", "weight_offsets", "rules", "_positions")

    def __init__(
        self,
        name: str,
        parameters: Sequence[str],
        families: Sequence[str],
        weight_offsets: Mapping[str, IndexPolynomial],
        rules: Mapping[tuple, BracketRule],
    ):
        if not IDENT_RE.match(name):
            raise ValueError(f"bad algebra name {name!r}")
        parameters = tuple(parameters)
        families = tuple(families)
        for ident in parameters + families:
            if not IDENT_RE.match(ident):
                raise ValueError(f"bad identifier {ident!r}")
        if len(set(parameters)) != len(parameters):
            raise ValueError("duplicate parameter name")
        if len(set(families)) != len(families):
            raise ValueError("duplicate family name")
        if set(parameters) & set(families):
            raise ValueError("parameter name collides with a family name")
        positions = {fam: i for i, fam in enumerate(families)}

        offsets = {}
        for fam in families:
            if fam not in weight_offsets:
                raise ValueError(f"missing weight for family {fam!r}")
            off = weight_offsets[fam]
            extra = off.variables() - set(parameters)
            if extra:
                raise ValueError(f"weight of {fam!r} uses unknown variable {sorted(extra)[0]!r}")
            offsets[fam] = off
        if set(weight_offsets) - set(families):
            raise ValueError("weight given for an undeclared family")

        normalized = {}
        for key, rule in rules.items():
            if key != (rule.left, rule.right):
                raise ValueError(f"rule key {key} does not match rule families")
            for fam in key:
                if fam not in positions:
                    raise ValueError(f"bracket rule uses undeclared family {fam!r}")
            if positions[rule.left] > positions[rule.right]:
                raise ValueError(
                    f"rule [{rule.left}, {rule.right}] is stored on the reversed family pair"
                )
            if rule.out_family is not None and rule.out_family not in positions:
                raise ValueError(f"bracket output family {rule.out_family!r} is undeclared")
            normalized[key] = self._normalize_rule(rule, parameters)
        for i, fam_a in enumerate(families):
            for fam_b in families[i:]:
                normalized.setdefault(
                    (fam_a, fam_b), _zero_rule(fam_a, fam_b, parameters)
                )

        for key in sorted(normalized, key=lambda k: (positions[k[0]], positions[k[1]])):
            rule = normalized[key]
            if rule.left == rule.right and not rule.is_zero():
                if not same_family_rule_is_antisymmetric(rule):
                    raise ValueError(
                        f"same-family bracket [{rule.left}, {rule.right}] must have an "
                        "index-antisymmetric coefficient"
                    )

        ordered = {
            key: normalized[key]
            for key in sorted(normalized, key=lambda k: (positions[k[0]], positions[k[1]]))
        }
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "weight_offsets", offsets)
        object.__setattr__(self, "rules", ordered)
        object.__setattr__(self, "_positions", positions)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraSpec is immutable")

    @staticmethod
    def _normalize_rule(rule: BracketRule, parameters: tuple) -> BracketRule:
        if rule.coeff.is_zero() or rule.out_family is None:
            return _zero_rule(rule.left, rule.right, parameters)
        if rule.var_left == rule.var_right:
            raise ValueError(f"rule [{rule.left}, {rule.right}] repeats an index variable")
        for var in (rule.var_left, rule.var_right):
            if var in parameters:
                raise ValueError(f"index variable {var!r} collides with a parameter")
        allowed = {rule.var_left, rule.var_right} | set(parameters)
        extra = rule.coeff.variables() - allowed
        if extra:
            raise ValueError(
                f"rule [{rule.left}, {rule.right}] uses unknown variable {sorted(extra)[0]!r}"
            )
        return rule

    # basic queries

    def family_position(self, family: str) -> int:
        try:
            return self._positions[family]
        except KeyError:
            raise ValueError(f"unknown family {family!r}") from None

    def element_key(self, element: BasisElement) -> tuple:
        return (self.family_position(element.family), element.index)

    def weight(self, element: BasisElement, params: ParamMap) -> Fraction:
        return element.index + self.weight_offsets[element.family].evaluate(params)

    # bracket evaluation

    def _oriented_rule(self, fam_a: str, fam_b: str) -> tuple:
        if self._positions[fam_a] <= self._positions[fam_b]:
            return self.rules[(fam_a, fam_b)], False
        return self.rules[(fam_b, fam_a)], True

    def bracket(self, x: BasisElement, y: BasisElement, params: ParamMap) -> list:
        """[x, y] as a list of (coefficient, element) with nonzero
        coefficients; at most one term for this class of algebras."""
        if x == y:
            return []
        rule, flipped = self._oriented_rule(x.family, y.family)
        if rule.is_zero():
            return []
        left, right = (y, x) if flipped else (x, y)
        assignment = dict(params)
        assignment[rule.var_left] = left.index
        assignment[rule.var_right] = right.index
        value = rule.coeff.evaluate(assignment)
        if flipped:
            value = -value
        if not value:
            return []
        return [(value, BasisElement(rule.out_family, x.index + y.index))]

    def bracket_symbolic(
        self, fam_a: str, idx_a: IndexPolynomial, fam_b: str, idx_b: IndexPolynomial
    ) -> tuple:
        """(out_family, coefficient polynomial) with parameters symbolic;
        (None, 0) for a vanishing family pair."""
        rule, flipped = self._oriented_rule(fam_a, fam_b)
        if rule.is_zero():
            return None, IndexPolynomial()
        left, right = (idx_b, idx_a) if flipped else (idx_a, idx_b)
        coeff = rule.coeff.substitute({rule.var_left: left, rule.var_right: right})
        return rule.out_family, (-coeff if flipped else coeff)

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return (
            self.name == other.name
            and self.parameters == other.parameters
            and self.families == other.families
            and self.weight_offsets == other.weight_offsets
            and self.rules == other.rules
        )

    def __repr__(self):
        return f"AlgebraSpec({self.name!r}, families={list(self.families)})"


def _zero_rule(fam_a: str, fam_b: str, parameters: tuple) -> BracketRule:
    var_left, var_right = _fresh_names(2, set(parameters))
    return BracketRule(fam_a, fam_b, var_left, var_right, IndexPolynomial(), None)


def validate_parameters(spec: AlgebraSpec, values: Mapping) -> dict:
    """Coerce and complete a parameter binding.

    Values may be ints, Fractions, or "p/q" strings.  For the bundled svir
    algebra mu = 0 is rejected: that degeneration collapses the weight
    grading this engine relies on and has a different extension theory.
    The rule follows the bracket table, not the name, so a user algebra
    that only borrows the name "svir" is not affected.
    """
    from .presets import load_algebra  # presets imports this module
    bound = {}
    for key, value in values.items():
        if key not in spec.parameters:
            raise ParameterError(f"unknown parameter {key!r} for algebra {spec.name!r}")
        if isinstance(value, str):
            value = parse_rational(value)
        elif isinstance(value, (int, Fraction)):
            value = Fraction(value)
        else:
            raise ParameterError(f"parameter {key!r} must be rational, got {type(value).__name__}")
        bound[key] = value
    missing = [p for p in spec.parameters if p not in bound]
    if missing:
        raise ParameterError(f"missing parameter {missing[0]!r} for algebra {spec.name!r}")
    if bound.get("mu") == 0 and spec == load_algebra("svir"):
        raise ParameterError(
            "mu = 0 is out of scope for svir: the Y/M weight grading degenerates "
            "and the classification computed here does not apply"
        )
    return bound


@dataclass
class WindowJacobiReport:
    passed: bool
    triples_checked: int
    witness: tuple | None  # (x, y, z, {element: residual coefficient})


def _jacobi_residual(spec: AlgebraSpec, params: ParamMap, x, y, z) -> dict:
    residual: dict = {}
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        for c1, e1 in spec.bracket(u, v, params):
            for c2, e2 in spec.bracket(e1, w, params):
                value = residual.get(e2, Fraction(0)) + c1 * c2
                if value:
                    residual[e2] = value
                else:
                    residual.pop(e2, None)
    return residual


def check_jacobi_window(spec: AlgebraSpec, params: ParamMap, n: int) -> WindowJacobiReport:
    """Expand [[x,y],z] + [[y,z],x] + [[z,x],y] for every triple of distinct
    basis elements with indices in [-n, n].  Triples with a repeated element
    vanish identically because the bracket table is skew by construction."""
    if n < 0:
        raise ValueError("window bound must be nonnegative")
    params = validate_parameters(spec, params)
    elements = [
        BasisElement(fam, i) for fam in spec.families for i in range(-n, n + 1)
    ]
    checked = 0
    for x, y, z in combinations(elements, 3):
        checked += 1
        residual = _jacobi_residual(spec, params, x, y, z)
        if residual:
            return WindowJacobiReport(False, checked, (x, y, z, residual))
    return WindowJacobiReport(True, checked, None)


@dataclass
class SymbolicJacobiReport:
    passed: bool
    residuals: list  # [(family triple, out_family, polynomial)] for failures


def check_jacobi_symbolic(spec: AlgebraSpec) -> SymbolicJacobiReport:
    """Jacobi identity with symbolic indices and symbolic parameters, one
    expansion per unordered family triple.  Index variables are generated
    outside the DSL identifier space so they cannot collide with parameters."""
    idx = [IndexPolynomial.variable(v) for v in ("_i", "_j", "_k")]
    failures = []
    for fams in combinations_with_replacement(spec.families, 3):
        triple = list(zip(fams, idx))
        residuals: dict = {}
        for (fu, iu), (fv, iv), (fw, iw) in (
            (triple[0], triple[1], triple[2]),
            (triple[1], triple[2], triple[0]),
            (triple[2], triple[0], triple[1]),
        ):
            fam1, c1 = spec.bracket_symbolic(fu, iu, fv, iv)
            if fam1 is None:
                continue
            fam2, c2 = spec.bracket_symbolic(fam1, iu + iv, fw, iw)
            if fam2 is None:
                continue
            residuals[fam2] = residuals.get(fam2, IndexPolynomial()) + c1 * c2
        for out_family, poly in residuals.items():
            if not poly.is_zero():
                failures.append((fams, out_family, poly))
    return SymbolicJacobiReport(not failures, failures)
