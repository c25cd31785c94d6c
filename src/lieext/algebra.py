"""Graded Lie algebras with polynomial structure constants.

An algebra here has finitely many families of basis elements indexed by the
integers (e.g. L_n, Y_n, M_n), a weight for each element of the form
index + offset(parameters), and bracket rules

    [F_n, G_m] = c(n, m; parameters) * H_{n+m}

with c a polynomial.  Rules are stored once per unordered family pair in
declaration order; the reversed bracket is obtained by a sign flip, and a
same-family rule must have a coefficient antisymmetric under swapping its
two index variables, so the bracket table is skew by construction.

Each bracket coefficient, and each coefficient and denominator of a
declared class's line, is split into index terms n**a * m**b once, when its
rule or line is made (_split): the coefficient of each term is a polynomial
in the parameters.  Binding an algebra only evaluates those coefficients;
the symbolic Jacobi check keeps them as they are, and the antisymmetry of a
same-family rule is read off them too.

The Jacobi identity is expanded in one place (_jacobi_residuals): once per
family triple, with symbolic indices, from a bracket table of compiled
coefficient terms.  The same expansion serves bound parameters (integer
coefficients, BoundAlgebra) and free ones (coefficients polynomial in the
parameters), so the symbolic check, the windowed check that reads each
triple of basis elements with indices in a box off it, and the solve's
boundary gate and h2's warning all read one residual.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, count, islice
from types import MappingProxyType
from typing import Mapping, Sequence

from .poly import IndexPolynomial
from .rational import _Frozen, as_rational

# A name, ASCII only; the .lie scanner reads names by this pattern too.
IDENT_RE = re.compile("[A-Za-z][A-Za-z0-9_]*")
CLASS_NAME_RE = re.compile(f"{IDENT_RE.pattern}(-{IDENT_RE.pattern})*")
# The words of the .lie grammar, which are no names
KEYWORDS = frozenset({"algebra", "family", "weight", "bracket", "cocycle", "on"})

ParamMap = Mapping[str, Fraction]


class ParameterError(ValueError):
    """Bad parameter binding (missing, unknown, or malformed value)."""


class _Record:
    """A record whose fields are the arguments of its class's __init__, in
    order (_fields), compared and shown as a dataclass would: equal to a
    record of its own class with equal fields, shown as Name(field=value,
    ...), and unhashable."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Value(_Record, _Frozen):
    """An immutable _Record, hashed by its fields."""

    def __hash__(self):
        return hash(self._values())


class BasisElement(_Value):
    def __init__(self, family: str, index: int):
        self.__dict__.update(family=family, index=index)

    def __str__(self) -> str:
        return f"{self.family}({self.index})"


class BracketRule(_Value):
    """One rule [left_var_left, right_var_right] = coeff * out_family(sum).

    out_family None means the bracket of this family pair vanishes; the
    coefficient is then the zero polynomial.
    """

    def __init__(
        self, left: str, right: str, var_left: str, var_right: str, coeff: IndexPolynomial, out_family: str | None
    ):
        self.__dict__.update(
            left=left, right=right, var_left=var_left, var_right=var_right, coeff=coeff, out_family=out_family
        )

    def is_zero(self) -> bool:
        return self.out_family is None

    @cached_property
    def _index_terms(self) -> dict:
        """The coefficient split into index terms (_split) in var_left and
        var_right."""
        return _split(self.coeff, self.var_left, self.var_right)


class CocycleLine(_Value):
    """One line of a declared cocycle class: psi(family_a var_a, family_b
    var_b) = coeff / denom on var_a + var_b = offset, 0 on the sector's other
    pairs.  coeff and denom are polynomials in var_b and the parameters,
    offset one in the parameters; denom is at most linear in var_b."""

    def __init__(
        self,
        family_a: str,
        family_b: str,
        coeff: IndexPolynomial,
        offset: IndexPolynomial = IndexPolynomial(),
        denom: IndexPolynomial = IndexPolynomial.constant(1),
        var_a: str = "n",
        var_b: str = "m",
    ):
        if denom.is_zero():
            raise ValueError("line denominator is identically zero")
        if denom != 1 and denom.is_constant():  # one form for c / k, as parsed
            coeff, denom = coeff / denom, IndexPolynomial.constant(1)
        if any(var == var_b and e > 1 for mono, _ in denom.term_items() for var, e in mono):
            raise ValueError(f"line denominator {denom.to_text()} has degree 2 or more in {var_b}")
        self.__dict__.update(
            family_a=family_a, family_b=family_b, coeff=coeff, offset=offset, denom=denom, var_a=var_a, var_b=var_b
        )

    @cached_property
    def parameters(self) -> frozenset:
        """The parameters the line uses: every variable but var_b."""
        return (self.coeff.variables() | self.denom.variables()) - {self.var_b} | self.offset.variables()

    @cached_property
    def _index_terms(self) -> tuple:
        """coeff and denom, each split into index terms (_split) in var_b."""
        return _split(self.coeff, None, self.var_b), _split(self.denom, None, self.var_b)


def _split(poly: IndexPolynomial, n: str | None, m: str | None) -> dict:
    """{(exponent of n, exponent of m): coefficient} with poly the sum of
    coefficient * n**a * m**b, each coefficient a nonzero polynomial in
    poly's other variables, in the order poly's terms first reach (a, b).
    n None means a polynomial in m and the other variables alone."""
    split: dict = {}
    for mono, value in poly.term_items():
        exps = dict(mono)
        shape = (exps.pop(n, 0), exps.pop(m, 0))
        split[shape] = split.get(shape, 0) + IndexPolynomial({tuple(exps.items()): value})
    return split


def _name_problems(names) -> list:
    """(code, message, where) for each of names that is no name: a reserved
    word (KEYWORDS) or no identifier (IDENT_RE); where is its position in
    names."""
    return [
        ("reserved-word", f"{name!r} is a reserved word", where)
        if name in KEYWORDS
        else ("bad-identifier", f"bad identifier {name!r}", where)
        for where, name in enumerate(names)
        if name in KEYWORDS or not IDENT_RE.fullmatch(name)
    ]


def _declaration_problems(parameters: Sequence[str], families: Sequence[str]) -> list:
    """(code, message, where) for each repeat of a parameter or of a
    family, and each other family named as a parameter; where is its
    position in parameters followed by families."""
    problems = []
    for where, name in enumerate(parameters):
        if name in parameters[:where]:
            problems.append(("duplicate-parameter", f"duplicate parameter {name!r}", where))
    for where, name in enumerate(families):
        if name in families[:where]:
            problems.append(("duplicate-family", f"duplicate family {name!r}", len(parameters) + where))
        elif name in parameters:
            problems.append(("name-collision", f"family {name!r} collides with a parameter", len(parameters) + where))
    return problems


def _undeclared_problems(names, positions: Mapping) -> list:
    """(code, message, where) for each of names, family names or None for
    no family, that is not a declared family (positions by name); where is
    its position in names."""
    return [
        ("undeclared-family", f"undeclared family {fam!r}", where)
        for where, fam in enumerate(names)
        if fam is not None and fam not in positions
    ]


def _head_problems(var_left: str, var_right: str, parameters) -> list:
    """(code, message, where) for each problem of the index variables of a
    bracket rule or a class line, where 0 or 1 for the left or right one: a
    repeated variable, then each variable that is a parameter."""
    problems = [("duplicate-index-variable", f"index variable {var_right!r} is repeated", 1)] * (var_left == var_right)
    for where, var in enumerate((var_left, var_right)):
        if var in parameters:
            problems.append(("index-shadows-parameter", f"index variable {var!r} collides with a parameter", where))
    return problems


def _rule_problems(rule: BracketRule, positions: Mapping) -> list:
    """(code, message, where) for each problem of a bracket rule against
    the declared families, positions by name, where 0, 1 or 2 for its left,
    right or output family: each undeclared family; else a pair stored the
    other way round, a nonzero coefficient with no output family, or a
    same-family coefficient that is not antisymmetric, coeff(n, m) ==
    -coeff(m, n) with the coefficient of each index term n**a * m**b minus
    that of n**b * m**a."""
    left, right, out = rule.left, rule.right, rule.out_family
    undeclared = _undeclared_problems((left, right, out), positions)
    if undeclared:
        return undeclared
    if positions[left] > positions[right]:
        message = f"bracket [{left}, {right}] must be declared with {right!r} first (family declaration order)"
        return [("reversed-family-pair", message, 0)]
    if out is None and not rule.coeff.is_zero():
        return [("missing-output-family", "a nonzero bracket needs an output family", 0)]
    split = rule._index_terms
    if left == right and any(split.get((b, a)) != -coeff for (a, b), coeff in split.items()):
        message = f"same-family bracket [{left}, {left}] needs a coefficient antisymmetric in its index variables"
        return [("non-antisymmetric", message, 0)]
    return []


def _raise_first(problems: list):
    """Raise the message of the first of problems as a ValueError."""
    if problems:
        raise ValueError(problems[0][1])


def _fresh_names(size: int, taken) -> list:
    """The first size names of n, m, i, j, k, p, q, r, s, t, x0, x1, ...
    that are not taken."""
    names = chain("nmijkpqrst", (f"x{i}" for i in count()))
    return list(islice((name for name in names if name not in taken), size))


class AlgebraSpec(_Frozen):
    """Validated, immutable description of one algebra.

    A spec built in code meets the checks the .lie parser makes, with the
    parser's messages: every name is an identifier and no reserved word
    (_name_problems), no parameter or family is declared twice and no
    family is named as a parameter (_declaration_problems), and the index
    variables of each rule and class line (_head_problems), each rule
    against the families (_rule_problems) and the families of each class
    line (_undeclared_problems) pass the one check written for both; the
    first problem raises ValueError.

    Rules are normalized on construction: every canonical family pair gets an
    entry (missing ones become zero rules), and a rule whose coefficient is
    the zero polynomial is stored as a zero rule with canonical index
    variable names.  Structural equality of two specs therefore coincides
    with the same name, bracket table (_table) and declared cocycle classes
    in order; cocycles maps each class name to its tuple of CocycleLines.
    rules, cocycles and weight_offsets are read-only views of dicts the
    spec keeps, so that a spec pickles.
    """

    def __init__(
        self,
        name: str,
        parameters: Sequence[str],
        families: Sequence[str],
        weight_offsets: Mapping[str, IndexPolynomial],
        rules: Mapping[tuple, BracketRule],
        cocycles: Mapping[str, Sequence[CocycleLine]] | None = None,
    ):
        parameters, families = tuple(parameters), tuple(families)
        _raise_first(_name_problems((name, *parameters, *families)) + _declaration_problems(parameters, families))
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
            head = rule.var_left, rule.var_right
            _raise_first(_name_problems(head) + _head_problems(*head, parameters) + _rule_problems(rule, positions))
            extra = rule.coeff.variables() - {*head, *parameters}
            if extra:
                raise ValueError(f"rule [{rule.left}, {rule.right}] uses unknown variable {sorted(extra)[0]!r}")
            normalized[key] = _zero_rule(*key, parameters) if rule.coeff.is_zero() else rule
        ordered = {
            (a, b): normalized.get((a, b)) or _zero_rule(a, b, parameters)
            for i, a in enumerate(families) for b in families[i:]
        }
        classes = {label: tuple(lines) for label, lines in (cocycles or {}).items()}
        for label, lines in classes.items():
            if not CLASS_NAME_RE.fullmatch(label) or not lines:
                raise ValueError(f"bad cocycle class name {label!r} or no lines")
            _raise_first(_name_problems(label.split("-")[:1]))
            for line in lines:
                head = line.var_a, line.var_b
                problems = _name_problems(head) + _head_problems(*head, parameters)
                _raise_first(problems + _undeclared_problems((line.family_a, line.family_b), positions))
                if line.parameters - {*parameters}:
                    raise ValueError(f"cocycle {label!r} uses an undeclared parameter")
        self.__dict__.update(name=name, parameters=parameters, families=families, _weight_offsets=offsets)
        self.__dict__.update(_rules=ordered, _cocycles=classes, _positions=positions)

    rules = property(lambda self: MappingProxyType(self._rules))
    cocycles = property(lambda self: MappingProxyType(self._cocycles))
    weight_offsets = property(lambda self: MappingProxyType(self._weight_offsets))

    # basic queries

    def family_position(self, family: str) -> int:
        try:
            return self._positions[family]
        except KeyError:
            raise ValueError(f"unknown family {family!r}") from None

    def element_key(self, element: BasisElement) -> tuple:
        return (self.family_position(element.family), element.index)

    # bracket evaluation

    def bracket(self, x: BasisElement, y: BasisElement, params: ParamMap) -> list:
        """[x, y] as a list of (coefficient, element) with nonzero
        coefficients; at most one term for this class of algebras.  A
        one-call convenience: code that brackets many elements binds a
        BoundAlgebra once instead."""
        alg = BoundAlgebra(self, params)
        term = alg.int_bracket(self.element_key(x), self.element_key(y))
        if term is None:
            return []
        return [(Fraction(term[0], alg.denominator), alg.element(term[1]))]

    def _table(self) -> tuple:
        """The bracket table: all but the name and the declared classes."""
        return self.parameters, self.families, self.weight_offsets, self.rules

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return (
            self.name == other.name
            and self._table() == other._table()
            and list(self.cocycles.items()) == list(other.cocycles.items())
        )

    def __repr__(self):
        return f"AlgebraSpec({self.name!r}, families={list(self.families)})"


def _zero_rule(fam_a: str, fam_b: str, parameters: tuple) -> BracketRule:
    var_left, var_right = _fresh_names(2, set(parameters))
    return BracketRule(fam_a, fam_b, var_left, var_right, IndexPolynomial(), None)


def validate_parameters(spec: AlgebraSpec, values: Mapping) -> dict:
    """Coerce and complete a parameter binding.

    Values may be ints, Fractions, or "p/q" strings; each of the
    algebra's parameters must be given, and no other.  Any exact value is
    in scope: the rules are the same for every algebra, svir included
    (svir(lambda, 0) is svir(lambda, 1) up to a graded isomorphism).
    """
    bound = {}
    for key, value in values.items():
        if key not in spec.parameters:
            raise ParameterError(f"unknown parameter {key!r} for algebra {spec.name!r}")
        try:
            bound[key] = as_rational(value, f"parameter {key!r}")
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
    missing = [p for p in spec.parameters if p not in bound]
    if missing:
        raise ParameterError(f"missing parameter {missing[0]!r} for algebra {spec.name!r}")
    return bound


class BoundAlgebra:
    """One algebra at one parameter point, with its bracket rules compiled
    to integer form.

    Binding validates the parameters and evaluates every family's weight
    offset once (offsets[p] for the family at position p).  Elements are
    addressed by key, (family position, index).  For each ordered family
    pair the bracket [F_n, G_m] = c(n, m) H_{n+m} is held as integer terms
    (k, a, b) meaning c(n, m) = sum k * n**a * m**b / denominator, with one
    denominator shared by every rule.  Binding only evaluates the
    coefficients of the rules' index terms, split once per rule
    (BracketRule._index_terms), at the parameters (_compile, which also
    compiles the lines of cocycle classes).  A sum of brackets, such as one
    cocycle row, is therefore accumulated in ints and divided by the
    denominator once.  _rules[p][q]
    is (output family position, terms), or None when the pair brackets to
    zero; the solve compiles its cocycle identities from it.
    """

    __slots__ = ("spec", "params", "families", "offsets", "denominator", "_rules")

    def __init__(self, spec: AlgebraSpec, params: Mapping):
        self.spec = spec
        self.params = validate_parameters(spec, params)
        self.families = spec.families
        self.offsets = tuple(spec.weight_offsets[fam].evaluate(self.params) for fam in self.families)
        self.denominator, compiled = _compile([rule._index_terms for rule in spec.rules.values()], self.params)
        self._rules = _rule_table(spec, compiled)

    def element(self, key: tuple) -> BasisElement:
        return BasisElement(self.families[key[0]], key[1])

    def int_bracket(self, x: tuple, y: tuple):
        """[x, y] for element keys as (k, output key), meaning
        k / denominator times the output element; None when it vanishes."""
        rule = self._rules[x[0]][y[0]]
        if rule is None:
            return None
        value = _evaluate(rule[1], x[1], y[1])
        if not value:
            return None
        return value, (rule[0], x[1] + y[1])


def _rule_table(spec: AlgebraSpec, compiled: list) -> list:
    """table[p][q] for each ordered family pair: (output family position,
    terms) or None, from the terms (k, a, b) of each rule of spec.rules in
    order, meaning c(n, m) = sum k * n**a * m**b; empty terms bracket to
    zero."""
    count = len(spec.families)
    table = [[None] * count for _ in range(count)]
    for ((fam_a, fam_b), rule), terms in zip(spec.rules.items(), compiled):
        if terms:
            p, q = spec.family_position(fam_a), spec.family_position(fam_b)
            out = spec.family_position(rule.out_family)
            table[p][q] = (out, terms)
            # [G_m, F_n] = -c(n, m) H_{n+m}: the reversed pair swaps exponents
            table[q][p] = (out, tuple((-k, b, a) for k, a, b in terms))
    return table


def _compile(splits: list, params: ParamMap) -> tuple:
    """(denominator, terms): each split of splits (_split) with its
    coefficients evaluated at params, as integer terms (k, a, b) meaning
    the sum of k * n**a * m**b / denominator, over one common denominator,
    in the split's order with the terms that vanish left out.  A variable
    params does not bind raises ValueError."""
    compiled = [
        [(value, a, b) for (a, b), coeff in split.items() if (value := coeff.evaluate(params))] for split in splits
    ]
    scale = math.lcm(1, *(value.denominator for terms in compiled for value, _, _ in terms))
    return scale, [tuple((v.numerator * (scale // v.denominator), a, b) for v, a, b in terms) for terms in compiled]


def _evaluate(terms: tuple, n: int, m: int) -> int:
    """The numerator sum k * n**a * m**b of one compiled coefficient, held
    as the integer terms (k, a, b) of BoundAlgebra."""
    value = 0
    for k, a, b in terms:
        value += k * n**a * m**b
    return value


# The cyclic order of the Jacobi and cocycle identities: the positions
# (p, q, r) of the terms [x_p, x_q] paired with x_r
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _jacobi_residuals(rules: list) -> dict:
    """{(a, b, c): {(output family, e0, e1, e2): k}} for each family triple
    a <= b <= c on which the Jacobi identity fails, from a table shaped like
    BoundAlgebra._rules: the nonzero terms k * x**e0 * y**e1 * z**e2 of the
    residual [[F_x, G_y], H_z] + [[G_y, H_z], F_x] + [[H_z, F_x], G_y], with
    the products c1(x, y) * c2(x + y, z) expanded.  Terms are grouped by
    output family, in the cyclic order that first reaches it.  k is a
    product of two rule coefficients, so only *, + and a zero test are
    asked of them: integers over denominator**2 at bound parameters, or
    polynomials in free ones."""
    failing = {}
    for families in combinations_with_replacement(range(len(rules)), 3):
        residual: dict = {}
        for p, q, r in _CYCLIC:
            first = rules[families[p]][families[q]]
            second = first and rules[first[0]][families[r]]
            if not second:
                continue
            terms = residual.setdefault(second[0], {})
            for k, a, b in first[1]:
                for l, c, d in second[1]:
                    # k x**a y**b * l (x + y)**c z**d, expanded in x, y, z
                    for s in range(c + 1):
                        exps = [0, 0, 0]
                        exps[p], exps[q], exps[r] = a + s, b + c - s, d
                        key = tuple(exps)
                        terms[key] = terms.get(key, 0) + k * l * math.comb(c, s)
        nonzero = {(out, *exps): k for out, terms in residual.items() for exps, k in terms.items() if k}
        if nonzero:
            failing[families] = nonzero
    return failing


class WindowJacobiReport(_Record):
    def __init__(self, passed: bool, triples_checked: int, witness: tuple | None):
        self.passed = passed
        self.triples_checked = triples_checked
        self.witness = witness  # (x, y, z, {element: residual coefficient})


def check_jacobi_window(spec: AlgebraSpec, params: ParamMap, n: int) -> WindowJacobiReport:
    """The Jacobi identity [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on every
    triple of distinct basis elements with indices in [-n, n], read off the
    expansion (_jacobi_residuals): all of them pass when no family triple
    fails; otherwise the first triple, in element key order, at which a
    failing residual is nonzero is the witness, counted up to it.  Triples
    with a repeated element vanish identically because the bracket table is
    skew by construction."""
    if n < 0:
        raise ValueError("window bound must be nonnegative")
    alg = BoundAlgebra(spec, params)
    keys = [(pos, i) for pos in range(len(spec.families)) for i in range(-n, n + 1)]
    failing = _jacobi_residuals(alg._rules)
    for checked, triple in enumerate(combinations(keys, 3) if failing else (), 1):
        (a, x), (b, y), (c, z) = triple
        values: dict = {}
        for (out, e0, e1, e2), k in failing.get((a, b, c), {}).items():
            values[out] = values.get(out, 0) + k * x**e0 * y**e1 * z**e2
        witness = {alg.element((out, x + y + z)): Fraction(v, alg.denominator**2) for out, v in values.items() if v}
        if witness:
            return WindowJacobiReport(False, checked, (*map(alg.element, triple), witness))
    return WindowJacobiReport(True, math.comb(len(keys), 3), None)


class SymbolicJacobiReport(_Record):
    def __init__(self, passed: bool, residuals: list):
        self.passed = passed
        self.residuals = residuals  # [(family triple, out_family, polynomial)] for failures


def check_jacobi_symbolic(spec: AlgebraSpec) -> SymbolicJacobiReport:
    """The Jacobi identity with symbolic indices and symbolic parameters, one
    expansion per unordered family triple: the rules' index terms
    (BracketRule._index_terms) are read as terms (k, a, b) with k a
    polynomial in the parameters, and each residual is rebuilt as a
    polynomial in _i, _j, _k.  Those index variables lie outside the DSL
    identifier space, so they cannot collide with parameters."""
    compiled = [tuple((k, a, b) for (a, b), k in rule._index_terms.items()) for rule in spec.rules.values()]
    failures = []
    for families, residual in _jacobi_residuals(_rule_table(spec, compiled)).items():
        polys: dict = {}
        for (out, *exps), k in residual.items():
            mono = tuple((var, e) for var, e in zip(("_i", "_j", "_k"), exps) if e)
            polys[out] = polys.get(out, 0) + k * IndexPolynomial({mono: 1})
        names = tuple(spec.families[p] for p in families)
        failures.extend((names, spec.families[out], poly) for out, poly in polys.items())
    return SymbolicJacobiReport(not failures, failures)
