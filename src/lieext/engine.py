"""Windowed 2-cocycle engine.

A 2-cocycle on a Lie algebra is a skew bilinear form psi with

    psi([x,y], z) + psi([y,z], x) + psi([z,x], y) = 0,

and psi is a coboundary when psi(x,y) = f([x,y]) for a linear functional f.
The quotient cocycles/coboundaries classifies central extensions.  For the
algebras here everything decomposes by weight: a degree-d form is supported
on pairs whose weights sum to d, and for nonzero d every cocycle is a
coboundary, so degree 0 carries the whole story.

The infinite index range is handled by truncation to a window [-N, N].
Unknowns are the values on canonically ordered pairs of window elements at
one degree; each Jacobi triple whose bracket outputs stay inside the window
contributes one exact linear constraint (triples whose nonzero outputs
escape are skipped: their identity involves unknowns we do not carry).
Truncation adds junk supported near the window edge, so reported dimensions
are projected onto core pairs (all indices within N - margin) and the
computation is repeated on grown windows; a stable core dimension is the
windowed estimate of the true H^2 dimension.

Degrees, coefficients, and dimensions are exact rationals end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .algebra import (
    AlgebraSpec,
    BasisElement,
    ParamMap,
    validate_parameters,
)
from .poly import IndexPolynomial
from .rational import format_rational, parse_rational
from .sparse import (
    SparseMatrix,
    VectorBasis,
    in_span,
    nullspace,
    project_dimension,
    span_basis,
)


@dataclass(frozen=True)
class Window:
    """Symmetric index window [-n, n] with a core of radius n - margin."""

    n: int
    margin: int = 3

    def __post_init__(self):
        if self.margin < 1:
            raise ValueError("window margin must be at least 1")
        if self.n - self.margin < 3:
            raise ValueError("window too small: need n - margin >= 3")

    def indices(self) -> range:
        return range(-self.n, self.n + 1)

    def contains(self, index: int) -> bool:
        return -self.n <= index <= self.n

    def core_bound(self) -> int:
        return self.n - self.margin

    def core_contains(self, index: int) -> bool:
        return abs(index) <= self.core_bound()

    def grown(self, extra: int) -> "Window":
        return Window(self.n + extra, self.margin)


def _bind(spec: AlgebraSpec, params: Mapping) -> tuple:
    """(validated params, {family: weight offset}) for one binding.

    The weight decomposition only makes sense if weights are additive under
    the bracket, i.e. off(A) + off(B) == off(out) for every rule.
    """
    params = validate_parameters(spec, params)
    offs = {fam: spec.weight_offsets[fam].evaluate(params) for fam in spec.families}
    for (fam_a, fam_b), rule in spec.rules.items():
        if rule.out_family is None:
            continue
        if offs[fam_a] + offs[fam_b] != offs[rule.out_family]:
            raise ValueError(
                f"algebra is not graded by its weights: [{fam_a}, {fam_b}] -> "
                f"{rule.out_family} breaks weight additivity at these parameters"
            )
    return params, offs


class PairBasis:
    """Canonically ordered element pairs of one degree inside a window.

    Column order is lexicographic in (family position, index) of both
    elements, which fixes the coordinatization used by every matrix in this
    module.  column_of resolves either orientation of a pair and reports the
    skew sign, so psi(x, y) = sign * value[column].
    """

    __slots__ = ("spec", "params", "window", "degree", "pairs", "_columns")

    def __init__(self, spec, params, window, degree, pairs):
        self.spec = spec
        self.params = params
        self.window = window
        self.degree = degree
        self.pairs = pairs
        self._columns = {pair: col for col, pair in enumerate(pairs)}

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def pair_at(self, col: int) -> tuple:
        return self.pairs[col]

    def column_of(self, x: BasisElement, y: BasisElement) -> tuple:
        """(column, sign) for the pair {x, y}; sign is -1 when (x, y) is the
        reversed orientation of the stored pair."""
        sign = 1
        if self.spec.element_key(x) > self.spec.element_key(y):
            x, y = y, x
            sign = -1
        try:
            return self._columns[(x, y)], sign
        except KeyError:
            raise ValueError(f"pair ({x}, {y}) is not in this basis") from None

    def core_columns(self) -> list:
        return [
            col
            for col, (x, y) in enumerate(self.pairs)
            if self.window.core_contains(x.index) and self.window.core_contains(y.index)
        ]


def enumerate_pairs(spec: AlgebraSpec, params: Mapping, window: Window, degree) -> PairBasis:
    """All pairs {x, y} of window elements with weight(x) + weight(y) ==
    degree, canonically ordered and sorted."""
    params, offs = _bind(spec, params)
    degree = Fraction(degree)
    pairs = []
    for a_pos, fam_a in enumerate(spec.families):
        for fam_b in spec.families[a_pos:]:
            total = degree - offs[fam_a] - offs[fam_b]
            if total.denominator != 1:
                continue
            total = int(total)
            for i in window.indices():
                j = total - i
                if not window.contains(j):
                    continue
                if fam_a == fam_b and i >= j:
                    continue
                pairs.append((BasisElement(fam_a, i), BasisElement(fam_b, j)))
    pairs.sort(key=lambda p: (spec.element_key(p[0]), spec.element_key(p[1])))
    return PairBasis(spec, params, window, degree, pairs)


def _iter_degree_triples(spec, offs, window, degree):
    """Canonically ordered triples x < y < z of window elements whose
    weights sum to the degree; offs maps each family to its weight offset."""
    key = spec.element_key
    for fam_a, fam_b, fam_c in combinations_with_replacement(spec.families, 3):
        total = Fraction(degree) - offs[fam_a] - offs[fam_b] - offs[fam_c]
        if total.denominator != 1:
            continue
        total = int(total)
        for i in window.indices():
            for j in window.indices():
                k = total - i - j
                if not window.contains(k):
                    continue
                x = BasisElement(fam_a, i)
                y = BasisElement(fam_b, j)
                z = BasisElement(fam_c, k)
                if key(x) < key(y) < key(z):
                    yield x, y, z


def _row_terms(spec, params, window, x, y, z):
    """The expansion of the cocycle identity on a triple as (coeff, e, w)
    summands meaning coeff * psi(e, w); None if some nonzero bracket output
    leaves the window (the constraint would involve unknowns outside the
    truncation and is dropped)."""
    terms = []
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        for coeff, e in spec.bracket(u, v, params):
            if e == w:
                continue
            if not window.contains(e.index):
                return None
            terms.append((coeff, e, w))
    return terms


def constraint_row(spec, params, window, x, y, z, pairs: PairBasis):
    """One cocycle constraint as a sparse row over the pair basis, or None
    for an inadmissible triple.  A vacuous identity gives an empty dict."""
    terms = _row_terms(spec, params, window, x, y, z)
    if terms is None:
        return None
    row: dict = {}
    for coeff, e, w in terms:
        col, sign = pairs.column_of(e, w)
        value = row.get(col, Fraction(0)) + sign * coeff
        if value:
            row[col] = value
        else:
            row.pop(col, None)
    return row


def assemble_constraints(
    spec: AlgebraSpec, params: Mapping, window: Window, degree, pairs: PairBasis | None = None
) -> SparseMatrix:
    """Constraint matrix with one row per admissible nonvacuous triple."""
    params, offs = _bind(spec, params)
    if pairs is None:
        pairs = enumerate_pairs(spec, params, window, degree)
    rows = []
    for x, y, z in _iter_degree_triples(spec, offs, window, degree):
        row = constraint_row(spec, params, window, x, y, z, pairs)
        if row:
            rows.append(row)
    return SparseMatrix.from_rows(rows, len(pairs))


def cocycle_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    if pairs is None:
        pairs = enumerate_pairs(spec, params, window, degree)
    return nullspace(assemble_constraints(spec, params, window, degree, pairs))


def coboundary_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    """Span of the functional generators: for each window element z of
    weight == degree, the form (x, y) -> f([x, y]) with f dual to z.  At a
    fixed degree each family contributes at most one such z."""
    params, offs = _bind(spec, params)
    degree = Fraction(degree)
    if pairs is None:
        pairs = enumerate_pairs(spec, params, window, degree)
    brackets = []
    for col, (x, y) in enumerate(pairs.pairs):
        for coeff, e in spec.bracket(x, y, params):
            brackets.append((col, coeff, e))
    generators = []
    for fam in spec.families:
        target = degree - offs[fam]
        if target.denominator != 1 or not window.contains(int(target)):
            continue
        z = BasisElement(fam, int(target))
        vector = [Fraction(0)] * len(pairs)
        for col, coeff, e in brackets:
            if e == z:
                vector[col] += coeff
        generators.append(vector)
    return span_basis(len(pairs), generators)


# cocycle values as data


class CocycleAssignment:
    """A finitely supported skew form on window pairs.

    Values are stored on canonically ordered pairs only; value(x, y)
    resolves either orientation with the sign.  JSON form maps
    "FAM:index,FAM:index" keys to "p/q" strings.
    """

    __slots__ = ("spec", "window", "values")

    def __init__(self, spec: AlgebraSpec, window: Window, values: Mapping):
        canonical: dict = {}
        for (x, y), value in values.items():
            value = Fraction(value)
            spec.element_key(x)
            spec.element_key(y)
            if not (window.contains(x.index) and window.contains(y.index)):
                raise ValueError(f"pair ({x}, {y}) is outside the window")
            if x == y:
                if value:
                    raise ValueError(f"nonzero value on the diagonal pair ({x}, {x})")
                continue
            if spec.element_key(x) > spec.element_key(y):
                x, y, value = y, x, -value
            if (x, y) in canonical:
                raise ValueError(f"pair ({x}, {y}) assigned twice")
            if value:
                canonical[(x, y)] = value
        self.spec = spec
        self.window = window
        self.values = canonical

    def is_zero(self) -> bool:
        return not self.values

    def support(self) -> list:
        return sorted(self.values, key=lambda p: (self.spec.element_key(p[0]), self.spec.element_key(p[1])))

    def value(self, x: BasisElement, y: BasisElement) -> Fraction:
        if x == y:
            return Fraction(0)
        sign = 1
        if self.spec.element_key(x) > self.spec.element_key(y):
            x, y, sign = y, x, -1
        return sign * self.values.get((x, y), Fraction(0))

    def degrees(self, params: Mapping) -> set:
        params = validate_parameters(self.spec, params)
        return {
            self.spec.weight(x, params) + self.spec.weight(y, params)
            for x, y in self.values
        }

    def degree(self, params: Mapping) -> Fraction | None:
        """The single support degree; None when empty, error when mixed."""
        degrees = self.degrees(params)
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError("assignment mixes degrees")
        return degrees.pop()

    def scaled(self, factor) -> "CocycleAssignment":
        factor = Fraction(factor)
        return CocycleAssignment(
            self.spec, self.window, {p: v * factor for p, v in self.values.items()}
        )

    def __sub__(self, other: "CocycleAssignment") -> "CocycleAssignment":
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("assignments on different algebras")
        if self.window != other.window:
            raise ValueError("assignments on different windows")
        merged = dict(self.values)
        for pair, value in other.values.items():
            merged[pair] = merged.get(pair, Fraction(0)) - value
        return CocycleAssignment(self.spec, self.window, merged)

    def __add__(self, other: "CocycleAssignment") -> "CocycleAssignment":
        return self - other.scaled(-1)

    def __eq__(self, other):
        if not isinstance(other, CocycleAssignment):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.window == other.window
            and self.values == other.values
        )

    def to_vector(self, pairs: PairBasis) -> list:
        vector = [Fraction(0)] * len(pairs)
        for pair, value in self.values.items():
            if pair not in pairs._columns:
                raise ValueError(
                    f"assignment has support on {pair[0]}, {pair[1]} outside the pair basis"
                )
            vector[pairs._columns[pair]] = value
        return vector

    @classmethod
    def from_vector(cls, pairs: PairBasis, vector: Sequence) -> "CocycleAssignment":
        if len(vector) != len(pairs):
            raise ValueError("vector length does not match pair basis")
        values = {pairs.pair_at(col): Fraction(v) for col, v in enumerate(vector) if v}
        return cls(pairs.spec, pairs.window, values)

    def to_json_dict(self) -> dict:
        out = {}
        for x, y in self.support():
            key = f"{x.family}:{x.index},{y.family}:{y.index}"
            out[key] = format_rational(self.values[(x, y)])
        return out

    @classmethod
    def from_json_dict(cls, spec: AlgebraSpec, window: Window, data: Mapping) -> "CocycleAssignment":
        # a pair key always contains ":", so a "values" key marks a wrapper
        if "values" in data:
            data = data["values"]
        values = {}
        for key, text in data.items():
            values[_parse_pair_key(key)] = parse_rational(str(text))
        return cls(spec, window, values)


def _parse_pair_key(key: str) -> tuple:
    parts = key.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad pair key {key!r} (expected 'FAM:i,FAM:j')")
    elements = []
    for part in parts:
        fam, _, idx = part.partition(":")
        fam = fam.strip()
        try:
            index = int(idx.strip())
        except ValueError:
            raise ValueError(f"bad element {part!r} in pair key {key!r}") from None
        elements.append(BasisElement(fam, index))
    return elements[0], elements[1]


def coboundary_assignment(spec, params, window, functional: Mapping) -> CocycleAssignment:
    """The coboundary of a functional given by its values on basis elements:
    psi_f(x, y) = f([x, y]), over all window pairs of every degree."""
    params = validate_parameters(spec, params)
    elements = [BasisElement(fam, i) for fam in spec.families for i in window.indices()]
    elements.sort(key=spec.element_key)
    values = {}
    for a, x in enumerate(elements):
        for y in elements[a + 1 :]:
            total = Fraction(0)
            for coeff, e in spec.bracket(x, y, params):
                total += coeff * Fraction(functional.get(e, 0))
            if total:
                values[(x, y)] = total
    return CocycleAssignment(spec, window, values)


# known cocycle registry


@dataclass(frozen=True)
class CocycleLine:
    """One supported line of a closed-form cocycle: c(A_n, B_m) =
    coeff(m, mu) / denom(m, mu) on n + m = index_shift - mu_multiple * mu,
    all other pairs zero.

    The coefficient and denominator polynomials use the variable m for the
    family_b index and may use mu.  A line with a non-constant denominator
    only defines a cocycle at parameters where the denominator has no
    integer root in m; applicability() enforces that.
    """

    family_a: str
    family_b: str
    coeff: IndexPolynomial
    mu_multiple: int = 0
    index_shift: int = 0
    denom: IndexPolynomial = field(default_factory=lambda: IndexPolynomial.constant(1))

    def __post_init__(self):
        if self.denom.is_zero():
            raise ValueError("line denominator is identically zero")

    def offset(self, params: ParamMap) -> int:
        """The integer t with support n + m == t."""
        total = Fraction(self.index_shift)
        if self.mu_multiple:
            total -= self.mu_multiple * Fraction(params["mu"])
        if total.denominator != 1:
            raise ValueError("support line misses integer indices")
        return int(total)


def _has_integer_root(poly: IndexPolynomial) -> bool:
    """Whether a nonzero univariate rational polynomial in m vanishes at any
    integer.  Clears denominators and tests the divisors of the constant
    term (the only candidate integer roots); a zero constant term means
    m = 0 is already a root."""
    extra = poly.variables() - {"m"}
    if extra:
        raise ValueError(f"denominator still depends on {sorted(extra)}")
    if poly.is_constant():
        return poly.constant_value() == 0
    at_zero = poly.evaluate({"m": 0})
    if at_zero == 0:
        return True
    scale = 1
    for _, coeff in poly.sorted_terms(("m",)):
        scale = scale * coeff.denominator // math.gcd(scale, coeff.denominator)
    constant = abs(int(at_zero * scale))
    for low in range(1, math.isqrt(constant) + 1):
        if constant % low:
            continue
        for cand in (low, -low, constant // low, -(constant // low)):
            if poly.evaluate({"m": cand}) == 0:
                return True
    return False


@dataclass(frozen=True)
class KnownCocycle:
    """A closed-form cocycle given by one or more supported lines.

    Most registry entries live on a single line; classes whose defining
    relations couple several pair sectors (the lambda = 1 mixed class
    couples L-M to Y-Y) carry one line per sector.  Applicability requires
    every line's mu_multiple * mu to be an integer so the support hits
    integer indices.
    """

    name: str
    lines: tuple
    note: str = ""

    def __post_init__(self):
        if not self.lines:
            raise ValueError("a known cocycle needs at least one line")
        object.__setattr__(self, "lines", tuple(self.lines))

    @classmethod
    def single(cls, name, family_a, family_b, coeff, mu_multiple=0, index_shift=0,
               denom=None, note=""):
        if denom is None:
            denom = IndexPolynomial.constant(1)
        line = CocycleLine(family_a, family_b, coeff, mu_multiple, index_shift, denom)
        return cls(name, (line,), note)

    def applicability(self, spec: AlgebraSpec, params: ParamMap) -> str | None:
        """None when this cocycle makes sense on the algebra, else the
        violated condition, e.g. "requires 3*mu integer"."""
        for line in self.lines:
            for fam in (line.family_a, line.family_b):
                if fam not in spec.families:
                    return f"algebra has no family {fam}"
            needs_mu = (
                line.mu_multiple != 0
                or "mu" in line.coeff.variables()
                or "mu" in line.denom.variables()
            )
            if needs_mu:
                if "mu" not in spec.parameters:
                    return "algebra has no parameter mu"
                mu = Fraction(params["mu"])
                if (line.mu_multiple * mu).denominator != 1:
                    prefix = "mu" if line.mu_multiple == 1 else f"{line.mu_multiple}*mu"
                    return f"requires {prefix} integer"
            bound = line.denom.substitute(
                {p: Fraction(params[p]) for p in spec.parameters}
            )
            if bound.is_zero():
                return (
                    f"denominator {line.denom.to_text(('m', 'mu'))} vanishes"
                    " identically"
                )
            if _has_integer_root(bound):
                return (
                    f"denominator {line.denom.to_text(('m', 'mu'))} vanishes"
                    " at an integer index"
                )
        return None

    def degree(self, spec: AlgebraSpec, params: ParamMap) -> Fraction:
        offs = spec.weight_offsets
        degrees = {
            offs[line.family_a].evaluate(params)
            + offs[line.family_b].evaluate(params)
            + line.offset(params)
            for line in self.lines
        }
        if len(degrees) != 1:
            raise ValueError(f"cocycle {self.name!r} mixes degrees {sorted(degrees)}")
        return degrees.pop()

    def instantiate(self, spec: AlgebraSpec, params: Mapping, window: Window) -> CocycleAssignment:
        params = validate_parameters(spec, params)
        reason = self.applicability(spec, params)
        if reason is not None:
            raise ValueError(f"cocycle {self.name!r} not applicable: {reason}")
        self.degree(spec, params)
        key = spec.element_key
        values: dict = {}
        assignment = dict(params)
        for line in self.lines:
            total = line.offset(params)
            for m in window.indices():
                n = total - m
                if not window.contains(n):
                    continue
                a = BasisElement(line.family_a, n)
                b = BasisElement(line.family_b, m)
                if a == b:
                    continue
                assignment["m"] = m
                value = line.coeff.evaluate(assignment) / line.denom.evaluate(assignment)
                if not value:
                    continue
                if key(a) > key(b):
                    a, b, value = b, a, -value
                if (a, b) in values:
                    if values[(a, b)] != value:
                        raise ValueError(f"cocycle {self.name!r} table is not skew-consistent")
                    continue
                values[(a, b)] = value
        return CocycleAssignment(spec, window, values)


def _poly(text: str) -> IndexPolynomial:
    from .dsl import parse_polynomial

    return parse_polynomial(text, ("m", "mu"))


def _registry() -> dict:
    entries = [
        KnownCocycle.single(
            "virasoro",
            "L",
            "L",
            _poly("(m - m*m*m)/12"),
            note="central charge on the L sector",
        ),
        KnownCocycle.single(
            "c1",
            "L",
            "Y",
            _poly("(m + mu)*(m + mu + 1)/2"),
            mu_multiple=1,
            note="L-Y quadratic class, present at lambda = -1",
        ),
        KnownCocycle.single(
            "c2",
            "M",
            "Y",
            _poly("1"),
            mu_multiple=3,
            note="Y-M pairing along n + m = -3*mu",
        ),
        KnownCocycle.single(
            "ly-linear",
            "L",
            "Y",
            _poly("(m + mu + 1)/2"),
            mu_multiple=1,
            note="L-Y linear class, present at lambda = -3",
        ),
        KnownCocycle.single(
            "ly-cubic",
            "L",
            "Y",
            _poly("(m + mu - 1)*(m + mu)*(m + mu + 1)"),
            mu_multiple=1,
            note="L-Y cubic class, present at lambda = 1",
        ),
        KnownCocycle.single(
            "ly-constant",
            "L",
            "Y",
            _poly("1"),
            mu_multiple=1,
            note="L-Y constant class, present at lambda = -3; every L-Y "
            "coboundary coefficient vanishes there, so it is nontrivial",
        ),
        KnownCocycle(
            "lm-yy-cubic",
            (
                CocycleLine("L", "M", _poly("(m + 2*mu - 1)*(m + 2*mu)*(m + 2*mu + 1)"), mu_multiple=2),
                CocycleLine("Y", "Y", _poly("(m + mu - 1)*(m + mu)*(m + mu + 1)"), mu_multiple=2),
            ),
            note="coupled L-M and Y-Y cubic class, present at lambda = 1 "
            "whenever 2*mu is an integer; neither line is a cocycle alone",
        ),
        KnownCocycle.single(
            "yy-reciprocal",
            "Y",
            "Y",
            _poly("1"),
            mu_multiple=2,
            denom=_poly("m + mu"),
            note="Y-Y reciprocal class 1/(m + mu), present at lambda = -3 "
            "when 2*mu is an odd integer; at integer mu the (L, Y, Y) row "
            "whose Y-Y pair degenerates to a repeated element forces the "
            "sector into the gauge direction, and the formula itself "
            "divides by zero there",
        ),
    ]
    return {entry.name: entry for entry in entries}


REGISTRY = _registry()


# verification and reduction


@dataclass
class VerifyReport:
    passed: bool
    triples_checked: int
    witness: tuple | None  # (x, y, z, residual)
    assignment: CocycleAssignment


def verify_cocycle(spec, params, window, cocycle) -> VerifyReport:
    """Check every admissible window triple against the cocycle identity.

    Accepts a KnownCocycle (instantiated here; inapplicable parameter
    values raise with the violated condition) or a CocycleAssignment.
    """
    params, offs = _bind(spec, params)
    if isinstance(cocycle, KnownCocycle):
        psi = cocycle.instantiate(spec, params, window)
    elif isinstance(cocycle, CocycleAssignment):
        psi = cocycle
    else:
        raise TypeError("expected a KnownCocycle or CocycleAssignment")
    checked = 0
    for degree in sorted(psi.degrees(params)):
        for x, y, z in _iter_degree_triples(spec, offs, window, degree):
            terms = _row_terms(spec, params, window, x, y, z)
            if terms is None:
                continue
            checked += 1
            residual = Fraction(0)
            for coeff, e, w in terms:
                residual += coeff * psi.value(e, w)
            if residual:
                return VerifyReport(False, checked, (x, y, z, residual), psi)
    return VerifyReport(True, checked, None, psi)


def _projected_membership(vector, basis: VectorBasis, columns) -> bool:
    restricted = span_basis(len(columns), [[vec[c] for c in columns] for vec in basis])
    return in_span([vector[c] for c in columns], restricted)


def is_coboundary(spec, params, window, psi: CocycleAssignment) -> bool:
    """Whether psi, restricted to core pairs, lies in the core projection of
    the coboundary space.  Empty assignments are coboundaries; mixed-degree
    input is an error (reduce by degree first)."""
    params = validate_parameters(spec, params)
    degree = psi.degree(params)
    if degree is None:
        return True
    pairs = enumerate_pairs(spec, params, window, degree)
    vector = psi.to_vector(pairs)
    bound = coboundary_space(spec, params, window, degree, pairs)
    return _projected_membership(vector, bound, pairs.core_columns())


def _diagonal_element(spec: AlgebraSpec, params: ParamMap) -> BasisElement:
    """The weight-zero element acting diagonally: [z0, G_m] = weight(G_m) G_m
    for every family G.  Checked symbolically in m."""
    var = IndexPolynomial.variable("_m")
    zero = IndexPolynomial.constant(0)
    for fam in spec.families:
        if spec.weight_offsets[fam].evaluate(params) != 0:
            continue
        ok = True
        for other in spec.families:
            out_family, coeff = spec.bracket_symbolic(fam, zero, other, var)
            expected = var + spec.weight_offsets[other]
            got = coeff.substitute({p: params[p] for p in spec.parameters})
            want = expected.substitute({p: params[p] for p in spec.parameters})
            if out_family is None:
                if not want.is_zero():
                    ok = False
                    break
            elif out_family != other or got != want:
                ok = False
                break
        if ok:
            return BasisElement(fam, 0)
    raise ValueError("algebra has no diagonal weight-zero element")


def degree_reduce(spec, params, window, psi: CocycleAssignment) -> CocycleAssignment:
    """Subtract the canonical coboundary so that the result vanishes on every
    nonzero-degree pair whose index sum stays inside the window.

    Pairing the diagonal element z0 with the cocycle identity on (z0, x, y)
    gives d * psi(x, y) = psi(z0, [x, y]) at degree d != 0, so the functional
    f(z) = psi(z0, z) / weight(z) peels off the nonzero-degree part.  Input
    must satisfy the window cocycle constraints.
    """
    params = validate_parameters(spec, params)
    report = verify_cocycle(spec, params, window, psi)
    if not report.passed:
        x, y, z, residual = report.witness
        raise ValueError(
            f"input is not a window cocycle: residual {residual} on ({x}, {y}, {z})"
        )
    z0 = _diagonal_element(spec, params)
    functional: dict = {}
    for fam in spec.families:
        for i in window.indices():
            element = BasisElement(fam, i)
            weight = spec.weight(element, params)
            if weight == 0:
                continue
            value = psi.value(z0, element)
            if value:
                functional[element] = value / weight
    return psi - coboundary_assignment(spec, params, window, functional)


def nonzero_degree_triviality(spec, params, window, degree) -> bool:
    """Whether cocycles and coboundaries have the same core dimension at a
    nonzero degree.  Degree zero is refused: that sector genuinely carries
    cohomology and needs the full h2 treatment."""
    degree = Fraction(degree)
    if degree == 0:
        raise ValueError("degree must be nonzero (use h2 for the degree-zero sector)")
    params = validate_parameters(spec, params)
    pairs = enumerate_pairs(spec, params, window, degree)
    cocycles = cocycle_space(spec, params, window, degree, pairs)
    bounds = coboundary_space(spec, params, window, degree, pairs)
    core = pairs.core_columns()
    return project_dimension(cocycles, core) == project_dimension(bounds, core)


# H^2 reports


@dataclass
class MatchResult:
    name: str
    matched: bool


@dataclass
class H2Report:
    algebra: str
    params: dict
    window: Window
    degree: Fraction
    cocycle_dim: int
    coboundary_dim: int
    h2_dim: int
    core_h2_dim: int
    stabilized: bool
    core_history: list = field(default_factory=list)  # [(n, core dim)]
    matched_known: list = field(default_factory=list)  # [MatchResult]


def match_known(
    spec, params, window, degree, pairs, cocycles: VectorBasis, bounds: VectorBasis, registry=None
) -> list:
    """Which registry cocycles lie in the computed cocycle space and are not
    coboundaries (core-projected).  Inapplicable entries are omitted."""
    registry = REGISTRY if registry is None else registry
    degree = Fraction(degree)
    core = pairs.core_columns()
    results = []
    for known in registry.values():
        if known.applicability(spec, params) is not None:
            continue
        psi = known.instantiate(spec, params, window)
        if psi.is_zero() or psi.degree(params) != degree:
            results.append(MatchResult(known.name, False))
            continue
        vector = psi.to_vector(pairs)
        matched = in_span(vector, cocycles) and not _projected_membership(
            vector, bounds, core
        )
        results.append(MatchResult(known.name, matched))
    return results


def _core_dims(spec, params, window, degree) -> tuple:
    pairs = enumerate_pairs(spec, params, window, degree)
    cocycles = cocycle_space(spec, params, window, degree, pairs)
    bounds = coboundary_space(spec, params, window, degree, pairs)
    core = pairs.core_columns()
    core_h2 = project_dimension(cocycles, core) - project_dimension(bounds, core)
    return pairs, cocycles, bounds, core_h2


def h2(
    spec,
    params,
    window: Window,
    degree=0,
    stabilization_steps: int = 3,
    registry=None,
) -> H2Report:
    """Windowed H^2 at one degree with stabilization across grown windows.

    The report's h2_dim is the raw windowed quotient dimension (it can carry
    edge junk); core_h2_dim is the trustworthy number, and stabilized says
    whether it agreed across stabilization_steps windows n, n+2, n+4, ...
    """
    if stabilization_steps < 1:
        raise ValueError("need at least one stabilization step")
    params, _ = _bind(spec, params)
    degree = Fraction(degree)
    pairs, cocycles, bounds, core_h2 = _core_dims(spec, params, window, degree)
    history = [(window.n, core_h2)]
    for step in range(1, stabilization_steps):
        grown = window.grown(2 * step)
        history.append((grown.n, _core_dims(spec, params, grown, degree)[3]))
    matched = match_known(spec, params, window, degree, pairs, cocycles, bounds, registry)
    return H2Report(
        algebra=spec.name,
        params=dict(params),
        window=window,
        degree=degree,
        cocycle_dim=len(cocycles),
        coboundary_dim=len(bounds),
        h2_dim=len(cocycles) - len(bounds),
        core_h2_dim=core_h2,
        stabilized=len({dim for _, dim in history}) == 1,
        core_history=history,
        matched_known=matched,
    )


def theorem_predicted_dim(lam, mu) -> int:
    """Dimension of degree-zero H^2 for svir(lambda, mu) per the closed-form
    classification: 1 generically (the central charge), an extra Y-M class
    when 3*mu is an integer and lambda = -1, extra L-Y classes at integer mu
    for lambda in {-3, 1}, and all of c1, c2 on top of virasoro at
    lambda = -1 with integer mu."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    if mu == 0:
        raise ValueError("mu = 0 out of scope")
    if (3 * mu).denominator != 1:
        return 1
    if mu.denominator == 1:
        if lam == -1:
            return 3
        if lam in (Fraction(-3), Fraction(1)):
            return 2
        return 1
    return 2 if lam == -1 else 1
