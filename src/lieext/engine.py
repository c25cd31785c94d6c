"""H^2 reports, declared cocycle classes and their verification.

The quotient of 2-cocycles by 2-coboundaries classifies central extensions.
For the algebras here everything decomposes by weight: a degree-d form is
supported on pairs whose weights sum to d.  When some element acts on every
basis element by its weight, for nonzero d every cocycle is a coboundary,
so degree 0 carries the whole story; h2 records when no family's index-0
element does (_grading_failure).

lieext.solve finds the cocycles and coboundaries of one degree on a window
[-N, N] by a certified subset solve, and the dimension of their quotient
projected onto the core pairs.  h2 repeats it on grown windows, all views
on one plan built at the largest (solve._Plan), each going on from the
echelon of the one before; a stable core dimension is the windowed
estimate of the true H^2 dimension.  h2 also names the family triples
where the Jacobi identity fails, read off the plan's one expansion
(_jacobi_failure).

Degrees, coefficients, and dimensions are exact rationals end to end.  Each
public call binds its parameters once (solve._bind), and every bracket
expansion goes through that binding's integer kernel.  verify_cocycle holds
psi's values of each degree as integers over one common denominator, so
each residual is summed in integers.

A cocycle class, which an algebra's .lie file declares (AlgebraSpec.cocycles)
and which is matched against that algebra only, goes through the same
kernel.  Its applicability is decided once per class and call, by the step
that compiles each line at the bound parameters: coefficient, denominator
and support offset become integer terms over one shared scale, so each
value is one quotient of two integers, and each line's integer offset
and the binding's weight offsets give the line's degree.  Nothing here
refuses a class for its degrees: a declared class is of one degree
(algebra._degree_problems), and any other is read one degree at a time,
as any assignment is.  Matching and verify_cocycle put those quotients
straight on the pair columns, over their common denominator.
verify_cocycle converts a class once: its assignment holds the integer
quotients, and is_coboundary reads them from it; their Fractions
(CocycleAssignment.values) are built only when a caller reads them.  Both
calls take psi from there one way.  They group its quotients by degree
(_by_degree), one sum per family pair and index total, whatever made the
assignment, and key its columns by the pairs themselves
({pair: pair} over _pair_keys), as neither reduces an echelon at scale:
verify_cocycle compiles its identities against the window's pairs, and
is_coboundary builds no plan.  The core projection of the coboundary space
is spanned by the generators of the window elements restricted to the core
pairs, so is_coboundary brackets the core pairs alone.

A cocycle class is held, as the solve holds every vector, as a {column:
int} row: its values over their common denominator.  Each window's
core-coboundary echelon is built once and serves core_h2 and the
coboundary test of every cocycle class; one echelon of the null vectors
serves their cocycle test.  Nothing here hands out a Fraction matrix or
basis: lieext.spaces does, and its match_known reads _match.

Nothing here knows an algebra by its name or loads a preset: every rule
reads the spec it is given.  svir's closed-form table, which the CLI
compares h2's reports with, and REGISTRY, the classes svir declares, live
in lieext.presets.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import Mapping

from .algebra import AlgebraSpec, BasisElement, BoundAlgebra, ParamMap, _compile, _evaluate, _Record, _Value
from .poly import IndexPolynomial
from .rational import _BLANKS, _Frozen, as_rational, format_rational, parse_integer, parse_rational
from .solve import (
    PairBasis,
    Window,
    _bind,
    _degree,
    _identities,
    _images,
    _pair_keys,
    _Plan,
    _restrict,
    _totals,
)
from .sparse import _Echelon


# cocycle values as data


class CocycleAssignment(_Frozen):
    """A finitely supported skew form on window pairs.

    Values are stored on canonically ordered pairs only; value(x, y)
    resolves either orientation with the sign.  JSON form maps
    "FAM:index,FAM:index" keys to "p/q" strings.

    psi is converted once: it is held as the integer ratios {(key of x, key
    of y): (numerator, denominator)} that verify_cocycle and is_coboundary
    read, and values, their {(x, y): Fraction} form, is built at its first
    read.  _ratios, from KnownCocycle._instantiate, are a declared class's
    canonical ratios, taken as they are.  An assignment is immutable, so
    values never goes stale.
    """

    def __init__(self, spec: AlgebraSpec, window: Window, values: Mapping, _ratios=None):
        ratios = _ratios or {}
        self.__dict__.update(spec=spec, window=window, _ratios=ratios)
        key = spec.element_key
        for (x, y), value in values.items():
            value = as_rational(value, "cocycle value")
            pair = key(x), key(y)
            if not (window.contains(x.index) and window.contains(y.index)):
                raise ValueError(f"pair ({x}, {y}) is outside the window")
            if x == y:
                if value:
                    raise ValueError(f"nonzero value on the diagonal pair ({x}, {x})")
                continue
            if pair[0] > pair[1]:
                x, y, pair, value = y, x, pair[::-1], -value
            if pair in ratios:
                raise ValueError(f"pair ({x}, {y}) assigned twice")
            if value:
                ratios[pair] = value.numerator, value.denominator

    @cached_property
    def values(self) -> dict:
        return {
            tuple(BasisElement(self.spec.families[f], i) for f, i in pair): Fraction(*ratio)
            for pair, ratio in self._ratios.items()
        }

    def __repr__(self):
        return f"CocycleAssignment(spec={self.spec!r}, window={self.window!r}, values={self.values!r})"

    def __eq__(self, other):
        if not isinstance(other, CocycleAssignment):
            return NotImplemented
        return (self.spec, self.window, self.values) == (other.spec, other.window, other.values)

    def _grouped(self, alg: BoundAlgebra) -> dict:
        """{degree: ratios} of psi at the binding's weight offsets, keyed by
        family position in the binding: _by_degree's of psi's ratios, or, on
        an algebra with other families, of psi's values re-keyed by family
        name."""
        if alg.families != self.spec.families:
            return CocycleAssignment(alg.spec, self.window, self.values)._grouped(alg)
        return _by_degree(alg.offsets, self._ratios)

    def support(self) -> list:
        # values is built from _ratios, in its order; the element keys sort
        return [pair for _, pair in sorted(zip(self._ratios, self.values))]

    def value(self, x: BasisElement, y: BasisElement) -> Fraction:
        # a stored pair's value is nonzero
        return self.values.get((x, y)) or -self.values.get((y, x), Fraction())

    def to_json_dict(self) -> dict:
        return {
            f"{x.family}:{x.index},{y.family}:{y.index}": format_rational(self.values[(x, y)]) for x, y in self.support()
        }

    @classmethod
    def from_json_dict(cls, spec: AlgebraSpec, window: Window, data: Mapping) -> "CocycleAssignment":
        # a pair key always contains ":", so a "values" key marks a wrapper
        if isinstance(data, Mapping) and "values" in data:
            data = data["values"]
        if not isinstance(data, Mapping):
            raise ValueError("cocycle assignment must be a JSON object of 'FAM:i,FAM:j' keys")
        return cls(spec, window, {_parse_pair_key(key): parse_rational(str(text)) for key, text in data.items()})


def _by_degree(offsets: tuple, ratios: Mapping) -> dict:
    """{degree: ratios} of canonical cocycle values {(key of x, key of y):
    (numerator, denominator)}, the form _on_columns takes, with each
    family's weight offset taken by position from `offsets`, in the order of
    the ratios.  The degree offsets[a] + offsets[b] + i + j is worked out
    once per family pair (a, b) and index total i + j, so a declared class,
    whose lines each have one, costs one sum per line, not one per pair."""
    groups, lines = {}, {}
    for (x, y), ratio in ratios.items():
        line = x[0], y[0], x[1] + y[1]
        if line not in lines:
            lines[line] = groups.setdefault(offsets[x[0]] + offsets[y[0]] + line[2], {})
        lines[line][x, y] = ratio
    return groups


def _on_columns(ratios: Mapping, column: Mapping) -> tuple:
    """(vector, scale): canonical cocycle values {(key of x, key of y):
    (numerator, denominator)} as {column[pair]: int} over their common
    denominator scale, for the columns {pair: column} of a pair basis.  A
    pair with no column is left out: at the basis's degree, a pair outside
    its window is in no admissible triple's row."""
    scale = math.lcm(1, *(den for _, den in ratios.values()))
    return {column[pair]: num * (scale // den) for pair, (num, den) in ratios.items() if pair in column}, scale


def _parse_pair_key(key: str) -> tuple:
    parts = key.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad pair key {key!r} (expected 'FAM:i,FAM:j')")
    elements = []
    for part in parts:
        fam, _, idx = part.partition(":")
        try:
            elements.append(BasisElement(fam.strip(_BLANKS), parse_integer(idx)))
        except ValueError:
            raise ValueError(f"bad element {part!r} in pair key {key!r}") from None
    return elements[0], elements[1]


# declared cocycle classes


class KnownCocycle(_Value):
    """A closed-form cocycle class given by one or more CocycleLines, as a
    .lie file's cocycle block declares it.

    Most classes live on a single line; classes whose defining relations
    couple several pair sectors (svir's lm-yy-cubic couples L-M to Y-Y)
    carry one line per sector.  Applicability requires every line's offset
    to be an integer, so the support hits integer indices, and every
    denominator to have no integer root.  A declared class is of one
    degree (algebra._degree_problems); a class taken to another algebra,
    or built in code, need not be, and is read one degree at a time, as
    any assignment is.
    """

    def __init__(self, name: str, lines: tuple):
        if not lines:
            raise ValueError("a known cocycle needs at least one line")
        self.__dict__.update(name=name, lines=tuple(lines))

    def applicability(self, spec: AlgebraSpec, params: ParamMap) -> str | None:
        """None when this cocycle makes sense on the algebra, else the
        violated condition, e.g. "requires 3*mu integer"."""
        return self._check(_bind(spec, params))[0]

    def _check(self, alg: BoundAlgebra) -> tuple:
        """(reason, lines): applicability's answer at the binding, and when
        that is None each line as (family position a, family position b,
        support offset t, coefficient terms, denominator terms), both
        integer terms (k, 0, b) in m over one scale.  A line's degree is
        alg.offsets[a] + alg.offsets[b] + t.  The offset is evaluated
        first, to fail fast."""
        spec = alg.spec
        compiled = []
        for line in self.lines:
            for fam in (line.family_a, line.family_b):
                if fam not in spec.families:
                    return f"algebra has no family {fam}", None
            extra = sorted(line.parameters - set(spec.parameters))
            if extra:
                return f"algebra has no parameter {extra[0]}", None
            total = line.offset.evaluate(alg.params)
            if total.denominator != 1:
                # t is an integer exactly when -t is: name the one that
                # leads with a positive term
                lead = line.offset.sorted_terms(spec.parameters)[0][1]
                text = (line.offset if lead > 0 else -line.offset).to_text(spec.parameters)
                return f"requires {text} integer", None
            _, (coeff, denom) = _compile(line._index_terms, alg.params)
            # a*m + b (CocycleLine keeps it at most linear) vanishes at an
            # integer m exactly when a divides b
            slope = sum(k for k, _, e in denom if e)
            if not denom or (slope and _evaluate(denom, 0, 0) % slope == 0):
                where = "at an integer index" if denom else "identically"
                text = line.denom.to_text((line.var_b,) + spec.parameters)
                return f"denominator {text} vanishes {where}", None
            a, b = map(spec.family_position, (line.family_a, line.family_b))
            compiled.append((a, b, int(total), coeff, denom))
        return None, compiled

    def instantiate(self, spec: AlgebraSpec, params: Mapping, window: Window) -> CocycleAssignment:
        return self._instantiate(_bind(spec, params), window)

    def _instantiate(self, alg: BoundAlgebra, window: Window) -> CocycleAssignment:
        """The class at the binding on the window: the CocycleAssignment of
        its canonical values as _ratios gives them.  An inapplicable class
        is refused with the violated condition."""
        reason, lines = self._check(alg)
        if reason is not None:
            raise ValueError(f"cocycle {self.name!r} not applicable: {reason}")
        return CocycleAssignment(alg.spec, window, {}, self._ratios(window, lines))

    def _ratios(self, window: Window, lines: list) -> dict:
        """The canonical values of _check's lines on the window as
        {(key of x, key of y): (numerator, denominator)}, each value
        coeff(m) / denom(m) from two integer evaluations."""
        ratios: dict = {}
        for a, b, total, coeff, denom in lines:
            for m in window.indices():
                n = total - m
                if not window.contains(n) or (a, n) == (b, m):
                    continue
                num = _evaluate(coeff, 0, m)
                if not num:
                    continue
                den = _evaluate(denom, 0, m)
                x, y = (a, n), (b, m)
                if x > y:
                    x, y, num = y, x, -num
                first = ratios.setdefault((x, y), (num, den))
                if first[0] * den != num * first[1]:
                    raise ValueError(f"cocycle {self.name!r} table is not skew-consistent")
        return ratios


# verification


class VerifyReport(_Record):
    """verify_cocycle's answer: whether every admissible triple passed, how
    many were checked, the first that failed as (x, y, z, residual) or
    None, and the CocycleAssignment checked."""

    def __init__(self, passed: bool, triples_checked: int, witness: tuple | None, assignment: CocycleAssignment):
        self.passed = passed
        self.triples_checked = triples_checked
        self.witness = witness
        self.assignment = assignment


def verify_cocycle(spec, params, window, cocycle) -> VerifyReport:
    """Check every admissible window triple against the cocycle identity,
    degree by degree, and count them.

    Each degree's identities are compiled against the window's pairs keyed
    by themselves, as is_coboundary keys its columns: nothing is eliminated,
    so no pair basis is built, and psi's pairs outside the window are left
    out (_on_columns).  Only the family triples with a term whose columns
    lie in a sector where psi is nonzero are compiled and walked, in (i, j)
    order up to the first failing triple, the witness.  Every other family
    triple's residuals are 0: its admissible triples are counted
    (_Identity.admissible) and pass.
    Accepts a KnownCocycle (instantiated here; inapplicable parameter
    values raise with the violated condition) or a CocycleAssignment.
    """
    alg = _bind(spec, params)
    psi = cocycle._instantiate(alg, window) if isinstance(cocycle, KnownCocycle) else cocycle
    if not isinstance(psi, CocycleAssignment):
        raise TypeError("expected a KnownCocycle or CocycleAssignment")
    checked = 0
    for degree, ratios in sorted(psi._grouped(alg).items()):
        column = {pair: pair for pair in _pair_keys(alg, degree, window.n)}
        vector, scale = _on_columns(ratios, column)
        sectors = {(x[0], y[0]) for x, y in ratios}
        for identity in _identities(alg, window.n, degree, column):
            if not identity.reaches(sectors):
                # psi is 0 on every column of its terms: its admissible
                # triples all pass
                checked += identity.admissible()
                continue
            count, failed = identity.walk(identity.valued(vector)[0])
            checked += count
            if failed is not None:
                idx, dot = failed
                residual = Fraction(dot, alg.denominator * scale)
                x, y, z = (alg.element(k) for k in zip(identity.families, idx))
                return VerifyReport(False, checked, (x, y, z, residual), psi)
    return VerifyReport(True, checked, None, psi)


def is_coboundary(spec, params, window, psi: CocycleAssignment) -> bool:
    """Whether psi, restricted to core pairs, lies in the core projection of
    the coboundary space.  Empty assignments are coboundaries, and so is one
    with no core support; support outside the window is an error.

    The coboundaries split by degree, as the cocycle identities do: psi is
    grouped by degree as verify_cocycle groups it
    (CocycleAssignment._grouped), and it is a coboundary exactly when each
    degree's part is.  The core projection of the coboundary space of one
    degree is spanned by the generator of each window element z of weight
    == degree (coboundary_space), each restricted to the core pairs.  So
    only the core pairs and their brackets are built, with the pair keys
    themselves as the echelon's columns, as verify_cocycle keys its
    identities' columns."""
    alg = _bind(spec, params)
    groups = psi._grouped(alg)
    for x, y in (pair for ratios in groups.values() for pair in ratios):
        if max(abs(x[1]), abs(y[1])) > window.n:
            raise ValueError(f"assignment has support on {alg.element(x)}, {alg.element(y)} outside the pair basis")
    for degree, ratios in groups.items():
        core = {pair: pair for pair in _pair_keys(alg, degree, window.core_bound())}
        if not _Echelon(_images(alg, degree, window.n, core).values()).contains(_on_columns(ratios, core)[0]):
            return False
    return True


def _grading_failure(alg: BoundAlgebra) -> str | None:
    """None when the grading is inner: some family F of weight offset 0 has
    [F_0, G_m] = c * (m + offset_G) G_m for every family G, with one
    constant c != 0, so F_0 / c acts on every basis element by its weight.
    Otherwise the first bracket that fails for each weight-zero family, or
    that no family has weight 0.  Decided on the compiled rules: at n = 0
    only their terms k * m**b (exponent of n zero) remain."""
    failures = []
    for p, offset in enumerate(alg.offsets):
        if offset:
            continue
        scale = None
        for q, other_offset in enumerate(alg.offsets):
            rule = alg._rules[p][q]
            at_zero = {b: k for k, a, b in rule[1] if not a} if rule else {}
            if scale is None:
                scale = at_zero.get(1, 0)
            # c * (m + offset_G), its zero terms left out as _compile leaves them out
            expected = {b: k for b, k in ((1, scale), (0, scale * other_offset)) if k}
            if not (scale and at_zero == expected and rule[0] == q):
                text = "0"
                if rule:
                    terms = {((("m", b),) if b else ()): Fraction(k, alg.denominator) for b, k in at_zero.items()}
                    text = f"({IndexPolynomial(terms).to_text()}) {alg.families[rule[0]]}(m)"
                failures.append(f"[{alg.families[p]}(0), {alg.families[q]}(m)] = {text}")
                break
        else:
            return None
    return "; ".join(failures) or "no family has weight 0"


def _jacobi_failure(alg: BoundAlgebra, failing: Mapping) -> str | None:
    """None when the Jacobi identity holds; otherwise each failing family
    triple of a failing set and its residual's output families, as
    "L, Y, Y -> M", joined by "; "."""
    names = alg.families
    return "; ".join(
        ", ".join(names[p] for p in families) + " -> " + ", ".join(dict.fromkeys(names[key[0]] for key in residual))
        for families, residual in failing.items()
    ) or None


def nonzero_degree_triviality(spec, params, window, degree) -> bool:
    """Whether cocycles and coboundaries have the same core dimension at a
    nonzero degree d.

    This is the windowed check of why nonzero degrees carry no cohomology:
    pairing the diagonal weight-zero element z0 ([z0, g] = weight(g) g for
    every basis element g) with the cocycle identity on (z0, x, y) gives
    d * psi(x, y) = psi(z0, [x, y]), so psi is the coboundary of the
    functional f(z) = psi(z0, z) / d.  Degree zero is refused: that sector
    genuinely carries cohomology and needs the full h2 treatment.  So is an
    algebra with no such z0 among its basis elements (see _grading_failure):
    there the argument does not apply."""
    degree = _degree(degree)
    if degree == 0:
        raise ValueError("degree must be nonzero (use h2 for the degree-zero sector)")
    alg = _bind(spec, params)
    failure = _grading_failure(alg)
    if failure is not None:
        raise ValueError(
            f"the grading is not inner ({failure}): the argument that nonzero "
            "degrees carry no cohomology does not apply"
        )
    return _Plan(alg, window, degree).core_dims(window)[-1] == 0


# H^2 reports


class MatchResult(_Record):
    def __init__(self, name: str, matched: bool):
        self.name = name
        self.matched = matched


class H2Report(_Record):
    """h2's answer at one point: the algebra's name, the bound params, the
    first window, the degree and the dimensions at that window
    (cocycle_dim, coboundary_dim, h2_dim, core_h2_dim); whether the core
    dimension stabilized, and core_history, [(n, core dim)] for each
    window; matched_known, [MatchResult]; grading, why the grading is not
    inner (_grading_failure), and jacobi, where the Jacobi identity fails
    (_jacobi_failure), each None when it does not apply.  The two lists
    are fresh for each report unless given."""

    def __init__(
        self, algebra: str, params: dict, window: Window, degree: Fraction, cocycle_dim: int, coboundary_dim: int,
        h2_dim: int, core_h2_dim: int, stabilized: bool, core_history: list | None = None,
        matched_known: list | None = None, grading: str | None = None, jacobi: str | None = None,
    ):
        self.algebra = algebra
        self.params = params
        self.window = window
        self.degree = degree
        self.cocycle_dim = cocycle_dim
        self.coboundary_dim = coboundary_dim
        self.h2_dim = h2_dim
        self.core_h2_dim = core_h2_dim
        self.stabilized = stabilized
        self.core_history = [] if core_history is None else core_history
        self.matched_known = [] if matched_known is None else matched_known
        self.grading = grading
        self.jacobi = jacobi


def _match(alg: BoundAlgebra, window, degree, pairs: PairBasis, cocycles: _Echelon, core_bounds: _Echelon, core) -> list:
    """Which of the algebra's declared cocycle classes lie in the cocycle
    space and are not coboundaries (core-projected), inapplicable ones
    omitted: over the columns of `pairs`, against the echelon of the
    cocycles and the core echelon of the coboundaries.  Only a class whose
    every line is of the given degree can match.  Each class's values on
    the window become one integer vector over their common denominator."""
    spec = alg.spec
    results = []
    for name, lines in spec.cocycles.items():
        known = KnownCocycle(name, lines)
        reason, lines = known._check(alg)
        if reason is not None:
            continue
        ratios = known._ratios(window, lines)
        matched = False
        if ratios and {alg.offsets[a] + alg.offsets[b] + t for a, b, t, _, _ in lines} == {degree}:
            vector = _on_columns(ratios, pairs._index)[0]
            matched = cocycles.contains(vector) and not core_bounds.contains(_restrict(vector, core))
        results.append(MatchResult(known.name, matched))
    return results


def h2(
    spec,
    params,
    window: Window,
    degree=0,
    stabilization_steps: int = 3,
) -> H2Report:
    """Windowed H^2 at one degree with stabilization across grown windows.

    The report's h2_dim is the raw windowed quotient dimension (it can carry
    edge junk); core_h2_dim is the trustworthy number, and stabilized says
    whether it agreed across stabilization_steps windows n, n+2, n+4, ...
    All windows are views on one plan built at the largest, and each grown
    window's solve goes on from the echelon of the one before it.
    grading is None when some family's index-0 element acts by the
    weights; otherwise it is _grading_failure's text naming the brackets
    that fail, and degree 0 then need not carry the whole H^2.  jacobi is
    None when the bracket satisfies the Jacobi identity; otherwise it names
    the family triples where it fails, read off the plan's one expansion,
    and the numbers then describe no Lie algebra.  A window
    is refused when its core holds no pair of some family pair (sector)
    that has pairs at this degree: the core dimension would leave that
    sector out.  The message names the smallest window that covers it.
    """
    if stabilization_steps < 1:
        raise ValueError("need at least one stabilization step")
    alg = _bind(spec, params)
    degree = _degree(degree)
    # a core pair (i, total - i) has |i|, |total - i| <= core, and i != total - i
    # within one family
    core = window.core_bound()
    for (a, b), total in _totals(alg, degree, 2):
        if abs(total) > 2 * core - (a == b):
            radius = (abs(total) + (a == b) + 1) // 2
            raise ValueError(
                f"window too small: the {alg.families[a]}-{alg.families[b]} sector has no pair of degree "
                f"{format_rational(degree)} in the core; it needs N >= {window.margin + radius}"
            )
    plan = _Plan(alg, window.grown(2 * (stabilization_steps - 1)), degree)
    history = []
    for step in range(stabilization_steps):
        grown = window.grown(2 * step)
        vectors, bounds, core_bounds, core, dim = plan.core_dims(grown)
        if not step:
            matched = _match(alg, window, degree, plan.pairs, _Echelon(vectors), core_bounds, core)
            cocycle_dim, coboundary_dim = len(vectors), len(bounds)
        history.append((grown.n, dim))
    return H2Report(
        algebra=spec.name,
        params=dict(alg.params),
        window=window,
        degree=degree,
        cocycle_dim=cocycle_dim,
        coboundary_dim=coboundary_dim,
        h2_dim=cocycle_dim - coboundary_dim,
        core_h2_dim=history[0][1],
        stabilized=len({dim for _, dim in history}) == 1,
        core_history=history,
        matched_known=matched,
        grading=_grading_failure(alg),
        jacobi=_jacobi_failure(alg, plan.failing),
    )

