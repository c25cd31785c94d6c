"""The windowed engine against independent references, end to end.

At small windows the whole degree-zero cocycle system is rebuilt here from
nothing but the bracket rules' coefficient polynomials, evaluated directly
over Fraction, and AlgebraSpec.weight: the unknowns are the values on window
pairs of total weight zero, and every window triple of total weight zero
gives the cyclic cocycle identity, dropped when a nonzero bracket output
leaves the window.  The assembled constraint rows must equal these reference
rows exactly, and the dense oracle then supplies the nullity, the coboundary
rank and the core-projected dimensions, which must equal what cocycle_space,
coboundary_space and h2 report.  The same dense system decides which registry
classes h2 and match_known must report as matched, and what is_coboundary
must answer for each class.

The engine expands each family triple's identity from compiled per-index
tables; the same reference identities, rebuilt triple by triple, must give
verify_cocycle's report and the triples the packed check flags exactly.

The solve eliminates only the pinned rows and certifies the rest; at the
edges of the pinning rule, and on random Lie algebras drawn by construction
(a Witt family with tensor-density modules, DRAWN), its basis must still
be full elimination's.  h2
solves all its windows on one plan built at the largest, each grown window
going on from the echelon of the window before it; at every window of its
history the null vectors, relabelled by pair key, must equal a fresh
solve's of that window alone, the check must add exactly the rank the
pinned rows miss, and the report must be the one the windows computed alone
give.

A first window's check walks only each family triple's boundary and
certifies the rest from d^2 = 0: every triple a reference rule, decided
triple by triple from the brackets, cannot certify must be on it, the rows
walked must reach the full rank, and the boundary is used only where the
Jacobi identity holds.  The one expansion of that identity, which both
Jacobi checks also read, must agree with a walk of nested brackets, triple
by triple.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

import lieext.solve as solve
from lieext.algebra import (
    BasisElement,
    BoundAlgebra,
    _evaluate,
    _jacobi_residuals,
    check_jacobi_symbolic,
    check_jacobi_window,
    validate_parameters,
)
from lieext.dsl import parse
from lieext import REGISTRY
from lieext.engine import CocycleAssignment, KnownCocycle, h2, is_coboundary, match_known, verify_cocycle
from lieext.presets import load_algebra
from lieext.rational import format_rational
from lieext.solve import Window, assemble_constraints, coboundary_space, cocycle_space, enumerate_pairs
from lieext.sparse import _Echelon, _null_vectors, _packed, nullspace

from golden import CORRUPT_SOURCE, VERIFY_POINTS, WAB_SOURCE
from isomorphism import substitute, weight
from oracle_dense import dense_in_span, dense_nullspace, dense_rank
from test_acceptance import GRID_LAMBDAS, GRID_MUS
from test_cli import HV_SOURCE, W22_SOURCE
from test_dsl import C, V, _random_spec_source
from test_engine import _assignment, _column_of, _pair_list

POINTS = [
    pytest.param("svir", {"lambda": -3, "mu": "1/2"}, id="svir(-3,1/2)"),
    pytest.param("svir", {"lambda": -1, "mu": "1/3"}, id="svir(-1,1/3)"),
    pytest.param("svir", {"lambda": 1, "mu": 1}, id="svir(1,1)"),
    pytest.param("svir", {"lambda": -3, "mu": -1}, id="svir(-3,-1)"),
    pytest.param("witt", {}, id="witt"),
]

ROW_POINTS = [
    pytest.param("svir", {"lambda": -3, "mu": 1}, id="svir(-3,1)"),
    pytest.param("svir", {"lambda": -3, "mu": "1/2"}, id="svir(-3,1/2)"),
    pytest.param("svir", {"lambda": -1, "mu": "1/3"}, id="svir(-1,1/3)"),
    pytest.param("svir", {"lambda": 0, "mu": "1/5"}, id="svir(0,1/5)"),
    pytest.param("svir", {"lambda": "1/2", "mu": -2}, id="svir(1/2,-2)"),
    pytest.param("svir", {"lambda": 1, "mu": "2/3"}, id="svir(1,2/3)"),
    pytest.param("witt", {}, id="witt"),
]

# svir's families and weights with an L-Y coefficient that is nonlinear in
# lambda and has thirds and halves, so the brackets share no denominator
# below 12 at lambda = 1/2, mu = 1.  It need not satisfy the Jacobi identity.
STRESS_SOURCE = """
algebra stress(lambda, mu) {
    family L weight 0;
    family Y weight mu;
    family M weight 2*mu;

    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, Y m] = (m - (lambda*lambda + 1)/3*n + mu/2) Y(n + m);
    bracket [L n, M m] = (m - lambda*n + 2*mu) M(n + m);
    bracket [Y n, Y m] = (m - n) M(n + m);
}
"""
STRESS_PARAMS = {"lambda": "1/2", "mu": 1}

SOLVE_POINTS = ROW_POINTS + [pytest.param(None, STRESS_PARAMS, id="stress(1/2,1)")]

MODULE_ALPHAS = (0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3))
MODULE_BETAS = (0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 3))


def _lie_spec_source(rng):
    """A random Lie algebra, one by construction: a Witt family L of weight
    0 and one to three tensor-density modules X, each with
    [L_n, X_m] = (m + a + b*n) X(n + m) for rationals a and b, declared
    `family X weight a`.  The commutator [L_n, L_k] acts on X_m by
    (k - n)(m + a + b*(n + k)), so every a and b give a Witt module.  With
    two modules or more, half the draws bracket one X into another Z as
    svir's Y brackets into M, [X_n, X_m] = (m - n) Z(n + m): Z then has
    weight 2a, and b_Z = 2b + 1 in two draws of three, a random b_Z
    otherwise.  That bracket is kept only where algebra._jacobi_residuals
    is empty."""
    names = rng.sample("ABC", rng.randint(1, 3))
    modules = {name: [rng.choice(MODULE_ALPHAS), rng.choice(MODULE_BETAS)] for name in names}
    square = None
    if len(modules) > 1 and rng.random() < 0.5:
        x, z = rng.sample(sorted(modules), 2)
        a, b = modules[x]
        modules[z] = [2 * a, 2 * b + 1 if rng.random() < 2 / 3 else rng.choice(MODULE_BETAS)]
        square = x, z

    def source(square):
        lines = ["algebra drawn() {", "  family L weight 0;"]
        lines += [f"  family {x} weight {format_rational(a)};" for x, (a, _) in modules.items()]
        lines.append("  bracket [L n, L m] = (m - n) L(n + m);")
        for x, (a, b) in modules.items():
            coefficient = V("m") + C(a) + C(b) * V("n")
            lines.append(f"  bracket [L n, {x} m] = ({coefficient.to_text(('n', 'm'))}) {x}(n + m);")
        for i, x in enumerate(names):
            for y in names[i:]:
                if square is not None and x == y == square[0]:
                    lines.append(f"  bracket [{x} n, {x} m] = (m - n) {square[1]}(n + m);")
                else:
                    lines.append(f"  bracket [{x} n, {y} m] = 0;")
        return "\n".join(lines + ["}"])

    if square is not None and _jacobi_residuals(BoundAlgebra(parse(source(square)).spec, {})._rules):
        square = None
    return source(square)


# twenty drawn Lie algebras at a fixed seed, for the tests that run on them
_drawing = random.Random(809)
DRAWN = [_lie_spec_source(_drawing) for _ in range(20)]


def _reference_bracket(spec, params, x, y):
    """[x, y] as [(coefficient, element)], straight from the stored rule's
    coefficient polynomial."""
    if x == y:
        return []
    if spec.family_position(x.family) <= spec.family_position(y.family):
        left, right, sign = x, y, 1
    else:
        left, right, sign = y, x, -1
    rule = spec.rules[(left.family, right.family)]
    if rule.is_zero():
        return []
    value = sign * rule.coeff.evaluate(
        {**params, rule.var_left: left.index, rule.var_right: right.index}
    )
    return [(value, BasisElement(rule.out_family, x.index + y.index))] if value else []


def _dense_system(spec, params, window):
    """(pairs, constraint rows, coboundary generators, core columns), with
    dense rows and generators over the list of pairs."""
    elements = [BasisElement(fam, i) for fam in spec.families for i in window.indices()]
    weight_of = {e: weight(spec, e, params) for e in elements}
    pairs = [(x, y) for x, y in combinations(elements, 2) if weight_of[x] + weight_of[y] == 0]
    column = {pair: col for col, pair in enumerate(pairs)}

    def add(vector, e, w, value):
        if (e, w) in column:
            vector[column[(e, w)]] += value
        else:
            vector[column[(w, e)]] -= value

    rows = []
    for x, y, z in combinations(elements, 3):
        if weight_of[x] + weight_of[y] + weight_of[z] != 0:
            continue
        row = [Fraction(0)] * len(pairs)
        admissible = True
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for coeff, e in _reference_bracket(spec, params, u, v):
                if e == w:
                    continue
                if not window.contains(e.index):
                    admissible = False
                    break
                add(row, e, w, coeff)
        if admissible and any(row):
            rows.append(row)

    generators = []
    for z in elements:
        if weight_of[z] != 0:
            continue
        vector = [Fraction(0)] * len(pairs)
        for x, y in pairs:
            for coeff, e in _reference_bracket(spec, params, x, y):
                if e == z:
                    add(vector, x, y, coeff)
        generators.append(vector)

    bound = window.n - window.margin
    core = [col for col, (x, y) in enumerate(pairs) if abs(x.index) <= bound and abs(y.index) <= bound]
    return pairs, rows, generators, core


def _projected_rank(vectors, core):
    return dense_rank([[vec[c] for c in core] for vec in vectors], len(core))


def _row_multiset(rows, pair_at):
    return Counter(frozenset((pair_at(col), value) for col, value in row.items()) for row in rows)


def _assert_rows_match_reference(spec, params, window):
    pairs, rows, _, _ = _dense_system(spec, params, window)
    engine_pairs = enumerate_pairs(spec, params, window, 0)
    matrix = assemble_constraints(spec, params, window, 0, engine_pairs)
    assert _pair_list(engine_pairs) == pairs
    dense_rows = [{col: value for col, value in enumerate(row) if value} for row in rows]
    assert _row_multiset(matrix.rows(), pairs.__getitem__) == _row_multiset(
        dense_rows, pairs.__getitem__
    )


def _dense_classify(pairs, cocycles, generators, core, psi):
    """(matched, trivial) of an assignment by the dense system: trivial iff
    its core restriction is in the span of the core-restricted generators,
    matched iff it is a nonzero vector of the dense nullspace and not
    trivial."""
    column = {pair: col for col, pair in enumerate(pairs)}
    vector = [psi.value(x, y) for x, y in pairs]
    core_generators = [[vec[c] for c in core] for vec in generators]
    trivial = dense_in_span([vector[c] for c in core], core_generators, len(core))
    matched = (
        bool(psi.values)
        and all(pair in column for pair in psi.values)
        and dense_in_span(vector, cocycles, len(pairs))
        and not trivial
    )
    return matched, trivial


@pytest.mark.parametrize("name, values", POINTS)
def test_engine_matches_dense_oracle(name, values):
    spec = load_algebra(name)
    params = validate_parameters(spec, values)
    history = []
    for n in (6, 8):
        window = Window(n)
        pairs, rows, generators, core = _dense_system(spec, params, window)
        cocycles = dense_nullspace(rows, len(pairs))
        engine_pairs = enumerate_pairs(spec, params, window, 0)
        engine_cocycles = cocycle_space(spec, params, window, 0)
        engine_bounds = coboundary_space(spec, params, window, 0)
        assert len(engine_cocycles) == len(cocycles)
        assert len(engine_bounds) == dense_rank(generators, len(pairs))
        history.append((n, _projected_rank(cocycles, core) - _projected_rank(generators, core)))

        def classify(psi):
            return _dense_classify(pairs, cocycles, generators, core, psi)

        applicable = {
            known.name: known.instantiate(spec, params, window)
            for known in REGISTRY.values()
            if known.applicability(spec, params) is None
        }
        matched = h2(spec, params, window, stabilization_steps=1).matched_known
        assert [(m.name, m.matched) for m in matched] == [
            (known, classify(psi)[0]) for known, psi in applicable.items()
        ]
        assert match_known(
            spec, params, window, 0, engine_pairs, engine_cocycles, engine_bounds
        ) == matched

        # every generator summed is a coboundary with core support; adding
        # virasoro makes it nontrivial; support only on non-core pairs has
        # the empty core projection, which is in the span
        total = [sum(column) for column in zip(*generators)]
        bound = _assignment(engine_pairs, total)
        virasoro = applicable["virasoro"]
        shifted = _assignment(engine_pairs, [a + virasoro.value(x, y) for a, (x, y) in zip(total, pairs)])
        edge = CocycleAssignment(spec, window, {(BasisElement("L", -n), BasisElement("L", n)): 1})
        extra = {"generators": bound, "generators+virasoro": shifted, "edge": edge}
        for label, psi in [*applicable.items(), *extra.items()]:
            assert is_coboundary(spec, params, window, psi) == classify(psi)[1], label
        assert bound.values and is_coboundary(spec, params, window, bound)
        assert not is_coboundary(spec, params, window, shifted)
        assert is_coboundary(spec, params, window, edge)
    assert h2(spec, params, Window(6), stabilization_steps=2).core_history == history


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("name, values", ROW_POINTS)
def test_assembled_rows_equal_reference_rows(name, values, n):
    spec = load_algebra(name)
    _assert_rows_match_reference(spec, validate_parameters(spec, values), Window(n))


def test_common_denominator_rows_and_witnesses_equal_reference():
    spec = parse(STRESS_SOURCE).spec
    params = validate_parameters(spec, STRESS_PARAMS)
    window = Window(8)
    _assert_rows_match_reference(spec, params, window)
    failing = 0
    for name, known in REGISTRY.items():
        if known.applicability(spec, params) is not None:
            continue
        report = verify_cocycle(spec, params, window, known)
        if report.passed:
            continue
        failing += 1
        x, y, z, residual = report.witness
        psi = report.assignment
        expected = Fraction(0)
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for coeff, e in _reference_bracket(spec, params, u, v):
                if e != w:
                    assert window.contains(e.index), name
                    expected += coeff * psi.value(e, w)
        assert residual == expected != 0, name
    assert failing >= 5


@pytest.mark.parametrize(
    "name, values, n",
    [pytest.param(*point.values, n, id=f"{point.id}-{n}") for point in SOLVE_POINTS for n in (6, 8, 12)]
    + [pytest.param(source, {}, n, id=f"drawn{i}-{n}") for i, source in enumerate(DRAWN) for n in (6, 8)],
)
def test_subset_solve_equals_full_elimination(tmp_path, name, values, n):
    """cocycle_space eliminates only some rows and certifies the rest; its
    reduced basis must be the one full elimination gives, vector for vector,
    on the presets, on an algebra that fails the Jacobi identity, and on
    the drawn Lie algebras."""
    spec = _spec(tmp_path, STRESS_SOURCE if name is None else name)
    params = validate_parameters(spec, values)
    window = Window(n)
    pairs = enumerate_pairs(spec, params, window, 0)
    full = nullspace(assemble_constraints(spec, params, window, 0, pairs))
    assert cocycle_space(spec, params, window, 0, pairs).vectors == full.vectors


# No family of weight 0: every triple with an index -1 or 0 is pinned.
NO_WEIGHT_ZERO_SOURCE = """
algebra graded3() {
    family A weight 1;
    family B weight 2;
    family C weight 3;

    bracket [A n, A m] = (m - n) B(n + m);
    bracket [A n, B m] = (2*m - n + 1) C(n + m);
}
"""

# The same with a family of weight 0 that brackets with nothing: no
# family acts on the triples that have it, and they pin the index -1 at
# every position, which leaves rows for the check to add.
TRIVIAL_WEIGHT_ZERO_SOURCE = NO_WEIGHT_ZERO_SOURCE.replace(
    "algebra graded3() {", "algebra graded3z() {\n    family Z weight 0;"
)


def _spec(tmp_path, source):
    """A bundled preset by name, or an algebra source through a .lie file."""
    if source in ("svir", "witt"):
        return load_algebra(source)
    path = tmp_path / "algebra.lie"
    path.write_text(source)
    return load_algebra(str(path))


# (values, positions) of a family triple's pins: without a family of
# weight 0 that acts on it, an index -1, or -1 or 0 when none of its
# families has weight 0, at any position; with one, the index -1 on its
# families of weight 0 alone
EVERY = range(3)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize(
    "source, values, degree, pins",
    [
        (NO_WEIGHT_ZERO_SOURCE, {}, 2, {((-1, 0), EVERY)}),
        (NO_WEIGHT_ZERO_SOURCE, {}, 5, {((-1, 0), EVERY)}),
        (TRIVIAL_WEIGHT_ZERO_SOURCE, {}, 2, {((-1,), EVERY), ((-1, 0), EVERY)}),
        (WAB_SOURCE, {"lambda": 1, "mu": 0}, 0, {((-1,), (0, 1, 2))}),
        (WAB_SOURCE, {"lambda": 1, "mu": 0}, -1, {((-1,), (0, 1, 2))}),
        # L acts on L, Y and M: L, L, L pins -1 anywhere, L, L, Y and
        # L, L, M on the Ls, L, Y, Y to L, M, M on the L, and Y, Y, Y and
        # Y, Y, M nothing
        ("svir", {"lambda": -3, "mu": 1}, 1, {((-1,), w) for w in ((0, 1, 2), (0, 1), (0,), ())}),
        ("svir", {"lambda": 1, "mu": "1/2"}, "1/2", {((-1,), w) for w in ((0, 1), (0,), ())}),
    ],
    ids=[
        "no-weight-zero-2",
        "no-weight-zero-5",
        "trivial-weight-zero-2",
        "wab-0",
        "wab-(-1)",
        "svir(-3,1)-1",
        "svir(1,1/2)-1/2",
    ],
)
def test_pinned_rule_edges_equal_full_elimination(tmp_path, source, values, degree, pins, n):
    """The rows eliminated up front follow the families' weights; at each
    edge of that rule cocycle_space must still be full elimination's."""
    spec = _spec(tmp_path, source)
    params = validate_parameters(spec, values)
    window = Window(n)
    alg = solve._bind(spec, params)
    pairs = enumerate_pairs(spec, params, window, degree)
    identities = solve._identities(alg, n, Fraction(degree), pairs._index)
    assert {identity.pins for identity in identities if identity.terms} == pins
    for identity in identities:
        values, positions = identity.pins
        assert sorted(identity.pinned()) == [
            idx for idx in identity.indices() if any(idx[w] in values for w in positions)
        ]
    full = nullspace(assemble_constraints(spec, params, window, degree, pairs))
    assert cocycle_space(spec, params, window, degree, pairs).vectors == full.vectors


def _reference_identities(spec, params, window, degree):
    """[(x, y, z, terms)] for the window triples x < y < z (element-key
    order) of total weight `degree`, ordered by family triple and then by
    the indices of x and y, with terms the identity's summands
    [(coefficient, e, w)] meaning coefficient * psi(e, w), or None when a
    nonzero bracket output leaves the window.  Also counts the triples that
    stay admissible only because an out-of-window output has coefficient 0,
    and the nonzero terms whose output equals the element it is paired with."""
    key = spec.element_key
    elements = sorted(
        (BasisElement(fam, i) for fam in spec.families for i in window.indices()), key=key
    )
    weight_of = {e: weight(spec, e, params) for e in elements}
    offsets = {fam: spec.weight_offsets[fam].evaluate(params) for fam in spec.families}
    triples = []
    for x, y in combinations(elements, 2):
        for fam in spec.families:
            index = degree - weight_of[x] - weight_of[y] - offsets[fam]
            if index.denominator == 1 and window.contains(int(index)):
                z = BasisElement(fam, int(index))
                if key(z) > key(y):
                    triples.append((x, y, z))
    triples.sort(key=lambda t: (tuple(key(e)[0] for e in t), t[0].index, t[1].index))

    out, saved, equal = [], 0, 0
    for x, y, z in triples:
        terms, escaped_at_zero = [], False
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            bracket = _reference_bracket(spec, params, u, v)
            if not bracket:
                pair = tuple(sorted((u.family, v.family), key=spec.family_position))
                if not spec.rules[pair].is_zero() and not window.contains(u.index + v.index):
                    escaped_at_zero = True
                continue
            (coeff, e), = bracket
            if e == w:
                equal += 1
                continue
            if not window.contains(e.index):
                terms = None
                break
            terms.append((coeff, e, w))
        saved += terms is not None and escaped_at_zero
        out.append((x, y, z, terms))
    return out, saved, equal


def _reference_verify(identities, psi):
    checked = 0
    for x, y, z, terms in identities:
        if terms is None:
            continue
        checked += 1
        residual = sum((coeff * psi.value(e, w) for coeff, e, w in terms), Fraction(0))
        if residual:
            return False, checked, (x, y, z, residual)
    return True, checked, None


def _perturbed_by_sector(spec, params, window, psi) -> list:
    """psi plus 1 at one pair of each sector (family pair) with pairs at
    degree 0, one assignment per sector: the pair of smallest radius, the
    first in column order among those, so that it lies in the core."""
    chosen = {}
    for x, y in _pair_list(enumerate_pairs(spec, params, window, 0)):
        radius = max(abs(x.index), abs(y.index))
        if radius < chosen.get((x.family, y.family), (radius + 1,))[0]:
            chosen[(x.family, y.family)] = (radius, (x, y))
    perturbed = []
    for _, pair in chosen.values():
        values = dict(psi.values)
        values[pair] = values.get(pair, 0) + 1
        perturbed.append(CocycleAssignment(spec, window, values))
    return perturbed


def _sectors_alone(psi) -> list:
    """psi restricted to each of its sectors in turn, when it has several."""
    sectors = {(x.family, y.family) for x, y in psi.values}
    return [
        CocycleAssignment(psi.spec, psi.window, {
            (x, y): value for (x, y), value in psi.values.items() if (x.family, y.family) == sector
        })
        for sector in sorted(sectors) if len(sectors) > 1
    ]


def _scaled(row):
    """A row divided by its entry at the smallest column."""
    lead = row[min(row)]
    return {col: Fraction(value) / lead for col, value in row.items()}


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("name, values", SOLVE_POINTS)
def test_compiled_identity_matches_reference(name, values, n):
    spec = parse(STRESS_SOURCE).spec if name is None else load_algebra(name)
    params = validate_parameters(spec, values)
    window = Window(n)
    identities, _, _ = _reference_identities(spec, params, window, Fraction(0))

    def report(cocycle):
        got = verify_cocycle(spec, params, window, cocycle)
        return got.passed, got.triples_checked, got.witness

    virasoro = REGISTRY["virasoro"].instantiate(spec, params, window)
    perturbed = dict(virasoro.values)
    perturbed[(BasisElement("L", -2), BasisElement("L", 2))] += 1
    perturbed = CocycleAssignment(spec, window, perturbed)
    expected = _reference_verify(identities, perturbed)
    assert not expected[0]
    assert report(perturbed) == expected
    # verify_cocycle walks only the family triples with a term in a sector
    # where psi is nonzero and counts the triples of the others: perturbed
    # in one sector, or restricted to one sector of a class that holds
    # several, psi may first fail in any family triple that sector reaches,
    # and the count before it takes in the skipped ones
    cases = _perturbed_by_sector(spec, params, window, virasoro)
    for known in REGISTRY.values():
        if known.applicability(spec, params) is None:
            psi = known.instantiate(spec, params, window)
            assert report(known) == _reference_verify(identities, psi), known.name
            cases += _sectors_alone(psi)
    for psi in cases:
        assert report(psi) == _reference_verify(identities, psi)

    # wrong null vectors, packed and walked over every triple.  First two
    # sparse small ones, then four with entries near +-2**61 of both signs,
    # whose dot products must not spill into a neighbouring packed slot
    pairs = enumerate_pairs(spec, params, window, 0)
    rng = random.Random(n)
    small = [
        {col: rng.choice((-2, -1, 1, 3)) for col in range(len(pairs)) if rng.random() < 0.3}
        for _ in range(2)
    ]
    large = [
        {
            col: rng.choice((-1, 1)) * (2**61 - rng.randrange(2**20))
            for col in range(len(pairs))
            if rng.random() < 0.3
        }
        for _ in range(4)
    ]
    alg = solve._bind(spec, params)
    compiled = solve._identities(alg, n, Fraction(0), pairs._index)
    _assert_admissible_is_walked(compiled)
    for vectors in (small, large):
        flagged, top = [], 0
        for x, y, z, terms in identities:
            if terms is None:
                continue
            row = {}
            for coeff, e, w in terms:
                col, sign = _column_of(pairs, e, w)
                row[col] = row.get(col, 0) + sign * coeff
            row = {col: value for col, value in row.items() if value}
            dots = [sum(value * vec.get(col, 0) for col, value in row.items()) for vec in vectors]
            top = max(top, *map(abs, dots))
            if any(dots):
                flagged.append(((x, y, z), _scaled(row)))
        # the reference rows are over Fraction; a packed dot product is an
        # integer over the bracket denominator
        packed, width = _packed(vectors, max(identity.bound for identity in compiled))
        assert top * alg.denominator < 2 ** (width - 1)
        walked = []
        for identity in compiled:
            terms, reached = identity.valued(packed)
            # a walk stops at the first flagged triple; walking the triples
            # after it must find the next one
            rest = [idx[:2] for idx in identity.indices()]
            failed = identity.walk(terms)[1]
            while failed is not None:
                # the check skips an identity no vector reaches; it must flag nothing
                assert reached
                idx = failed[0]
                triple = tuple(alg.element(key) for key in zip(identity.families, idx))
                walked.append((triple, _scaled(identity.row(idx))))
                rest = rest[rest.index(idx[:2]) + 1 :]
                failed = identity.walk(terms, rest)[1]
        assert walked == flagged


def _assert_admissible_is_walked(identities):
    """admissible() decides "the output leaves the window" from the rules,
    not from the tables every walk reads: it must count what walk() counts
    when no entry is nonzero."""
    for identity in identities:
        assert identity.admissible() == identity.walk(identity.valued({})[0])[0], identity.families


@pytest.mark.parametrize(
    "name, values, degree",
    [
        ("witt", {}, 13),
        ("witt", {}, 26),
        ("svir", {"lambda": -3, "mu": 1}, 26),
        ("svir", {"lambda": 1, "mu": "1/2"}, -13),
    ],
    ids=["witt-13", "witt-26", "svir(-3,1)-26", "svir(1,1/2)-(-13)"],
)
def test_admissible_is_walked_where_totals_exceed_the_window(name, values, degree):
    """The index totals here exceed the window 12, so many outputs leave
    it.  A triple of svir with a Y-M or M-M pair stays admissible wherever
    that pair's output lies, as the pair brackets to 0, so the count must
    test each term's output on its own."""
    spec = load_algebra(name)
    alg = solve._bind(spec, validate_parameters(spec, values))
    pairs = solve._enumerate_pairs(alg, Window(12), Fraction(degree))
    identities = solve._identities(alg, 12, Fraction(degree), pairs._index)
    _assert_admissible_is_walked(identities)
    if name == "witt":
        # an output 13 - k leaves the window when k < 1, so the admissible
        # triples at 13 are the 8 with 1 <= i < j < k; at 26 every output
        # leaves it
        [identity] = identities
        assert list(identity.indices())
        assert identity.admissible() == {13: 8, 26: 0}[degree]


def test_drawn_lie_algebras_reach_the_boundary():
    """The drawn specs are Lie algebras that reach the d^2 = 0 certificate:
    at least 15 of the 20 have a nonzero bracket, satisfy the Jacobi
    identity and get a boundary set, not None, from a family triple with a
    module that brackets (19 do).  On each, admissible() counts what walk()
    counts at degree 0, at N = 8."""
    reached = 0
    for source in DRAWN:
        alg = solve._bind(parse(source).spec, {})
        pairs = solve._enumerate_pairs(alg, Window(8), Fraction(0))
        identities = solve._identities(alg, 8, Fraction(0), pairs._index)
        _assert_admissible_is_walked(identities)
        failing = _jacobi_residuals(alg._rules)
        bracketing = [identity for identity in identities if identity.rules and identity.families != (0, 0, 0)]
        reached += bool(
            any(rule is not None for rules in alg._rules for rule in rules)
            and not failing
            and any(identity.boundary(failing) is not None for identity in bracketing)
        )
    assert reached >= 15


@pytest.mark.parametrize(
    "source, values",
    [
        pytest.param(None, {"lambda": -3, "mu": 1}, id="svir(-3,1)"),
        pytest.param(None, {"lambda": 1, "mu": "1/2"}, id="svir(1,1/2)"),
    ]
    + [pytest.param(source, {}, id=f"drawn{i}") for i, source in enumerate(DRAWN)],
)
def test_identity_bound_covers_every_window_triple(source, values):
    """_packed sizes its slots by _Identity.bound, which is built at first
    use: it must be at least the sum of |coefficient| over an identity's
    terms (integer numerators over the algebra's denominator) at every
    triple of window indices with the identity's total, canonical or not,
    at N = 6."""
    spec = load_algebra("svir") if source is None else parse(source).spec
    alg = solve._bind(spec, validate_parameters(spec, values))
    n = 6
    pairs = solve._enumerate_pairs(alg, Window(n), Fraction(0))
    for identity in solve._identities(alg, n, Fraction(0), pairs._index):
        assert "bound" not in vars(identity)
        largest = 0
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                idx = (i, j, identity.total - i - j)
                if abs(idx[2]) <= n:
                    largest = max(
                        largest,
                        sum(abs(_evaluate(coefficient, idx[u], idx[v])) for coefficient, _, _, _, u, v in identity.rules),
                    )
        assert largest <= identity.bound, identity.families


# three families that bracket to nothing: every window triple is
# admissible, so admissible() is its closed-form count alone
ABELIAN_SOURCE = """
algebra abelian() {
    family A weight 0;
    family B weight 0;
    family C weight 0;
}
"""


def test_admissible_counts_the_window_triples_in_closed_form():
    """admissible() counts the window triples by a formula, not by walking
    them: with no term to drop a triple, it must equal the number indices()
    yields, at every index total with triples and one beyond on each side,
    for each pattern of repeated families: (F, G, H), (F, F, G), (F, G, G)
    and (F, F, F)."""
    alg = solve._bind(parse(ABELIAN_SOURCE).spec, {})
    for n in range(1, 11):
        for total in range(-3 * n - 1, 3 * n + 2):
            for families in ((0, 1, 2), (0, 0, 1), (0, 1, 1), (0, 0, 0)):
                # neither admissible() nor indices() builds a table, so the
                # identity needs no pair basis
                identity = solve._Identity(alg, n, None, families, total)
                assert not identity.rules
                assert identity.admissible() == len(list(identity.indices())), (n, total, families)


def _reference_is_coboundary(spec, params, window, psi) -> bool:
    """is_coboundary as the whole window's plan decides it: psi on the
    plan's columns, restricted to its core columns, against the kept
    coboundary generators of the window restricted to them."""
    degrees = {weight(spec, x, params) + weight(spec, y, params) for x, y in psi.values}
    if not degrees:
        return True
    [degree] = degrees
    plan = solve._Plan(solve._bind(spec, params), window, Fraction(degree))
    key, scale = spec.element_key, math.lcm(*(value.denominator for value in psi.values.values()))
    vector = {plan.pairs._index[(key(x), key(y))]: int(value * scale) for (x, y), value in psi.values.items()}
    core = set(plan.pairs.core_columns())
    return solve._core_echelon(plan.coboundaries(window.n), core).contains(solve._restrict(vector, core))


@pytest.mark.parametrize("n", [8, 30])
def test_core_pair_is_coboundary_matches_the_plan(n):
    """is_coboundary brackets the core pairs alone.  It must answer as the
    whole window's plan does: for every class that applies at the verify
    points, for each kept coboundary generator of the plan, which is a
    coboundary, and for support outside the core alone, which is one too.
    At degree n - 1 the generator of L_(n-1), an element outside the core,
    has core support: it must still span."""
    svir, window = load_algebra("svir"), Window(n)
    nontrivial = 0
    for (lam, mu), names in VERIFY_POINTS.items():
        params = validate_parameters(svir, {"lambda": lam, "mu": mu})
        bounds = []
        for degree in (0, n - 1):
            plan = solve._Plan(solve._bind(svir, params), window, Fraction(degree))
            elements, denominator = _pair_list(plan.pairs), plan.alg.denominator
            bounds += [
                CocycleAssignment(svir, window, {elements[c]: Fraction(v, denominator) for c, v in vec.items()})
                for vec in plan.coboundaries(n)
            ]
        edge = CocycleAssignment(svir, window, {(BasisElement("L", -i), BasisElement("L", i)): i for i in (n - 1, n)})
        assert bounds
        for psi in [*bounds, edge]:
            assert is_coboundary(svir, params, window, psi) and _reference_is_coboundary(svir, params, window, psi)
        for name in names:
            psi = REGISTRY[name].instantiate(svir, params, window)
            trivial = is_coboundary(svir, params, window, psi)
            assert trivial == _reference_is_coboundary(svir, params, window, psi), (lam, mu, name)
            nontrivial += not trivial
    assert nontrivial


KEPT_POINTS = [("svir", {"lambda": lam, "mu": mu}) for lam in (-3, -1, "1/2", 1) for mu in (1, -2, "1/2", "1/3")] + [
    ("witt", {}),
    (HV_SOURCE, {}),
    (W22_SOURCE, {}),
    (NO_WEIGHT_ZERO_SOURCE, {}),
    (WAB_SOURCE, {"lambda": 1, "mu": 0}),
    (WAB_SOURCE, {"lambda": 2, "mu": 1}),
]


def test_every_nonzero_coboundary_generator_is_kept(tmp_path):
    """_Plan.coboundaries keeps each generator that is nonzero on the
    window's columns, with no echelon: a pair brackets to one element, so
    the generators of distinct z have disjoint supports.  It must keep what
    an echelon keeps, generator by generator in z order, at every window
    view of the plan and at degrees where some weights are halves."""
    plans = dropped = 0
    for source, values in KEPT_POINTS:
        spec = _spec(tmp_path, source)
        alg = solve._bind(spec, validate_parameters(spec, values))
        for degree in (-1, 0, Fraction(1, 2), 1):
            plan = solve._Plan(alg, Window(12), Fraction(degree))
            for n in (8, 10, 12):
                within = set(plan.pairs._columns(n))
                ech, reference = _Echelon(), []
                for (_, index), generator in plan.images.items():
                    generator = solve._restrict(generator, within)
                    if abs(index) <= n and ech.add(generator):
                        reference.append(generator)
                kept = plan.coboundaries(n)
                assert kept == reference, (source, values, degree, n)
                columns = [col for generator in kept for col in generator]
                assert len(columns) == len(set(columns))
                dropped += sum(abs(index) <= n for _, index in plan.images) - len(kept)
                plans += 1
    assert plans == 264 and dropped


def _coboundary_of(spec, params, window, z) -> CocycleAssignment:
    """The coboundary (x, y) -> f([x, y]) of f dual to the basis element z,
    on the window pairs."""
    key = spec.element_key
    elements = [BasisElement(fam, i) for fam in spec.families for i in window.indices()]
    values = {}
    for x, y in combinations(elements, 2):
        for coeff, out in _reference_bracket(spec, params, x, y):
            if out == z:
                values[(x, y) if key(x) < key(y) else (y, x)] = coeff
    return CocycleAssignment(spec, window, values)


@pytest.mark.parametrize("n", [6, 8])
def test_verify_skip_matches_reference_at_two_degrees_and_off_jacobi(tmp_path, n):
    """verify_cocycle's report is the reference walk's, over the degrees
    psi has values at in increasing order, on an assignment with values at
    two degrees, which verify_cocycle walks one degree after the other; on the sectors of a
    coupled class alone where the class is a cocycle; on an algebra where
    the Jacobi identity fails, so declared classes fail too; and on wab at
    (1, 0), whose two families both have weight 0."""
    window = Window(n)
    svir, params = load_algebra("svir"), {"lambda": Fraction(-3), "mu": Fraction(1)}
    virasoro = REGISTRY["virasoro"].instantiate(svir, params, window)
    bound = _coboundary_of(svir, params, window, BasisElement("L", 1))
    assert bound.values
    both = CocycleAssignment(svir, window, {**virasoro.values, **bound.values})
    failing = dict(both.values)
    failing[(BasisElement("L", 0), BasisElement("L", 1))] += 1
    cases = [(svir, params, psi) for psi in (both, CocycleAssignment(svir, window, failing))]
    # lm-yy-cubic is a cocycle at lambda = 1: each sector alone first fails
    # on (L, Y, Y), whose first term's sector is Y-Y, so the L-M sector
    # reaches it only through its second term
    for mu in (1, Fraction(1, 2)):
        params = {"lambda": Fraction(1), "mu": Fraction(mu)}
        coupled = REGISTRY["lm-yy-cubic"].instantiate(svir, params, window)
        cases += [(svir, params, psi) for psi in _sectors_alone(coupled)]
    for source, values in ((CORRUPT_SOURCE, {"lambda": -3, "mu": 1}), (WAB_SOURCE, {"lambda": 1, "mu": 0})):
        spec = _spec(tmp_path, source)
        params = validate_parameters(spec, values)
        known = [cocycle for cocycle in REGISTRY.values() if cocycle.applicability(spec, params) is None]
        cases += [(spec, params, cocycle) for cocycle in known]
        virasoro = REGISTRY["virasoro"].instantiate(spec, params, window)
        cases += [(spec, params, psi) for psi in _perturbed_by_sector(spec, params, window, virasoro)]
    for spec, params, cocycle in cases:
        psi = cocycle.instantiate(spec, params, window) if isinstance(cocycle, KnownCocycle) else cocycle
        degrees = sorted({weight(spec, x, params) + weight(spec, y, params) for x, y in psi.values})
        identities = [
            triple for degree in degrees for triple in _reference_identities(spec, params, window, degree)[0]
        ]
        got = verify_cocycle(spec, params, window, cocycle)
        assert (got.passed, got.triples_checked, got.witness) == _reference_verify(identities, psi)


@pytest.mark.parametrize(
    "name, values, n",
    [("svir", {"lambda": "1/2", "mu": -2}, 6), ("witt", {}, 6)],
    ids=["svir(1/2,-2)", "witt"],
)
def test_reference_identities_reach_the_special_cases(name, values, n):
    """The compiled tables special-case two kinds of term, and the points
    above contain both: an output that leaves the window with coefficient 0
    keeps the triple admissible (svir [L_n, M_m] vanishes at
    m = lambda*n - 2*mu), and an output equal to its paired element adds
    nothing (witt [L_-j, L_j] = 2j L_0 beside L_0)."""
    spec = load_algebra(name)
    params = validate_parameters(spec, values)
    _, saved, equal = _reference_identities(spec, params, Window(n), Fraction(0))
    assert equal > 0
    if name == "svir":
        assert saved > 0


def _assert_strip_meets_new_rows(plan, n, previous):
    """Every nonempty admissible row of the plan's window n that the solve
    grown from window `previous` does not visit (its triple does not meet
    the strip) must be a row of window `previous`, compiled from nothing
    there, with the same entries once its columns are mapped by pair key."""
    strip = [i for i in range(-n, n + 1) if abs(i) > previous]
    smaller = solve._enumerate_pairs(plan.alg, Window(previous), plan.degree)
    column = {col: plan.pairs._index[key] for key, col in smaller._index.items()}
    smaller_identities = {
        identity.families: identity
        for identity in solve._identities(plan.alg, previous, plan.degree, smaller._index)
    }
    for families, total in solve._totals(plan.alg, plan.degree, 3):
        identity = solve._Identity(plan.alg, n, plan.pairs._index, families, total)
        met = {(i, j, identity.total - i - j) for i, j in identity.meeting(identity.touching(strip))}
        for idx in identity.indices():
            row = identity.row(idx)
            if not row or idx in met:
                continue
            assert all(abs(i) <= previous for i in idx), idx
            smaller_row = smaller_identities[identity.families].row(idx)
            assert smaller_row is not None, (identity.families, idx)
            assert {column[col]: value for col, value in smaller_row.items()} == row


def _rank_deficit(alg, degree, pairs):
    """The rank of every admissible row of the window minus the rank of the
    rows the solve eliminates up front: those of the triples with an index
    in the identity's pins at one of its positions.  Both by separate full
    eliminations over all of indices(), not over pinned()."""
    full, pinned = _Echelon(), _Echelon()
    for identity in solve._identities(alg, pairs.window.n, degree, pairs._index):
        values, positions = identity.pins
        for idx in identity.indices():
            row = identity.row(idx)
            if row:
                full.add(row)
                if any(idx[w] in values for w in positions):
                    pinned.add(row)
    return full.rank - pinned.rank


def _seeded_windows(monkeypatch, spec, params, window, steps=3):
    """Run h2 with each window's solve on the plan checked against a fresh
    solve of that window alone, and each grown window's unvisited rows
    against the window before it; returns [(n, grown from the window
    before, rows the check added)] per window."""
    cocycles, check = solve._Plan.cocycles, solve._Plan.check
    added, windows = [], []

    def counting(plan, *args):
        rank = plan.ech.rank
        vectors = check(plan, *args)
        added.append(plan.ech.rank - rank)
        return vectors

    def checked(plan, n):
        previous = plan.solved
        if previous is not None:
            _assert_strip_meets_new_rows(plan, n, previous)
        start = len(added)
        vectors = cocycles(plan, n)
        windows.append((n, previous is not None, sum(added[start:])))
        # the window's null vectors, relabelled by pair key to its own
        # columns, are a fresh solve's vector for vector
        fresh = solve._Plan(plan.alg, Window(n), plan.degree)
        label = {plan.pairs._index[key]: col for key, col in fresh.pairs._index.items()}
        relabelled = [{label[col]: value for col, value in vec.items()} for vec in vectors]
        assert relabelled == cocycles(fresh, n), n
        return vectors

    # undone on return, so that the next call wraps the engine's own again
    with monkeypatch.context() as patch:
        patch.setattr(solve._Plan, "check", counting)
        patch.setattr(solve._Plan, "cocycles", checked)
        h2(spec, params, window, stabilization_steps=steps)
    expected = [(window.n + 2 * step, step > 0) for step in range(steps)]
    assert [(n, seeded) for n, seeded, _ in windows] == expected
    return windows


def _assert_check_adds_the_deficit(spec, params, window, windows):
    """The first window's check adds exactly the rank deficit of the pinned
    rows, and a seeded window's adds nothing."""
    alg = solve._bind(spec, params)
    pairs = solve._enumerate_pairs(alg, window, Fraction(0))
    assert windows[0][2] == _rank_deficit(alg, Fraction(0), pairs)
    assert [added for _, _, added in windows[1:]] == [0] * (len(windows) - 1)


@pytest.mark.parametrize("lam", GRID_LAMBDAS, ids=str)
def test_seeded_windows_equal_fresh_solves_on_grid(monkeypatch, lam):
    spec = load_algebra("svir")
    for mu in GRID_MUS:
        params = {"lambda": lam, "mu": mu}
        windows = _seeded_windows(monkeypatch, spec, params, Window(12))
        _assert_check_adds_the_deficit(spec, params, Window(12), windows)


@pytest.mark.parametrize(
    "name, values, n, steps",
    [
        ("svir", {"lambda": -3, "mu": 1}, 40, 3),
        ("svir", {"lambda": 1, "mu": "1/2"}, 40, 3),
        ("witt", {}, 12, 4),
        ("svir", {"lambda": -3, "mu": 1}, 12, 1),
    ],
    ids=["wide(-3,1)", "wide(1,1/2)", "witt", "one-step"],
)
def test_seeded_windows_equal_fresh_solves(monkeypatch, name, values, n, steps):
    spec = load_algebra(name)
    windows = _seeded_windows(monkeypatch, spec, values, Window(n), steps)
    _assert_check_adds_the_deficit(spec, validate_parameters(spec, values), Window(n), windows)


def _pin_index_zero(identity):
    """A narrower rule for the solve: the triples with an index 0."""
    return [(i, j, identity.total - i - j) for i, j in identity.meeting((0,))]


@pytest.mark.parametrize("name, values", POINTS)
def test_seeded_check_adds_rows_under_a_narrow_subset(monkeypatch, name, values):
    # with only the triples of an index 0 eliminated, the rows miss some of
    # the strip's rows on every grown window, so the seeded check must find
    # and add them
    monkeypatch.setattr(solve._Identity, "pinned", _pin_index_zero)
    windows = _seeded_windows(monkeypatch, load_algebra(name), values, Window(8))
    assert all(added for _, seeded, added in windows if seeded)


@pytest.mark.parametrize(
    "source, values, degree, n, margin, steps",
    [
        ("witt", {}, 0, 10, 3, 4),
        (NO_WEIGHT_ZERO_SOURCE, {}, 0, 8, 3, 3),
        (NO_WEIGHT_ZERO_SOURCE, {}, 2, 8, 3, 3),
        (WAB_SOURCE, {"lambda": 1, "mu": 0}, -1, 8, 3, 3),
        (HV_SOURCE, {}, 0, 10, 3, 3),
        (W22_SOURCE, {}, 0, 10, 3, 3),
        ("svir", {"lambda": -3, "mu": 1}, 0, 8, 3, 1),
        ("svir", {"lambda": 1, "mu": "1/2"}, 0, 8, 3, 2),
        ("svir", {"lambda": -1, "mu": "1/3"}, 0, 6, 1, 3),
        ("svir", {"lambda": -3, "mu": 2}, 0, 10, 5, 3),
    ],
    ids=[
        "witt-4-steps",
        "graded3-0",
        "graded3-2",
        "wab-(-1)",
        "hv",
        "w22",
        "svir(-3,1)-1-step",
        "svir(1,1/2)-2-steps",
        "svir(-1,1/3)-margin-1",
        "svir(-3,2)-margin-5",
    ],
)
def test_h2_equals_fresh_windows(tmp_path, source, values, degree, n, margin, steps):
    """Every window of h2's plan reports what that window computed alone
    reports: core history, cocycle and coboundary dimensions and matches."""
    spec = _spec(tmp_path, source)
    params = validate_parameters(spec, values)
    window = Window(n, margin)
    report = h2(spec, params, window, degree, stabilization_steps=steps)
    alg = solve._bind(spec, params)
    history = []
    for step in range(steps):
        grown = window.grown(2 * step)
        vectors, bounds, _, _, dim = solve._Plan(alg, grown, Fraction(degree)).core_dims(grown)
        history.append((grown.n, dim))
        if not step:
            assert (report.cocycle_dim, report.coboundary_dim) == (len(vectors), len(bounds))
    assert report.core_history == history
    pairs = enumerate_pairs(spec, params, window, degree)
    cocycles = cocycle_space(spec, params, window, degree, pairs)
    bounds = coboundary_space(spec, params, window, degree, pairs)
    assert report.matched_known == match_known(spec, params, window, degree, pairs, cocycles, bounds)
    if source in (HV_SOURCE, W22_SOURCE):
        assert all(m.matched for m in report.matched_known)


@pytest.mark.parametrize(
    "name, values, steps",
    [("svir", {"lambda": -3, "mu": "1/2"}, 3), ("svir", {"lambda": 1, "mu": 1}, 1), ("witt", {}, 4)],
    ids=["svir(-3,1/2)", "svir(1,1)-1-step", "witt-4-steps"],
)
def test_h2_builds_one_plan(monkeypatch, name, values, steps):
    """One h2 call enumerates its pairs once, and its plan builds the
    identity of each family triple once, at its largest window: each window
    it solves reads the same one."""
    spec = load_algebra(name)
    alg = solve._bind(spec, values)
    # the family triples whose index total is an integer at degree 0
    triples = [
        families
        for families in combinations_with_replacement(range(len(alg.offsets)), 3)
        if sum(alg.offsets[p] for p in families).denominator == 1
    ]
    calls = Counter()
    enumerate_pairs_, init = solve._enumerate_pairs, solve._Identity.__init__

    def counting_pairs(*args):
        calls["pairs"] += 1
        return enumerate_pairs_(*args)

    def counting_init(self, *args):
        calls[args[3]] += 1
        init(self, *args)

    monkeypatch.setattr(solve, "_enumerate_pairs", counting_pairs)
    monkeypatch.setattr(solve._Identity, "__init__", counting_init)
    h2(spec, values, Window(8), stabilization_steps=steps)
    assert calls.pop("pairs") == 1
    assert calls == {families: 1 for families in triples}


def test_plan_refuses_a_window_that_does_not_grow():
    """A plan's echelon holds the rows of the window it solved last, so the
    next window it solves must be larger."""
    alg = solve._bind(load_algebra("svir"), {"lambda": -3, "mu": 1})
    plan = solve._Plan(alg, Window(12), Fraction(0))
    plan.core_dims(Window(8))
    for n in (8, 6):
        with pytest.raises(ValueError, match=f"window {n} does not grow the solved window 8"):
            plan.cocycles(n)
    with pytest.raises(ValueError, match="does not grow"):
        plan.core_dims(Window(8))
    assert plan.solved == 8
    assert plan.core_dims(Window(10))[-1] == 3


@pytest.mark.parametrize(
    "source, values, degree",
    [
        ("svir", {"lambda": -3, "mu": 1}, 0),
        ("svir", {"lambda": 1, "mu": "1/2"}, "1/2"),
        ("witt", {}, 0),
        ("witt", {}, 2),
        (HV_SOURCE, {}, 0),
        (NO_WEIGHT_ZERO_SOURCE, {}, 5),
    ],
    ids=["svir(-3,1)", "svir(1,1/2)-1/2", "witt", "witt-2", "hv", "graded3-5"],
)
def test_pair_basis_equals_element_enumeration(tmp_path, source, values, degree):
    """The pairs of a basis, built from its element keys, are the pairs of
    window elements of total weight `degree` in element-key order, and its
    core columns those whose elements both lie in the core."""
    spec = _spec(tmp_path, source)
    params = validate_parameters(spec, values)
    window = Window(8)
    elements = sorted((BasisElement(fam, i) for fam in spec.families for i in window.indices()), key=spec.element_key)
    expected = [
        (x, y)
        for x, y in combinations(elements, 2)
        if weight(spec, x, params) + weight(spec, y, params) == Fraction(degree)
    ]
    pairs = enumerate_pairs(spec, params, window, degree)
    assert expected and len(pairs) == len(expected)
    assert _pair_list(pairs) == expected
    assert pairs.core_columns() == [
        col
        for col, (x, y) in enumerate(expected)
        if max(abs(x.index), abs(y.index)) <= window.core_bound()
    ]


def _plan_identities(plan):
    """The identities at the plan's own window of its family triples whose
    family pairs bracket to something, as the solve of that window builds
    them."""
    return [
        identity
        for identity in solve._identities(plan.alg, plan.window.n, plan.degree, plan.pairs._index)
        if identity.rules
    ]


def _reference_uncertified(alg, identities, identity):
    """The admissible triples tau of `identity` that the d^2 = 0 recursion
    does not certify, decided triple by triple from the brackets.  With L
    the first family of weight 0 that maps each family here into itself, p
    a position whose family is not repeated (0 for F, F, F) and x = tau +
    e_p, the quadruple (L_-1, x) certifies tau when c_p(tau_p + 1) != 0 and
    every other term with a nonzero coefficient vanishes: the neighbours
    [L_-1, x_q] with x_q lowered, and the triples ([x_u, x_v], L_-1, x_w).
    Such a term vanishes when it repeats an element or its family triple
    brackets to nothing, and may be taken to vanish (walked, pinned, or
    certified before tau) when its elements lie in the window, it is a row
    of its family triple, and it is not tau itself."""
    n, families = identity.n, identity.families
    [acting] = [
        L
        for L, offset in enumerate(alg.offsets)
        if not offset and all((alg._rules[L][f] or (None,))[0] == f for f in families)
    ][:1]
    p = next((w for w in range(3) if families.count(families[w]) == 1), 0)
    compiled = {other.families: other for other in identities}
    lowered = (acting, -1)

    def vanishes(keys, tau):
        keys = sorted(keys)
        if len(set(keys)) < 3:
            return True
        if any(abs(index) > n for _, index in keys) or keys == tau:
            return False
        fams, idx = zip(*keys)
        return fams not in compiled or compiled[fams].row(idx) is not None

    uncertified = []
    for idx in identity.indices():
        if identity.row(idx) is None:
            continue
        tau = sorted(zip(families, idx))
        x = [(f, i + (w == p)) for w, (f, i) in enumerate(zip(families, idx))]
        if idx[p] == n or alg.int_bracket(lowered, x[p]) is None:
            uncertified.append(idx)
            continue
        terms = []
        for q in range(3):
            if q != p and alg.int_bracket(lowered, x[q]) is not None:
                terms.append([(f, i - (w == q)) for w, (f, i) in enumerate(x)])
        for u, v, w in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            bracket = alg.int_bracket(x[u], x[v])
            if bracket is not None:
                terms.append([bracket[1], lowered, x[w]])
        if not all(vanishes(keys, tau) for keys in terms):
            uncertified.append(idx)
    return uncertified


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize(
    "source, values, n",
    [
        ("svir", {"lambda": -3, "mu": 1}, 12),
        ("svir", {"lambda": -3, "mu": 1}, 20),
        ("svir", {"lambda": 1, "mu": "1/2"}, 12),
        ("svir", {"lambda": 1, "mu": "1/2"}, 20),
        ("witt", {}, 12),
        (WAB_SOURCE, {"lambda": 2, "mu": 1}, 12),
        (HV_SOURCE, {}, 12),
        (W22_SOURCE, {}, 12),
    ],
    ids=["svir(-3,1)-12", "svir(-3,1)-20", "svir(1,1/2)-12", "svir(1,1/2)-20", "witt", "wab(2,1)", "hv", "w22"],
)
def test_boundary_holds_every_uncertified_triple(tmp_path, source, values, degree, n):
    """The first window's check walks each family triple's boundary: it
    must hold every admissible triple the reference rule cannot certify,
    and the triples with an index -1, whose rows the certificate uses.  So
    the rows of the walked triples alone have the rank of all the rows."""
    spec = _spec(tmp_path, source)
    alg = solve._bind(spec, validate_parameters(spec, values))
    plan = solve._Plan(alg, Window(n), Fraction(degree))
    assert plan.failing == {}
    walked, full = _Echelon(), _Echelon()
    listed_count = total = uncertified = 0
    identities = _plan_identities(plan)
    for identity in identities:
        listed = identity.boundary(plan.failing)
        # walk() takes each listed (i, j) as a window triple, unchecked
        assert listed <= {idx[:2] for idx in identity.indices()}
        reference = _reference_uncertified(alg, identities, identity)
        missing = [idx for idx in reference if idx[:2] not in listed]
        assert not missing, (identity.families, missing)
        assert set(identity.meeting((-1,))) <= listed
        for idx in identity.indices():
            row = identity.row(idx)
            if row:
                full.add(row)
                if idx[:2] in listed:
                    walked.add(row)
        listed_count += len(listed)
        total += sum(1 for _ in identity.indices())
        uncertified += len(reference)
    assert uncertified
    assert walked.rank == full.rank
    if n == 20:
        assert listed_count < total / 2


@pytest.mark.parametrize(
    "source, values, broken",
    [
        ("svir", {"lambda": -3, "mu": 1}, set()),
        ("svir", {"lambda": "1/2", "mu": -2}, set()),
        ("witt", {}, set()),
        (STRESS_SOURCE, STRESS_PARAMS, {(0, 1, 1)}),
        (CORRUPT_SOURCE, {"lambda": -3, "mu": 1}, {(0, 1, 1)}),
    ],
    ids=["svir(-3,1)", "svir(1/2,-2)", "witt", "stress", "corrupt"],
)
def test_boundary_needs_the_jacobi_identity(tmp_path, source, values, broken):
    """d^2 = 0 needs the Jacobi identity.  The plan's failing set holds the
    family triples where it fails at the bound parameters, as the residuals
    at the indices -4..4 decide it: a polynomial of degree at most 8 in each
    index that vanishes there is zero.  An identity that needs another triple, its
    own or L (family 0 here) with two of its families, walks every triple,
    as does one whose triples with L_-1 have an output index total + 1
    outside the window."""
    spec = _spec(tmp_path, source)
    alg = solve._bind(spec, validate_parameters(spec, values))
    triples = set(combinations_with_replacement(range(len(alg.offsets)), 3))
    lawful = {
        families
        for families in triples
        if not any(_reference_jacobi(alg, *zip(families, idx)) for idx in product(range(-4, 5), repeat=3))
    }
    plan = solve._Plan(alg, Window(8), Fraction(0))
    assert triples - set(plan.failing) == lawful == triples - broken
    for identity in _plan_identities(plan):
        needs = {identity.families, *(tuple(sorted((0, f, g))) for f, g in combinations(identity.families, 2))}
        walks_all = bool(needs & broken) or abs(identity.total + 1) > 8
        assert (identity.boundary(plan.failing) is None) == walks_all, identity.families


def _reference_jacobi(alg, x, y, z) -> dict:
    """{element key: numerator over alg.denominator ** 2} of the nonzero
    residual coefficients of one triple of element keys, from the three
    nested brackets of its cyclic orders."""
    residual: dict = {}
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        first = alg.int_bracket(u, v)
        second = first and alg.int_bracket(first[1], w)
        if second:
            e = second[1]
            residual[e] = residual.get(e, 0) + first[0] * second[0]
    return {e: value for e, value in residual.items() if value}


def _reference_jacobi_window(alg, n) -> tuple:
    """check_jacobi_window's (passed, triples checked, witness), by walking
    every triple of distinct elements with indices in [-n, n] in key order
    up to the first one with a nonzero residual."""
    keys = [(pos, i) for pos in range(len(alg.families)) for i in range(-n, n + 1)]
    checked = 0
    for triple in combinations(keys, 3):
        checked += 1
        residual = _reference_jacobi(alg, *triple)
        if residual:
            witness = {alg.element(e): Fraction(v, alg.denominator**2) for e, v in residual.items()}
            return False, checked, (*map(alg.element, triple), witness)
    return True, checked, None


def _jacobi_algebras() -> list:
    """The bundled presets, the test algebras, and criterion 8's random
    specs, each parameter bound to a fixed value."""
    rng = random.Random(808)
    values = {"alpha": 2, "beta": "-1/2", "gam": 3}
    randoms = []
    for i in range(20):
        source = _random_spec_source(rng)
        bound = {p: values[p] for p in parse(source).spec.parameters}
        randoms.append(pytest.param(source, bound, id=f"random{i}"))
    return [
        pytest.param("svir", {"lambda": -3, "mu": 1}, id="svir(-3,1)"),
        pytest.param("svir", {"lambda": "1/2", "mu": -2}, id="svir(1/2,-2)"),
        pytest.param("witt", {}, id="witt"),
        pytest.param(CORRUPT_SOURCE, {"lambda": -3, "mu": 1}, id="corrupt(-3,1)"),
        pytest.param(CORRUPT_SOURCE, {"lambda": 0, "mu": 1}, id="corrupt(0,1)"),
        pytest.param(STRESS_SOURCE, STRESS_PARAMS, id="stress"),
        pytest.param(HV_SOURCE, {}, id="hv"),
        pytest.param(W22_SOURCE, {}, id="w22"),
        pytest.param(WAB_SOURCE, {"lambda": 1, "mu": 0}, id="wab(1,0)"),
        pytest.param(WAB_SOURCE, {"lambda": 2, "mu": 1}, id="wab(2,1)"),
        *randoms,
    ]


@pytest.mark.parametrize("source, values", _jacobi_algebras())
def test_jacobi_checks_match_the_bracket_walk(tmp_path, source, values):
    """Both Jacobi checks read one expansion of the identity per family
    triple.  The windowed check must give the triple by triple bracket
    walk's verdict, count and witness, and each symbolic residual, with the
    parameters substituted, must be the walk's residual at every triple of
    indices in [-3, 3]; where it vanishes, so must the walk's."""
    spec = _spec(tmp_path, source)
    params = validate_parameters(spec, values)
    alg = BoundAlgebra(spec, params)
    for n in (0, 2, 4):
        got = check_jacobi_window(spec, params, n)
        assert (got.passed, got.triples_checked, got.witness) == _reference_jacobi_window(alg, n), n
    symbolic = check_jacobi_symbolic(spec)
    assert symbolic.passed == (not symbolic.residuals)
    residuals = {}
    for families, out_family, poly in symbolic.residuals:
        positions = tuple(map(spec.family_position, families))
        residuals.setdefault(positions, []).append((spec.family_position(out_family), substitute(poly, params)))
    for families in combinations_with_replacement(range(len(spec.families)), 3):
        for idx in product(range(-3, 4), repeat=3):
            expected = {
                (out, sum(idx)): value * alg.denominator**2
                for out, poly in residuals.get(families, [])
                if (value := poly.evaluate(dict(zip(("_i", "_j", "_k"), idx))))
            }
            assert _reference_jacobi(alg, *zip(families, idx)) == expected, (families, idx)


# The first windows at N = 12 where the pinned rows miss rank, so that the
# check adds rows.
DEFICIT_POINTS = [{"lambda": -3, "mu": 2}, {"lambda": -1, "mu": 1}, {"lambda": 0, "mu": "1/2"}, {"lambda": 5, "mu": -2}]


def _fails(identities, walks, vector):
    """Whether the vector fails an admissible triple walked: every triple
    of an identity whose walk is None."""
    for identity, walk in zip(identities, walks):
        if identity.walk(identity.valued(vector)[0], walk)[1] is not None:
            return True
    return False


@pytest.mark.parametrize("values", DEFICIT_POINTS, ids=str)
def test_boundary_walk_finds_every_failing_vector(values):
    """A vector that fails some admissible triple fails a triple of the
    boundary walk.  Tried on the null vectors of the pinned rows alone and
    on seeded integer combinations of them, which are not all cocycles; the
    final null vectors fail no triple of a full walk."""
    alg = solve._bind(load_algebra("svir"), values)
    plan = solve._Plan(alg, Window(12), Fraction(0))
    identities = _plan_identities(plan)
    boundaries = [identity.boundary(plan.failing) for identity in identities]
    assert None not in boundaries
    ech = _Echelon()
    for identity in identities:
        for idx in identity.pinned():
            row = identity.row(idx)
            if row:
                ech.add(row)
    columns = plan.pairs._columns(12)
    vectors = _null_vectors(ech.pivots, columns)
    rng = random.Random(12)
    combined = [
        {col: value for col in columns if (value := sum(c * vec.get(col, 0) for c, vec in zip(cs, vectors)))}
        for cs in ([rng.randint(-3, 3) for _ in vectors] for _ in range(6))
    ]
    full = [None] * len(identities)
    failing = [vec for vec in vectors + combined if _fails(identities, full, vec)]
    assert failing
    for vector in failing:
        assert _fails(identities, boundaries, vector)
    final = plan.cocycles(12)
    assert len(final) < len(vectors)
    assert not any(_fails(identities, full, vec) for vec in final)
