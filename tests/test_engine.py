import ast
import contextlib
import io
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest

import lieext
import lieext.engine as engine
import lieext.solve as solve
from lieext import REGISTRY, theorem_predicted_dim
from lieext.algebra import BasisElement, CocycleLine, ParameterError, validate_parameters
from lieext.engine import (
    CocycleAssignment,
    h2,
    is_coboundary,
    nonzero_degree_triviality,
    verify_cocycle,
)
from lieext.dsl import parse
from lieext.poly import IndexPolynomial
from lieext.presets import load_algebra
from lieext.solve import Window
from lieext.spaces import (
    SparseMatrix,
    VectorBasis,
    assemble_constraints,
    coboundary_space,
    cocycle_space,
    enumerate_pairs,
    match_known,
)

from golden import WAB_SOURCE
from isomorphism import weight
from oracle_dense import dense_in_span, dense_matvec
from test_cli import SVIR_Y_FIRST_SOURCE

SVIR = load_algebra("svir")
WITT = load_algebra("witt")


def L(n):
    return BasisElement("L", n)


def Y(n):
    return BasisElement("Y", n)


def M(n):
    return BasisElement("M", n)


def _pair_list(pairs) -> list:
    """The element pairs of a PairBasis's columns, in column order."""
    families = pairs.spec.families
    return [tuple(BasisElement(families[f], i) for f, i in pair) for pair in pairs._index]


def _named(row, pairs) -> dict:
    """A row {column: value} keyed by the element pairs of its columns."""
    listed = _pair_list(pairs)
    return {listed[col]: value for col, value in row.items()}


def _column_of(pairs, x, y) -> tuple:
    """(column, sign) of the pair {x, y} in a PairBasis: sign is -1 when
    (x, y) is the reversed orientation of the stored pair.  A pair not in
    the basis raises KeyError."""
    x, y = pairs.spec.element_key(x), pairs.spec.element_key(y)
    return (pairs._index[(x, y)], 1) if x < y else (pairs._index[(y, x)], -1)


def _assignment(pairs, vector) -> CocycleAssignment:
    """The CocycleAssignment of a vector over a PairBasis's columns."""
    return CocycleAssignment(pairs.spec, pairs.window, dict(zip(_pair_list(pairs), vector, strict=True)))


def _pairs_within(pairs, bound):
    """Restrict an enumeration to pairs with both indices in [-bound, bound].

    Pair membership depends only on weights, so this equals the enumeration
    over the smaller index range (too small to be a legal Window directly).
    """
    return {(x, y) for x, y in _pair_list(pairs) if abs(x.index) <= bound and abs(y.index) <= bound}


def _identity_row(spec, params, window, x, y, z, pairs):
    """The cocycle constraint of the triple as {column: Fraction}, or None
    when a bracket leaves the window: the engine's row over its denominator."""
    alg = solve._bind(spec, params)
    families, idx = zip(*(spec.element_key(e) for e in (x, y, z)))
    row = solve._Identity(alg, window.n, pairs._index, families, sum(idx)).row(idx)
    return None if row is None else {col: Fraction(v, alg.denominator) for col, v in row.items()}


def test_window_validation():
    with pytest.raises(ValueError):
        Window(3, 0)
    with pytest.raises(ValueError):
        Window(3, 1)  # n - margin < 3
    w = Window(10, 3)
    assert w.core_bound() == 7
    assert w.grown(2) == Window(12, 3)
    assert list(w.indices()) == list(range(-10, 11))


def test_window_refuses_a_non_integer_radius_or_margin():
    # a half-integer n failed only later, inside range, and a margin of 2.5
    # gave h2 a core bound of 9.5
    for n, margin in ((12.5, 3), (Fraction(25, 2), 3), (Fraction(12), 3), (12, 2.5)):
        with pytest.raises(ValueError, match="window n and margin must be integers"):
            Window(n, margin)


def test_enumerate_pairs_third_integer_mu():
    pairs = enumerate_pairs(SVIR, {"lambda": 0, "mu": "1/3"}, Window(6, 1), 0)
    got = _pairs_within(pairs, 2)
    expected = {
        (L(-1), L(1)),
        (L(-2), L(2)),
        (Y(-2), M(1)),
        (Y(-1), M(0)),
        (Y(0), M(-1)),
        (Y(1), M(-2)),
    }
    assert got == expected


def test_enumerate_pairs_fifth_mu_only_ll():
    pairs = enumerate_pairs(SVIR, {"lambda": 0, "mu": "1/5"}, Window(6, 1), 0)
    got = _pairs_within(pairs, 2)
    assert got == {(L(-1), L(1)), (L(-2), L(2))}


def test_enumerate_pairs_integer_mu_small_window():
    pairs = enumerate_pairs(SVIR, {"lambda": 0, "mu": 1}, Window(6, 1), 0)
    got = _pairs_within(pairs, 1)
    expected = {
        (L(-1), L(1)),
        (L(-1), Y(0)),
        (L(-1), M(-1)),
        (L(0), Y(-1)),
    }
    assert got == expected


def test_totals_equal_the_fraction_rule():
    # _totals works in integers over the offsets' common denominator; the
    # rule it implements is degree - sum(offsets) in Fractions, kept where
    # that is an integer.  Degrees include negative ones and ones whose
    # denominator (5 or 7) divides no offset's.
    rng = random.Random(6121)
    nonempty = empty = 0
    for _ in range(400):
        offsets = tuple(
            Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(rng.randint(1, 4))
        )
        degree = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 6, 7, 12)))
        alg = SimpleNamespace(offsets=offsets)
        for size in (1, 2, 3):
            expected = []
            for families in combinations_with_replacement(range(len(offsets)), size):
                total = degree - sum(offsets[p] for p in families)
                if total.denominator == 1:
                    expected.append((families, int(total)))
            got = list(solve._totals(alg, degree, size))
            assert got == expected, (offsets, degree, size)
            assert all(type(total) is int for _, total in got)
            nonempty += bool(got)
            empty += not got
    assert nonempty > 200 and empty > 200


def test_pair_basis_canonical_order_and_orientation():
    pairs = enumerate_pairs(SVIR, {"lambda": 0, "mu": 1}, Window(6, 2), 0)
    listed = _pair_list(pairs)
    assert listed == sorted(listed, key=lambda p: (SVIR.element_key(p[0]), SVIR.element_key(p[1])))
    col, sign = _column_of(pairs, L(-1), Y(0))
    assert sign == 1
    col2, sign2 = _column_of(pairs, Y(0), L(-1))
    assert (col2, sign2) == (col, -1)
    assert listed[_column_of(pairs, L(0), Y(-1))[0]] == (L(0), Y(-1))
    with pytest.raises(KeyError):
        _column_of(pairs, L(0), Y(5))


def test_identity_row_witt_golden():
    window = Window(6, 3)
    pairs = enumerate_pairs(WITT, {}, window, 0)
    row = _identity_row(WITT, {}, window, L(1), L(2), L(-3), pairs)
    named = _named(row, pairs)
    assert named == {
        (L(-3), L(3)): Fraction(-1),
        (L(-1), L(1)): Fraction(-5),
        (L(-2), L(2)): Fraction(4),
    }
    # the row must annihilate the central-charge cocycle ...
    virasoro = {(L(-n), L(n)): Fraction(n**3 - n, 12) for n in range(1, 7)}
    assert sum(named.get(p, 0) * v for p, v in virasoro.items()) == 0
    # ... and the coboundary direction psi_f(L_-n, L_n) = 2n f(L_0)
    bound = {(L(-n), L(n)): Fraction(2 * n) for n in range(1, 7)}
    assert sum(named.get(p, 0) * v for p, v in bound.items()) == 0
    # but not a generic direction
    assert sum(named.get(p, 0) for p in [(L(-1), L(1))]) != 0


def test_identity_row_half_integer_mu_single_entry():
    window = Window(6, 3)
    params = validate_parameters(SVIR, {"lambda": 4, "mu": "1/2"})
    pairs = enumerate_pairs(SVIR, params, window, 0)
    # (L_0, Y_m, Y_n) with m + n = -1: the Y-Y column coefficient m+n+2mu
    # vanishes, leaving (m - n) on the {L_0, M_-1} column
    for m in (1, 2):
        n = -1 - m
        row = _identity_row(SVIR, params, window, L(0), Y(m), Y(n), pairs)
        named = _named(row, pairs)
        assert named == {(L(0), M(-1)): Fraction(m - n)}


def test_vacuous_triples_emit_no_row():
    window = Window(6, 3)
    params = {"lambda": 0, "mu": 1}
    pairs = enumerate_pairs(SVIR, params, window, 0)
    # Y, M, M triples bracket entirely to zero
    row = _identity_row(SVIR, params, window, Y(-1), M(-1), M(-3), pairs)
    assert row == {}


def test_assemble_constraints_shape_and_solution():
    window = Window(8, 3)
    pairs = enumerate_pairs(WITT, {}, window, 0)
    matrix = assemble_constraints(WITT, {}, window, 0, pairs)
    assert matrix.n_cols == len(pairs)
    assert matrix.n_rows > 0
    basis = cocycle_space(WITT, {}, window, 0, pairs)
    dense = [[row.get(col, 0) for col in range(len(pairs))] for row in matrix.rows()]
    for vec in basis:
        assert all(v == 0 for v in dense_matvec(dense, vec))


def test_cocycle_space_dims():
    assert len(cocycle_space(WITT, {}, Window(12, 3), 0)) == 2
    params = {"lambda": "5/2", "mu": "1/5"}
    assert len(cocycle_space(SVIR, params, Window(12, 3), 0)) == 2
    # no weight-1/2 pairs exist for witt: empty system
    assert len(cocycle_space(WITT, {}, Window(12, 3), "1/2")) == 0


@pytest.mark.parametrize(
    "spec, params, history, cocycle_dim, matched",
    [
        (SVIR, {"lambda": -3, "mu": 1}, [(6, 3), (8, 3), (10, 3)], 5, ["virasoro", "ly-linear", "ly-constant"]),
        (SVIR, {"lambda": -1, "mu": "1/3"}, [(6, 2), (8, 2), (10, 2)], 3, ["virasoro", "c2"]),
        (WITT, {}, [(6, 1), (8, 1), (10, 1)], 2, ["virasoro"]),
    ],
    ids=["svir(-3,1)", "svir(-1,1/3)", "witt"],
)
def test_subset_too_small_generates_rows_and_keeps_results(
    monkeypatch, spec, params, history, cocycle_dim, matched
):
    # eliminating only the triples with an index 0, or nothing, leaves rows
    # out of the span at these points, so the check must find them violated
    # and add them to the echelon
    check = solve._Plan.check

    def pin_index_zero(identity):
        return [(i, j, identity.total - i - j) for i, j in identity.meeting((0,))]

    for pinned in (pin_index_zero, lambda identity: []):
        monkeypatch.setattr(solve._Identity, "pinned", pinned)
        violated = []

        def spy(plan, *args):
            rank = plan.ech.rank
            vectors = check(plan, *args)
            violated.append(plan.ech.rank - rank)
            return vectors

        monkeypatch.setattr(solve._Plan, "check", spy)
        report = h2(spec, params, Window(6))
        assert any(violated)
        assert report.core_history == history
        assert report.cocycle_dim == cocycle_dim
        assert [m.name for m in report.matched_known if m.matched] == matched


def test_first_window_check_walks_o_n_triples(monkeypatch):
    # the first window's check walks each family triple's boundary, O(n)
    # triples, where a walk of every triple (7820 at n = 40) grows as n**2
    walk = solve._Identity.walk
    walked = {}

    def counting(identity, *args):
        checked, failed = walk(identity, *args)
        walked[identity.n] = walked.get(identity.n, 0) + checked
        return checked, failed

    monkeypatch.setattr(solve._Identity, "walk", counting)
    first = {}
    for n in (20, 40):
        walked.clear()
        h2(SVIR, {"lambda": -3, "mu": 1}, Window(n))
        first[n] = walked[n]
    assert first[40] < 1500
    assert first[40] < 3 * first[20]


def test_coboundary_space_dims():
    params = {"lambda": 2, "mu": "1/5"}
    basis = coboundary_space(SVIR, params, Window(4, 1), 0)
    assert len(basis) == 1
    generator = list(basis)[0]
    pairs = enumerate_pairs(SVIR, params, Window(4, 1), 0)
    psi = CocycleAssignment(SVIR, Window(4, 1), {(L(-n), L(n)): Fraction(2 * n) for n in range(1, 5)})
    expected = [psi.value(x, y) for x, y in _pair_list(pairs)]
    assert dense_in_span(expected, basis, len(pairs))
    # weight-0 elements L_0, Y_{-1}, M_{-2} give three independent generators
    # at generic lambda; at lambda = -3 the Y functional acts by zero
    assert len(coboundary_space(SVIR, {"lambda": 0, "mu": 1}, Window(12, 3), 0)) == 3
    assert len(coboundary_space(SVIR, {"lambda": -3, "mu": 1}, Window(12, 3), 0)) == 2
    # degree with no weight-matched element in window
    assert len(coboundary_space(WITT, {}, Window(12, 3), "1/2")) == 0


def test_coboundaries_are_cocycles():
    for lam, mu in ((0, 1), (-1, "1/3"), (2, "1/2")):
        params = {"lambda": lam, "mu": mu}
        window = Window(8, 3)
        pairs = enumerate_pairs(SVIR, params, window, 0)
        cocycles = cocycle_space(SVIR, params, window, 0, pairs)
        for vec in coboundary_space(SVIR, params, window, 0, pairs):
            assert dense_in_span(vec, cocycles, len(pairs))


def _calls_taking_a_basis(spec, params, window):
    """{name: call} of each public call that takes a pair basis, at degree 0
    on the window, as a function of the basis it is given."""
    own = enumerate_pairs(spec, params, window, 0)
    cocycles = cocycle_space(spec, params, window, 0, own)
    bounds = coboundary_space(spec, params, window, 0, own)
    return {
        "assemble_constraints": lambda pairs: assemble_constraints(spec, params, window, 0, pairs),
        "cocycle_space": lambda pairs: cocycle_space(spec, params, window, 0, pairs),
        "coboundary_space": lambda pairs: coboundary_space(spec, params, window, 0, pairs),
        "match_known": lambda pairs: match_known(spec, params, window, 0, pairs, cocycles, bounds),
    }


@pytest.mark.parametrize("other", [Window(10, 3), Window(6, 3), Window(8, 2)], ids=["larger", "smaller", "margin"])
def test_pair_basis_of_another_window_is_refused(other):
    window = Window(8, 3)
    pairs = enumerate_pairs(WITT, {}, other, 0)
    for call in _calls_taking_a_basis(WITT, {}, window).values():
        with pytest.raises(ValueError, match=re.escape(f"pair basis is of {other}, not {window}")):
            call(pairs)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_match_known_refuses_a_basis_of_another_dimension(extra):
    params, window = {"lambda": -3, "mu": 1}, Window(8)
    pairs = enumerate_pairs(SVIR, params, window, 0)
    cocycles = cocycle_space(SVIR, params, window, 0, pairs)
    bounds = coboundary_space(SVIR, params, window, 0, pairs)
    other = VectorBasis(len(pairs) + extra, [(*vec, 0) for vec in bounds] if extra > 0 else [])
    for given in ((other, bounds), (cocycles, other)):
        with pytest.raises(ValueError, match="^basis dimension does not match the pair basis$"):
            match_known(SVIR, params, window, 0, pairs, *given)
    assert any(m.matched for m in match_known(SVIR, params, window, 0, pairs, cocycles, bounds))


@pytest.mark.parametrize(
    "other, message",
    [
        # no degree-1 pair brackets to an element of weight 0, so unchecked,
        # coboundary_space would return none of its 2 generators here
        (lambda window: enumerate_pairs(SVIR, {"lambda": -3, "mu": 1}, window, 1), "degree 1, not 0"),
        (lambda window: enumerate_pairs(WITT, {}, window, 0), "an algebra with other weights"),
    ],
    ids=["degree", "algebra"],
)
def test_pair_basis_of_another_degree_or_algebra_is_refused(other, message):
    window = Window(8)
    pairs = other(window)
    for call in _calls_taking_a_basis(SVIR, {"lambda": -3, "mu": 1}, window).values():
        with pytest.raises(ValueError, match=f"pair basis is of {message}"):
            call(pairs)


def test_cocycle_vectors_verify():
    params = {"lambda": -1, "mu": "1/3"}
    window = Window(8, 3)
    pairs = enumerate_pairs(SVIR, params, window, 0)
    for vec in cocycle_space(SVIR, params, window, 0, pairs):
        psi = _assignment(pairs, vec)
        assert verify_cocycle(SVIR, params, window, psi).passed


def test_h2_report_fields_and_examples():
    report = h2(SVIR, {"lambda": -1, "mu": "1/3"}, Window(12, 3))
    assert report.core_h2_dim == 2
    assert report.stabilized
    assert report.h2_dim == report.cocycle_dim - report.coboundary_dim
    assert report.h2_dim >= report.core_h2_dim >= 0
    assert report.degree == 0
    assert [n for n, _ in report.core_history] == [12, 14, 16]

    assert h2(SVIR, {"lambda": -1, "mu": 1}, Window(12, 3)).core_h2_dim == 3
    assert h2(SVIR, {"lambda": 0, "mu": 1}, Window(12, 3)).core_h2_dim == 1


def test_h2_computed_dims_exceed_table_at_special_lambdas():
    # the closed-form table misses the constant L-Y class at lambda = -3
    # (integer mu), the coupled L-M/Y-Y cubic at lambda = 1 (2*mu integer),
    # and the reciprocal Y-Y class at lambda = -3 (2*mu odd); the
    # computation is what counts
    for lam, mu, computed, predicted in (
        (-3, 1, 3, 2),
        (1, 1, 3, 2),
        (1, "1/2", 2, 1),
        (-3, "1/2", 2, 1),
    ):
        report = h2(SVIR, {"lambda": lam, "mu": mu}, Window(12, 3))
        assert report.stabilized, (lam, mu)
        assert report.core_h2_dim == computed, (lam, mu)
        assert theorem_predicted_dim(lam, Fraction(mu)) == predicted, (lam, mu)


def test_matched_known_accounts_for_every_computed_dimension():
    # at each special point the matched registry classes exactly span the
    # computed quotient: their count equals core_h2_dim
    for lam, mu, expected in (
        (-3, 1, {"virasoro", "ly-linear", "ly-constant"}),
        (1, 1, {"virasoro", "ly-cubic", "lm-yy-cubic"}),
        (-1, 1, {"virasoro", "c1", "c2"}),
        (0, 1, {"virasoro"}),
        (-3, "1/2", {"virasoro", "yy-reciprocal"}),
        (1, "1/2", {"virasoro", "lm-yy-cubic"}),
    ):
        report = h2(SVIR, {"lambda": lam, "mu": mu}, Window(12, 3))
        matched = {m.name for m in report.matched_known if m.matched}
        assert matched == expected, (lam, mu, matched)
        assert len(matched) == report.core_h2_dim


def test_theorem_predicted_dim_table():
    assert theorem_predicted_dim(7, "1/5") == 1
    assert theorem_predicted_dim(-1, "1/3") == 2
    assert theorem_predicted_dim(2, "2/3") == 1
    assert theorem_predicted_dim(-1, "2/3") == 2
    assert theorem_predicted_dim(-1, 1) == 3
    assert theorem_predicted_dim(-3, 2) == 2
    assert theorem_predicted_dim(1, -2) == 2
    assert theorem_predicted_dim(0, 1) == 1
    assert theorem_predicted_dim(-1, "1/2") == 1
    # mu = 0 is an integer mu: svir(lambda, 0) is svir(lambda, 1)
    assert [theorem_predicted_dim(lam, 0) for lam in (-3, -1, 0, 1)] == [2, 3, 1, 2]


def test_theorem_predicted_dim_refuses_floats():
    # Fraction(1/3) is a dyadic rational near 1/3, whose 3 * mu is no
    # integer: a float answered for another mu
    assert theorem_predicted_dim(-1, Fraction(1, 3)) == 2
    with pytest.raises(ValueError, match="mu must be rational, got float"):
        theorem_predicted_dim(-1, 1 / 3)
    with pytest.raises(ValueError, match="lambda must be rational, got float"):
        theorem_predicted_dim(-1.0, 1)
    with pytest.raises(ValueError, match="not a rational literal"):
        theorem_predicted_dim(-1, "0.5")


def test_match_known_monotone_in_window():
    params = {"lambda": -1, "mu": 1}
    small = h2(SVIR, params, Window(8, 3), stabilization_steps=1)
    large = h2(SVIR, params, Window(12, 3), stabilization_steps=1)
    matched_small = {m.name for m in small.matched_known if m.matched}
    matched_large = {m.name for m in large.matched_known if m.matched}
    assert matched_small <= matched_large


def test_nonzero_degree_triviality():
    assert nonzero_degree_triviality(SVIR, {"lambda": -1, "mu": 1}, Window(10, 3), 1)
    assert nonzero_degree_triviality(SVIR, {"lambda": 1, "mu": 2}, Window(10, 3), -2)
    assert nonzero_degree_triviality(WITT, {}, Window(10, 3), 3)
    with pytest.raises(ValueError):
        nonzero_degree_triviality(WITT, {}, Window(10, 3), 0)


@pytest.mark.parametrize("degree", [0.1, 1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda degree: h2(SVIR, {"lambda": -3, "mu": 1}, Window(6), degree=degree),
        lambda degree: enumerate_pairs(SVIR, {"lambda": -3, "mu": 1}, Window(6), degree),
        lambda degree: nonzero_degree_triviality(WITT, {}, Window(6), degree),
    ],
    ids=["h2", "enumerate_pairs", "nonzero_degree_triviality"],
)
def test_float_degree_rejected(call, degree):
    with pytest.raises(ValueError, match="degree must be rational, got float"):
        call(degree)


def test_degree_shift_consistency_no_pairs():
    # no weight-d pairs in window means both spaces are zero-dimensional
    pairs = enumerate_pairs(WITT, {}, Window(6, 3), "1/2")
    assert len(pairs) == 0
    assert len(cocycle_space(WITT, {}, Window(6, 3), "1/2")) == 0
    assert len(coboundary_space(WITT, {}, Window(6, 3), "1/2")) == 0


def test_cocycle_assignment_vector_round_trip():
    params = {"lambda": 0, "mu": 1}
    window = Window(6, 3)
    pairs = enumerate_pairs(SVIR, params, window, 0)
    rng = random.Random(11)
    vector = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(len(pairs))]
    psi = _assignment(pairs, vector)
    assert [psi.value(x, y) for x, y in _pair_list(pairs)] == vector
    assert psi.value(Y(0), L(-1)) == -psi.value(L(-1), Y(0))


def test_float_cocycle_values_rejected():
    window = Window(6)
    with pytest.raises(ValueError, match="cocycle value must be rational, got float"):
        CocycleAssignment(WITT, window, {(L(-1), L(1)): 0.1})
    pairs = enumerate_pairs(WITT, {}, window, 0)
    vector = [Fraction(0)] * len(pairs)
    vector[0] = 0.5
    with pytest.raises(ValueError, match="cocycle value must be rational, got float"):
        _assignment(pairs, vector)
    exact = CocycleAssignment(WITT, window, {(L(-1), L(1)): "1/10", (L(-2), L(2)): 3})
    assert exact.values == {(L(-1), L(1)): Fraction(1, 10), (L(-2), L(2)): Fraction(3)}


def test_cocycle_assignment_refusals_and_canonical_form():
    window = Window(6)
    for values, message in (
        ({(L(-7), L(7)): 1}, "pair \\(L\\(-7\\), L\\(7\\)\\) is outside the window"),
        ({(L(2), L(2)): 1}, "nonzero value on the diagonal pair \\(L\\(2\\), L\\(2\\)\\)"),
        ({(L(-1), L(1)): 1, (L(1), L(-1)): 2}, "pair \\(L\\(-1\\), L\\(1\\)\\) assigned twice"),
        ({(L(-1), BasisElement("Q", 1)): 1}, "unknown family 'Q'"),
    ):
        with pytest.raises(ValueError, match=message):
            CocycleAssignment(SVIR, window, values)
    psi = CocycleAssignment(SVIR, window, {(Y(1), L(-2)): 3, (L(2), L(2)): 0, (L(-3), L(3)): 0})
    assert psi.values == {(L(-2), Y(1)): Fraction(-3)}
    assert psi == CocycleAssignment(SVIR, window, {(L(-2), Y(1)): -3})
    with pytest.raises(AttributeError):
        psi.values = {}
    params = {"lambda": 0, "mu": 1}

    def degrees(psi):
        return {weight(SVIR, x, params) + weight(SVIR, y, params) for x, y in psi.values}

    assert degrees(psi) == {0}
    # an assignment of two degrees is a coboundary exactly when each
    # degree's part is
    def dual_coboundary(k):
        # psi(x, y) = the coefficient of L(k) in [x, y], (k - 2i) on (L(i), L(k - i))
        return {(L(i), L(k - i)): k - 2 * i for i in range(-6, 7) if i < k - i <= 6}

    parts = {(L(-2), Y(1)): 1}, dual_coboundary(0), dual_coboundary(1)
    for first, expected in ((0, [False, True]), (1, [True, True])):
        # the degree-1 part first, so that a verdict of the first degree alone differs
        mixed = CocycleAssignment(SVIR, window, {**parts[2], **parts[first]})
        assert degrees(mixed) == {0, 1}
        verdicts = [is_coboundary(SVIR, params, window, CocycleAssignment(SVIR, window, parts[i])) for i in (first, 2)]
        assert verdicts == expected
        assert is_coboundary(SVIR, params, window, mixed) == all(verdicts)
    assert is_coboundary(SVIR, params, window, CocycleAssignment(SVIR, window, {}))


def test_is_coboundary_validates_parameters_once(monkeypatch):
    calls = []
    validate = lieext.algebra.validate_parameters

    def counting(spec, values):
        calls.append(spec)
        return validate(spec, values)

    monkeypatch.setattr(lieext.algebra, "validate_parameters", counting)
    psi = CocycleAssignment(SVIR, Window(8), {(L(-2), L(2)): 1})
    assert not is_coboundary(SVIR, {"lambda": 0, "mu": 1}, Window(8), psi)
    assert len(calls) == 1


def test_verify_of_a_declared_class_binds_once(monkeypatch):
    # the class's own values go to the pair columns: no second validation
    # of the parameters, and no pair basis, since verify_cocycle keys its
    # columns by the pairs themselves
    calls, enumerated = [], []
    validate, enumerate_pairs = lieext.algebra.validate_parameters, solve._enumerate_pairs

    def counting(spec, values):
        calls.append(spec)
        return validate(spec, values)

    def enumerating(*args):
        enumerated.append(args)
        return enumerate_pairs(*args)

    monkeypatch.setattr(lieext.algebra, "validate_parameters", counting)
    monkeypatch.setattr(solve, "_enumerate_pairs", enumerating)
    report = verify_cocycle(SVIR, {"lambda": -1, "mu": 1}, Window(12), REGISTRY["c1"])
    assert report.passed and report.assignment.values
    assert len(calls) == 1 and not enumerated


def test_applicability_validates_its_parameters():
    c1 = REGISTRY["c1"]
    with pytest.raises(ParameterError, match="^missing parameter 'lambda' for algebra 'svir'$"):
        c1.applicability(SVIR, {})
    with pytest.raises(ParameterError, match="^unknown parameter 'nu'"):
        c1.applicability(SVIR, {"lambda": -1, "mu": 1, "nu": 0})
    with pytest.raises(ParameterError, match="^parameter 'mu' must be rational, got float"):
        c1.applicability(SVIR, {"lambda": -1, "mu": 0.5})
    assert c1.applicability(SVIR, {"lambda": -1, "mu": "1"}) is None
    assert c1.applicability(SVIR, {"lambda": -1, "mu": 0}) is None


def test_instantiate_refuses_weights_that_do_not_add():
    spec = parse("""
algebra ab(p) {
    family A weight 0;
    family B weight p;
    bracket [A n, A m] = (m - n) B(n + m);
    bracket [A n, B m] = 0;
    bracket [B n, B m] = 0;
    cocycle aa { [A n, A m] = m on n + m = 0; }
}
""").spec
    known = engine.KnownCocycle("aa", spec.cocycles["aa"])
    # applicability binds as instantiate does, so both refuse p = 1
    for refused in (lambda: known.instantiate(spec, {"p": 1}, Window(6)), lambda: known.applicability(spec, {"p": 1})):
        with pytest.raises(ValueError, match="^algebra is not graded by its weights"):
            refused()
    assert known.applicability(spec, {"p": 0}) is None
    assert known.instantiate(spec, {"p": 0}, Window(6)).values


def test_h2_compiles_each_declared_class_once(monkeypatch):
    calls = []
    check = engine.KnownCocycle._check

    def counting(self, alg):
        calls.append(self.name)
        return check(self, alg)

    monkeypatch.setattr(engine.KnownCocycle, "_check", counting)
    h2(SVIR, {"lambda": -3, "mu": 1}, Window(12))
    assert sorted(calls) == sorted(SVIR.cocycles)


def test_identity_within_below_its_total_leaves_every_index_out():
    # witt at degree 26: window 16 has triples of index total 26, window 12
    # none with every output inside, as 26 > 2 * 12.  The plan builds its
    # identity once, at 16, and read at window 12 through that window's
    # edge it gives what a fresh window 12 gives: every entry is out
    alg = solve._bind(WITT, {})
    plan = solve._Plan(alg, Window(16), Fraction(26))
    [triple] = plan.identities
    pairs = solve._enumerate_pairs(alg, Window(12), Fraction(26))
    [fresh] = solve._identities(alg, 12, Fraction(26), pairs._index)
    assert triple.rules == fresh.rules
    assert all(entry is solve._OUT for term in fresh.terms for entry in term[1])
    assert any(entry is not solve._OUT for term in triple.terms for entry in term[1])
    tables = [term[1] for term in triple.terms]
    triple.within(12)
    assert [term[1] for term in triple.terms] == tables
    assert all(entry is solve._OUT for term in triple.valued({})[0] for entry in term[1])
    assert fresh.bound < triple.bound
    # [L_i, L_j] = (j - i) L_(i + j) is nonzero on every triple i < j < k
    assert list(triple.indices()) == list(fresh.indices()) != []
    assert triple.admissible() == fresh.admissible() == 0
    assert all(triple.row(idx) is None for idx in triple.indices())


def test_windows_leave_out_the_generators_outside_them():
    # L(13) lies outside window 12, so its coboundary generator is left out
    # there and the cocycle it would bound counts
    report = h2(WITT, {}, Window(12), degree=13)
    assert report.core_history == [(12, 1), (14, 0), (16, 0)]
    for n, dim in report.core_history:
        assert h2(WITT, {}, Window(n), degree=13, stabilization_steps=1).core_history == [(n, dim)]


def test_is_coboundary_refuses_support_outside_the_window():
    psi = CocycleAssignment(WITT, Window(16), {(L(-14), L(14)): Fraction(1)})
    with pytest.raises(ValueError, match=r"^assignment has support on L\(-14\), L\(14\) outside the pair basis$"):
        is_coboundary(WITT, {}, Window(12), psi)


def test_assignment_is_read_by_family_name():
    # verify_cocycle and is_coboundary read an assignment of another algebra
    # by family name, as they read one of the algebra itself: witt's L-L
    # values on svir, and svir's L-Y class on a copy of svir that declares
    # its families in another order, where each L-Y pair flips to Y-L
    reordered = parse(SVIR_Y_FIRST_SOURCE).spec
    assert reordered.families == ("Y", "L", "M")
    window, params = Window(8), {"lambda": -1, "mu": 0}
    witt_psi = CocycleAssignment(WITT, window, {(L(-i), L(i)): i**3 - i for i in range(2, 9)})
    svir_psi = REGISTRY["c1"].instantiate(SVIR, params, window)
    for spec, psi, own in (
        (SVIR, witt_psi, CocycleAssignment(SVIR, window, witt_psi.values)),
        (reordered, svir_psi, CocycleAssignment(reordered, window, svir_psi.values)),
    ):
        report, expected = (verify_cocycle(spec, params, window, p) for p in (psi, own))
        assert (report.passed, report.triples_checked, report.witness) == (
            expected.passed,
            expected.triples_checked,
            expected.witness,
        )
        assert is_coboundary(spec, params, window, psi) == is_coboundary(spec, params, window, own)
    assert verify_cocycle(reordered, params, window, svir_psi).passed
    with pytest.raises(ValueError, match="^unknown family 'Y'$"):
        verify_cocycle(WITT, {}, window, svir_psi)


def test_applicability_names_a_missing_parameter():
    line = CocycleLine("L", "L", IndexPolynomial.variable("c"))
    assert engine.KnownCocycle("lc", [line]).applicability(WITT, {}) == "algebra has no parameter c"


def test_verify_and_h2_refuse_bad_arguments():
    with pytest.raises(TypeError, match="^expected a KnownCocycle or CocycleAssignment$"):
        verify_cocycle(WITT, {}, Window(8), {"L:-1,L:1": "1"})
    with pytest.raises(ValueError, match="^need at least one stabilization step$"):
        h2(WITT, {}, Window(8), stabilization_steps=0)


def test_cocycle_assignment_json_round_trip():
    window = Window(6, 3)
    psi = CocycleAssignment(
        SVIR,
        window,
        {(L(-2), L(2)): Fraction(1, 2), (L(-1), Y(0)): Fraction(-3)},
    )
    data = psi.to_json_dict()
    again = CocycleAssignment.from_json_dict(SVIR, window, data)
    assert again == psi
    # the wire format spells pairs FAMILY:index,FAMILY:index with p/q values
    assert data["L:-2,L:2"] == "1/2"
    assert data["L:-1,Y:0"] == "-3"
    # a {"values": {...}} wrapper is unwrapped on read
    wrapped = CocycleAssignment.from_json_dict(SVIR, window, {"values": data})
    assert wrapped == psi


def test_cocycle_assignment_is_immutable():
    # values is built at its first read, from the spec and the ratios, so
    # none of them may change after construction; the repr is a dataclass's
    psi = CocycleAssignment(WITT, Window(6), {(L(2), L(-2)): -1})
    assert repr(psi) == (
        "CocycleAssignment(spec=AlgebraSpec('witt', families=['L']), window=Window(n=6, margin=3), "
        "values={(BasisElement(family='L', index=-2), BasisElement(family='L', index=2)): Fraction(1, 1)})"
    )
    for name in ("spec", "window", "values", "_ratios"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(psi, name, None)
    assert psi.values == {(L(-2), L(2)): Fraction(1)}


@pytest.mark.parametrize("build, name", [
    (lambda: load_algebra("witt"), "name"),
    (lambda: IndexPolynomial.variable("n"), "_terms"),
    (lambda: CocycleAssignment(WITT, Window(6), {(L(2), L(-2)): -1}), "spec"),
    (lambda: SparseMatrix(1, 2, [(0, 1, 3)]), "entries"),
    (lambda: VectorBasis(2, [(1, 0)]), "vectors"),
], ids=["AlgebraSpec", "IndexPolynomial", "CocycleAssignment", "SparseMatrix", "VectorBasis"])
def test_immutable_objects_refuse_deletion(build, name):
    # del is refused as assignment is: a deleted field of a cached spec
    # would break every later load_algebra("witt") of the process
    usual = h2(WITT, {}, Window(8))
    value = build()
    kept = getattr(value, name)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(value, name)
    assert getattr(value, name) is kept
    report = h2(load_algebra("witt"), {}, Window(8))
    assert report == usual and report.core_h2_dim == 1


@pytest.mark.parametrize(
    "key, pair",
    [
        ("L:-2,L:+2", (L(-2), L(2))),
        ("L:1_0,Y:0", None),
        ("L:1,Y:\u0663", None),
        ("L:1.0,Y:0", None),
        ("L:,Y:0", None),
        ("L:1,Y:0,M:0", None),
    ],
)
def test_from_json_dict_reads_only_ascii_integer_indices(key, pair):
    window = Window(6, 3)
    if pair is None:
        with pytest.raises(ValueError, match="bad (element|pair key)"):
            CocycleAssignment.from_json_dict(SVIR, window, {key: "1"})
    else:
        assert CocycleAssignment.from_json_dict(SVIR, window, {key: "1"}).values == {pair: 1}


def test_coboundary_assignment_is_coboundary():
    rng = random.Random(21)
    params = {"lambda": -1, "mu": 1}
    window = Window(8, 3)
    functional = {
        L(0): Fraction(3, 2),
        Y(-1): Fraction(rng.randint(1, 9)),
        M(-2): Fraction(rng.randint(1, 9)),
    }
    pfull = validate_parameters(SVIR, params)
    # psi_f(x, y) = f([x, y]) on the degree-zero pairs
    values = {
        (x, y): sum(
            (coeff * functional.get(e, 0) for coeff, e in SVIR.bracket(x, y, pfull)),
            Fraction(0),
        )
        for x, y in _pair_list(enumerate_pairs(SVIR, params, window, 0))
    }
    degree_zero = CocycleAssignment(SVIR, window, values)
    assert degree_zero.values
    assert is_coboundary(SVIR, params, window, degree_zero)


def test_h2_rejects_non_graded_spec():
    src = """
algebra skew(mu) {
  family P weight 0;
  family Q weight mu;
  bracket [P n, P m] = (m - n) Q(n + m);
  bracket [P n, Q m] = 0;
  bracket [Q n, Q m] = 0;
}
"""
    bad = parse(src).spec
    with pytest.raises(ValueError, match="weight"):
        h2(bad, {"mu": 1}, Window(8, 3))


def test_non_inner_grading_is_recorded():
    # at lambda = 0, L(0) acts on every element by its weight; at lambda = 1,
    # [L(0), W(m)] = (m + 1) W(m) and no family's index-0 element does
    spec = parse(WAB_SOURCE).spec
    inner, shifted = {"lambda": 0, "mu": 0}, {"lambda": 1, "mu": 0}
    assert h2(spec, inner, Window(8)).grading is None
    assert h2(spec, shifted, Window(8)).grading is not None
    assert h2(SVIR, {"lambda": -3, "mu": 1}, Window(6)).grading is None
    assert h2(WITT, {}, Window(6)).grading is None
    # the flag is needed: degree -1 carries a class at lambda = 1, none at lambda = 0
    report = h2(spec, shifted, Window(8), degree=-1)
    assert report.stabilized and report.core_h2_dim == 1
    assert h2(spec, inner, Window(8), degree=-1).core_h2_dim == 0
    assert nonzero_degree_triviality(spec, inner, Window(8), -1)
    with pytest.raises(ValueError, match=r"\[L\(0\), W\(m\)\] = \(m \+ 1\) W\(m\).*does not apply"):
        nonzero_degree_triviality(spec, shifted, Window(8), -1)


def _covered_from(alg, degree, margin) -> dict:
    """{family pair (a, b): the least N whose core holds a pair of that
    sector} over the sectors with pairs at this degree in a window of 48,
    read off the pair basis of Window(N, margin) itself: it holds such a
    pair at that N and none at N - 1."""

    def sectors(n):
        pairs = solve._enumerate_pairs(alg, Window(n, margin), degree)
        keys = list(pairs._index)
        return {(keys[col][0][0], keys[col][1][0]) for col in pairs.core_columns()}

    least = {}
    for (a, i), (b, j) in solve._enumerate_pairs(alg, Window(48, margin), degree)._index:
        n = max(abs(i), abs(j), 3) + margin
        least[(a, b)] = min(least.get((a, b), n), n)
    for sector, n in least.items():
        assert sector in sectors(n) and (n == margin + 3 or sector not in sectors(n - 1)), (sector, n)
    return least


def test_h2_coverage_check_names_the_least_window_of_the_pair_basis():
    # two readers of which sectors exist at a degree: the N that h2's
    # "window too small" refusal names for a sector is the least N whose
    # pair basis holds a core pair of it, and at that N h2 refuses it no
    # more.  h2 is called from the smallest window up, at each refusal's N,
    # until it answers; then every sector is covered
    from test_cli import WAB_A_SOURCE
    from test_differential import DRAWN

    cases = [(parse(source).spec, {}) for source in DRAWN]
    cases.append((parse(WAB_A_SOURCE).spec, {"lambda": 20, "mu": 0}))
    refusal = re.compile(r"window too small: the (\w+)-(\w+) sector .* it needs N >= (\d+)")
    refused = 0
    for spec, params in cases:
        alg = solve._bind(spec, params)
        position = {family: pos for pos, family in enumerate(spec.families)}
        for degree in [*map(Fraction, range(-3, 4)), Fraction(1, 2)]:
            least, n = _covered_from(alg, degree, 3), 6
            while True:
                try:
                    h2(spec, params, Window(n, 3), degree, stabilization_steps=1)
                except ValueError as exc:
                    a, b, need = refusal.fullmatch(str(exc)).groups()
                    sector = (position[a], position[b])
                    assert least[sector] == int(need) > n, (spec.name, degree, exc)
                    n, refused = int(need), refused + 1
                    continue
                assert max(least.values(), default=n) <= n, (spec.name, degree)
                break
    assert refused


def _readme_library_code() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    return "\n".join(re.findall(r"```python\n(.*?)```", section, re.S))


def test_readme_library_names_are_exported():
    code = _readme_library_code()
    names = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "lieext"
        for alias in node.names
    }
    assert "validate_parameters" in names
    assert names <= set(lieext.__all__)


def test_every_export_resolves():
    assert len(set(lieext.__all__)) == len(lieext.__all__)
    for name in lieext.__all__:
        getattr(lieext, name)
    namespace = {}
    exec("from lieext import *", namespace)
    assert set(lieext.__all__) <= namespace.keys()


def test_readme_library_example_prints_its_comments():
    # each printed line is the next "#" comment of the example, written at
    # the end of its print or on the line below it
    code = _readme_library_code()
    expected = re.findall(r"#\s*(.*)", code)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
