import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import lieext
import lieext.engine as engine
from lieext.algebra import BasisElement, validate_parameters
from lieext.engine import (
    CocycleAssignment,
    Window,
    assemble_constraints,
    coboundary_space,
    cocycle_space,
    constraint_row,
    enumerate_pairs,
    h2,
    is_coboundary,
    match_known,
    nonzero_degree_triviality,
    theorem_predicted_dim,
    verify_cocycle,
)
from lieext.dsl import parse
from lieext.presets import load_algebra
from lieext.sparse import in_span

SVIR = load_algebra("svir")
WITT = load_algebra("witt")


def L(n):
    return BasisElement("L", n)


def Y(n):
    return BasisElement("Y", n)


def M(n):
    return BasisElement("M", n)


def _pairs_within(pairs, bound):
    """Restrict an enumeration to pairs with both indices in [-bound, bound].

    Pair membership depends only on weights, so this equals the enumeration
    over the smaller index range (too small to be a legal Window directly).
    """
    return {(x, y) for x, y in pairs if abs(x.index) <= bound and abs(y.index) <= bound}


def test_window_validation():
    with pytest.raises(ValueError):
        Window(3, 0)
    with pytest.raises(ValueError):
        Window(3, 1)  # n - margin < 3
    w = Window(10, 3)
    assert w.core_bound() == 7
    assert w.grown(2) == Window(12, 3)
    assert list(w.indices()) == list(range(-10, 11))


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


def test_pair_basis_canonical_order_and_orientation():
    pairs = enumerate_pairs(SVIR, {"lambda": 0, "mu": 1}, Window(6, 2), 0)
    listed = list(pairs)
    assert listed == sorted(listed, key=lambda p: (SVIR.element_key(p[0]), SVIR.element_key(p[1])))
    col, sign = pairs.column_of(L(-1), Y(0))
    assert sign == 1
    col2, sign2 = pairs.column_of(Y(0), L(-1))
    assert (col2, sign2) == (col, -1)
    assert pairs.pair_at(pairs.column_of(L(0), Y(-1))[0]) == (L(0), Y(-1))
    with pytest.raises(ValueError):
        pairs.column_of(L(0), Y(5))


def test_constraint_row_witt_golden():
    window = Window(6, 3)
    pairs = enumerate_pairs(WITT, {}, window, 0)
    row = constraint_row(WITT, {}, window, L(1), L(2), L(-3), pairs)
    named = {pairs.pair_at(col): value for col, value in row.items()}
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


def test_constraint_row_half_integer_mu_single_entry():
    window = Window(6, 3)
    params = validate_parameters(SVIR, {"lambda": 4, "mu": "1/2"})
    pairs = enumerate_pairs(SVIR, params, window, 0)
    # (L_0, Y_m, Y_n) with m + n = -1: the Y-Y column coefficient m+n+2mu
    # vanishes, leaving (m - n) on the {L_0, M_-1} column
    for m in (1, 2):
        n = -1 - m
        row = constraint_row(SVIR, params, window, L(0), Y(m), Y(n), pairs)
        named = {pairs.pair_at(col): value for col, value in row.items()}
        assert named == {(L(0), M(-1)): Fraction(m - n)}


def test_vacuous_triples_emit_no_row():
    window = Window(6, 3)
    params = {"lambda": 0, "mu": 1}
    pairs = enumerate_pairs(SVIR, params, window, 0)
    # Y, M, M triples bracket entirely to zero
    row = constraint_row(SVIR, params, window, Y(-1), M(-1), M(-3), pairs)
    assert row == {}


@pytest.mark.parametrize(
    "triple, degree",
    [((Y(0), M(-1), M(-2)), "2"), ((L(1), L(2), L(3)), "6")],
    ids=["vacuous", "bracketing"],
)
def test_constraint_row_refuses_a_triple_of_another_degree(triple, degree):
    window = Window(6, 3)
    params = {"lambda": 0, "mu": 1}
    pairs = enumerate_pairs(SVIR, params, window, 0)
    with pytest.raises(ValueError, match=f"has degree {degree}, not the basis degree 0"):
        constraint_row(SVIR, params, window, *triple, pairs)


def test_constraint_row_rejects_elements_outside_the_window():
    window = Window(6, 3)
    pairs = enumerate_pairs(WITT, {}, window, 0)
    with pytest.raises(ValueError, match="L\\(-9\\) is outside the window"):
        constraint_row(WITT, {}, window, L(-9), L(2), L(7), pairs)


def test_assemble_constraints_shape_and_solution():
    window = Window(8, 3)
    pairs = enumerate_pairs(WITT, {}, window, 0)
    matrix = assemble_constraints(WITT, {}, window, 0, pairs)
    assert matrix.n_cols == len(pairs)
    assert matrix.n_rows > 0
    basis = cocycle_space(WITT, {}, window, 0, pairs)
    for vec in basis:
        assert all(v == 0 for v in matrix.multiply_vector(list(vec)))


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
    add_violated = engine._add_violated

    def pin_index_zero(identity):
        return [(i, j, identity.total - i - j) for i, j in identity.meeting((0,))]

    for pinned in (pin_index_zero, lambda identity: []):
        monkeypatch.setattr(engine._Identity, "pinned", pinned)
        violated = []

        def spy(identities, ech, *args):
            rank = ech.rank
            vectors = add_violated(identities, ech, *args)
            violated.append(ech.rank - rank)
            return vectors

        monkeypatch.setattr(engine, "_add_violated", spy)
        report = h2(spec, params, Window(6))
        assert any(violated)
        assert report.core_history == history
        assert report.cocycle_dim == cocycle_dim
        assert [m.name for m in report.matched_known if m.matched] == matched


def test_coboundary_space_dims():
    params = {"lambda": 2, "mu": "1/5"}
    basis = coboundary_space(SVIR, params, Window(4, 1), 0)
    assert len(basis) == 1
    generator = list(basis)[0]
    pairs = enumerate_pairs(SVIR, params, Window(4, 1), 0)
    psi = CocycleAssignment(SVIR, Window(4, 1), {(L(-n), L(n)): Fraction(2 * n) for n in range(1, 5)})
    expected = [psi.value(x, y) for x, y in pairs]
    assert in_span(expected, basis)
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
            assert in_span(vec, cocycles)


def _calls_taking_a_basis(spec, params, window):
    """{name: call} of each public call that takes a pair basis, at degree 0
    on the window, as a function of the basis it is given."""
    own = enumerate_pairs(spec, params, window, 0)
    cocycles = cocycle_space(spec, params, window, 0, own)
    bounds = coboundary_space(spec, params, window, 0, own)
    return {
        "assemble_constraints": lambda pairs: assemble_constraints(spec, params, window, 0, pairs),
        "constraint_row": lambda pairs: constraint_row(spec, params, window, L(1), L(2), L(-3), pairs),
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
    calls = _calls_taking_a_basis(SVIR, {"lambda": -3, "mu": 1}, window)
    if message.startswith("degree"):
        # constraint_row takes no degree to compare with the basis's
        del calls["constraint_row"]
    for call in calls.values():
        with pytest.raises(ValueError, match=f"pair basis is of {message}"):
            call(pairs)


def test_cocycle_vectors_verify():
    params = {"lambda": -1, "mu": "1/3"}
    window = Window(8, 3)
    pairs = enumerate_pairs(SVIR, params, window, 0)
    for vec in cocycle_space(SVIR, params, window, 0, pairs):
        psi = CocycleAssignment.from_vector(pairs, vec)
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
    with pytest.raises(ValueError):
        theorem_predicted_dim(0, 0)


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
    psi = CocycleAssignment.from_vector(pairs, vector)
    assert [psi.value(x, y) for x, y in pairs] == vector
    assert psi.value(Y(0), L(-1)) == -psi.value(L(-1), Y(0))


def test_float_cocycle_values_rejected():
    window = Window(6)
    with pytest.raises(ValueError, match="cocycle value must be rational, got float"):
        CocycleAssignment(WITT, window, {(L(-1), L(1)): 0.1})
    pairs = enumerate_pairs(WITT, {}, window, 0)
    vector = [Fraction(0)] * len(pairs)
    vector[0] = 0.5
    with pytest.raises(ValueError, match="cocycle value must be rational, got float"):
        CocycleAssignment.from_vector(pairs, vector)
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
    assert psi.degrees(params) == {0} and psi.degree(params) == 0
    mixed = CocycleAssignment(SVIR, window, {(L(-2), Y(1)): 1, (L(-1), L(2)): 1})
    assert mixed.degrees(params) == {0, 1}
    with pytest.raises(ValueError, match="assignment mixes degrees"):
        is_coboundary(SVIR, params, window, mixed)
    assert is_coboundary(SVIR, params, window, CocycleAssignment(SVIR, window, {}))


def test_is_coboundary_validates_parameters_once(monkeypatch):
    calls = []
    validate = engine.validate_parameters

    def counting(spec, values):
        calls.append(spec)
        return validate(spec, values)

    monkeypatch.setattr(lieext.algebra, "validate_parameters", counting)
    monkeypatch.setattr(engine, "validate_parameters", counting)
    psi = CocycleAssignment(SVIR, Window(8), {(L(-2), L(2)): 1})
    assert not is_coboundary(SVIR, {"lambda": 0, "mu": 1}, Window(8), psi)
    assert len(calls) == 1


def test_h2_compiles_each_declared_class_once(monkeypatch):
    calls = []
    check = engine.KnownCocycle._check

    def counting(self, spec, params):
        calls.append(self.name)
        return check(self, spec, params)

    monkeypatch.setattr(engine.KnownCocycle, "_check", counting)
    h2(SVIR, {"lambda": -3, "mu": 1}, Window(12))
    assert sorted(calls) == sorted(SVIR.cocycles)


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
        for x, y in enumerate_pairs(SVIR, params, window, 0)
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


# The Witt algebra acting on the module W(a, b), all of weight 0.  At a = 0,
# L(0) acts on every element by its weight; at a = 1, [L(0), W(m)] =
# (m + 1) W(m) and no family's index-0 element does.
WAB_SOURCE = """
algebra wab(a, b) {
    family L weight 0;
    family W weight 0;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, W m] = (a + m + b*n) W(n + m);
}
"""


def test_non_inner_grading_is_recorded():
    spec = parse(WAB_SOURCE).spec
    inner, shifted = {"a": 0, "b": 0}, {"a": 1, "b": 0}
    assert h2(spec, inner, Window(8)).grading_inner
    assert not h2(spec, shifted, Window(8)).grading_inner
    assert h2(SVIR, {"lambda": -3, "mu": 1}, Window(6)).grading_inner
    assert h2(WITT, {}, Window(6)).grading_inner
    # the flag is needed: degree -1 carries a class at a = 1, none at a = 0
    report = h2(spec, shifted, Window(8), degree=-1)
    assert report.stabilized and report.core_h2_dim == 1
    assert h2(spec, inner, Window(8), degree=-1).core_h2_dim == 0
    assert nonzero_degree_triviality(spec, inner, Window(8), -1)
    with pytest.raises(ValueError, match=r"\[L\(0\), W\(m\)\] = \(m \+ 1\) W\(m\).*does not apply"):
        nonzero_degree_triviality(spec, shifted, Window(8), -1)


def test_readme_library_names_are_exported():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = "\n".join(re.findall(r"```python\n(.*?)```", section, re.S))
    names = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "lieext"
        for alias in node.names
    }
    assert "validate_parameters" in names
    assert names <= set(lieext.__all__)
