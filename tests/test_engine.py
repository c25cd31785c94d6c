import random
from fractions import Fraction

import pytest

from lieext.algebra import BasisElement, validate_parameters
from lieext.engine import (
    CocycleAssignment,
    Window,
    assemble_constraints,
    coboundary_assignment,
    coboundary_space,
    cocycle_space,
    constraint_row,
    enumerate_pairs,
    h2,
    is_coboundary,
    match_known,
    nonzero_degree_triviality,
    degree_reduce,
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
    assert w.core_contains(7) and not w.core_contains(8)


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
    row = constraint_row(SVIR, params, window, Y(0), M(-1), M(-2), pairs)
    assert row == {}


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


def test_coboundary_space_dims():
    params = {"lambda": 2, "mu": "1/5"}
    basis = coboundary_space(SVIR, params, Window(4, 1), 0)
    assert len(basis) == 1
    generator = list(basis)[0]
    pairs = enumerate_pairs(SVIR, params, Window(4, 1), 0)
    expected = CocycleAssignment(
        SVIR, Window(4, 1), {(L(-n), L(n)): Fraction(2 * n) for n in range(1, 5)}
    ).to_vector(pairs)
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


def test_degree_reduce_kills_coboundary_of_nonzero_weights():
    rng = random.Random(314)
    params = {"lambda": -1, "mu": 1}
    window = Window(8, 3)
    functional = {}
    for fam in ("L", "Y", "M"):
        for _ in range(3):
            el = BasisElement(fam, rng.randint(-4, 4))
            if SVIR.weight(el, {"lambda": Fraction(-1), "mu": Fraction(1)}) != 0:
                functional[el] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    psi = coboundary_assignment(SVIR, params, window, functional)
    reduced = degree_reduce(SVIR, params, window, psi)
    pfull = {"lambda": Fraction(-1), "mu": Fraction(1)}
    assert not psi.is_zero()
    for x, y in reduced.support():
        # psi had no degree-zero part, so only pairs whose bracket index
        # escapes the window may survive the reduction
        total = SVIR.weight(x, pfull) + SVIR.weight(y, pfull)
        assert total != 0, (x, y)
        assert abs(x.index + y.index) > window.n, (x, y)


def test_degree_reduce_identity_on_degree_zero():
    params = {"lambda": 0, "mu": 1}
    window = Window(8, 3)
    virasoro = CocycleAssignment(
        SVIR, window, {(L(-n), L(n)): Fraction(n**3 - n, 12) for n in range(1, 9)}
    )
    assert degree_reduce(SVIR, params, window, virasoro) == virasoro


def test_degree_reduce_mixture():
    params = {"lambda": 0, "mu": 1}
    window = Window(8, 3)
    virasoro = CocycleAssignment(
        SVIR, window, {(L(-n), L(n)): Fraction(n**3 - n, 12) for n in range(1, 9)}
    )
    mix = virasoro + coboundary_assignment(
        SVIR, params, window, {L(3): Fraction(1, 2), Y(1): Fraction(2)}
    )
    reduced = degree_reduce(SVIR, params, window, mix)
    departure = reduced - virasoro
    degs = departure.degrees({"lambda": Fraction(0), "mu": Fraction(1)})
    # leftover is pure degree zero (a degree-0 coboundary), and trivial
    assert degs <= {Fraction(0)}
    assert is_coboundary(SVIR, params, window, departure)


def test_degree_reduce_rejects_non_cocycle():
    params = {"lambda": 0, "mu": 1}
    window = Window(8, 3)
    junk = CocycleAssignment(SVIR, window, {(L(-1), L(1)): Fraction(1), (L(-2), L(2)): Fraction(7)})
    with pytest.raises(ValueError, match="not a window cocycle"):
        degree_reduce(SVIR, params, window, junk)


def test_nonzero_degree_triviality():
    assert nonzero_degree_triviality(SVIR, {"lambda": -1, "mu": 1}, Window(10, 3), 1)
    assert nonzero_degree_triviality(SVIR, {"lambda": 1, "mu": 2}, Window(10, 3), -2)
    assert nonzero_degree_triviality(WITT, {}, Window(10, 3), 3)
    with pytest.raises(ValueError):
        nonzero_degree_triviality(WITT, {}, Window(10, 3), 0)


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
    assert psi.to_vector(pairs) == vector
    assert psi.value(Y(0), L(-1)) == -psi.value(L(-1), Y(0))


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
    psi = coboundary_assignment(SVIR, params, window, functional)
    pfull = {"lambda": Fraction(-1), "mu": Fraction(1)}
    degree_zero = CocycleAssignment(
        SVIR,
        window,
        {
            (x, y): psi.value(x, y)
            for x, y in psi.support()
            if SVIR.weight(x, pfull) + SVIR.weight(y, pfull) == 0
        },
    )
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
