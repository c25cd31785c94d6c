import random
from fractions import Fraction

import pytest

import lieext.engine as engine
from lieext.presets import load_algebra
from lieext.sparse import (
    SparseMatrix,
    VectorBasis,
    _Echelon,
    in_span,
    nullspace,
    project_dimension,
    rank,
    span_basis,
)

from oracle_dense import dense_in_span, dense_matvec, dense_nullspace, dense_rank, reference_pivots


def _random_dense(rng, max_dim=12, max_num=50):
    n_rows = rng.randint(1, max_dim)
    n_cols = rng.randint(1, max_dim)
    density = rng.choice([0.15, 0.3, 0.6])
    rows = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            if rng.random() < density:
                row.append(Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_num)))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return rows


def test_rank_examples():
    assert rank(SparseMatrix.from_dense([[1, 2], [2, 4]])) == 1
    assert rank(SparseMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(SparseMatrix(4, 5, [])) == 0


def test_nullspace_examples():
    basis = nullspace(SparseMatrix.from_dense([[1, 1]]))
    assert len(basis) == 1
    assert list(basis)[0] == (Fraction(1), Fraction(-1))
    assert len(nullspace(SparseMatrix.from_dense([[1, 0], [0, 1]]))) == 0


def test_nullspace_first_nonzero_is_one():
    rng = random.Random(88)
    for _ in range(30):
        dense = _random_dense(rng, max_dim=9)
        mat = SparseMatrix.from_dense(dense)
        for vec in nullspace(mat):
            lead = next(v for v in vec if v != 0)
            assert lead == 1


def test_random_nullspace_against_matrix():
    rng = random.Random(2023)
    for _ in range(40):
        dense = _random_dense(rng, max_dim=9)
        mat = SparseMatrix.from_dense(dense)
        basis = nullspace(mat)
        assert rank(mat) + len(basis) == mat.n_cols
        for vec in basis:
            assert all(v == 0 for v in mat.multiply_vector(list(vec)))


def test_in_span_examples():
    b = VectorBasis(3, [(1, 0, 0), (0, 1, 0)])
    assert in_span([0, 0, 0], b)
    assert in_span([1, 2, 0], b)
    assert not in_span([0, 0, 1], b)
    with pytest.raises(ValueError):
        in_span([1, 0], b)


def test_project_dimension_examples():
    b = VectorBasis(3, [(1, 0, 0), (0, 1, 0)])
    assert project_dimension(b, [0, 1]) == 2
    assert project_dimension(VectorBasis(3, [(1, 1, 0)]), [2]) == 0
    with pytest.raises(ValueError):
        project_dimension(b, [5])


def test_against_dense_oracle():
    rng = random.Random(424242)
    for _ in range(60):
        dense = _random_dense(rng)
        mat = SparseMatrix.from_dense(dense)
        n_cols = mat.n_cols
        assert rank(mat) == dense_rank(dense, n_cols)
        sparse_null = [list(v) for v in nullspace(mat)]
        oracle_null = dense_nullspace(dense, n_cols)
        assert len(sparse_null) == len(oracle_null)
        for vec in sparse_null:
            assert all(v == 0 for v in dense_matvec(dense, vec))
            assert dense_in_span(vec, oracle_null, n_cols)
        for vec in oracle_null:
            if sparse_null:
                assert in_span(vec, VectorBasis(n_cols, sparse_null))
        # in_span agreement on random probes
        if sparse_null:
            basis = VectorBasis(n_cols, sparse_null)
            for _ in range(3):
                probe = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
                assert in_span(probe, basis) == dense_in_span(probe, sparse_null, n_cols)


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])  # duplicate
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])  # out of bounds
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 0)])  # explicit zero
    with pytest.raises(AttributeError):
        SparseMatrix(1, 1, []).n_rows = 5


def test_vector_basis_rejects_dependent():
    with pytest.raises(ValueError):
        VectorBasis(2, [(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        VectorBasis(3, [(1, 2)])  # wrong length


def test_span_basis_reduces_dependent_spanning_set():
    vectors = [(1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 2)]
    basis = span_basis(3, vectors)
    assert len(basis) == 2
    for vec in vectors:
        assert in_span(vec, basis)


def test_determinism():
    rng = random.Random(99)
    dense = _random_dense(rng, max_dim=8)
    mat = SparseMatrix.from_dense(dense)
    first = [list(v) for v in nullspace(mat)]
    second = [list(v) for v in nullspace(SparseMatrix.from_dense(dense))]
    assert first == second


def _random_int_rows(rng):
    """Integer rows with no zero entries; about half are integer
    combinations of a few base rows, so many reduce to zero."""
    n_cols = rng.randint(1, 14)
    base = [
        {c: rng.randint(-40, 40) for c in range(n_cols) if rng.random() < 0.4}
        for _ in range(rng.randint(1, 5))
    ]
    rows = []
    for _ in range(rng.randint(1, 18)):
        if rng.random() < 0.5:
            row = base[rng.randrange(len(base))].copy()
        else:
            row = {}
            for other in base:
                factor = rng.randint(-3, 3)
                for c, v in other.items():
                    row[c] = row.get(c, 0) + factor * v
        rows.append({c: v for c, v in row.items() if v})
    return [row for row in rows if row]


def _pinned_rows(name, values, n):
    """The rows the engine's certified solve eliminates up front at one
    point, as it passes them to the echelon, in that order."""
    spec = load_algebra(name)
    alg = engine._bind(spec, values)
    window = engine.Window(n)
    pairs = engine._enumerate_pairs(alg, window, Fraction(0))
    rows = []
    for identity in engine._identities(alg, window, Fraction(0), pairs):
        for idx in identity.pinned():
            row = identity.row(idx)
            if row:
                rows.append(row)
    return rows


def _long_rows(name, values, n):
    """The null vectors and the kept coboundary generators of the engine's
    plan at one point, each list followed by itself again, so that the
    second copies reduce to zero with fill-in."""
    plan = engine._Plan(engine._bind(load_algebra(name), values), engine.Window(n), Fraction(0))
    return [rows + rows for rows in (plan.cocycles(n), plan.coboundaries(n))]


def test_echelon_pivots_equal_reference_elimination():
    rng = random.Random(1361)
    cases = [_random_int_rows(rng) for _ in range(300)]
    cases.append(_pinned_rows("svir", {"lambda": -3, "mu": 1}, 12))
    assert len(cases[-1]) > 100
    long = _long_rows("svir", {"lambda": -3, "mu": 1}, 40)
    long += _long_rows("svir", {"lambda": 1, "mu": Fraction(1, 2)}, 40)
    assert max(len(row) for rows in long for row in rows) > 50
    cases += long
    for rows in cases:
        snapshot = [dict(row) for row in rows]
        ech = _Echelon(rows)
        assert ech.pivots == reference_pivots(snapshot)
        assert rows == snapshot
        for row in rows:
            assert ech.contains(row)
        assert rows == snapshot


def test_echelon_contains_leaves_its_argument_alone():
    rng = random.Random(4)
    for _ in range(100):
        rows = _random_int_rows(rng)
        ech = _Echelon(rows[: len(rows) // 2])
        for row in rows:
            snapshot = dict(row)
            expected = reference_pivots([*ech.pivots.values(), row]).keys() == ech.pivots.keys()
            assert ech.contains(row) == expected
            assert row == snapshot
