import random
from fractions import Fraction

import pytest

from lieext.sparse import (
    SparseMatrix,
    VectorBasis,
    in_span,
    nullspace,
    project_dimension,
    rank,
    span_basis,
)

from oracle_dense import dense_in_span, dense_matvec, dense_nullspace, dense_rank


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
