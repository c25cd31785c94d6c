import random
import sys
from fractions import Fraction

import pytest

import lieext.solve as solve
from lieext.presets import load_algebra
from lieext.sparse import (
    SparseMatrix,
    VectorBasis,
    _Echelon,
    _null_vectors,
    _refined,
    _scale_row,
    nullspace,
    project_dimension,
)

from oracle_dense import (
    dense_in_span,
    dense_matvec,
    dense_nullspace,
    dense_rank,
    reduced_pivots,
    reference_pivots,
)


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


def _matrix(dense):
    return SparseMatrix.from_rows([dict(enumerate(row)) for row in dense], len(dense[0]))


def _echelon(rows):
    """The echelon of {column: Fraction} rows, scaled as nullspace scales them."""
    return _Echelon(map(_scale_row, rows))


def test_rank_examples():
    assert _echelon(_matrix([[1, 2], [2, 4]]).rows()).rank == 1
    assert _echelon(_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rows()).rank == 3
    assert _echelon(SparseMatrix(4, 5, []).rows()).rank == 0


def test_nullspace_examples():
    basis = nullspace(_matrix([[1, 1]]))
    assert len(basis) == 1
    assert list(basis)[0] == (Fraction(1), Fraction(-1))
    assert len(nullspace(_matrix([[1, 0], [0, 1]]))) == 0


def test_nullspace_first_nonzero_is_one():
    rng = random.Random(88)
    for _ in range(30):
        dense = _random_dense(rng, max_dim=9)
        mat = _matrix(dense)
        for vec in nullspace(mat):
            lead = next(v for v in vec if v != 0)
            assert lead == 1


def test_random_nullspace_against_matrix():
    rng = random.Random(2023)
    for _ in range(40):
        dense = _random_dense(rng, max_dim=9)
        mat = _matrix(dense)
        basis = nullspace(mat)
        assert _echelon(mat.rows()).rank + len(basis) == mat.n_cols
        for vec in basis:
            assert all(v == 0 for v in dense_matvec(dense, vec))


def test_echelon_contains_examples():
    ech = _Echelon([{0: 1}, {1: 1}])
    assert ech.contains({})
    assert ech.contains({0: 1, 1: 2})
    assert not ech.contains({2: 1})


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
        mat = _matrix(dense)
        n_cols = mat.n_cols
        assert _echelon(mat.rows()).rank == dense_rank(dense, n_cols)
        sparse_null = [list(v) for v in nullspace(mat)]
        oracle_null = dense_nullspace(dense, n_cols)
        assert len(sparse_null) == len(oracle_null)
        for vec in sparse_null:
            assert all(v == 0 for v in dense_matvec(dense, vec))
            assert dense_in_span(vec, oracle_null, n_cols)
        null = _echelon(dict(enumerate(vec)) for vec in sparse_null)
        assert null.rank == len(sparse_null)
        for vec in oracle_null:
            assert null.contains(_scale_row(dict(enumerate(vec))))
        # membership agreement on random probes
        if sparse_null:
            for _ in range(3):
                probe = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
                got = null.contains(_scale_row(dict(enumerate(probe))))
                assert got == dense_in_span(probe, sparse_null, n_cols)


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])  # duplicate
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])  # out of bounds
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 0)])  # explicit zero
    with pytest.raises(ValueError, match="negative dimension"):
        SparseMatrix(-1, 2, [])
    with pytest.raises(AttributeError):
        SparseMatrix(1, 1, []).n_rows = 5


def test_vector_basis_rejects_dependent():
    with pytest.raises(ValueError):
        VectorBasis(2, [(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        VectorBasis(3, [(1, 2)])  # wrong length
    with pytest.raises(ValueError, match="negative dimension"):
        VectorBasis(-1, [])


def test_echelon_of_a_dependent_spanning_set():
    vectors = [{0: 1, 2: 1}, {1: 1}, {0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 2}]
    ech = _Echelon(vectors)
    assert ech.rank == 2
    for vec in vectors:
        assert ech.contains(vec)


def test_determinism():
    rng = random.Random(99)
    dense = _random_dense(rng, max_dim=8)
    mat = _matrix(dense)
    first = [list(v) for v in nullspace(mat)]
    second = [list(v) for v in nullspace(_matrix(dense))]
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
    alg = solve._bind(spec, values)
    window = solve.Window(n)
    pairs = solve._enumerate_pairs(alg, window, Fraction(0))
    rows = []
    for identity in solve._identities(alg, n, Fraction(0), pairs._index):
        for idx in identity.pinned():
            row = identity.row(idx)
            if row:
                rows.append(row)
    return rows


def _long_rows(name, values, n):
    """The null vectors and the kept coboundary generators of the engine's
    plan at one point, each list followed by itself again, so that the
    second copies reduce to zero with fill-in."""
    plan = solve._Plan(solve._bind(load_algebra(name), values), solve.Window(n), Fraction(0))
    return [rows + rows for rows in (plan.cocycles(n), plan.coboundaries(n))]


def test_echelon_pivots_equal_reference_elimination():
    # the pivot columns are the leading-column elimination's, and the pivot
    # rows back-substitute to the null vectors of the reduced row echelon form
    rng = random.Random(1361)
    cases = [_random_int_rows(rng) for _ in range(300)]
    cases.append(_pinned_rows("svir", {"lambda": -3, "mu": 1}, 14))
    assert len(cases[-1]) > 100
    long = _long_rows("svir", {"lambda": -3, "mu": 1}, 40)
    long += _long_rows("svir", {"lambda": 1, "mu": Fraction(1, 2)}, 40)
    assert max(len(row) for rows in long for row in rows) > 50
    cases += long
    for rows in cases:
        snapshot = [dict(row) for row in rows]
        ech = _Echelon(rows)
        assert ech.pivots.keys() == reference_pivots(snapshot).keys()
        assert rows == snapshot
        for row in rows:
            assert ech.contains(row)
        assert rows == snapshot
        columns = range(max((col for row in rows for col in row), default=0) + 1)
        assert _null_vectors(ech.pivots, columns) == _null_vectors(reduced_pivots(snapshot), columns)


def test_refined_null_vectors_equal_a_back_substitution():
    # each row that adds a pivot turns the null vectors of the echelon
    # before it into those of the echelon after it, vector for vector, as
    # _null_vectors computes them from the pivots; a row the echelon holds
    # leaves them as they are
    rng = random.Random(1361)
    cases = [_random_int_rows(rng) for _ in range(300)]
    cases.append(_pinned_rows("svir", {"lambda": -3, "mu": 1}, 14))
    refined = 0
    for rows in cases:
        columns = range(max((col for row in rows for col in row), default=0) + 1)
        ech = _Echelon()
        vectors = _null_vectors(ech.pivots, columns)
        for row in rows:
            if ech.add(row):
                vectors = _refined(vectors, row)
                refined += 1
            assert vectors == _null_vectors(ech.pivots, columns)
    assert refined > 800


def test_echelon_reduces_along_a_long_pivot_chain_without_recursion():
    # row k says x_k = 2 x_(k+1); each pivot row holds the pivot column of
    # the next, so reducing a row at column 0 walks the whole chain, and
    # contains leaves the stored rows as they are
    n = 5000
    assert n > sys.getrecursionlimit()
    ech = _Echelon({k: 1, k + 1: -2} for k in range(n))
    assert all(k + 1 in ech.pivots[k] for k in range(n - 1))
    assert ech.contains({0: 3, n: -3 * 2**n})
    assert not ech.contains({0: 1, n: 1 - 2**n})
    assert ech.pivots[0] == {0: 1, 1: -2}
    assert _null_vectors(ech.pivots, range(n + 1)) == [{k: 2 ** (n - k) for k in range(n + 1)}]


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
