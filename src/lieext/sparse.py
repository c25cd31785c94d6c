"""Exact sparse linear algebra over the rationals.

The cocycle engine produces constraint matrices with a few thousand rows of
at most three nonzeros each over ~10^2 columns, so a plain incremental
echelon is all that is needed.  Rows are scaled to integers (denominators
cleared, gcd divided out) and eliminated against pivot rows keyed by leading
column; pivots are chosen deterministically as the leftmost column of each
incoming row in input order, i.e. (row, col) lexicographic tie-breaking.
Null vectors come from one integer back-substitution (_null_vectors), shared
by nullspace and the engine's certified subset solve, as primitive
{column: int} rows.  The engine keeps them, and every other vector after
the solve, in that form and builds each echelon it needs from them once;
Fractions appear only at the public boundary of this module (SparseMatrix,
VectorBasis and the functions that take or return them).  All results are
exact: no floats appear anywhere in this module.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class SparseMatrix:
    """Immutable COO-style sparse matrix over Fraction."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows: int, n_cols: int, entries: Iterable[tuple]):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative dimension")
        seen = set()
        cleaned = []
        for row, col, value in entries:
            if not (0 <= row < n_rows and 0 <= col < n_cols):
                raise ValueError(f"entry ({row}, {col}) out of bounds")
            if (row, col) in seen:
                raise ValueError(f"duplicate entry at ({row}, {col})")
            seen.add((row, col))
            if type(value) is not Fraction:
                value = Fraction(value)
            if value == 0:
                raise ValueError(f"explicit zero entry at ({row}, {col})")
            cleaned.append((row, col, value))
        cleaned.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "entries", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[int, Fraction]], n_cols: int) -> "SparseMatrix":
        entries = []
        for i, row in enumerate(rows):
            for col, value in row.items():
                if value:
                    entries.append((i, col, value))
        return cls(len(rows), n_cols, entries)

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence]) -> "SparseMatrix":
        n_rows = len(dense)
        n_cols = len(dense[0]) if n_rows else 0
        entries = []
        for i, row in enumerate(dense):
            if len(row) != n_cols:
                raise ValueError("ragged dense matrix")
            for j, value in enumerate(row):
                if value:
                    entries.append((i, j, Fraction(value)))
        return cls(n_rows, n_cols, entries)

    def rows(self) -> list:
        out = [dict() for _ in range(self.n_rows)]
        for row, col, value in self.entries:
            out[row][col] = value
        return out

    def multiply_vector(self, vector: Sequence[Fraction]) -> list:
        if len(vector) != self.n_cols:
            raise ValueError("vector length does not match column count")
        out = [Fraction(0)] * self.n_rows
        for row, col, value in self.entries:
            out[row] += value * vector[col]
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.n_rows, self.n_cols, self.entries) == (
            other.n_rows,
            other.n_cols,
            other.entries,
        )

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={len(self.entries)})"


class VectorBasis:
    """A linearly independent list of dense rational vectors of one length.

    Independence is validated on construction, so a VectorBasis can always be
    trusted to have dimension == len(vectors set it spans).
    """

    __slots__ = ("dimension", "vectors")

    def __init__(self, dimension: int, vectors: Sequence[Sequence[Fraction]]):
        if dimension < 0:
            raise ValueError("negative dimension")
        frozen = []
        for vec in vectors:
            vec = tuple(v if type(v) is Fraction else Fraction(v) for v in vec)
            if len(vec) != dimension:
                raise ValueError("vector length does not match basis dimension")
            frozen.append(vec)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "vectors", tuple(frozen))
        if len(self.vectors) != _Echelon(_int_row_from_dense(v) for v in self.vectors).rank:
            raise ValueError("basis vectors are linearly dependent")

    def __setattr__(self, name, value):
        raise AttributeError("VectorBasis is immutable")

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __repr__(self):
        return f"VectorBasis(dim={self.dimension}, count={len(self.vectors)})"


# integer echelon core


def _int_row_from_dense(vector: Sequence[Fraction]) -> dict:
    return _scale_row({i: v for i, v in enumerate(vector) if v})


def _scale_row(row: Mapping[int, Fraction]) -> dict:
    """Clear denominators and divide by the content; leading entry positive.
    Entries are Fractions or ints."""
    lcm = math.lcm(*(value.denominator for value in row.values()))
    return _normalize_int_row(
        {col: v.numerator * (lcm // v.denominator) for col, v in row.items() if v}
    )


def _eliminate(row: dict, pivots: dict) -> dict:
    """Reduce an integer row against the pivot rows; result is normalized.
    The argument is not modified.

    Each step clears the row's leading column, min(row), with the pivot row
    there: row * (a / g) - pivot * (b / g) for leading entries a of the
    pivot and b of the row, g = gcd(a, b).  The row is copied once and
    updated in place."""
    row = dict(row)
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return _normalize_int_row(row)
        a, b = pivot[lead], row[lead]
        g = math.gcd(a, b)
        ra, pb = a // g, b // g
        if ra != 1:
            for col in row:
                row[col] *= ra
        for col, val in pivot.items():
            new = row.get(col, 0) - pb * val
            if new:
                row[col] = new
            else:
                del row[col]
    return {}


def _normalize_int_row(row: dict) -> dict:
    g = math.gcd(*row.values())
    if g == 0:
        return {}
    if row[min(row)] < 0:
        g = -g
    return {col: v // g for col, v in row.items()}


class _Echelon:
    """Incremental echelon form keyed by leading column, over {column: int}
    rows; a row need not be primitive."""

    def __init__(self, int_rows: Iterable[dict] = ()):
        self.pivots: dict = {}
        for row in int_rows:
            self.add(row)

    def add(self, int_row: dict) -> bool:
        """Insert a row; returns True if it added a new pivot."""
        reduced = _eliminate(int_row, self.pivots)
        if not reduced:
            return False
        self.pivots[min(reduced)] = reduced
        return True

    def contains(self, int_row: dict) -> bool:
        return not _eliminate(int_row, self.pivots)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(matrix: SparseMatrix) -> int:
    return _Echelon(_scale_row(row) for row in matrix.rows()).rank


def nullspace(matrix: SparseMatrix) -> VectorBasis:
    """Right nullspace, one vector per free column in ascending column order,
    each normalized so its first nonzero coordinate is 1."""
    ech = _Echelon(_scale_row(row) for row in matrix.rows())
    return _fraction_basis(matrix.n_cols, _null_vectors(ech.pivots, range(matrix.n_cols)))


def _null_vectors(pivots: dict, columns: Iterable[int]) -> list:
    """Integer back-substitution: the null vectors of the echelon rows over
    the increasing column list `columns`, which holds every column of the
    rows, one per free column in ascending order, as primitive
    {column: int} rows whose first nonzero entry is positive.

    The vector of free column f is 1 at f, 0 at the other free columns, and
    solves each pivot row for its leading column, last pivot first.  Only
    pivots left of f can be nonzero, since a pivot row involves no column
    left of its own.  To stay in integers, the partial vector is scaled by
    the part of the pivot's leading entry that does not divide the sum.
    """
    pivot_cols = sorted(pivots)
    vectors = []
    for free in columns:
        if free in pivots:
            continue
        vec = {free: 1}
        for col in reversed(pivot_cols[: bisect.bisect(pivot_cols, free)]):
            pivot = pivots[col]
            acc = 0
            for c, v in pivot.items():
                if c in vec:
                    acc += v * vec[c]
            if not acc:
                continue
            lead = pivot[col]
            g = math.gcd(acc, lead)
            scale = lead // g
            if scale != 1:
                vec = {c: scale * v for c, v in vec.items()}
            vec[col] = -acc // g
        vectors.append(_normalize_int_row(vec))
    return vectors


def _fraction_basis(
    n_cols: int, vectors: Sequence[dict], denominator: int | None = None
) -> VectorBasis:
    """The VectorBasis of {column: int} vectors, each divided by
    `denominator`, or by its first nonzero entry when that is None."""
    dense = []
    for vec in vectors:
        scale = vec[min(vec)] if denominator is None else denominator
        row = [Fraction(0)] * n_cols
        for c, v in vec.items():
            row[c] = Fraction(v, scale)
        dense.append(row)
    return VectorBasis(n_cols, dense)


def in_span(vector: Sequence[Fraction], basis: VectorBasis) -> bool:
    if len(vector) != basis.dimension:
        raise ValueError("vector length does not match basis dimension")
    ech = _Echelon(_int_row_from_dense(vec) for vec in basis)
    return ech.contains(_int_row_from_dense(vector))


def project_dimension(basis: VectorBasis, coords: Iterable[int]) -> int:
    """Dimension of the basis span after projecting onto the listed
    coordinates."""
    cols = sorted(set(coords))
    for col in cols:
        if not (0 <= col < basis.dimension):
            raise ValueError(f"coordinate {col} out of range")
    return _Echelon(_scale_row({c: vec[c] for c in cols if vec[c]}) for vec in basis).rank


def span_basis(dimension: int, vectors: Iterable[Sequence[Fraction]]) -> VectorBasis:
    """Reduce a spanning list (possibly dependent) to an independent basis,
    keeping the first vector of each new direction in input order."""
    ech = _Echelon()
    kept = []
    for vec in vectors:
        vec = tuple(Fraction(v) for v in vec)
        if len(vec) != dimension:
            raise ValueError("vector length does not match dimension")
        if ech.add(_int_row_from_dense(vec)):
            kept.append(vec)
    return VectorBasis(dimension, kept)
