"""Exact sparse linear algebra over the rationals.

The cocycle engine produces constraint matrices with a few thousand rows of
at most three nonzeros each over ~10^2 columns, so a plain incremental
echelon is all that is needed.  Rows are scaled to integers (denominators
cleared, gcd divided out) and eliminated against pivot rows keyed by leading
column; pivots are chosen deterministically as the leftmost column of each
incoming row in input order, i.e. (row, col) lexicographic tie-breaking.
All results are exact: no floats appear anywhere in this module.
"""

from __future__ import annotations

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
            vec = tuple(Fraction(v) for v in vec)
            if len(vec) != dimension:
                raise ValueError("vector length does not match basis dimension")
            frozen.append(vec)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "vectors", tuple(frozen))
        if len(self.vectors) != _rank_of_int_rows(
            _int_row_from_dense(v) for v in self.vectors
        ):
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
    """Clear denominators and divide by the content; leading entry positive."""
    if not row:
        return {}
    denom_lcm = 1
    for value in row.values():
        value = Fraction(value)
        denom_lcm = denom_lcm * value.denominator // math.gcd(denom_lcm, value.denominator)
    ints = {col: int(Fraction(v) * denom_lcm) for col, v in row.items() if v}
    if not ints:
        return {}
    g = 0
    for value in ints.values():
        g = math.gcd(g, value)
    lead = min(ints)
    sign = -1 if ints[lead] < 0 else 1
    g *= sign
    return {col: v // g for col, v in ints.items()}


def _eliminate(row: dict, pivots: dict) -> dict:
    """Reduce an integer row against the pivot rows; result is normalized."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return _normalize_int_row(row)
        a, b = pivot[lead], row[lead]
        g = math.gcd(a, b)
        ra, pb = a // g, b // g
        merged = {col: ra * val for col, val in row.items()}
        for col, val in pivot.items():
            new = merged.get(col, 0) - pb * val
            if new:
                merged[col] = new
            else:
                merged.pop(col, None)
        row = merged
    return {}


def _normalize_int_row(row: dict) -> dict:
    g = 0
    for value in row.values():
        g = math.gcd(g, value)
    if g == 0:
        return {}
    if row[min(row)] < 0:
        g = -g
    return {col: v // g for col, v in row.items()}


class _Echelon:
    """Incremental echelon form keyed by leading column."""

    def __init__(self):
        self.pivots: dict = {}

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


def _rank_of_int_rows(int_rows: Iterable[dict]) -> int:
    ech = _Echelon()
    for row in int_rows:
        ech.add(row)
    return ech.rank


def rank(matrix: SparseMatrix) -> int:
    return _rank_of_int_rows(_scale_row(row) for row in matrix.rows())


def nullspace(matrix: SparseMatrix) -> VectorBasis:
    """Right nullspace, one vector per free column in ascending column order,
    each normalized so its first nonzero coordinate is 1."""
    ech = _Echelon()
    for row in matrix.rows():
        ech.add(_scale_row(row))
    pivot_cols = sorted(ech.pivots)
    free_cols = [c for c in range(matrix.n_cols) if c not in ech.pivots]
    vectors = []
    for free in free_cols:
        vec = [Fraction(0)] * matrix.n_cols
        vec[free] = Fraction(1)
        for col in reversed(pivot_cols):
            pivot = ech.pivots[col]
            acc = Fraction(0)
            for c, v in pivot.items():
                if c != col:
                    acc += v * vec[c]
            vec[col] = -acc / pivot[col]
        first = next(v for v in vec if v)
        vectors.append([v / first for v in vec])
    return VectorBasis(matrix.n_cols, vectors)


def in_span(vector: Sequence[Fraction], basis: VectorBasis) -> bool:
    if len(vector) != basis.dimension:
        raise ValueError("vector length does not match basis dimension")
    ech = _Echelon()
    for vec in basis:
        ech.add(_int_row_from_dense(vec))
    return ech.contains(_int_row_from_dense(vector))


def project_dimension(basis: VectorBasis, coords: Iterable[int]) -> int:
    """Dimension of the basis span after projecting onto the listed
    coordinates."""
    cols = sorted(set(coords))
    for col in cols:
        if not (0 <= col < basis.dimension):
            raise ValueError(f"coordinate {col} out of range")
    position = {col: i for i, col in enumerate(cols)}
    ech = _Echelon()
    for vec in basis:
        row = {position[c]: vec[c] for c in cols if vec[c]}
        ech.add(_scale_row(row))
    return ech.rank


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
