"""Exact sparse linear algebra over the rationals.

The cocycle engine produces constraint matrices with a few thousand rows of
at most three nonzeros each over ~10^2 columns, so a plain incremental
echelon is all that is needed.  Rows are scaled to integers (denominators
cleared, gcd divided out) and reduced by their leading column alone: while
the row's leftmost column holds a pivot row, the two are combined to clear
it.  A row that does not reduce to zero becomes the primitive pivot row of
its leading column.  The pivot rows are thus in echelon form, not reduced
form, and depend on the order of elimination; their pivot columns are the
leading columns of the rows' span and do not, and neither do the reduced
null vectors back-substituted from them.

Null vectors come from one integer back-substitution (_null_vectors), shared
by nullspace and the certified subset solve (lieext.solve), as primitive
{column: int} rows; the solve packs them into one integer per column for
its check (_packed) and refines them in place for each row the check adds
(_refined), to the same rows a back-substitution would give.  The
solve and the engine keep them, and every other vector after the solve, in
that form and build each echelon they need from them once; Fractions
appear only at the public boundary of this module:
SparseMatrix, VectorBasis, nullspace and project_dimension.  All results
are exact: no floats appear anywhere in this module.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .rational import _Frozen


class SparseMatrix(_Frozen):
    """Immutable COO-style sparse matrix over Fraction."""

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
        self.__dict__.update(n_rows=n_rows, n_cols=n_cols, entries=tuple(cleaned))

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[int, Fraction]], n_cols: int) -> "SparseMatrix":
        entries = []
        for i, row in enumerate(rows):
            for col, value in row.items():
                if value:
                    entries.append((i, col, value))
        return cls(len(rows), n_cols, entries)

    def rows(self) -> list:
        out = [dict() for _ in range(self.n_rows)]
        for row, col, value in self.entries:
            out[row][col] = value
        return out

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={len(self.entries)})"


class VectorBasis(_Frozen):
    """A linearly independent list of dense rational vectors of one length.

    Independence is validated on construction, so a VectorBasis can always be
    trusted to have dimension == len(vectors set it spans).
    """

    def __init__(self, dimension: int, vectors: Sequence[Sequence[Fraction]]):
        if dimension < 0:
            raise ValueError("negative dimension")
        frozen = []
        for vec in vectors:
            vec = tuple(v if type(v) is Fraction else Fraction(v) for v in vec)
            if len(vec) != dimension:
                raise ValueError("vector length does not match basis dimension")
            frozen.append(vec)
        self.__dict__.update(dimension=dimension, vectors=tuple(frozen))
        if len(self.vectors) != _Echelon(_int_row_from_dense(v) for v in self.vectors).rank:
            raise ValueError("basis vectors are linearly dependent")

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


def _normalize_int_row(row: dict) -> dict:
    g = math.gcd(*row.values())
    if g == 0:
        return {}
    if row[min(row)] < 0:
        g = -g
    return {col: v // g for col, v in row.items()}


class _Echelon:
    """Incremental echelon form keyed by leading column, over {column: int}
    rows; a row need not be primitive.  Each pivot row holds no column left
    of its own, and is stored primitive (module docstring)."""

    def __init__(self, int_rows: Iterable[dict] = ()):
        self.pivots: dict = {}
        for row in int_rows:
            self.add(row)

    def add(self, int_row: dict) -> bool:
        """Insert a row; returns True if it added a new pivot."""
        reduced = self._reduced(int_row)
        if not reduced:
            return False
        self.pivots[min(reduced)] = _normalize_int_row(reduced)
        return True

    def contains(self, int_row: dict) -> bool:
        return not self._reduced(int_row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduced(self, int_row: dict) -> dict:
        """A copy of the row combined with the pivot row at its leading
        column while there is one; the argument is not modified.  Each
        combination clears the leading column and leaves only columns right
        of it, so the result is empty or leads at a column with no pivot."""
        pivots = self.pivots
        row = dict(int_row)
        while row and (col := min(row)) in pivots:
            _combine(row, pivots[col], col)
        return row


def _combine(row: dict, pivot: dict, col: int) -> None:
    """Clear column `col` out of the row in place with the pivot row there:
    row * (a / g) - pivot * (b / g) for the entries a of the pivot and b of
    the row at col, g = gcd(a, b)."""
    a, b = pivot[col], row[col]
    g = math.gcd(a, b)
    ra, pb = a // g, b // g
    if ra != 1:
        for c in row:
            row[c] *= ra
    for c, val in pivot.items():
        new = row.get(c, 0) - pb * val
        if new:
            row[c] = new
        else:
            del row[c]


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


def _refined(vectors: list, row: dict) -> list:
    """_null_vectors of an echelon with `row` added, from `vectors`, those
    of the echelon without it, when the row is not in the echelon's span:
    no back-substitution.

    Let D_s be the row's dot product with vector s.  The row reduced by the
    echelon is nonzero only at free columns, where it is D_s over vector
    s's entry at its free column f_s, so its leading column, the new pivot,
    is the free column of t, the first vector with D_t != 0.  Vector t is
    dropped, and each later vector s with D_s != 0 becomes the primitive
    form of D_t * v_s - D_s * v_t: its dot product with the row is 0, and
    among the free columns left it is nonzero at f_s alone, since v_t is 0
    there, so it is the reduced basis's vector of f_s, primitive with a
    positive first entry as _null_vectors leaves it.  Every other vector
    holds already."""
    dots = [sum(value * vec.get(col, 0) for col, value in row.items()) for vec in vectors]
    t = next(s for s, dot in enumerate(dots) if dot)
    lead, first = dots[t], vectors[t]
    refined = vectors[:t]
    for vec, dot in zip(vectors[t + 1 :], dots[t + 1 :]):
        if dot:
            combined = {col: lead * vec.get(col, 0) - dot * first.get(col, 0) for col in vec.keys() | first.keys()}
            vec = _normalize_int_row({col: value for col, value in combined.items() if value})
        refined.append(vec)
    return refined


def _packed(vectors: list, bound: int) -> tuple:
    """(packed, w): each column's entries e_s of the d {column: int} vectors
    packed into one integer P = sum_s e_s * 2**(w*s), in slots of w bits,
    for checking rows against all d vectors at once (lieext.solve's check).

    The sum of coefficient * sign * P over one row's terms is
    sum_s D_s * 2**(w*s), with D_s the row's dot product with vector s.
    With M the largest |e_s| and B = bound, at least the sum of the
    |coefficient| of any row's terms, |D_s| <= B * M < 2**(w - 2) for
    w = bit_length(B * M) + 2.  If some D_s is nonzero, take the smallest
    such s: every later slot is a multiple of 2**(w*(s+1)), so the sum is
    congruent to D_s * 2**(w*s) modulo 2**(w*(s+1)), and it is zero there
    only if 2**w divides D_s, which |D_s| < 2**w forbids.  So the packed
    sum is zero exactly when every dot product is, and likewise P is zero
    exactly when every e_s is (B >= 1)."""
    top = max((abs(value) for vec in vectors for value in vec.values()), default=0)
    width = (bound * top).bit_length() + 2
    packed: dict = {}
    for slot, vec in enumerate(vectors):
        shift = width * slot
        for col, value in vec.items():
            packed[col] = packed.get(col, 0) + (value << shift)
    return packed, width


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


def project_dimension(basis: VectorBasis, coords: Iterable[int]) -> int:
    """Dimension of the basis span after projecting onto the listed
    coordinates."""
    cols = sorted(set(coords))
    for col in cols:
        if not (0 <= col < basis.dimension):
            raise ValueError(f"coordinate {col} out of range")
    return _Echelon(_scale_row({c: vec[c] for c in cols if vec[c]}) for vec in basis).rank
