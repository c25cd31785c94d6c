"""The Fraction API: the constraint matrix, its nullspace and the bases of
the cocycles and coboundaries of one window, as Fraction vectors.

Fractions appear only at the public boundary, and this module is all of
it.  The solve (lieext.solve), the engine (lieext.engine) and the sparse
kernel (lieext.sparse) work in integers: after the solve every vector is a
primitive {column: int} row.  h2, verify_cocycle and every CLI command run
on those rows alone, so no command of the CLI loads this module.

Here the rows become Fraction vectors, and Fraction vectors become rows
again.  SparseMatrix and VectorBasis hold them; enumerate_pairs gives the
pair basis that numbers their columns; assemble_constraints, nullspace,
cocycle_space, coboundary_space and project_dimension build and read them;
match_known takes the VectorBasis that cocycle_space and coboundary_space
return.

A call that takes a caller's pair basis first checks that it is the basis
of the bound weight offsets, window and degree (_check_pairs): any other
basis has other columns.  The plan it builds enumerates its own basis,
which sorts the same pair keys, so its columns are the caller's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import AlgebraSpec, BoundAlgebra
from .engine import _match
from .rational import _Frozen, format_rational
from .solve import PairBasis, Window, _bind, _core_echelon, _degree, _enumerate_pairs, _Plan
from .sparse import _Echelon, _normalize_int_row, _null_vectors


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


def _int_row_from_dense(vector: Sequence[Fraction]) -> dict:
    return _scale_row({i: v for i, v in enumerate(vector) if v})


def _scale_row(row: Mapping[int, Fraction]) -> dict:
    """Clear denominators and divide by the content; leading entry positive.
    Entries are Fractions or ints."""
    lcm = math.lcm(*(value.denominator for value in row.values()))
    return _normalize_int_row(
        {col: v.numerator * (lcm // v.denominator) for col, v in row.items() if v}
    )


def nullspace(matrix: SparseMatrix) -> VectorBasis:
    """Right nullspace, one vector per free column in ascending column order,
    each normalized so its first nonzero coordinate is 1."""
    ech = _Echelon(_scale_row(row) for row in matrix.rows())
    return _fraction_basis(matrix.n_cols, _null_vectors(ech.pivots, range(matrix.n_cols)))


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


def enumerate_pairs(spec: AlgebraSpec, params: Mapping, window: Window, degree) -> PairBasis:
    """All pairs {x, y} of window elements with weight(x) + weight(y) ==
    degree, canonically ordered and sorted."""
    return _enumerate_pairs(_bind(spec, params), window, _degree(degree))


def _check_pairs(alg: BoundAlgebra, window: Window, degree: Fraction, pairs: PairBasis) -> None:
    """Refuse a caller's pair basis unless it is the basis of these weight
    offsets, window and degree: any other basis has other columns."""
    if pairs._offsets != alg.offsets:
        raise ValueError("pair basis is of an algebra with other weights")
    if pairs.window != window:
        raise ValueError(f"pair basis is of {pairs.window}, not {window}")
    if pairs._degree != degree:
        raise ValueError(f"pair basis is of degree {format_rational(pairs._degree)}, not {format_rational(degree)}")


def _plan(spec, params, window: Window, degree, pairs: PairBasis | None) -> _Plan:
    """The plan of a public call at its window, once the caller's pair
    basis, if any, passes _check_pairs."""
    alg, degree = _bind(spec, params), _degree(degree)
    if pairs is not None:
        _check_pairs(alg, window, degree, pairs)
    return _Plan(alg, window, degree)


def assemble_constraints(
    spec: AlgebraSpec, params: Mapping, window: Window, degree, pairs: PairBasis | None = None
) -> SparseMatrix:
    """Constraint matrix with one row per admissible nonvacuous triple, from
    the identities of a plan at the window."""
    plan = _plan(spec, params, window, degree, pairs)
    denominator = plan.alg.denominator
    rows = []
    for identity in plan.identities:
        for idx in identity.indices():
            row = identity.row(idx)
            if row:
                rows.append({col: Fraction(value, denominator) for col, value in row.items()})
    return SparseMatrix.from_rows(rows, len(plan.pairs))


def cocycle_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    """nullspace(assemble_constraints(...)), by the certified subset solve."""
    plan = _plan(spec, params, window, degree, pairs)
    return _fraction_basis(len(plan.pairs), plan.cocycles(window.n))


def coboundary_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    """Span of the functional generators: for each window element z of
    weight == degree, the form (x, y) -> f([x, y]) with f dual to z.  At a
    fixed degree each family contributes at most one such z.  Each nonzero
    generator is kept: each pair brackets to one element, so the generators
    of distinct z have disjoint supports and are independent."""
    plan = _plan(spec, params, window, degree, pairs)
    return _fraction_basis(len(plan.pairs), plan.coboundaries(window.n), plan.alg.denominator)


def match_known(
    spec, params, window, degree, pairs, cocycles: VectorBasis, bounds: VectorBasis
) -> list:
    """Which of the algebra's declared cocycle classes lie in the computed
    cocycle space and are not coboundaries (core-projected).  Inapplicable
    classes are omitted."""
    alg = _bind(spec, params)
    degree = _degree(degree)
    _check_pairs(alg, window, degree, pairs)
    if cocycles.dimension != len(pairs) or bounds.dimension != len(pairs):
        raise ValueError("basis dimension does not match the pair basis")
    core = set(pairs.core_columns())
    return _match(
        alg,
        window,
        degree,
        pairs,
        _Echelon(_int_row_from_dense(vec) for vec in cocycles),
        _core_echelon((_int_row_from_dense(vec) for vec in bounds), core),
        core,
    )
