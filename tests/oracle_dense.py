"""Dense textbook Gaussian elimination over Fraction.

Independent reference for the sparse solver: no code shared with
lieext.sparse beyond the Fraction type.  Everything here is O(n^3)
row reduction on dense lists of lists, kept deliberately boring.

reference_pivots is the one sparse exception: the fraction-free integer
elimination of lieext.sparse._Echelon, step for step, written as plainly as
possible (each step rebuilds the row as a new dict), so the solver's pivot
rows can be compared exactly, not only up to span.
"""
import math
from fractions import Fraction


def rref(rows, n_cols):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    mat = [[Fraction(v) for v in row] + [Fraction(0)] * (n_cols - len(row)) for row in rows]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def dense_rank(rows, n_cols):
    reduced, pivots = rref(rows, n_cols)
    return len(pivots)


def dense_nullspace(rows, n_cols):
    """Basis of the right nullspace, one vector per free column."""
    reduced, pivots = rref(rows, n_cols)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


def dense_in_span(vector, vectors, n_cols):
    """Is vector a linear combination of vectors?  Rank comparison."""
    base = [list(v) for v in vectors]
    return dense_rank(base, n_cols) == dense_rank(base + [list(vector)], n_cols)


def dense_matvec(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def _primitive(row):
    """The row divided by the gcd of its entries, leading entry positive."""
    g = 0
    for value in row.values():
        g = math.gcd(g, value)
    if row[min(row)] < 0:
        g = -g
    return {col: value // g for col, value in row.items()}


def reference_pivots(int_rows):
    """{leading column: pivot row} of the {column: int} rows, inserted in
    order: each row is reduced at its leading column by
    row * (a / g) - pivot * (b / g), with a and b the pivot's and the row's
    leading entries and g = gcd(a, b), until it vanishes or leads at a new
    column, where it is kept as a primitive row."""
    pivots = {}
    for row in int_rows:
        row = {col: value for col, value in row.items() if value}
        while row and min(row) in pivots:
            lead = min(row)
            pivot = pivots[lead]
            g = math.gcd(pivot[lead], row[lead])
            ra, pb = pivot[lead] // g, row[lead] // g
            merged = {col: ra * value for col, value in row.items()}
            for col, value in pivot.items():
                merged[col] = merged.get(col, 0) - pb * value
            row = {col: value for col, value in merged.items() if value}
        if row:
            pivots[min(row)] = _primitive(row)
    return pivots
