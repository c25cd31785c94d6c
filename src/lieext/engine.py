"""Windowed 2-cocycle engine.

A 2-cocycle on a Lie algebra is a skew bilinear form psi with

    psi([x,y], z) + psi([y,z], x) + psi([z,x], y) = 0,

and psi is a coboundary when psi(x,y) = f([x,y]) for a linear functional f.
The quotient cocycles/coboundaries classifies central extensions.  For the
algebras here everything decomposes by weight: a degree-d form is supported
on pairs whose weights sum to d.  When some element acts on every basis
element by its weight, for nonzero d every cocycle is a coboundary, so
degree 0 carries the whole story; h2 records when no family's index-0
element does (_grading_failure).

The infinite index range is handled by truncation to a window [-N, N].
Unknowns are the values on canonically ordered pairs of window elements at
one degree; each Jacobi triple whose bracket outputs stay inside the window
contributes one exact linear constraint (triples whose nonzero outputs
escape are skipped: their identity involves unknowns we do not carry).
Truncation adds junk supported near the window edge, so reported dimensions
are projected onto core pairs (all indices within N - margin) and the
computation is repeated on grown windows; a stable core dimension is the
windowed estimate of the true H^2 dimension.

The cocycles are found by a certified subset solve.  Only the pinned rows
are eliminated, in integers: those of the triples with an index -1, or,
when none of the triple's families has weight 0 at the bound parameters, an
index -1 or 0.  The rule reads weights, never names.  Fixing an index
leaves one free, so there are O(n) pinned triples per family triple
(_Identity.pinned; _Plan.cocycles runs the solve).  With a weight-zero
family L they hold the recursion in L_-1 of the classical computation of
Virasoro cocycles, with almost one independent row per column: at svir
(-3, 1), n = 40, the 346 rows with an L_-1 reach rank 346 of 349, and all
1022 pinned rows reach 349.  A triple with no weight-zero family has no such
recursion, and there the rows with an index 0 are needed too: without them,
at n = 40, the check has to add 39 of the rank 302 of an algebra with
families of weights 1, 2 and 3.

The admissible rows are then checked against the primitive integer null
vectors of the echelon by exact integer dot products, and the check refines
as it goes (_add_violated).  A row that fails is added to the echelon, the
null vectors are recomputed, and the walk takes that family triple again
from its first triple.  That is exact: the nullspace only shrinks, so the
triples passed before still pass and the added row now does too.  Each
added row raises the rank by one, so the check adds exactly the pinned
rows' rank deficit.  Each added row costs a back-substitution, so the solve
is only as cheap as that deficit is small: at most 4 at n = 40 and degrees
0, 1 and 2 on svir, witt and five algebras of the tests.

A first window's check walks only each family triple's boundary, O(n)
triples (_Identity.boundary), and the identity d^2 = 0 of the
Chevalley-Eilenberg complex (Fuks 1986, ch. 1) certifies the rest.  Let
R(tau) be the identity's value at a triple tau, and L a family of weight 0
with [L_-1, X] in X for each family X of the triple.  d^2 psi = 0 on the
quadruple (L_-1, tau + e_p) relates R(tau), with the coefficient
c_p(tau_p + 1) of [L_-1, X_(tau_p + 1)], to R at the neighbours
tau + e_p - e_q and at triples with L_-1.  Swept in descending tau_p, a
triple with c_p(tau_p + 1) != 0 whose other terms are admissible window
triples is certified by triples settled before it.  The boundary lists the
others, as the triples with an index in a set of O(1 + |total|) values and,
for F, F, F, the line j = i + 1, where the two neighbours cancel.  It lists
the triples with an index -1 too, so the certificate rests on walked
triples alone, whatever the echelon holds.  d^2 = 0 needs the Jacobi
identity, which is not assumed: the boundary is used only when it holds,
as a polynomial identity at the bound parameters, on the triple's families
and on L with each two of them.  The plan expands the identity once
(_Plan.failing, from algebra._jacobi_residuals), and h2 reports the family
triples where it fails (H2Report.jacobi).  Otherwise, and when no family
fits L, every triple is walked.  verify_cocycle walks every triple of a
family triple with a term whose columns lie in a sector (family pair)
where psi is nonzero.  Every other family triple's dot products are 0, so
it counts that one's admissible triples instead (_Identity.admissible):
only a triple with an index at the window edge can have an output outside.
Its count of triples checked, part of its report, stays exact.

The result is the one full elimination gives.  Every admissible row is in
the echelon, or walked and passed against a nullspace that contains the
final one, since the nullspace only shrinks as rows are added, or, in a
first window, certified from walked rows by d^2 = 0.  The final nullspace
is that of the echelon rows, which are admissible rows, so it contains the
full one and, by the above, lies in it: the two are equal.
Equal nullspaces have equal row spaces, hence the same pivot columns, so the
reduced basis (one vector per free column) is the same vector for vector.
The check skips an identity when no null vector is nonzero on any of its
columns, and family triples whose pairs bracket to nothing give no row and
are left out.

h2 builds one plan per call, at its largest window N + 2 * (steps - 1)
(_Plan): one pair basis, one compile of the identities and one bracket pass
for the coboundaries.  Each window n is a view on it.  Its columns are the
plan's columns whose pair has both indices in [-n, n]; both numberings sort
the same pair keys, so the map from window n's own columns into the plan's
is increasing, every row keeps its leading column, and pivots, ranks and
reduced null vectors correspond one to one.  Its identity tables are the
plan's cut to [-n, n], with "the output leaves the window" wherever the
output index leaves [-n, n]; its coboundary generators and core columns are
filtered from the plan's.  The plan holds the certified echelon and the
window it was solved on: h2 solves its first window as above and grows each
later window from that echelon, which passes from window to window
unchanged.  A triple of the grown window is new when one of its indices, or
the output index total - idx[w] of one of its terms, lies in the strip
between the two windows; there are O(n) of them per family triple, and they
are enumerated directly.  Every other admissible triple has its indices and
its nonzero outputs inside the smaller window, so its row is a row of that
window with the same entries, and it lies in the span of that window's
certified echelon.  So only the new pinned rows are added and only the new
rows are checked, and the nullspace, its pivot columns and its reduced
basis are exactly those of a fresh solve.

Every row is expanded from one compiled form of the identity.  The indices
of the triples (F_i, G_j, H_k) of one family triple at one degree sum to a
fixed t, so the term [F_i, G_j] psi(., H_k) has output index t - k and its
column and skew sign depend on k alone, as the other two terms' depend on i
and on j alone.  Each family triple's identity is therefore compiled once
per plan into three per-index tables whose entries are a (column, sign),
"the output is the paired element" (no contribution), or "the output leaves
the window" (the triple is dropped if the coefficient there is nonzero).
Assembly, the subset solve, the check and verify_cocycle's walks all
read these tables, which are built at their first use.  The check and
verify_cocycle replace each table's columns by vector entries and walk the
triples in one loop (_Identity.walk).  verify_cocycle uses psi's values.
The check packs the entries of all d null vectors at a column into one
integer, in slots of w bits, and sums one packed dot product per triple.
w is set by a bound on the bracket coefficients over the window, so that
no slot's dot product can reach the next slot: the packed sum is zero
exactly when all d dot products are (_packed has the proof).  A term
whose entry is zero is skipped without evaluating its coefficient, while a
term whose output leaves the window is always evaluated, so admissibility
is still decided exactly.

Degrees, coefficients, and dimensions are exact rationals end to end.  Each
public call binds its parameters once (a BoundAlgebra), and every bracket
expansion here goes through that binding's integer kernel: a row is summed
in integers over the algebra's one common bracket denominator, and each
nonzero entry becomes a Fraction once, at the end of the row.
verify_cocycle holds psi's values of each degree as integers over one
common denominator too, so each residual is summed in integers.

A cocycle class, which an algebra's .lie file declares (AlgebraSpec.cocycles)
and which is matched against that algebra only, goes through the same
kernel.  Its applicability is decided once per class and call, by the step
that compiles each line at the bound parameters: coefficient, denominator
and support offset become integer terms over one shared scale, so each
value is one quotient of two integers.  The same step gives the class's
degree, from the binding's weight offsets and each line's integer offset,
and refuses lines that disagree on it.  Matching and verify_cocycle put
those quotients straight on the pair columns, over their common
denominator.

After the solve every vector stays a {column: int} row: the primitive null
vectors, the kept coboundary generators as numerators over the algebra's
denominator, and a cocycle class as its values over their common
denominator.  A core dimension is the rank of such rows restricted to the
core columns, which keep their indices (echelon order is column order, so
nothing is renumbered).  Each window's core-coboundary echelon is built once
and serves core_h2 and the coboundary test of every cocycle class; one
echelon of the null vectors serves their cocycle test.  Fractions appear only
at the public boundary: cocycle_space and coboundary_space return a
VectorBasis, and match_known takes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, repeat
from typing import Mapping

from .algebra import (
    AlgebraSpec,
    BasisElement,
    BoundAlgebra,
    ParamMap,
    _compile,
    _evaluate,
    _jacobi_residuals,
)
from .poly import IndexPolynomial
from .presets import load_algebra
from .rational import _BLANKS, as_rational, format_rational, parse_integer, parse_rational
from .sparse import (
    SparseMatrix,
    VectorBasis,
    _Echelon,
    _fraction_basis,
    _int_row_from_dense,
    _null_vectors,
)


@dataclass(frozen=True)
class Window:
    """Symmetric index window [-n, n] with a core of radius n - margin."""

    n: int
    margin: int = 3

    def __post_init__(self):
        if self.margin < 1:
            raise ValueError("window margin must be at least 1")
        if self.n - self.margin < 3:
            raise ValueError("window too small: need n - margin >= 3")

    def indices(self) -> range:
        return range(-self.n, self.n + 1)

    def contains(self, index: int) -> bool:
        return -self.n <= index <= self.n

    def core_bound(self) -> int:
        return self.n - self.margin

    def grown(self, extra: int) -> "Window":
        return Window(self.n + extra, self.margin)


def _bind(spec: AlgebraSpec, params: Mapping) -> BoundAlgebra:
    """The one binding of a public call.

    The weight decomposition only makes sense if weights are additive under
    the bracket, i.e. off(A) + off(B) == off(out) for every rule.
    """
    alg = BoundAlgebra(spec, params)
    offs = dict(zip(spec.families, alg.offsets))
    for (fam_a, fam_b), rule in spec.rules.items():
        if rule.out_family is None:
            continue
        if offs[fam_a] + offs[fam_b] != offs[rule.out_family]:
            raise ValueError(
                f"algebra is not graded by its weights: [{fam_a}, {fam_b}] -> "
                f"{rule.out_family} breaks weight additivity at these parameters"
            )
    return alg


def _degree(degree) -> Fraction:
    return as_rational(degree, "degree")


class PairBasis:
    """Canonically ordered element pairs of one degree inside a window.

    Column order is lexicographic in the element keys (family position,
    index) of both elements, which fixes the coordinatization used by every
    matrix in this module.  _column resolves either orientation of a pair
    and reports the skew sign, so psi(x, y) = sign * value[column].  A basis
    is fixed by the algebra's weight offsets, the window and the degree, and
    the public calls that take one refuse a basis of any other.
    """

    def __init__(self, alg: BoundAlgebra, window: Window, degree: Fraction, keys: list):
        self.spec = alg.spec
        self.window = window
        self._offsets, self._degree = alg.offsets, degree
        self._index = {key: col for col, key in enumerate(keys)}
        # the window radius of each column: the larger |index| of its pair
        self._radius = [max(abs(x[1]), abs(y[1])) for x, y in keys]

    def __len__(self) -> int:
        return len(self._radius)

    def _column(self, x: tuple, y: tuple) -> tuple:
        """(column, sign) for the pair of element keys {x, y}; sign is -1
        when (x, y) is the reversed orientation of the stored pair."""
        sign = 1
        if x > y:
            x, y, sign = y, x, -1
        try:
            return self._index[(x, y)], sign
        except KeyError:
            raise ValueError(f"pair ({self._element(x)}, {self._element(y)}) is not in this basis") from None

    def _element(self, key: tuple) -> BasisElement:
        return BasisElement(self.spec.families[key[0]], key[1])

    def _columns(self, n: int) -> list:
        """The columns, in increasing order, whose pair has both indices in
        [-n, n]."""
        return [col for col, radius in enumerate(self._radius) if radius <= n]

    def core_columns(self) -> list:
        return self._columns(self.window.core_bound())


def enumerate_pairs(spec: AlgebraSpec, params: Mapping, window: Window, degree) -> PairBasis:
    """All pairs {x, y} of window elements with weight(x) + weight(y) ==
    degree, canonically ordered and sorted."""
    return _enumerate_pairs(_bind(spec, params), window, _degree(degree))


def _enumerate_pairs(alg: BoundAlgebra, window: Window, degree: Fraction) -> PairBasis:
    offs = alg.offsets
    keys = []
    for a in range(len(offs)):
        for b in range(a, len(offs)):
            total = degree - offs[a] - offs[b]
            if total.denominator != 1:
                continue
            total = int(total)
            for i in window.indices():
                j = total - i
                if window.contains(j) and (a != b or i < j):
                    keys.append(((a, i), (b, j)))
    keys.sort()
    return PairBasis(alg, window, degree, keys)


def _pair_basis(alg: BoundAlgebra, window: Window, degree: Fraction, pairs: PairBasis | None) -> PairBasis:
    """The pair basis of a public call: enumerated when it is None, else
    pairs, when it is the basis of these weight offsets, window and degree.
    Any other basis has other columns."""
    if pairs is None:
        return _enumerate_pairs(alg, window, degree)
    if pairs._offsets != alg.offsets:
        raise ValueError("pair basis is of an algebra with other weights")
    if pairs.window != window:
        raise ValueError(f"pair basis is of {pairs.window}, not {window}")
    if pairs._degree != degree:
        raise ValueError(f"pair basis is of degree {format_rational(pairs._degree)}, not {format_rational(degree)}")
    return pairs


# An entry of an identity's index table: the term's bracket output is the
# element it is paired with (psi(e, e) = 0, no contribution), or the output
# leaves the window (a nonzero coefficient there drops the triple).
_EQUAL = "equal"
_OUT = "out"


class _Identity:
    """The cocycle identity of one family triple at one index total,
    compiled against one pair basis.

    For the triples (F_i, G_j, H_k) with i + j + k = total, the term
    [F_i, G_j] psi(., H_k) has output index total - k, so its column and
    skew sign depend on k alone; [G_j, H_k] psi(., F_i) depends on i alone
    and [H_k, F_i] psi(., G_j) on j alone.  Each term whose family pair
    brackets to something is held in rules as (coefficient terms, output
    family, paired family, w, u, v), and in terms as (coefficient terms,
    table, w, u, v): table[idx[w] + n] is (column, sign), _EQUAL or _OUT
    for the index at position w of idx = (i, j, k), and the bracket
    coefficient is evaluated at idx[u], idx[v].  bound is at least the sum
    of |coefficient| over the terms at any triple of window indices.  The
    tables are built at their first use: every row expansion in this module
    reads them, while an identity verify_cocycle does not walk reads only
    rules (admissible); sliced() gives them on a smaller window.
    """

    def __init__(self, alg: BoundAlgebra, window: Window, pairs: PairBasis, families, total: int):
        self.families, self.total, self.n, self.pairs = families, total, window.n, pairs
        # the pinned indices: -1, and 0 too when no family has weight 0
        self.pins = (-1,) if any(not alg.offsets[p] for p in families) else (-1, 0)
        a, b, c = families
        cyclic = (((a, b, c), (2, 0, 1)), ((b, c, a), (0, 1, 2)), ((c, a, b), (1, 2, 0)))
        self.rules = [
            (rule[1], rule[0], r, *positions)
            for (p, q, r), positions in cyclic
            if (rule := alg._rules[p][q]) is not None
        ]
        self.bound = self._bound()

    @cached_property
    def terms(self) -> list:
        n, total, terms = self.n, self.total, []
        for coefficient, out, r, w, u, v in self.rules:
            table = []
            for index in range(-n, n + 1):
                output = (out, total - index)
                if output == (r, index):
                    table.append(_EQUAL)
                elif abs(output[1]) > n:
                    table.append(_OUT)
                else:
                    table.append(self.pairs._column(output, (r, index)))
            terms.append((coefficient, table, w, u, v))
        return terms

    def _bound(self) -> int:
        # |k * i**e * j**f| <= |k| * n**(e + f) for indices i, j in [-n, n]
        n = self.n
        return sum(abs(k) * n ** (e + f) for coefficient, *_ in self.rules for k, e, f in coefficient)

    def sliced(self, n: int) -> "_Identity":
        """This identity on the window [-n, n] inside its own: each table
        cut to the indices of [-n, n], with _OUT where the output index
        total - index leaves [-n, n].  The entries inside keep their columns,
        so the rows are those of the smaller window with each column mapped
        to the column of the same pair here."""
        if n == self.n:
            return self
        view = object.__new__(_Identity)
        view.families, view.total, view.pins, view.n = self.families, self.total, self.pins, n
        view.rules = self.rules
        # the positions in [0, 2n] of the indices whose output index
        # total - index lies in [-n, n]; position p is p + shift in table
        low, high = max(0, self.total), min(2 * n, self.total + 2 * n)
        shift = self.n - n
        view.terms = []
        for coefficient, table, w, u, v in self.terms:
            if low <= high:
                table = [_OUT] * low + table[low + shift : high + shift + 1] + [_OUT] * (2 * n - high)
            else:
                table = [_OUT] * (2 * n + 1)
            view.terms.append((coefficient, table, w, u, v))
        view.bound = view._bound()
        return view

    def _js(self, i: int) -> range:
        """The j of the triples (i, j, total - i - j) of the window, in
        increasing order."""
        n, total = self.n, self.total
        a, b, c = self.families
        # j ranges so that k = total - i - j lies in the window, with
        # i < j within one family and j < k within one family
        low = max(-n, total - i - n, i + 1 if a == b else -n)
        high = min(n, total - i + n, (total - i - 1) // 2 if b == c else n)
        return range(low, high + 1)

    def reaches(self, sectors) -> bool:
        """Whether a term's columns lie in one of `sectors`, family pairs
        (a, b) with a <= b: those of a pair of the output family and the
        paired one."""
        return any((min(out, r), max(out, r)) in sectors for _, out, r, *_ in self.rules)

    def admissible(self) -> int:
        """The number of admissible window triples, as walk() counts them
        when no entry is nonzero: all but those with a term whose output
        index total - idx[w] leaves the window, exactly the _OUT entries,
        and whose coefficient there is nonzero.  Those meet the edge
        indices v with |total - v| > n."""
        n, total = self.n, self.total
        count = sum(len(self._js(i)) for i in range(-n, n + 1))
        for i, j in self.meeting([v for v in range(-n, n + 1) if abs(total - v) > n]):
            idx = (i, j, total - i - j)
            for coefficient, _, _, w, u, v in self.rules:
                if abs(total - idx[w]) > n and _evaluate(coefficient, idx[u], idx[v]):
                    count -= 1
                    break
        return count

    def meeting(self, values) -> list:
        """The (i, j) of the window triples (i, j, total - i - j) with an
        index in `values`, in increasing order.  With one index fixed at v,
        the other two sum to total - v, and each position of v leaves one
        range of the free index, so there are O(n) of them per value."""
        n, total = self.n, self.total
        a, b, c = self.families
        found = set()
        for v in values:
            if not -n <= v <= n:
                continue
            rest = total - v
            # the free index x and rest - x both in [-n, n]
            low, high = max(-n, rest - n), min(n, rest + n)
            # i = v
            found.update(zip(repeat(v), self._js(v)))
            # j = v, k = rest - i: i < j within one family, j < k within one
            top = min(high, v - 1 if a == b else n, rest - v - 1 if b == c else n)
            found.update(zip(range(low, top + 1), repeat(v)))
            # k = v, j = rest - i: the same two orders
            top = min(high, (rest - 1) // 2 if a == b else n)
            bottom = max(low, rest - v + 1 if b == c else -n)
            found.update(zip(range(bottom, top + 1), range(rest - bottom, rest - top - 1, -1)))
        return sorted(found)

    def boundary(self, alg: BoundAlgebra, failing: Mapping) -> list | None:
        """The (i, j) of the triples a first window's check walks, as a
        meeting() list: a superset of those that d^2 = 0 does not certify
        from the others (module docstring), and the triples with an index
        -1.  None, for all of them, unless some family L of weight 0 has
        [L_-1, X] in X for each family X here, and the Jacobi identity holds
        on these families and on L with each two of them: none of those
        family triples is in failing, the plan's failing set.

        The certificate of a triple tau takes the quadruple (L_-1, tau + e_p)
        at a position p whose family is not repeated, or p = 0 for F, F, F.
        Its terms are c_p(tau_p + 1) times tau, the neighbours
        tau + e_p - e_q, and triples with L_-1, whose output index total + 1
        must lie in the window.  Listed is each triple with an index n, -n
        or -1, an index v with c_p(v + 1) = 0, or an index v whose output
        index total - v is at least n or at most -n.  Every other triple's
        other terms are window triples with their outputs inside, walked or
        with a larger index at p.  For F, F, F the neighbour (i + 1, i, k)
        is tau itself, so the line j = i + 1 is listed too."""
        families, n, total = self.families, self.n, self.total
        for acting, offset in enumerate(alg.offsets):
            rules = [alg._rules[acting][f] for f in families]
            if (
                not offset
                and all(rule is not None and rule[0] == f for rule, f in zip(rules, families))
                and families not in failing
                and all(tuple(sorted((acting, f, g))) not in failing for f, g in combinations(families, 2))
            ):
                break
        else:
            return None
        # the triples with L_-1 have an output index total + 1
        if abs(total + 1) > n:
            return None
        p = next((w for w in range(3) if families.count(families[w]) == 1), 0)
        values = {-1, -n, n, *range(-n, total - n + 1), *range(total + n, n + 1)}
        values.update(v for v in range(-n, n) if not _evaluate(rules[p][1], -1, v + 1))
        walked = self.meeting(values)
        if families[0] == families[2]:
            walked = sorted({*walked, *((i, i + 1) for i in range(-n, n) if i + 1 in self._js(i))})
        return walked

    def indices(self):
        """idx = (i, j, k) of the canonically ordered window triples of
        these families (a <= b <= c), in (i, j) lexicographic order."""
        total = self.total
        for i in range(-self.n, self.n + 1):
            for j in self._js(i):
                yield i, j, total - i - j

    def pinned(self) -> list:
        """The triples of indices() with an index in pins, in the same
        order: the rows the certified solve eliminates (see _Plan.cocycles)."""
        total = self.total
        return [(i, j, total - i - j) for i, j in self.meeting(self.pins)]

    def touching(self, strip) -> set:
        """The indices whose triples meet the strip: those with an index in
        it, or with a term whose output index total - idx[w] is in it."""
        return {x for s in strip for x in (s, self.total - s)}

    def row(self, idx):
        """The constraint row of one triple as {column: numerator over
        alg.denominator}, or None when a nonzero bracket output leaves the
        window (the constraint would involve unknowns outside the
        truncation and is dropped)."""
        n = self.n
        row: dict = {}
        for coefficient, table, w, u, v in self.terms:
            entry = table[idx[w] + n]
            if entry is _EQUAL:
                continue
            value = _evaluate(coefficient, idx[u], idx[v])
            if not value:
                continue
            if entry is _OUT:
                return None
            col, sign = entry
            value = row.get(col, 0) + sign * value
            if value:
                row[col] = value
            else:
                row.pop(col, None)
        return row

    def valued(self, entries: Mapping) -> tuple:
        """(terms, reached): self.terms with each (column, sign) entry
        replaced by sign * entries[column], by None where that is 0 or the
        entry is _EQUAL, and _OUT kept; reached says whether any entry is
        nonzero."""
        terms, reached = [], False
        for coefficient, table, w, u, v in self.terms:
            values = []
            for entry in table:
                if entry is _EQUAL:
                    values.append(None)
                elif entry is _OUT:
                    values.append(_OUT)
                else:
                    col, sign = entry
                    value = entries.get(col)
                    if value:
                        values.append(sign * value)
                        reached = True
                    else:
                        values.append(None)
            terms.append((coefficient, values, w, u, v))
        return terms, reached

    def walk(self, terms: list, meeting=None) -> tuple:
        """(checked, failed): the dot products of the window's triples, or
        of those of `meeting` (a meeting() list) when it is given, with the
        entries `terms` was valued by, in (i, j) order, up to the first that
        is nonzero.  checked counts the admissible triples walked, and failed
        is (idx, dot) of that first one, or None.  A coefficient is
        evaluated only where an entry is nonzero or _OUT, and an _OUT entry
        with a nonzero coefficient makes the triple inadmissible: exactly as
        row() decides it, since _EQUAL entries and zero entries add nothing
        to the dot."""
        n, total = self.n, self.total
        checked = 0
        if meeting is None:
            groups = ((i, self._js(i)) for i in range(-n, n + 1))
        else:
            groups = ((i, (j,)) for i, j in meeting)
        for i, js in groups:
            for j in js:
                idx = (i, j, total - i - j)
                dot = 0
                for coefficient, values, w, u, v in terms:
                    at = values[idx[w] + n]
                    if at is None:
                        continue
                    x, y = idx[u], idx[v]
                    value = 0
                    for k, e, f in coefficient:  # _evaluate, inlined
                        value += k * x**e * y**f
                    if not value:
                        continue
                    if at is _OUT:
                        break
                    dot += value * at
                else:
                    checked += 1
                    if dot:
                        return checked, (idx, dot)
        return checked, None


def _identities(alg: BoundAlgebra, window: Window, degree: Fraction, pairs: PairBasis) -> list:
    """The compiled identity of every family triple a <= b <= c whose index
    total is an integer at this degree, in lexicographic order; with their
    indices() in turn they run through all of the degree's window triples."""
    offs = alg.offsets
    identities = []
    for families in combinations_with_replacement(range(len(offs)), 3):
        total = degree - sum(offs[p] for p in families)
        if total.denominator == 1:
            identities.append(_Identity(alg, window, pairs, families, int(total)))
    return identities


def assemble_constraints(
    spec: AlgebraSpec, params: Mapping, window: Window, degree, pairs: PairBasis | None = None
) -> SparseMatrix:
    """Constraint matrix with one row per admissible nonvacuous triple."""
    alg = _bind(spec, params)
    degree = _degree(degree)
    pairs = _pair_basis(alg, window, degree, pairs)
    denominator = alg.denominator
    rows = []
    for identity in _identities(alg, window, degree, pairs):
        for idx in identity.indices():
            row = identity.row(idx)
            if row:
                rows.append({col: Fraction(value, denominator) for col, value in row.items()})
    return SparseMatrix.from_rows(rows, len(pairs))


class _Plan:
    """The windows [-n, n] of one degree up to `window`, built once at it:
    its pair basis, the compiled identities of its family triples, and each
    pair's bracket.  Window n's columns are the plan's columns whose pair
    has both indices in [-n, n]; both numberings sort the pair keys, so the
    map from window n's own columns to these is increasing, and every row,
    pivot and null vector of window n is the same one here.  Its identities
    are the compiled ones sliced to [-n, n] (_Identity.sliced), and its
    coboundary generators and core columns are filtered from the plan's.

    The plan also owns the certified solve of its windows: the echelon of
    the rows it has eliminated, and the window that echelon was solved on.
    Each window it solves must grow the one before (cocycles)."""

    def __init__(self, alg: BoundAlgebra, window: Window, degree: Fraction, pairs: PairBasis | None = None):
        self.alg, self.window, self.degree = alg, window, degree
        self.pairs = _pair_basis(alg, window, degree, pairs)
        self.ech, self.solved = _Echelon(), None

    @cached_property
    def identities(self) -> list:
        """The compiled identities whose family pairs bracket to something."""
        return [
            identity
            for identity in _identities(self.alg, self.window, self.degree, self.pairs)
            if identity.rules
        ]

    @cached_property
    def failing(self) -> dict:
        """The family triples where the Jacobi identity fails at the bound
        parameters, with their residuals (algebra._jacobi_residuals)."""
        return _jacobi_residuals(self.alg._rules)

    @cached_property
    def images(self) -> dict:
        """{element key of z: {column: numerator over alg.denominator}}: for
        each plan element z of weight == degree, in family order, the
        columns whose pair brackets to a multiple of z."""
        alg = self.alg
        slots = {}
        for pos, off in enumerate(alg.offsets):
            target = self.degree - off
            if target.denominator == 1 and self.window.contains(int(target)):
                slots[(pos, int(target))] = {}
        for col, (x, y) in enumerate(self.pairs._index):
            term = alg.int_bracket(x, y)
            if term is not None and term[1] in slots:
                slots[term[1]][col] = term[0]
        return slots

    def cocycles(self, n: int) -> list:
        """The certified solve of the module docstring on window n: the
        primitive {column: int} null vectors of every admissible row, over
        the plan's columns, with the rows it eliminates added to the plan's
        echelon.  n must exceed the window solved before, if any, and then
        only the triples that meet the strip of indices between the two
        windows (see _Identity.touching) have their rows added or checked:
        every other admissible row is one of the smaller window's, in the
        span of the echelon."""
        previous = self.solved
        if previous is not None and n <= previous:
            raise ValueError(f"window {n} does not grow the solved window {previous}")
        identities = [identity.sliced(n) for identity in self.identities]
        strip = None if previous is None else [i for i in range(-n, n + 1) if abs(i) > previous]

        def walked(identity):
            if strip is None:
                return identity.boundary(self.alg, self.failing)
            return identity.meeting(identity.touching(strip))

        for identity in identities:
            pinned = identity.pinned()
            if strip is not None:
                touching = identity.touching(strip)
                pinned = [idx for idx in pinned if not touching.isdisjoint(idx)]
            for idx in pinned:
                row = identity.row(idx)
                if row:
                    self.ech.add(row)
        vectors = _add_violated(identities, self.ech, self.pairs._columns(n), walked)
        self.solved = n
        return vectors

    def coboundaries(self, n: int) -> list:
        """The kept generators of coboundary_space on window n, as {column:
        numerator over alg.denominator}, in the order of their z: a
        generator is kept when it adds a new direction to the ones before
        it."""
        within = set(self.pairs._columns(n))
        ech = _Echelon()
        kept = []
        for (_, index), generator in self.images.items():
            if abs(index) > n:
                continue
            generator = _restrict(generator, within)
            if ech.add(generator):
                kept.append(generator)
        return kept

    def core_dims(self, window: Window) -> tuple:
        """(null vectors, kept coboundary generators, core echelon of the
        coboundaries, core columns, core H^2 dimension) of the plan's
        window, solved by cocycles."""
        vectors = self.cocycles(window.n)
        bounds = self.coboundaries(window.n)
        core = set(self.pairs._columns(window.core_bound()))
        core_bounds = _core_echelon(bounds, core)
        return vectors, bounds, core_bounds, core, _core_echelon(vectors, core).rank - core_bounds.rank


def cocycle_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    """nullspace(assemble_constraints(...)), by the certified subset solve."""
    plan = _Plan(_bind(spec, params), window, _degree(degree), pairs)
    return _fraction_basis(len(plan.pairs), plan.cocycles(window.n))


def _packed(vectors: list, identities: list) -> tuple:
    """(packed, w): each column's entries e_s of the d {column: int} vectors
    packed into one integer P = sum_s e_s * 2**(w*s), in slots of w bits,
    for checking the identities' triples against all d vectors at once.

    The sum of coefficient * sign * P over one triple's terms is
    sum_s D_s * 2**(w*s), with D_s the triple's dot product with vector s.
    With M the largest |e_s| and B the largest _Identity.bound,
    |D_s| <= B * M < 2**(w - 2) for w = bit_length(B * M) + 2.  If some D_s
    is nonzero, take the smallest such s: every later slot is a multiple of
    2**(w*(s+1)), so the sum is congruent to D_s * 2**(w*s) modulo
    2**(w*(s+1)), and it is zero there only if 2**w divides D_s, which
    |D_s| < 2**w forbids.  So the packed sum is zero exactly when every dot
    product is, and likewise P is zero exactly when every e_s is (B >= 1)."""
    top = max((abs(value) for vec in vectors for value in vec.values()), default=0)
    width = (max((identity.bound for identity in identities), default=1) * top).bit_length() + 2
    packed: dict = {}
    for slot, vec in enumerate(vectors):
        shift = width * slot
        for col, value in vec.items():
            packed[col] = packed.get(col, 0) + (value << shift)
    return packed, width


def _add_violated(identities: list, ech: _Echelon, columns: list, walked) -> list:
    """Check the admissible rows of the triples walked(identity) lists (a
    meeting() list, or None for all of them) against the null vectors of
    the echelon over `columns`, by exact integer dot products against all
    of them at once (_packed), refine as it goes, and return the final null
    vectors.  When a row fails, it is added to the echelon, the null vectors
    are recomputed and its family triple is walked again from its first
    listed triple.  That is exact: the nullspace only shrinks, so the
    triples passed before still pass and the added row now does too, and
    each added row raises the rank by one.  A first window lists each
    identity's boundary, whose rows certify every other row by d^2 = 0
    (module docstring); a grown window lists the triples that meet the
    strip.  An identity with no table column where a null vector is
    nonzero is skipped: its dot products are 0."""
    vectors = _null_vectors(ech.pivots, columns)
    packed = _packed(vectors, identities)[0]
    for identity in identities:
        terms, reached = identity.valued(packed)
        meeting = walked(identity) if reached else None
        while reached:
            failed = identity.walk(terms, meeting)[1]
            if failed is None:
                break
            ech.add(identity.row(failed[0]))
            vectors = _null_vectors(ech.pivots, columns)
            packed = _packed(vectors, identities)[0]
            terms, reached = identity.valued(packed)
    return vectors


def coboundary_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    """Span of the functional generators: for each window element z of
    weight == degree, the form (x, y) -> f([x, y]) with f dual to z.  At a
    fixed degree each family contributes at most one such z.  A generator
    is kept when it adds a new direction to the ones before it."""
    alg = _bind(spec, params)
    plan = _Plan(alg, window, _degree(degree), pairs)
    return _fraction_basis(len(plan.pairs), plan.coboundaries(window.n), alg.denominator)


# cocycle values as data


@dataclass(frozen=True)
class CocycleAssignment:
    """A finitely supported skew form on window pairs.

    Values are stored on canonically ordered pairs only; value(x, y)
    resolves either orientation with the sign.  JSON form maps
    "FAM:index,FAM:index" keys to "p/q" strings.
    """

    spec: AlgebraSpec
    window: Window
    values: Mapping

    def __post_init__(self):
        key, window = self.spec.element_key, self.window
        canonical: dict = {}
        for (x, y), value in self.values.items():
            value = as_rational(value, "cocycle value")
            flip = key(x) > key(y)
            if not (window.contains(x.index) and window.contains(y.index)):
                raise ValueError(f"pair ({x}, {y}) is outside the window")
            if x == y:
                if value:
                    raise ValueError(f"nonzero value on the diagonal pair ({x}, {x})")
                continue
            if flip:
                x, y, value = y, x, -value
            if (x, y) in canonical:
                raise ValueError(f"pair ({x}, {y}) assigned twice")
            if value:
                canonical[(x, y)] = value
        object.__setattr__(self, "values", canonical)

    def support(self) -> list:
        return sorted(self.values, key=lambda p: (self.spec.element_key(p[0]), self.spec.element_key(p[1])))

    def value(self, x: BasisElement, y: BasisElement) -> Fraction:
        if x == y:
            return Fraction(0)
        sign = 1
        if self.spec.element_key(x) > self.spec.element_key(y):
            x, y, sign = y, x, -1
        return sign * self.values.get((x, y), Fraction(0))

    def to_json_dict(self) -> dict:
        out = {}
        for x, y in self.support():
            key = f"{x.family}:{x.index},{y.family}:{y.index}"
            out[key] = format_rational(self.values[(x, y)])
        return out

    @classmethod
    def from_json_dict(cls, spec: AlgebraSpec, window: Window, data: Mapping) -> "CocycleAssignment":
        # a pair key always contains ":", so a "values" key marks a wrapper
        if isinstance(data, Mapping) and "values" in data:
            data = data["values"]
        if not isinstance(data, Mapping):
            raise ValueError("cocycle assignment must be a JSON object of 'FAM:i,FAM:j' keys")
        values = {}
        for key, text in data.items():
            values[_parse_pair_key(key)] = parse_rational(str(text))
        return cls(spec, window, values)


def _by_degree(spec: AlgebraSpec, offsets: tuple, values: Mapping) -> dict:
    """{degree: {(key of x, key of y): (numerator, denominator)}} of
    canonical cocycle values {(x, y): Fraction}, the form _on_columns takes,
    with each family's weight offset taken by position from `offsets`."""
    key = spec.element_key
    groups: dict = {}
    for (x, y), value in values.items():
        x, y = key(x), key(y)
        degree = offsets[x[0]] + offsets[y[0]] + (x[1] + y[1])
        groups.setdefault(degree, {})[(x, y)] = (value.numerator, value.denominator)
    return groups


def _on_columns(ratios: Mapping, pairs: PairBasis) -> tuple:
    """(vector, scale): canonical cocycle values {(key of x, key of y):
    (numerator, denominator)} as {column: int} over their common
    denominator scale.  Every pair must be in the basis."""
    scale = math.lcm(1, *(den for _, den in ratios.values()))
    vector = {}
    for (x, y), (num, den) in ratios.items():
        col = pairs._index.get((x, y))
        if col is None:
            x, y = pairs._element(x), pairs._element(y)
            raise ValueError(f"assignment has support on {x}, {y} outside the pair basis")
        vector[col] = num * (scale // den)
    return vector, scale


def _parse_pair_key(key: str) -> tuple:
    parts = key.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad pair key {key!r} (expected 'FAM:i,FAM:j')")
    elements = []
    for part in parts:
        fam, _, idx = part.partition(":")
        try:
            elements.append(BasisElement(fam.strip(_BLANKS), parse_integer(idx)))
        except ValueError:
            raise ValueError(f"bad element {part!r} in pair key {key!r}") from None
    return elements[0], elements[1]


# declared cocycle classes


@dataclass(frozen=True)
class KnownCocycle:
    """A closed-form cocycle class given by one or more CocycleLines, as a
    .lie file's cocycle block declares it.

    Most classes live on a single line; classes whose defining relations
    couple several pair sectors (svir's lm-yy-cubic couples L-M to Y-Y)
    carry one line per sector.  Applicability requires every line's offset
    to be an integer, so the support hits integer indices, and every
    denominator to have no integer root.  The lines of an applicable class
    must agree on its degree.
    """

    name: str
    lines: tuple

    def __post_init__(self):
        if not self.lines:
            raise ValueError("a known cocycle needs at least one line")
        object.__setattr__(self, "lines", tuple(self.lines))

    def applicability(self, spec: AlgebraSpec, params: ParamMap) -> str | None:
        """None when this cocycle makes sense on the algebra, else the
        violated condition, e.g. "requires 3*mu integer"."""
        return self._check(BoundAlgebra(spec, params))[0]

    def _check(self, alg: BoundAlgebra) -> tuple:
        """(reason, degree, lines): applicability's answer at the binding,
        and when that is None the class's degree and each line as (family
        position a, family position b, support offset t, coefficient terms,
        denominator terms), both integer terms (k, 0, b) in m over one
        scale.  A line's degree is alg.offsets[a] + alg.offsets[b] + t, and
        lines that disagree on it raise.  The offset is evaluated first, to
        fail fast."""
        spec = alg.spec
        compiled, degrees = [], set()
        for line in self.lines:
            for fam in (line.family_a, line.family_b):
                if fam not in spec.families:
                    return f"algebra has no family {fam}", None, None
            extra = sorted(line.parameters - set(spec.parameters))
            if extra:
                return f"algebra has no parameter {extra[0]}", None, None
            total = line.offset.evaluate(alg.params)
            if total.denominator != 1:
                # t is an integer exactly when -t is: name the one that
                # leads with a positive term
                lead = line.offset.sorted_terms(spec.parameters)[0][1]
                text = (line.offset if lead > 0 else -line.offset).to_text(spec.parameters)
                return f"requires {text} integer", None, None
            _, (coeff, denom) = _compile(line._index_terms, alg.params)
            # a*m + b (CocycleLine keeps it at most linear) vanishes at an
            # integer m exactly when a divides b
            slope = sum(k for k, _, e in denom if e)
            if not denom or (slope and _evaluate(denom, 0, 0) % slope == 0):
                where = "at an integer index" if denom else "identically"
                text = line.denom.to_text((line.var_b,) + spec.parameters)
                return f"denominator {text} vanishes {where}", None, None
            a, b = map(spec.family_position, (line.family_a, line.family_b))
            degrees.add(alg.offsets[a] + alg.offsets[b] + total)
            compiled.append((a, b, int(total), coeff, denom))
        if len(degrees) > 1:
            text = ", ".join(map(format_rational, sorted(degrees)))
            raise ValueError(f"cocycle {self.name!r} mixes degrees {text}")
        return None, degrees.pop(), compiled

    def instantiate(self, spec: AlgebraSpec, params: Mapping, window: Window) -> CocycleAssignment:
        return self._instantiate(_bind(spec, params), window)[2]

    def _instantiate(self, alg: BoundAlgebra, window: Window) -> tuple:
        """(degree, values, assignment): the class at the binding on the
        window, as its degree, its canonical values as _ratios gives them,
        and the CocycleAssignment of those values.  An inapplicable class is
        refused with the violated condition."""
        reason, degree, lines = self._check(alg)
        if reason is not None:
            raise ValueError(f"cocycle {self.name!r} not applicable: {reason}")
        ratios = self._ratios(window, lines)
        values = {
            (alg.element(x), alg.element(y)): Fraction(num, den) for (x, y), (num, den) in ratios.items()
        }
        return degree, ratios, CocycleAssignment(alg.spec, window, values)

    def _ratios(self, window: Window, lines: list) -> dict:
        """The canonical values of _check's lines on the window as
        {(key of x, key of y): (numerator, denominator)}, each value
        coeff(m) / denom(m) from two integer evaluations."""
        ratios: dict = {}
        for a, b, total, coeff, denom in lines:
            for m in window.indices():
                n = total - m
                if not window.contains(n) or (a, n) == (b, m):
                    continue
                num = _evaluate(coeff, 0, m)
                if not num:
                    continue
                den = _evaluate(denom, 0, m)
                x, y = (a, n), (b, m)
                if x > y:
                    x, y, num = y, x, -num
                first = ratios.setdefault((x, y), (num, den))
                if first[0] * den != num * first[1]:
                    raise ValueError(f"cocycle {self.name!r} table is not skew-consistent")
        return ratios


def __getattr__(name):
    # REGISTRY: the classes the bundled presets declare, by name (svir
    # declares all of them; witt's virasoro is the same class).  It is built
    # at first use, so a process that never reads it never parses svir.
    if name == "REGISTRY":
        registry = {known: KnownCocycle(known, lines) for known, lines in load_algebra("svir").cocycles.items()}
        globals()[name] = registry
        return registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# verification


@dataclass
class VerifyReport:
    passed: bool
    triples_checked: int
    witness: tuple | None  # (x, y, z, residual)
    assignment: CocycleAssignment


def verify_cocycle(spec, params, window, cocycle) -> VerifyReport:
    """Check every admissible window triple against the cocycle identity,
    degree by degree, and count them.

    Only the family triples with a term whose columns lie in a sector where
    psi is nonzero are compiled and walked, in (i, j) order up to the first
    failing triple, the witness.  Every other family triple's residuals are
    0: its admissible triples are counted (_Identity.admissible) and pass.
    Accepts a KnownCocycle (instantiated here; inapplicable parameter
    values raise with the violated condition) or a CocycleAssignment.
    """
    alg = _bind(spec, params)
    if isinstance(cocycle, KnownCocycle):
        degree, ratios, psi = cocycle._instantiate(alg, window)
        groups = {degree: ratios} if ratios else {}
    elif isinstance(cocycle, CocycleAssignment):
        psi = cocycle
        # a pair outside the window is in no admissible triple's row
        groups = {
            degree: {(x, y): r for (x, y), r in ratios.items() if window.contains(x[1]) and window.contains(y[1])}
            for degree, ratios in _by_degree(spec, alg.offsets, psi.values).items()
        }
    else:
        raise TypeError("expected a KnownCocycle or CocycleAssignment")
    checked = 0
    for degree, ratios in sorted(groups.items()):
        pairs = _enumerate_pairs(alg, window, degree)
        vector, scale = _on_columns(ratios, pairs)
        sectors = {(x[0], y[0]) for x, y in ratios}
        for identity in _identities(alg, window, degree, pairs):
            if not identity.reaches(sectors):
                # psi is 0 on every column of its terms: its admissible
                # triples all pass
                checked += identity.admissible()
                continue
            count, failed = identity.walk(identity.valued(vector)[0])
            checked += count
            if failed is not None:
                idx, dot = failed
                residual = Fraction(dot, alg.denominator * scale)
                x, y, z = (alg.element(k) for k in zip(identity.families, idx))
                return VerifyReport(False, checked, (x, y, z, residual), psi)
    return VerifyReport(True, checked, None, psi)


def _restrict(vector: dict, columns: set) -> dict:
    return {col: value for col, value in vector.items() if col in columns}


def _core_echelon(vectors, core: set) -> _Echelon:
    """The echelon of the {column: int} vectors restricted to the core
    columns, which keep their indices."""
    return _Echelon(_restrict(vec, core) for vec in vectors)


def is_coboundary(spec, params, window, psi: CocycleAssignment) -> bool:
    """Whether psi, restricted to core pairs, lies in the core projection of
    the coboundary space.  Empty assignments are coboundaries, and so is one
    with no core support; mixed-degree input is an error (split it by degree
    first)."""
    alg = _bind(spec, params)
    groups = _by_degree(spec, alg.offsets, psi.values)
    if len(groups) > 1:
        raise ValueError("assignment mixes degrees")
    if not groups:
        return True
    [(degree, ratios)] = groups.items()
    plan = _Plan(alg, window, degree)
    vector = _on_columns(ratios, plan.pairs)[0]
    core = set(plan.pairs.core_columns())
    bounds = _core_echelon(plan.coboundaries(window.n), core)
    return bounds.contains(_restrict(vector, core))


def _grading_failure(alg: BoundAlgebra) -> str | None:
    """None when the grading is inner: some family F of weight offset 0 has
    [F_0, G_m] = c * (m + offset_G) G_m for every family G, with one
    constant c != 0, so F_0 / c acts on every basis element by its weight.
    Otherwise the first bracket that fails for each weight-zero family, or
    that no family has weight 0.  Decided on the compiled rules: at n = 0
    only their terms k * m**b (exponent of n zero) remain."""
    failures = []
    for p, offset in enumerate(alg.offsets):
        if offset:
            continue
        scale = None
        for q, other_offset in enumerate(alg.offsets):
            rule = alg._rules[p][q]
            at_zero = {b: k for k, a, b in rule[1] if not a} if rule else {}
            if scale is None:
                scale = at_zero.get(1, 0)
            # c * (m + offset_G), its zero terms left out as _compile leaves them out
            expected = {b: k for b, k in ((1, scale), (0, scale * other_offset)) if k}
            if not (scale and at_zero == expected and rule[0] == q):
                text = "0"
                if rule:
                    terms = {((("m", b),) if b else ()): Fraction(k, alg.denominator) for b, k in at_zero.items()}
                    text = f"({IndexPolynomial(terms).to_text()}) {alg.families[rule[0]]}(m)"
                failures.append(f"[{alg.families[p]}(0), {alg.families[q]}(m)] = {text}")
                break
        else:
            return None
    return "; ".join(failures) or "no family has weight 0"


def _jacobi_failure(alg: BoundAlgebra, failing: Mapping) -> str | None:
    """None when the Jacobi identity holds; otherwise each failing family
    triple of a failing set and its residual's output families, as
    "L, Y, Y -> M", joined by "; "."""
    names = alg.families
    return "; ".join(
        ", ".join(names[p] for p in families) + " -> " + ", ".join(dict.fromkeys(names[key[0]] for key in residual))
        for families, residual in failing.items()
    ) or None


def nonzero_degree_triviality(spec, params, window, degree) -> bool:
    """Whether cocycles and coboundaries have the same core dimension at a
    nonzero degree d.

    This is the windowed check of why nonzero degrees carry no cohomology:
    pairing the diagonal weight-zero element z0 ([z0, g] = weight(g) g for
    every basis element g) with the cocycle identity on (z0, x, y) gives
    d * psi(x, y) = psi(z0, [x, y]), so psi is the coboundary of the
    functional f(z) = psi(z0, z) / d.  Degree zero is refused: that sector
    genuinely carries cohomology and needs the full h2 treatment.  So is an
    algebra with no such z0 among its basis elements (see _grading_failure):
    there the argument does not apply."""
    degree = _degree(degree)
    if degree == 0:
        raise ValueError("degree must be nonzero (use h2 for the degree-zero sector)")
    alg = _bind(spec, params)
    failure = _grading_failure(alg)
    if failure is not None:
        raise ValueError(
            f"the grading is not inner ({failure}): the argument that nonzero "
            "degrees carry no cohomology does not apply"
        )
    return _Plan(alg, window, degree).core_dims(window)[-1] == 0


# H^2 reports


@dataclass
class MatchResult:
    name: str
    matched: bool


@dataclass
class H2Report:
    algebra: str
    params: dict
    window: Window
    degree: Fraction
    cocycle_dim: int
    coboundary_dim: int
    h2_dim: int
    core_h2_dim: int
    stabilized: bool
    core_history: list = field(default_factory=list)  # [(n, core dim)]
    matched_known: list = field(default_factory=list)  # [MatchResult]
    grading: str | None = None  # why the grading is not inner (_grading_failure); None when it is
    jacobi: str | None = None  # where the Jacobi identity fails (_jacobi_failure); None when it holds


def match_known(
    spec, params, window, degree, pairs, cocycles: VectorBasis, bounds: VectorBasis
) -> list:
    """Which of the algebra's declared cocycle classes lie in the computed
    cocycle space and are not coboundaries (core-projected).  Inapplicable
    classes are omitted."""
    alg = _bind(spec, params)
    degree = _degree(degree)
    _pair_basis(alg, window, degree, pairs)
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


def _match(alg: BoundAlgebra, window, degree, pairs: PairBasis, cocycles: _Echelon, core_bounds: _Echelon, core) -> list:
    """match_known over the columns of `pairs` against the echelon of the
    cocycles and the core echelon of the coboundaries.  Each class's values
    on the window become one integer vector over their common denominator."""
    spec = alg.spec
    results = []
    for name, lines in spec.cocycles.items():
        known = KnownCocycle(name, lines)
        reason, known_degree, lines = known._check(alg)
        if reason is not None:
            continue
        ratios = known._ratios(window, lines)
        matched = False
        if ratios and known_degree == degree:
            vector = _on_columns(ratios, pairs)[0]
            matched = cocycles.contains(vector) and not core_bounds.contains(_restrict(vector, core))
        results.append(MatchResult(known.name, matched))
    return results


def h2(
    spec,
    params,
    window: Window,
    degree=0,
    stabilization_steps: int = 3,
) -> H2Report:
    """Windowed H^2 at one degree with stabilization across grown windows.

    The report's h2_dim is the raw windowed quotient dimension (it can carry
    edge junk); core_h2_dim is the trustworthy number, and stabilized says
    whether it agreed across stabilization_steps windows n, n+2, n+4, ...
    All windows are views on one plan built at the largest, and each grown
    window's solve goes on from the echelon of the one before it.
    grading is None when some family's index-0 element acts by the
    weights; otherwise it is _grading_failure's text naming the brackets
    that fail, and degree 0 then need not carry the whole H^2.  jacobi is
    None when the bracket satisfies the Jacobi identity; otherwise it names
    the family triples where it fails, read off the plan's one expansion,
    and the numbers then describe no Lie algebra.  A window
    is refused when its core holds no pair of some family pair (sector)
    that has pairs at this degree: the core dimension would leave that
    sector out.  The message names the smallest window that covers it.
    """
    if stabilization_steps < 1:
        raise ValueError("need at least one stabilization step")
    alg = _bind(spec, params)
    degree = _degree(degree)
    # a core pair (i, total - i) has |i|, |total - i| <= core, and i != total - i
    # within one family
    core = window.core_bound()
    for a, b in combinations_with_replacement(range(len(alg.offsets)), 2):
        total = degree - alg.offsets[a] - alg.offsets[b]
        if total.denominator == 1 and abs(total) > 2 * core - (a == b):
            radius = (abs(total.numerator) + (a == b) + 1) // 2
            raise ValueError(
                f"window too small: the {alg.families[a]}-{alg.families[b]} sector has no pair of degree "
                f"{format_rational(degree)} in the core; it needs N >= {window.margin + radius}"
            )
    plan = _Plan(alg, window.grown(2 * (stabilization_steps - 1)), degree)
    history = []
    for step in range(stabilization_steps):
        grown = window.grown(2 * step)
        vectors, bounds, core_bounds, core, dim = plan.core_dims(grown)
        if not step:
            matched = _match(alg, window, degree, plan.pairs, _Echelon(vectors), core_bounds, core)
            cocycle_dim, coboundary_dim = len(vectors), len(bounds)
        history.append((grown.n, dim))
    return H2Report(
        algebra=spec.name,
        params=dict(alg.params),
        window=window,
        degree=degree,
        cocycle_dim=cocycle_dim,
        coboundary_dim=coboundary_dim,
        h2_dim=cocycle_dim - coboundary_dim,
        core_h2_dim=history[0][1],
        stabilized=len({dim for _, dim in history}) == 1,
        core_history=history,
        matched_known=matched,
        grading=_grading_failure(alg),
        jacobi=_jacobi_failure(alg, plan.failing),
    )


def theorem_predicted_dim(lam, mu) -> int:
    """Dimension of degree-zero H^2 for svir(lambda, mu) per the closed-form
    classification: 1 generically (the central charge), an extra Y-M class
    when 3*mu is an integer and lambda = -1, extra L-Y classes at integer mu
    for lambda in {-3, 1}, and all of c1, c2 on top of virasoro at
    lambda = -1 with integer mu.  mu = 0 is an integer mu: svir(lambda, 0)
    is svir(lambda, 1) up to the graded isomorphism Y_m -> Y_{m+1},
    M_m -> M_{m+2}."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    if (3 * mu).denominator != 1:
        return 1
    if mu.denominator == 1:
        if lam == -1:
            return 3
        if lam in (Fraction(-3), Fraction(1)):
            return 2
        return 1
    return 2 if lam == -1 else 1
