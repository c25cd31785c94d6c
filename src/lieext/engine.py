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
as it goes (_Plan.check).  A row that fails is added to the echelon, the
null vectors are recomputed, and the walk takes that family triple again
from the start.  That is exact: the nullspace only shrinks, so the triples
passed before still pass and the added row now does too.  Each added row
raises the rank by one, so the check adds exactly the pinned rows' rank
deficit, in whatever order it walks the triples.  Each added row costs a
back-substitution, so the solve is only as cheap as that deficit is small:
at most 4 at n = 40 and degrees 0, 1 and 2 on svir, witt and five algebras
of the tests.

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
it counts that one's admissible triples instead (_Identity.admissible): its
window triples in closed form, less those with an output outside, and only
a triple with an index at the window edge can have an output outside.
Its count of triples checked, part of its report, stays exact.  Whether an
output leaves the window is one rule, _Identity.inside, which the count
reads with the identity's rules and the tables (below) read too, so that
the family triples verify_cocycle does not walk build no tables.

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
(_Plan): one pair basis and one bracket pass for the coboundaries.  Which
family pairs, triples and single families exist at a degree is one rule,
_totals: those whose index total, the degree less their weight offsets, is
an integer, found by integer division over the offsets' common denominator.
Each window n is a view on the plan.  Its columns are the plan's columns
whose pair has both indices in [-n, n]; both numberings sort the same pair
keys, so the map from window n's own columns into the plan's is
increasing, every row keeps its leading column, and pivots, ranks and
reduced null vectors correspond one to one.  It builds its identities at
radius n over the plan's pair basis with _identities, the one list that
assemble_constraints and verify_cocycle build too, and keeps those whose
family pairs bracket to something; their tables mark "the output leaves
the window" wherever the output index leaves [-n, n].  Its coboundary
generators and core columns are filtered from the plan's.  The plan holds
the certified echelon and the window it was solved on: h2 solves its first
window as above and grows each later window from that echelon, which passes
from window to window unchanged.  A triple of the grown window is new when
one of its indices, or the output index total - idx[w] of one of its terms,
lies in the strip between the two windows; there are O(n) of them per
family triple, and they are enumerated directly.  Every other admissible
triple has its indices and its nonzero outputs inside the smaller window,
so its row is a row of that window with the same entries, and it lies in
the span of that window's certified echelon.  So only the new pinned rows
are added and only the new rows are checked, and the nullspace, its pivot
columns and its reduced basis are exactly those of a fresh solve.

Every row is expanded from one compiled form of the identity.  The indices
of the triples (F_i, G_j, H_k) of one family triple at one degree sum to a
fixed t, so the term [F_i, G_j] psi(., H_k) has output index t - k and its
column and skew sign depend on k alone, as the other two terms' depend on i
and on j alone.  Each family triple's identity is therefore compiled, once
per window, into its coefficient terms and three per-index tables whose
entries are a (column, sign), None where the output is the paired element
(no contribution), or "the output leaves the window" (the triple is
dropped if the coefficient there is nonzero).  Assembly, the subset solve,
the check and verify_cocycle's walks all read these tables, which are built
at their first use.  The check and verify_cocycle replace
each table's columns by vector entries and walk the triples in one loop
(_Identity.walk).  verify_cocycle uses psi's values.
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
denominator.  verify_cocycle converts a class once: its assignment holds
the integer quotients, and is_coboundary reads them from it; their
Fractions (CocycleAssignment.values) are built only when a caller reads
them.  Both calls take psi from there one way.  They group its quotients
by degree (_by_degree), one sum per family pair and index total, whatever
made the assignment, and key its columns by the pairs themselves
({pair: pair} over _pair_keys), as neither reduces an echelon at scale:
verify_cocycle compiles its identities against the window's pairs, and
is_coboundary builds no plan.  The core projection of the coboundary space
is spanned by the generators of the window elements restricted to the core
pairs, so is_coboundary brackets the core pairs alone.

After the solve every vector stays a {column: int} row: the primitive null
vectors, the kept coboundary generators as numerators over the algebra's
denominator (each nonzero one: a pair brackets to one element, so the
generators of distinct elements have disjoint supports and are
independent), and a cocycle class as its values over their common
denominator.  Sorted integer columns (a PairBasis) exist only where an
echelon is reduced at scale, in a plan, and at the public Fraction
boundary.  A core dimension is the rank of such rows restricted to the
core columns, which keep their indices (echelon order is column order, so
nothing is renumbered).  Each window's core-coboundary echelon is built once
and serves core_h2 and the coboundary test of every cocycle class; one
echelon of the null vectors serves their cocycle test.  Fractions appear only
at the public boundary: cocycle_space and coboundary_space return a
VectorBasis, and match_known takes them.

Nothing here knows an algebra by its name or loads a preset: every rule
reads the spec it is given.  svir's closed-form table, which the CLI
compares h2's reports with, and REGISTRY, the classes svir declares, live
in lieext.presets.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, repeat
from typing import Mapping

from .algebra import (
    AlgebraSpec,
    BasisElement,
    BoundAlgebra,
    ParamMap,
    _CYCLIC,
    _compile,
    _evaluate,
    _jacobi_residuals,
    _Record,
    _Value,
)
from .poly import IndexPolynomial
from .rational import _BLANKS, _Frozen, as_rational, format_rational, parse_integer, parse_rational
from .sparse import (
    SparseMatrix,
    VectorBasis,
    _Echelon,
    _fraction_basis,
    _int_row_from_dense,
    _null_vectors,
)


class Window(_Value):
    """Symmetric index window [-n, n] with a core of radius n - margin."""

    def __init__(self, n: int, margin: int = 3):
        if not (isinstance(n, int) and isinstance(margin, int)):
            raise ValueError(f"window n and margin must be integers, got {n!r} and {margin!r}")
        if margin < 1:
            raise ValueError("window margin must be at least 1")
        if n - margin < 3:
            raise ValueError("window too small: need n - margin >= 3")
        self.__dict__.update(n=n, margin=margin)

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
    matrix in this module.  _index maps each stored pair (x, y), x < y, to
    its column, and psi(y, x) = -psi(x, y) gives the other orientation.  A
    basis is fixed by the algebra's weight offsets, the window and the
    degree, and the public calls that take one refuse a basis of any other.
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


def _totals(alg: BoundAlgebra, degree: Fraction, size: int):
    """(families, total) for each family tuple a <= b <= ... of `size`, in
    combinations_with_replacement order, that has elements at this degree:
    those whose index total degree - sum of their weight offsets is an
    integer, as an int.  It is found in integers over the offsets' common
    denominator D: a total is an integer only if degree * D is, that is if
    the degree's denominator divides D, so otherwise no tuple has one, and
    each tuple's total is a divmod by D of degree * D less its offsets
    times D.  Every reader of which family pairs, triples or single
    families exist at a degree takes them from here."""
    scale = math.lcm(*(off.denominator for off in alg.offsets))
    if scale % degree.denominator:
        return
    target = degree.numerator * (scale // degree.denominator)
    offs = [off.numerator * (scale // off.denominator) for off in alg.offsets]
    for families in combinations_with_replacement(range(len(offs)), size):
        total, rest = divmod(target - sum(offs[p] for p in families), scale)
        if not rest:
            yield families, total


def _pair_keys(alg: BoundAlgebra, degree: Fraction, n: int):
    """The canonical pairs ((a, i), (b, j)) of this degree with both indices
    in [-n, n], i < j within one family: a pair basis's keys, unsorted."""
    for (a, b), total in _totals(alg, degree, 2):
        for i in range(-n, n + 1):
            j = total - i
            if -n <= j <= n and (a != b or i < j):
                yield (a, i), (b, j)


def _enumerate_pairs(alg: BoundAlgebra, window: Window, degree: Fraction) -> PairBasis:
    return PairBasis(alg, window, degree, sorted(_pair_keys(alg, degree, window.n)))


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


# An entry of an identity's index table where the term's bracket output
# leaves the window: a nonzero coefficient there drops the triple
_OUT = "out"


class _Identity:
    """The cocycle identity of one family triple at one index total on the
    window [-n, n], compiled against one column map {pair: column} that
    holds every canonical pair of the degree with both indices in [-n, n]:
    a pair basis's _index, or the pairs keyed by themselves.

    For the triples (F_i, G_j, H_k) with i + j + k = total, the term
    [F_i, G_j] psi(., H_k) has output index total - k, so its column and
    skew sign depend on k alone; [G_j, H_k] psi(., F_i) depends on i alone
    and [H_k, F_i] psi(., G_j) on j alone.  The terms come in the cyclic
    order _jacobi_residuals expands too, algebra._CYCLIC: the term of
    positions (p, q, r) is [x_p, x_q] psi(., x_r).  Each term whose family
    pair brackets to something is held in rules as (coefficient terms,
    output family, paired family, w, u, v) = (..., r, p, q), and in terms
    as (coefficient terms, table, w, u, v): table[idx[w] + n] is
    (column, sign), None where the output is the paired element
    (psi(e, e) = 0 adds nothing) or _OUT, for the index at position w of
    idx = (i, j, k), and the bracket coefficient is evaluated at idx[u],
    idx[v].  The entry is _OUT exactly when idx[w] is not in inside, the
    indices whose output index total - idx[w] lies in [-n, n]: the one edge
    rule, which terms and admissible() both read, the second with rules
    alone, so that an identity verify_cocycle does not walk builds no
    tables.  bound is at least the sum of |coefficient| over the terms at
    any triple of window indices; only _packed reads it.  The tables and
    bound are built at their first use.  Every identity is built by
    _identities at its radius n: _Plan.cocycles builds them per window
    solved, over the plan's pair basis, assemble_constraints over the
    window's, and verify_cocycle over the window's pairs keyed by
    themselves.
    """

    def __init__(self, alg: BoundAlgebra, n: int, column: Mapping, families, total: int):
        self.families, self.total, self.n, self.column = families, total, n, column
        # the indices whose term output total - index stays in [-n, n]
        self.inside = range(total - n, total + n + 1)
        # the pinned indices: -1, and 0 too when no family has weight 0
        self.pins = (-1,) if any(not alg.offsets[p] for p in families) else (-1, 0)
        self.rules = [
            (rule[1], rule[0], families[r], r, p, q)
            for p, q, r in _CYCLIC
            if (rule := alg._rules[families[p]][families[q]]) is not None
        ]

    @cached_property
    def bound(self) -> int:
        # |k * i**e * j**f| <= |k| * n**(e + f) for indices i, j in [-n, n]
        return sum(abs(k) * self.n ** (e + f) for coefficient, *_ in self.rules for k, e, f in coefficient)

    @cached_property
    def terms(self) -> list:
        n, total, column, terms = self.n, self.total, self.column, []
        low, high = self.inside[0], self.inside[-1]
        for coefficient, out, r, w, u, v in self.rules:
            table = []
            for index in range(-n, n + 1):
                output, paired = (out, total - index), (r, index)
                if output == paired:
                    table.append(None)
                elif not low <= index <= high:
                    table.append(_OUT)
                elif output < paired:
                    table.append((column[(output, paired)], 1))
                else:
                    table.append((column[(paired, output)], -1))
            terms.append((coefficient, table, w, u, v))
        return terms

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
        index total - idx[w] leaves the window and whose coefficient there
        is nonzero.  Those meet the edge indices, the window's indices not
        in inside, the edge rule the tables read too; this reads it with
        rules alone, so that the family triples verify_cocycle does not
        walk build no tables.

        The window triples are counted in closed form, with no walk over i:
        as many as indices() yields.  With d = |total| (negating every index
        maps total to -total), the (i, j, k) in [-n, n]^3 with i + j + k = d
        are the solutions in u = n - i, v = n - j, w = n - k in [0, 2n] of
        u + v + w = 3n - d: C(3n - d + 2, 2) - 3 C(n - d + 1, 2), with
        C(x, 2) = 0 for x < 2, by inclusion-exclusion over those with one of
        u, v, w above 2n (two would need a sum above 4n).  Of them, `two`
        are x, x, d - 2x, and three, 1 when 3 divides d and else 0, are
        x, x, x.  The indices increase within one family, so F, F, G and
        F, G, G keep (all - two) / 2 of them, and F, F, F keeps
        (all - 3 two + 2 three) / 6.  Beyond d = 3n all three terms are 0,
        and three is at most 1, so the count is 0 there too."""
        n, total, inside = self.n, self.total, self.inside
        d = abs(total)
        count = math.comb(max(0, 3 * n - d + 2), 2) - 3 * math.comb(max(0, n - d + 1), 2)
        two = max(0, min(n, (d + n) // 2) + (n - d) // 2 + 1)
        # F, F, F has one distinct family, F, F, G and F, G, G two
        distinct = len(set(self.families))
        if distinct == 1:
            count = (count - 3 * two + 2 * (d % 3 == 0)) // 6
        elif distinct == 2:
            count = (count - two) // 2
        for i, j in self.meeting([v for v in range(-n, n + 1) if v not in inside]):
            idx = (i, j, total - i - j)
            for coefficient, _, _, w, u, v in self.rules:
                if idx[w] not in inside and _evaluate(coefficient, idx[u], idx[v]):
                    count -= 1
                    break
        return count

    def meeting(self, values) -> set:
        """The set of (i, j) of the window triples (i, j, total - i - j)
        with an index in `values`.  With one index fixed at v, the other two
        sum to total - v, and each position of v leaves one range of the
        free index, so there are O(n) of them per value."""
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
        return found

    def boundary(self, alg: BoundAlgebra, failing: Mapping) -> set | None:
        """The (i, j) of the triples a first window's check walks, as a
        meeting() set: a superset of those that d^2 = 0 does not certify
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
            walked.update((i, i + 1) for i in range(-n, n) if i + 1 in self._js(i))
        return walked

    def indices(self):
        """idx = (i, j, k) of the canonically ordered window triples of
        these families (a <= b <= c), in (i, j) lexicographic order."""
        total = self.total
        for i in range(-self.n, self.n + 1):
            for j in self._js(i):
                yield i, j, total - i - j

    def pinned(self) -> list:
        """The triples of indices() with an index in pins, in no particular
        order: the rows the certified solve eliminates (see _Plan.cocycles).
        The row space they span, and so the null vectors, do not depend on
        the order."""
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
            if entry is None:
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
        replaced by sign * entries[column], or by None where that is 0, and
        None and _OUT kept; reached says whether any entry is nonzero."""
        terms, reached = [], False
        for coefficient, table, w, u, v in self.terms:
            values = []
            for entry in table:
                if entry is None or entry is _OUT:
                    values.append(entry)
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
        """(checked, failed): the dot products of the window's triples, in
        (i, j) order, or of those of `meeting` (a meeting() set, in its
        iteration order) when it is given, with the entries `terms` was
        valued by, up to the first that is nonzero.  checked counts the
        admissible triples walked, and failed is (idx, dot) of that first
        one, or None.  A coefficient is
        evaluated only where an entry is nonzero or _OUT, and an _OUT entry
        with a nonzero coefficient makes the triple inadmissible: exactly as
        row() decides it, since None entries add nothing to the dot."""
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


def _identities(alg: BoundAlgebra, n: int, degree: Fraction, column: Mapping) -> list:
    """The compiled identity of every family triple a <= b <= c that _totals
    gives at this degree, in its order; with their indices() in turn they
    run through all of the degree's window triples."""
    return [_Identity(alg, n, column, families, total) for families, total in _totals(alg, degree, 3)]


def assemble_constraints(
    spec: AlgebraSpec, params: Mapping, window: Window, degree, pairs: PairBasis | None = None
) -> SparseMatrix:
    """Constraint matrix with one row per admissible nonvacuous triple."""
    alg = _bind(spec, params)
    degree = _degree(degree)
    pairs = _pair_basis(alg, window, degree, pairs)
    denominator = alg.denominator
    rows = []
    for identity in _identities(alg, window.n, degree, pairs._index):
        for idx in identity.indices():
            row = identity.row(idx)
            if row:
                rows.append({col: Fraction(value, denominator) for col, value in row.items()})
    return SparseMatrix.from_rows(rows, len(pairs))


class _Plan:
    """The windows [-n, n] of one degree up to `window`, built once at it:
    its pair basis and each pair's bracket.  Window n's columns are the
    plan's columns whose pair has both indices in [-n, n]; both numberings
    sort the pair keys, so the map from window n's own columns to these is
    increasing, and every row, pivot and null vector of window n is the same
    one here.  Window n builds its identities with _identities(alg, n,
    degree, pairs._index), over the plan's pair basis (cocycles); its
    coboundary generators and core columns are filtered from the plan's.

    The plan also owns the certified solve of its windows (cocycles, and
    its check): the echelon of the rows it has eliminated, and the window
    that echelon was solved on.  Each window it solves must grow the one
    before."""

    def __init__(self, alg: BoundAlgebra, window: Window, degree: Fraction, pairs: PairBasis | None = None):
        self.alg, self.window, self.degree = alg, window, degree
        self.pairs = _pair_basis(alg, window, degree, pairs)
        self.ech, self.solved = _Echelon(), None

    @cached_property
    def failing(self) -> dict:
        """The family triples where the Jacobi identity fails at the bound
        parameters, with their residuals (algebra._jacobi_residuals)."""
        return _jacobi_residuals(self.alg._rules)

    @cached_property
    def images(self) -> dict:
        """_images of the plan's pairs, on its columns."""
        return _images(self.alg, self.degree, self.window.n, self.pairs._index)

    def cocycles(self, n: int) -> list:
        """The certified solve of the module docstring on window n: the
        primitive {column: int} null vectors of every admissible row, over
        the plan's columns, with the rows it eliminates added to the plan's
        echelon.  It builds the identities of _identities at radius n and
        solves over those whose family pairs bracket to something: the
        others give no row.  It eliminates the pinned rows, then hands the
        identities, with the strip or None, to check, which walks and
        refines.  n must exceed the window solved before, if any,
        and then only the triples that meet the strip of indices between
        the two windows (see _Identity.touching) have their rows added or
        checked: every other admissible row is one of the smaller window's,
        in the span of the echelon."""
        previous = self.solved
        if previous is not None and n <= previous:
            raise ValueError(f"window {n} does not grow the solved window {previous}")
        identities = [identity for identity in _identities(self.alg, n, self.degree, self.pairs._index) if identity.rules]
        strip = None if previous is None else [i for i in range(-n, n + 1) if abs(i) > previous]
        for identity in identities:
            pinned = identity.pinned()
            if strip is not None:
                touching = identity.touching(strip)
                pinned = [idx for idx in pinned if not touching.isdisjoint(idx)]
            for idx in pinned:
                row = identity.row(idx)
                if row:
                    self.ech.add(row)
        vectors = self.check(identities, n, strip)
        self.solved = n
        return vectors

    def check(self, identities: list, n: int, strip) -> list:
        """Check the admissible rows of window n's identities against the
        null vectors of the plan's echelon over the window's columns, by
        exact integer dot products against all of them at once (_packed),
        refine as it goes, and return the final null vectors.  When a row
        fails, it is added to the echelon, the null vectors are recomputed
        and its family triple is walked again from the start.  That is
        exact: the nullspace only shrinks, so the triples passed before
        still pass and the added row now does too, and each added row
        raises the rank by one.  So the order of the walk decides which
        failing rows are added, but neither how many nor the final null
        vectors.  A first window (strip None) walks each identity's
        boundary, whose rows certify every other row by d^2 = 0 (module
        docstring); a grown window walks the triples that meet the strip.
        An identity with no table column where a null vector is nonzero is
        skipped: its dot products are 0."""
        columns = self.pairs._columns(n)
        vectors = _null_vectors(self.ech.pivots, columns)
        packed = _packed(vectors, identities)[0]
        for identity in identities:
            terms, reached = identity.valued(packed)
            if reached:
                meeting = identity.meeting(identity.touching(strip)) if strip else identity.boundary(self.alg, self.failing)
            while reached and (failed := identity.walk(terms, meeting)[1]) is not None:
                self.ech.add(identity.row(failed[0]))
                vectors = _null_vectors(self.ech.pivots, columns)
                packed = _packed(vectors, identities)[0]
                terms, reached = identity.valued(packed)
        return vectors

    def coboundaries(self, n: int) -> list:
        """The kept generators of coboundary_space on window n, as {column:
        numerator over alg.denominator}, in the order of their z: each one
        that is nonzero on the window's columns.  Those are independent, as
        the generators of distinct z have disjoint supports (_images)."""
        within = set(self.pairs._columns(n))
        return [
            generator
            for (_, index), image in self.images.items()
            if abs(index) <= n and (generator := _restrict(image, within))
        ]

    def core_dims(self, window: Window) -> tuple:
        """(null vectors, kept coboundary generators, core echelon of the
        coboundaries, core columns, core H^2 dimension) of the plan's
        window, solved by cocycles."""
        vectors = self.cocycles(window.n)
        bounds = self.coboundaries(window.n)
        core = set(self.pairs._columns(window.core_bound()))
        core_bounds = _core_echelon(bounds, core)
        return vectors, bounds, core_bounds, core, _core_echelon(vectors, core).rank - core_bounds.rank


def _images(alg: BoundAlgebra, degree: Fraction, n: int, column: Mapping) -> dict:
    """{element key of z: {column[pair]: numerator over alg.denominator}}:
    for each element z of weight == degree with index in [-n, n], in family
    order, the columns of the pairs {pair: column} that bracket to a
    multiple of z.  BoundAlgebra.int_bracket gives each pair one output
    element, so the generators of distinct z have disjoint supports, and the
    nonzero ones are independent."""
    slots = {(pos, index): {} for (pos,), index in _totals(alg, degree, 1) if abs(index) <= n}
    for (x, y), col in column.items():
        term = alg.int_bracket(x, y)
        if term and term[1] in slots:
            slots[term[1]][col] = term[0]
    return slots


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


def coboundary_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    """Span of the functional generators: for each window element z of
    weight == degree, the form (x, y) -> f([x, y]) with f dual to z.  At a
    fixed degree each family contributes at most one such z.  Each nonzero
    generator is kept: each pair brackets to one element, so the generators
    of distinct z have disjoint supports and are independent."""
    alg = _bind(spec, params)
    plan = _Plan(alg, window, _degree(degree), pairs)
    return _fraction_basis(len(plan.pairs), plan.coboundaries(window.n), alg.denominator)


# cocycle values as data


class CocycleAssignment(_Frozen):
    """A finitely supported skew form on window pairs.

    Values are stored on canonically ordered pairs only; value(x, y)
    resolves either orientation with the sign.  JSON form maps
    "FAM:index,FAM:index" keys to "p/q" strings.

    psi is converted once: it is held as the integer ratios {(key of x, key
    of y): (numerator, denominator)} that verify_cocycle and is_coboundary
    read, and values, their {(x, y): Fraction} form, is built at its first
    read.  _ratios, from KnownCocycle._instantiate, are a declared class's
    canonical ratios, taken as they are.  An assignment is immutable, so
    values never goes stale.
    """

    def __init__(self, spec: AlgebraSpec, window: Window, values: Mapping, _ratios=None):
        ratios = _ratios or {}
        self.__dict__.update(spec=spec, window=window, _ratios=ratios)
        key = spec.element_key
        for (x, y), value in values.items():
            value = as_rational(value, "cocycle value")
            pair = key(x), key(y)
            if not (window.contains(x.index) and window.contains(y.index)):
                raise ValueError(f"pair ({x}, {y}) is outside the window")
            if x == y:
                if value:
                    raise ValueError(f"nonzero value on the diagonal pair ({x}, {x})")
                continue
            if pair[0] > pair[1]:
                x, y, pair, value = y, x, pair[::-1], -value
            if pair in ratios:
                raise ValueError(f"pair ({x}, {y}) assigned twice")
            if value:
                ratios[pair] = value.numerator, value.denominator

    @cached_property
    def values(self) -> dict:
        return {
            tuple(BasisElement(self.spec.families[f], i) for f, i in pair): Fraction(*ratio)
            for pair, ratio in self._ratios.items()
        }

    def __repr__(self):
        return f"CocycleAssignment(spec={self.spec!r}, window={self.window!r}, values={self.values!r})"

    def __eq__(self, other):
        if not isinstance(other, CocycleAssignment):
            return NotImplemented
        return (self.spec, self.window, self.values) == (other.spec, other.window, other.values)

    def _grouped(self, alg: BoundAlgebra) -> dict:
        """{degree: ratios} of psi at the binding's weight offsets, keyed by
        family position in the binding: _by_degree's of psi's ratios, or, on
        an algebra with other families, of psi's values re-keyed by family
        name."""
        if alg.families != self.spec.families:
            return CocycleAssignment(alg.spec, self.window, self.values)._grouped(alg)
        return _by_degree(alg.offsets, self._ratios)

    def support(self) -> list:
        # values is built from _ratios, in its order; the element keys sort
        return [pair for _, pair in sorted(zip(self._ratios, self.values))]

    def value(self, x: BasisElement, y: BasisElement) -> Fraction:
        # a stored pair's value is nonzero
        return self.values.get((x, y)) or -self.values.get((y, x), Fraction())

    def to_json_dict(self) -> dict:
        return {
            f"{x.family}:{x.index},{y.family}:{y.index}": format_rational(self.values[(x, y)]) for x, y in self.support()
        }

    @classmethod
    def from_json_dict(cls, spec: AlgebraSpec, window: Window, data: Mapping) -> "CocycleAssignment":
        # a pair key always contains ":", so a "values" key marks a wrapper
        if isinstance(data, Mapping) and "values" in data:
            data = data["values"]
        if not isinstance(data, Mapping):
            raise ValueError("cocycle assignment must be a JSON object of 'FAM:i,FAM:j' keys")
        return cls(spec, window, {_parse_pair_key(key): parse_rational(str(text)) for key, text in data.items()})


def _by_degree(offsets: tuple, ratios: Mapping) -> dict:
    """{degree: ratios} of canonical cocycle values {(key of x, key of y):
    (numerator, denominator)}, the form _on_columns takes, with each
    family's weight offset taken by position from `offsets`, in the order of
    the ratios.  The degree offsets[a] + offsets[b] + i + j is worked out
    once per family pair (a, b) and index total i + j, so a declared class,
    whose lines each have one, costs one sum per line, not one per pair."""
    groups, lines = {}, {}
    for (x, y), ratio in ratios.items():
        line = x[0], y[0], x[1] + y[1]
        if line not in lines:
            lines[line] = groups.setdefault(offsets[x[0]] + offsets[y[0]] + line[2], {})
        lines[line][x, y] = ratio
    return groups


def _on_columns(ratios: Mapping, column: Mapping) -> tuple:
    """(vector, scale): canonical cocycle values {(key of x, key of y):
    (numerator, denominator)} as {column[pair]: int} over their common
    denominator scale, for the columns {pair: column} of a pair basis.  A
    pair with no column is left out: at the basis's degree, a pair outside
    its window is in no admissible triple's row."""
    scale = math.lcm(1, *(den for _, den in ratios.values()))
    return {column[pair]: num * (scale // den) for pair, (num, den) in ratios.items() if pair in column}, scale


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


class KnownCocycle(_Value):
    """A closed-form cocycle class given by one or more CocycleLines, as a
    .lie file's cocycle block declares it.

    Most classes live on a single line; classes whose defining relations
    couple several pair sectors (svir's lm-yy-cubic couples L-M to Y-Y)
    carry one line per sector.  Applicability requires every line's offset
    to be an integer, so the support hits integer indices, and every
    denominator to have no integer root.  The lines of an applicable class
    must agree on its degree.
    """

    def __init__(self, name: str, lines: tuple):
        if not lines:
            raise ValueError("a known cocycle needs at least one line")
        self.__dict__.update(name=name, lines=tuple(lines))

    def applicability(self, spec: AlgebraSpec, params: ParamMap) -> str | None:
        """None when this cocycle makes sense on the algebra, else the
        violated condition, e.g. "requires 3*mu integer"."""
        return self._check(_bind(spec, params))[0]

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
        return self._instantiate(_bind(spec, params), window)

    def _instantiate(self, alg: BoundAlgebra, window: Window) -> CocycleAssignment:
        """The class at the binding on the window: the CocycleAssignment of
        its canonical values as _ratios gives them, which _check has found
        to be of one degree.  An inapplicable class is refused with the
        violated condition."""
        reason, _, lines = self._check(alg)
        if reason is not None:
            raise ValueError(f"cocycle {self.name!r} not applicable: {reason}")
        return CocycleAssignment(alg.spec, window, {}, self._ratios(window, lines))

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


# verification


class VerifyReport(_Record):
    """verify_cocycle's answer: whether every admissible triple passed, how
    many were checked, the first that failed as (x, y, z, residual) or
    None, and the CocycleAssignment checked."""

    def __init__(self, passed, triples_checked, witness, assignment):
        self.passed = passed
        self.triples_checked = triples_checked
        self.witness = witness
        self.assignment = assignment


def verify_cocycle(spec, params, window, cocycle) -> VerifyReport:
    """Check every admissible window triple against the cocycle identity,
    degree by degree, and count them.

    Each degree's identities are compiled against the window's pairs keyed
    by themselves, as is_coboundary keys its columns: nothing is eliminated,
    so no pair basis is built, and psi's pairs outside the window are left
    out (_on_columns).  Only the family triples with a term whose columns
    lie in a sector where psi is nonzero are compiled and walked, in (i, j)
    order up to the first failing triple, the witness.  Every other family
    triple's residuals are 0: its admissible triples are counted
    (_Identity.admissible) and pass.
    Accepts a KnownCocycle (instantiated here; inapplicable parameter
    values raise with the violated condition) or a CocycleAssignment.
    """
    alg = _bind(spec, params)
    psi = cocycle._instantiate(alg, window) if isinstance(cocycle, KnownCocycle) else cocycle
    if not isinstance(psi, CocycleAssignment):
        raise TypeError("expected a KnownCocycle or CocycleAssignment")
    checked = 0
    for degree, ratios in sorted(psi._grouped(alg).items()):
        column = {pair: pair for pair in _pair_keys(alg, degree, window.n)}
        vector, scale = _on_columns(ratios, column)
        sectors = {(x[0], y[0]) for x, y in ratios}
        for identity in _identities(alg, window.n, degree, column):
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
    first), and so is support outside the window.

    The core projection of the coboundary space is spanned by the generator
    of each window element z of weight == degree (coboundary_space), each
    restricted to the core pairs.  So only the core pairs and their brackets
    are built, with the pair keys themselves as the echelon's columns, as
    verify_cocycle keys its identities' columns.  psi is grouped by degree
    as verify_cocycle groups it (CocycleAssignment._grouped)."""
    alg = _bind(spec, params)
    groups = psi._grouped(alg)
    if len(groups) > 1:
        raise ValueError("assignment mixes degrees")
    if not groups:
        return True
    [(degree, ratios)] = groups.items()
    for x, y in ratios:
        if max(abs(x[1]), abs(y[1])) > window.n:
            raise ValueError(f"assignment has support on {alg.element(x)}, {alg.element(y)} outside the pair basis")
    core = {pair: pair for pair in _pair_keys(alg, degree, window.core_bound())}
    return _Echelon(_images(alg, degree, window.n, core).values()).contains(_on_columns(ratios, core)[0])


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


class MatchResult(_Record):
    def __init__(self, name: str, matched: bool):
        self.name = name
        self.matched = matched


class H2Report(_Record):
    """h2's answer at one point: the algebra's name, the bound params, the
    first window, the degree and the dimensions at that window
    (cocycle_dim, coboundary_dim, h2_dim, core_h2_dim); whether the core
    dimension stabilized, and core_history, [(n, core dim)] for each
    window; matched_known, [MatchResult]; grading, why the grading is not
    inner (_grading_failure), and jacobi, where the Jacobi identity fails
    (_jacobi_failure), each None when it does not apply.  The two lists
    are fresh for each report unless given."""

    def __init__(
        self, algebra, params, window, degree, cocycle_dim, coboundary_dim, h2_dim, core_h2_dim, stabilized,
        core_history=None, matched_known=None, grading=None, jacobi=None,
    ):
        self.algebra = algebra
        self.params = params
        self.window = window
        self.degree = degree
        self.cocycle_dim = cocycle_dim
        self.coboundary_dim = coboundary_dim
        self.h2_dim = h2_dim
        self.core_h2_dim = core_h2_dim
        self.stabilized = stabilized
        self.core_history = [] if core_history is None else core_history
        self.matched_known = [] if matched_known is None else matched_known
        self.grading = grading
        self.jacobi = jacobi


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
            vector = _on_columns(ratios, pairs._index)[0]
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
    for (a, b), total in _totals(alg, degree, 2):
        if abs(total) > 2 * core - (a == b):
            radius = (abs(total) + (a == b) + 1) // 2
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

