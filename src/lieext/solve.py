"""The certified solve: the windowed cocycles and coboundaries of one degree.

A 2-cocycle on a Lie algebra is a skew bilinear form psi with

    psi([x,y], z) + psi([y,z], x) + psi([z,x], y) = 0,

and psi is a coboundary when psi(x,y) = f([x,y]) for a linear functional f.
For the algebras here everything decomposes by weight: a degree-d form is
supported on pairs whose weights sum to d.  This module finds both spaces
at one degree; lieext.engine takes their quotient and reports it.

The infinite index range is handled by truncation to a window [-N, N].
Unknowns are the values on canonically ordered pairs of window elements at
one degree; each Jacobi triple whose bracket outputs stay inside the window
contributes one exact linear constraint (triples whose nonzero outputs
escape are skipped: their identity involves unknowns we do not carry).
Truncation adds junk supported near the window edge, so dimensions are
projected onto core pairs (all indices within N - margin), and h2 repeats
the computation on grown windows.

The cocycles are found by a certified subset solve.  Only the pinned rows
are eliminated, in integers (_Identity.pins; _Plan.cocycles runs the
solve).  When a family L of weight 0 maps each family of the triple into
itself, they are the rows of the triples whose index -1 falls on a family
of weight 0: the recursion in L_-1 of the classical computation of
Virasoro cocycles (Kac and Raina 1987, lecture 1), and none when the
triple has no family of weight 0.  Otherwise they are those of the triples
with an index -1, or, when none of the triple's families has weight 0 at
the bound parameters, an index -1 or 0.  The rule reads weights, never
names.  Fixing an index leaves one free, so there are O(n) pinned triples
per family triple.  The L_-1 recursion has almost one independent row per
column: at svir (-3, 1), n = 40, its 346 rows reach rank 346 of 349, where
the rows with an index -1 anywhere were 1022, 673 of them reducing to zero.
A triple with neither L nor a family of weight 0 has no such recursion,
and there the rows with an index 0 are needed too: without them, at
n = 40, the check has to add 39 of the rank 302 of an algebra with
families of weights 1, 2 and 3.

The admissible rows are then checked against the primitive integer null
vectors of the echelon by exact integer dot products, and the check refines
as it goes (_Plan.check).  A row that fails is added to the echelon, and
the null vectors are refined in place, with no back-substitution
(sparse._refined): with D_s the row's dot product with vector s, the first
vector t with D_t != 0 is dropped, its free column becoming the new pivot,
and each other v_s with D_s != 0 becomes the primitive form of
D_t * v_s - D_s * v_t, which is the reduced basis a back-substitution
gives.  The walk goes on after the failing triple.  That is exact: the
nullspace only shrinks, so the triples passed before still pass and the
added row now does too.  Each added row raises the rank by one, so the
check adds exactly the pinned rows' rank deficit, in whatever order it
walks the triples: at most 8 in a window at n = 12 on the svir grid, and 3
at n = 40 at (-3, 1) and (1, 1/2).

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
(_Plan): one pair basis, one bracket pass for the coboundaries, and one
compiled identity of each family triple whose pairs bracket to something
(_Plan.identities), its tables built once, at that radius.  Which
family pairs, triples and single families exist at a degree is one rule,
_totals: those whose index total, the degree less their weight offsets, is
an integer, found by integer division over the offsets' common denominator.
Each window n is a view on the plan.  Its columns are the plan's columns
whose pair has both indices in [-n, n]; both numberings sort the same pair
keys, so the map from window n's own columns into the plan's is
increasing, every row keeps its leading column, and pivots, ranks and
reduced null vectors correspond one to one.  It reads the plan's identities
through its own edge (_Identity.within): an entry counts as "the output
leaves the window" wherever its index is not in range(total - n,
total + n + 1), whatever the plan's table holds there, and nothing is
copied or sliced per window.  Its coboundary generators and core columns
are filtered from the plan's.  The plan holds
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
per plan or per call, into its coefficient terms and three per-index tables
whose entries are a (column, sign), None where the output is the paired
element (no contribution), or "the output leaves the window" (the triple
is dropped if the coefficient there is nonzero).  Assembly, the subset
solve, the check and verify_cocycle's walks all read these tables, which
are built at their first use.  The check and verify_cocycle replace
each table's columns by vector entries and walk the triples in one loop
(_Identity.walk).  verify_cocycle uses psi's values.
The check packs the entries of all d null vectors at a column into one
integer, in slots of w bits, and sums one packed dot product per triple.
w is set by a bound on the bracket coefficients over the window, so that
no slot's dot product can reach the next slot: the packed sum is zero
exactly when all d dot products are (sparse._packed has the proof).  A term
whose entry is zero is skipped without evaluating its coefficient, while a
term whose output leaves the window is always evaluated, so admissibility
is still decided exactly.

Degrees, coefficients, and dimensions are exact rationals end to end.  Each
public call binds its parameters once (a BoundAlgebra), and every bracket
expansion here goes through that binding's integer kernel: a row is summed
in integers over the algebra's one common bracket denominator, and each
nonzero entry becomes a Fraction once, at the end of the row.

After the solve every vector stays a {column: int} row: the primitive null
vectors and the kept coboundary generators as numerators over the
algebra's denominator (each nonzero one: a pair brackets to one element, so
the generators of distinct elements have disjoint supports and are
independent).  Sorted integer columns (a PairBasis) exist only where an
echelon is reduced at scale, in a plan, and at the public Fraction
boundary.  A core dimension is the rank of such rows restricted to the
core columns, which keep their indices (echelon order is column order, so
nothing is renumbered); _Plan.core_dims builds each window's core echelons
once.  Fractions appear only at the public boundary: cocycle_space and
coboundary_space return a VectorBasis.

Nothing here knows an algebra by its name or loads a preset: every rule
reads the spec it is given.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, repeat
from typing import Mapping

from .algebra import AlgebraSpec, BoundAlgebra, _CYCLIC, _evaluate, _jacobi_residuals, _Value
from .rational import as_rational, format_rational
from .sparse import SparseMatrix, VectorBasis, _Echelon, _fraction_basis, _null_vectors, _packed, _refined


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
    """The cocycle identity of one family triple at one index total,
    compiled at a radius R, radius, against one column map {pair: column}
    that holds every canonical pair of the degree with both indices in
    [-R, R]: a pair basis's _index, or the pairs keyed by themselves.  It
    is read on a window [-n, n], n <= R, set by within(n): n = R at first.

    For the triples (F_i, G_j, H_k) with i + j + k = total, the term
    [F_i, G_j] psi(., H_k) has output index total - k, so its column and
    skew sign depend on k alone; [G_j, H_k] psi(., F_i) depends on i alone
    and [H_k, F_i] psi(., G_j) on j alone.  The terms come in the cyclic
    order _jacobi_residuals expands too, algebra._CYCLIC: the term of
    positions (p, q, r) is [x_p, x_q] psi(., x_r).  Each term whose family
    pair brackets to something is held in rules as (coefficient terms,
    output family, paired family, w, u, v) = (..., r, p, q), and in terms
    as (coefficient terms, table, w, u, v): table[idx[w] + R] is
    (column, sign), None where the output is the paired element
    (psi(e, e) = 0 adds nothing) or _OUT where the output index
    total - idx[w] leaves [-R, R], for the index at position w of
    idx = (i, j, k), and the bracket coefficient is evaluated at idx[u],
    idx[v].  The window's edge is one rule, inside, the indices whose
    output index total - idx[w] lies in [-n, n]: an index not in it has its
    output outside the window, whatever the table holds there.  row() and
    valued() read it with the tables, and admissible() with rules alone, so
    that an identity verify_cocycle does not walk builds no tables.  bound is at least the sum of |coefficient|
    over the terms at any triple of indices in [-R, R]; only _packed reads
    it.  The tables and bound are built once, at their first use.  Every
    identity is built by _identities: _Plan.identities builds them once, at
    the plan's window over its pair basis, for the solve and for
    assemble_constraints, and verify_cocycle over the window's pairs keyed
    by themselves.
    """

    def __init__(self, alg: BoundAlgebra, n: int, column: Mapping, families, total: int):
        self.alg, self.families, self.total, self.radius, self.column = alg, families, total, n, column
        self.within(n)
        self.rules = [
            (rule[1], rule[0], families[r], r, p, q)
            for p, q, r in _CYCLIC
            if (rule := alg._rules[families[p]][families[q]]) is not None
        ]

    def within(self, n: int) -> None:
        """Walk, count and read rows on the window [-n, n], n at most the
        radius the tables are built at; they are kept as they are."""
        self.n = n
        # the indices whose term output total - index stays in [-n, n]
        self.inside = range(self.total - n, self.total + n + 1)

    @cached_property
    def acting(self) -> list:
        """The families L of weight 0 with [L_m, X_n] a multiple of
        X_(m + n) for each family X here."""
        rules = self.alg._rules
        return [
            p
            for p, offset in enumerate(self.alg.offsets)
            if not offset and all((rule := rules[p][f]) is not None and rule[0] == f for f in self.families)
        ]

    @cached_property
    def pins(self) -> tuple:
        """(values, positions) of the triples the solve eliminates up front,
        as meeting() takes them: with a family in acting, the index -1 at
        the positions of the families of weight 0, none when there are none;
        otherwise an index -1, or -1 or 0 when no family has weight 0, at
        any position."""
        zero = tuple(w for w in range(3) if not self.alg.offsets[self.families[w]])
        return ((-1,), zero) if self.acting else ((-1,) if zero else (-1, 0), range(3))

    @cached_property
    def bound(self) -> int:
        # |k * i**e * j**f| <= |k| * radius**(e + f) for |i|, |j| <= radius
        return sum(abs(k) * self.radius ** (e + f) for coefficient, *_ in self.rules for k, e, f in coefficient)

    @cached_property
    def terms(self) -> list:
        radius, total, column, terms = self.radius, self.total, self.column, []
        # the indices whose output total - index lies in [-radius, radius]
        low, high = total - radius, total + radius
        for coefficient, out, r, w, u, v in self.rules:
            table = []
            for index in range(-radius, radius + 1):
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

    def meeting(self, values, positions=range(3)) -> set:
        """The set of (i, j) of the window triples idx = (i, j, total - i - j)
        with idx[w] in `values` for a w in `positions`.  With one index
        fixed at v, the other two sum to total - v, and each position of v
        leaves one range of the free index, so there are O(n) of them per
        value."""
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
            if 0 in positions:
                found.update(zip(repeat(v), self._js(v)))
            # j = v, k = rest - i: i < j within one family, j < k within one
            if 1 in positions:
                top = min(high, v - 1 if a == b else n, rest - v - 1 if b == c else n)
                found.update(zip(range(low, top + 1), repeat(v)))
            # k = v, j = rest - i: the same two orders
            if 2 in positions:
                top = min(high, (rest - 1) // 2 if a == b else n)
                bottom = max(low, rest - v + 1 if b == c else -n)
                found.update(zip(range(bottom, top + 1), range(rest - bottom, rest - top - 1, -1)))
        return found

    def boundary(self, failing: Mapping) -> set | None:
        """The (i, j) of the triples a first window's check walks, as a
        meeting() set: a superset of those that d^2 = 0 does not certify
        from the others (module docstring), and the triples with an index
        -1.  None, for all of them, unless for some family L of acting the
        Jacobi identity holds on these families and on L with each two of
        them: none of those family triples is in failing, the plan's failing
        set.

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
        for acting in self.acting:
            if families not in failing and all(
                tuple(sorted((acting, f, g))) not in failing for f, g in combinations(families, 2)
            ):
                break
        else:
            return None
        rules = [self.alg._rules[acting][f] for f in families]
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
        """The triples of indices() with an index in pins at one of its
        positions, in no particular order: the rows the certified solve
        eliminates (see _Plan.cocycles).
        The row space they span, and so the null vectors, do not depend on
        the order."""
        total = self.total
        return [(i, j, total - i - j) for i, j in self.meeting(*self.pins)]

    def touching(self, strip) -> set:
        """The indices whose triples meet the strip: those with an index in
        it, or with a term whose output index total - idx[w] is in it."""
        return {x for s in strip for x in (s, self.total - s)}

    def row(self, idx):
        """The constraint row of one triple as {column: numerator over
        alg.denominator}, or None when a nonzero bracket output leaves the
        window (the constraint would involve unknowns outside the
        truncation and is dropped)."""
        radius, low, high = self.radius, self.inside.start, self.inside.stop
        row: dict = {}
        for coefficient, table, w, u, v in self.terms:
            entry = table[idx[w] + radius]
            if entry is None:
                continue
            value = _evaluate(coefficient, idx[u], idx[v])
            if not value:
                continue
            if entry is _OUT or not low <= idx[w] < high:
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
        n, radius = self.n, self.radius
        # the window's indices in inside, where the table is read; at the
        # others the output leaves the window
        low, high = max(-n, self.inside.start), min(n, self.inside.stop - 1)
        terms, reached = [], False
        for coefficient, table, w, u, v in self.terms:
            values = [_OUT] * (low + n)
            for entry in table[low + radius : high + radius + 1]:
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
            values += [_OUT] * (n - high)
            terms.append((coefficient, values, w, u, v))
        return terms, reached

    def walk(self, terms: list, meeting=None, refine=None) -> tuple:
        """(checked, failed): the dot products of the window's triples, in
        (i, j) order, or of the (i, j) of `meeting`, in its order, when it is
        given, with the entries `terms` was valued by, up to the first that
        is nonzero.  checked counts the admissible triples walked, and failed
        is (idx, dot) of that first one, or None.  With refine, each such
        idx is handed to refine(idx) instead, and the walk goes on with the
        terms it returns, or stops there when it returns None.  A
        coefficient is evaluated only where an entry is nonzero or _OUT, and
        an _OUT entry with a nonzero coefficient makes the triple
        inadmissible: exactly as row() decides it, since None entries add
        nothing to the dot."""
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
                    if dot and (refine is None or (terms := refine(idx)) is None):
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
    """Constraint matrix with one row per admissible nonvacuous triple, from
    the identities of a plan at the window."""
    plan = _Plan(_bind(spec, params), window, _degree(degree), pairs)
    denominator = plan.alg.denominator
    rows = []
    for identity in plan.identities:
        for idx in identity.indices():
            row = identity.row(idx)
            if row:
                rows.append({col: Fraction(value, denominator) for col, value in row.items()})
    return SparseMatrix.from_rows(rows, len(plan.pairs))


class _Plan:
    """The windows [-n, n] of one degree up to `window`, built once at it:
    its pair basis and each pair's bracket.  Window n's columns are the
    plan's columns whose pair has both indices in [-n, n]; both numberings
    sort the pair keys, so the map from window n's own columns to these is
    increasing, and every row, pivot and null vector of window n is the same
    one here.  The plan compiles the identity of each family triple once,
    at its window (identities), and window n reads it through its own edge
    (_Identity.within); its coboundary generators and core columns are
    filtered from the plan's.

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
    def identities(self) -> list:
        """The identities of _identities at the plan's window, over its
        pair basis, whose family pairs bracket to something: the others
        give no row.  Each window solved reads their tables through its own
        edge (_Identity.within)."""
        return [
            identity
            for identity in _identities(self.alg, self.window.n, self.degree, self.pairs._index)
            if identity.rules
        ]

    @cached_property
    def images(self) -> dict:
        """_images of the plan's pairs, on its columns."""
        return _images(self.alg, self.degree, self.window.n, self.pairs._index)

    def cocycles(self, n: int) -> list:
        """The certified solve of the module docstring on window n: the
        primitive {column: int} null vectors of every admissible row, over
        the plan's columns, with the rows it eliminates added to the plan's
        echelon.  It reads the plan's identities on window n, eliminates
        their pinned rows, then hands them, with the strip or None, to
        check, which walks and refines.  n must exceed the window solved
        before, if any, and then only the triples that meet the strip of
        indices between the two windows (see _Identity.touching) have their
        rows added or checked: every other admissible row is one of the
        smaller window's, in the span of the echelon."""
        previous = self.solved
        if previous is not None and n <= previous:
            raise ValueError(f"window {n} does not grow the solved window {previous}")
        identities = self.identities
        strip = None if previous is None else [i for i in range(-n, n + 1) if abs(i) > previous]
        for identity in identities:
            identity.within(n)
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
        exact integer dot products against all of them at once
        (sparse._packed, its slots sized by the largest _Identity.bound),
        refine as it goes, and return the final null vectors.  They are
        back-substituted once (_null_vectors).  When a row fails, refine
        adds it to the echelon and refines the null vectors in place
        (sparse._refined), and the walk goes on after the failing triple.
        That is exact: the nullspace only shrinks, so the triples passed
        before still pass and the added row now does too, and each added
        row raises the rank by one.  So the order of the walk decides which
        failing rows are added, but neither how many nor the final null
        vectors.  A first window (strip None) walks each identity's
        boundary, whose rows certify every other row by d^2 = 0 (module
        docstring), or every triple when it has none; a grown window walks
        the triples that meet the strip.  An identity with no table column
        where a null vector is nonzero is skipped, and so is the rest of
        its walk once a refinement leaves none: its dot products are 0."""
        vectors = _null_vectors(self.ech.pivots, self.pairs._columns(n))
        bound = max((identity.bound for identity in identities), default=1)
        packed = _packed(vectors, bound)[0]

        def refine(idx):
            nonlocal vectors, packed
            row = identity.row(idx)
            self.ech.add(row)
            vectors = _refined(vectors, row)
            packed = _packed(vectors, bound)[0]
            terms, reached = identity.valued(packed)
            return terms if reached else None

        for identity in identities:
            terms, reached = identity.valued(packed)
            if reached:
                meeting = identity.meeting(identity.touching(strip)) if strip else identity.boundary(self.failing)
                identity.walk(terms, meeting, refine)
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


def coboundary_space(spec, params, window, degree, pairs: PairBasis | None = None) -> VectorBasis:
    """Span of the functional generators: for each window element z of
    weight == degree, the form (x, y) -> f([x, y]) with f dual to z.  At a
    fixed degree each family contributes at most one such z.  Each nonzero
    generator is kept: each pair brackets to one element, so the generators
    of distinct z have disjoint supports and are independent."""
    alg = _bind(spec, params)
    plan = _Plan(alg, window, _degree(degree), pairs)
    return _fraction_basis(len(plan.pairs), plan.coboundaries(window.n), alg.denominator)


def _restrict(vector: dict, columns: set) -> dict:
    return {col: value for col, value in vector.items() if col in columns}


def _core_echelon(vectors, core: set) -> _Echelon:
    """The echelon of the {column: int} vectors restricted to the core
    columns, which keep their indices."""
    return _Echelon(_restrict(vec, core) for vec in vectors)
