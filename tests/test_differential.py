"""The windowed engine against the dense oracle, end to end.

At small windows the whole degree-zero cocycle system is rebuilt here from
nothing but AlgebraSpec.bracket and AlgebraSpec.weight: the unknowns are the
values on window pairs of total weight zero, and every window triple of
total weight zero gives the cyclic cocycle identity, dropped when a nonzero
bracket output leaves the window.  The dense oracle then supplies the
nullity, the coboundary rank and the core-projected dimensions, which must
equal what cocycle_space, coboundary_space and h2 report.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from lieext.algebra import BasisElement, validate_parameters
from lieext.engine import Window, coboundary_space, cocycle_space, h2
from lieext.presets import load_algebra

from oracle_dense import dense_nullspace, dense_rank

POINTS = [
    pytest.param("svir", {"lambda": -3, "mu": "1/2"}, id="svir(-3,1/2)"),
    pytest.param("svir", {"lambda": -1, "mu": "1/3"}, id="svir(-1,1/3)"),
    pytest.param("svir", {"lambda": 1, "mu": 1}, id="svir(1,1)"),
    pytest.param("svir", {"lambda": -3, "mu": -1}, id="svir(-3,-1)"),
    pytest.param("witt", {}, id="witt"),
]


def _dense_system(spec, params, window):
    """(pair count, constraint rows, coboundary generators, core columns)."""
    elements = [BasisElement(fam, i) for fam in spec.families for i in window.indices()]
    weight = {e: spec.weight(e, params) for e in elements}
    pairs = [(x, y) for x, y in combinations(elements, 2) if weight[x] + weight[y] == 0]
    column = {pair: col for col, pair in enumerate(pairs)}

    def add(vector, e, w, value):
        if (e, w) in column:
            vector[column[(e, w)]] += value
        else:
            vector[column[(w, e)]] -= value

    rows = []
    for x, y, z in combinations(elements, 3):
        if weight[x] + weight[y] + weight[z] != 0:
            continue
        row = [Fraction(0)] * len(pairs)
        admissible = True
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for coeff, e in spec.bracket(u, v, params):
                if e == w:
                    continue
                if not window.contains(e.index):
                    admissible = False
                    break
                add(row, e, w, coeff)
        if admissible and any(row):
            rows.append(row)

    generators = []
    for z in elements:
        if weight[z] != 0:
            continue
        vector = [Fraction(0)] * len(pairs)
        for x, y in pairs:
            for coeff, e in spec.bracket(x, y, params):
                if e == z:
                    add(vector, x, y, coeff)
        generators.append(vector)

    bound = window.n - window.margin
    core = [col for col, (x, y) in enumerate(pairs) if abs(x.index) <= bound and abs(y.index) <= bound]
    return len(pairs), rows, generators, core


def _projected_rank(vectors, core):
    return dense_rank([[vec[c] for c in core] for vec in vectors], len(core))


@pytest.mark.parametrize("name, values", POINTS)
def test_engine_matches_dense_oracle(name, values):
    spec = load_algebra(name)
    params = validate_parameters(spec, values)
    history = []
    for n in (6, 8):
        window = Window(n)
        n_cols, rows, generators, core = _dense_system(spec, params, window)
        cocycles = dense_nullspace(rows, n_cols)
        assert len(cocycle_space(spec, params, window, 0)) == len(cocycles)
        assert len(coboundary_space(spec, params, window, 0)) == dense_rank(generators, n_cols)
        history.append((n, _projected_rank(cocycles, core) - _projected_rank(generators, core)))
    assert h2(spec, params, Window(6), stabilization_steps=2).core_history == history
