"""Graded isomorphisms (tests/isomorphism.py) as an exact oracle.

svir(lambda, mu) is isomorphic to svir(lambda, -mu) by L_n -> -L_{-n},
Y_m -> Y_{-m}, M_m -> -M_{-m}, and to svir(lambda, mu - 1) by
Y_m -> Y_{m-1}, M_m -> M_{m-2}.  Both are checked on the spec, symbolically.
Negation maps the window [-N, N] onto itself and keeps degree 0, so h2 must
give an algebra and its negation the same numbers at every window: a
solver that treats the two window edges differently, or that leans on the
sign of an index, fails here.  The shift moves the window instead, and is
checked where the mu = 0 binding meets it: svir(lambda, 0) against
svir(lambda, 1).  It is checked far from index 0 too: wab_a(20, mu), whose
W has weight 20, is wab_a(0, mu) with W shifted by 20, and at degree 0 most
entries of its identity tables leave the window.

Rescaling keeps every window, degree and support and changes only the
sizes of the integers h2 computes with: it must give the same numbers on
every spec the negation is checked on, and on those of criterion 8's random
specs that h2 answers.  Both maps run on random Lie algebras too, a Witt
family with tensor-density modules drawn by construction
(test_differential.DRAWN), where the d^2 = 0 boundary is walked.
"""

import random
from fractions import Fraction

import pytest

from lieext.dsl import parse
from lieext.engine import h2
from lieext.presets import load_algebra
from lieext.solve import Window

from golden import WAB_SOURCE
from isomorphism import V, negated, rescaled, shifted, substituted
from test_acceptance import GRID_LAMBDAS, GRID_MUS
from test_cli import HV_SOURCE, W22_SOURCE, WAB_A_SOURCE
from test_differential import DRAWN, NO_WEIGHT_ZERO_SOURCE
from test_dsl import _random_spec_source

SVIR = load_algebra("svir")
WAB_A = parse(WAB_A_SOURCE).spec
SVIR_SIGNS = {"L": -1, "Y": 1, "M": -1}
# large and fractional: the first grows the coefficient bound and the
# packed slot width, the second the bracket denominator too (to 49000)
SVIR_SCALES = [{"Y": 1000, "M": Fraction(-1, 7)}, {"Y": Fraction(-1, 7), "M": 1000}]
SCALES = (Fraction(-1, 7), 1000, Fraction(9, 4), -3)
MU = V("mu")


def _numbers(spec, params, n):
    """What h2 reports at degree 0 on Window(n), stabilization windows
    included, or the text of its refusal."""
    try:
        report = h2(spec, params, Window(n))
    except ValueError as exc:
        return str(exc)
    return (
        report.core_history,
        report.cocycle_dim,
        report.coboundary_dim,
        [(m.name, m.matched) for m in report.matched_known],
        report.grading is None,
        report.jacobi is None,
    )


def test_negation_maps_svir_to_svir_at_minus_mu():
    negative = negated(SVIR, SVIR_SIGNS)
    assert negative._table() == substituted(SVIR, {"mu": -MU})._table()
    assert negative.weight_offsets == {"L": 0, "Y": -MU, "M": -2 * MU}
    # the signs matter: M_m -> M_{-m} instead flips the sign of [Y, Y]
    assert negated(SVIR, {"L": -1})._table() != negative._table()


def test_shift_maps_svir_to_svir_at_mu_minus_one():
    # the bracket table and every declared class, line by line
    assert shifted(SVIR, {"Y": -1, "M": -2}) == substituted(SVIR, {"mu": MU - 1})
    assert shifted(SVIR, {"Y": 1, "M": 2}) == substituted(SVIR, {"mu": MU + 1})
    # [Y_n, Y_m] lands on M_{n+m}: a shift of Y alone is no isomorphism
    with pytest.raises(ValueError, match=r"the shifts of \[Y, Y\] do not add"):
        shifted(SVIR, {"Y": 1})


def test_negation_keeps_h2_on_the_svir_grid():
    negative = negated(SVIR, SVIR_SIGNS)
    for lam in GRID_LAMBDAS:
        for mu in GRID_MUS:
            params = {"lambda": lam, "mu": mu}
            assert _numbers(negative, params, 12) == _numbers(SVIR, params, 12), params


SPECS = pytest.mark.parametrize(
    "source, points, n",
    [
        ("witt", [{}], 8),
        ("witt", [{}], 12),
        (WAB_SOURCE, [{"lambda": 1, "mu": 0}, {"lambda": 0, "mu": Fraction(1, 2)}], 8),
        (NO_WEIGHT_ZERO_SOURCE, [{}], 8),
        (NO_WEIGHT_ZERO_SOURCE, [{}], 12),
        (HV_SOURCE, [{}], 12),
        (W22_SOURCE, [{}], 12),
        # too small a window for the M-M sector at mu = 2 and 3/2: refused
        ("svir", [{"lambda": 1, "mu": 2}, {"lambda": -1, "mu": Fraction(3, 2)}], 6),
    ],
    ids=["witt-8", "witt-12", "wab", "graded3-8", "graded3-12", "hv", "w22", "svir-refusals"],
)


def _spec(source):
    return load_algebra(source) if source in ("witt", "svir") else parse(source).spec


@SPECS
def test_negation_keeps_h2(source, points, n):
    spec = _spec(source)
    negative = negated(spec, {"L": -1})
    for params in points:
        expected = _numbers(spec, params, n)
        assert _numbers(negative, params, n) == expected, params
        if source == "svir":
            assert expected.startswith("window too small: the M-M sector"), expected


@pytest.mark.parametrize("scales", SVIR_SCALES, ids=["bound", "denominator"])
def test_rescaling_keeps_h2_on_the_svir_grid(scales):
    scaled = rescaled(SVIR, scales)
    assert scaled._table() != SVIR._table()
    assert rescaled(scaled, {fam: 1 / Fraction(s) for fam, s in scales.items()}) == SVIR
    for lam in GRID_LAMBDAS:
        for mu in GRID_MUS:
            params = {"lambda": lam, "mu": mu}
            assert _numbers(scaled, params, 12) == _numbers(SVIR, params, 12), params


@SPECS
def test_rescaling_keeps_h2(source, points, n):
    spec = _spec(source)
    scaled = rescaled(spec, dict(zip(spec.families, SCALES)))
    for params in points:
        assert _numbers(scaled, params, n) == _numbers(spec, params, n), params


def test_random_specs_keep_h2_under_negation_and_rescaling():
    # criterion 8's specs at seed 808, with the parameters of
    # test_differential._jacobi_algebras; most are not graded by their
    # weights, and h2 refuses them the same way after either map.  Then the
    # 20 Lie algebras that test_differential draws by construction, all of
    # which h2 answers
    values = {"alpha": 2, "beta": "-1/2", "gam": 3}
    rng = random.Random(808)
    sources = [_random_spec_source(rng) for _ in range(20)] + DRAWN
    answered = []
    for source in sources:
        spec = parse(source).spec
        params = {p: values[p] for p in spec.parameters}
        expected = _numbers(spec, params, 8)
        answered.append(not isinstance(expected, str))
        assert _numbers(negated(spec, {spec.families[0]: -1}), params, 8) == expected, spec
        assert _numbers(rescaled(spec, dict(zip(spec.families, SCALES))), params, 8) == expected, spec
    assert sum(answered[:20]) == 3
    assert sum(answered[20:]) == 20


@pytest.mark.parametrize("n", [8, 12])
def test_mu_zero_is_mu_one(n):
    for lam in GRID_LAMBDAS:
        zero, one = (h2(SVIR, {"lambda": lam, "mu": mu}, Window(n)) for mu in (0, 1))
        assert zero.core_history == one.core_history, lam
        assert [m.name for m in zero.matched_known if m.matched] == [m.name for m in one.matched_known if m.matched]


def test_shift_maps_wab_a_to_wab_a_at_lambda_minus_twenty():
    # [W, W] = 0, so W may shift alone: W'_m = W_{m-20}
    assert shifted(WAB_A, {"W": -20}) == substituted(WAB_A, {"lambda": V("lambda") - 20})


@pytest.mark.parametrize("mu, dim", [(0, 3), (1, 3), (Fraction(1, 2), 1), (-1, 2)], ids=str)
def test_shift_keeps_h2_far_from_the_window_centre(mu, dim):
    # lambda = 20 needs N >= 24 for the W-W sector's core pairs (i, -40 - i);
    # the L-W sector's, (i, -20 - i), need only N >= 13
    far = h2(WAB_A, {"lambda": 20, "mu": mu}, Window(24))
    near = h2(WAB_A, {"lambda": 0, "mu": mu}, Window(12))
    assert far.stabilized and near.stabilized
    assert [d for _, d in far.core_history] == [d for _, d in near.core_history] == [dim] * 3
