"""Closed-form cocycle registry: verification against the windowed identity,
nontriviality, symbolic closure proofs, applicability, and serialization."""

from fractions import Fraction

import pytest

from lieext.algebra import BasisElement, validate_parameters
from lieext.engine import (
    REGISTRY,
    CocycleAssignment,
    CocycleLine,
    KnownCocycle,
    Window,
    h2,
    is_coboundary,
    verify_cocycle,
)
from lieext.dsl import parse_polynomial
from lieext.poly import IndexPolynomial
from lieext.presets import load_algebra

SVIR = load_algebra("svir")
WITT = load_algebra("witt")


def L(n):
    return BasisElement("L", n)


def _poly(text):
    return parse_polynomial(text, ("m", "mu"))


def test_registry_names():
    assert sorted(REGISTRY) == [
        "c1",
        "c2",
        "lm-yy-cubic",
        "ly-constant",
        "ly-cubic",
        "ly-linear",
        "virasoro",
        "yy-reciprocal",
    ]
    for name, entry in REGISTRY.items():
        assert entry.name == name
        assert entry.lines


def test_virasoro_verifies_on_witt():
    window = Window(20, 3)
    report = verify_cocycle(WITT, {}, window, REGISTRY["virasoro"])
    assert report.passed
    assert report.triples_checked == 200
    psi = report.assignment
    # (m - m^3)/12 at m = 3 gives -2 on the stored pair (L_-3, L_3)
    assert psi.value(L(3), L(-3)) == 2
    assert psi.value(L(-3), L(3)) == -2
    assert psi.value(L(0), L(0)) == 0
    assert psi.value(L(-1), L(1)) == 0  # (1 - 1)/12
    assert not is_coboundary(WITT, {}, window, psi)


def test_virasoro_cubic_variant_is_cohomologous():
    # m^3/12 alone passes verification and is nontrivial: it differs from
    # -virasoro by the linear line m/12, which is the coboundary of
    # f(L_0) = 1/24
    window = Window(20, 3)
    variant = KnownCocycle.single("vir-variant", "L", "L", _poly("m*m*m/12"))
    report = verify_cocycle(WITT, {}, window, variant)
    assert report.passed
    assert not is_coboundary(WITT, {}, window, report.assignment)
    vir = REGISTRY["virasoro"].instantiate(WITT, {}, window)
    assert is_coboundary(WITT, {}, window, vir + report.assignment)


def test_absolute_value_corruption_fails():
    # m * |m| / 12 is not polynomial and not a cocycle; the identity catches
    # it inside the window
    window = Window(8, 3)
    values = {
        (L(-m), L(m)): Fraction(m * m, 12) for m in range(1, 9)
    }
    bad = CocycleAssignment(WITT, window, values)
    report = verify_cocycle(WITT, {}, window, bad)
    assert not report.passed
    x, y, z, residual = report.witness
    assert (x, y, z) == (L(-8), L(1), BasisElement("L", 7))
    assert residual == Fraction(7, 2)


HOME_POINTS = [
    ("c1", {"lambda": -1, "mu": 1}),
    ("c2", {"lambda": -1, "mu": "1/3"}),
    ("ly-linear", {"lambda": -3, "mu": 2}),
    ("ly-cubic", {"lambda": 1, "mu": -1}),
    ("ly-constant", {"lambda": -3, "mu": 1}),
    ("lm-yy-cubic", {"lambda": 1, "mu": 1}),
    ("lm-yy-cubic", {"lambda": 1, "mu": "1/2"}),
    ("yy-reciprocal", {"lambda": -3, "mu": "1/2"}),
    ("yy-reciprocal", {"lambda": -3, "mu": "3/2"}),
]


@pytest.mark.parametrize("name,params", HOME_POINTS)
def test_class_verifies_and_is_nontrivial_at_home_point(name, params):
    window = Window(12, 3)
    report = verify_cocycle(SVIR, params, window, REGISTRY[name])
    assert report.passed, report.witness
    assert report.triples_checked > 0
    assert not is_coboundary(SVIR, params, window, report.assignment)


OFF_POINTS = [
    ("c1", {"lambda": 0, "mu": 1}),
    ("c2", {"lambda": 5, "mu": 2}),
    ("ly-linear", {"lambda": -2, "mu": 2}),
    ("ly-cubic", {"lambda": 2, "mu": -1}),
    ("ly-constant", {"lambda": -2, "mu": 1}),
    ("lm-yy-cubic", {"lambda": 2, "mu": 1}),
    ("yy-reciprocal", {"lambda": -2, "mu": "1/2"}),
    ("yy-reciprocal", {"lambda": 1, "mu": "1/2"}),
]


@pytest.mark.parametrize("name,params", OFF_POINTS)
def test_class_fails_off_its_lambda(name, params):
    window = Window(12, 3)
    report = verify_cocycle(SVIR, params, window, REGISTRY[name])
    assert not report.passed
    x, y, z, residual = report.witness
    assert residual != 0


def test_off_lambda_witness_is_reproducible():
    window = Window(12, 3)
    report = verify_cocycle(SVIR, {"lambda": -2, "mu": 2}, window, REGISTRY["ly-linear"])
    assert report.witness == (
        L(-12),
        L(0),
        BasisElement("Y", 10),
        Fraction(3),
    )


def test_coupled_class_lines_fail_alone():
    # the L-M and Y-Y cubic lines only close jointly: each alone leaves a
    # residual on (L, Y, Y) triples, with opposite signs
    window = Window(12, 3)
    params = {"lambda": 1, "mu": 1}
    lm_only = KnownCocycle.single(
        "lm-only", "L", "M",
        _poly("(m + 2*mu - 1)*(m + 2*mu)*(m + 2*mu + 1)"), mu_multiple=2,
    )
    yy_only = KnownCocycle.single(
        "yy-only", "Y", "Y",
        _poly("(m + mu - 1)*(m + mu)*(m + mu + 1)"), mu_multiple=2,
    )
    rep_lm = verify_cocycle(SVIR, params, window, lm_only)
    rep_yy = verify_cocycle(SVIR, params, window, yy_only)
    assert not rep_lm.passed
    assert not rep_yy.passed
    assert rep_lm.witness[:3] == rep_yy.witness[:3]
    assert rep_lm.witness[3] == -rep_yy.witness[3] != 0


def test_symbolic_closure_of_coupled_cubic():
    # with P(t) = t^3 - t, the (L_0-free) cocycle rows of the coupled class
    # reduce to two polynomial identities; both must vanish identically
    r = IndexPolynomial.variable("r")
    s = IndexPolynomial.variable("s")

    def P(t):
        return t * t * t - t

    # (L_n, Y_r, Y_s) row on the support line
    coupling = (2 * s + r) * P(r) - (2 * r + s) * P(s) - (r - s) * P(r + s)
    assert coupling.is_zero()
    # (L_a, L_t, M_*) row on the support line, lambda = 1
    t = IndexPolynomial.variable("t")
    a = IndexPolynomial.variable("a")
    pure = (-t - 2 * a) * P(t) - (2 * t + a) * P(0 - a) + (t - a) * P(t + a)
    assert pure.is_zero()


def test_symbolic_closure_of_constant_line():
    # the (L_a, L_b, Y_c) row applied to the constant L-Y class collapses to
    # (b - a) * (lambda + 3) / 2, so the class closes exactly at lambda = -3
    a = IndexPolynomial.variable("a")
    b = IndexPolynomial.variable("b")
    c = IndexPolynomial.variable("c")
    lam = IndexPolynomial.variable("lambda")
    mu = IndexPolynomial.variable("mu")
    half = Fraction(1, 2)
    row = (
        (b - a)
        - (c - half * (lam + 1) * b + mu)
        + (c - half * (lam + 1) * a + mu)
    )
    assert row == (b - a) * (lam + 3) * half
    assert row.substitute({"lambda": -3}).is_zero()
    assert not row.substitute({"lambda": -2}).is_zero()


def test_reciprocal_class_values():
    # 1/(m + mu) on the line n + m = -2*mu, skew across the line midpoint
    window = Window(8, 3)
    params = validate_parameters(SVIR, {"lambda": -3, "mu": "1/2"})
    psi = REGISTRY["yy-reciprocal"].instantiate(SVIR, params, window)
    def Yn(n):
        return BasisElement("Y", n)
    assert psi.value(Yn(-2), Yn(1)) == Fraction(2, 3)
    assert psi.value(Yn(1), Yn(-2)) == Fraction(-2, 3)
    assert psi.value(Yn(-1), Yn(0)) == 2  # 1/(0 + 1/2)
    assert psi.value(Yn(-2), Yn(0)) == 0  # off the line
    degrees = psi.degrees(params)
    assert degrees == {Fraction(0)}


def test_symbolic_row_collapse_for_reciprocal_class():
    # at lambda = -3 the (L_a, Y_r, Y_s) row coefficient on psi(Y_{a+r}, Y_s)
    # collapses to -(s + mu) once a = -2*mu - r - s, so the row reads
    # u*B(u) - v*B(v) + (u - v)*A(u + v) in u = r + mu, v = s + mu; the
    # reciprocal B(u) = 1/u with A = 0 then cancels whenever u, v != 0,
    # and the u = 0 row that would kill it needs mu to be an integer
    r = IndexPolynomial.variable("r")
    s = IndexPolynomial.variable("s")
    mu = IndexPolynomial.variable("mu")
    lam = IndexPolynomial.constant(-3)
    a = -2 * mu - r - s
    coeff = r - Fraction(1, 2) * (lam + 1) * a + mu
    assert coeff == -(s + mu)


def test_zero_denominator_rejected():
    with pytest.raises(ValueError, match="identically zero"):
        CocycleLine("Y", "Y", _poly("1"), mu_multiple=2, denom=_poly("0"))


def test_symbolic_closure_of_ym_pairing():
    # the (L_a, Y_b, M_c) row applied to the constant Y-M class, with
    # b + c = -3*mu - a on the support line, collapses to -3*a*(lambda+1)/2:
    # the class closes exactly at lambda = -1
    a = IndexPolynomial.variable("a")
    b = IndexPolynomial.variable("b")
    lam = IndexPolynomial.variable("lambda")
    mu = IndexPolynomial.variable("mu")
    half = Fraction(1, 2)
    c = -3 * mu - a - b
    row = (b - half * (lam + 1) * a + mu) + (c - lam * a + 2 * mu)
    expected = -3 * half * a * (lam + 1)
    assert row == expected
    assert row.substitute({"lambda": -1}).is_zero()


def test_applicability_reasons():
    quarter = {"lambda": Fraction(-1), "mu": Fraction(1, 4)}
    assert REGISTRY["c2"].applicability(SVIR, quarter) == "requires 3*mu integer"
    assert REGISTRY["c1"].applicability(SVIR, quarter) == "requires mu integer"
    assert (
        REGISTRY["lm-yy-cubic"].applicability(SVIR, {"lambda": Fraction(1), "mu": Fraction(1, 4)})
        == "requires 2*mu integer"
    )
    assert REGISTRY["c1"].applicability(WITT, {}) == "algebra has no family Y"
    assert REGISTRY["virasoro"].applicability(WITT, {}) is None
    # 2*mu integer suffices for the coupled class even when mu is not
    assert (
        REGISTRY["lm-yy-cubic"].applicability(SVIR, {"lambda": Fraction(1), "mu": Fraction(1, 2)})
        is None
    )
    # the reciprocal class needs its denominator clear of integer roots,
    # which rules out exactly the integer mu values
    rec = REGISTRY["yy-reciprocal"]
    assert (
        rec.applicability(SVIR, {"lambda": Fraction(-3), "mu": Fraction(1)})
        == "denominator m + mu vanishes at an integer index"
    )
    assert (
        rec.applicability(SVIR, {"lambda": Fraction(-3), "mu": Fraction(1, 4)})
        == "requires 2*mu integer"
    )
    assert rec.applicability(SVIR, {"lambda": Fraction(-3), "mu": Fraction(3, 2)}) is None


def test_instantiate_refuses_inapplicable_parameters():
    with pytest.raises(ValueError, match="requires mu integer"):
        REGISTRY["c1"].instantiate(SVIR, {"lambda": -1, "mu": "1/2"}, Window(8, 3))


def test_registry_degrees_are_zero():
    # every registry class lives in the degree-zero sector at a point where
    # it applies
    home = {name: params for name, params in HOME_POINTS}
    for name, entry in REGISTRY.items():
        params = validate_parameters(SVIR, home.get(name, {"lambda": 0, "mu": 1}))
        assert entry.applicability(SVIR, params) is None, name
        assert entry.degree(SVIR, params) == 0, name


def test_degree_mixing_rejected():
    mixed = KnownCocycle(
        "bad-mix",
        (
            CocycleLine("L", "L", _poly("m")),
            CocycleLine("L", "L", _poly("m"), index_shift=2),
        ),
    )
    with pytest.raises(ValueError, match="mixes degrees"):
        mixed.degree(SVIR, {"lambda": Fraction(0), "mu": Fraction(1)})


def test_skew_inconsistent_table_rejected():
    # a constant same-family line assigns +1 and -1 to the same pair
    sym = KnownCocycle.single("bad-skew", "Y", "Y", _poly("1"), mu_multiple=2)
    with pytest.raises(ValueError, match="not skew-consistent"):
        sym.instantiate(SVIR, {"lambda": 0, "mu": 1}, Window(8, 3))


def test_empty_lines_rejected():
    with pytest.raises(ValueError, match="at least one line"):
        KnownCocycle("empty", ())


def test_support_line_missing_integers():
    line = CocycleLine("L", "Y", _poly("1"), mu_multiple=1)
    with pytest.raises(ValueError, match="misses integer indices"):
        line.offset({"mu": Fraction(1, 2)})
    assert line.offset({"mu": Fraction(2)}) == -2


def test_matched_known_sets():
    window = Window(12, 3)
    expectations = [
        ({"lambda": -3, "mu": 2}, 3, {"virasoro", "ly-linear", "ly-constant"}),
        ({"lambda": 1, "mu": -1}, 3, {"virasoro", "ly-cubic", "lm-yy-cubic"}),
        ({"lambda": 7, "mu": "1/4"}, 1, {"virasoro"}),
        ({"lambda": -3, "mu": "1/2"}, 2, {"virasoro", "yy-reciprocal"}),
    ]
    for params, dim, names in expectations:
        report = h2(SVIR, params, window)
        assert report.core_h2_dim == dim, params
        matched = {m.name for m in report.matched_known if m.matched}
        assert matched == names, params
        assert len(matched) == report.core_h2_dim
