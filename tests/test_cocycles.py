"""Closed-form cocycle registry: verification against the windowed identity,
nontriviality, symbolic closure proofs, applicability, and serialization."""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import lieext.engine as engine
import lieext.solve as solve
from lieext.algebra import AlgebraSpec, BasisElement, CocycleLine, validate_parameters
from lieext import REGISTRY
from lieext.engine import (
    CocycleAssignment,
    KnownCocycle,
    h2,
    is_coboundary,
    verify_cocycle,
)
from lieext.dsl import Diagnostic, parse
from lieext.poly import IndexPolynomial
from lieext.presets import load_algebra
from lieext.solve import Window

from golden import SOURCES, VERIFY_POINTS
from isomorphism import substitute, weight
from test_dsl import parse_polynomial

ROOT = Path(__file__).resolve().parent.parent
SVIR = load_algebra("svir")
WITT = load_algebra("witt")


def L(n):
    return BasisElement("L", n)


def _degrees(psi, params):
    """The degrees weight(x) + weight(y) of the pairs psi is nonzero on."""
    return {weight(SVIR, x, params) + weight(SVIR, y, params) for x, y in psi.values}


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
    # the registry is what the bundled presets declare, in svir's order
    assert list(REGISTRY) == list(SVIR.cocycles)
    assert all(REGISTRY[name].lines == lines for name, lines in SVIR.cocycles.items())
    assert WITT.cocycles == {"virasoro": REGISTRY["virasoro"].lines}


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
    variant = KnownCocycle("vir-variant", (CocycleLine("L", "L", _poly("m*m*m/12")),))
    report = verify_cocycle(WITT, {}, window, variant)
    assert report.passed
    assert not is_coboundary(WITT, {}, window, report.assignment)
    vir = REGISTRY["virasoro"].instantiate(WITT, {}, window)
    total = dict(vir.values)
    for pair, value in report.assignment.values.items():
        total[pair] = total.get(pair, 0) + value
    assert is_coboundary(WITT, {}, window, CocycleAssignment(WITT, window, total))


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
    lm_line, yy_line = REGISTRY["lm-yy-cubic"].lines
    assert (lm_line.family_a, lm_line.family_b, yy_line.family_a) == ("L", "M", "Y")
    lm_only = KnownCocycle("lm-only", (lm_line,))
    yy_only = KnownCocycle("yy-only", (yy_line,))
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
    assert substitute(row, {"lambda": -3}).is_zero()
    assert not substitute(row, {"lambda": -2}).is_zero()


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
    assert _degrees(psi, params) == {0}


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
        CocycleLine("Y", "Y", _poly("1"), _poly("-2*mu"), _poly("0"))


def test_denominator_of_degree_two_rejected():
    # a linear denominator's integer roots are one divisibility test; a
    # quadratic one would need a divisor search of the bound constant term
    with pytest.raises(ValueError, match="degree 2 or more in m"):
        CocycleLine("Y", "Y", _poly("1"), _poly("-2*mu"), _poly("m*m + mu"))
    assert CocycleLine("Y", "Y", _poly("1"), denom=_poly("mu*mu*m + 1")).denom == _poly("mu*mu*m + 1")


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
    assert substitute(row, {"lambda": -1}).is_zero()


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


def test_denominator_that_vanishes_identically_is_not_applicable():
    # (mu - 1)*m + mu - 1 is 0 at mu = 1 for every m, and m + 1 at mu = 2
    # has the integer root -1; h2 leaves an inapplicable class out
    source = (ROOT / "src" / "lieext" / "presets" / "svir.lie").read_text()
    head, _, _ = source.rpartition("}")
    spec = parse(head + "    cocycle flat { [Y n, Y m] = 1 / ((mu - 1)*m + mu - 1) on n + m = -2*mu; }\n}\n").spec
    flat = KnownCocycle("flat", spec.cocycles["flat"])
    assert (
        flat.applicability(spec, {"lambda": Fraction(-3), "mu": Fraction(1)})
        == "denominator m*mu - m + mu - 1 vanishes identically"
    )
    assert (
        flat.applicability(spec, {"lambda": Fraction(-3), "mu": Fraction(2)})
        == "denominator m*mu - m + mu - 1 vanishes at an integer index"
    )
    report = h2(spec, {"lambda": -3, "mu": 1}, Window(8, 3), stabilization_steps=1)
    assert [m.name for m in report.matched_known] == [
        name for name in SVIR.cocycles if REGISTRY[name].applicability(SVIR, {"lambda": -3, "mu": 1}) is None
    ]


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
        psi = entry.instantiate(SVIR, params, Window(8, 3))
        assert psi.values and _degrees(psi, params) == {0}, name


def _declaring(spec, classes):
    """spec's bracket table, declaring classes."""
    return AlgebraSpec(spec.name, spec.parameters, spec.families, spec.weight_offsets, spec.rules, classes)


def test_degree_mixing_rejected():
    # a class's degree is settled where it is declared: mix.lie is refused
    # at the class's name, and its class built in code with the same
    # message; so is a class whose degrees differ only through a parameter
    message = "cocycle 'bad-mix' mixes degrees 0, 1"
    assert parse(SOURCES["mix.lie"]).errors() == [Diagnostic(7, 13, "error", "mixed-degrees", message)]
    mix = parse(SOURCES["mix.lie"].split("    cocycle")[0] + "}\n").spec
    assert mix.families == ("L", "W") and not mix.cocycles
    with pytest.raises(ValueError, match=f"^{message}$"):
        _declaring(mix, {"bad-mix": (CocycleLine("L", "L", _poly("m")), CocycleLine("L", "W", _poly("1")))})
    lines = (CocycleLine("L", "L", _poly("m"), _poly("1")), CocycleLine("L", "Y", _poly("1")))
    with pytest.raises(ValueError, match="^cocycle 'bad-mix' mixes degrees 1, mu$"):
        _declaring(SVIR, {"bad-mix": lines})


def test_a_class_of_two_degrees_is_read_one_degree_at_a_time():
    """A class built in code may mix degrees; the engine refuses nothing
    for it.  It applies, and verify_cocycle and is_coboundary give, degree
    by degree, the verdicts of each line on its own: verify walks the
    degrees in order up to the first failure, and psi is a coboundary
    exactly when each degree's part is."""
    window = Window(8)
    classes = (
        # virasoro at degree 0, and psi(L_n, Y_m) = 1 on n + m = 0 at degree mu
        (CocycleLine("L", "L", _poly("(m - m*m*m)/12")), CocycleLine("L", "Y", _poly("1"))),
        # the coboundary of L(0)'s dual at degree 0, with the same L-Y line
        (CocycleLine("L", "L", _poly("m")), CocycleLine("L", "Y", _poly("1"))),
    )
    verdicts = set()
    for lam, mu in ((-3, 1), (-1, 1), (0, -2)):
        params = validate_parameters(SVIR, {"lambda": lam, "mu": mu})
        for lines in classes:
            mixed = KnownCocycle("mixed", lines)
            assert mixed.applicability(SVIR, params) is None
            parts = sorted(
                (KnownCocycle("one", (line,)).instantiate(SVIR, params, window) for line in lines),
                key=lambda psi: sorted(_degrees(psi, params)),
            )
            [first], [second] = (_degrees(psi, params) for psi in parts)
            assert first < second
            expected, checked = (True, None), 0
            for psi in parts:
                report = verify_cocycle(SVIR, params, window, psi)
                checked += report.triples_checked
                if not report.passed:
                    expected = (False, report.witness)
                    break
            report = verify_cocycle(SVIR, params, window, mixed)
            assert (report.passed, report.witness) == expected and report.triples_checked == checked, (lam, mu)
            trivial = all(is_coboundary(SVIR, params, window, psi) for psi in parts)
            assert is_coboundary(SVIR, params, window, report.assignment) == trivial, (lam, mu)
            verdicts.add((report.passed, trivial))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_skew_inconsistent_table_rejected():
    # a constant same-family line assigns +1 and -1 to the same pair
    sym = KnownCocycle("bad-skew", (CocycleLine("Y", "Y", _poly("1"), _poly("-2*mu")),))
    with pytest.raises(ValueError, match="not skew-consistent"):
        sym.instantiate(SVIR, {"lambda": 0, "mu": 1}, Window(8, 3))


def test_empty_lines_rejected():
    with pytest.raises(ValueError, match="at least one line"):
        KnownCocycle("empty", ())


def test_support_line_missing_integers():
    known = KnownCocycle("ly", (CocycleLine("L", "Y", _poly("1"), _poly("-mu")),))
    assert known.applicability(SVIR, {"lambda": Fraction(0), "mu": Fraction(1, 2)}) == "requires mu integer"
    psi = known.instantiate(SVIR, {"lambda": 0, "mu": 2}, Window(8, 3))
    assert psi.values and all(x.index + y.index == -2 for x, y in psi.values)


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


def test_linear_denominator_decided_by_divisibility():
    # m + mu has an integer root exactly when mu is an integer; trial
    # division up to sqrt(2*mu) would run for hours at these values
    rec = REGISTRY["yy-reciprocal"]
    start = time.perf_counter()
    odd = {"lambda": Fraction(-3), "mu": Fraction(10**41 + 1, 2)}
    assert rec.applicability(SVIR, odd) is None
    assert (
        rec.applicability(SVIR, {"lambda": Fraction(-3), "mu": Fraction(10**40)})
        == "denominator m + mu vanishes at an integer index"
    )
    assert time.perf_counter() - start < 2


def _reference_values(known, spec, params, window):
    """A class's canonical values rebuilt with IndexPolynomial.evaluate over
    Fraction at every index, independently of the compiled path."""
    key = spec.element_key
    values = {}
    for line in known.lines:
        total = line.offset.evaluate(params)
        assert total.denominator == 1
        for m in window.indices():
            a, b = BasisElement(line.family_a, int(total) - m), BasisElement(line.family_b, m)
            if not window.contains(a.index) or a == b:
                continue
            point = {**params, line.var_b: m}
            value = line.coeff.evaluate(point) / line.denom.evaluate(point)
            if not value:
                continue
            if key(a) > key(b):
                a, b, value = b, a, -value
            assert values.setdefault((a, b), value) == value, "not skew-consistent"
    return values


# a rational constant, a power of mu, a rational denominator and an offset
# with halves, so the scale a line's coefficient, denominator and offset
# share is not 1
SCALED = KnownCocycle(
    "scaled",
    (CocycleLine("L", "M", _poly("2/3 + mu*mu*m/5 - m*m*m"), _poly("(mu*mu + mu)/2"), _poly("m/7 + 1/3")),),
)


@pytest.mark.parametrize("n", [8, 12])
def test_instantiate_matches_fraction_reference(n):
    window = Window(n, 3)
    points = [params for _, params in HOME_POINTS + OFF_POINTS] + [
        {"lambda": -3, "mu": "1/2"},
        {"lambda": -3, "mu": "3/2"},
        {"lambda": 1, "mu": "1/2"},
    ]
    checked = 0
    for params in points:
        params = validate_parameters(SVIR, params)
        for known in [*REGISTRY.values(), SCALED]:
            if known.applicability(SVIR, params) is not None:
                continue
            psi = known.instantiate(SVIR, params, window)
            assert psi.values == _reference_values(known, SVIR, params, window), (known.name, params)
            checked += 1
    assert checked > 2 * len(points)


def test_declared_class_and_its_file_verify_alike():
    """verify_cocycle converts a declared class once, into the integer
    ratios its report's assignment carries.  The same class read back from
    its JSON file, as `lieext verify --cocycle FILE` reads it, goes the
    assignment's way and must get the same answers at the verify points.
    The reported assignment must be instantiate()'s, and its values the
    Fractions of the class's quotients, in the same order."""
    window = Window(30)
    for (lam, mu), names in VERIFY_POINTS.items():
        params = validate_parameters(SVIR, {"lambda": lam, "mu": mu})
        alg = solve._bind(SVIR, params)
        for name in names:
            known = REGISTRY[name]
            report = verify_cocycle(SVIR, params, window, known)
            read = CocycleAssignment.from_json_dict(SVIR, window, report.assignment.to_json_dict())
            again = verify_cocycle(SVIR, params, window, read)
            label = (lam, mu, name)
            assert (again.passed, again.triples_checked, again.witness) == (
                report.passed,
                report.triples_checked,
                report.witness,
            ), label
            trivial = is_coboundary(SVIR, params, window, report.assignment)
            assert is_coboundary(SVIR, params, window, read) == trivial, label
            assert report.assignment == known.instantiate(SVIR, params, window) == read, label
            _, lines = known._check(alg)
            fractions = {
                (alg.element(x), alg.element(y)): Fraction(num, den)
                for (x, y), (num, den) in known._ratios(window, lines).items()
            }
            assert dict(report.assignment.values) == fractions, label
            assert list(report.assignment.values.items()) == list(fractions.items()), label


def test_verify_leaves_out_pairs_outside_its_window():
    """verify_cocycle puts on its columns only psi's pairs inside the call's
    window (_on_columns).  A class instantiated on a larger window must
    verify there as the class instantiated on the call's own window does."""
    small, large = Window(8), Window(12)
    for (lam, mu), names in VERIFY_POINTS.items():
        params = validate_parameters(SVIR, {"lambda": lam, "mu": mu})
        for name in names:
            wide, own = (REGISTRY[name].instantiate(SVIR, params, window) for window in (large, small))
            assert any(not small.contains(x.index) or not small.contains(y.index) for x, y in wide.values)
            got, expected = (verify_cocycle(SVIR, params, small, psi) for psi in (wide, own))
            assert (got.passed, got.triples_checked, got.witness) == (
                expected.passed,
                expected.triples_checked,
                expected.witness,
            ), (lam, mu, name)
            if (lam, mu, name) == ("-3", "1", "virasoro"):
                assert got.passed and got.triples_checked == 743


def _reference_by_degree(offsets, ratios) -> dict:
    """_by_degree's grouping with each pair's degree summed on its own, in
    Fractions."""
    groups = {}
    for (x, y), ratio in ratios.items():
        groups.setdefault(offsets[x[0]] + offsets[y[0]] + x[1] + y[1], {})[x, y] = ratio
    return groups


def test_grouping_by_degree_matches_a_per_pair_reference():
    """_by_degree works out one degree per family pair and index total.  On
    seeded assignments over several sectors and degrees it must group as a
    sum per pair does: the same degrees, and the same pairs in the same
    order within each.  Each class that applies at a verify point gets one
    group, of the one degree of _check's lines."""
    rng = random.Random(33)
    window = Window(8)
    families = range(len(SVIR.families))
    for mu in (1, "1/2", "1/3"):
        alg = solve._bind(SVIR, validate_parameters(SVIR, {"lambda": -1, "mu": mu}))
        for _ in range(20):
            values = {}
            for _ in range(rng.randint(2, 40)):
                a, b, total, i = rng.choice(families), rng.choice(families), rng.randint(-2, 2), rng.randint(-8, 8)
                x, y = alg.element((a, i)), alg.element((b, total - i))
                if x != y and window.contains(y.index) and (y, x) not in values:
                    values[x, y] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            ratios = CocycleAssignment(SVIR, window, values)._ratios
            grouped, reference = engine._by_degree(alg.offsets, ratios), _reference_by_degree(alg.offsets, ratios)
            assert [(degree, list(group.items())) for degree, group in grouped.items()] == [
                (degree, list(group.items())) for degree, group in reference.items()
            ]
        assert len(grouped) > 1 and len({(x[0], y[0]) for x, y in ratios}) > 1
    window = Window(12)
    for (lam, mu), names in VERIFY_POINTS.items():
        alg = solve._bind(SVIR, validate_parameters(SVIR, {"lambda": lam, "mu": mu}))
        for name in names:
            _, lines = REGISTRY[name]._check(alg)
            [degree] = {alg.offsets[a] + alg.offsets[b] + t for a, b, t, _, _ in lines}
            assert list(engine._by_degree(alg.offsets, REGISTRY[name]._ratios(window, lines))) == [degree]
