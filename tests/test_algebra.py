import random
from fractions import Fraction

import pytest

from lieext.algebra import (
    AlgebraSpec,
    BasisElement,
    BracketRule,
    CocycleLine,
    ParameterError,
    check_jacobi_symbolic,
    check_jacobi_window,
    validate_parameters,
)
from lieext.dsl import parse
from lieext.poly import IndexPolynomial
from lieext.presets import load_algebra

SVIR = load_algebra("svir")
WITT = load_algebra("witt")


def L(n):
    return BasisElement("L", n)


def Y(n):
    return BasisElement("Y", n)


def M(n):
    return BasisElement("M", n)


def test_bracket_examples():
    params = validate_parameters(SVIR, {"lambda": 3, "mu": Fraction(1, 7)})
    assert SVIR.bracket(L(2), L(3), params) == [(Fraction(1), L(5))]
    params = validate_parameters(SVIR, {"lambda": -1, "mu": 1})
    assert SVIR.bracket(L(2), Y(3), params) == [(Fraction(4), Y(5))]
    assert SVIR.bracket(M(1), M(2), params) == []
    assert SVIR.bracket(Y(1), M(2), params) == []


def test_bracket_antisymmetry_random():
    rng = random.Random(1009)
    for _ in range(60):
        params = validate_parameters(
            SVIR,
            {
                "lambda": Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                "mu": Fraction(rng.choice([i for i in range(-8, 9) if i]), rng.randint(1, 4)),
            },
        )
        fam = rng.choice(["L", "Y", "M"])
        gam = rng.choice(["L", "Y", "M"])
        x = BasisElement(fam, rng.randint(-8, 8))
        y = BasisElement(gam, rng.randint(-8, 8))
        fwd = SVIR.bracket(x, y, params)
        rev = SVIR.bracket(y, x, params)
        assert sorted((e, -c) for c, e in fwd) == sorted((e, c) for c, e in rev)


def test_bracket_index_additive():
    params = validate_parameters(SVIR, {"lambda": 2, "mu": Fraction(5, 3)})
    for x, y in ((L(3), Y(-5)), (L(-2), M(4)), (Y(1), Y(2)), (L(0), L(7))):
        for _, out in SVIR.bracket(x, y, params):
            assert out.index == x.index + y.index


def test_weight_examples():
    params = validate_parameters(SVIR, {"lambda": 0, "mu": Fraction(1, 3)})
    assert SVIR.weight(Y(2), params) == Fraction(7, 3)
    params = validate_parameters(SVIR, {"lambda": 0, "mu": 1})
    assert SVIR.weight(M(-2), params) == 0
    assert SVIR.weight(L(0), params) == 0
    assert SVIR.weight(L(5), params) == 5


def test_weight_additivity_random():
    rng = random.Random(77)
    for _ in range(50):
        params = validate_parameters(
            SVIR,
            {
                "lambda": rng.randint(-5, 5),
                "mu": Fraction(rng.choice([i for i in range(-6, 7) if i]), rng.randint(1, 3)),
            },
        )
        x = BasisElement(rng.choice(["L", "Y", "M"]), rng.randint(-6, 6))
        y = BasisElement(rng.choice(["L", "Y", "M"]), rng.randint(-6, 6))
        for coeff, out in SVIR.bracket(x, y, params):
            assert coeff != 0
            assert SVIR.weight(out, params) == SVIR.weight(x, params) + SVIR.weight(y, params)


def test_validate_parameters_errors():
    with pytest.raises(ParameterError, match="out of scope"):
        validate_parameters(SVIR, {"lambda": 2, "mu": 0})
    with pytest.raises(ParameterError, match="missing"):
        validate_parameters(SVIR, {"lambda": 2})
    with pytest.raises(ParameterError, match="unknown"):
        validate_parameters(SVIR, {"lambda": 2, "mu": 1, "nu": 3})
    with pytest.raises(ParameterError):
        validate_parameters(SVIR, {"lambda": 0.5, "mu": 1})  # floats are not exact
    with pytest.raises(ValueError):
        validate_parameters(SVIR, {"lambda": "1/2/3", "mu": 1})


def test_validate_parameters_coercion():
    params = validate_parameters(SVIR, {"lambda": "-1/3", "mu": 2})
    assert params == {"lambda": Fraction(-1, 3), "mu": Fraction(2)}
    assert all(isinstance(v, Fraction) for v in params.values())


V = IndexPolynomial.variable
C = IndexPolynomial.constant


def _rule(left, right, coeff, out, var_left="n", var_right="m"):
    return BracketRule(left, right, var_left, var_right, coeff, out)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"name": "1a"}, "bad algebra name '1a'"),
        ({"families": ("A", "B-")}, "bad identifier 'B-'"),
        ({"parameters": ("p", "p")}, "duplicate parameter name"),
        ({"families": ("A", "B", "A")}, "duplicate family name"),
        ({"parameters": ("p", "B")}, "parameter name collides with a family name"),
        ({"weight_offsets": {"A": C(0)}}, "missing weight for family 'B'"),
        ({"weight_offsets": {"A": C(0), "B": V("z")}}, "weight of 'B' uses unknown variable 'z'"),
        ({"weight_offsets": {"A": C(0), "B": V("p"), "D": C(0)}},
         "weight given for an undeclared family"),
        ({"rules": {("A", "B"): _rule("A", "A", V("m") - V("n"), "A")}},
         "rule key ('A', 'B') does not match rule families"),
        ({"rules": {("A", "D"): _rule("A", "D", V("m"), "A")}},
         "bracket rule uses undeclared family 'D'"),
        ({"rules": {("B", "A"): _rule("B", "A", V("m"), "B")}},
         "rule [B, A] is stored on the reversed family pair"),
        ({"rules": {("A", "B"): _rule("A", "B", V("m"), "D")}},
         "bracket output family 'D' is undeclared"),
        ({"rules": {("A", "A"): _rule("A", "A", V("m"), "A")}},
         "same-family bracket [A, A] must have an index-antisymmetric coefficient"),
        ({"cocycles": {"c-": [CocycleLine("A", "A", V("m"))]}},
         "bad cocycle class name 'c-' or no lines"),
        ({"cocycles": {"c": [CocycleLine("A", "D", V("m"))]}},
         "cocycle 'c' uses an undeclared family or parameter"),
        ({"rules": {("A", "B"): _rule("A", "B", V("n"), "B", var_right="n")}},
         "rule [A, B] repeats an index variable"),
        ({"rules": {("A", "B"): _rule("A", "B", V("m"), "B", var_left="p")}},
         "index variable 'p' collides with a parameter"),
        ({"rules": {("A", "B"): _rule("A", "B", V("z"), "B")}},
         "rule [A, B] uses unknown variable 'z'"),
    ],
)
def test_spec_construction_validates(changes, message):
    # parse() refuses each of these first; a spec built in code meets them here
    args = {
        "name": "a",
        "parameters": ("p",),
        "families": ("A", "B"),
        "weight_offsets": {"A": C(0), "B": V("p")},
        "rules": {("A", "A"): _rule("A", "A", V("m") - V("n"), "A")},
    }
    AlgebraSpec(**args)
    with pytest.raises(ValueError) as info:
        AlgebraSpec(**{**args, **changes})
    assert str(info.value) == message


def test_jacobi_window_svir():
    report = check_jacobi_window(SVIR, {"lambda": -1, "mu": Fraction(1, 3)}, 6)
    assert report.passed
    assert report.witness is None
    # every triple of the 3 * 13 elements with indices in [-6, 6]
    assert report.triples_checked == 9139


def test_jacobi_window_witt():
    report = check_jacobi_window(WITT, {}, 8)
    assert report.passed


CORRUPT_SOURCE = """
algebra bad(lambda, mu) {
  family L weight 0;
  family Y weight mu;
  family M weight 2*mu;
  bracket [L n, L m] = (m - n) L(n + m);
  bracket [L n, Y m] = (m + n) Y(n + m);   # wrong coefficient on purpose
  bracket [Y n, Y m] = (m - n) M(n + m);
  bracket [L n, M m] = (m - lambda*n + 2*mu) M(n + m);
  bracket [Y n, M m] = 0;
  bracket [M n, M m] = 0;
}
"""


def test_jacobi_window_corrupted_spec_fails_with_witness():
    result = parse(CORRUPT_SOURCE)
    assert result.ok, result.diagnostics
    bad = result.spec
    report = check_jacobi_window(bad, {"lambda": 0, "mu": 1}, 4)
    assert not report.passed
    x, y, z, residual = report.witness
    assert residual  # nonzero leftover terms name the failing triple
    assert {x.family, y.family, z.family} <= {"L", "Y", "M"}


def test_jacobi_symbolic():
    report = check_jacobi_symbolic(SVIR)
    assert report.passed
    assert report.residuals == []
    assert check_jacobi_symbolic(WITT).passed


def test_jacobi_symbolic_corrupted_reports_residual():
    bad = parse(CORRUPT_SOURCE).spec
    report = check_jacobi_symbolic(bad)
    assert not report.passed
    assert report.residuals
    fams, out_family, poly = report.residuals[0]
    assert not poly.is_zero()


def test_symbolic_implies_window_spot_checks():
    rng = random.Random(55)
    assert check_jacobi_symbolic(SVIR).passed
    for _ in range(5):
        params = {
            "lambda": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            "mu": Fraction(rng.choice([i for i in range(-9, 10) if i]), rng.randint(1, 5)),
        }
        assert check_jacobi_window(SVIR, params, 6).passed


def test_element_key_orders_by_family_then_index():
    assert SVIR.element_key(L(5)) < SVIR.element_key(Y(-9))
    assert SVIR.element_key(Y(1)) < SVIR.element_key(Y(2))
    assert SVIR.element_key(Y(2)) < SVIR.element_key(M(-3))


def test_basis_element_str():
    assert str(L(3)) == "L(3)"
    assert str(M(-2)) == "M(-2)"
