import random
import string
from fractions import Fraction

import pytest

from lieext.dsl import parse, parse_polynomial, render
from lieext.poly import IndexPolynomial
from lieext.presets import preset_source

V = IndexPolynomial.variable
C = IndexPolynomial.constant


def test_parse_svir_preset():
    result = parse(preset_source("svir"))
    assert result.ok, result.diagnostics
    spec = result.spec
    assert spec.name == "svir"
    assert spec.parameters == ("lambda", "mu")
    assert spec.families == ("L", "Y", "M")
    assert len(spec.rules) == 6  # every unordered family pair carries a rule


def test_parse_empty_algebra():
    result = parse("algebra a(){}")
    assert result.ok
    assert result.spec.families == ()
    assert result.spec.parameters == ()


def test_non_additive_output_index_rejected():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, L m] = (m - n) L(n * m);
}
"""
    result = parse(src)
    assert not result.ok
    assert any(d.code == "non-additive-output-index" for d in result.errors())


def test_undeclared_family_rejected():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, Q m] = (m - n) L(n + m);
}
"""
    result = parse(src)
    assert not result.ok
    assert any(d.code == "undeclared-family" for d in result.errors())


def test_reversed_family_pair_rejected():
    src = """
algebra bad(mu) {
  family L weight 0;
  family Y weight mu;
  bracket [Y n, L m] = (m - n) Y(n + m);
}
"""
    result = parse(src)
    assert not result.ok
    assert any(d.code == "reversed-family-pair" for d in result.errors())


def test_duplicate_bracket_rejected():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, L m] = (m - n) L(n + m);
  bracket [L n, L m] = 0;
}
"""
    result = parse(src)
    assert not result.ok
    assert any(d.code == "duplicate-bracket" for d in result.errors())


def test_same_family_rule_must_be_antisymmetric():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, L m] = (m + n) L(n + m);
}
"""
    result = parse(src)
    assert not result.ok
    assert any(d.code == "non-antisymmetric" for d in result.errors())


def test_division_by_variable_rejected():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, L m] = (m/n - n/m) L(n + m);
}
"""
    result = parse(src)
    assert not result.ok
    assert any(d.code in ("non-polynomial-coefficient", "division-by-zero") for d in result.errors())


def test_missing_pairs_default_to_zero_with_warning():
    src = """
algebra partial(mu) {
  family L weight 0;
  family Y weight mu;
  bracket [L n, L m] = (m - n) L(n + m);
}
"""
    result = parse(src)
    assert result.ok
    warnings = [d for d in result.diagnostics if d.severity == "warning"]
    assert any(d.code == "missing-bracket-default" for d in warnings)
    spec = result.spec
    assert len(spec.rules) == 3  # L-L declared, L-Y and Y-Y zero-filled
    assert spec.rules[("L", "Y")].is_zero()
    assert spec.rules[("Y", "Y")].is_zero()


def test_diagnostics_carry_positions():
    src = "algebra bad() {\n  family L weight 0;\n  bracket [L n, Q m] = (m - n) L(n + m);\n}"
    result = parse(src)
    assert not result.ok
    lines = src.split("\n")
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert diag.col >= 1


def test_render_canonicalizes_rationals():
    src = """
algebra canon() {
  family L weight 0;
  bracket [L n, L m] = (2/4*m - 2/4*n) L(n + m);
}
"""
    result = parse(src)
    assert result.ok
    text = render(result.spec)
    assert "2/4" not in text
    assert "1/2" in text


def test_round_trip_presets():
    for name in ("svir", "witt"):
        spec = parse(preset_source(name)).spec
        again = parse(render(spec))
        assert again.ok, again.diagnostics
        assert again.spec == spec


def _random_poly_text(rng, variables):
    poly = IndexPolynomial()
    for _ in range(rng.randint(1, 4)):
        term = C(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for var in variables:
            for _ in range(rng.randint(0, 2)):
                term = term * V(var)
        poly = poly + term
    return poly, poly.to_text(tuple(variables))


def _random_spec_source(rng):
    params = rng.sample(["alpha", "beta", "gam"], rng.randint(0, 2))
    families = rng.sample(["A", "B", "Cc", "Dd"], rng.randint(1, 3))
    lines = [f"algebra rnd{rng.randint(0, 99)}({', '.join(params)}) {{"]
    for fam in families:
        _, wtext = _random_poly_text(rng, params) if params and rng.random() < 0.7 else (None, str(rng.randint(-3, 3)))
        lines.append(f"  family {fam} weight {wtext};")
    for i, fa in enumerate(families):
        for fb in families[i:]:
            if rng.random() < 0.25:
                lines.append(f"  bracket [{fa} n, {fb} m] = 0;")
                continue
            out = rng.choice(families)
            if fa == fb:
                q, _ = _random_poly_text(rng, ["n", "m"] + params)
                coeff = q - q.substitute({"n": V("m"), "m": V("n")})
            else:
                coeff, _ = _random_poly_text(rng, ["n", "m"] + params)
            if coeff.is_zero():
                lines.append(f"  bracket [{fa} n, {fb} m] = 0;")
            else:
                text = coeff.to_text(("n", "m") + tuple(params))
                lines.append(f"  bracket [{fa} n, {fb} m] = ({text}) {out}(n + m);")
    lines.append("}")
    return "\n".join(lines)


def test_round_trip_random_specs():
    rng = random.Random(630)
    done = 0
    while done < 20:
        src = _random_spec_source(rng)
        result = parse(src)
        assert result.ok, (src, result.diagnostics)
        again = parse(render(result.spec))
        assert again.ok, (render(result.spec), again.diagnostics)
        assert again.spec == result.spec
        done += 1


FUZZ_ALPHABET = (
    string.ascii_letters + string.digits + " \t\n(){}[];,=+-*/#" + "\x00\xffé"
)


def test_fuzz_never_raises():
    rng = random.Random(0xFEED)
    for _ in range(2000):
        text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, 120)))
        result = parse(text)
        if result.ok:
            assert result.spec is not None
        else:
            errs = result.errors()
            assert errs
            assert all(d.line >= 1 and d.col >= 1 for d in errs)


def test_fuzz_mutated_preset():
    rng = random.Random(0xBEEF)
    base = preset_source("svir")
    for _ in range(300):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(FUZZ_ALPHABET)
        result = parse("".join(chars))
        if result.ok:
            assert result.spec is not None


def test_error_cap_on_pathological_input():
    result = parse(";" * 100000)
    assert not result.ok
    assert len(result.diagnostics) <= 101  # capped, not one per semicolon


def test_deep_nesting_rejected():
    depth = 300
    src = (
        "algebra deep() {\n  family L weight 0;\n  bracket [L n, L m] = "
        + "(" * depth
        + "m - n"
        + ")" * depth
        + " L(n + m);\n}"
    )
    result = parse(src)
    assert not result.ok
    assert any(d.code == "nesting" for d in result.errors())


def test_long_unary_sign_run_rejected():
    # every unary sign is one level of nesting, like a parenthesis
    signs = "-" * 5000
    result = parse("algebra deep() {\n  family L weight " + signs + "1;\n}")
    assert not result.ok
    assert any(d.code == "nesting" for d in result.errors())
    with pytest.raises(ValueError, match="nesting"):
        parse_polynomial(signs + "m", ("m",))


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_non_ascii_digit_rejected(digit):
    result = parse("algebra a() {\n  family L weight " + digit + ";\n}")
    assert not result.ok
    assert any(d.code == "bad-character" for d in result.errors())
    with pytest.raises(ValueError, match="bad-character"):
        parse_polynomial("m + " + digit, ("m",))


def test_parse_polynomial_helper():
    p = parse_polynomial("(m + mu)*(m + mu + 1)/2", ("m", "mu"))
    assert p.evaluate({"m": 1, "mu": 1}) == 3
    with pytest.raises(ValueError):
        parse_polynomial("m + q", ("m", "mu"))  # unknown variable
    with pytest.raises(ValueError):
        parse_polynomial("m +", ("m",))


def test_comments_and_whitespace():
    src = """
# leading comment
algebra c() {   # trailing comment
  family L weight 0;  # another
  bracket [L n, L m] = (m - n) L(n + m);
}
"""
    result = parse(src)
    assert result.ok
    assert result.spec.name == "c"
