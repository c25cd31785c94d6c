import random
import string
import time
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


def test_zero_rules_take_fresh_names_past_the_pool():
    # the parameters take every name of the pool n, m, i, ..., t
    src = """
algebra pool(n, m, i, j, k, p, q, r, s, t) {
  family A weight 0;
  family B weight 0;
  bracket [A a, A b] = (b - a) A(a + b);
}
"""
    spec = parse(src).spec
    rule = spec.rules[("A", "B")]
    assert rule.is_zero() and (rule.var_left, rule.var_right) == ("x0", "x1")
    assert parse(render(spec)).spec == spec


@pytest.mark.parametrize(
    "src, message",
    [
        ("x", "expected 'algebra', found 'x'"),
        ("", "expected 'algebra', found end of input"),
        ("algebra a() { family L wait 0; }", "expected 'weight', found 'wait'"),
    ],
)
def test_missing_keyword_is_named(src, message):
    assert [d.message for d in parse(src).diagnostics] == [message]


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
    for k in range(rng.choice((0, 0, 1, 2))):
        lines.append(f"  cocycle k{k}-v{rng.randint(0, 9)} {{")
        for _ in range(rng.randint(1, 2)):
            fa, fb = rng.choice(families), rng.choice(families)
            _, ctext = _random_poly_text(rng, ["m"] + params)
            rhs = f"({ctext})"
            if rng.random() < 0.4:
                constant, _ = _random_poly_text(rng, params)
                slope = rng.choice((-2, -1, 1, 3))
                rhs += f" / ({(constant + slope * V('m')).to_text(('m',) + tuple(params))})"
            _, offset = _random_poly_text(rng, params) if params else (None, str(rng.randint(-3, 3)))
            lines.append(f"    [{fa} n, {fb} m] = {rhs} on n + m = {offset};")
        lines.append("  }")
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
        assert (result.spec is None) == bool(result.errors())
        assert all(d.line >= 1 and d.col >= 1 for d in result.errors())


def test_fuzz_mutated_preset():
    rng = random.Random(0xBEEF)
    base = preset_source("svir")
    for _ in range(300):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(FUZZ_ALPHABET)
        result = parse("".join(chars))
        assert (result.spec is None) == bool(result.errors())


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


COCYCLE_SOURCE = """
algebra ren(lam, nu) {
  family A weight 0;
  family B weight nu;
  bracket [A n, A m] = (m - n) A(n + m);
  bracket [A n, B m] = (m + nu) B(n + m);
  bracket [B n, B m] = 0;
  cocycle ab-half-one { [A i, B j] = (j + nu)/2 / (2*j + nu) on i + j = 2 - 3*nu/2; }
  cocycle aa {
    [A n, A m] = m*m*m - m on n + m = 0;
    [B n, B m] = lam on m + n = -2*nu;
  }
}
"""


def test_cocycle_blocks_parse_and_round_trip():
    result = parse(COCYCLE_SOURCE)
    assert result.ok, result.diagnostics
    spec = result.spec
    assert list(spec.cocycles) == ["ab-half-one", "aa"]
    (line,) = spec.cocycles["ab-half-one"]
    assert (line.family_a, line.family_b, line.var_a, line.var_b) == ("A", "B", "i", "j")
    assert line.coeff == (V("j") + V("nu")) / 2
    assert line.denom == 2 * V("j") + V("nu")
    assert line.offset == 2 - Fraction(3, 2) * V("nu")
    assert [ln.offset for ln in spec.cocycles["aa"]] == [C(0), -2 * V("nu")]
    text = render(spec)
    assert "cocycle ab-half-one {" in text
    assert "/ (2*j + nu) on i + j = -3/2*nu + 2;" in text
    again = parse(text)
    assert again.ok, again.diagnostics
    assert again.spec == spec
    # the classes take part in equality, and so does their order
    reordered = parse(COCYCLE_SOURCE.replace("cocycle aa", "cocycle zz"))
    assert reordered.ok and reordered.spec != spec


def test_library_built_cocycle_lines_round_trip():
    from lieext.algebra import AlgebraSpec, CocycleLine

    witt = parse(preset_source("witt")).spec
    lines = [
        CocycleLine("L", "L", V("m"), denom=C(2)),  # kept as m/2 over 1
        CocycleLine("L", "L", C(3), C(0), 2 * V("k") + 1, "j", "k"),
    ]
    spec = AlgebraSpec("w", (), witt.families, witt.weight_offsets, witt.rules, {"half": lines})
    assert spec.cocycles["half"][0].coeff == V("m") / 2
    again = parse(render(spec))
    assert again.ok, again.diagnostics
    assert again.spec == spec


def test_cocycle_reason_is_rendered_from_the_offset():
    from lieext.engine import KnownCocycle

    spec = parse(COCYCLE_SOURCE).spec
    ab = KnownCocycle("ab-half-one", spec.cocycles["ab-half-one"])
    assert ab.applicability(spec, {"lam": Fraction(0), "nu": Fraction(1, 3)}) == "requires 3/2*nu - 2 integer"
    assert (
        ab.applicability(spec, {"lam": Fraction(0), "nu": Fraction(2)})
        == "denominator 2*j + nu vanishes at an integer index"
    )
    assert ab.applicability(spec, {"lam": Fraction(0), "nu": Fraction(2, 3)}) is None


@pytest.mark.parametrize(
    "line, code",
    [
        ("[A n, Q m] = 1 on n + m = 0;", "undeclared-family"),
        ("[A n, B m] = n on n + m = 0;", "unknown-variable"),
        ("[A n, B m] = 1 on n + m = m;", "unknown-variable"),
        ("[A n, B m] = 1 on n - m = 0;", "non-additive-support"),
        ("[A n, B n] = 1 on n + n = 0;", "duplicate-index-variable"),
        ("[A n, B nu] = 1 on n + nu = 0;", "index-shadows-parameter"),
        ("[A n, B m] = 1/(m + nu) + 1 on n + m = 0;", "non-polynomial-coefficient"),
        ("[A n, B m] = 1 + 1/(m + nu) on n + m = 0;", "non-polynomial-coefficient"),
        ("[A n, B m] = (1/(m + nu)) on n + m = 0;", "non-polynomial-coefficient"),
        ("[A n, B m] = 1 / (m*m + nu) on n + m = 0;", "bad-denominator"),
        ("[A n, B m] = 1 / (m - m) on n + m = 0;", "division-by-zero"),
        ("[A n, B m] = 1 n + m = 0;", "syntax"),
    ],
)
def test_cocycle_line_diagnostics(line, code):
    source = "algebra a(nu) {\n  family A weight 0;\n  family B weight nu;\n"
    result = parse(source + "  cocycle c {\n    " + line + "\n  }\n}")
    assert not result.ok
    assert code in {d.code for d in result.errors()}, result.diagnostics


@pytest.mark.parametrize(
    "block, code",
    [
        ("cocycle c { }", "empty-cocycle"),
        ("cocycle c { [A n, A m] = m on n + m = 0; } cocycle c { [A n, A m] = m on n + m = 0; }", "duplicate-cocycle"),
        ("cocycle c- { [A n, A m] = m on n + m = 0; }", "syntax"),
        ("cocycle on { [A n, A m] = m on n + m = 0; }", "reserved-word"),
    ],
)
def test_cocycle_block_diagnostics(block, code):
    result = parse("algebra a() {\n  family A weight 0;\n  " + block + "\n}")
    assert not result.ok
    assert code in {d.code for d in result.errors()}, result.diagnostics


def test_quadratic_cocycle_denominator_is_a_diagnostic_not_a_hang():
    # the integer-root test of a quadratic denominator would have to try the
    # divisors of its constant term, about 10**15 of them at mu = 10**30
    source = preset_source("svir").replace("1 / (m + mu)", "1 / (m*m + mu)")
    start = time.perf_counter()
    result = parse(source)
    assert not result.ok
    (error,) = result.errors()
    assert error.code == "bad-denominator"
    assert "degree 2 or more in m" in error.message
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "src, diagnostic",
    [
        ("algebra a(p, p) {\n  family L weight 0;\n}",
         "1:14: error[duplicate-parameter]: duplicate parameter 'p'"),
        ("algebra a() {\n  family L weight 0;\n  family L weight 1;\n}",
         "3:10: error[duplicate-family]: duplicate family 'L'"),
        ("algebra a(p) {\n  family p weight 0;\n}",
         "2:10: error[name-collision]: family 'p' collides with a parameter"),
    ],
)
def test_declaration_diagnostics(src, diagnostic):
    assert [str(d) for d in parse(src).errors()] == [diagnostic]


@pytest.mark.parametrize(
    "src, line, col",
    [
        ("algebra a() {\n  family Ŷ weight 0;\n}", 2, 10),  # Y with circumflex
        ("algebra a() {\n  family L½ weight 0;\n}", 2, 11),  # vulgar half
        ("algebra a(µ) {\n  family L weight 0;\n}", 1, 11),  # micro sign
        ("algebra a() {\n  family L weight 0;\n  bracket [L ñ, L m] = (m - n) L(n + m);\n}", 3, 14),
        ("algebra a() {\n  family L weight 0;\n  bracket [L n, L m] = (m - n) L(n + m);\n"
         "  cocycle vïr { [L n, L m] = m on n + m = 0; }\n}", 4, 12),
        ("algebra a() {\n  family L² weight 0;\n}", 2, 11),  # superscript two
    ],
    ids=["family", "family-numeric", "parameter", "index-variable", "class", "digit-in-name"],
)
def test_non_ascii_letter_or_digit_in_a_name_is_a_bad_character(src, line, col):
    # names are ASCII, as AlgebraSpec checks them: the character is the
    # error, where it stands, and the spec is never built
    errors = parse(src).errors()
    assert (errors[0].line, errors[0].col, errors[0].code) == (line, col, "bad-character")
    assert src.split("\n")[line - 1][col - 1] in errors[0].message
    assert "invalid-spec" not in {d.code for d in errors}
