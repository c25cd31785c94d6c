import random
import string
import time
from fractions import Fraction

import pytest

from lieext.algebra import AlgebraSpec, BracketRule, CocycleLine
from lieext.dsl import _Abort, _Parser, parse, render
from lieext.poly import IndexPolynomial
from lieext.presets import preset_source

from isomorphism import substitute

V = IndexPolynomial.variable
C = IndexPolynomial.constant


def parse_polynomial(text: str, variables) -> IndexPolynomial:
    """A bare expression over the given variables, read by the .lie
    expression grammar; raises ValueError with the first error."""
    parser = _Parser(text)
    try:
        value = parser.parse_expr(frozenset(variables))
        if parser.peek().kind != "eof":
            parser.error("syntax", f"unexpected trailing input {parser.peek().text!r}")
    except _Abort:
        value = None
    errors = [d for d in parser.diagnostics if d.severity == "error"]
    if errors:
        raise ValueError(f"bad polynomial {text!r}: {errors[0]}")
    return value


def test_parse_svir_preset():
    result = parse(preset_source("svir"))
    assert result.spec is not None, result.diagnostics
    spec = result.spec
    assert spec.name == "svir"
    assert spec.parameters == ("lambda", "mu")
    assert spec.families == ("L", "Y", "M")
    assert len(spec.rules) == 6  # every unordered family pair carries a rule


def test_parse_empty_algebra():
    result = parse("algebra a(){}")
    assert result.spec is not None
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
    assert result.spec is None
    assert any(d.code == "non-additive-output-index" for d in result.errors())


def test_undeclared_family_rejected():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, Q m] = (m - n) L(n + m);
}
"""
    result = parse(src)
    assert result.spec is None
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
    assert result.spec is None
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
    assert result.spec is None
    assert any(d.code == "duplicate-bracket" for d in result.errors())


def test_same_family_rule_must_be_antisymmetric():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, L m] = (m + n) L(n + m);
}
"""
    result = parse(src)
    assert result.spec is None
    assert any(d.code == "non-antisymmetric" for d in result.errors())


def test_division_by_variable_rejected():
    src = """
algebra bad() {
  family L weight 0;
  bracket [L n, L m] = (m/n - n/m) L(n + m);
}
"""
    result = parse(src)
    assert result.spec is None
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
    assert result.spec is not None
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
    # a family is declared once its name is read, so its pair with no rule
    # still warns
    defaults = ["no bracket rule for [L, L]; defaulting to zero"] * ("family L" in src)
    assert [d.message for d in parse(src).diagnostics] == [message, *defaults]


def test_diagnostics_carry_positions():
    src = "algebra bad() {\n  family L weight 0;\n  bracket [L n, Q m] = (m - n) L(n + m);\n}"
    result = parse(src)
    assert result.spec is None
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
    assert result.spec is not None
    text = render(result.spec)
    assert "2/4" not in text
    assert "1/2" in text


def test_round_trip_presets():
    for name in ("svir", "witt"):
        spec = parse(preset_source(name)).spec
        again = parse(render(spec))
        assert again.spec is not None, again.diagnostics
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
                coeff = q - substitute(q, {"n": V("m"), "m": V("n")})
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
        assert result.spec is not None, (src, result.diagnostics)
        again = parse(render(result.spec))
        assert again.spec is not None, (render(result.spec), again.diagnostics)
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
    assert result.spec is None
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
    assert result.spec is None
    assert any(d.code == "nesting" for d in result.errors())


def test_long_unary_sign_run_rejected():
    # every unary sign is one level of nesting, like a parenthesis
    signs = "-" * 5000
    result = parse("algebra deep() {\n  family L weight " + signs + "1;\n}")
    assert result.spec is None
    assert any(d.code == "nesting" for d in result.errors())
    with pytest.raises(ValueError, match="nesting"):
        parse_polynomial(signs + "m", ("m",))


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_non_ascii_digit_rejected(digit):
    result = parse("algebra a() {\n  family L weight " + digit + ";\n}")
    assert result.spec is None
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
    assert result.spec is not None
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
    assert result.spec is not None, result.diagnostics
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
    assert again.spec is not None, again.diagnostics
    assert again.spec == spec
    # the classes take part in equality, and so does their order
    reordered = parse(COCYCLE_SOURCE.replace("cocycle aa", "cocycle zz"))
    assert reordered.spec is not None and reordered.spec != spec


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
    assert again.spec is not None, again.diagnostics
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
    assert result.spec is None
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
    assert result.spec is None
    assert code in {d.code for d in result.errors()}, result.diagnostics


def test_quadratic_cocycle_denominator_is_a_diagnostic_not_a_hang():
    # the integer-root test of a quadratic denominator would have to try the
    # divisors of its constant term, about 10**15 of them at mu = 10**30
    source = preset_source("svir").replace("1 / (m + mu)", "1 / (m*m + mu)")
    start = time.perf_counter()
    result = parse(source)
    assert result.spec is None
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


def _lie(items="", name="a", parameter="p", more="") -> str:
    """The text of the spec SHARED_ARGS, with items added, its name or
    parameter changed, or more parameters declared after it."""
    return f"algebra {name}({parameter}{more}) {{\n  family A weight 0;\n  family B weight {parameter};\n  {items}\n}}"


SHARED_ARGS = {
    "name": "a",
    "parameters": ("p",),
    "families": ("A", "B"),
    "weight_offsets": {"A": C(0), "B": V("p")},
    "rules": {},
}
ZERO = IndexPolynomial()


@pytest.mark.parametrize(
    "code, text, changes",
    [
        ("undeclared-family", {"items": "bracket [A n, D m] = m A(n + m);"},
         {"rules": {("A", "D"): BracketRule("A", "D", "n", "m", V("m"), "A")}}),
        ("undeclared-family", {"items": "bracket [A n, B m] = m D(n + m);"},
         {"rules": {("A", "B"): BracketRule("A", "B", "n", "m", V("m"), "D")}}),
        ("reversed-family-pair", {"items": "bracket [B n, A m] = m B(n + m);"},
         {"rules": {("B", "A"): BracketRule("B", "A", "n", "m", V("m"), "B")}}),
        ("missing-output-family", {"items": "bracket [A n, A m] = (m - n);"},
         {"rules": {("A", "A"): BracketRule("A", "A", "n", "m", V("m") - V("n"), None)}}),
        ("non-antisymmetric", {"items": "bracket [A n, A m] = m A(n + m);"},
         {"rules": {("A", "A"): BracketRule("A", "A", "n", "m", V("m"), "A")}}),
        ("duplicate-index-variable", {"items": "bracket [A n, B n] = 0;"},
         {"rules": {("A", "B"): BracketRule("A", "B", "n", "n", ZERO, None)}}),
        ("duplicate-index-variable", {"items": "cocycle c { [A m, A m] = 1 on m + m = 0; }"},
         {"cocycles": {"c": [CocycleLine("A", "A", C(1), var_a="m")]}}),
        ("index-shadows-parameter", {"items": "bracket [A p, B m] = 0;"},
         {"rules": {("A", "B"): BracketRule("A", "B", "p", "m", ZERO, None)}}),
        ("index-shadows-parameter", {"items": "cocycle c { [A n, B p] = 1 on n + p = 0; }"},
         {"cocycles": {"c": [CocycleLine("A", "B", C(1), var_b="p")]}}),
        ("reserved-word", {"name": "on"}, {"name": "on"}),
        ("reserved-word", {"parameter": "weight"},
         {"parameters": ("weight",), "weight_offsets": {"A": C(0), "B": V("weight")}}),
        ("reserved-word", {"items": "family on weight 0;"},
         {"families": ("A", "B", "on"), "weight_offsets": {"A": C(0), "B": V("p"), "on": C(0)}}),
        ("reserved-word", {"items": "bracket [A on, B m] = 0;"},
         {"rules": {("A", "B"): BracketRule("A", "B", "on", "m", ZERO, None)}}),
        ("reserved-word", {"items": "cocycle on { [A n, A m] = 1 on n + m = 0; }"},
         {"cocycles": {"on": [CocycleLine("A", "A", C(1))]}}),
        ("duplicate-parameter", {"more": ", p"}, {"parameters": ("p", "p")}),
        ("duplicate-family", {"items": "family A weight 0;"}, {"families": ("A", "B", "A")}),
        ("name-collision", {"items": "family p weight 0;"},
         {"families": ("A", "B", "p"), "weight_offsets": {"A": C(0), "B": V("p"), "p": C(0)}}),
        ("undeclared-family", {"items": "cocycle c { [A n, D m] = 1 on n + m = 0; }"},
         {"cocycles": {"c": [CocycleLine("A", "D", C(1))]}}),
    ],
)
def test_parse_and_spec_refuse_alike(code, text, changes):
    # algebra.py holds one check per rule of a spec; the parser reports its
    # problems at their tokens, and AlgebraSpec raises the first, with the
    # same message.  The text and the changed arguments are the same pieces
    assert parse(_lie()).spec == AlgebraSpec(**SHARED_ARGS)
    first = parse(_lie(**text)).diagnostics[0]
    assert (first.severity, first.code) == ("error", code)
    with pytest.raises(ValueError) as info:
        AlgebraSpec(**{**SHARED_ARGS, **changes})
    assert str(info.value) == first.message


def test_missing_output_family_is_reported_once_at_the_bracket():
    src = "algebra a() {\n  family L weight 0;\n  bracket [L n, L m] = (m - n);\n}"
    assert [str(d) for d in parse(src).errors()] == [
        "3:12: error[missing-output-family]: a nonzero bracket needs an output family"
    ]


# a rule each refusal code refuses, on a pair that has no other rule
REFUSED_RULES = {
    "missing-output-family": "bracket [L n, L m] = (m - n); bracket [L n, M m] = 0;",
    "undeclared-family": "bracket [L n, L m] = (m - n) Q(n + m); bracket [L n, M m] = 0;",
    "non-antisymmetric": "bracket [L n, L m] = (m + n) L(n + m); bracket [L n, M m] = 0;",
    "reversed-family-pair": "bracket [L n, L m] = (m - n) L(n + m); bracket [M n, L m] = m M(n + m);",
}


@pytest.mark.parametrize("code", REFUSED_RULES)
def test_a_refused_rule_is_no_missing_rule(code):
    # the pair of a refused rule gets its error and no missing-bracket-default
    # warning, which would name the wrong cause; [M, M], which no rule
    # names, still warns
    src = f"algebra a() {{ family L weight 0; family M weight 0; {REFUSED_RULES[code]} }}"
    first, *rest = parse(src).diagnostics
    assert (first.severity, first.code) == ("error", code)
    assert [(d.severity, d.code, d.message) for d in rest] == [
        ("warning", "missing-bracket-default", "no bracket rule for [M, M]; defaulting to zero")
    ]


def test_one_parse_reports_every_error():
    # an error elsewhere in the text does not stop the checks of the rules
    # that parsed against the declarations
    src = "\n".join([
        "algebra a() {",
        "family L weight 0;",
        "bracket [L n, L m] = (m - n);",
        "bracket [L n, D m] = m L(n + m);",
        "family K weight 1 $;",
        "}",
    ])
    assert [f"{d.line}:{d.col} {d.code}" for d in parse(src).errors()] == [
        "5:19 bad-character",
        "3:10 missing-output-family",
        "4:15 undeclared-family",
    ]


def test_a_rule_with_an_error_has_its_families_checked_and_not_its_coefficient():
    # the unknown x reads as zero, so (m - x) would look non-antisymmetric
    src = (
        "algebra a() {\n  family L weight 0;\n  bracket [L n, L m] = (m - x) L(n + m);\n"
        "  bracket [L n, D m] = x L(n + m);\n}"
    )
    assert [str(d) for d in parse(src).errors()] == [
        "3:29: error[unknown-variable]: unknown variable 'x'",
        "4:24: error[unknown-variable]: unknown variable 'x'",
        "4:17: error[undeclared-family]: undeclared family 'D'",
    ]


def test_a_family_declared_twice_warns_once_per_pair():
    src = "algebra a() {\n  family L weight 0;\n  family L weight 1;\n  family M weight 0;\n}"
    assert [str(d) for d in parse(src).diagnostics] == [
        "3:10: error[duplicate-family]: duplicate family 'L'",
        "1:9: warning[missing-bracket-default]: no bracket rule for [L, L]; defaulting to zero",
        "1:9: warning[missing-bracket-default]: no bracket rule for [L, M]; defaulting to zero",
        "1:9: warning[missing-bracket-default]: no bracket rule for [M, M]; defaulting to zero",
    ]
