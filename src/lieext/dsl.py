"""Text format for algebra definitions.

Grammar (comments run from "#" to end of line):

    file    := "algebra" IDENT "(" [ IDENT { "," IDENT } ] ")" "{" item* "}"
    item    := "family" IDENT "weight" expr ";"
             | "bracket" head "=" rhs ";"
             | "cocycle" name "{" line+ "}"
    head    := "[" IDENT IDENT "," IDENT IDENT "]"
    rhs     := expr [ IDENT "(" expr ")" ]
    name    := IDENT { "-" IDENT }
    line    := head "=" expr [ "/" factor ] "on" expr "=" expr ";"
    expr    := term { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := INT | IDENT | "(" expr ")" | ("+" | "-") factor
    IDENT   := [A-Za-z][A-Za-z0-9_]*
    INT     := [0-9]+

Names and integers are ASCII (algebra.IDENT_RE is the one name rule).
Blanks are spaces, tabs and carriage returns (rational._BLANKS, the ones a
value read from outside the program may carry around it); any other
character outside a comment is a bad-character error at its own line and
column.

In a head the identifier after each family names its index variable.  In a
bracket item the trailing IDENT "(" expr ")" of a rhs is the output family
and its index, which must be exactly the sum of the two index variables.  A
rhs that is just the zero polynomial declares a vanishing bracket.  Division
is legal only by a nonzero constant, so every coefficient stays polynomial.

A cocycle item declares a named closed-form class, one line per pair sector
(algebra.CocycleLine): [A n, B m] = c / d on n + m = t is psi(A_n, B_m) =
c(m) / d(m) where n + m = t, and 0 on the sector's other pairs.  c and d
are in the second index variable and the parameters, t in the parameters.
The denominator, of degree at most 1 in m, is the one division by a
non-constant allowed, as the last operation of the coefficient.

The rules a spec must obey are written once, in algebra.py, for the parser
and for a spec built in code (AlgebraSpec): the name rule (IDENT_RE, and
KEYWORDS, the reserved words), the check of the declared parameters and
families, the check of a head's index variables, the check of a bracket
rule against the declared families and that of a class line's families.
Each check returns its problems as (code, message, where); the parser
reports each at the token where names, and AlgebraSpec raises the first.
Only what needs the text stays here: positions, syntax, unknown variables
in an expression, a repeated bracket rule or class.

parse() never raises: it returns a ParseResult whose spec is None when any
error-severity diagnostic was produced.  Unless an error stops the reading
of the text, every declaration, rule and class line that parsed is checked,
whatever else failed, so one parse reports the file's problems; a rule
whose own text has an error is checked with a zero coefficient, so that
only its families are.  Family pairs without a rule are filled in as zero
brackets with a warning.  render() emits canonical text and
parse(render(spec)) reproduces spec exactly.
"""

from __future__ import annotations

import re

from .algebra import (
    IDENT_RE,
    AlgebraSpec,
    BracketRule,
    CocycleLine,
    _declaration_problems,
    _head_problems,
    _name_problems,
    _Record,
    _rule_problems,
    _undeclared_problems,
    _Value,
)
from .poly import IndexPolynomial
from .rational import _BLANKS

# One token per match, after any blanks: a character that starts no other
# token and is no blank is "bad".  No \d or \w, which admit non-ASCII
# digits and letters.
_TOKEN_RE = re.compile(
    rf"[{_BLANKS}]*(?:(?P<newline>\n)|(?P<comment>#.*)|(?P<int>[0-9]+)"
    rf"|(?P<ident>{IDENT_RE.pattern})|(?P<punct>[(){{}}\[\],;=+\-*/])|(?P<bad>[^{_BLANKS}\n]))"
)
_MAX_EXPR_DEPTH = 64
_MAX_ERRORS = 100


class Diagnostic(_Value):
    def __init__(self, line: int, col: int, severity: str, code: str, message: str):
        # severity is "error" or "warning"
        self.__dict__.update(line=line, col=col, severity=severity, code=code, message=message)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}[{self.code}]: {self.message}"


class ParseResult(_Record):
    def __init__(self, spec: AlgebraSpec | None, diagnostics: list):
        self.spec = spec
        self.diagnostics = diagnostics

    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity == "error"]


class _Token(_Value):
    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind is "ident", "int", a punctuation literal or "eof"
        self.__dict__.update(kind=kind, text=text, line=line, col=col)


class _Abort(Exception):
    pass


def _tokenize(source: str, diagnostics: list) -> list:
    tokens, line, line_start = [], 1, 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind != "comment":
            text, col = match[kind], match.start(kind) - line_start + 1
            if kind != "bad":
                tokens.append(_Token(text if kind == "punct" else kind, text, line, col))
            elif len(diagnostics) < _MAX_ERRORS:
                diagnostics.append(Diagnostic(line, col, "error", "bad-character", f"unexpected character {text!r}"))
    # the end of input; after a comment on the last line, it sits at the "#"
    tokens.append(_Token("eof", "", line, len(source[line_start:].partition("#")[0]) + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.diagnostics: list = []
        self.tokens = _tokenize(source, self.diagnostics)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, code: str, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        if len(self.diagnostics) >= _MAX_ERRORS:
            raise _Abort()
        self.diagnostics.append(Diagnostic(tok.line, tok.col, "error", code, message))

    def report(self, problems: list, tokens) -> bool:
        """Report each (code, message, where) of a check of algebra.py at
        tokens[where]; whether there was any."""
        for code, message, where in problems:
            self.error(code, message, tokens[where])
        return bool(problems)

    def warning(self, code: str, message: str, tok: _Token):
        self.diagnostics.append(Diagnostic(tok.line, tok.col, "warning", code, message))

    def expect(self, kind: str, what: str, text: str | None = None) -> _Token:
        """The next token; it must be of this kind and, when text is given, read text."""
        tok = self.peek()
        if tok.kind != kind or text not in (None, tok.text):
            self.error("syntax", f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input")
            raise _Abort()
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        return self.expect("ident", repr(word), word)

    def ident(self, what: str) -> _Token:
        tok = self.expect("ident", what)
        self.report(_name_problems([tok.text]), [tok])
        return tok

    def sync_to_semicolon(self):
        while self.peek().kind not in (";", "}", "eof"):
            self.advance()
        if self.peek().kind == ";":
            self.advance()

    # expressions

    def check_depth(self, depth: int):
        if depth > _MAX_EXPR_DEPTH:
            self.error("nesting", "expression nesting too deep")
            raise _Abort()

    def parse_expr(self, allowed: frozenset, depth: int = 0, quotient: list | None = None) -> IndexPolynomial:
        """quotient, when given, receives a cocycle line's denominator: a
        division by a non-constant that ends the expression's first term
        just before "on", so that it divides the whole coefficient."""
        self.check_depth(depth)
        value = self.parse_term(allowed, depth, quotient)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term(allowed, depth)
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self, allowed: frozenset, depth: int, quotient: list | None = None) -> IndexPolynomial:
        value = self.parse_factor(allowed, depth)
        while self.peek().kind in ("*", "/"):
            op_tok = self.advance()
            rhs = self.parse_factor(allowed, depth)
            if op_tok.kind == "*":
                value = value * rhs
            elif not rhs.is_constant():
                if quotient is not None and (self.peek().kind, self.peek().text) == ("ident", "on"):
                    quotient.append(rhs)
                else:
                    self.error(
                        "non-polynomial-coefficient",
                        "division is only allowed by a nonzero constant",
                        op_tok,
                    )
            elif rhs.constant_value() == 0:
                self.error("division-by-zero", "division by zero", op_tok)
            else:
                value = value / rhs.constant_value()
        return value

    def parse_factor(self, allowed: frozenset, depth: int) -> IndexPolynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IndexPolynomial.constant(int(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.report(_name_problems([tok.text]), [tok]):
                return IndexPolynomial()
            if tok.text not in allowed:
                self.error("unknown-variable", f"unknown variable {tok.text!r}", tok)
                return IndexPolynomial()
            return IndexPolynomial.variable(tok.text)
        if tok.kind == "(":
            self.advance()
            value = self.parse_expr(allowed, depth + 1)
            self.expect(")", "')'")
            return value
        if tok.kind in ("+", "-"):
            self.check_depth(depth)
            self.advance()
            value = self.parse_factor(allowed, depth + 1)
            return value if tok.kind == "+" else -value
        self.error("syntax", f"expected an expression, found {tok.text!r}" if tok.text else "expected an expression, found end of input")
        raise _Abort()

    # items

    def parse_algebra(self) -> AlgebraSpec | None:
        param_toks: list = []
        family_toks: list = []
        offsets: dict = {}
        brackets: list = []
        classes: dict = {}  # name -> [(CocycleLine or None, family tokens)]
        try:
            self.expect_keyword("algebra")
            name_tok = self.ident("an algebra name")
            self.expect("(", "'('")
            if self.peek().kind != ")":
                while True:
                    param_toks.append(self.ident("a parameter name"))
                    if self.peek().kind != ",":
                        break
                    self.advance()
            params = [tok.text for tok in param_toks]
            self.expect(")", "')'")
            self.expect("{", "'{'")
            items = {
                "family": lambda: self.parse_family(params, family_toks, offsets),
                "bracket": lambda: brackets.append(self.parse_bracket(params)),
                "cocycle": lambda: self.parse_cocycle(params, classes),
            }
            while self.peek().kind not in ("}", "eof"):
                tok = self.peek()
                if tok.kind != "ident" or tok.text not in items:
                    self.error("syntax", f"expected 'family', 'bracket' or 'cocycle', found {tok.text!r}")
                    raise _Abort()
                try:
                    items[tok.text]()
                except _Abort:
                    self.sync_to_semicolon()
            self.expect("}", "'}'")
            if self.peek().kind != "eof":
                self.error("syntax", f"unexpected trailing input {self.peek().text!r}")
        except _Abort:  # the rest of the text is unread: its declarations are unknown
            return None
        return self.assemble(name_tok, param_toks, family_toks, offsets, brackets, classes)

    def parse_family(self, params, family_toks, offsets):
        self.expect_keyword("family")
        name_tok = self.ident("a family name")
        family_toks.append(name_tok)
        self.expect_keyword("weight")
        offsets[name_tok.text] = self.parse_expr(frozenset(params))
        self.expect(";", "';'")

    def parse_head(self, params) -> tuple:
        """(left token, right token, left variable, right variable) of a head and its "=" """
        self.expect("[", "'['")
        left_tok = self.ident("a family name")
        var_left_tok = self.ident("an index variable")
        self.expect(",", "','")
        right_tok = self.ident("a family name")
        var_right_tok = self.ident("an index variable")
        self.expect("]", "']'")
        self.expect("=", "'='")
        self.report(_head_problems(var_left_tok.text, var_right_tok.text, params), (var_left_tok, var_right_tok))
        return left_tok, right_tok, var_left_tok.text, var_right_tok.text

    def index_sum(self, var_left: str, var_right: str, code: str, what: str, tok: _Token):
        """Parse an index expression that must be var_left + var_right."""
        index_poly = self.parse_expr(frozenset({var_left, var_right}))
        if index_poly != IndexPolynomial.variable(var_left) + IndexPolynomial.variable(var_right):
            self.error(code, f"{what} must be {var_left} + {var_right}", tok)

    def parse_bracket(self, params) -> tuple:
        """(the rule, the tokens of its left, right and output families,
        None for no output family).  When the rule's text has an error, its
        coefficient is read as zero: its families are still checked, and a
        coefficient that the error changed is not."""
        errors = len(self.diagnostics)
        self.expect_keyword("bracket")
        left_tok, right_tok, var_left, var_right = self.parse_head(params)
        coeff = self.parse_expr(frozenset({var_left, var_right, *params}))
        out_tok = None
        if self.peek().kind == "ident":
            out_tok = self.ident("an output family")
            paren = self.expect("(", "'('")
            self.index_sum(var_left, var_right, "non-additive-output-index", "output index", paren)
            self.expect(")", "')'")
        self.expect(";", "';'")
        coeff = coeff if len(self.diagnostics) == errors else IndexPolynomial()
        rule = BracketRule(left_tok.text, right_tok.text, var_left, var_right, coeff, out_tok and out_tok.text)
        return rule, (left_tok, right_tok, out_tok)

    def parse_cocycle(self, params, classes: dict):
        """A cocycle block into classes; a broken line is skipped to its
        ";" and the block goes on."""
        self.expect_keyword("cocycle")
        name_tok = self.ident("a cocycle class name")
        name = name_tok.text
        while self.peek().kind == "-":
            self.advance()
            name += "-" + self.expect("ident", "a class name part").text
        self.expect("{", "'{'")
        lines = []
        while self.peek().kind not in ("}", "eof"):
            try:
                lines.append(self.parse_cocycle_line(params))
            except _Abort:
                self.sync_to_semicolon()
        self.expect("}", "'}'")
        if name in classes:
            self.error("duplicate-cocycle", f"duplicate cocycle class {name!r}", name_tok)
        elif not lines:
            self.error("empty-cocycle", f"cocycle class {name!r} has no lines", name_tok)
        classes[name] = lines

    def parse_cocycle_line(self, params) -> tuple:
        """(the line, None when its denominator is refused, and the tokens
        of its families)"""
        left_tok, right_tok, var_a, var_b = self.parse_head(params)
        quotient: list = []
        coeff = self.parse_expr(frozenset({var_b, *params}), quotient=quotient)
        on_tok = self.expect_keyword("on")
        self.index_sum(var_a, var_b, "non-additive-support", "a support line", on_tok)
        self.expect("=", "'='")
        offset = self.parse_expr(frozenset(params))
        self.expect(";", "';'")
        denom = quotient[0] if quotient else IndexPolynomial.constant(1)
        try:
            return CocycleLine(left_tok.text, right_tok.text, coeff, offset, denom, var_a, var_b), (left_tok, right_tok)
        except ValueError as exc:  # a denominator of degree 2 or more
            self.error("bad-denominator", str(exc), on_tok)
            return None, (left_tok, right_tok)

    def assemble(self, name_tok, param_toks, family_toks, offsets, brackets, classes) -> AlgebraSpec | None:
        """Check the declarations, and each rule and class line that parsed
        against them, whatever else failed; the spec when no error was
        reported."""
        params, names = [tok.text for tok in param_toks], [tok.text for tok in family_toks]
        self.report(_declaration_problems(params, names), param_toks + family_toks)
        families = list(dict.fromkeys(names))
        positions = {fam: i for i, fam in enumerate(families)}
        rules: dict = {}
        given = set()  # each pair a rule names, refused or not, in both orders
        for rule, named in brackets:
            given |= {(rule.left, rule.right), (rule.right, rule.left)}
            if self.report(_rule_problems(rule, positions), named):
                continue
            key = rule.left, rule.right
            if key in rules:
                self.error("duplicate-bracket", f"duplicate bracket rule for [{rule.left}, {rule.right}]", named[0])
            rules.setdefault(key, rule)
        for named in [named for lines in classes.values() for _, named in lines]:
            self.report(_undeclared_problems([tok.text for tok in named], positions), named)
        for i, fam_a in enumerate(families):
            for fam_b in families[i:]:
                if (fam_a, fam_b) not in given:
                    self.warning(
                        "missing-bracket-default",
                        f"no bracket rule for [{fam_a}, {fam_b}]; defaulting to zero",
                        name_tok,
                    )
        if any(d.severity == "error" for d in self.diagnostics):
            return None
        lines = {name: [line for line, _ in entries] for name, entries in classes.items()}
        try:
            return AlgebraSpec(name_tok.text, params, families, offsets, rules, lines)
        except ValueError as exc:  # pre-checked above; keep the no-raise contract
            self.error("invalid-spec", str(exc), name_tok)
            return None


def parse(source: str) -> ParseResult:
    if not isinstance(source, str):
        return ParseResult(
            None, [Diagnostic(1, 1, "error", "bad-input", "source must be a string")]
        )
    parser = _Parser(source)
    try:
        spec = parser.parse_algebra()
    except _Abort:
        spec = None
    if spec is None and not any(d.severity == "error" for d in parser.diagnostics):
        parser.diagnostics.append(Diagnostic(1, 1, "error", "syntax", "no algebra definition found"))
    return ParseResult(spec, parser.diagnostics)


def _coeff_text(poly: IndexPolynomial, var_order) -> str:
    text = poly.to_text(var_order)
    if len(poly.term_items()) > 1:
        return f"({text})"
    return text


def render(spec: AlgebraSpec) -> str:
    """Canonical source text; parse(render(spec)).spec == spec."""
    lines = [f"algebra {spec.name}({', '.join(spec.parameters)}) {{"]
    for fam in spec.families:
        lines.append(f"    family {fam} weight {spec.weight_offsets[fam].to_text(spec.parameters)};")
    for (fam_a, fam_b), rule in spec.rules.items():
        head = f"    bracket [{fam_a} {rule.var_left}, {fam_b} {rule.var_right}]"
        if rule.is_zero():
            lines.append(f"{head} = 0;")
        else:
            order = (rule.var_left, rule.var_right) + spec.parameters
            coeff = _coeff_text(rule.coeff, order)
            lines.append(f"{head} = {coeff} {rule.out_family}({rule.var_left} + {rule.var_right});")
    for name, cocycle in spec.cocycles.items():
        lines.append(f"    cocycle {name} {{")
        for line in cocycle:
            order = (line.var_b,) + spec.parameters
            rhs = _coeff_text(line.coeff, order)
            if line.denom != 1:
                rhs += f" / ({line.denom.to_text(order)})"
            lines.append(
                f"        [{line.family_a} {line.var_a}, {line.family_b} {line.var_b}] = {rhs} "
                f"on {line.var_a} + {line.var_b} = {line.offset.to_text(spec.parameters)};"
            )
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"
