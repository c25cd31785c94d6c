"""Bundled algebra definitions, definition-file resolution, and all that
is specific to svir.

An algebra reference is resolved in this order: a bundled preset name
("svir", "witt", or the alias "virasoro-sector", read from the presets
directory next to this file), then "<name>.lie" in each directory on the
LIEEXT_PRESET_PATH environment variable (colon separated), then the
reference taken as a literal file path.

svir is the one algebra with a closed-form table of its degree-zero H^2
(theorem_predicted_dim).  predicted_dim says when the table applies to an
h2 run: at degree 0, on any algebra with svir's bracket table, whatever its
name, the letters of its index variables and the order of its
declarations.  REGISTRY maps each class svir declares to a KnownCocycle; it
is built the first time it is read, so a process that never reads it never
parses svir, and only then imports the engine: loading and parsing an
algebra compiles none of the engine, the solve and sparse.  Neither the
engine nor the solve loads a preset.
"""

from __future__ import annotations

import os
from fractions import Fraction

from . import dsl
from .algebra import AlgebraSpec
from .rational import as_rational

PRESET_FILES = {
    "svir": "svir.lie",
    "witt": "witt.lie",
    "virasoro-sector": "witt.lie",
}

PRESET_PATH_ENV = "LIEEXT_PRESET_PATH"

_cache: dict = {}


def preset_source(name: str) -> str:
    try:
        filename = PRESET_FILES[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r} (available: {', '.join(sorted(PRESET_FILES))})"
        ) from None
    with open(os.path.join(os.path.dirname(__file__), "presets", filename)) as handle:
        return handle.read()


def _parse_or_fail(source: str, origin: str) -> AlgebraSpec:
    """The spec source describes; otherwise ValueError with the first error
    on the line naming origin and each further error on a line of its own."""
    result = dsl.parse(source)
    if result.spec is None:
        first, *rest = result.errors()
        raise ValueError("\n".join([f"cannot parse algebra from {origin}: {first}", *map(str, rest)]))
    return result.spec


def load_algebra(ref: str) -> AlgebraSpec:
    """Resolve a preset name or a .lie file path to a parsed spec."""
    if ref in PRESET_FILES:
        if ref not in _cache:
            _cache[ref] = _parse_or_fail(preset_source(ref), f"preset {ref!r}")
        return _cache[ref]
    search = os.environ.get(PRESET_PATH_ENV, "")
    for directory in filter(None, search.split(":")):
        candidate = os.path.join(directory, ref + ".lie")
        if os.path.isfile(candidate):
            with open(candidate) as handle:
                return _parse_or_fail(handle.read(), candidate)
    if os.path.isfile(ref):
        with open(ref) as handle:
            return _parse_or_fail(handle.read(), ref)
    raise ValueError(
        f"cannot resolve algebra {ref!r}: not a preset name, not on "
        f"{PRESET_PATH_ENV}, and not a file"
    )


def __getattr__(name):
    if name == "REGISTRY":
        from .engine import KnownCocycle

        registry = {known: KnownCocycle(known, lines) for known, lines in load_algebra("svir").cocycles.items()}
        globals()[name] = registry
        return registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _bracket_table(spec: AlgebraSpec) -> tuple:
    """spec's bracket table without the letters of its index variables or
    the order of its declarations: the parameters and families as sets, and
    each rule keyed on its family pair in name order, as its output family
    and its coefficient's index terms.  A rule stored as [G, F] with F
    before G in name order is read as [F, G] = -[G, F]: its exponents
    swapped and its coefficients negated."""
    rules = {}
    for (a, b), rule in spec.rules.items():
        terms = rule._index_terms
        if a > b:
            a, b, terms = b, a, {(f, e): -k for (e, f), k in terms.items()}
        rules[a, b] = rule.out_family, terms
    return frozenset(spec.parameters), frozenset(spec.families), spec.weight_offsets, rules


def predicted_dim(spec: AlgebraSpec, params, degree):
    """The closed-form table's dimension for h2 of spec at params and
    degree, or None where the table does not apply: at another degree than
    0, or on an algebra without svir's bracket table (an algebra that only
    shares the name gets none).  An algebra without lambda and mu gets none
    before svir is parsed."""
    if degree != 0 or not {"lambda", "mu"} <= set(spec.parameters):
        return None
    if _bracket_table(spec) != _bracket_table(load_algebra("svir")):
        return None
    return theorem_predicted_dim(params["lambda"], params["mu"])


def theorem_predicted_dim(lam, mu) -> int:
    """Dimension of degree-zero H^2 for svir(lambda, mu) per the closed-form
    classification: 1 generically (the central charge), an extra Y-M class
    when 3*mu is an integer and lambda = -1, extra L-Y classes at integer mu
    for lambda in {-3, 1}, and all of c1, c2 on top of virasoro at
    lambda = -1 with integer mu.  mu = 0 is an integer mu: svir(lambda, 0)
    is svir(lambda, 1) up to the graded isomorphism Y_m -> Y_{m+1},
    M_m -> M_{m+2}.  Each argument is an int, a Fraction or a "p/q"
    string; a float raises ValueError, as it cannot be exact."""
    lam = as_rational(lam, "lambda")
    mu = as_rational(mu, "mu")
    if (3 * mu).denominator != 1:
        return 1
    if mu.denominator == 1:
        if lam == -1:
            return 3
        if lam in (Fraction(-3), Fraction(1)):
            return 2
        return 1
    return 2 if lam == -1 else 1
