"""Exact central-extension computations for integer-graded Lie algebras.

The package computes 2-cocycles modulo 2-coboundaries (the second Lie
algebra cohomology with trivial coefficients, equivalently central
extensions) for algebras whose basis families are indexed by the integers
and whose brackets have polynomial structure constants, entirely in exact
rational arithmetic.  The bundled svir preset is a two-parameter family of
deformed Schroedinger-Virasoro algebras whose degree-zero H^2 dimensions
follow a closed-form case table that the engine reproduces numerically.

Each public name is imported from its home module the first time it is
read, so `import lieext` compiles only rational.py, and a process that
only loads and parses algebras never compiles the engine or sparse.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    ".algebra": (
        "AlgebraSpec",
        "BasisElement",
        "BracketRule",
        "CocycleLine",
        "ParameterError",
        "check_jacobi_symbolic",
        "check_jacobi_window",
        "validate_parameters",
    ),
    ".dsl": ("Diagnostic", "ParseResult", "parse", "render"),
    ".engine": (
        "CocycleAssignment",
        "H2Report",
        "KnownCocycle",
        "MatchResult",
        "PairBasis",
        "VerifyReport",
        "Window",
        "assemble_constraints",
        "coboundary_space",
        "cocycle_space",
        "enumerate_pairs",
        "h2",
        "is_coboundary",
        "match_known",
        "nonzero_degree_triviality",
        "verify_cocycle",
    ),
    ".poly": ("IndexPolynomial",),
    # presets builds REGISTRY at first use (it parses the svir preset)
    ".presets": ("REGISTRY", "load_algebra", "theorem_predicted_dim"),
    ".rational": ("format_rational", "parse_rational", "rational"),
    ".sparse": ("SparseMatrix", "VectorBasis", "nullspace", "project_dimension"),
    "fractions": ("Fraction",),
}

_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_HOME[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


# importing lieext.rational binds that module here under its own name, in
# place of the function rational; binding the function first keeps it
rational = __getattr__("rational")
