"""Exact central-extension computations for integer-graded Lie algebras.

The package computes 2-cocycles modulo 2-coboundaries (the second Lie
algebra cohomology with trivial coefficients, equivalently central
extensions) for algebras whose basis families are indexed by the integers
and whose brackets have polynomial structure constants, entirely in exact
rational arithmetic.  The bundled svir preset is a two-parameter family of
deformed Schroedinger-Virasoro algebras whose degree-zero H^2 dimensions
follow a closed-form case table that the engine reproduces numerically.
"""

from fractions import Fraction

from .algebra import (
    AlgebraSpec,
    BasisElement,
    BracketRule,
    CocycleLine,
    ParameterError,
    check_jacobi_symbolic,
    check_jacobi_window,
    validate_parameters,
)
from .dsl import Diagnostic, ParseResult, parse, render
from .engine import (
    CocycleAssignment,
    H2Report,
    KnownCocycle,
    MatchResult,
    PairBasis,
    VerifyReport,
    Window,
    assemble_constraints,
    coboundary_space,
    cocycle_space,
    enumerate_pairs,
    h2,
    is_coboundary,
    match_known,
    nonzero_degree_triviality,
    verify_cocycle,
)
from .poly import IndexPolynomial
from .presets import load_algebra, theorem_predicted_dim
from .rational import format_rational, parse_rational, rational
from .sparse import (
    SparseMatrix,
    VectorBasis,
    nullspace,
    project_dimension,
)

__version__ = "0.1.0"


def __getattr__(name):
    # presets builds REGISTRY at first use (it parses the svir preset)
    if name == "REGISTRY":
        from . import presets

        return presets.REGISTRY
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlgebraSpec",
    "BasisElement",
    "BracketRule",
    "CocycleAssignment",
    "Diagnostic",
    "Fraction",
    "H2Report",
    "IndexPolynomial",
    "CocycleLine",
    "KnownCocycle",
    "MatchResult",
    "PairBasis",
    "ParameterError",
    "ParseResult",
    "REGISTRY",
    "SparseMatrix",
    "VectorBasis",
    "VerifyReport",
    "Window",
    "assemble_constraints",
    "check_jacobi_symbolic",
    "check_jacobi_window",
    "coboundary_space",
    "cocycle_space",
    "enumerate_pairs",
    "format_rational",
    "h2",
    "is_coboundary",
    "load_algebra",
    "match_known",
    "nonzero_degree_triviality",
    "nullspace",
    "parse",
    "parse_rational",
    "project_dimension",
    "rational",
    "render",
    "theorem_predicted_dim",
    "validate_parameters",
    "verify_cocycle",
]
