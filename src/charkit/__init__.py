"""Exact E7 characters through the eigenfunctions of a second-order
differential operator in the fundamental-character variables."""

from .lie_core import (
    cartan_matrix, weyl_dim, eigenvalue, dominant_weights_below,
    NonDominantError,
)
from .polyring import MultiPoly
from .csmodel import (
    QuadraticCorpus, Delta1Operator, build_b, build_a,
    CorpusIncompleteError, StructuralViolationError,
)
from .charsolve import CharacterTable, IntegralityError
from .tensor import (
    CGSeries, cg_decompose, monomial_decompose, series_family_z7,
    verify_quadratic_roundtrip, DecompositionError,
)
from .oracle import freudenthal, torus_check, WeightSystem, OracleRefusal

__version__ = "1.0.0"

__all__ = [
    "cartan_matrix", "weyl_dim", "eigenvalue", "dominant_weights_below",
    "NonDominantError",
    "MultiPoly",
    "QuadraticCorpus", "Delta1Operator", "build_b", "build_a",
    "CorpusIncompleteError", "StructuralViolationError",
    "CharacterTable", "IntegralityError",
    "CGSeries", "cg_decompose", "monomial_decompose", "series_family_z7",
    "verify_quadratic_roundtrip", "DecompositionError",
    "freudenthal", "torus_check", "WeightSystem", "OracleRefusal",
]
