"""Exact structure-constant checker for twisted Z2-graded algebra identities.

The package represents finite-dimensional graded algebras by exact structure
constants over Q, GF(p), or fraction fields of polynomial rings, evaluates
the twisted multilinear forms of the alternative / Malcev / Jordan circle of
identities, and decides each identity exhaustively over basis tuples.  A
bundled corpus of published examples ships with machine-checked claims; the
``verify-paper`` CLI command replays them and reconciles published values
with independently expanded ones.
"""

from .coeff import (
    CoeffError,
    FieldSpec,
    Scalar,
    field_for,
    prime_field,
    rationals,
    scalar_arith,
    scalar_inv,
    scalar_is_zero,
    substitute_params,
)
from .identities import (
    CHECKERS,
    PreconditionError,
    commutator_algebra,
    hom_associator,
    hom_super_jacobian,
    plus_algebra,
    run_checker,
)
from .io import parse_algebra_file, parse_expression, serialize_report
from .maps import derived, is_even, is_morphism, is_weak_morphism, untwist, yau_twist
from .report import IdentityReport
from .superalg import (
    Basis,
    EvenLinearMap,
    HomSuperAlgebra,
    SuperAlgebra,
    hom,
    multiply,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CHECKERS",
    "CoeffError",
    "EvenLinearMap",
    "FieldSpec",
    "HomSuperAlgebra",
    "IdentityReport",
    "PreconditionError",
    "Scalar",
    "SuperAlgebra",
    "commutator_algebra",
    "derived",
    "field_for",
    "hom",
    "hom_associator",
    "hom_super_jacobian",
    "is_even",
    "is_morphism",
    "is_weak_morphism",
    "multiply",
    "parse_algebra_file",
    "parse_expression",
    "plus_algebra",
    "prime_field",
    "rationals",
    "run_checker",
    "scalar_arith",
    "scalar_inv",
    "scalar_is_zero",
    "serialize_report",
    "substitute_params",
    "untwist",
    "validate",
    "yau_twist",
]
