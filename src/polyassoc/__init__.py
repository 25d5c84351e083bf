"""Exact associativity analysis of polynomial n-ary operations over Z, Q, Z[i]."""

from .rings import Frac, GaussianInt, Ring
from .poly import MultilinearPoly, SparsePoly, from_size_coeffs
from .parse import ParseError, parse_poly
from .assoc import (
    associative_multilinear,
    compose_closed_form,
    compose_substitution,
    is_associative,
)
from .classify import (
    Constant,
    LeftProjection,
    NotAssociative,
    RightProjection,
    ShiftedProduct,
    SkewMap,
    TranslatedSum,
    TwistedSum,
    classify,
    reconstruct,
    verify_condpol,
)
from .structure import (
    analyze,
    is_medial,
    iterate_binary,
    skew_is_endomorphism,
    verify_skew,
)
from .errors import BudgetError, InternalInvariantError
from .oracle import (
    OracleConfig,
    XorShift64Star,
    assoc_pointwise,
    associated_value,
    candidates_text,
    census_csv,
    enumerate_associative,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Constant",
    "Frac",
    "GaussianInt",
    "InternalInvariantError",
    "LeftProjection",
    "MultilinearPoly",
    "NotAssociative",
    "OracleConfig",
    "ParseError",
    "RightProjection",
    "Ring",
    "ShiftedProduct",
    "SkewMap",
    "SparsePoly",
    "TranslatedSum",
    "TwistedSum",
    "XorShift64Star",
    "analyze",
    "assoc_pointwise",
    "associated_value",
    "associative_multilinear",
    "candidates_text",
    "census_csv",
    "classify",
    "compose_closed_form",
    "compose_substitution",
    "enumerate_associative",
    "from_size_coeffs",
    "is_associative",
    "is_medial",
    "iterate_binary",
    "parse_poly",
    "reconstruct",
    "skew_is_endomorphism",
    "verify_condpol",
    "verify_skew",
]
