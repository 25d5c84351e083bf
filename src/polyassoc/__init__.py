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
    LadderViolation,
    LeftProjection,
    NotAssociative,
    RightProjection,
    ShiftedProduct,
    TranslatedSum,
    TwistedSum,
    classify,
    extract_type6,
    reconstruct,
    verify_condpol,
)
from .structure import (
    SkewMap,
    analyze,
    group_status,
    is_medial,
    iterate_binary,
    reducibility,
    skew_is_endomorphism,
    verify_skew,
)
from .oracle import (
    BudgetError,
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
    "LadderViolation",
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
    "extract_type6",
    "from_size_coeffs",
    "group_status",
    "is_associative",
    "is_medial",
    "iterate_binary",
    "parse_poly",
    "reconstruct",
    "reducibility",
    "skew_is_endomorphism",
    "verify_condpol",
    "verify_skew",
]
