"""Exact valuation chains on Q[X] over p-adic base fields.

Everything computes in exact rational arithmetic: chain values live in
Q + Q*t for a formal positive infinitesimal t, a polynomial is a tuple of
int numerators over one common denominator, and residue data lives in
explicit small finite fields.
"""

from .extensions import (
    AlgebraicNumber,
    ReducibleError,
    ValuationExtension,
    delta_via_roots,
    extend_to_number_field,
    root_difference_valuations,
)
from .finitefields import FiniteField, FieldExtension, FqPoly, LimitError, ff_factor, ff_is_irreducible
from .maclane import Chain, ChainError, ChainParseError, InvariantError, KeyCertificate
from .newton import NewtonPolygon
from .pairs import (
    FieldPoly,
    PairOfDefinition,
    common_extension_check,
    enumerate_common_extensions,
    is_minimal_pair,
    pair_eval,
    pairs_equivalent,
    verify_root_lemmas,
)
from .polynomials import (
    Poly,
    PolyParseError,
    composed_value_poly,
    difference_resultant,
    hasse_derivative,
    padic_valuation,
    q_expansion,
    resultant,
)
from .values import INFINITY, Value, value_max, value_min
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber",
    "Chain",
    "ChainError",
    "ChainParseError",
    "FieldExtension",
    "FieldPoly",
    "FiniteField",
    "FqPoly",
    "INFINITY",
    "InvariantError",
    "KeyCertificate",
    "LimitError",
    "NewtonPolygon",
    "PairOfDefinition",
    "Poly",
    "PolyParseError",
    "ReducibleError",
    "ValuationExtension",
    "Value",
    "VerificationReport",
    "common_extension_check",
    "composed_value_poly",
    "delta_via_roots",
    "difference_resultant",
    "enumerate_common_extensions",
    "extend_to_number_field",
    "ff_factor",
    "ff_is_irreducible",
    "hasse_derivative",
    "is_minimal_pair",
    "pair_eval",
    "pairs_equivalent",
    "padic_valuation",
    "q_expansion",
    "resultant",
    "root_difference_valuations",
    "run_suite",
    "value_max",
    "value_min",
    "verify_root_lemmas",
]
