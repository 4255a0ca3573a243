"""Exact valuation chains on Q[X] over p-adic base fields.

Everything computes in exact rational arithmetic: chain values live in
Q + Q*t for a formal positive infinitesimal t, a polynomial is a tuple of
int numerators over one common denominator, and residue data lives in
explicit small finite fields.

``import vforge`` runs ``values``, ``polynomials``, ``finitefields``,
``newton``, ``maclane`` and ``extensions``.  ``pairs`` and ``verify`` are
in ``sys.modules`` and bound as ``vforge.pairs`` and ``vforge.verify`` from
the start, but the code of each runs at the first read of a name it lacks,
on the module or through an unbound name of ``__all__`` (read from ``pairs``
if it has it, else ``verify``); among the CLI commands only ``verify`` makes
that read.  Several threads may make it at once: one runs the code, the
others wait.
"""

import importlib.util
import sys
import threading
import types

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

# re-entrant: loading verify reads the names of pairs, which loads pairs
_LOADING = threading.RLock()


class _Deferred(types.ModuleType):
    """A submodule whose code runs on the first read of a name it lacks."""

    def __getattr__(self, name):
        with _LOADING:
            if type(self) is _Deferred:
                self.__spec__.loader.exec_module(self)
                # only now: a plain module with half its names would raise
                self.__class__ = types.ModuleType
        return getattr(self, name)


def _defer(name: str) -> types.ModuleType:
    module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{name}"))
    module.__class__ = _Deferred
    sys.modules[module.__name__] = module
    return module


pairs = _defer("pairs")
verify = _defer("verify")


def __getattr__(name):
    # an exported name not bound above: read from its owner each time, so a
    # name replaced there is seen here too
    if name in __all__:
        return getattr(pairs if hasattr(pairs, name) else verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


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
