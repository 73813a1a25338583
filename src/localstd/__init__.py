"""Exact Milnor/Tyurina numbers of isolated hypersurface singularities via
Groebner bases (global monomial orders) and Mora standard bases (local
monomial orders), plus an Arnol'd A/D/E singularity toolkit.
"""

__version__ = "0.1.0"

from .coeffs import CoeffField
from .engines import (OrderClassError, PolySet, StepBudgetExceeded,
                      buchberger, ecart, normal_form, s_polynomial,
                      standard_basis, weak_normal_form)
from .invariants import (FusedReport, InvariantReport, NonIsolatedError,
                         is_zero_dimensional, jacobian_ideal,
                         leading_coefficients, milnor_fused, milnor_global,
                         milnor_local, quotient_basis, tyurina_fused,
                         tyurina_global, tyurina_local, tyurina_ideal)
from .orders import (MonomialOrder, OrderClass, OrderDefinitionError, grevlex,
                     lex, neg_grevlex, neg_lex, parse_order, weighted)
from .parser import ParseError, UndeclaredSymbolError, parse_poly
from .poly import ContextMismatchError, Monomial, Poly, VarCtx
from .singularities import (ADJACENCY_KINDS, DeformationFamily,
                            SingularityClass, Stratum, StratumVerification,
                            WeightVector, adjacency_target,
                            build_versal_family, classify_simple,
                            hessian_corank, milnor_orlik, normal_form as
                            ade_normal_form, sample_witness,
                            special_adjacency_family, stratum_catalog,
                            verify_stratum, weight_vector)

__all__ = [
    "CoeffField", "ContextMismatchError", "DeformationFamily",
    "FusedReport", "InvariantReport", "Monomial", "MonomialOrder",
    "NonIsolatedError", "OrderClass", "OrderClassError",
    "OrderDefinitionError", "ParseError", "Poly", "PolySet",
    "SingularityClass", "StepBudgetExceeded", "Stratum",
    "StratumVerification", "UndeclaredSymbolError", "VarCtx", "WeightVector",
    "ADJACENCY_KINDS", "ade_normal_form", "adjacency_target", "buchberger",
    "build_versal_family", "classify_simple", "ecart",
    "grevlex", "hessian_corank", "is_zero_dimensional", "jacobian_ideal",
    "leading_coefficients", "lex", "milnor_fused", "milnor_global",
    "milnor_local", "milnor_orlik", "neg_grevlex", "neg_lex", "normal_form",
    "parse_order", "parse_poly", "quotient_basis", "s_polynomial",
    "sample_witness", "special_adjacency_family", "standard_basis",
    "stratum_catalog", "tyurina_fused", "tyurina_global", "tyurina_ideal",
    "tyurina_local", "verify_stratum", "weak_normal_form", "weight_vector",
    "weighted",
]
