"""Singular value calculus, submajorisation and order-isometry analysis
on finite weighted matrix algebras."""

__version__ = "0.1.0"

from .algebra import (FiniteAlgebra, Operator, SpectralDecomposition,
                      absolute_value, functional_calculus, negative_part,
                      positive_part, spectral_decompose, spectral_projection,
                      support_projection, trace)
from .config import Tolerances, set_tolerances, tolerances
from .isometry import (IsometryAnalysis, SynthSpec, analyze, central_B_check,
                       check_surjective_reflection, jordan_factor, synthesize)
from .jordan import (JordanMap, JordanPlan, LinearMap, PlanEntry,
                     check_injective, jordan_abs_residual,
                     ortho_extension_check, random_jordan, random_plan,
                     stormer_split, verify_jordan)
from .majorization import (MajorizationVerdict, disjointness_from_mu_equality,
                           fk_determinant, fk_log_determinant, log_submajorizes,
                           submajorizes)
from .norms import (LogF, Lorentz, Lp, NormCheckReport, check_delta_axioms,
                    check_slm, check_symmetric, evaluate_norm)
from .stepfun import StepFunction, distribution, mu, pointwise_product

__all__ = [
    "FiniteAlgebra", "Operator", "SpectralDecomposition", "StepFunction",
    "Tolerances", "LinearMap", "JordanMap", "JordanPlan", "PlanEntry",
    "SynthSpec", "IsometryAnalysis", "MajorizationVerdict", "NormCheckReport",
    "Lp", "Lorentz", "LogF",
    "trace", "spectral_decompose", "spectral_projection", "support_projection",
    "functional_calculus", "absolute_value", "positive_part", "negative_part",
    "mu", "distribution", "pointwise_product",
    "submajorizes", "log_submajorizes", "fk_determinant", "fk_log_determinant",
    "disjointness_from_mu_equality",
    "evaluate_norm", "check_delta_axioms", "check_symmetric", "check_slm",
    "verify_jordan", "stormer_split", "jordan_abs_residual", "check_injective",
    "ortho_extension_check", "random_jordan", "random_plan",
    "analyze", "synthesize", "check_surjective_reflection", "central_B_check",
    "jordan_factor",
    "tolerances", "set_tolerances",
]
