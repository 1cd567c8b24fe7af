"""Boundary-layer asymptotics for strongly anisotropic elliptic problems.

The package approximates solutions of

    -eps^-2 u_xx - u_yy = f   on (0,1)^2,
    u_x = 0 at x = 0, 1;  u = phi0 at y = 0;  u = phi1 at y = 1,

by composite matched expansions u[0], u[2], ..., validates them against a
five-point finite-difference reference solver and a Feynman-Kac Monte Carlo
estimator, and measures empirical convergence orders in eps.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateStart,
    GridMismatch,
    InsufficientPoints,
    IntegralConditionViolated,
    MissingDerivatives,
    NoConvergence,
    NonFiniteValue,
    NonPositiveNorm,
    NotZeroMean,
    UnknownProblem,
)
from .expansion import (
    ExpansionResult,
    LayerTerm,
    MeanSolution,
    composite,
    mean_solution,
    mean_solution_bvp,
)
from .fdsolver import Field2D, Grid2D, SolveStats, linf_distance, solve_fd
from .montecarlo import McConfig, McEstimate, estimate_point, reflect_unit_interval
from .problem import (
    BUILTIN_PROBLEM_NAMES,
    CompatibilityReport,
    DecomposedProblem,
    ProblemSpec,
    builtin_problem,
    check_compatibility,
    check_derivatives,
    decompose,
)
from .spectral import (
    AntiderivativeStack,
    CosineSeries,
    analyze,
    build_antiderivatives,
    cosine_coeffs,
    synthesize,
)
from .validation import (
    ErrorReport,
    FitResult,
    MaxPrincipleResult,
    fd_self_convergence_estimate,
    fit_order,
    matching_identity_check,
    max_principle_check,
    remainder_norms,
)

__all__ = [
    "__version__",
    "AntiderivativeStack",
    "BUILTIN_PROBLEM_NAMES",
    "CompatibilityReport",
    "CosineSeries",
    "DecomposedProblem",
    "DegenerateStart",
    "ErrorReport",
    "ExpansionResult",
    "Field2D",
    "FitResult",
    "Grid2D",
    "GridMismatch",
    "InsufficientPoints",
    "IntegralConditionViolated",
    "LayerTerm",
    "MaxPrincipleResult",
    "McConfig",
    "McEstimate",
    "MeanSolution",
    "MissingDerivatives",
    "NoConvergence",
    "NonFiniteValue",
    "NonPositiveNorm",
    "NotZeroMean",
    "ProblemSpec",
    "SolveStats",
    "UnknownProblem",
    "analyze",
    "builtin_problem",
    "build_antiderivatives",
    "check_compatibility",
    "check_derivatives",
    "composite",
    "cosine_coeffs",
    "decompose",
    "estimate_point",
    "fd_self_convergence_estimate",
    "fit_order",
    "linf_distance",
    "matching_identity_check",
    "max_principle_check",
    "mean_solution",
    "mean_solution_bvp",
    "reflect_unit_interval",
    "remainder_norms",
    "solve_fd",
    "synthesize",
]
