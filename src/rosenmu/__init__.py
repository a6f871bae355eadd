"""Structured eigenvalue backward errors of Rosenbrock system matrices.

Computes, for a system matrix S(z) = [[A - z I, B], [C, P(z)]] and a
target point lambda, the smallest structured perturbation (measured by the
max of block spectral norms) that makes lambda an exact eigenvalue, for
any subset of the blocks {A, B, C, P}.  The computation reduces to
structured mu-values of rectangular matrices under rectangular block
diagonal perturbations, bracketed by partial-isometry lower bounds and
diagonal-scaling upper bounds with explicit minimal-perturbation
certificates.
"""

from .backward_error import BackwardErrorResult, backward_error, scenario_sweep
from .linalg import (
    InputError,
    NumericError,
    sigma_max,
    sigma_min,
)
from .mu import (
    MuResult,
    PartialIsometrySet,
    certificate_to_delta,
    mu_bracket,
    mu_lower,
    mu_upper,
)
from .oracle import OracleEstimate, brute_force_backward_error, brute_force_mu
from .reduction import (
    BlockStructure,
    Scenario,
    all_scenarios,
    assemble_perturbation,
    perturbation_norm,
    reduce,
)
from .rosenbrock import (
    RosenbrockSystem,
    evaluate,
    is_eigenvalue,
    matrix_from_json,
    matrix_to_json,
    system_from_json,
    system_to_json,
    unstructured_backward_error,
)

__version__ = "0.1.0"

__all__ = [
    "BackwardErrorResult",
    "BlockStructure",
    "InputError",
    "MuResult",
    "NumericError",
    "OracleEstimate",
    "PartialIsometrySet",
    "RosenbrockSystem",
    "Scenario",
    "all_scenarios",
    "assemble_perturbation",
    "backward_error",
    "brute_force_backward_error",
    "brute_force_mu",
    "certificate_to_delta",
    "evaluate",
    "is_eigenvalue",
    "matrix_from_json",
    "matrix_to_json",
    "mu_bracket",
    "mu_lower",
    "mu_upper",
    "perturbation_norm",
    "reduce",
    "scenario_sweep",
    "sigma_max",
    "sigma_min",
    "system_from_json",
    "system_to_json",
    "unstructured_backward_error",
]
