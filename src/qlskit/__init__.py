"""Solvers and error analysis for shifted normal equations.

The problem is A^T A x = A^T b + c for a full-column-rank A, the
first-order system of a least-squares problem whose right-hand side
carries an additive shift c.  The package provides direct and Krylov
solvers for it, structured condition numbers and backward errors, a
priori and a posteriori forward-error estimates, synthetic problem
generators, and a benchmarking command line.
"""

from .errors import (
    Breakdown,
    ConfigError,
    DenominatorVanishes,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    MissingConfiguration,
    NoConvergence,
    NoRealRoot,
    NotSymmetric,
    QlskitError,
    RankDeficient,
    SingularDiagonal,
    ZeroVector,
)
from .linalg import (
    LdltFactorization,
    QrFactorization,
    U,
    ldlt_factorize,
    ldlt_solve,
    qr_factorize,
    qr_gram_solve,
    qr_lstsq,
    svd,
    sym_spectral_norm,
)
from .problems import (
    DEFAULT_EPS,
    QlsProblem,
    assemble_problem,
    generate_problem_set_p,
    load_problem,
    orthogonal_factor,
    save_problem,
    sigma_c1,
    sigma_c2,
)
from .iterative import (
    IterationControl,
    SolveOutcome,
    cg_base,
    cgls_eps,
    cgls_i,
    minres_augmented,
    solve_batch,
)
from .direct import solve_aug, solve_qr, solve_qr_eps, solve_sm
from .analysis import (
    ConditioningReport,
    PerturbationTriple,
    cg_inadequacy_indicator,
    conditioning_report,
    construct_perturbation,
    forward_error_estimates,
    initial_rounding_bound,
    linearized_backward_error,
    linearized_backward_error_eps,
    minimum_norm_perturbation,
    relative_backward_error,
    sm_proximity_bound,
    structured_cond_base,
    structured_cond_eps,
)
from .bench import (
    BenchRecord,
    ExperimentConfig,
    ProfileCurve,
    emit_profile_svg,
    emit_records,
    load_records,
    parse_config,
    performance_profile,
    report_table,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Breakdown", "ConfigError", "DenominatorVanishes", "DimensionMismatch",
    "EmptyInput", "InvalidParameter", "MissingConfiguration", "NoConvergence",
    "NoRealRoot", "NotSymmetric", "QlskitError", "RankDeficient",
    "SingularDiagonal", "ZeroVector",
    "LdltFactorization", "QrFactorization", "U",
    "ldlt_factorize", "ldlt_solve", "qr_factorize", "qr_gram_solve",
    "qr_lstsq", "svd", "sym_spectral_norm",
    "DEFAULT_EPS", "QlsProblem", "assemble_problem",
    "generate_problem_set_p", "load_problem", "orthogonal_factor",
    "save_problem", "sigma_c1", "sigma_c2",
    "IterationControl", "SolveOutcome", "cg_base", "cgls_eps", "cgls_i",
    "minres_augmented", "solve_batch",
    "solve_aug", "solve_qr", "solve_qr_eps", "solve_sm",
    "ConditioningReport", "PerturbationTriple", "cg_inadequacy_indicator",
    "conditioning_report", "construct_perturbation",
    "forward_error_estimates", "initial_rounding_bound",
    "linearized_backward_error", "linearized_backward_error_eps",
    "minimum_norm_perturbation", "relative_backward_error",
    "sm_proximity_bound", "structured_cond_base", "structured_cond_eps",
    "BenchRecord", "ExperimentConfig", "ProfileCurve", "emit_profile_svg",
    "emit_records", "load_records", "parse_config", "performance_profile",
    "report_table", "run_suite",
    "__version__",
]
