"""Fractional differential operators and their convergence to f'.

The package evaluates Riemann-Liouville, Caputo and Caputo-Fabrizio
derivatives of a catalog of test functions (closed forms where they exist,
one adaptive Gauss-Kronrod quadrature per value otherwise), measures the L1
and sup-norm errors against the classical derivative as the order
approaches one, fits empirical convergence rates, and computes the
Caputo-Fabrizio/Caputo speed-of-convergence ratio and its digamma-expressed
limit.
"""

from .analysis import (
    OrderFit,
    RatioResult,
    fit_order,
    ratio_cf_over_c_l1,
    ratio_limit,
    s_star,
    t_star,
    table1,
)
from .exceptions import (
    BracketingError,
    BudgetExceededError,
    DegenerateFitError,
    DomainError,
    FracorderError,
    IntegrationError,
    NonDifferentiableError,
    NumericalError,
    SeriesConvergenceError,
)
from .funcat import (
    AbsShift,
    Affine,
    Cosine,
    Exponential,
    FractionalOrder,
    Interval,
    OperatorKind,
    Power,
    StepAntiderivative,
    TestFunction,
    closed_form_fractional,
    parse_function,
)
from .norms import ErrorReport, NormKind, error_l1, error_linf, error_sweep
from .operators import (
    CustomKernel,
    KernelSpec,
    caputo,
    caputo_fabrizio,
    evaluate,
    evaluate_grid,
    generic_kernel_derivative,
    riemann_liouville,
    rl_integral,
)
from .specfun import MLParams, digamma, gamma, ln_gamma, mittag_leffler, mittag_leffler_one

__all__ = [
    "AbsShift",
    "Affine",
    "BracketingError",
    "BudgetExceededError",
    "Cosine",
    "CustomKernel",
    "DegenerateFitError",
    "DomainError",
    "ErrorReport",
    "Exponential",
    "FracorderError",
    "FractionalOrder",
    "IntegrationError",
    "Interval",
    "KernelSpec",
    "MLParams",
    "NonDifferentiableError",
    "NormKind",
    "NumericalError",
    "OperatorKind",
    "OrderFit",
    "Power",
    "RatioResult",
    "SeriesConvergenceError",
    "StepAntiderivative",
    "TestFunction",
    "caputo",
    "caputo_fabrizio",
    "closed_form_fractional",
    "digamma",
    "error_l1",
    "error_linf",
    "error_sweep",
    "evaluate",
    "evaluate_grid",
    "fit_order",
    "gamma",
    "generic_kernel_derivative",
    "ln_gamma",
    "mittag_leffler",
    "mittag_leffler_one",
    "parse_function",
    "ratio_cf_over_c_l1",
    "ratio_limit",
    "riemann_liouville",
    "rl_integral",
    "s_star",
    "t_star",
    "table1",
]

__version__ = "0.1.0"
