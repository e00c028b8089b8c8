"""Empirical convergence orders and the Caputo-Fabrizio/Caputo speed ratio.

``fit_order`` turns an error sweep into a log-log slope.  The ratio
machinery evaluates, for g(t) = t^m on (0, T) with T <= m - 1, the exact L1
errors of both operators in closed form, their quotient at finite beta, and
the beta -> 0 limit ((m-T)/T) / (Psi(m+1) - ln T), from which the
comparison table is generated.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .specfun import _LN_GAMMA_1P, _ln_gamma_shift
from .exceptions import BracketingError, DegenerateFitError, DomainError, NumericalError
from .norms import ErrorReport

__all__ = [
    "OrderFit",
    "RatioResult",
    "fit_order",
    "ratio_cf_over_c_l1",
    "ratio_limit",
    "s_star",
    "t_star",
    "table1",
]

#: a sweep whose log-log residual exceeds this is not a power law
MAX_LOG_RESIDUAL = 0.5
#: a fitted exponent below this means the errors do not decay at all
#: (the Riemann-Liouville case), so no convergence order exists
MIN_DECAY_RATE = 0.05

_T_STAR_TOL = 1e-10
_T_STAR_CAP = 1e6
_T_STAR_STEPS = 50


@dataclass(frozen=True)
class OrderFit:
    """Least-squares power-law fit E(beta) ~ exp(log_c_hat) * beta^r_hat."""

    r_hat: float
    log_c_hat: float
    residual: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.residual >= 0.0:
            raise DomainError(f"residual must be non-negative, got {self.residual!r}")
        if self.n_points < 2:
            raise DomainError("a fit needs at least 2 points")


@dataclass(frozen=True)
class RatioResult:
    """A CF/C error-ratio value, at finite beta or in the beta -> 0 limit."""

    m: int
    T: float
    beta: float | None
    value: float


def fit_order(reports: list[ErrorReport]) -> OrderFit:
    """Fit ln E = r ln beta + ln C through an error sweep.

    Refuses (raises DegenerateFitError) when the data is not a decaying
    power law: zero, negative or infinite values, max log-residual above
    ``MAX_LOG_RESIDUAL``, or a fitted exponent below ``MIN_DECAY_RATE``.
    """
    if len(reports) < 4:
        raise DomainError(f"need at least 4 sweep points, got {len(reports)}")
    head = reports[0]
    for r in reports[1:]:
        if r.operator_kind is not head.operator_kind or r.p is not head.p or r.interval != head.interval:
            raise DomainError("all sweep reports must share operator kind, norm and interval")
    betas = [r.beta for r in reports]
    if any(x <= y for x, y in zip(betas, betas[1:])):
        raise DomainError("sweep betas must be strictly decreasing")
    values = [r.value for r in reports]
    if any(v <= 0.0 for v in values):
        raise DegenerateFitError(
            "sweep contains non-positive error values; no log-log fit exists"
        )
    if not all(math.isfinite(v) for v in values):
        raise DegenerateFitError("sweep contains non-finite error values; no log-log fit exists")
    x = np.log(betas)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    if residual > MAX_LOG_RESIDUAL:
        raise DegenerateFitError(
            f"errors do not follow a power law (max log-residual {residual:.3g})"
        )
    if slope < MIN_DECAY_RATE:
        raise DegenerateFitError(
            f"errors do not decay (fitted exponent {slope:.3g} below {MIN_DECAY_RATE}); "
            "no order of convergence exists"
        )
    return OrderFit(float(slope), float(intercept), residual, len(reports))


def _check_ratio_args(m: int, T: float | None = None) -> None:
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise DomainError(f"m must be an integer >= 2, got {m!r}")
    if T is not None and not (0.0 < T <= m - 1):
        raise DomainError(f"T must lie in (0, m-1] = (0, {m - 1}], got {T!r}")


def _check_beta(beta: float) -> float:
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta!r}")
    return float(beta)


def _cf_rate(beta: float, v: float) -> float:
    """(1 - beta)/beta, the rate of the argument -rate v of E_{1,m}, or
    NumericalError where rate v overflows a double (a subnormal beta)."""
    rate = (1.0 - beta) / beta
    if not rate * v < math.inf:
        raise NumericalError(
            f"beta={beta!r} is too small: ((1 - beta)/beta) * {v!r} overflows a double"
        )
    return rate


def ratio_cf_over_c_l1(m: int, T: float, beta: float) -> RatioResult:
    """Exact finite-beta quotient of the two L1 errors for g(t) = t^m on (0, T).

    numerator   (T^m/(1-beta)) (Gamma(m+1) E_{1,m+1}(-((1-beta)/beta) T) - beta)
    denominator (T^m/Gamma(m+beta+1)) (Gamma(m+beta+1) - Gamma(m+1) T^beta)

    Both hold with fixed sign for T <= m - 1.  A beta so small that
    ((1-beta)/beta) T overflows is refused with NumericalError.
    """
    _check_ratio_args(m, T)
    beta = _check_beta(beta)
    rate = _cf_rate(beta, T)
    ml = specfun.mittag_leffler_one(m + 1.0, -rate * T)
    num = T**m / (1.0 - beta) * (specfun.gamma(m + 1.0) * ml - beta)
    # Gamma(m+1+beta) - Gamma(m+1) T^beta cancels to O(beta); divided by
    # Gamma(m+1+beta) it is 1 - e^(beta ln T - dg), dg = ln of Gamma(m+1+beta)
    # / Gamma(m+1), which expm1 takes without that cancellation
    dg = _ln_gamma_shift(m + 1, beta)
    den = -(T**m) * math.expm1(beta * math.log(T) - dg)
    return RatioResult(int(m), float(T), beta, num / den)


def _limit_value(m: int, T: float, psi: float) -> float:
    """((m-T)/T) / (psi - ln T), psi = Psi(m+1): the limit ratio at checked (m, T)."""
    denom = psi - math.log(T)
    if denom == 0.0:
        # cannot happen for T <= m - 1 since Psi(m+1) > ln(m-1)
        raise DomainError(f"Psi(m+1) equals ln T at m={m}, T={T}")
    return (m - T) / T / denom


def ratio_limit(m: int, T: float) -> RatioResult:
    """beta -> 0 limit of the CF/C L1 error ratio: ((m-T)/T) / (Psi(m+1) - ln T)."""
    _check_ratio_args(m, T)
    return RatioResult(int(m), float(T), None, _limit_value(m, T, specfun.digamma(m + 1.0)))


def t_star(m: int, beta: float) -> float:
    """Root v of Gamma(m) E_{1,m}(-((1-beta)/beta) v) = beta, with v >= m - 1.

    The left side equals (m-1) int_0^1 (1-s)^(m-2) e^(-xs) ds at
    x = ((1-beta)/beta) v, so g(v) = left side - beta is strictly decreasing
    and convex, and Newton's method from g(m-1) > 0 rises monotonically to the
    root, on the exact slope z E'_{1,m}(z) = E_{1,m-1}(z) - (m-1) E_{1,m}(z).
    Each iterate takes E_{1,m} and E_{1,m-1} from one call of
    ``specfun._mittag_leffler_one_pair``, which sums both from one term list
    where both take the closed form: at most 5 calls for m = 2..10 and beta
    0.99..1e-12.  It stops at a step below ``_T_STAR_TOL``, and refuses an
    iterate past ``_T_STAR_CAP``, a slope that is not negative, or
    ``_T_STAR_STEPS`` steps; a beta so small that ((1-beta)/beta) (m-1)
    overflows is refused with NumericalError.
    """
    _check_ratio_args(m)
    beta = _check_beta(beta)
    v = float(m - 1)
    rate = _cf_rate(beta, v)
    gm = specfun.gamma(float(m))
    pair = specfun._mittag_leffler_one_pair
    upper, lower = pair(m, -rate * v)  # E_{1,m} and E_{1,m-1} at -rate v
    g_v = gm * upper - beta
    if g_v <= 0.0:
        if g_v > -1e-12:  # root sits at the bound itself, up to rounding
            return v
        raise BracketingError(f"defining function already negative at the lower bound m-1={v}")
    for _ in range(_T_STAR_STEPS):
        slope = (gm * lower - (m - 1) * (g_v + beta)) / v
        if not slope < 0.0:
            break
        step = -g_v / slope
        v += step
        if not v <= _T_STAR_CAP:
            break
        if abs(step) <= _T_STAR_TOL:
            return v
        upper, lower = pair(m, -rate * v)
        g_v = gm * upper - beta
    raise BracketingError(
        f"Newton's method from m-1 found no root (m={m}, beta={beta}): a slope that is "
        f"not negative, an iterate past {_T_STAR_CAP:g} or {_T_STAR_STEPS} steps"
    )


def s_star(m: int, beta: float) -> float:
    """Root w of w^beta Gamma(m)/Gamma(m+beta) = 1: w = (Gamma(m+beta)/Gamma(m))^(1/beta).

    ln w is ``specfun._ln_gamma_shift(m, beta) / beta``.  Below beta = 1e-300 that
    quotient is c1 + sum_{k<m} 1/k = Psi(m) to within beta, and it is taken
    so: the shift, beta (c1 + ...) + sum_k log1p(beta / k), would lose the
    digits of a subnormal beta before the division."""
    _check_ratio_args(m)
    beta = _check_beta(beta)
    if beta < 1e-300:
        return math.exp(math.fsum([_LN_GAMMA_1P[0], *(1.0 / k for k in range(1, m))]))
    return math.exp(_ln_gamma_shift(m, beta) / beta)


def table1() -> list[tuple[int, float, float]]:
    """Limit ratios for m = 3..6 at T = 1 and T = m - 1: ``ratio_limit``'s
    values, from one Psi(m+1) per row."""
    rows = []
    for m in (3, 4, 5, 6):
        psi = specfun.digamma(m + 1.0)
        rows.append((m, _limit_value(m, 1.0, psi), _limit_value(m, float(m - 1), psi)))
    return rows
