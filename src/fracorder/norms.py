"""Error functionals E_{f,p}(beta) = ||D^(1-beta) f - f'||_p for p in {1, inf}.

The L1 functional is an adaptive composite integral split at catalog
breakpoints.  The Riemann-Liouville case needs special care: its integrand
carries the term f(a)(t-a)^(beta-1)/Gamma(beta), whose mass concentrates so
hard at the left endpoint for small beta that the region below any floating
point offset delta still holds a fraction 1 - delta^beta of the integral
(97% below 1e-16 at beta = 1e-3).  The leftmost panel is therefore computed
under the exact flattening substitution t = a + w v^(1/beta), which maps the
power term to a constant and leaves a bounded integrand on (0, 1].

The L-infinity functional scans a dense grid over (a, b], with every
operator value of the scan from one ``operators.evaluate_grid`` call and
every f' value from one ``derivative_array`` call (points on a breakpoint
aside).  It refines the best point with a pointwise golden-section search
and, for the Caputo and Caputo-Fabrizio operators (which vanish as
t -> a+), also considers the boundary limit of the error, |f'(a+)|, which
is where the supremum lives whenever f'(a) != 0.  For the Riemann-Liouville
operator with f(a) != 0 the supremum is infinite and no scan is made.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import operators, specfun
from .exceptions import BudgetExceededError, DomainError, NonDifferentiableError
from .funcat import Interval, OperatorKind, TestFunction
from .operators import FractionalOrder, QuadratureScheme

__all__ = [
    "ErrorReport",
    "NormKind",
    "error_l1",
    "error_linf",
    "error_sweep",
]

DEFAULT_TOL = 1e-8
DEFAULT_GRID = 20001
MAX_EVALS = 1_000_000

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NormKind(enum.Enum):
    L1 = "1"
    LINF = "inf"


@dataclass(frozen=True)
class ErrorReport:
    """One evaluation of the error functional at a single beta."""

    operator_kind: OperatorKind
    beta: float
    p: NormKind
    interval: Interval
    value: float
    n_eval_points: int

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not self.value >= 0.0:
            raise DomainError(f"error value must be non-negative, got {self.value!r}")
        if self.n_eval_points < 1:
            raise DomainError("n_eval_points must be positive")


class _Counter:
    __slots__ = ("count", "limit")

    def __init__(self, limit: int) -> None:
        self.count = 0
        self.limit = limit

    def tick(self) -> None:
        self.count += 1
        if self.count > self.limit:
            raise BudgetExceededError(
                f"adaptive integration exceeded {self.limit} evaluations"
            )


def _derivative_off_kinks(f: TestFunction, t: float, nudge: float) -> float:
    try:
        return f.derivative(t)
    except NonDifferentiableError:
        return f.derivative(t + nudge)


def _derivative_grid(f: TestFunction, ts: np.ndarray, nudge: float) -> np.ndarray:
    """``_derivative_off_kinks`` at each point of ts; NaN where even the
    nudged derivative does not exist.  One ``f.derivative_array`` call
    serves every point off the breakpoints; only the points on one are
    taken singly."""
    on_kink = np.isin(ts, f.breakpoints())
    values = np.empty(ts.shape)
    values[~on_kink] = f.derivative_array(ts[~on_kink])
    for i in np.flatnonzero(on_kink).tolist():
        try:
            values[i] = _derivative_off_kinks(f, float(ts[i]), nudge)
        except NonDifferentiableError:
            values[i] = math.nan
    return values


def _left_panel_splits(a: float, width: float, kind: OperatorKind, beta: float) -> list[float]:
    """Interior split points resolving boundary layers in the first panel."""
    points = {a + width * frac for frac in (1e-6, 1e-3, 1e-1)}
    if kind is OperatorKind.CAPUTO_FABRIZIO:
        scale = beta / (1.0 - beta)  # decay length of the exponential kernel
        points.update(a + scale * mult for mult in (2.0, 10.0, 50.0))
    return sorted(p for p in points if a < p < a + width)


def _quad_panel(fn, lo, hi, epsabs):
    from scipy import integrate  # deferred: only the L1 functional needs scipy

    val, _ = integrate.quad(fn, lo, hi, epsabs=epsabs, epsrel=1e-12, limit=400)
    return val


def _rl_singular_panel(f, alpha, a, w, scheme, counter, nudge, epsabs):
    """L1 mass of the RL error on (a, a+w] via the substitution t = a + w v^(1/beta).

    In v-coordinates the singular term becomes the constant f(a) w^beta /
    (beta Gamma(beta)) and the remainder (the Caputo error) is damped by
    v^((1-beta)/beta); both factors underflow harmlessly to the exact limit
    value near v = 0.
    """
    beta = 1.0 - alpha
    base = f.value(a) * w**beta / (beta * specfun.gamma(beta))
    expo = (1.0 - beta) / beta

    def integrand(v: float) -> float:
        counter.tick()
        factor = (w / beta) * v**expo
        if factor == 0.0:
            return abs(base)
        t = a + w * v ** (1.0 / beta)
        if t <= a:
            return abs(base)
        caputo = operators.evaluate(OperatorKind.CAPUTO, f, alpha, a, t, scheme)
        rest = caputo - _derivative_off_kinks(f, t, nudge)
        return abs(base + factor * rest)

    # cluster panel edges where the t-range compresses (v near 1)
    edges = sorted({0.0, 1.0, *(frac**beta for frac in (1e-9, 1e-6, 1e-3, 1e-1))})
    return math.fsum(
        _quad_panel(integrand, lo, hi, epsabs / (len(edges) - 1))
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def error_l1(
    f: TestFunction,
    kind: OperatorKind,
    beta: float,
    interval: Interval,
    tol: float = DEFAULT_TOL,
    *,
    scheme: QuadratureScheme | None = None,
    max_evals: int = MAX_EVALS,
) -> ErrorReport:
    """L1 norm of D^(1-beta) f - f' over the interval, to absolute accuracy tol."""
    order = FractionalOrder.from_beta(beta)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    a, b = interval.a, interval.b
    counter = _Counter(max_evals)
    nudge = interval.width * 1e-12

    def err(t: float) -> float:
        counter.tick()
        return abs(
            operators.evaluate(kind, f, order, a, t, scheme) - _derivative_off_kinks(f, t, nudge)
        )

    kinks = sorted(x for x in set(f.breakpoints()) if a < x < b)
    edges = [a, *kinks, b]
    first_hi = edges[1]

    panels: list[tuple[float, float]] = []
    singular_left = kind is OperatorKind.RIEMANN_LIOUVILLE and f.value(a) != 0.0
    if not singular_left:
        inner = _left_panel_splits(a, first_hi - a, kind, beta)
        panels.extend(zip([a, *inner], [*inner, first_hi]))
    panels.extend(zip(edges[1:-1], edges[2:]))

    n_panels = len(panels) + (1 if singular_left else 0)
    epsabs = tol / max(n_panels, 1)
    parts = []
    if singular_left:
        parts.append(
            _rl_singular_panel(f, order.alpha, a, first_hi - a, scheme, counter, nudge, epsabs)
        )
    parts.extend(_quad_panel(err, lo, hi, epsabs) for lo, hi in panels)
    return ErrorReport(kind, beta, NormKind.L1, interval, abs(math.fsum(parts)), counter.count)


def _golden_max(fn, lo: float, hi: float, iters: int = 60) -> float:
    """Golden-section search for the maximum of fn on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
    return max(f1, f2)


def error_linf(
    f: TestFunction,
    kind: OperatorKind,
    beta: float,
    interval: Interval,
    n_grid: int = DEFAULT_GRID,
    *,
    scheme: QuadratureScheme | None = None,
) -> ErrorReport:
    """Essential supremum of |D^(1-beta) f - f'| over (a, b].

    For the Riemann-Liouville operator with f(a) != 0 the value is ``inf``
    (with one evaluation, of f(a)): the boundary term
    f(a)(t-a)^(beta-1)/Gamma(beta) is unbounded as t -> a+, and no catalog
    function has an f' that cancels it.
    """
    order = FractionalOrder.from_beta(beta)
    if n_grid < 2:
        raise DomainError(f"n_grid must be at least 2, got {n_grid!r}")
    a, b = interval.a, interval.b
    if kind is OperatorKind.RIEMANN_LIOUVILLE and f.value(a) != 0.0:
        return ErrorReport(kind, beta, NormKind.LINF, interval, math.inf, 1)
    nudge = interval.width * 1e-12
    count = n_grid

    def err(t: float) -> float:
        nonlocal count
        count += 1
        try:
            return abs(
                operators.evaluate(kind, f, order, a, t, scheme)
                - _derivative_off_kinks(f, t, nudge)
            )
        except NonDifferentiableError:
            return -math.inf  # skip: measure-zero point

    fprime = _derivative_grid(f, operators._grid_points(a, b, n_grid), nudge)
    values = np.abs(operators.evaluate_grid(kind, f, order, a, b, n_grid, scheme) - fprime)
    values[np.isnan(fprime)] = -math.inf  # skip: measure-zero points
    best_i = int(np.argmax(values))
    best = float(values[best_i])
    step = interval.width / n_grid
    lo = a + best_i * step  # one grid point left of the argmax
    hi = a + min(best_i + 2, n_grid) * step
    refined = _golden_max(err, max(lo, a + step * 1e-6), hi)
    candidates = [best, refined]
    if kind in (OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO):
        # operators vanish as t -> a+, so the boundary limit of the error is
        # |f'(a+)|; the grid approaches it only at rate (t-a)^beta
        candidates.append(abs(_derivative_off_kinks(f, a + nudge, nudge)))
        count += 1
    return ErrorReport(kind, beta, NormKind.LINF, interval, max(candidates), count)


def error_sweep(
    f: TestFunction,
    kind: OperatorKind,
    p: NormKind,
    betas: list[float],
    interval: Interval,
    *,
    tol: float = DEFAULT_TOL,
    n_grid: int = DEFAULT_GRID,
    scheme: QuadratureScheme | None = None,
    max_evals: int = MAX_EVALS,
) -> list[ErrorReport]:
    """One ErrorReport per beta, computed independently, in input order."""
    if not betas:
        raise DomainError("betas must be non-empty")
    if any(x <= y for x, y in zip(betas, betas[1:])):
        raise DomainError(f"betas must be strictly decreasing, got {betas!r}")

    def one(beta: float) -> ErrorReport:
        try:
            if p is NormKind.L1:
                return error_l1(f, kind, beta, interval, tol, scheme=scheme, max_evals=max_evals)
            return error_linf(f, kind, beta, interval, n_grid, scheme=scheme)
        except Exception as exc:
            raise _with_beta(exc, beta) from exc

    return [one(beta) for beta in betas]


def _with_beta(exc: Exception, beta: float) -> Exception:
    """A same-type copy of exc whose message leads with the beta; the copy
    skips the constructor, whose signature may differ from (message,)."""
    tagged = type(exc).__new__(type(exc))
    tagged.__dict__.update(vars(exc))
    tagged.args = (f"[beta={beta}] {exc}",)
    return tagged
