"""Fractional operators computed by closed form or product quadrature.

The two singular-kernel operators (Riemann-Liouville integral, Caputo
derivative) use product integration: the smooth factor is replaced by its
piecewise-linear interpolant on a uniform grid and every cell is integrated
against the power weight exactly.  The Caputo-Fabrizio derivative does the
same against the exponential kernel.  The grid is split at catalog
breakpoints first, so piecewise-constant derivatives are integrated without
interpolation error.  The Riemann-Liouville derivative is always assembled
as the boundary term ``funcat.rl_boundary_term`` plus the Caputo derivative,
never by differentiating the fractional integral numerically.

Every catalog entry has closed forms (``funcat``), so product quadrature
serves user-defined functions, ``use_closed_form=False``, and the points
past a closed form's reach.

One array evaluator, ``_evaluate_points``, gives the values at many points
in one call; ``evaluate_grid`` (the sup-norm scan, ``cli figures``) and the
L1 integrand of ``norms`` both go through it.  Closed forms come from the
catalog's array hook ``TestFunction._closed_form_grid``, as numpy
expressions over all the points.  On a uniform grid over the whole interval
with no breakpoint inside, one product trapezoid serves the points without
one: its cell moments depend only on the distance k - j between the
evaluation node and the cell, so each weighted sum over cells is a Toeplitz
product, done with real FFTs (Hairer, Lubich & Schlichte, SIAM J. Sci.
Stat. Comput. 6 (1985) 532).  Anywhere else such a point falls back to
scalar ``evaluate``.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import funcat, specfun
from .exceptions import DomainError, IntegrationError
from .funcat import OperatorKind, TestFunction

__all__ = [
    "CaputoFabrizioKernel",
    "CaputoKernel",
    "CustomKernel",
    "FractionalOrder",
    "KernelSpec",
    "QuadratureScheme",
    "caputo",
    "caputo_fabrizio",
    "evaluate",
    "evaluate_grid",
    "generic_kernel_derivative",
    "riemann_liouville",
    "rl_integral",
]

DEFAULT_N_NODES = 4096


@dataclass(frozen=True)
class FractionalOrder:
    """A differentiation order strictly inside (0, 1).

    The complementary parametrisation (order 1 - beta for beta near 0) is
    reachable through :meth:`from_beta` / :attr:`beta`.
    """

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"fractional order must lie strictly in (0, 1), got {self.alpha!r}")

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    @classmethod
    def from_beta(cls, beta: float) -> "FractionalOrder":
        if not (0.0 < beta < 1.0):
            raise DomainError(f"beta must lie strictly in (0, 1), got {beta!r}")
        return cls(1.0 - beta)


def _order_value(alpha) -> float:
    if isinstance(alpha, FractionalOrder):
        return alpha.alpha
    return FractionalOrder(alpha).alpha


@dataclass(frozen=True)
class QuadratureScheme:
    """Uniform-grid size for the product quadratures: the cell count over
    [a, t] for one value, the least cell count over [a, b] for a grid."""

    n_nodes: int = DEFAULT_N_NODES

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise DomainError(f"n_nodes must be at least 2, got {self.n_nodes!r}")


@dataclass(frozen=True)
class CaputoKernel:
    """h(t, beta) = t^(beta-1) / Gamma(beta), singular at 0."""


@dataclass(frozen=True)
class CaputoFabrizioKernel:
    """h(t, beta) = exp(-((1-beta)/beta) t) / beta, bounded."""


@dataclass(frozen=True)
class CustomKernel:
    """A user-supplied convolution kernel h(t, beta), integrable on (0, inf)."""

    h: Callable[[float, float], float]


KernelSpec = CaputoKernel | CaputoFabrizioKernel | CustomKernel

_KERNEL_KINDS = {
    CaputoKernel: OperatorKind.CAPUTO,
    CaputoFabrizioKernel: OperatorKind.CAPUTO_FABRIZIO,
}


def _check_window(a: float, t: float) -> None:
    if not (math.isfinite(a) and math.isfinite(t)):
        raise DomainError(f"a and t must be finite, got a={a!r}, t={t!r}")
    if not t > a:
        raise DomainError(f"evaluation point must satisfy t > a, got t={t}, a={a}")


def _n_nodes(scheme: QuadratureScheme | None) -> int:
    return scheme.n_nodes if scheme is not None else DEFAULT_N_NODES


def _segments(
    f: TestFunction, a: float, t: float, n_nodes: int
) -> list[tuple[float, float, int]]:
    """Split [a, t] at catalog breakpoints, allocating cells by length."""
    kinks = sorted(x for x in set(f.breakpoints()) if a < x < t)
    edges = [a, *kinks, t]
    total = t - a
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(2, int(round(n_nodes * (hi - lo) / total)))
        out.append((lo, hi, n))
    return out


def _sample(
    values: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 uniform nodes of [lo, hi], for the weight moments, and the
    samples at those nodes with the segment endpoints inset, so one-sided
    values are picked up next to kinks and integrable derivative
    singularities stay finite.  The inset is 1e-9 of the segment, and at
    least one ulp where that rounds away, so an inset node never lands on
    the endpoint itself."""
    nodes = np.linspace(lo, hi, n + 1)
    inset = nodes.copy()
    eps = (hi - lo) * 1e-9
    inset[0] = max(lo + eps, np.nextafter(lo, hi))
    inset[-1] = min(hi - eps, np.nextafter(hi, lo))
    out = np.asarray(values(inset), dtype=float)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(f"non-finite integrand samples on [{lo}, {hi}]")
    return nodes, out


def _power_segment(
    values: Callable[[np.ndarray], np.ndarray], p: float, t: float, lo: float, hi: float, n: int
) -> float:
    """Integral over [lo, hi] of (linear interpolant of g)(tau) (t-tau)^(p-1).

    Cell moments of the weight are exact, so the only error is interpolation
    of the smooth factor; the weight may be singular at tau = t (0 < p < 1).
    """
    nodes, g = _sample(values, lo, hi, n)
    u = t - nodes
    u[-1] = max(u[-1], 0.0)  # guard rounding when hi == t
    up = u**p
    m0 = (up[:-1] - up[1:]) / p
    up1 = u * up
    m1 = u[:-1] * m0 - (up1[:-1] - up1[1:]) / (p + 1.0)
    h = (hi - lo) / n
    slope = np.diff(g) / h
    return float(np.dot(g[:-1], m0) + np.dot(slope, m1))


def _one_minus_1px_emx(x: float) -> float:
    """1 - (1+x) e^(-x), series-protected against cancellation for small x."""
    if x < 1e-3:
        return x * x * (0.5 - x * (1.0 / 3.0 - x * (0.125 - x * (1.0 / 30.0 - x / 144.0))))
    return 1.0 - (1.0 + x) * math.exp(-x)


def _exp_segment(
    values: Callable[[np.ndarray], np.ndarray], rate: float, t: float, lo: float, hi: float, n: int
) -> float:
    """Integral over [lo, hi] of (linear interpolant of g)(tau) e^(-rate (t-tau))."""
    nodes, g = _sample(values, lo, hi, n)
    h = (hi - lo) / n
    x = rate * h
    c0 = -math.expm1(-x) / rate
    c1 = _one_minus_1px_emx(x) / (rate * rate)
    u_right = t - nodes[1:]  # distance from each cell's right node to t
    u_right[-1] = max(u_right[-1], 0.0)
    w = np.exp(-rate * u_right)
    slope = np.diff(g) / h
    return float(np.dot(w, g[1:] * c0 - slope * c1))


def rl_integral(
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
) -> float:
    """Fractional integral of order alpha: (1/Gamma(alpha)) int f(tau)(t-tau)^(alpha-1)."""
    al = _order_value(alpha)
    _check_window(a, t)
    n = _n_nodes(scheme)
    total = math.fsum(
        _power_segment(f.value_array, al, t, lo, hi, m) for lo, hi, m in _segments(f, a, t, n)
    )
    return total / specfun.gamma(al)


def caputo(
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
    *,
    use_closed_form: bool = True,
) -> float:
    """Caputo derivative of order alpha: fractional integral of order 1-alpha of f'."""
    al = _order_value(alpha)
    _check_window(a, t)
    if use_closed_form:
        known = funcat.closed_form_fractional(f, OperatorKind.CAPUTO, al, a, t)
        if known is not None:
            return known
    p = 1.0 - al
    n = _n_nodes(scheme)
    total = math.fsum(
        _power_segment(f.derivative_array, p, t, lo, hi, m) for lo, hi, m in _segments(f, a, t, n)
    )
    return total / specfun.gamma(p)


def caputo_fabrizio(
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
    *,
    use_closed_form: bool = True,
) -> float:
    """Caputo-Fabrizio derivative: (1/(1-alpha)) int f'(tau) e^(-(alpha/(1-alpha))(t-tau))."""
    al = _order_value(alpha)
    _check_window(a, t)
    if use_closed_form:
        known = funcat.closed_form_fractional(f, OperatorKind.CAPUTO_FABRIZIO, al, a, t)
        if known is not None:
            return known
    rate = al / (1.0 - al)
    n = _n_nodes(scheme)
    total = math.fsum(
        _exp_segment(f.derivative_array, rate, t, lo, hi, m) for lo, hi, m in _segments(f, a, t, n)
    )
    return total / (1.0 - al)


def riemann_liouville(
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
    *,
    use_closed_form: bool = True,
) -> float:
    """Riemann-Liouville derivative via the W^{1,1} identity
    RL = f(a)(t-a)^(-alpha)/Gamma(1-alpha) + Caputo."""
    al = _order_value(alpha)
    _check_window(a, t)
    boundary = funcat.rl_boundary_term(f, al, a, t)
    return boundary + caputo(f, al, a, t, scheme, use_closed_form=use_closed_form)


def evaluate(
    kind: OperatorKind,
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
) -> float:
    """Value at t of the operator named by ``kind``, closed form where known."""
    # module-level lookups, so a wrapper installed on the module sees every call
    if kind is OperatorKind.CAPUTO:
        return caputo(f, alpha, a, t, scheme)
    if kind is OperatorKind.CAPUTO_FABRIZIO:
        return caputo_fabrizio(f, alpha, a, t, scheme)
    if kind is OperatorKind.RIEMANN_LIOUVILLE:
        return riemann_liouville(f, alpha, a, t, scheme)
    raise DomainError(f"unknown operator kind {kind!r}")


def _grid_points(a: float, b: float, n: int) -> np.ndarray:
    """t_i = a + (b - a) i / n for i = 1..n, rounded as that scalar expression is."""
    return a + (b - a) * np.arange(1, n + 1) / n


def evaluate_grid(
    kind: OperatorKind,
    f: TestFunction,
    alpha,
    a: float,
    b: float,
    n: int,
    scheme: QuadratureScheme | None = None,
) -> np.ndarray:
    """``evaluate(kind, f, alpha, a, t_i)`` at t_i = a + (b - a) i / n, i = 1..n.

    Closed-form values come from ``f._closed_form_grid`` and lie within
    1e-13 max|values| of ``evaluate``; for Power-CF with a non-integer
    exponent, whose Mittag-Leffler series is summed in another order, within
    1e-10 max|values|.  The others come from one product trapezoid on
    M = n ceil(n_nodes / n) uniform cells over [a, b], whose step is never
    coarser than the pointwise scheme's at t = b.  A function with a
    breakpoint inside (a, b) and no closed form falls back to ``evaluate`` at
    each point that has none.
    """
    al = _order_value(alpha)
    if n < 1:
        raise DomainError(f"grid size must be at least 1, got {n!r}")
    if not isinstance(kind, OperatorKind):
        raise DomainError(f"unknown operator kind {kind!r}")
    ts = _grid_points(a, b, n)
    _check_window(a, float(ts[0]))  # also refuses b <= a and non-finite b
    return _evaluate_points(kind, f, al, a, ts, scheme, b)


def _evaluate_points(
    kind: OperatorKind,
    f: TestFunction,
    alpha: float,
    a: float,
    ts: np.ndarray,
    scheme: QuadratureScheme | None,
    b: float | None = None,
) -> np.ndarray:
    """``evaluate(kind, f, alpha, a, t)`` at each point of ts (all > a, in
    any order): the one array evaluator behind ``evaluate_grid`` and the
    L1 integrand.

    C and CF values come from one ``f._closed_form_grid`` call.  A point
    with none (NaN) is filled from one product trapezoid when ts is
    ``_grid_points(a, b, len(ts))`` with no breakpoint inside (a, b), and
    otherwise (b omitted) from scalar ``evaluate``.  RL is
    ``funcat.rl_boundary_term`` plus the C values.
    """
    base = OperatorKind.CAPUTO if kind is OperatorKind.RIEMANN_LIOUVILLE else kind
    values = f._closed_form_grid(base, alpha, a, ts)
    if values is None:
        values = np.full(ts.shape, math.nan)
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        if b is None or any(a < x < b for x in f.breakpoints()):
            fill = [evaluate(base, f, alpha, a, t, scheme) for t in ts[missing].tolist()]
        else:
            fill = _trapezoid_grid(base, f, alpha, a, b, len(ts), _n_nodes(scheme))[missing]
        values[missing] = fill
    if kind is OperatorKind.RIEMANN_LIOUVILLE:
        return funcat.rl_boundary_term(f, alpha, a, ts) + values
    return values


def _trapezoid_grid(
    kind: OperatorKind, f: TestFunction, alpha: float, a: float, b: float, n: int, n_nodes: int
) -> np.ndarray:
    """The product trapezoids of ``caputo``/``caputo_fabrizio`` at every
    (M/n)-th node of one uniform grid of M cells over [a, b], with no
    breakpoint inside."""
    stride = -(-n_nodes // n)
    m = n * stride
    _, g = _sample(f.derivative_array, a, b, m)
    h = (b - a) / m
    slope = np.diff(g) / h
    if kind is OperatorKind.CAPUTO:
        # the cell [tau_j, tau_j+1] seen from node k lies at distance d = k - j;
        # m0, m1 are _power_segment's exact moments of (t - tau)^(p-1)
        p = 1.0 - alpha
        u = h * np.arange(m + 1)
        up = u**p
        up1 = u * up
        m0 = (up[1:] - up[:-1]) / p
        m1 = u[1:] * m0 - (up1[1:] - up1[:-1]) / (p + 1.0)
        total = _toeplitz_sum(
            [(g[:-1], np.concatenate(([0.0], m0))), (slope, np.concatenate(([0.0], m1)))], m + 1
        )
        return total[stride::stride] / specfun.gamma(p)
    # Caputo-Fabrizio: _exp_segment's cell term, damped by e^(-rate u) with
    # u = (k - 1 - j) h the distance from the cell's right node to node k
    rate = alpha / (1.0 - alpha)
    x = rate * h
    c0 = -math.expm1(-x) / rate
    c1 = _one_minus_1px_emx(x) / (rate * rate)
    cells = g[1:] * c0 - slope * c1
    total = _toeplitz_sum([(cells, np.exp(-x * np.arange(m)))], m)
    return total[stride - 1 :: stride] / (1.0 - alpha)


def _toeplitz_sum(pairs: list[tuple[np.ndarray, np.ndarray]], size: int) -> np.ndarray:
    """sum over (x, w) of the causal products sum_j x[j] w[k - j], for k < size.

    The real FFTs are zero-padded to at least the full length of the linear
    convolution, so the circular product does not wrap around; the padded
    length is the least of the form 2^k, 3 2^k or 5 2^k, which numpy.fft
    transforms fastest.
    """
    need = max(len(x) + len(w) - 1 for x, w in pairs)
    n_fft = min(c << (-(-need // c) - 1).bit_length() for c in (1, 3, 5))
    spectrum = sum(np.fft.rfft(x, n_fft) * np.fft.rfft(w, n_fft) for x, w in pairs)
    return np.fft.irfft(spectrum, n_fft)[:size]


def generic_kernel_derivative(
    f: TestFunction,
    kernel: KernelSpec,
    beta: float,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
) -> float:
    """Convolution-kernel derivative (f' * h(., beta))(t) of order 1 - beta.

    The two named kernels reproduce the Caputo and Caputo-Fabrizio
    derivatives of order 1 - beta exactly (same code path); custom kernels
    are integrated adaptively after a finite-integral smoke test.
    """
    order = FractionalOrder.from_beta(beta)
    _check_window(a, t)
    kind = _KERNEL_KINDS.get(type(kernel))
    if kind is None:
        return _custom_convolution(f, kernel, beta, a, t)
    return evaluate(kind, f, order, a, t, scheme)


def _custom_convolution(
    f: TestFunction, kernel: CustomKernel, beta: float, a: float, t: float
) -> float:
    import warnings

    from scipy import integrate  # deferred: only the custom path needs scipy

    upper = max(1.0, t - a)
    decades = [x for x in (1e-8, 1e-6, 1e-4, 1e-2) if x < upper]
    with warnings.catch_warnings():
        # a divergent kernel is expected to make the smoke quadrature complain;
        # the decade split points keep QAGS from extrapolating the divergence away
        warnings.simplefilter("ignore")
        coarse, _ = integrate.quad(lambda u: kernel.h(u, beta), 1e-4, upper, limit=200)
        fine, _ = integrate.quad(
            lambda u: kernel.h(u, beta), 1e-10, upper, limit=200, points=decades
        )
    # finite-integral smoke test only: mass exploding as the lower end drops
    # flags power-type divergence; slow (logarithmic) divergence passes and
    # remains the caller's responsibility
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise IntegrationError(f"kernel is not integrable on (0, {upper}]")
    if abs(fine) > 50.0 * max(abs(coarse), 1e-300) and abs(fine) > 1e3:
        raise IntegrationError(f"kernel mass diverges near 0 on (0, {upper}]")

    def integrand(tau: float) -> float:
        val = f.derivative(tau) * kernel.h(t - tau, beta)
        if not math.isfinite(val):
            raise IntegrationError(f"custom kernel produced a non-finite value at tau={tau}")
        return val

    edges = [a, *(x for x in sorted(set(f.breakpoints())) if a < x < t), t]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        part, _ = integrate.quad(integrand, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200)
        total += part
    return total
