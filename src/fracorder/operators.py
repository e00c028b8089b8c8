"""Fractional operators computed by closed form or product quadrature.

All three kernels (the Riemann-Liouville integral's and Caputo's power
weights, Caputo-Fabrizio's exponential) use one product-trapezoid rule,
``_cell_weights``: the smooth factor is replaced by its piecewise-linear
interpolant on a uniform grid and every cell is integrated against the
kernel exactly.  The grid is split at catalog breakpoints first, so
piecewise-constant derivatives are integrated without interpolation error.
The Riemann-Liouville derivative is always assembled as the boundary term
``funcat.rl_boundary_term`` plus the Caputo derivative, never by
differentiating the fractional integral numerically.

Every catalog entry has closed forms (``funcat``), so product quadrature
serves user-defined functions, ``use_closed_form=False``, and the points
past a closed form's reach.

One array evaluator, ``_evaluate_points``, gives the values at many points
in one call: ``evaluate_grid``, the scalar operators (their closed forms,
at the one point t) and the error functionals of ``norms`` all go through
it.  No operator has a body of its own: ``_kernel`` maps C and CF to their
kernels, reading the constants from ``funcat.FractionalOrder``, which keeps
a small beta as given, and RL is always the boundary term plus C.  Closed
forms come from the catalog's one hook ``TestFunction._closed_form_grid``.
On a uniform grid over the whole interval with no breakpoint inside, one
product trapezoid serves the points without one: its node weights depend
only on the distance k - i between the evaluation node and the node, so the
weighted sum is one Toeplitz product, done with real FFTs (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532).  Anywhere else such a
point falls back to the pointwise product quadrature.

Custom kernels in ``generic_kernel_derivative`` run on the one adaptive
quadrature, ``_gauss_kronrod``, which ``norms.error_l1`` uses too; a value
it cannot bring within its tolerance is refused with IntegrationError.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import funcat, specfun
from .exceptions import BudgetExceededError, DomainError, IntegrationError
from .funcat import FractionalOrder, OperatorKind, TestFunction, _as_order

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
MAX_EVALS = 1_000_000  # the evaluation budget of one ``_gauss_kronrod`` call


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


def _sample(
    values: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 uniform nodes of [lo, hi], for the weight moments, and the
    samples at those nodes with the segment endpoints inset, so one-sided
    values are picked up next to kinks and integrable derivative
    singularities stay finite.  The inset is 1e-9 of the segment, and at
    least one ulp where that rounds away, so an inset node lands on an
    endpoint only where no float lies between the two."""
    nodes = np.linspace(lo, hi, n + 1)
    inset = nodes.copy()
    eps = (hi - lo) * 1e-9
    inset[0] = max(lo + eps, np.nextafter(lo, hi))
    inset[-1] = min(hi - eps, np.nextafter(hi, lo))
    out = np.asarray(values(inset), dtype=float)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(f"non-finite integrand samples on [{lo}, {hi}]")
    return nodes, out


def _one_minus_1px_emx(x: float) -> float:
    """1 - (1+x) e^(-x), series-protected against cancellation for small x."""
    if x < 1e-3:
        return x * x * (0.5 - x * (1.0 / 3.0 - x * (0.125 - x * (1.0 / 30.0 - x / 144.0))))
    return 1.0 - (1.0 + x) * math.exp(-x)


def _cell_weights(
    u: np.ndarray, h: float, p: float | None = None, rate: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The product-trapezoid weights of the kernel v^(p-1) or e^(-rate v).

    u holds descending distances from t of nodes h apart.  Over the cell from
    u[j] to u[j+1], the linear interpolant of node values g times the kernel
    integrates exactly to left[j] g_j + right[j] g_(j+1): right = m1 / h and
    left = m0 - right, from the kernel's mass m0 on the cell and its moment m1
    of the distance to node j (Diethelm, Ford & Freed, Nonlinear Dyn. 29
    (2002) 3, here from first differences of powers of u).
    """
    if rate is None:
        up = u**p
        up1 = u * up
        m0 = (up[:-1] - up[1:]) / p
        m1 = u[:-1] * m0 - (up1[:-1] - up1[1:]) / (p + 1.0)
    else:
        x = rate * h
        c0 = -math.expm1(-x) / rate  # the mass of e^(-rate s) on [0, h]
        c1 = _one_minus_1px_emx(x) / (rate * rate)  # and its moment of s
        near = np.exp(-rate * u[1:])
        m0 = near * c0
        m1 = near * (h * c0 - c1)
    right = m1 / h
    return m0 - right, right


def _kernel(kind: OperatorKind, order: FractionalOrder) -> tuple[float | None, float | None, float]:
    """(p, rate, scale): the C kernel is v^(p-1) / Gamma(p) with p = beta,
    the CF kernel e^(-rate v) / beta with rate = alpha / beta."""
    if kind is OperatorKind.CAPUTO:
        return order.beta, None, specfun.gamma(order.beta)
    return None, order.rate, order.beta


def _product_integral(
    values: Callable[[np.ndarray], np.ndarray],
    f: TestFunction,
    a: float,
    t: float,
    n_nodes: int,
    p: float | None = None,
    rate: float | None = None,
) -> float:
    """Integral over [a, t] of values(tau) times the kernel of ``_cell_weights``
    at t - tau: one product trapezoid on each piece between catalog
    breakpoints, with the n_nodes cells allocated by length.

    A piece with no float strictly inside (next to a breakpoint one ulp from
    a, t or another breakpoint) has no node where ``_sample`` can take a
    one-sided value.  It is dropped where the kernel's mass on it is at most
    1e-12 of its mass on [a, t], which moves the integral by at most the
    integrand's size there times that mass.  Otherwise it is sampled at its
    ends: right for f, which is continuous, and refused by the catalog's f'
    at a breakpoint.
    """

    def mass(lo: float, hi: float) -> float:
        left, right = _cell_weights(np.array([t - lo, t - hi]), hi - lo, p, rate)
        return float(left[0] + right[0])

    edges = [a, *funcat._breakpoints_inside(f, a, t), t]
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if not math.nextafter(lo, hi) < hi and mass(lo, hi) <= 1e-12 * mass(a, t):
            continue
        n = max(2, round(n_nodes * (hi - lo) / (t - a)))
        nodes, g = _sample(values, lo, hi, n)
        u = t - nodes
        u[-1] = max(u[-1], 0.0)  # guard rounding when hi == t
        left, right = _cell_weights(u, (hi - lo) / n, p, rate)
        parts.append(float(np.dot(g[:-1], left) + np.dot(g[1:], right)))
    return math.fsum(parts)


def rl_integral(
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
) -> float:
    """Fractional integral of order alpha: (1/Gamma(alpha)) int f(tau)(t-tau)^(alpha-1)."""
    al = _as_order(alpha).alpha
    _check_window(a, t)
    return _product_integral(f.value_array, f, a, t, _n_nodes(scheme), p=al) / specfun.gamma(al)


def _value(
    kind: OperatorKind,
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None,
    use_closed_form: bool = True,
) -> float:
    """The one scalar path behind ``evaluate`` and the three operators: RL is
    the scalar ``funcat.rl_boundary_term`` plus the C value, a closed form is
    ``_evaluate_points`` at the one point t (which fills a point without one
    by quadrature), and ``use_closed_form=False`` is the pointwise product
    trapezoid of the kernel of ``_kernel``."""
    if not isinstance(kind, OperatorKind):
        raise DomainError(f"unknown operator kind {kind!r}")
    order = _as_order(alpha)
    _check_window(a, t)
    if kind is OperatorKind.RIEMANN_LIOUVILLE:
        caputo_value = _value(OperatorKind.CAPUTO, f, order, a, t, scheme, use_closed_form)
        return funcat.rl_boundary_term(f, order, a, t) + caputo_value
    if use_closed_form:
        return float(_evaluate_points(kind, f, order, a, np.array([t], dtype=float), scheme)[0])
    p, rate, scale = _kernel(kind, order)
    return _product_integral(f.derivative_array, f, a, t, _n_nodes(scheme), p, rate) / scale


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
    return _value(OperatorKind.CAPUTO, f, alpha, a, t, scheme, use_closed_form)


def caputo_fabrizio(
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
    *,
    use_closed_form: bool = True,
) -> float:
    """Caputo-Fabrizio derivative: (1/beta) int f'(tau) e^(-rate (t-tau)), rate = alpha/beta."""
    return _value(OperatorKind.CAPUTO_FABRIZIO, f, alpha, a, t, scheme, use_closed_form)


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
    RL = f(a)(t-a)^(-alpha)/Gamma(beta) + Caputo, beta = 1 - alpha."""
    return _value(OperatorKind.RIEMANN_LIOUVILLE, f, alpha, a, t, scheme, use_closed_form)


def evaluate(
    kind: OperatorKind,
    f: TestFunction,
    alpha,
    a: float,
    t: float,
    scheme: QuadratureScheme | None = None,
) -> float:
    """Value at t of the operator named by ``kind``, closed form where known."""
    return _value(kind, f, alpha, a, t, scheme)


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

    Closed-form values come from ``f._closed_form_grid``, the hook
    ``evaluate`` takes at one point, and match its values to the last bit or
    so (a series summed for all points at once may add a term more).  The
    others come from one product trapezoid on M = n ceil(n_nodes / n)
    uniform cells over [a, b], whose step is never coarser than the
    pointwise scheme's at t = b.  A function with a breakpoint inside (a, b)
    and no closed form falls back to pointwise quadrature at each point that
    has none.
    """
    order = _as_order(alpha)
    if n < 1:
        raise DomainError(f"grid size must be at least 1, got {n!r}")
    if not isinstance(kind, OperatorKind):
        raise DomainError(f"unknown operator kind {kind!r}")
    ts = _grid_points(a, b, n)
    _check_window(a, float(ts[0]))  # also refuses b <= a and non-finite b
    return _evaluate_points(kind, f, order, a, ts, scheme, b)


def _evaluate_points(
    kind: OperatorKind,
    f: TestFunction,
    order: FractionalOrder,
    a: float,
    ts: np.ndarray,
    scheme: QuadratureScheme | None,
    b: float | None = None,
) -> np.ndarray:
    """``evaluate(kind, f, order, a, t)`` at each point of ts (all > a, in
    any order): the one array evaluator behind ``evaluate_grid``, the L1
    integrand and the scalar closed forms.

    C and CF values come from one ``f._closed_form_grid`` call.  A point
    with none (NaN) is filled from one product trapezoid when ts is
    ``_grid_points(a, b, len(ts))`` with no breakpoint inside (a, b), and
    otherwise (b omitted) from pointwise ``caputo``/``caputo_fabrizio``
    without their closed form, which has just been tried.  RL is
    ``funcat.rl_boundary_term`` plus the C values.
    """
    base = OperatorKind.CAPUTO if kind is OperatorKind.RIEMANN_LIOUVILLE else kind
    values = f._closed_form_grid(base, order, a, ts)
    if values is None:
        values = np.full(ts.shape, math.nan)
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        if b is None or funcat._breakpoints_inside(f, a, b):
            # module-level names, so a wrapper installed on the module sees each call
            op = caputo if base is OperatorKind.CAPUTO else caputo_fabrizio
            fill = [
                op(f, order, a, t, scheme, use_closed_form=False) for t in ts[missing].tolist()
            ]
        else:
            fill = _trapezoid_grid(base, f, order, a, b, len(ts), _n_nodes(scheme))[missing]
        values[missing] = fill
    if kind is OperatorKind.RIEMANN_LIOUVILLE:
        return funcat.rl_boundary_term(f, order, a, ts) + values
    return values


def _trapezoid_grid(
    kind: OperatorKind,
    f: TestFunction,
    order: FractionalOrder,
    a: float,
    b: float,
    n: int,
    n_nodes: int,
) -> np.ndarray:
    """The pointwise product trapezoids of ``_value`` at every (M/n)-th node of
    one uniform grid of M cells over [a, b], with no breakpoint inside.

    Node k sees the cell [tau_j, tau_j+1] at distance d = k - j, so node i
    carries the weight W(k - i) = left(k - i) + right(k - i + 1), except
    node 0, which has no cell to its left and carries W(k) - right(k + 1).
    """
    stride = -(-n_nodes // n)
    m = n * stride
    _, g = _sample(f.derivative_array, a, b, m)
    h = (b - a) / m
    p, rate, scale = _kernel(kind, order)
    # the cells d = 1..m+1, at distances (d-1) h to d h behind a node, as index d - 1
    left, right = (w[::-1] for w in _cell_weights(h * np.arange(m + 1, -1, -1), h, p, rate))
    weights = np.concatenate((right[:1], left[:-1] + right[1:]))
    total = _toeplitz_sum(g, weights, m + 1) - g[0] * right
    return total[stride::stride] / scale


def _toeplitz_sum(x: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """The causal products sum_j x[j] w[k - j], for k < size.

    The real FFTs are zero-padded to at least the full length of the linear
    convolution, so the circular product does not wrap around; the padded
    length is the least of the form 2^k, 3 2^k or 5 2^k, which numpy.fft
    transforms fastest.
    """
    need = len(x) + len(w) - 1
    n_fft = min(c << (-(-need // c) - 1).bit_length() for c in (1, 3, 5))
    return np.fft.irfft(np.fft.rfft(x, n_fft) * np.fft.rfft(w, n_fft), n_fft)[:size]


class _Counter:
    __slots__ = ("count", "limit")

    def __init__(self, limit: int) -> None:
        self.count = 0
        self.limit = limit

    def add(self, n: int) -> None:
        self.count += n
        if self.count > self.limit:
            raise BudgetExceededError(
                f"adaptive integration exceeded {self.limit} evaluations"
            )


# QUADPACK's QK15 (Piessens et al., QUADPACK, Springer 1983): the nodes
# x >= 0 of the 15-point Kronrod rule on [-1, 1] in descending order, their
# Kronrod weights, and the weights of the 7-point Gauss rule, whose nodes are
# every other one (zero at the nodes Kronrod added)
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)
#: all 15 nodes mapped to [0, 1], in ascending order, and the Kronrod and
#: Gauss weights there (each set sums to 1) as the two columns of one matrix,
#: so that one product gives both means
_GK_NODES = 0.5 * np.array([*(1.0 - x for x in _XGK[:-1]), *(1.0 + x for x in _XGK[::-1])])
_GK_WEIGHTS = 0.5 * np.array([[*w[:-1], *w[::-1]] for w in (_WGK, _WG)]).T
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
#: a panel narrower than this fraction of its position is not bisected: the
#: outermost nodes of its halves, 0.0085 half-widths from their ends, would
#: lie less than two ulps inside them
_NARROWEST = 2.0**-42


def _gauss_kronrod(
    fn, edges: list[float], tol: float, counter: _Counter, rel: float = 0.0
) -> tuple[float, float]:
    """Integral of fn over the panels between consecutive edges, and its
    summed error estimate, which is at most tol or rel times the integral's
    size, whichever is larger.

    Adaptive 7-15 Gauss-Kronrod vectorised over the panels, as in Shampine,
    J. Comput. Appl. Math. 211 (2008) 131: each round calls fn once, on the
    15 nodes of every panel still being refined.  A panel's estimate is
    QUADPACK's: e = |K15 - G7| scaled to resasc min(1, (200 e / resasc)^1.5),
    resasc being the Kronrod integral of |fn - mean|, and never below its
    rounding floor, 50 eps times the Kronrod integral of |fn|.  On a smooth
    panel e overstates the K15 error by orders of magnitude, and the scaling
    lowers it.  Where fn has a kink (|g| at a sign change of g), K15 and G7
    are both only second order, e can come out close to the K15 error, and
    e / resasc stays between about 5e-3 and 3e-2 however small the panel;
    there the scaling makes the estimate resasc itself, 30 to 200 times e.

    The loop stops when the summed estimate is within the target.  Otherwise
    it bisects the panels whose estimate exceeds their share of tol
    (tol / len(panels) for an initial panel, halved at each bisection) and
    keeps the others as they are.  A panel too narrow to bisect, or whose
    estimate is its floor, is kept as it is too, since its halves would
    estimate no less in sum.  When no panel is left to bisect, or the kept
    estimates and the floors of the others already exceed the target,
    IntegrationError.
    """
    lo, hi = edges[:-1], edges[1:]
    share = [tol / len(lo)] * len(lo)
    kept_value = kept_error = 0.0
    while True:
        lo_a, hi_a = np.array(lo), np.array(hi)
        width = hi_a - lo_a
        # lo + width u is never below lo, and above hi only in a panel a few
        # ulps wide
        nodes = np.minimum(lo_a[:, None] + np.multiply.outer(width, _GK_NODES), hi_a[:, None])
        counter.add(nodes.size)
        y = fn(nodes.ravel()).reshape(nodes.shape)
        kronrod, gauss = (y @ _GK_WEIGHTS).T
        resasc = np.abs(y - kronrod[:, None]) @ _GK_WEIGHTS[:, 0]
        ratio = np.minimum(200.0 * np.abs(kronrod - gauss) / np.maximum(resasc, _TINY), 1.0)
        floor = 50.0 * _EPS * (np.abs(y) @ _GK_WEIGHTS)[:, 0] * width
        error = np.maximum(resasc * ratio**1.5 * width, floor).tolist()
        floor = floor.tolist()
        value = (kronrod * width).tolist()
        total = kept_error + math.fsum(error)
        if not math.isfinite(total):
            raise IntegrationError(f"non-finite integrand on [{lo[0]!r}, {hi[-1]!r}]")
        target = max(tol, rel * abs(kept_value + math.fsum(value))) if rel else tol
        if total <= target:
            return kept_value + math.fsum(value), total
        # the least total bisection can reach: the kept estimates and the floors
        least = kept_error + math.fsum(floor)
        next_lo, next_hi, next_share = [], [], []
        for l, h, v, e, fl, sh in zip(lo, hi, value, error, floor, share):
            m = 0.5 * (l + h)
            if e > sh and e > fl and h - l > _NARROWEST * max(abs(l), abs(h)) and l < m < h:
                next_lo += (l, m)
                next_hi += (m, h)
                next_share += (0.5 * sh, 0.5 * sh)
            else:
                kept_value += v
                kept_error += e
        if not next_lo or least > target:
            raise IntegrationError(
                f"adaptive quadrature cannot reach tol={target!r} (estimate {total!r}): the panels"
                f" above their share are too narrow to bisect or at their rounding floor"
            )
        lo, hi, share = next_lo, next_hi, next_share


#: fractions u / w whose images (u / w)^beta are the flattened coordinate's edges
_FLAT_FRACS = (0.0, 1e-9, 1e-6, 1e-3, 1e-1, 1.0)


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
    derivatives of order 1 - beta exactly (same code path).  A custom
    kernel's int_0^w f'(t - u) h(u, beta) du, w = t - a, is taken by
    ``_gauss_kronrod`` to 1e-11 absolute or relative, whichever is looser, in
    v = (u / w)^beta, which maps a kernel like u^(beta-1) to a bounded
    integrand.  h is called once per node and no node is left out: an
    ArithmeticError or ValueError from h, a non-finite integrand or an
    unreachable tolerance is refused with IntegrationError; so, for beta
    below about 0.008, is a kernel singular at u = 0, where nodes underflow.
    """
    order = FractionalOrder.from_beta(beta)
    _check_window(a, t)
    kind = _KERNEL_KINDS.get(type(kernel))
    if kind is not None:
        return evaluate(kind, f, order, a, t, scheme)
    w = t - a

    def integrand(v: np.ndarray) -> np.ndarray:
        u = w * v ** (1.0 / beta)
        try:
            h = np.array([kernel.h(x, beta) for x in u.tolist()], dtype=float)
        except (ArithmeticError, ValueError) as exc:  # math's domain error is a ValueError
            raise IntegrationError(f"custom kernel failed: {exc!r}") from exc
        # f' from inside [a, t), where a node may round onto t, below a or
        # onto a breakpoint: the right limit there, the side inside [a, t)
        taus = np.clip(t - u, a, math.nextafter(t, a))
        y = funcat._derivative_toward(f, taus, math.inf) * h * (u / (beta * v))
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite custom-kernel integrand for beta={beta!r}")
        return y

    # more edges at the breakpoints' images and toward tau = a (v near 1)
    at_kinks = ((t - c) / w for c in funcat._breakpoints_inside(f, a, t))
    edges = sorted({x**beta for x in (*_FLAT_FRACS, *at_kinks, *(1.0 - x for x in _FLAT_FRACS))})
    return _gauss_kronrod(integrand, edges, 1e-11, _Counter(MAX_EVALS), rel=1e-11)[0]
