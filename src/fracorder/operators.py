"""Fractional operators computed by closed form or product quadrature.

All three kernels (the Riemann-Liouville integral's and Caputo's power
weights, Caputo-Fabrizio's exponential) use one product-trapezoid rule,
``_cell_weights``: the smooth factor is replaced by its piecewise-linear
interpolant on a uniform grid and every cell is integrated against the
kernel exactly.  Its node weights depend only on the distance k - i between
the evaluation node and the node, so ``_product_trapezoid`` takes a whole
grid as one Toeplitz product, done with real FFTs (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532), and one point as two
dot products.  What it samples is continuous: each jump J of f' at a catalog
breakpoint c is taken out as the step J H(tau - c), each kink of f as the
ramp J (tau - c)_+, and both are added back in closed form.  The
Riemann-Liouville derivative is always assembled as the boundary term
``funcat.rl_boundary_term`` plus the Caputo derivative, never by
differentiating the fractional integral numerically.

Every catalog entry has closed forms (``funcat``), so product quadrature
serves user-defined functions and the points past a closed form's reach, on
``n_nodes`` cells, an int of at least 2 (or DomainError, even where no
quadrature runs).  It samples on its exact nodes, so an f' infinite at a
node (t^g, g < 1, at 0), or with no finite one-sided limit at a breakpoint,
is refused with IntegrationError.

One array evaluator, ``_evaluate_points``, gives the values at many points
in one call: ``evaluate_grid``, the scalar operators (their closed forms,
at the one point t) and the error functionals of ``norms`` all go through
it.  No operator has a body of its own: ``_kernel`` maps C and CF to their
kernels, reading the constants from ``funcat.FractionalOrder``, which keeps
a small beta as given, and RL is always the boundary term plus C.  Closed
forms come from the catalog's one hook ``TestFunction._closed_form_grid``.

``generic_kernel_derivative`` takes the C and CF kernels as their
``OperatorKind``; a ``CustomKernel`` runs on the one adaptive quadrature,
``_gauss_kronrod``, which ``norms.error_l1`` uses too; a value it cannot
bring within its tolerance is refused with IntegrationError.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import funcat, specfun
from .exceptions import BudgetExceededError, DomainError, IntegrationError, NonDifferentiableError
from .funcat import FractionalOrder, OperatorKind, TestFunction, _as_order

__all__ = [
    "CustomKernel",
    "FractionalOrder",
    "KernelSpec",
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
class CustomKernel:
    """A user-supplied convolution kernel h(t, beta), integrable on (0, inf)."""

    h: Callable[[float, float], float]


#: ``OperatorKind.CAPUTO`` and ``OperatorKind.CAPUTO_FABRIZIO`` name their own kernels
KernelSpec = OperatorKind | CustomKernel


def _check_window(a: float, t: float) -> None:
    if not (math.isfinite(a) and math.isfinite(t)):
        raise DomainError(f"a and t must be finite, got a={a!r}, t={t!r}")
    if not 0.0 < t - a < math.inf:
        raise DomainError(f"t - a must be positive and finite, got t={t}, a={a}")


def _check_n_nodes(n_nodes) -> None:
    """Refuses an n_nodes, the product quadratures' cell count over [a, t] (or
    the least over [a, b] for a grid), that is not an integer of at least 2."""
    if not (isinstance(n_nodes, (int, np.integer)) and n_nodes >= 2):
        raise DomainError(f"n_nodes must be an integer of at least 2, got {n_nodes!r}")


def _sample(
    values: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: float, hi: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 uniform nodes of [lo, hi], on which the product trapezoid is
    exact against the linear interpolant, and values(nodes, side) there, side
    toward hi (lo at hi itself) for a one-sided f', as ``_trapezoid_grid``
    takes its steps; a non-finite sample is refused with IntegrationError."""
    nodes = np.linspace(lo, hi, n + 1)
    out = np.asarray(values(nodes, np.where(nodes < hi, hi, lo)), dtype=float)
    if not np.all(np.isfinite(out)):
        i = np.argmin(np.isfinite(out))  # the first non-finite sample
        raise IntegrationError(f"non-finite integrand {out[i]} at tau = {nodes[i]} on [{lo}, {hi}]")
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


def _fprime(f: TestFunction, ts: np.ndarray, side: np.ndarray) -> np.ndarray:
    """``funcat._derivative_toward``, but 0 where the float next to a breakpoint
    toward side is a breakpoint too: on a gap with no float inside."""
    kinks = f.breakpoints()
    gap = np.zeros(ts.shape, dtype=bool)
    for c in kinks:
        if math.nextafter(c, math.inf) in kinks or math.nextafter(c, -math.inf) in kinks:
            on_kink = ts == c
            gap[on_kink] = np.isin(np.nextafter(c, side[on_kink]), kinks)
    if not gap.any():
        return funcat._derivative_toward(f, ts, side)
    out = np.zeros(ts.shape)
    out[~gap] = funcat._derivative_toward(f, ts[~gap], side[~gap])
    return out


def _jumps(f: TestFunction, a: float, b: float) -> list[tuple[float, float]]:
    """Each breakpoint c of f inside (a, b), ascending, with the jump
    f'(c+) - f'(c-) there.  Each one-sided limit is f' at the next float
    (``_fprime``), read again d/2 and d from c, d = min(1e-9 max(1, |c|), half
    the way to the next breakpoint, a or b).  An f' moving more than 4 times as
    much on the first step as on the second (plus 1e-6 max(1, |f'|)), as u^-g
    and log u do and a bounded f'' does not, is refused with IntegrationError."""
    cs = funcat._breakpoints_inside(f, a, b)
    if not cs:
        return []
    ends, at, toward = [a, *cs, b], [], []
    for c, far in zip(cs * 2, ends[:-2] + ends[2:]):  # the left sides, then the right
        ulp = abs(math.nextafter(c, far) - c)
        off = math.copysign(min(max(0.5 * abs(far - c), ulp), 1e-9 * max(1.0, abs(c))), far - c)
        at += (c, c + 0.5 * off, c + off)
        toward += (far, far, far)
    reads = _fprime(f, np.array(at), np.array(toward)).tolist()
    near = reads[::3]
    for c, y0, y1, y2 in zip(cs * 2, near, reads[1::3], reads[2::3]):
        if not abs(y0 - y1) <= 4.0 * abs(y1 - y2) + 1e-6 * max(1.0, abs(y2)):
            raise IntegrationError(f"f' has no finite one-sided limit at {c}: {y0}, {y1}, {y2}")
    return [(c, right - left) for c, left, right in zip(cs, near, near[len(cs) :])]


def _product_trapezoid(
    values: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    n: int,
    n_nodes: int,
    p: float | None = None,
    rate: float | None = None,
) -> np.ndarray:
    """The integrals over [a, t_i] of values(tau) times the kernel of
    ``_cell_weights`` at t_i - tau, at the n points t_i = a + (b - a) i / n:
    the product trapezoid on one uniform grid of M = n ceil(n_nodes / n)
    cells over [a, b], values sampled on its nodes by ``_sample``.

    Node k sees the cell [tau_j, tau_j+1] at distance d = k - j, so node i
    carries the weight W(k - i) = left(k - i) + right(k - i + 1), except
    node 0, which has no cell to its left and carries W(k) - right(k + 1).
    One point (n = 1) is two dot products; more are one Toeplitz product.
    """
    stride = -(-n_nodes // n)
    m = n * stride
    nodes, g = _sample(values, a, b, m)
    h = (b - a) / m
    if n == 1:
        left, right = _cell_weights(b - nodes, h, p, rate)
        return np.array([g[:-1] @ left + g[1:] @ right])
    # the cells d = 1..m+1, at distances (d-1) h to d h behind a node, as index d - 1
    left, right = (w[::-1] for w in _cell_weights(h * np.arange(m + 1, -1, -1), h, p, rate))
    weights = np.concatenate((right[:1], left[:-1] + right[1:]))
    total = _toeplitz_sum(g, weights, m + 1) - g[0] * right
    return total[stride::stride]


def rl_integral(
    f: TestFunction, alpha, a: float, t: float, n_nodes: int = DEFAULT_N_NODES
) -> float:
    """Fractional integral of order alpha: (1/Gamma(alpha)) int f(tau)(t-tau)^(alpha-1),
    by the product trapezoid on n_nodes cells, each kink J (tau - c)_+ of f
    (``_jumps``) taken out and added back as J (t - c)^(1+alpha) / Gamma(2+alpha)."""
    al = _as_order(alpha).alpha
    _check_window(a, t)
    _check_n_nodes(n_nodes)
    jumps = _jumps(f, a, t)

    def values(nodes: np.ndarray, _) -> np.ndarray:
        return f.value_array(nodes) - sum(j * np.maximum(nodes - c, 0.0) for c, j in jumps)

    (integral,) = _product_trapezoid(values, a, t, 1, n_nodes, p=al)
    ramps = math.fsum(jump * (t - c) ** (1.0 + al) for c, jump in jumps)
    return integral / specfun.gamma(al) + ramps / specfun.gamma(2.0 + al)


def evaluate(
    kind: OperatorKind, f: TestFunction, alpha, a: float, t: float, n_nodes: int = DEFAULT_N_NODES
) -> float:
    """Value at t of the operator named by ``kind``, closed form where known:
    RL is the scalar ``funcat.rl_boundary_term`` plus the C value, and C and
    CF are ``_evaluate_points`` at the one point t."""
    order = _as_order(alpha)
    _check_window(a, t)
    if kind is OperatorKind.RIEMANN_LIOUVILLE:
        caputo_value = evaluate(OperatorKind.CAPUTO, f, order, a, t, n_nodes)
        return funcat.rl_boundary_term(f, order, a, t) + caputo_value
    (value,) = _evaluate_points(kind, f, order, a, np.array([t], dtype=float), n_nodes)
    return float(value)


def caputo(f: TestFunction, alpha, a: float, t: float, n_nodes: int = DEFAULT_N_NODES) -> float:
    """Caputo derivative of order alpha: fractional integral of order 1-alpha of f'."""
    return evaluate(OperatorKind.CAPUTO, f, alpha, a, t, n_nodes)


def caputo_fabrizio(
    f: TestFunction, alpha, a: float, t: float, n_nodes: int = DEFAULT_N_NODES
) -> float:
    """Caputo-Fabrizio derivative: (1/beta) int f'(tau) e^(-rate (t-tau)), rate = alpha/beta."""
    return evaluate(OperatorKind.CAPUTO_FABRIZIO, f, alpha, a, t, n_nodes)


def riemann_liouville(
    f: TestFunction, alpha, a: float, t: float, n_nodes: int = DEFAULT_N_NODES
) -> float:
    """Riemann-Liouville derivative via the W^{1,1} identity
    RL = f(a)(t-a)^(-alpha)/Gamma(beta) + Caputo, beta = 1 - alpha."""
    return evaluate(OperatorKind.RIEMANN_LIOUVILLE, f, alpha, a, t, n_nodes)


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
    n_nodes: int = DEFAULT_N_NODES,
) -> np.ndarray:
    """``evaluate(kind, f, alpha, a, t_i)`` at t_i = a + (b - a) i / n, i = 1..n.

    Closed-form values come from ``f._closed_form_grid``, the hook
    ``evaluate`` takes at one point, and match its values to the last bit or
    so (a series summed for all points at once may add a term more).  The
    others come from one product trapezoid on M = n ceil(n_nodes / n)
    uniform cells over [a, b], whose step is never coarser than that of
    the one point t = b, with the jumps of f' at breakpoints inside (a, b)
    taken out and added back in closed form (``_trapezoid_grid``).
    """
    order = _as_order(alpha)
    if n < 1:
        raise DomainError(f"grid size must be at least 1, got {n!r}")
    ts = _grid_points(a, b, n)
    _check_window(a, float(ts[0]))  # also refuses b <= a and non-finite b
    return _evaluate_points(kind, f, order, a, ts, n_nodes, b)


def _evaluate_points(
    kind: OperatorKind,
    f: TestFunction,
    order: FractionalOrder,
    a: float,
    ts: np.ndarray,
    n_nodes: int,
    b: float | None = None,
) -> np.ndarray:
    """``evaluate(kind, f, order, a, t)`` at each point of ts (all > a, in
    any order): the one array evaluator behind ``evaluate_grid``, the L1
    integrand and the scalar operators.

    C and CF values come from one ``f._closed_form_grid`` call.  A point
    with none (NaN) is filled by ``_trapezoid_grid``: on the whole grid at
    once when ts is ``_grid_points(a, b, len(ts))``, and otherwise (b
    omitted) on [a, t] for each point t alone.  RL is
    ``funcat.rl_boundary_term`` plus the C values.
    """
    if not isinstance(kind, OperatorKind):
        raise DomainError(f"unknown operator kind {kind!r}")
    _check_n_nodes(n_nodes)
    base = OperatorKind.CAPUTO if kind is OperatorKind.RIEMANN_LIOUVILLE else kind
    values = f._closed_form_grid(base, order, a, ts)
    if values is None:
        values = np.full(ts.shape, math.nan)
    missing = np.flatnonzero(np.isnan(values))
    if missing.size and b is None:  # each point t on [a, t] alone
        one = partial(_trapezoid_grid, base, f, order, a)
        values[missing] = [one(t, np.array([t]), n_nodes)[0] for t in ts[missing].tolist()]
    elif missing.size:
        values[missing] = _trapezoid_grid(base, f, order, a, b, ts, n_nodes)[missing]
    if kind is OperatorKind.RIEMANN_LIOUVILLE:
        return funcat.rl_boundary_term(f, order, a, ts) + values
    return values


def _trapezoid_grid(
    kind: OperatorKind,
    f: TestFunction,
    order: FractionalOrder,
    a: float,
    b: float,
    ts: np.ndarray,
    n_nodes: int,
) -> np.ndarray:
    """C or CF at the points ts of a uniform grid over (a, b], the last one
    b: ``_product_trapezoid`` of f' with each jump J at a breakpoint c
    (``_jumps``) taken out as the step J H(tau - c), plus the operator of the
    ramp J (tau - c)_+ (``funcat._step_response``).  f' is 0 on a one-ulp gap
    (``_fprime``); a point with more than 1e-12 of its kernel's mass on [a, t]
    there is refused with NonDifferentiableError."""
    p, rate, scale = _kernel(kind, order)
    response = partial(funcat._step_response, kind, order)
    kinks = f.breakpoints()
    for c in set(kinks):
        gap = math.nextafter(c, math.inf)
        if a <= c < b and gap in kinks:
            mass = response(np.maximum(ts - c, 0.0)) - response(np.maximum(ts - gap, 0.0))
            if np.any(mass > 1e-12 * response(ts - a)):
                raise NonDifferentiableError(f"f' has no value between breakpoints {c} and {gap}")
    jumps = _jumps(f, a, b)

    def fprime(nodes: np.ndarray, side: np.ndarray) -> np.ndarray:
        # H(0) = 1: a node on a breakpoint c is read from the right, past its step
        return _fprime(f, nodes, side) - sum(j * (nodes >= c) for c, j in jumps)

    values = _product_trapezoid(fprime, a, b, len(ts), n_nodes, p, rate) / scale
    for c, jump in jumps:
        values += response(np.maximum(ts - c, 0.0), jump)
    return values


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


def _kinks(
    lo: list[float], hi: list[float], nodes: np.ndarray, g: np.ndarray
) -> tuple[list[list[float]], np.ndarray]:
    """Where the signed values g at the nodes of the ascending panels
    [lo, hi] change sign between consecutive nodes x_j and x_{j+1}, in one
    panel or across the end that two panels share: per panel, the cuts that
    isolate each sign change, and an estimate of the error that the kink of
    |g| there adds to the panel's K15 integral of |g|.

    The cuts are x_j, the secant root and x_{j+1}, each given to the panel
    that holds it, in ascending order, and kept only if it lies more than
    ``_NARROWEST`` of the panel's position inside it and past the panel's
    previous cut.  The secant root lies close to the root, so the pieces
    beside it hold the kink close to their shared end: in the strips
    between that end and their outermost nodes, 0.43% of their widths, or
    just past them.  There neither K15 nor QUADPACK's estimate sees it.

    The error estimate is K15's error on the kink alone: near a root at a
    distance t W from the nearer end of a panel of width W, |g| is smooth
    but for the stick 2 |g'| max(0, t W - s), s the distance from that end,
    whose integral, |g'| (t W)^2, K15 takes as 2 |g'| W^2 sum_k w_k
    max(0, t - u_k), u_k and w_k its nodes and weights on [0, 1].  When the
    root lies in the strip, no node is past it and the estimate is the
    whole |g'| (t W)^2.  It is doubled to cover the curvature of g over
    t W, and given to the panel that holds the secant root, with g' the
    secant's slope.  A sign change between an end of the first or last
    panel, which no panel touches, and its outermost node is not seen."""
    cuts = [[] for _ in lo]
    kink = np.zeros(len(lo))
    x, y = nodes.ravel(), g.ravel()
    per = nodes.shape[1]
    for m in np.flatnonzero(y[:-1] * y[1:] < 0.0).tolist():
        i, j = divmod(m, per)
        if j == per - 1 and hi[i] != lo[i + 1]:
            continue
        x0, x1, y0, y1 = float(x[m]), float(x[m + 1]), float(y[m]), float(y[m + 1])
        root = x0 - y0 * (x1 - x0) / (y1 - y0)
        k = i + 1 if j == per - 1 and root >= hi[i] else i
        width = hi[k] - lo[k]
        t = max(min(root - lo[k], hi[k] - root), 0.0) / width
        stick = t * t - 2.0 * float(_GK_WEIGHTS[:, 0] @ np.maximum(t - _GK_NODES, 0.0))
        kink[k] += 2.0 * abs((y1 - y0) / (x1 - x0)) * width * width * abs(stick)
        for cut in (x0, root, x1):
            k = i + 1 if j == per - 1 and cut >= hi[i] else i
            least = _NARROWEST * max(abs(lo[k]), abs(hi[k]))
            last = cuts[k][-1] if cuts[k] else lo[k]
            if cut - last > least and hi[k] - cut > least:
                cuts[k].append(cut)
    return cuts, kink


def _gauss_kronrod(
    fn,
    edges: list[float],
    tol: float,
    counter: _Counter,
    rel: float = 0.0,
    absolute: bool = False,
) -> tuple[float, float]:
    """Integral of fn over the panels between consecutive edges (of |fn|
    where absolute is set), and its summed error estimate, which is at most
    tol or rel times the integral's size, whichever is larger.

    Adaptive 7-15 Gauss-Kronrod vectorised over the panels, as in Shampine,
    J. Comput. Appl. Math. 211 (2008) 131: each round calls fn once, on the
    15 nodes of every panel still being refined.  A panel's estimate is
    QUADPACK's: e = |K15 - G7| scaled to resasc min(1, (200 e / resasc)^1.5),
    resasc being the Kronrod integral of |fn - mean|, and never below its
    rounding floor, 50 eps times the Kronrod integral of |fn|.  On a smooth
    panel e overstates the K15 error by orders of magnitude, and the scaling
    lowers it.  Where the integrand has a kink (|g| at a sign change of g),
    K15 and G7 are both only second order, e can come out close to the K15
    error, and e / resasc stays between about 5e-3 and 3e-2 however small
    the panel; there the scaling makes the estimate resasc itself, 30 to 200
    times e, and bisection would only halve the panel a round.

    The loop stops when the summed estimate is within the target.  Otherwise
    it refines the panels whose estimate exceeds their share of tol
    (tol / len(panels) for an initial panel) and keeps the others as they
    are.  With absolute set, fn gives g itself, and a panel whose 15 values
    of g change sign, or whose outermost value and the nearest value of the
    panel it touches do, is cut at the two nodes around each sign change and
    at the secant root between them (``_kinks``), so that the kink of |g|
    sits in a piece about a fifteenth of the panel wide, close to the end
    that it shares with the next piece; any other panel is bisected.  The
    estimate of a panel holding such a kink gains K15's error on the kink,
    taken from the secant root's place among the nodes, which stays honest
    however close to the panel's end the root lies.  The pieces share the
    panel's share evenly.  A panel too narrow to refine, or whose estimate
    is its floor, is kept as it is too, since its pieces would estimate no
    less in sum.  When no panel is left to refine, or the kept estimates and
    the floors of the others already exceed the target, IntegrationError.
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
        if absolute:
            cuts_at, kink = _kinks(lo, hi, nodes, y)
            y = np.abs(y)
        kronrod, gauss = (y @ _GK_WEIGHTS).T
        resasc = np.abs(y - kronrod[:, None]) @ _GK_WEIGHTS[:, 0]
        ratio = np.minimum(200.0 * np.abs(kronrod - gauss) / np.maximum(resasc, _TINY), 1.0)
        floor = 50.0 * _EPS * (np.abs(y) @ _GK_WEIGHTS)[:, 0] * width
        error = np.maximum(resasc * ratio**1.5 * width, floor)
        if absolute:
            error += kink
        error = error.tolist()
        floor = floor.tolist()
        value = (kronrod * width).tolist()
        total = kept_error + math.fsum(error)
        if not math.isfinite(total):
            raise IntegrationError(f"non-finite integrand on [{lo[0]!r}, {hi[-1]!r}]")
        target = max(tol, rel * abs(kept_value + math.fsum(value))) if rel else tol
        if total <= target:
            return kept_value + math.fsum(value), total
        # the least total refinement can reach: the kept estimates and the floors
        least = kept_error + math.fsum(floor)
        next_lo, next_hi, next_share = [], [], []
        for i, (l, h, v, e, fl, sh) in enumerate(zip(lo, hi, value, error, floor, share)):
            cuts = []
            if e > sh and e > fl and h - l > _NARROWEST * max(abs(l), abs(h)):
                if absolute:
                    cuts = cuts_at[i]
                m = 0.5 * (l + h)
                if not cuts and l < m < h:
                    cuts = [m]
            if cuts:
                next_lo += (l, *cuts)
                next_hi += (*cuts, h)
                next_share += [sh / (len(cuts) + 1)] * (len(cuts) + 1)
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
    n_nodes: int = DEFAULT_N_NODES,
) -> float:
    """Convolution-kernel derivative (f' * h(., beta))(t) of order 1 - beta.

    ``OperatorKind.CAPUTO`` and ``OperatorKind.CAPUTO_FABRIZIO`` name their
    kernels and reproduce those derivatives of order 1 - beta exactly (same
    code path, ``evaluate``); ``OperatorKind.RIEMANN_LIOUVILLE``, which is no
    kernel of f' alone, is refused with DomainError.  A custom
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
    _check_n_nodes(n_nodes)
    if isinstance(kernel, OperatorKind):
        if kernel is OperatorKind.RIEMANN_LIOUVILLE:
            raise DomainError("the Riemann-Liouville derivative has no kernel of f' alone")
        return evaluate(kernel, f, order, a, t, n_nodes)
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
