"""Error functionals E_{f,p}(beta) = ||D^(1-beta) f - f'||_p for p in {1, inf}.

The L1 functional is an adaptive 7-15 Gauss-Kronrod quadrature (QUADPACK's
pair) over panels split at catalog breakpoints and inside the boundary
layers right of a and of each breakpoint, vectorised over the panels: each
refinement round evaluates the integrand once, as one array over the 15
nodes of every panel still being refined.  The operator values at those
nodes come from one ``operators._evaluate_points`` call, f' from one
``derivative_array`` call.  The loop stops when the summed error estimate
of all panels is at most the requested tol; that sum is reported as
``ErrorReport.quad_error``, and a tol that cannot be met is refused.

The Riemann-Liouville case needs special care: its integrand carries the
term f(a)(t-a)^(beta-1)/Gamma(beta), whose mass concentrates so hard at the
left endpoint for small beta that the region below any floating point
offset delta still holds a fraction 1 - delta^beta of the integral (97%
below 1e-16 at beta = 1e-3).  The leftmost panel is therefore computed
under the exact flattening substitution t = a + w v^(1/beta), which maps the
power term to a constant and leaves a bounded integrand on (0, 1].

The L-infinity functional scans a dense grid over (a, b], with every
operator value of the scan from one ``operators.evaluate_grid`` call and
every f' value from one ``derivative_array`` call (points on a breakpoint
aside), and refines the best point with a pointwise golden-section search.
Two kinds of limit join the candidates, since a grid point approaches them
only by chance: the boundary limit of the error as t -> a+, |f'(a)| (each
operator here tends to 0 where f' is bounded near a, and grows more slowly
than f' where it is not), which is where the supremum lives whenever
f'(a) != 0 and which is ``inf`` where f' is unbounded at a; and at each
catalog breakpoint c inside (a, b), where f' jumps and the operator does
not, the one-sided limits |D(c) - f'(c-)| and |D(c) - f'(c+)|.  For the
Riemann-Liouville operator with f(a) != 0 the supremum is infinite and no
scan is made.

Where f' jumps at a point t, it takes one one-sided limit, at the next float
towards that side: the left limit, the side inside (a, t], at every point of
the scan, of the L1 integrand and of ``cli figures``, and the right limit for
the boundary candidate at a.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import operators, specfun
from .exceptions import (
    BudgetExceededError,
    DomainError,
    IntegrationError,
    NonDifferentiableError,
)
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
_GOLDEN_STEPS = 60


class NormKind(enum.Enum):
    L1 = "1"
    LINF = "inf"


@dataclass(frozen=True)
class ErrorReport:
    """One evaluation of the error functional at a single beta.

    ``quad_error`` is the summed quadrature error estimate behind an L1
    value, at most the requested tol; ``None`` for the sup norm.
    """

    operator_kind: OperatorKind
    beta: float
    p: NormKind
    interval: Interval
    value: float
    n_eval_points: int
    quad_error: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not self.value >= 0.0:
            raise DomainError(f"error value must be non-negative, got {self.value!r}")
        if self.n_eval_points < 1:
            raise DomainError("n_eval_points must be positive")
        if self.quad_error is not None and not self.quad_error >= 0.0:
            raise DomainError(f"quad_error must be non-negative, got {self.quad_error!r}")


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


def _derivative(f: TestFunction, t: float, side: float = -math.inf) -> float:
    """f'(t), or on a breakpoint its one-sided limit from side, taken at the
    next float towards it: from the left (the default) for a point t of the
    scan or the L1 integrand, the side inside (a, t]."""
    try:
        return f.derivative(t)
    except NonDifferentiableError:
        return f.derivative(math.nextafter(t, side))


def _derivative_grid(f: TestFunction, ts: np.ndarray) -> np.ndarray:
    """``_derivative`` at each point of ts.  One ``f.derivative_array`` call
    serves every point off the breakpoints; only the points on one are
    taken singly, as left limits."""
    on_kink = np.zeros(ts.shape, dtype=bool)
    for c in f.breakpoints():
        on_kink |= ts == c
    if not on_kink.any():
        return f.derivative_array(ts)
    values = np.empty(ts.shape)
    values[~on_kink] = f.derivative_array(ts[~on_kink])
    values[on_kink] = [_derivative(f, t) for t in ts[on_kink].tolist()]
    return values


def _boundary_layer_splits(
    start: float, width: float, kind: OperatorKind, beta: float
) -> list[float]:
    """Split points inside (start, start + width) resolving the boundary
    layer of D f - f' right of start: a, where the operator begins, or a
    breakpoint, where f' jumps by some J and D f gains a term of its own,
    J (t-start)^beta / Gamma(1+beta) under C and
    J (1 - e^(-rate (t-start))) / (1-beta) under CF."""
    points = {start + width * frac for frac in (1e-6, 1e-3, 1e-1)}
    if kind is OperatorKind.CAPUTO_FABRIZIO:
        scale = beta / (1.0 - beta)  # decay length of the exponential kernel
        points.update(start + scale * mult for mult in (2.0, 10.0, 50.0))
    # no panel narrower than a bisection may leave, so that no node rounds
    # onto a panel end
    least = _NARROWEST * max(abs(start), abs(start + width))
    return sorted(p for p in points if start + least < p < start + width - least)


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


def _gauss_kronrod(fn, edges: list[float], tol: float, counter: _Counter) -> tuple[float, float]:
    """Integral of fn (non-negative) over the panels between consecutive
    edges, and its summed error estimate, which is at most tol.

    Adaptive 7-15 Gauss-Kronrod vectorised over the panels, as in Shampine,
    J. Comput. Appl. Math. 211 (2008) 131: each round calls fn once, on the
    15 nodes of every panel still being refined.  A panel's estimate is
    QUADPACK's: e = |K15 - G7| scaled to resasc min(1, (200 e / resasc)^1.5),
    resasc being the Kronrod integral of |fn - mean|, and never below
    50 eps K15.  On a smooth panel e overstates the K15 error by orders of
    magnitude, and the scaling lowers it.  Where fn has a kink (|g| at a
    sign change of g), K15 and G7 are both only second order, e can come
    out close to the K15 error, and e / resasc stays between about 5e-3 and
    3e-2 however small the panel; there the scaling makes the estimate
    resasc itself, 30 to 200 times e.

    The loop stops when the summed estimate is at most tol.  Otherwise it
    bisects the panels whose estimate exceeds their share of tol
    (tol / len(panels) for an initial panel, halved at each bisection) and
    keeps the others as they are.  A panel too narrow to bisect is kept as
    it is too; when no panel is left to bisect and the summed estimate is
    still above tol, IntegrationError.
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
        error = (np.maximum(resasc * ratio**1.5, 50.0 * _EPS * kronrod) * width).tolist()
        value = (kronrod * width).tolist()
        total = kept_error + math.fsum(error)
        if not math.isfinite(total):
            raise IntegrationError(f"non-finite L1 integrand on [{lo[0]!r}, {hi[-1]!r}]")
        if total <= tol:
            return kept_value + math.fsum(value), total
        next_lo, next_hi, next_share = [], [], []
        for l, h, v, e, sh in zip(lo, hi, value, error, share):
            m = 0.5 * (l + h)
            if e > sh and h - l > _NARROWEST * max(abs(l), abs(h)) and l < m < h:
                next_lo += (l, m)
                next_hi += (m, h)
                next_share += (0.5 * sh, 0.5 * sh)
            else:
                kept_value += v
                kept_error += e
        if not next_lo:
            raise IntegrationError(
                f"L1 quadrature cannot reach tol={tol!r}: the panels left above their "
                f"share of it are too narrow to bisect (estimate {total!r})"
            )
        lo, hi, share = next_lo, next_hi, next_share


def _rl_flattened(f, order, a, w, scheme):
    """The RL error on (a, a+w] under the substitution t = a + w v^(1/beta),
    as an integrand over v in (0, 1] and the edges of its panels.

    In v-coordinates the singular term becomes the constant f(a) w^beta /
    (beta Gamma(beta)) and the remainder (the Caputo error) is damped by
    v^((1-beta)/beta); both factors underflow harmlessly to the exact limit
    value near v = 0.
    """
    beta = order.beta
    base = f.value(a) * w**beta / (beta * specfun.gamma(beta))
    expo = (1.0 - beta) / beta

    def integrand(v: np.ndarray) -> np.ndarray:
        t = a + w * v ** (1.0 / beta)
        rest = np.zeros(v.shape)
        inside = t > a
        ts = t[inside]
        rest[inside] = operators._evaluate_points(
            OperatorKind.CAPUTO, f, order.alpha, a, ts, scheme
        ) - _derivative_grid(f, ts)
        return np.abs(base + (w / beta) * v**expo * rest)

    # cluster panel edges where the t-range compresses (v near 1)
    edges = sorted({0.0, 1.0, *(frac**beta for frac in (1e-9, 1e-6, 1e-3, 1e-1))})
    return integrand, edges


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
    """L1 norm of D^(1-beta) f - f' over the interval, to absolute accuracy tol.

    The interval is split at the catalog breakpoints, and each piece again
    inside the boundary layer right of its left end (``_boundary_layer_splits``);
    for RL with f(a) != 0 the first piece is integrated in the flattened
    coordinate v instead (``_rl_flattened``).  The panels are integrated by
    the adaptive 7-15 Gauss-Kronrod rule of ``_gauss_kronrod``.

    ``tol`` bounds the sum over all final panels of QUADPACK's error
    estimate, |K15 - G7| scaled by how much the integrand varies on the
    panel; the report carries that sum as ``quad_error``.  It is an
    estimate of the error, not a proof: it errs on the safe side where the
    integrand has a kink or a singular derivative.  ``n_eval_points``
    counts every node at which the integrand was evaluated, 15 per panel;
    past ``max_evals`` the integration stops with BudgetExceededError.  When
    the estimate is still above tol and every panel over its share is too
    narrow to bisect, the value is refused with IntegrationError.
    """
    order = FractionalOrder.from_beta(beta)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    a, b = interval.a, interval.b
    counter = _Counter(max_evals)

    def err(ts: np.ndarray) -> np.ndarray:
        values = operators._evaluate_points(kind, f, order.alpha, a, ts, scheme)
        return np.abs(values - _derivative_grid(f, ts))

    kinks = sorted(x for x in set(f.breakpoints()) if a < x < b)
    pieces = list(zip([a, *kinks], [*kinks, b]))
    regions = []
    if kind is OperatorKind.RIEMANN_LIOUVILLE and f.value(a) != 0.0:
        regions.append(_rl_flattened(f, order, a, pieces[0][1] - a, scheme))
        del pieces[0]
    if pieces:
        edges = [pieces[0][0]]
        for lo, hi in pieces:
            edges += [*_boundary_layer_splits(lo, hi - lo, kind, beta), hi]
        regions.append((err, edges))
    n_panels = sum(len(e) - 1 for _, e in regions)
    value = quad_error = 0.0
    for fn, region_edges in regions:
        share = tol * (len(region_edges) - 1) / n_panels
        part, estimate = _gauss_kronrod(fn, region_edges, share, counter)
        value += part
        quad_error += estimate
    return ErrorReport(kind, beta, NormKind.L1, interval, value, counter.count, quad_error)


def _golden_max(fn, lo: float, hi: float) -> float:
    """Golden-section search for the maximum of fn on [lo, hi], in
    ``_GOLDEN_STEPS`` steps after the first two points."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(_GOLDEN_STEPS):
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

    The value is the largest of the grid scan, its golden-section refinement,
    |f'(a)| (the t -> a+ limit; its right limit when a is a breakpoint) and
    the one-sided limits at each breakpoint inside (a, b); ``inf`` when f' is
    unbounded at a.  ``n_eval_points`` counts each of them once.

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
    count = n_grid

    def err(t: float) -> float:
        nonlocal count
        count += 1
        return abs(operators.evaluate(kind, f, order, a, t, scheme) - _derivative(f, t))

    fprime = _derivative_grid(f, operators._grid_points(a, b, n_grid))
    values = np.abs(operators.evaluate_grid(kind, f, order, a, b, n_grid, scheme) - fprime)
    best_i = int(np.argmax(values))
    best = float(values[best_i])
    step = interval.width / n_grid
    lo = a + best_i * step  # one grid point left of the argmax
    hi = a + min(best_i + 2, n_grid) * step
    refined = _golden_max(err, max(lo, a + step * 1e-6), hi)
    # as t -> a+ each operator here (RL as C, since f(a) = 0) tends to 0, or
    # grows more slowly than an unbounded f', so the boundary limit of the
    # error is |f'(a+)|, which the grid approaches only at rate (t-a)^beta
    candidates = [best, refined, abs(_derivative(f, a, math.inf))]
    count += 1
    for c in sorted(x for x in set(f.breakpoints()) if a < x < b):
        # the operator is continuous at a breakpoint and f' jumps there, so
        # the error has two one-sided limits, which a grid point can only
        # approach by chance
        value = operators.evaluate(kind, f, order, a, c, scheme)
        for side in (-math.inf, math.inf):
            candidates.append(abs(value - f.derivative(math.nextafter(c, side))))
        count += 2
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
