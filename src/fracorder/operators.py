"""Fractional operators computed by closed form or quadrature.

Every catalog entry has closed forms (``funcat``), from the catalog's one
binder ``TestFunction._closed_form``.  A value without one, of a
user-defined function or past a closed form's reach, and every
``rl_integral``, is ``_pointwise``: one call of the adaptive 7-15
Gauss-Kronrod rule ``_gauss_kronrod``, which ``norms.error_l1`` uses too,
to 1e-11 absolute or relative, in a coordinate where the kernel is bounded
and on panels that end at the breakpoints.  Such a value is refused
(``_checked_jumps``) where f' is infinite at a (t^g, g < 1, at 0) or has no
finite one-sided limit at a breakpoint, with IntegrationError, and where a
one-ulp gap between breakpoints carries kernel mass, with
NonDifferentiableError.

One binder, ``_bind(kind, f, order, a, b)``, gives C or CF on (a, b] as
one function of an array of points, with the closed form bound once:
``evaluate_grid`` binds on [a, b], the scalar operators on [a, t], and each
error functional of ``norms`` once per call, for every array call it
makes.  No operator has a body of its own: C and CF differ only in their
kernels (``_kernel_point``), whose constants come from
``funcat.FractionalOrder``, which keeps a small beta as given.  The
Riemann-Liouville derivative has no kernel and is not bound: ``evaluate``
and ``evaluate_grid`` take it as the boundary term
``funcat.rl_boundary_term`` plus C, never a numerical derivative of the
fractional integral.  A value that cannot be brought within its
tolerance is refused with IntegrationError.
"""

import math
from collections.abc import Callable
from functools import partial

import numpy as np

from . import funcat, specfun
from .exceptions import BudgetExceededError, DomainError, IntegrationError, NonDifferentiableError
from .funcat import FractionalOrder, OperatorKind, TestFunction, _as_order

__all__ = [
    "FractionalOrder",
    "caputo",
    "caputo_fabrizio",
    "evaluate",
    "evaluate_grid",
    "riemann_liouville",
    "rl_integral",
]

MAX_EVALS = 1_000_000  # the evaluation budget of one ``_gauss_kronrod`` call


def _check_window(a: float, t: float) -> None:
    if not (math.isfinite(a) and math.isfinite(t)):
        raise DomainError(f"a and t must be finite, got a={a!r}, t={t!r}")
    if not 0.0 < t - a < math.inf:
        raise DomainError(f"t - a must be positive and finite, got t={t}, a={a}")


def _check_grid_size(n, least: int, name: str) -> None:
    """Refuses a grid size n that is not an integer of at least least."""
    if not (isinstance(n, (int, np.integer)) and n >= least):
        raise DomainError(f"{name} must be an integer of at least {least}, got {n!r}")


def _finite(y: np.ndarray, taus: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """y, the integrand over [lo, hi] at taus, or IntegrationError at its
    first value that is not finite."""
    if not np.isfinite(y).all():
        i = np.argmin(np.isfinite(y))
        raise IntegrationError(f"non-finite integrand {y[i]} at tau = {taus[i]} on [{lo}, {hi}]")
    return y


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


def rl_integral(f: TestFunction, alpha, a: float, t: float) -> float:
    """Fractional integral of order alpha: (1/Gamma(alpha)) int f(tau)(t-tau)^(alpha-1),
    by ``_pointwise`` on f under the power kernel of p = alpha."""
    al = _as_order(alpha).alpha
    _check_window(a, t)
    return _pointwise(lambda taus, _: f.value_array(taus), f, a, t, p=al)


def evaluate(kind: OperatorKind, f: TestFunction, alpha, a: float, t: float) -> float:
    """Value at t of the operator named by ``kind``, closed form where known:
    RL is the scalar ``funcat.rl_boundary_term`` plus the C value, and C and
    CF are ``_bind`` on [a, t], at the one point t."""
    order = _as_order(alpha)
    _check_window(a, t)
    if kind is OperatorKind.RIEMANN_LIOUVILLE:
        caputo_value = evaluate(OperatorKind.CAPUTO, f, order, a, t)
        return funcat.rl_boundary_term(f, order, a, t) + caputo_value
    (value,) = _bind(kind, f, order, a, t)(np.array([t], dtype=float))
    return float(value)


def caputo(f: TestFunction, alpha, a: float, t: float) -> float:
    """Caputo derivative of order alpha: fractional integral of order 1-alpha of f'."""
    return evaluate(OperatorKind.CAPUTO, f, alpha, a, t)


def caputo_fabrizio(f: TestFunction, alpha, a: float, t: float) -> float:
    """Caputo-Fabrizio derivative: (1/beta) int f'(tau) e^(-rate (t-tau)), rate = alpha/beta."""
    return evaluate(OperatorKind.CAPUTO_FABRIZIO, f, alpha, a, t)


def riemann_liouville(f: TestFunction, alpha, a: float, t: float) -> float:
    """Riemann-Liouville derivative via the W^{1,1} identity
    RL = f(a)(t-a)^(-alpha)/Gamma(beta) + Caputo, beta = 1 - alpha."""
    return evaluate(OperatorKind.RIEMANN_LIOUVILLE, f, alpha, a, t)


def _grid_points(a: float, b: float, n: int) -> np.ndarray:
    """t_i = a + (b - a) i / n for i = 1..n, rounded as that scalar expression
    is, except t_n, which is b itself: the expression may round an ulp to
    either side of it.  DomainError where (b - a) n, the largest product
    formed, overflows, or where numpy refuses n points."""
    try:
        top = (b - a) * n
    except OverflowError as exc:  # n past the double range
        raise DomainError(f"a grid of {n} points is too large: {exc}") from exc
    if not math.isfinite(top):
        raise DomainError(f"a grid of {n} points on ({a}, {b}] overflows: (b - a) n = {top}")
    try:
        ts = np.arange(1.0, n + 1.0)
    except ValueError as exc:  # past numpy's array size, refused before it allocates
        raise DomainError(f"a grid of {n} points is too large: {exc}") from exc
    ts *= b - a
    ts /= n
    ts += a
    ts[-1] = b
    return ts


def evaluate_grid(
    kind: OperatorKind,
    f: TestFunction,
    alpha,
    a: float,
    b: float,
    n: int,
) -> np.ndarray:
    """``evaluate(kind, f, alpha, a, t_i)`` at t_i = a + (b - a) i / n, i = 1..n,
    t_n = b (``_grid_points``), n an integer of at least 1 (or DomainError):
    ``_bind`` on [a, b] at those points, so each value is a closed form or
    within 1e-11, absolute or relative, or refused; under RL, the C values
    plus the array ``funcat.rl_boundary_term``.  A closed-form value
    matches ``evaluate``'s to rounding: that binds on [a, t], where a series
    may take fewer terms.
    """
    order = _as_order(alpha)
    _check_grid_size(n, 1, "grid size")
    ts = _grid_points(a, b, n)
    _check_window(a, float(ts[0]))  # also refuses b <= a and non-finite b
    rl = kind is OperatorKind.RIEMANN_LIOUVILLE
    values = _bind(OperatorKind.CAPUTO if rl else kind, f, order, a, b)(ts)
    return funcat.rl_boundary_term(f, order, a, ts) + values if rl else values


def _check_kernel(kind: OperatorKind) -> None:
    """Refuses with DomainError a kind other than the two kernels, C and CF,
    which ``_bind`` and ``norms._error`` serve alone."""
    if kind is not OperatorKind.CAPUTO and kind is not OperatorKind.CAPUTO_FABRIZIO:
        raise DomainError(f"no kernel for operator kind {kind!r}: only C and CF are bound")


def _bind(kind: OperatorKind, f: TestFunction, order: FractionalOrder, a: float, b: float):
    """``evaluate(kind, f, order, a, t)`` for t in (a, b] under C or CF, as
    one function of an array of such points (in any order), with
    ``f._closed_form`` bound on (a, b] once.  Any other kind, RL among
    them, is refused (``_check_kernel``): RL is
    ``funcat.rl_boundary_term`` plus C, which each public function that
    takes RL adds itself.  It is behind ``evaluate_grid``, the scalar
    operators and every array call of the error functionals of ``norms``,
    which bind once per call.  A point's value does not depend on which
    other points share its call.

    The values come from the bound closed form.  A point with none (NaN)
    is filled by ``_kernel_point``, to ``_POINT_TOL``, once the refusals of
    ``_checked_jumps`` over (a, max ts] have passed, farthest first: that
    point costs the most and is the likeliest to be refused, which then
    costs one point's budget, not the whole grid's.
    """
    _check_kernel(kind)
    closed = f._closed_form(kind, order, a, b)

    def values(ts: np.ndarray) -> np.ndarray:
        out = np.full(ts.shape, math.nan) if closed is None else closed(ts)
        missing = np.isnan(out).nonzero()[0]
        if missing.size:
            _checked_jumps(kind, f, order, a, float(ts[missing].max()), ts[missing])
            missing = missing[np.argsort(ts[missing])[::-1]]
            out[missing] = [_kernel_point(kind, f, order, a, t) for t in ts[missing].tolist()]
        return out

    return values


def _checked_jumps(
    kind: OperatorKind, f: TestFunction, order: FractionalOrder, a: float, b: float, ts: np.ndarray
) -> None:
    """Refuses the C or CF values at the points ts in (a, b] that the
    quadrature cannot take from f'.  f' is 0 on a one-ulp gap
    (``_fprime``); a point with more than 1e-12 of its kernel's mass on
    [a, t] there is refused with NonDifferentiableError.  So is, with
    IntegrationError, an f' not finite at a, read toward b, or with no
    finite one-sided limit at a breakpoint c inside (a, b).  Each one-sided
    limit is f' at the next float, read again d/2 and d from c,
    d = min(1e-9 max(1, |c|), half the way to the next breakpoint, a or b);
    an f' moving more than 4 times as much on the first step as on the
    second (plus 1e-6 max(1, |f'|)), as u^-g and log u do and a bounded f''
    does not, has none."""
    ramp = funcat._Ramp(kind, order)
    kinks = f.breakpoints()
    for c in set(kinks):
        gap = math.nextafter(c, math.inf)
        if a <= c < b and gap in kinks:
            if np.any(ramp.drop(ts, c, gap, 1.0) > 1e-12 * ramp.plain(ts, a, 1.0)):
                raise NonDifferentiableError(f"f' has no value between breakpoints {c} and {gap}")
    _finite(_fprime(f, np.array([a]), np.array([b])), [a], a, b)
    cs = funcat._breakpoints_inside(f, a, b)
    if not cs:
        return
    ends, at, toward = [a, *cs, b], [], []
    for c, far in zip(cs * 2, ends[:-2] + ends[2:]):  # the left sides, then the right
        ulp = abs(math.nextafter(c, far) - c)
        off = math.copysign(min(max(0.5 * abs(far - c), ulp), 1e-9 * max(1.0, abs(c))), far - c)
        at += (c, c + 0.5 * off, c + off)
        toward += (far, far, far)
    reads = _fprime(f, np.array(at), np.array(toward)).tolist()
    for c, y0, y1, y2 in zip(cs * 2, reads[::3], reads[1::3], reads[2::3]):
        if not abs(y0 - y1) <= 4.0 * abs(y1 - y2) + 1e-6 * max(1.0, abs(y2)):
            raise IntegrationError(f"f' has no finite one-sided limit at {c}: {y0}, {y1}, {y2}")


def _kernel_point(
    kind: OperatorKind, f: TestFunction, order: FractionalOrder, a: float, t: float
) -> float:
    """C or CF at the one point t: ``_pointwise`` on f' under the power
    kernel of p = beta, or the CF kernel of the order's rate and beta."""
    fprime = partial(_fprime, f)
    if kind is OperatorKind.CAPUTO:
        return _pointwise(fprime, f, a, t, p=order.beta)
    return _pointwise(fprime, f, a, t, rate=order.rate, beta=order.beta)


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
#: the Kronrod weights alone, and the nodes of the lower half with them
_GK_KRONROD = np.ascontiguousarray(_GK_WEIGHTS[:, 0])
_GK_LOWER = tuple(zip(_GK_NODES[:8].tolist(), _GK_KRONROD[:8].tolist()))
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
#: a panel narrower than this fraction of its position is not bisected: the
#: outermost nodes of its halves, 0.0085 half-widths from their ends, would
#: lie less than two ulps inside them
_NARROWEST = 2.0**-42
#: the offset, as a fraction of its panel's width, at which ``_gauss_kronrod``
#: probes g inside each outer edge, far inside the 0.43% strip before the
#: outermost node: a sign change nearer the edge goes unseen, and costs at
#: most |g'| (2^-30 W)^2
_PROBE = 2.0**-30


def _kinks(
    lo: list[float], hi: list[float], x: np.ndarray, g: np.ndarray, probed: bool
) -> tuple[list[list[float]], np.ndarray]:
    """Where the signed values g at the points x change sign between
    consecutive points x_j and x_{j+1}, in one panel or across the end that
    two panels share: per panel, the cuts that isolate each sign change, and
    an estimate of the error that the kink of |g| there adds to the panel's
    K15 integral of |g|.  x holds the nodes of the ascending panels
    [lo, hi], panel by panel; where probed is set, also a probe just inside
    the first panel's lo before them and one just inside the last panel's hi
    after them, so that a sign change between an outer edge and its
    outermost node, which no panel touches, is seen too.

    The cuts are x_j, the secant root and x_{j+1}, each given to the panel
    that holds it, in ascending order, and kept only if it is no probe and
    lies more than ``_NARROWEST`` of the panel's position inside it and past
    the panel's previous cut.  The secant root lies close to the root, so
    the pieces beside it hold the kink close to their shared end: in the
    strips between that end and their outermost nodes, 0.43% of their
    widths, or just past them.  There neither K15 nor QUADPACK's estimate
    sees it.

    The error estimate is K15's error on the kink alone: near a root at a
    distance t W from the nearer end of a panel of width W, |g| is smooth
    but for the stick 2 |g'| max(0, t W - s), s the distance from that end,
    whose integral, |g'| (t W)^2, K15 takes as 2 |g'| W^2 sum_k w_k
    max(0, t - u_k), u_k and w_k its nodes and weights on [0, 1].  When the
    root lies in the strip, no node is past it and the estimate is the
    whole |g'| (t W)^2.  It is doubled to cover the curvature of g over
    t W, and given to the panel that holds the secant root, with g' the
    secant's slope."""
    cuts = [[] for _ in lo]
    kink = np.zeros(len(lo))
    per, last, first = len(_GK_NODES), len(lo) - 1, int(probed)
    # each value times its right neighbour's sign, which neither overflows
    # nor underflows as the product of the two values may
    for m in np.flatnonzero(g[:-1] * np.sign(g[1:]) < 0.0).tolist():
        # the panels of the two points; a probe belongs to its outer panel
        i = min(max((m - first) // per, 0), last)
        n = min(max((m + 1 - first) // per, 0), last)
        if i != n and hi[i] != lo[n]:
            continue
        x0, x1, y0, y1 = float(x[m]), float(x[m + 1]), float(g[m]), float(g[m + 1])
        root = x0 - y0 * (x1 - x0) / (y1 - y0)
        k = n if root >= hi[i] else i
        width = hi[k] - lo[k]
        t = max(min(root - lo[k], hi[k] - root), 0.0) / width
        stick = t * t - 2.0 * sum(wk * (t - u) for u, wk in _GK_LOWER if u < t)
        kink[k] += 2.0 * abs((y1 - y0) / (x1 - x0)) * width * width * abs(stick)
        ends = [x0] if m >= first else []
        ends += [root] + ([x1] if m + 1 < len(x) - first else [])
        for cut in ends:
            k = n if cut >= hi[i] else i
            least = _NARROWEST * max(abs(lo[k]), abs(hi[k]))
            previous = cuts[k][-1] if cuts[k] else lo[k]
            if cut - previous > least and hi[k] - cut > least:
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
    first round also reads g at two probes, ``_PROBE`` of the outer panels'
    widths inside edges[0] and edges[-1] (no closer than the next float),
    in the same call of fn, and compares each with the outermost node
    beside it: a sign change between an outer edge and that node, which no
    panel touches, is cut and charged as any other.  The
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
    # the first round of |fn| also reads fn just inside the two outer edges
    probes = [
        max(lo[0] + _PROBE * (hi[0] - lo[0]), math.nextafter(lo[0], math.inf)),
        min(hi[-1] - _PROBE * (hi[-1] - lo[-1]), math.nextafter(hi[-1], -math.inf)),
    ] if absolute else []
    while True:
        lo_a, hi_a = np.array(lo), np.array(hi)
        width = hi_a - lo_a
        # lo + width u is never below lo, and above hi only in a panel a few
        # ulps wide
        nodes = np.minimum(lo_a[:, None] + np.multiply.outer(width, _GK_NODES), hi_a[:, None])
        x = np.concatenate((probes[:1], nodes.ravel(), probes[1:])) if probes else nodes.ravel()
        counter.add(x.size)
        g = fn(x)
        y = (g[1:-1] if probes else g).reshape(nodes.shape)
        if absolute:
            cuts_at, kink = _kinks(lo, hi, x, g, bool(probes))
            probes = []
            y = np.abs(y)
        kronrod, gauss = (y @ _GK_WEIGHTS).T
        resasc = np.abs(y - kronrod[:, None]) @ _GK_KRONROD
        ratio = np.minimum(200.0 * np.abs(kronrod - gauss) / np.maximum(resasc, _TINY), 1.0)
        floor = (50.0 * _EPS) * width * (kronrod if absolute else np.abs(y) @ _GK_KRONROD)
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


#: fractions x of w = t - a where ``_pointwise``'s panels end, at u = x w and
#: u = (1 - x) w (toward tau = a): with only 1e-9, 1e-6, 1e-3 and 1e-1 a
#: point of cos, exp or a power took 2.5 rounds on average, not 1.2
_EDGE_FRACS = (1e-12, 1e-8, 1e-4, 1e-3, 1e-2, 1e-1, 0.5)
#: multiples of the CF kernel's decay length 1/rate where its panels end: a
#: panel [8, 16] is too wide for one round at 1e-11, and past 64 the mass,
#: e^-64 / alpha, lies below the rounding of D f, from which D f - f' = O(beta)
#: is taken; stopping at 32 put cos's L1 error at beta 1e-8 3.6e-7 relative off
_DECAY_LENGTHS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)
#: the absolute or relative target, whichever is looser, of one value of ``_pointwise``
_POINT_TOL = 1e-11


def _pointwise(
    values: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f: TestFunction,
    a: float,
    t: float,
    p: float | None = None,
    rate: float | None = None,
    beta: float | None = None,
) -> float:
    """int_a^t values(tau, side) K(t - tau) dtau, by ``_gauss_kronrod`` to
    ``_POINT_TOL``, under the power kernel K(u) = u^(p-1) / Gamma(p) where
    p is given, and under the CF kernel K(u) = e^(-rate u) / beta where it
    is not.

    The power kernel is taken in s = (u / w)^p, u = t - tau and w = t - a,
    where K(u) du/ds is the constant w^p / Gamma(1 + p), on panels that end
    at the images of u = x w and u = (1 - x) w for x in ``_EDGE_FRACS``,
    which resolve tau near t and near a.  The CF kernel is taken in u
    itself, on panels that end at u = (1 - x) w and at ``_DECAY_LENGTHS`` /
    rate.  Panels also end at the image of each breakpoint of f inside
    (a, t).  A node reads values inside the piece between breakpoints that
    holds its panel: one that rounds onto or past an end of the piece is
    read there, toward the piece's far end.
    """
    w = t - a
    # the pieces' ends, tau descending as s ascends
    ends = np.array([t, *funcat._breakpoints_inside(f, a, t)[::-1], a])
    if p is None:
        images = t - ends[1:-1]
        decays = [m / rate for m in _DECAY_LENGTHS if m / rate < w]
        marks = [0.0, w, *(w - w * x for x in _EDGE_FRACS), *decays]
    else:
        scale = w**p / specfun.gamma(1.0 + p)
        images = ((t - ends[1:-1]) / w) ** p
        marks = [x**p for x in (0.0, 1.0, *_EDGE_FRACS, *(1.0 - x for x in _EDGE_FRACS))]
    edges = sorted({*marks, *images.tolist()})

    def integrand(s: np.ndarray) -> np.ndarray:
        u = s if p is None else w * s ** (1.0 / p)
        k = images.searchsorted(s)
        lo, hi = ends[k + 1], ends[k]
        taus = np.minimum(np.maximum(t - u, lo), hi)
        y = values(taus, np.where(taus - lo < hi - taus, hi, lo))
        y = y * (np.exp(-rate * u) / beta) if p is None else y * scale
        return _finite(y, taus, a, t)

    return _gauss_kronrod(integrand, edges, _POINT_TOL, _Counter(MAX_EVALS), rel=_POINT_TOL)[0]
