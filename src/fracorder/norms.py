"""Error functionals E_{f,p}(beta) = ||D^(1-beta) f - f'||_p for p in {1, inf}.

The L1 functional is an adaptive 7-15 Gauss-Kronrod quadrature (QUADPACK's
pair), ``operators._gauss_kronrod``, which every operator value without a
closed form off a whole grid uses too (``operators._pointwise``).  Its
panels are split at catalog breakpoints and inside the boundary layers
right of a and of each breakpoint, and it is vectorised over the panels:
each refinement round evaluates the integrand once, as one array over the
15 nodes of every panel still being refined.  The integrand is the signed
error D f - f' and the rule integrates its absolute value, so that it sees
where D f - f' changes sign, which is where |D f - f'| has a kink: a panel
refined there is cut at the two nodes around the sign change and at the
secant root between them instead of being bisected, and its error estimate
gains the rule's error on the kink.  The operator values at
the nodes come from one ``operators._evaluate_points`` call, f' from one
``funcat._derivative_toward`` call.  The loop stops when the summed error estimate
of all panels is at most the requested tol; that sum is reported as
``ErrorReport.quad_error``, and a tol that cannot be met is refused.  The
estimate leaves out the error of the operator values themselves: none for
a closed form, and within 1e-11 absolute or relative for the others.

The Riemann-Liouville case needs special care: its integrand carries the
term f(a)(t-a)^(beta-1)/Gamma(beta), whose mass concentrates so hard at the
left endpoint for small beta that the region below any floating point
offset delta still holds a fraction 1 - delta^beta of the integral (97%
below 1e-16 at beta = 1e-3).  The leftmost panel is therefore computed
under the exact flattening substitution t = a + w v^(1/beta), which maps the
power term to a constant and leaves a bounded integrand on (0, 1].

The L-infinity functional scans a dense grid over (a, b], with every
operator value of the scan from one ``operators.evaluate_grid`` call and
every f' value from one ``funcat._derivative_toward`` call, and refines the
best point by zooming in on it: two rounds, each scoring 127 evenly spaced
points of a bracket with one call of each, then one point at the vertex of
the parabola through the best three.  A scan value without a closed form
comes from a product trapezoid that doubles its cells until its values at
two spacings agree within 1e-8, absolute or relative, or is refused with
BudgetExceededError; that estimate measures the trapezoid's error but, like
Gauss-Kronrod's, is no proof.  A refinement point without one is a
Gauss-Kronrod quadrature to 1e-11, absolute or relative.
Two kinds of limit join the candidates, since a grid point approaches them
only by chance: the boundary limit of the error as t -> a+, |f'(a)| (each
operator here tends to 0 where f' is bounded near a, and grows more slowly
than f' where it is not), which is where the supremum lives whenever
f'(a) != 0; and at each catalog breakpoint c inside (a, b), where f'
jumps and the operator does not, the one-sided limits |D(c) - f'(c-)| and
|D(c) - f'(c+)|, all from one call of each.  Where f' is unbounded at a,
and for the Riemann-Liouville operator with f(a) != 0, the supremum is
infinite and no scan is made.

Where f' jumps at a point t of the scan or of the L1 integrand, it is taken
from the left, the side inside (a, t]; at a, from the right.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import operators, specfun
from .exceptions import DomainError
from .funcat import Interval, OperatorKind, TestFunction, _breakpoints_inside, _derivative_toward
from .operators import MAX_EVALS, FractionalOrder

__all__ = [
    "ErrorReport",
    "NormKind",
    "error_l1",
    "error_linf",
    "error_sweep",
]

DEFAULT_TOL = 1e-8
DEFAULT_GRID = 20001

#: the sup-norm refinement: points scored per round, strictly inside the
#: round's bracket, and rounds; 127 points narrow the bracket 64-fold a round
_ZOOM_POINTS = 127
_ZOOM_ROUNDS = 2

#: fractions (t - a) / w whose images v are ``_rl_flattened``'s panel edges
_FLAT_FRACS = (0.0, 1e-9, 1e-6, 1e-3, 1e-1, 1.0)


class NormKind(enum.Enum):
    L1 = "1"
    LINF = "inf"


@dataclass(frozen=True)
class ErrorReport:
    """One evaluation of the error functional at a single beta.

    ``quad_error`` is the summed quadrature error estimate behind an L1
    value, at most the requested tol; ``None`` for the sup norm.  It covers
    the Gauss-Kronrod rule over t only, not the error of the operator values
    it integrates: none where they have closed forms, and within 1e-11
    absolute or relative of each where they are quadratures themselves.
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


def _error(kind, f, order, a, ts) -> np.ndarray:
    """D f - f' at each point of ts (all > a), f' from the left on a breakpoint."""
    values = operators._evaluate_points(kind, f, order, a, ts)
    return values - _derivative_toward(f, ts)


def _boundary_layer_splits(
    start: float, width: float, kind: OperatorKind, order: FractionalOrder
) -> list[float]:
    """Split points inside (start, start + width) resolving the boundary
    layer of D f - f' right of start: a, where the operator begins, or a
    breakpoint, where f' jumps by some J and D f gains a term of its own,
    J (t-start)^beta / Gamma(1+beta) under C and
    J (1 - e^(-rate (t-start))) / alpha under CF."""
    points = {start + width * frac for frac in (1e-6, 1e-3, 1e-1)}
    if kind is OperatorKind.CAPUTO_FABRIZIO:
        scale = 1.0 / order.rate  # decay length of the exponential kernel
        points.update(start + scale * mult for mult in (2.0, 10.0, 50.0))
    # no panel narrower than a bisection may leave, so that no node rounds
    # onto a panel end
    least = operators._NARROWEST * max(abs(start), abs(start + width))
    return sorted(p for p in points if start + least < p < start + width - least)


def _rl_flattened(f, order, a, w):
    """The signed RL error on (a, a+w] under the substitution
    t = a + w v^(1/beta), as an integrand over v in (0, 1] and the edges of
    its panels.

    In v-coordinates the singular term becomes the constant f(a) w^beta /
    (beta Gamma(beta)) and the remainder (the Caputo error) is damped by
    v^rate, rate = alpha/beta; both factors underflow harmlessly to the
    exact limit value near v = 0.
    """
    beta = order.beta
    base = f.value(a) * w**beta / (beta * specfun.gamma(beta))

    def integrand(v: np.ndarray) -> np.ndarray:
        t = a + w * v ** (1.0 / beta)
        rest = np.zeros(v.shape)
        inside = t > a
        ts = t[inside]
        rest[inside] = _error(OperatorKind.CAPUTO, f, order, a, ts)
        return base + (w / beta) * v**order.rate * rest

    return integrand, sorted({x**beta for x in _FLAT_FRACS})


def error_l1(
    f: TestFunction,
    kind: OperatorKind,
    beta: float,
    interval: Interval,
    tol: float = DEFAULT_TOL,
    *,
    max_evals: int = MAX_EVALS,
) -> ErrorReport:
    """L1 norm of D^(1-beta) f - f' over the interval, to absolute accuracy tol.

    The interval is split at the catalog breakpoints, and each piece again
    inside the boundary layer right of its left end (``_boundary_layer_splits``);
    for RL with f(a) != 0 the first piece is integrated in the flattened
    coordinate v instead (``_rl_flattened``).  The panels are integrated by
    the adaptive 7-15 Gauss-Kronrod rule of ``operators._gauss_kronrod`` on
    |D f - f'|, which cuts a panel at each sign change of D f - f' that its
    nodes see, so that a kink of the integrand costs two or three rounds,
    not one bisection per halving (cos under CF on (0, 1): 2 rounds at beta
    1e-1 to 1e-3, where bisection took 12, 10 and 8).

    ``tol`` bounds the sum over all final panels of QUADPACK's error
    estimate, |K15 - G7| scaled by how much the integrand varies on the
    panel; the report carries that sum as ``quad_error``.  It is an
    estimate of the error, not a proof: it errs on the safe side where the
    integrand has a singular derivative, counts the rule's error on each
    kink that the panels' nodes, or the outermost nodes of two touching
    panels, see, and misses a kink that falls between an end of the
    interval or a breakpoint and the outermost node beside it.
    ``n_eval_points`` counts every node at which the integrand was
    evaluated, 15 per panel; past ``max_evals`` the integration stops with
    BudgetExceededError.  When the estimate is still above tol and every
    panel over its share is too narrow to refine or at its rounding floor,
    or the floors alone sum past tol, the value is refused with
    IntegrationError.
    """
    order = FractionalOrder.from_beta(beta)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    a, b = interval.a, interval.b
    counter = operators._Counter(max_evals)

    kinks = _breakpoints_inside(f, a, b)
    pieces = list(zip([a, *kinks], [*kinks, b]))
    regions = []
    if kind is OperatorKind.RIEMANN_LIOUVILLE and f.value(a) != 0.0:
        regions.append(_rl_flattened(f, order, a, pieces[0][1] - a))
        del pieces[0]
    if pieces:
        edges = [pieces[0][0]]
        for lo, hi in pieces:
            edges += [*_boundary_layer_splits(lo, hi - lo, kind, order), hi]
        regions.append((lambda ts: _error(kind, f, order, a, ts), edges))
    n_panels = sum(len(e) - 1 for _, e in regions)
    value = quad_error = 0.0
    for fn, region_edges in regions:
        share = tol * (len(region_edges) - 1) / n_panels
        part, estimate = operators._gauss_kronrod(fn, region_edges, share, counter, absolute=True)
        value += part
        quad_error += estimate
    return ErrorReport(kind, beta, NormKind.L1, interval, value, counter.count, quad_error)


def _zoom_max(fn, lo: float, hi: float) -> float:
    """The largest value of fn (an array function) at the points of
    ``_ZOOM_ROUNDS`` rounds and one last point.  Each round scores
    ``_ZOOM_POINTS`` evenly spaced points strictly inside [lo, hi], and the
    next round's bracket is the two cells on either side of the best of
    them.  The last point is the vertex of the parabola through the last
    round's best point and its two neighbours (the end three where the best
    is an end point), kept between them, where a smooth peak lies to within
    about the square of their spacing; three that do not bend down score
    their middle point again."""
    best = -math.inf
    fracs = np.arange(1, _ZOOM_POINTS + 1) / (_ZOOM_POINTS + 1)
    for _ in range(_ZOOM_ROUNDS):
        ts = lo + (hi - lo) * fracs
        values = fn(ts)
        k = int(np.argmax(values))
        best = max(best, float(values[k]))
        lo = float(ts[k - 1]) if k > 0 else lo
        hi = float(ts[k + 1]) if k + 1 < _ZOOM_POINTS else hi
    j = min(max(k, 1), _ZOOM_POINTS - 2)
    y0, y1, y2 = values[j - 1 : j + 2].tolist()
    bend = y0 - 2.0 * y1 + y2
    # the vertex's offset from ts[j] in spacings, within one of it
    shift = min(max(0.5 * (y0 - y2) / bend, -1.0), 1.0) if bend < 0.0 else 0.0
    vertex = float(ts[j]) + shift * float(ts[j + 1] - ts[j - 1]) / 2.0
    return max(best, float(fn(np.array([vertex]))[0]))


def error_linf(
    f: TestFunction,
    kind: OperatorKind,
    beta: float,
    interval: Interval,
    n_grid: int = DEFAULT_GRID,
) -> ErrorReport:
    """Essential supremum of |D^(1-beta) f - f'| over (a, b].

    The value is the largest of the grid scan, its refinement (``_zoom_max``
    on the two grid cells around the best grid point), |f'(a)| (the t -> a+
    limit; its right limit when a is a breakpoint) and the one-sided limits
    at each breakpoint inside (a, b).  ``n_eval_points`` counts each of them
    once.  It is ``inf``, with one evaluation and no scan, where f'(a+) is
    infinite, and for the Riemann-Liouville operator with f(a) != 0: the
    boundary term f(a)(t-a)^(beta-1)/Gamma(beta) is unbounded as t -> a+,
    and no catalog function has an f' that cancels it.  n_grid is an integer
    of at least 2 (or DomainError, also where no scan is made).  A scan
    value without a closed form is within 1e-8, absolute or relative, of
    the operator by the grid's two-spacing estimate (``evaluate_grid``), or
    the scan is refused with BudgetExceededError.
    """
    order = FractionalOrder.from_beta(beta)
    operators._check_grid_size(n_grid, 2, "n_grid")
    a, b = interval.a, interval.b
    # as t -> a+ each operator here (RL as C where f(a) = 0) tends to 0, or
    # grows more slowly than an unbounded f', so the boundary limit of the
    # error is |f'(a+)|, which the grid approaches only at rate (t-a)^beta
    at_a = abs(float(_derivative_toward(f, np.array([a]), math.inf)[0]))
    if at_a == math.inf or (kind is OperatorKind.RIEMANN_LIOUVILLE and f.value(a) != 0.0):
        return ErrorReport(kind, beta, NormKind.LINF, interval, math.inf, 1)
    fprime = _derivative_toward(f, operators._grid_points(a, b, n_grid))
    values = np.abs(operators.evaluate_grid(kind, f, order, a, b, n_grid) - fprime)
    best_i = int(np.argmax(values))
    best = float(values[best_i])
    step = interval.width / n_grid
    lo = a + best_i * step  # one grid point left of the argmax, or a
    hi = a + min(best_i + 2, n_grid) * step
    refined = _zoom_max(lambda ts: np.abs(_error(kind, f, order, a, ts)), lo, hi)
    candidates = [best, refined, at_a]
    kinks = _breakpoints_inside(f, a, b)
    if kinks:
        # the operator is continuous at a breakpoint and f' jumps there, so
        # the error has two one-sided limits, which a grid point can only
        # approach by chance
        values = operators._evaluate_points(kind, f, order, a, np.array(kinks))
        sides = [-math.inf] * len(kinks) + [math.inf] * len(kinks)
        limits = _derivative_toward(f, np.array(kinks * 2), sides)
        candidates += np.abs(np.concatenate((values, values)) - limits).tolist()
    count = n_grid + _ZOOM_ROUNDS * _ZOOM_POINTS + 2 + 2 * len(kinks)
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
    max_evals: int = MAX_EVALS,
) -> list[ErrorReport]:
    """One ErrorReport per beta, computed independently, in input order;
    n_grid serves the sup norm alone (``error_linf``), tol and max_evals
    the L1 norm (``error_l1``); an n_grid that is not an integer of at least
    2 is refused with DomainError whatever p is."""
    operators._check_grid_size(n_grid, 2, "n_grid")
    if not betas:
        raise DomainError("betas must be non-empty")
    if any(x <= y for x, y in zip(betas, betas[1:])):
        raise DomainError(f"betas must be strictly decreasing, got {betas!r}")

    def one(beta: float) -> ErrorReport:
        try:
            if p is NormKind.L1:
                return error_l1(f, kind, beta, interval, tol, max_evals=max_evals)
            return error_linf(f, kind, beta, interval, n_grid)
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
