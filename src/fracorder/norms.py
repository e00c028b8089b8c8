"""Error functionals E_{f,p}(beta) = ||D^(1-beta) f - f'||_p for p in {1, inf}.

The L1 functional is an adaptive 7-15 Gauss-Kronrod quadrature (QUADPACK's
pair), ``operators._gauss_kronrod``, which every operator value without a
closed form uses too (``operators._pointwise``).  It is
vectorised over the panels: each refinement round evaluates the integrand
once, as one array over the 15 nodes of every panel still being refined.
The integrand is the signed error D f - f' and the rule integrates its
absolute value, so that it sees where D f - f' changes sign, which is where
|D f - f'| has a kink: a panel refined there is cut at the two nodes around
the sign change and at the secant root between them instead of being
bisected, and its error estimate gains the rule's error on the kink.  The
first round also reads the integrand just inside the two outer edges of
each run, so that a sign change between an edge and the outermost node is
cut and charged too.  D f - f' is bound once per call (``_error``), and
every round takes its values at the nodes from one call of that bound
function: the catalog's defect form (``TestFunction._defect``) where it
has one, which keeps the digits of D f - f' where D f and f' agree to many,
and elsewhere the operator (``operators._bind``) less f' from one
``funcat._derivative_toward`` call.  The loop stops when the summed error
estimate of all panels is at most the requested tol; that sum is reported
as ``ErrorReport.quad_error``, and a tol that cannot be met is refused.
The estimate leaves out the rounding of the values of D f - f'
themselves: a few ulps of beta |f'| for a defect form, eps |f'| for the
operator less f', and within 1e-11 absolute or relative more where the
operator is a quadrature.

The interval is cut at a, the catalog breakpoints and b into pieces, and
the coordinate of each piece follows the boundary layer at its left end lo.
Under C and RL a jump J of f' at lo (f'(a) itself at a) adds
J (t-lo)^beta / Gamma(1+beta) to D f, a term whose slope is unbounded at lo
and whose mass, for small beta, sits at the top of the piece.  So each
piece on which f' has a finite limit at lo, which is every piece right of
a breakpoint, is integrated on its own in the flattened coordinate
v = ((t - lo)/w)^beta, w its width, where that term is linear
(``_flattened``).  There the Riemann-Liouville term
f(a)(t-a)^(beta-1)/Gamma(beta) of the first piece becomes a constant, so
that piece is flattened wherever f(a) != 0, whatever f' does at a: the
region below any floating point offset delta holds a fraction
1 - delta^beta of that term's integral (97% below 1e-16 at beta = 1e-3).
On later pieces the term is smooth.  Any other first piece with f'
infinite at a (t^g, g < 1), and every piece under CF, whose layer is
exponential, stays on t-panels split inside the boundary layers
(``_boundary_layer_splits``); under CF the pieces share one run.

The L-infinity functional scans a few dozen points of (a, b]: n_grid uniform
points (64 by default), and right of a and of each breakpoint the points
where the boundary layer lies, at fixed fractions of the piece and under CF
at multiples of the kernel's decay length 1/rate, about beta wide as
beta -> 0.  D f - f' is bound once per call (``_error``): the scan, the
limits at the breakpoints, each zoom round and the last point each take
their values from one call of that bound function.  Two kinds of limit join the
candidates, since a scan point approaches them only by chance: the boundary
limit of the error as t -> a+, |f'(a)| (each operator here tends to 0 where
f' is bounded near a, and grows more slowly than f' where it is not), which
is where the supremum lives whenever f'(a) != 0; and at each catalog
breakpoint c inside (a, b), where f' jumps and the operator does not, the
one-sided limits |D(c) - f'(c-)| and |D(c) - f'(c+)|, all from one call.
It then zooms in on the scan's local maxima that could hold a peak
above every other candidate, the limits among them, at most three; where a
limit is the supremum there may be none, and the scan and the limits are
the only calls.  A round scores 127 points of its brackets with one call, evenly
spaced in ln(t - s), s the start (a or a breakpoint) of the piece that
holds the bracket's lower end, since under C and RL the layer of t^g with
g just above 1 peaks at t = (g (g-1) / (k (g-1+beta)))^(1/beta),
k = Gamma(g+1)/Gamma(g+beta), which can lie 1e-100 of the interval above
s, far below the first scan point, inside a bracket that spans decades.
CF's brackets take the same coordinate, so that there is one zoom; it
also resolves a CF layer peak close above s, such as that of power:1.01 at
beta 1.16e-3 on (0, 0.744), at t = 1.2e-5, which points evenly spaced in t
miss by 6.9e-8 relative.
A second round, in the two cells around the best point of the first, runs
only where the maxima of the quartic and of the parabola through that point
and its neighbours disagree; then one point is scored at the quartic's
maximum, unless it is a point already scored.  Each value is a closed form
or a Gauss-Kronrod quadrature to 1e-11, absolute or relative, less f', or
the catalog's defect form.  Where f' is
unbounded at a, and for the Riemann-Liouville operator with f(a) != 0, the
supremum is infinite and no scan is made.

Where f' jumps at a point t of the scan or of the L1 integrand on t-panels,
it is taken from the left, the side inside (a, t]; at a, from the right.  A
node of a flattened piece reads f' inside its piece.
"""

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import operators, specfun
from .exceptions import DomainError
from .funcat import Interval, OperatorKind, TestFunction, _breakpoints_inside, _derivative_toward
from .operators import FractionalOrder

__all__ = [
    "ErrorReport",
    "NormKind",
    "error_l1",
    "error_linf",
    "error_sweep",
]

DEFAULT_TOL = 1e-8
DEFAULT_GRID = 64

#: the sup-norm refinement: points scored per round, strictly inside the
#: round's bracket, which 127 points narrow 64-fold a round.  A round is the
#: last where the quartic's and the parabola's vertex around its best point
#: agree within _AGREE of its spacing, or the _ZOOM_ROUNDS-th.  Without the
#: stop rule, one round left power:1.25 under C on (0, 0.3) at beta 1e-2
#: and n_grid 2 2.6e-11 below mpmath; stopping at 1/64 left (0, 1) at beta
#: 0.5 5.8e-14 low
_ZOOM_POINTS = 127
_ZOOM_ROUNDS = 2
_ZOOM_FRACS = np.arange(1, _ZOOM_POINTS + 1) / (_ZOOM_POINTS + 1)
_AGREE = 1.0 / 512.0
#: Newton steps toward the quartic's maximum from the parabola's vertex:
#: from within _AGREE of it, three reach 1e-9 of the spacing
_NEWTON_STEPS = 4
#: the distance, relative to the interval's larger end, within which two
#: points of the sup-norm scan are one: a few roundings of its arithmetic
_SAME_POINT = 8.0 * np.finfo(float).eps
#: the most local maxima of the sup-norm scan that the refinement starts from
_BRACKETS = 3

#: fractions (t - lo) / w whose images are ``_flattened``'s inner panel
#: edges.  The first panel's mass, about |D f - f'|(lo+) 1e-18 w, is not seen:
#: K15's outermost node sits a factor of about e^(-0.0043/beta) below its end
#: in t.  With 1e-9 for its end, affine:1,1 under RL on (0, 2) at beta 1e-4
#: was 4.1e-12 off, estimating 1.4e-14
_FLAT_FRACS = (1e-18, 1e-7, 1e-3, 1e-1)


class NormKind(enum.Enum):
    L1 = "1"
    LINF = "inf"


@dataclass(frozen=True)
class ErrorReport:
    """One evaluation of the error functional at a single beta.

    ``quad_error`` is the summed quadrature error estimate behind an L1
    value, at most the requested tol; ``None`` for the sup norm.  It covers
    the Gauss-Kronrod rule only, not the rounding of the values of D f - f'
    it integrates: a few ulps of beta |f'| where they are the catalog's
    defect forms, eps |f'| where they are the operator less f', and within
    1e-11 absolute or relative more where the operator is a quadrature.
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


def _error(kind: OperatorKind, f: TestFunction, order: FractionalOrder, a: float, b: float):
    """D f - f' on (a, b], bound once per error functional, as
    ``error(ts, side=-inf, boundary=True)`` of an array of points in
    [a, b], with f' read toward side (a number, or one per point) on a
    breakpoint.

    Where the catalog has a defect form (``TestFunction._defect``), the
    error is that one expression, which keeps its digits where D f and f'
    agree to many (as beta -> 0, or where e^t is large), plus under RL the
    boundary term f(a) (t-a)^(-alpha) / Gamma(beta) unless boundary is
    False.  Elsewhere, at the defect's NaN points and for every entry
    without one, it is the operator (``operators._bind``, bound at its
    first use; under RL with its boundary term unless boundary is False)
    less f', and D f(a+) = 0 at a point on a."""
    if not isinstance(kind, OperatorKind):
        raise DomainError(f"unknown operator kind {kind!r}")
    rl = kind is OperatorKind.RIEMANN_LIOUVILLE
    defect = f._defect(OperatorKind.CAPUTO if rl else kind, order, a, b)
    bound = None

    def subtracted(ts: np.ndarray, side=-math.inf, boundary: bool = True) -> np.ndarray:
        nonlocal bound
        if bound is None:
            bound = operators._bind(kind, f, order, a, b)
        inside = ts > a
        if inside.all():
            values = bound(ts, boundary)
        else:
            values = np.zeros(ts.shape)
            values[inside] = bound(ts[inside], boundary)
        return values - _derivative_toward(f, ts, side)

    if defect is None:
        return subtracted
    f_a = f.value(a) if rl else 0.0
    if f_a != 0.0:
        alpha, gamma_beta = order.alpha, specfun.gamma(order.beta)

    def error(ts: np.ndarray, side=-math.inf, boundary: bool = True) -> np.ndarray:
        out = defect(ts, side)
        if f_a != 0.0 and boundary:
            out = out + f_a * (ts - a) ** (-alpha) / gamma_beta
        missing = np.isnan(out)
        if missing.any():
            sides = side if np.ndim(side) == 0 else np.asarray(side)[missing]
            out[missing] = subtracted(ts[missing], sides, boundary)
        return out

    return error


def _boundary_layer_splits(
    start: float, width: float, kind: OperatorKind, order: FractionalOrder
) -> list[float]:
    """Split points inside (start, start + width) resolving the boundary
    layer of D f - f' right of start on t-panels: under CF at a, where the
    operator begins, or at a breakpoint, where f' jumps by some J and D f
    gains J (1 - e^(-rate (t-start))) / alpha; and under C and RL at a where
    f' is infinite there, the one piece that ``_flattened`` does not take."""
    points = {start + width * frac for frac in (1e-6, 1e-3, 1e-1)}
    if kind is OperatorKind.CAPUTO_FABRIZIO:
        scale = 1.0 / order.rate  # decay length of the exponential kernel
        points.update(start + scale * mult for mult in (2.0, 10.0, 50.0))
    # no panel narrower than a bisection may leave, so that no node rounds
    # onto a panel end
    least = operators._NARROWEST * max(abs(start), abs(start + width))
    return sorted(p for p in points if start + least < p < start + width - least)


def _flattened(kind, error, f, order, a, lo, hi):
    """The signed error on the piece (lo, hi] under the substitution
    t = lo + w v^(1/beta), w = hi - lo, as an integrand over y = 1 - v in
    [0, 1] with the weight dt/dv = (w/beta) v^rate, and the edges of its
    panels.  Its values come from ``error``, the function that ``_error``
    binds once per call.

    The term J (t - lo)^beta / Gamma(1 + beta) that a jump J of f' at lo
    adds to D f, whose slope in t is unbounded at lo, is linear in v, so
    its layer needs no bisection toward lo.  In y, the panels near t = hi,
    which hold the mass of a small beta, keep all their digits, which they
    would not in v near 1.  Where lo = a the Riemann-Liouville boundary term
    f(a)(t-a)^(beta-1)/Gamma(beta) becomes the constant
    f(a) w^beta / (beta Gamma(beta)), and the rest is the Caputo error (the
    bound error called without its boundary term); on later pieces the
    term is smooth and stays in D f.  A node whose t rounds onto a takes
    -f'(a+), D f(a+) = 0 being the limit where f' is finite at a.  f' is
    read inside the piece: toward hi at lo, and toward lo at hi.
    """
    beta, w = order.beta, hi - lo
    base = 0.0
    boundary = not (kind is OperatorKind.RIEMANN_LIOUVILLE and lo == a)
    if not boundary:
        base = f.value(a) * w**beta / (beta * specfun.gamma(beta))

    def integrand(y: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # y = 1 is t = lo, where the weight is 0
            log_v = np.log1p(-y)
        t = np.minimum(lo + w * np.exp(log_v / beta), hi)
        values = error(t, 0.5 * (lo + hi), boundary)
        return base + (w / beta) * np.exp(order.rate * log_v) * values

    return integrand, sorted({0.0, 1.0, *(-math.expm1(beta * math.log(x)) for x in _FLAT_FRACS)})


def error_l1(
    f: TestFunction,
    kind: OperatorKind,
    beta: float,
    interval: Interval,
    tol: float = DEFAULT_TOL,
) -> ErrorReport:
    """L1 norm of D^(1-beta) f - f' over the interval, to absolute accuracy tol.

    The interval is split at the catalog breakpoints into pieces.  Under C
    and RL each piece on which f' has a finite limit at its left end lo,
    and RL's first piece where f(a) != 0, is one run in the flattened
    coordinate v = ((t - lo)/w)^beta (``_flattened``); the first piece of
    an f' infinite at a is one run on t-panels split inside its boundary
    layer.  Under CF all pieces are one run on t-panels, split again inside
    the boundary layer right of each left end (``_boundary_layer_splits``).
    Each run is integrated by the adaptive 7-15 Gauss-Kronrod rule of
    ``operators._gauss_kronrod`` on |D f - f'|, which cuts a panel at each
    sign change of D f - f' that its nodes, or the probes inside the run's
    two outer edges, see, so that a kink of the integrand costs two or
    three rounds, not one bisection per halving (cos under CF on (0, 1): 2
    rounds at beta 1e-1 to 1e-3, where bisection took 12, 10 and 8).  In v
    the layer of a jump at lo is linear: |t - 1| under C on (0, 2) takes 2
    rounds a piece and 274 nodes, where t-panels took 8 rounds and 1350.

    ``tol`` bounds the sum over all final panels of QUADPACK's error
    estimate, |K15 - G7| scaled by how much the integrand varies on the
    panel; the report carries that sum as ``quad_error``.  Each run gets a
    share of tol in proportion to its first panels.  It is an estimate of
    the error, not a proof: it errs on the safe side where the integrand has
    a singular derivative, counts the rule's error on each kink that the
    panels' nodes, the outermost nodes of two touching panels, or an
    outermost node and the probe beside it, see, and misses two sign
    changes between the same two nodes.  ``n_eval_points`` counts every
    point at which the integrand was evaluated: 15 per panel and 2 probes
    per run; past ``operators.MAX_EVALS`` the integration stops with
    BudgetExceededError.  A tol that is not positive and finite is refused
    with DomainError.  When the estimate is still above tol and every
    panel over its share is too narrow to refine or at its rounding floor,
    or the floors alone sum past tol, the value is refused with
    IntegrationError.
    """
    order = FractionalOrder.from_beta(beta)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    a, b = interval.a, interval.b
    counter = operators._Counter(operators.MAX_EVALS)
    error = _error(kind, f, order, a, b)

    kinks = _breakpoints_inside(f, a, b)
    pieces = list(zip([a, *kinks], [*kinks, b]))
    if kind is OperatorKind.CAPUTO_FABRIZIO:
        flat = [False] * len(pieces)
    else:
        # a piece is flattened where f' has a finite limit at its left end
        los, his = (np.array(ends) for ends in zip(*pieces))
        flat = np.isfinite(_derivative_toward(f, los, his)).tolist()
        flat[0] = flat[0] or (kind is OperatorKind.RIEMANN_LIOUVILLE and f.value(a) != 0.0)
    runs, edges = [], []
    for (lo, hi), flattened in zip(pieces, flat):
        if flattened:
            runs.append(_flattened(kind, error, f, order, a, lo, hi))
            continue
        # a piece on t-panels is a run alone, but CF's pieces share one
        edges = edges or [lo]
        edges += [*_boundary_layer_splits(lo, hi - lo, kind, order), hi]
        if kind is not OperatorKind.CAPUTO_FABRIZIO or hi == b:
            runs.append((error, edges))
            edges = []
    n_panels = sum(len(e) - 1 for _, e in runs)
    value = quad_error = 0.0
    for fn, run_edges in runs:
        share = tol * (len(run_edges) - 1) / n_panels
        part, estimate = operators._gauss_kronrod(fn, run_edges, share, counter, absolute=True)
        value += part
        quad_error += estimate
    return ErrorReport(kind, beta, NormKind.L1, interval, value, counter.count, quad_error)


def _scan_points(kind, order, a: float, b: float, n_grid: int, kinks: list[float]) -> np.ndarray:
    """The sup-norm scan's points in (a, b], ascending and once each: the
    n_grid uniform points, and right of a and of each breakpoint, where
    the boundary layers lie, the images of ``operators._EDGE_FRACS`` of
    that piece, and under CF the multiples ``operators._DECAY_LENGTHS`` of
    the kernel's decay length 1/rate that fall inside it."""
    grid = operators._grid_points(a, b, n_grid)
    ends = [a, *kinks, b]
    pieces = list(zip(ends, ends[1:]))
    layer = {lo + (hi - lo) * x for lo, hi in pieces for x in operators._EDGE_FRACS}
    if kind is OperatorKind.CAPUTO_FABRIZIO:
        rate = order.rate
        decays = [m / rate for m in operators._DECAY_LENGTHS]
        layer.update(lo + d for lo, hi in pieces for d in decays if d < hi - lo)
    # a layer point that rounds onto or next to a, or a grid point, is left
    # out: two samples that differ by rounding alone would decide which of
    # them is the local maximum, and so which cell, one of them a few ulps
    # wide, is zoomed on
    layer = np.array(sorted(layer))
    cells = (layer - a) * (n_grid / (b - a))
    near = np.abs(cells - np.rint(cells)) <= _SAME_POINT * max(abs(a), abs(b)) * n_grid / (b - a)
    ts = np.concatenate((layer[~near], grid))
    ts.sort(kind="stable")  # a merge sort, which merges the two ascending runs
    return ts


def _brackets(
    ts: np.ndarray, values: np.ndarray, a: float, at_a: float, limits, top: float
) -> list[tuple[float, float, float, float]]:
    """The two scan cells around each of at most ``_BRACKETS`` local maxima
    of the scan's |error| values at ts, as (lo, hi, |error|(lo),
    |error|(hi)) with at_a at a, highest reach first: those whose reach,
    their sample plus its larger gap to its two neighbours, is at least
    top, the best candidate among the samples, |f'(a+)| = at_a and the
    one-sided limits.  The reach bounds the peak of a parabola through the
    three, so a smooth peak that a lower sample hides is zoomed on too, and
    where a limit is the supremum no sample may qualify and nothing is
    zoomed on.  The limits are neighbours too: the first sample's left
    neighbour is a, with at_a, and at each breakpoint c, given in limits as
    (c, left limit, right limit), the first sample right of c has the right
    limit as its left neighbour and the sample before it the left limit as
    its right neighbour.  The last sample, at b, stands in for its own
    missing neighbour."""
    padded = np.empty(values.size + 2)
    padded[1:-1] = values
    padded[0], padded[-1] = at_a, values[-1]
    # a copy, or a limit set in after would show in before too
    before, after = padded[:-2].copy(), padded[2:]
    for c, left, right in limits:
        i = int(ts.searchsorted(c, side="right"))
        before[i] = right
        if i:
            after[i - 1] = left
    reach = 2.0 * values - np.minimum(before, after)
    idx = (reach >= top).nonzero()[0]
    higher = np.maximum(before[idx], after[idx]).tolist()
    rows = zip(reach[idx].tolist(), idx.tolist(), values[idx].tolist(), higher)
    peaks = sorted(((r, i) for r, i, value, most in rows if value >= most), reverse=True)
    brackets = []
    for _, i in peaks[:_BRACKETS]:
        lo, lo_value = (float(ts[i - 1]), float(values[i - 1])) if i else (a, at_a)
        hi = min(i + 1, values.size - 1)
        brackets.append((lo, float(ts[hi]), lo_value, float(values[hi])))
    return brackets


def _vertices(values: np.ndarray, k: int) -> tuple[float, float]:
    """Two estimates of the peak of evenly spaced values around their
    largest, values[k], as fractional indices: the maximum of the quartic
    through values[k-2 .. k+2], and the vertex of the parabola through
    values[k-1 .. k+1] (the end five and three where k is near an end).
    The parabola's vertex, kept between its three points, is k where the
    three do not bend down, which only the end three can do.  The quartic's
    maximum is found by Newton's method on its cubic derivative, started at
    the parabola's vertex and kept between its five points."""
    j = min(max(k, 2), values.size - 3)
    five = values[j - 2 : j + 3].tolist()
    # the parabola's middle point, as an offset from values[j]
    m = min(max(k, 1), values.size - 2) - j
    left, middle, right = five[m + 1 : m + 4]
    bend = left - 2.0 * middle + right
    x = m + min(max(0.5 * (left - right) / bend, -1.0), 1.0) if bend < 0.0 else k - j
    parabola = j + x
    # the quartic's derivative c1 + 2 c2 x + 3 c3 x^2 + 4 c4 x^3, x in
    # spacings from values[j]
    ym2, ym1, y0, y1, y2 = five
    c1 = (ym2 - 8.0 * ym1 + 8.0 * y1 - y2) / 12.0
    c2 = (-ym2 + 16.0 * ym1 - 30.0 * y0 + 16.0 * y1 - y2) / 12.0
    c3 = (-ym2 + 2.0 * ym1 - 2.0 * y1 + y2) / 4.0
    c4 = (ym2 - 4.0 * ym1 + 6.0 * y0 - 4.0 * y1 + y2) / 6.0
    for _ in range(_NEWTON_STEPS):
        curve = c2 + x * (2.0 * c3 + 3.0 * c4 * x)
        if not curve < 0.0:
            break
        previous, x = x, min(max(x - (c1 + x * (c2 + x * (c3 + c4 * x))) / curve, -2.0), 2.0)
        if abs(x - previous) <= 1e-9:
            break
    return j + x, parabola


def _zoom_max(
    fn, brackets: list[tuple[float, float, float, float]], starts: list[float]
) -> tuple[float, int]:
    """The largest value of fn (an array function) at the points of one or
    two rounds and at most one last point, and the number of points
    scored.  Each bracket is (lo, hi, fn(lo), fn(hi)), with one start s in
    starts at or left of its lo, and its points are evenly spaced in
    x = ln(t - s), so that a bracket that spans decades above s resolves a
    peak at any of them; a lo at s is placed at
    s + max(1e-300 (hi - s), 4 ulp(s)), inside (s, hi).  The first round
    scores ``_ZOOM_POINTS`` evenly spaced points strictly inside each
    bracket, all in one call.  After each round ``_vertices`` places the
    peak around the best point of the bracket that holds it twice, by a
    quartic and by a parabola, the bracket's ends counting among its
    points.  Where the two agree within ``_AGREE`` of the spacing, or after
    ``_ZOOM_ROUNDS`` rounds, the last point is the quartic's maximum, scored
    unless it is an end of the bracket or a point of the round.  Otherwise
    the next round's bracket is the two cells on either side of the best
    point."""
    brackets = [
        (math.log(max(lo - s, 1e-300 * (hi - s), 4.0 * math.ulp(s))), math.log(hi - s), *ends)
        for (lo, hi, *ends), s in zip(brackets, starts)
    ]
    best, scored = -math.inf, 0
    for _ in range(_ZOOM_ROUNDS):
        lo, hi, lo_value, hi_value = zip(*brackets)
        grid = np.array(lo)[:, None] + np.multiply.outer(np.subtract(hi, lo), _ZOOM_FRACS)
        values = fn((np.array(starts)[:, None] + np.exp(grid)).ravel())
        scored += values.size
        r = int(values.argmax()) // _ZOOM_POINTS
        row = values[r * _ZOOM_POINTS : (r + 1) * _ZOOM_POINTS]
        values = np.concatenate(([lo_value[r]], row, [hi_value[r]]))
        k = int(values.argmax())
        best = max(best, float(values[k]))
        quartic, parabola = _vertices(values, k)
        if abs(quartic - parabola) <= _AGREE:
            break
        xs = np.concatenate(([lo[r]], grid[r], [hi[r]]))
        i, j = max(k - 1, 0), min(k + 1, _ZOOM_POINTS + 1)
        brackets = [(float(xs[i]), float(xs[j]), float(values[i]), float(values[j]))]
        starts = [starts[r]]
    # the quartic's maximum lies between the ends of the bracket, so at an
    # integer it is an end (lo may be a, whose value is a limit) or a point
    # of the round: a value already scored
    if quartic == int(quartic):
        return best, scored
    vertex = starts[r] + math.exp(lo[r] + quartic * (hi[r] - lo[r]) / (_ZOOM_POINTS + 1))
    return max(best, float(fn(np.array([vertex]))[0])), scored + 1


def error_linf(
    f: TestFunction,
    kind: OperatorKind,
    beta: float,
    interval: Interval,
    n_grid: int = DEFAULT_GRID,
) -> ErrorReport:
    """Essential supremum of |D^(1-beta) f - f'| over (a, b].

    The value is the largest of |f'(a)| (the t -> a+ limit; its right
    limit when a is a breakpoint), the one-sided limits at each breakpoint
    inside (a, b), the scan (``_scan_points``: n_grid uniform points plus
    the boundary layers right of a and of each breakpoint) and its
    refinement (``_zoom_max`` on the two scan cells around each of at most
    ``_BRACKETS`` local maxima of the scan that could hide a peak above
    every other candidate, ``_brackets``; none where a limit is the
    supremum), in ln(t - s) under every operator, s the start of the
    bracket's piece.  Each value comes from the error function bound once
    (``_error``): the catalog's defect form, or the operator, a closed form
    or within 1e-11 absolute or relative, less f'; or it is refused.
    ``n_eval_points`` counts each point scored once: the scan, 127 per
    bracket and round and the refinement's last point where it is a new
    one, 1 for a+ and 2 per breakpoint.  It is ``inf``, with one
    evaluation and no scan, where f'(a+) is infinite, and for the
    Riemann-Liouville operator with f(a) != 0: the boundary term f(a)(t-a)^(beta-1)/Gamma(beta) is
    unbounded as t -> a+, and no catalog function has an f' that cancels
    it.  n_grid is an integer of at least 2 (or DomainError, also where no
    scan is made).
    """
    order = FractionalOrder.from_beta(beta)
    operators._check_grid_size(n_grid, 2, "n_grid")
    a, b = interval.a, interval.b
    # as t -> a+ each operator here (RL as C where f(a) = 0) tends to 0, or
    # grows more slowly than an unbounded f', so the boundary limit of the
    # error is |f'(a+)|, which the scan approaches only at rate (t-a)^beta
    at_a = abs(float(_derivative_toward(f, np.array([a]), math.inf)[0]))
    if at_a == math.inf or (kind is OperatorKind.RIEMANN_LIOUVILLE and f.value(a) != 0.0):
        return ErrorReport(kind, beta, NormKind.LINF, interval, math.inf, 1)
    error = _error(kind, f, order, a, b)
    kinks = _breakpoints_inside(f, a, b)
    ts = _scan_points(kind, order, a, b, n_grid, kinks)
    values = np.abs(error(ts))
    left = right = []
    if kinks:
        # the operator is continuous at a breakpoint and f' jumps there, so
        # the error has two one-sided limits, which a scan point can only
        # approach by chance
        sides = np.array([-math.inf] * len(kinks) + [math.inf] * len(kinks))
        left, right = np.abs(error(np.array(kinks * 2), sides)).reshape(2, -1).tolist()
    value = max(float(values[values.argmax()]), at_a, *left, *right)
    brackets = _brackets(ts, values, a, at_a, list(zip(kinks, left, right)), value)
    scored = 0
    if brackets:
        # the layer right of a piece's start s can span decades: each
        # bracket is zoomed in ln(t - s)
        ends = [a, *kinks]
        starts = [ends[bisect.bisect_right(kinks, lo)] for lo, *_ in brackets]
        refined, scored = _zoom_max(lambda pts: np.abs(error(pts)), brackets, starts)
        value = max(value, refined)
    count = ts.size + scored + 1 + 2 * len(kinks)
    return ErrorReport(kind, beta, NormKind.LINF, interval, value, count)


def error_sweep(
    f: TestFunction,
    kind: OperatorKind,
    p: NormKind,
    betas: list[float],
    interval: Interval,
    *,
    tol: float = DEFAULT_TOL,
) -> list[ErrorReport]:
    """One ErrorReport per beta, computed independently, in input order;
    tol serves the L1 norm (``error_l1``), and the sup norm
    (``error_linf``) scans its default grid."""
    if not betas:
        raise DomainError("betas must be non-empty")
    if any(x <= y for x, y in zip(betas, betas[1:])):
        raise DomainError(f"betas must be strictly decreasing, got {betas!r}")

    def one(beta: float) -> ErrorReport:
        try:
            if p is NormKind.L1:
                return error_l1(f, kind, beta, interval, tol)
            return error_linf(f, kind, beta, interval)
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
