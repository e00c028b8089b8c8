"""Catalog of test functions with exact derivatives and closed fractional forms.

Every entry evaluates itself and its classical derivative exactly, and knows
its closed-form fractional derivatives under Caputo and Caputo-Fabrizio (and
so, through the boundary term, under Riemann-Liouville).  f and f' of each
entry are written once, in numpy (``_NumpyEntry``); a user-defined
``TestFunction`` writes scalars instead and loops over them.  At a
breakpoint, where ``derivative`` refuses, the one-sided limits of f' are
taken in one place, ``_derivative_toward``.

A closed form may stop short of some points: a power's CF form where
E_{1,g+1}(-rate u) leaves the reach that ``specfun`` marks (-rate u < -700
for a non-integer g, or where z^g of an integer g's closed form overflows
a double), and the Caputo series of cos past its reach
u = t - a = 10 + ln Gamma(beta).  There, and for entries without closed
forms, the closed form gives NaN (``closed_form_fractional`` ``None``), and
operators fall back to quadrature, which refuses an f' infinite at a: a
power with g < 1 under CF past the reach (on (0, 1), for beta below 1/701).

Each (entry, operator) pair has one closed form, written once: the binder
``TestFunction._closed_form(kind, order, a, b)``, which returns a function
of an array of points in (a, b] (NaN where a point has no closed form), or
``None``.  Everything that does not depend on the points is computed when
it binds, once: the Gamma ratios, the reach tests that the whole of (a, b]
passes, and a series' term count and coefficients at its farthest point
(or its reach), which fix every point's value whatever other points share
its call.  A
series is one power table (``specfun._power_sums``) times its
coefficients.  ``operators`` binds once per error functional or grid, and
``closed_form_fractional`` on [a, t], with the order as a
``FractionalOrder``: alpha and beta as given, and the CF rate alpha/beta,
from which every closed form reads its constants.  The Caputo-Fabrizio form
of a power, (1/beta) int_0^u g s^(g-1) e^(-rate (u-s)) ds, is written as
Gamma(g+1) u^g E_{1,g+1}(-rate u) / beta (Caputo & Fabrizio, Progr. Fract.
Differ. Appl. 1 (2015) 73), which has no cancellation as alpha -> 0.  The
Caputo form of e^t is e^a u^beta E_{1,1+beta}(u), from D^alpha e^(lambda t)
= lambda t^(1-alpha) E_{1,2-alpha}(lambda t) (Podlubny, *Fractional
Differential Equations*, 1999), written as e^t P(beta, u) (see
``Exponential``); those of cos are described in ``Cosine``.

Beside the closed form, an entry may write its defect form, the binder
``TestFunction._defect(kind, order, a, b)``: D f - f' on (a, b] as one
expression, which the error functionals of ``norms`` read instead of the
operator less f', a difference that keeps only eps |f'| where D f and f'
agree to many digits (as beta -> 0, or where e^t is large).  With
u = t - a:

- a power under C, g u^(g-1) expm1(beta ln u - Delta), Delta =
  ln Gamma(g+beta) - ln Gamma(g) from ``specfun._ln_gamma_shift``
  (``_caputo_defect``);
- a power with g >= 1 under CF, by parts,
  g u^(g-1) (beta - Gamma(g) E_{1,g}(-rate u)) / alpha;
- a piecewise-linear entry (affine, |t - c|, a step antiderivative), the
  sum over the jumps J of f' at c (f' at a included) of J d(t - c), with
  d(u) = expm1(beta ln u - ln Gamma(1+beta)) under C and
  (beta - e^(-rate u)) / alpha under CF (``_ramp_defect``), and on a piece
  where f' = 0, where that sum cancels, the closed form itself;
- e^t under CF, -e^a e^(-rate u).

Under CF the forms of powers and piecewise-linear entries stop at
beta = 1/2 (``_CF_DEFECT_MAX_BETA``): above it the closed form less f' is
the closer, as these forms cancel about 1/alpha of their rounding (at
beta 0.95 on (0, 2.82], relative to max(|D f - f'|, |f'|) against 50-digit
mpmath: 3.6e-16 against the 5.3e-15 of power:2.631's form, and 5.0e-16
against 1.5e-15 for an affine function).  e^t under CF, a single product,
keeps its form at every beta.  cos and e^t under C have none (theirs need
the upper incomplete Gamma), nor have user-defined functions.

The piecewise-linear entries declare only their breakpoints and f' on each
piece between them, and share one f', one closed form and one defect form,
sums of ramps (``_PiecewiseLinear``).
"""

import bisect
import contextlib
import enum
import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import specfun
from .exceptions import DomainError, NonDifferentiableError, NumericalError

__all__ = [
    "AbsShift",
    "Affine",
    "Cosine",
    "Exponential",
    "FractionalOrder",
    "Interval",
    "OperatorKind",
    "Power",
    "StepAntiderivative",
    "TestFunction",
    "closed_form_fractional",
    "parse_function",
    "rl_boundary_term",
]


class OperatorKind(enum.Enum):
    """Which fractional derivative an error or closed form refers to."""

    RIEMANN_LIOUVILLE = "RL"
    CAPUTO = "C"
    CAPUTO_FABRIZIO = "CF"


@dataclass(frozen=True)
class Interval:
    """A bounded open interval (a, b), whose width b - a is a finite double."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got {self!r}")
        if not 0.0 < self.b - self.a < math.inf:
            raise DomainError(f"interval requires a < b and a finite width b - a, got {self!r}")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True, init=False)
class FractionalOrder:
    """An order alpha strictly inside (0, 1), its complement beta, and the
    kernel constants.  It keeps the one it was given, alpha to the
    constructor, beta to :meth:`from_beta`; the other is 1 minus it, exact
    where the given one is at least 1/2 and within an ulp otherwise."""

    alpha: float
    beta: float

    def __init__(self, alpha: float) -> None:
        alpha = float(alpha)
        self._keep(alpha, 1.0 - alpha, alpha, "fractional order")

    @classmethod
    def from_beta(cls, beta: float) -> "FractionalOrder":
        beta = float(beta)
        order = cls.__new__(cls)
        order._keep(1.0 - beta, beta, beta, "beta")
        return order

    def _keep(self, alpha: float, beta: float, given: float, name: str) -> None:
        if not (0.0 < given < 1.0):
            raise DomainError(f"{name} must lie strictly in (0, 1), got {given!r}")
        vars(self).update(alpha=alpha, beta=beta)  # past the frozen __setattr__

    @property
    def rate(self) -> float:  # of the Caputo-Fabrizio kernel
        return self.alpha / self.beta


def _as_order(alpha) -> FractionalOrder:
    """The order of a float alpha or a FractionalOrder, as a FractionalOrder."""
    return alpha if isinstance(alpha, FractionalOrder) else FractionalOrder(alpha)


class TestFunction(ABC):
    """A catalog function: exact values, exact derivative, known closed forms."""

    @abstractmethod
    def value(self, t: float) -> float:
        """Pointwise value f(t)."""

    @abstractmethod
    def derivative(self, t: float) -> float:
        """Classical derivative f'(t); raises at breakpoints."""

    def breakpoints(self) -> tuple[float, ...]:
        """Points where f or f' has a kink or jump."""
        return ()

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self.value(float(t)) for t in ts])

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self.derivative(float(t)) for t in ts])

    def _closed_form(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        """The closed form for kind C or CF on (a, b], bound once: a function
        of an array of points in (a, b], NaN at a point it does not reach,
        or ``None`` if the entry has none."""
        return None

    def _defect(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        """D f - f' for kind C or CF on (a, b] as one expression, bound once:
        a function of an array ts of points in [a, b] and the side toward
        which f' is read on a breakpoint, as ``_derivative_toward`` reads
        it; NaN at a point it has no value, -f'(a+) at a, and no warning.
        ``None`` if the entry has none, and the error is the subtraction
        of f' from the operator."""
        return None


class _NumpyEntry(TestFunction):
    """A catalog entry, whose f and f' are ``value_array`` and
    ``derivative_array`` alone: its scalars are those at the one-point array
    [t], a whole numpy call each (2 to 16 us, by entry), so no per-operation
    path takes them point by point."""

    def value(self, t: float) -> float:
        return float(self.value_array(np.array([t], dtype=float))[0])

    def derivative(self, t: float) -> float:
        return float(self.derivative_array(np.array([t], dtype=float))[0])


def _breakpoints_inside(f: TestFunction, lo: float, hi: float) -> list[float]:
    """The breakpoints of f strictly inside (lo, hi), once each, ascending."""
    return sorted(x for x in set(f.breakpoints()) if lo < x < hi)


def _derivative_toward(f: TestFunction, ts: np.ndarray, side=-math.inf) -> np.ndarray:
    """f' at each point of ts, from one ``f.derivative_array`` call.  At a
    point on a breakpoint, where f' jumps, it is the one-sided limit toward
    side (a number, or one per point), taken at the next float towards it:
    the one place a one-sided limit of f' is taken."""
    for c in f.breakpoints():
        on_kink = ts == c
        if on_kink.any():
            ts = np.where(on_kink, np.nextafter(ts, side), ts)
    return f.derivative_array(ts)


def _zeros_pass(u: np.ndarray):
    """A context in which ln 0 = -inf and 0^-p = inf pass without a
    warning, where u holds a zero (u >= 0); elsewhere none, since
    ``np.errstate`` costs about 2.5 us a call."""
    return contextlib.nullcontext() if u.all() else np.errstate(divide="ignore")


def _caputo_defect(g: float, beta: float):
    """D f - f' of (tau - c)_+^g under C in u = t - c >= 0, -f'(c+) at 0:
    g u^(g-1) expm1(beta ln u - Delta), Delta = ln Gamma(g+beta) -
    ln Gamma(g) from ``specfun._ln_gamma_shift``, which subtracts no two
    numbers near f' as beta -> 0."""
    shift = specfun._ln_gamma_shift(g, beta)

    def caputo(u: np.ndarray) -> np.ndarray:
        with _zeros_pass(u):  # ln 0 = -inf, and 0^(g-1) = inf for g < 1
            d = np.log(u)
            d *= beta
            d -= shift
            np.expm1(d, out=d)
            if g != 1.0:
                d *= g * u ** (g - 1.0)
        return d

    return caputo


def _ramp_defect(kind: OperatorKind, order: FractionalOrder):
    """R(u) - 1 in u >= 0, -1 at 0, R the unit ramp's operator of ``_Ramp``:
    ``_caputo_defect`` of g = 1 under C, (beta - e^(-rate u)) / alpha under
    CF, neither a difference of two numbers near 1 as beta -> 0."""
    if kind is OperatorKind.CAPUTO:
        return _caputo_defect(1.0, order.beta)
    beta, rate, alpha = order.beta, order.rate, order.alpha
    return lambda u: (beta - np.exp(-rate * u)) / alpha


class _Ramp:
    """The C or CF operator R of the unit ramp (tau - c)_+ in u = t - c >= 0:
    u^beta / Gamma(1+beta) under C, -expm1(-rate u) / alpha under CF.  A
    piecewise-linear entry is a sum of such ramps, and so is a one-ulp gap
    between breakpoints, which ``operators`` refuses.  A slope is divided
    by Gamma(1+beta) or -alpha first, and so scales no rounding of the ramp
    (a subnormal slope under CF at alpha 1/16 was 7 subnormal ulps off)."""

    def __init__(self, kind: OperatorKind, order: FractionalOrder) -> None:
        self.caputo, self.beta, self.rate = kind is OperatorKind.CAPUTO, order.beta, order.rate
        self.divisor = specfun.gamma(1.0 + self.beta) if self.caputo else -order.alpha

    def plain(self, ts: np.ndarray, lo: float, slope: float) -> np.ndarray:
        """slope R(t - lo) at points t >= lo."""
        u, scale = ts - lo, slope / self.divisor
        return u**self.beta * scale if self.caputo else np.expm1(-self.rate * u) * scale

    def drop(self, ts: np.ndarray, lo: float, hi: float, slope: float) -> np.ndarray:
        """slope (R(t - lo) - R(t - hi)), lo and hi pinched to t.
        With x = t - lo, y = t - hi and w = hi - lo, it is
        -x^beta expm1(beta ln(y/x)) under C, ln(y/x) by log1p(-w/x) where
        y >= x/2, which loses no digits where w is small against x or beta
        is small, and e^(-rate y) expm1(-rate w) under CF.  y is t - hi
        itself: x - w carries the rounding of both (6e-15 in |t - 1.7|'s
        operator on (-1, 2))."""
        lo_t, hi_t = np.minimum(lo, ts), np.minimum(hi, ts)
        x, y, w = ts - lo_t, ts - hi_t, hi_t - lo_t
        if not self.caputo:
            return slope / self.divisor * np.exp(-self.rate * y) * np.expm1(-self.rate * w)
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(0) = -inf gives x^beta where y = 0
            ratio_log = np.where(2.0 * y < x, np.log(y / x), np.log1p(-w / x))
            drop = -(x**self.beta) * np.expm1(self.beta * ratio_log)
        return slope / self.divisor * np.where(w > 0.0, drop, 0.0)


def closed_form_fractional(
    f: TestFunction, kind: OperatorKind, alpha, a: float, t: float
) -> float | None:
    """Closed-form fractional derivative of ``f`` at ``t``, or ``None``.

    The value is ``f._closed_form`` bound on [a, t] and taken at the one
    point t, so it costs a bind and a numpy call; ``operators.evaluate_grid``
    serves many points of one operator with one of each.  The
    Riemann-Liouville form is assembled from the Caputo one via
    RL = rl_boundary_term + Caputo, so it exists exactly when the Caputo form
    does.
    """
    order = _as_order(alpha)
    if not t > a:
        raise DomainError(f"evaluation point must satisfy t > a, got t={t}, a={a}")
    rl = kind is OperatorKind.RIEMANN_LIOUVILLE
    closed = f._closed_form(OperatorKind.CAPUTO if rl else kind, order, a, t)
    value = math.nan if closed is None else float(closed(np.array([t]))[0])
    if math.isnan(value):
        return None
    return rl_boundary_term(f, order, a, t) + value if rl else value


def rl_boundary_term(
    f: TestFunction, alpha, a: float, t: float | np.ndarray
) -> float | np.ndarray:
    """f(a) (t-a)^(-alpha) / Gamma(beta): the Riemann-Liouville derivative
    minus the Caputo one, for f in W^{1,1}; elementwise for an array t.
    Every public function that takes RL forms it here and adds it to C.

    It is 0 where f(a) = 0, so that RL is C bit for bit however large
    (t-a)^(-alpha) grows, and it is refused with NumericalError where it,
    or f(a) (t-a)^(-alpha) before the division, exceeds a double."""
    order, f_a, u = _as_order(alpha), f.value(a), t - a
    if f_a == 0.0:
        return 0.0 * u
    with np.errstate(over="ignore"):
        try:
            term = f_a * u ** (-order.alpha) / specfun.gamma(order.beta)
        except OverflowError:  # a float's power raises where numpy's gives inf
            term = math.inf
    if not np.isfinite(term).all():
        raise NumericalError(f"f(a) (t-a)^(-alpha) / Gamma(beta) overflows a double as formed:"
                             f" f(a) = {f_a!r}, alpha = {order.alpha!r}, t - a = {np.min(u)}")
    return term


#: the Caputo series of cos is summed while e^u / Gamma(beta) stays below
#: e^_COS_C_LOSS_LOG: its terms peak near e^u u^(-alpha) / Gamma(beta) and
#: cancel to O(1), so rounding costs at most about 1e-11 absolute, and well
#: under 1e-12 as measured; farther points fall back to quadrature
_COS_C_LOSS_LOG = 10.0

#: u = t - a up to which the exponential's Caputo form sums P(beta, u);
#: past it, 1 - P < e^(-u) < 2^-53 for every beta, so P rounds to 1
_EXP_C_SERIES = 40.0

_EXP_MAX_T = math.log(np.finfo(float).max)  #: e^t overflows a double past it

#: the largest beta at which powers and piecewise-linear entries have a CF
#: defect form (the module docstring gives the measured reason)
_CF_DEFECT_MAX_BETA = 0.5


@dataclass(frozen=True)
class Power(_NumpyEntry):
    """f(t) = (t - origin)^gamma_exp with gamma_exp > 0.

    Its closed forms hold for a = origin.  Under C it is
    Gamma(g+1)/Gamma(g+beta) u^(g-beta), the Gamma ratio taken as
    g e^(-Delta) for every g, Delta = ln Gamma(g+beta) - ln Gamma(g) from
    ``specfun._ln_gamma_shift``, the shift of its defect form: within
    1.4e-15 relative of 40-digit mpmath for g up to 1e6 and beta from 1e-12
    to 0.9, where a quotient of ``math.gamma`` was 7e-14 off and, past
    Gamma(g+1)'s overflow at g = 170, a difference of log-Gammas 6e-11 at
    g = 25000.  Under CF it is the Mittag-Leffler form of the module
    docstring, refused past g = 170."""

    gamma_exp: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        if not (self.gamma_exp > 0 and math.isfinite(self.gamma_exp)):
            raise DomainError(f"power exponent must be positive, got {self.gamma_exp!r}")
        if not math.isfinite(self.origin):
            raise DomainError(f"power origin must be finite, got {self.origin!r}")

    def _is_integer_exp(self) -> bool:
        return self.gamma_exp == round(self.gamma_exp)

    def _offsets(self, ts: np.ndarray) -> np.ndarray:
        u = np.asarray(ts, dtype=float) - self.origin
        if not self._is_integer_exp() and np.any(u < 0):
            raise DomainError(f"(t - {self.origin})^{self.gamma_exp} undefined left of the origin")
        return u

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return self._offsets(ts) ** self.gamma_exp

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        g = self.gamma_exp
        if g < 1.0:  # the one case that divides by zero: f' = inf at the origin
            with np.errstate(divide="ignore"):
                return g * self._offsets(ts) ** (g - 1.0)
        return g * self._offsets(ts) ** (g - 1.0)

    def _closed_form(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        if a != self.origin:
            return None
        g, beta, rate = self.gamma_exp, order.beta, order.rate
        if kind is OperatorKind.CAPUTO:
            # Gamma(g+1) / Gamma(g+beta) = g e^(-Delta), the shift of _caputo_defect
            ratio = g * math.exp(-specfun._ln_gamma_shift(g, beta))
            exponent = g - order.alpha
            return lambda ts: ratio * (ts - a) ** exponent
        scale = specfun.gamma(g + 1.0)
        # NaN where z = -rate u is past the reach of E_{1,g+1}
        ml = specfun._mittag_leffler_one_bound(g + 1.0, -rate * (b - a), 0.0)
        return lambda ts: scale * (ts - a) ** g * ml(-rate * (ts - a)) / beta

    def _defect(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        """Under C, ``_caputo_defect`` for every g.  Under CF, for g >= 1
        with Gamma(g) finite and beta up to ``_CF_DEFECT_MAX_BETA``, by parts,
        (g u^(g-1) / alpha) (beta - Gamma(g) E_{1,g}(-rate u)), E_{1,g} bound
        on [-rate (b - a), 0]: NaN past its reach."""
        if a != self.origin:
            return None
        g, beta = self.gamma_exp, order.beta
        if kind is OperatorKind.CAPUTO:
            caputo = _caputo_defect(g, beta)
            return lambda ts, side: caputo(ts - a)
        if g < 1.0 or beta > _CF_DEFECT_MAX_BETA:
            return None
        try:
            gamma_g = specfun.gamma(g)
        except NumericalError:
            return None
        alpha, rate = order.alpha, order.rate
        ml = specfun._mittag_leffler_one_bound(g, -rate * (b - a), 0.0)

        def caputo_fabrizio(ts: np.ndarray, side) -> np.ndarray:
            u = ts - a
            return g * u ** (g - 1.0) * (beta - gamma_g * ml(-rate * u)) / alpha

        return caputo_fabrizio


class _PiecewiseLinear(_NumpyEntry):
    """A catalog entry whose f' is constant between its breakpoints: it
    declares ``_slopes()``, and its f', closed forms and defect forms are
    sums of ramps (``_Ramp``), written here once.  With f' = s on a piece
    [lo, hi] cut to [a, b], D f is the sum over the pieces of
    s (R(t - lo) - R(t - hi)), a ``_Ramp.drop`` each, but the plain
    s R(t - a) for a piece from a that runs past b."""

    @abstractmethod
    def _slopes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The breakpoints c_1 < ... < c_k, and f' on each of the k + 1
        pieces (-inf, c_1), ..., (c_k, inf)."""

    def breakpoints(self) -> tuple[float, ...]:
        return self._slopes()[0]

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        cuts, slopes = self._slopes()
        ts = np.asarray(ts, dtype=float)
        if not cuts:
            return np.full(ts.shape, slopes[0])
        cuts = np.array(cuts)
        piece = cuts.searchsorted(ts)  # each point's piece, the one left of a cut that it is on
        on_cut = cuts.take(piece, mode="clip") == ts
        if on_cut.any():
            raise NonDifferentiableError(f"{self!r} has no derivative at {ts[on_cut][0]}")
        return np.array(slopes).take(piece)

    def _closed_form(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        ramp, (cuts, slopes) = _Ramp(kind, order), self._slopes()
        ends = (-math.inf, *cuts, math.inf)
        # the pieces of nonzero slope that meet (a, b], each from max(lo, a)
        pieces = [(max(lo, a), hi, s) for lo, hi, s in zip(ends, ends[1:], slopes)
                  if s != 0.0 and a < hi and lo < b]

        def values(ts: np.ndarray) -> np.ndarray:
            terms = [ramp.drop(ts, lo, hi, s) if lo > a or hi < b else ramp.plain(ts, lo, s)
                     for lo, hi, s in pieces]
            return sum(terms[1:], terms[0]) if terms else np.zeros(ts.shape)

        return values

    def _defect(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        """The ramps' defects, sum_i J_i d(t - c_i) over the jumps J_i of f'
        at the c_i in (a, b], with J_0 = f'(a+) at c_0 = a, each right of
        its c_i (on it, toward a side right of it), d from ``_ramp_defect``.
        On a piece where f' = 0 that sum cancels, and D f - f' is the
        closed form.  None under CF above ``_CF_DEFECT_MAX_BETA``."""
        if kind is OperatorKind.CAPUTO_FABRIZIO and order.beta > _CF_DEFECT_MAX_BETA:
            return None
        cuts, slopes = self._slopes()
        first = bisect.bisect_right(cuts, a)  # the pieces from a on
        cuts, slopes = cuts[first:], slopes[first:]
        jumps = [(c, s - r) for c, r, s in zip(cuts, slopes, slopes[1:]) if s != r and c < b]
        defect = _ramp_defect(kind, order)
        closed = self._closed_form(kind, order, a, b) if 0.0 in slopes else None

        def values(ts: np.ndarray, side) -> np.ndarray:
            out = defect(ts - a)
            out *= slopes[0]
            for c, jump in jumps:
                right = (ts > c) | ((ts == c) & (np.asarray(side) > c))
                if right.any():
                    out[right] += jump * defect(ts[right] - c)
            if closed is not None:
                # each point's piece, right of a cut that it is on where side is
                left, right = np.searchsorted(cuts, ts), np.searchsorted(cuts, ts, "right")
                flat = np.take(slopes, np.where(np.asarray(side) > ts, right, left)) == 0.0
                out[flat] = closed(ts[flat])
            return out

        return values


@dataclass(frozen=True)
class Affine(_PiecewiseLinear):
    """f(t) = slope * t + intercept."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise DomainError(f"affine coefficients must be finite, got {self!r}")

    def _slopes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (), (self.slope,)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(ts, dtype=float) + self.intercept


@dataclass(frozen=True)
class Exponential(_NumpyEntry):
    """f(t) = e^t.

    Caputo: e^t P(beta, u), u = t - a, where P(beta, u) =
    u^beta e^(-u) E_{1,1+beta}(u) is the regularized lower incomplete Gamma,
    its series of positive terms summed up to u = 40 with its terms fixed at
    min(b - a, 40) (108 terms at 40).  Past u = 40, 1 - P = Q(beta, u) <
    u^(beta-1) e^(-u) / Gamma(beta) < e^(-u) < 2^-53 for every beta in
    (0, 1), so P rounds to 1 and the value is e^t: the form has no reach.
    Caputo-Fabrizio: e^t - e^a e^(-rate u)
    = -e^t expm1(-u) - e^a expm1(-rate u), rate = alpha/beta.  Both scale
    e^t, not e^a or e^u, which leave the double range where e^t does not.
    Past t = ln(DBL_MAX) = 709.78, where e^t overflows, f, f' and both forms
    are refused with NumericalError.
    """

    @staticmethod
    def _checked(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if (ts > _EXP_MAX_T).any():
            raise NumericalError(f"e^t overflows a double past t = {_EXP_MAX_T!r}")
        return ts

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.exp(self._checked(ts))

    derivative_array = value_array

    def _closed_form(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        beta, rate = order.beta, order.rate
        # the overflow test of e^t, made once where all of (a, b] passes it
        exp = np.exp if b <= _EXP_MAX_T else self.value_array
        if kind is OperatorKind.CAPUTO:
            ml = specfun._mittag_leffler_one_bound(1.0 + beta, 0.0, min(b - a, _EXP_C_SERIES))

            def caputo(ts: np.ndarray) -> np.ndarray:
                u = np.minimum(ts - a, _EXP_C_SERIES)
                p = u**beta * (np.exp(-u) * ml(u))
                return exp(ts) * np.where(u < _EXP_C_SERIES, p, 1.0)

            return caputo
        # past _EXP_MAX_T every point is refused by value_array before e^a is read
        e_a = math.exp(min(a, _EXP_MAX_T))

        def caputo_fabrizio(ts: np.ndarray) -> np.ndarray:
            u = ts - a
            return -exp(ts) * np.expm1(-u) - e_a * np.expm1(-rate * u)

        return caputo_fabrizio

    def _defect(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        """Under CF, -e^a e^(-rate u), where all of (a, b] is below
        ln(DBL_MAX); past it the subtraction refuses as the operator does."""
        if kind is not OperatorKind.CAPUTO_FABRIZIO or b > _EXP_MAX_T:
            return None
        e_a, rate = math.exp(a), order.rate
        return lambda ts, side: -e_a * np.exp(-rate * (ts - a))


@dataclass(frozen=True)
class Cosine(_NumpyEntry):
    """f(t) = cos t.

    Caputo-Fabrizio, elementary: with u = t - a and rate = alpha/beta,
    -(1/beta) int_0^u sin(t-v) e^(-rate v) dv
    = -(u/beta) Im[e^(it) phi1(-(rate+i) u)], phi1(z) = (e^z - 1)/z,
    which is -((rate sin t - cos t) - e^(-rate u)(rate sin a - cos a)) /
    (beta (rate^2+1)) without its cancellation as u or rate -> 0.

    Caputo, Re[i e^(ia) u^beta E_{1,1+beta}(iu)], as the real series of
    ``_cos_caputo``: its even and odd halves as one power table in -u^2,
    with the terms that min(b - a, reach) needs.  Its terms grow to about
    e^u u^(-alpha) / Gamma(beta) and cancel to O(1), so it is summed only
    up to the reach u = 10 + ln Gamma(beta)
    (10.03 at alpha 0.05, 19.2 at 1 - 1e-4), where rounding leaves at most
    about 1e-11 absolute, and under 1e-12 as measured against a 50-digit
    sum; farther points fall back to quadrature.
    """

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.cos(np.asarray(ts, dtype=float))

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        return -np.sin(np.asarray(ts, dtype=float))

    def _closed_form(self, kind: OperatorKind, order: FractionalOrder, a: float, b: float):
        beta = order.beta
        if kind is OperatorKind.CAPUTO:
            reach = _cos_c_reach(order)
            series = _cos_caputo(order, min(b - a, reach))
            if b - a <= reach:
                return lambda ts: series(ts, ts - a)

            def caputo(ts: np.ndarray) -> np.ndarray:
                u = ts - a
                known = u <= reach
                out = np.full(u.shape, math.nan)
                out[known] = series(ts[known], u[known])
                return out

            return caputo
        rate = -order.rate - 1j

        def caputo_fabrizio(ts: np.ndarray) -> np.ndarray:
            u = ts - a
            e = _phi1_array(rate * u)
            return -u / beta * (np.sin(ts) * e.real + np.cos(ts) * e.imag)

        return caputo_fabrizio


@dataclass(frozen=True)
class AbsShift(_PiecewiseLinear):
    """f(t) = |t - center|."""

    center: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise DomainError(f"center must be finite, got {self.center!r}")

    def _slopes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (self.center,), (-1.0, 1.0)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(ts, dtype=float) - self.center)


@dataclass(frozen=True)
class StepAntiderivative(_PiecewiseLinear):
    """Antiderivative of a step function: f(t) = int sum_i q_i chi_[a_i,b_i].

    ``breaks`` holds the disjoint, ordered subintervals [a_i, b_i] and
    ``heights`` the step values q_i.  The integrand vanishes left of the
    first subinterval, so f is 0 there and piecewise linear afterwards.
    """

    breaks: tuple[tuple[float, float], ...]
    heights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breaks", tuple(tuple(map(float, ab)) for ab in self.breaks))
        object.__setattr__(self, "heights", tuple(map(float, self.heights)))
        if len(self.breaks) != len(self.heights) or not self.breaks:
            raise DomainError("breaks and heights must be non-empty and equally long")
        prev_end = -math.inf
        for (lo, hi), q in zip(self.breaks, self.heights):
            if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(q)):
                raise DomainError("step data must be finite")
            if not lo < hi:
                raise DomainError(f"subinterval [{lo}, {hi}] is empty")
            if lo < prev_end:
                raise DomainError("subintervals must be ordered and non-overlapping")
            prev_end = hi

    def _slopes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        cuts = sorted({x for ab in self.breaks for x in ab})
        slopes = [0.0] * (len(cuts) + 1)
        for (_, hi), q in zip(self.breaks, self.heights):
            slopes[cuts.index(hi)] = q  # the piece that ends at hi
        return tuple(cuts), tuple(slopes)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        """The steps' contributions summed with compensation (TwoSum of each
        partial sum, the rounding errors added back last): steps of opposite
        sign cancel, and summed in order f would lose digits to them."""
        ts = np.asarray(ts, dtype=float)
        total = np.zeros(ts.shape)
        lost = np.zeros(ts.shape)
        for (lo, hi), q in zip(self.breaks, self.heights):
            term = q * np.maximum(np.minimum(ts, hi) - lo, 0.0)
            partial = total + term
            back = partial - total
            lost += (total - (partial - back)) + (term - back)
            total = partial
        return total + lost


def _cos_c_reach(order: FractionalOrder) -> float:
    """The largest u = t - a at which Cosine sums its Caputo series."""
    return _COS_C_LOSS_LOG + math.lgamma(order.beta)


def _cos_caputo(order: FractionalOrder, reach: float):
    """The Caputo derivative of cos, as a function of the arrays t and
    u = t - a, for u up to reach: -(1/Gamma(beta)) times
    int_0^u sin(t-v) v^(beta-1) dv, with sin(t-v) expanded at t, so

        -(u^beta/Gamma(beta)) sum_k d_k u^k / (k! (k+beta)),

    where d_k = (sin t, -cos t, -sin t, cos t) repeats with period 4.  This
    is Re[i e^(ia) u^beta E_{1,1+beta}(iu)] regrouped; against the series in
    u^n/Gamma(n+1+beta) about a, every term past the first carries the
    factor 1/Gamma(beta) -> 0 as beta -> 0, so its cancellation costs less
    there.  The terms and their coefficients c_k = s^k / (k! (k+beta)) are
    fixed here, at the reach (``specfun._scaled_coefficients``, s a power of
    2 at most the reach).  With r = u / s, the sum is sin t A - cos t r B:
    A and B, the even and the odd half, are polynomials in -r^2, summed as
    one power table (``specfun._power_sums``)."""
    beta = order.beta
    scale, coeffs = specfun._scaled_coefficients(
        1.0 / beta, beta - 1.0, beta, reach, "Caputo series of cos"
    )
    halves = np.zeros((2, (coeffs.size + 1) // 2))
    halves[0] = coeffs[0::2]
    halves[1, : coeffs.size // 2] = coeffs[1::2]
    gamma_beta = specfun.gamma(beta)

    def values(ts: np.ndarray, u: np.ndarray) -> np.ndarray:
        r = u / scale
        even, odd = specfun._power_sums(-r * r, halves)
        total = np.sin(ts) * even - np.cos(ts) * r * odd
        return -(u**beta) / gamma_beta * total

    return values


#: |z| below which phi1 is summed as its Taylor series; 20 terms reach 4e-19
_PHI1_SERIES = 1.0
_PHI1_TERMS = 20


def _phi1_array(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z elementwise for Re z <= 0, without cancellation: for
    |z| < 1 the Taylor series sum z^k/(k+1)!, its terms z^k/(k+1)! for
    k >= 1 taken at once as one running product over k and summed smallest
    first; else e^z - 1 by parts, (expm1(x) cos y - 2 sin^2(y/2)) +
    i e^x sin y, whose real terms share their sign while |y| < pi."""
    out = np.empty(z.shape, dtype=complex)
    near = np.abs(z) < _PHI1_SERIES
    terms = np.cumprod(z[near] / np.arange(2.0, _PHI1_TERMS + 1.0)[:, None], axis=0)
    out[near] = 1.0 + terms[::-1].sum(axis=0)
    zf = z[~near]
    x, y = zf.real, zf.imag
    real = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
    out[~near] = (real + 1j * (np.exp(x) * np.sin(y))) / zf
    return out


_AFFINE_RE = re.compile(r"^affine:([^,]+),([^,]+)$")


def parse_function(text: str) -> TestFunction:
    """Build a catalog entry from a string id.

    Supported forms: ``power:<gamma>[,<origin>]``, ``affine:<slope>,<intercept>``,
    ``exp``, ``cos``, ``abs:<center>``, ``step:a1,b1,q1;a2,b2,q2;...``.
    """
    text = text.strip()
    if text == "exp":
        return Exponential()
    if text == "cos":
        return Cosine()
    try:
        if text.startswith("power:"):
            parts = [float(x) for x in text[len("power:"):].split(",")]
            if len(parts) == 1:
                return Power(parts[0])
            if len(parts) == 2:
                return Power(parts[0], parts[1])
        elif text.startswith("abs:"):
            return AbsShift(float(text[len("abs:"):]))
        elif m := _AFFINE_RE.match(text):
            return Affine(float(m.group(1)), float(m.group(2)))
        elif text.startswith("step:"):
            breaks = []
            heights = []
            for piece in text[len("step:"):].split(";"):
                lo, hi, q = (float(x) for x in piece.split(","))
                breaks.append((lo, hi))
                heights.append(q)
            return StepAntiderivative(tuple(breaks), tuple(heights))
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"malformed function id {text!r}: {exc}") from exc
    raise DomainError(f"unknown function id {text!r}")
