"""Catalog of test functions with exact derivatives and closed fractional forms.

Every entry evaluates itself and its classical derivative exactly, and knows
its closed-form fractional derivatives under Caputo and Caputo-Fabrizio (and
so, through the boundary term, under Riemann-Liouville).  f and f' of each
entry are written once, in numpy (``_NumpyEntry``); a user-defined
``TestFunction`` writes scalars instead and loops over them.  At a
breakpoint, where ``derivative`` refuses, the one-sided limits of f' are
taken in one place, ``_derivative_toward``.

A closed form may stop short of some points: a power's CF form left of the
trusted Mittag-Leffler series, the Caputo series of cos past its reach
u = t - a = 10 + ln Gamma(beta), and the exponential's Caputo form past
u = 700.  There, and for entries without closed forms, the closed-form
hook ``TestFunction._closed_form_grid`` gives NaN (``closed_form_fractional``
``None``), and operators fall back to quadrature, which refuses an f'
infinite at a: a power with g < 1 under CF past the trusted series (on
(0, 1), for beta below 1/16).

Each (entry, operator) pair has one closed form, written once, as numpy
expressions over an array of points: the hook
``TestFunction._closed_form_grid``, with NaN where a point has no closed
form.  ``operators`` calls it on all the points it needs at once, and
``closed_form_fractional`` on the one-point array [t], with the order as a
``FractionalOrder``: alpha and beta as given, and the CF rate alpha/beta,
from which every closed form reads its constants.  The Caputo-Fabrizio form
of a power, (1/beta) int_0^u g s^(g-1) e^(-rate (u-s)) ds, is written as
Gamma(g+1) u^g E_{1,g+1}(-rate u) / beta (Caputo & Fabrizio, Progr. Fract.
Differ. Appl. 1 (2015) 73), which has no cancellation as alpha -> 0.  The
Caputo form of e^t is e^a u^beta E_{1,1+beta}(u), from D^alpha e^(lambda t)
= lambda t^(1-alpha) E_{1,2-alpha}(lambda t) (Podlubny, *Fractional
Differential Equations*, 1999); those of cos are described in ``Cosine``.
"""

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

    def _closed_form_grid(
        self, kind: OperatorKind, order: FractionalOrder, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        """The closed form for kind C or CF at every point of ts (all > a):
        NaN at a point it does not reach, ``None`` if the entry has none."""
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


def _step_response(
    kind: OperatorKind, order: FractionalOrder, u: np.ndarray, jump: float = 1.0
) -> np.ndarray:
    """The C or CF operator at u = t - c >= 0 of the ramp jump (tau - c)_+,
    whose f' is a step: jump u^beta / Gamma(1+beta) under C, -jump
    expm1(-rate u) / alpha under CF.  ``Affine``, ``AbsShift`` and the
    jumps of f' that ``operators`` adds back are such ramps."""
    if kind is OperatorKind.CAPUTO:
        return u**order.beta * (jump / specfun.gamma(1.0 + order.beta))
    return np.expm1(-order.rate * u) * (-jump / order.alpha)


def closed_form_fractional(
    f: TestFunction, kind: OperatorKind, alpha, a: float, t: float
) -> float | None:
    """Closed-form fractional derivative of ``f`` at ``t``, or ``None``.

    The value is ``f._closed_form_grid`` at the one point t, so it costs a
    whole numpy call (5 to 350 us, by entry); ``operators.evaluate_grid``
    serves many points of one operator in one.  The Riemann-Liouville form
    is assembled from the Caputo one via RL = rl_boundary_term + Caputo, so
    it exists exactly when the Caputo form does.
    """
    order = _as_order(alpha)
    if not t > a:
        raise DomainError(f"evaluation point must satisfy t > a, got t={t}, a={a}")
    rl = kind is OperatorKind.RIEMANN_LIOUVILLE
    values = f._closed_form_grid(OperatorKind.CAPUTO if rl else kind, order, a, np.array([t]))
    if values is None or math.isnan(values[0]):
        return None
    if rl:
        return rl_boundary_term(f, order, a, t) + float(values[0])
    return float(values[0])


def rl_boundary_term(
    f: TestFunction, alpha, a: float, t: float | np.ndarray
) -> float | np.ndarray:
    """f(a) (t-a)^(-alpha) / Gamma(beta): the Riemann-Liouville derivative
    minus the Caputo one, for f in W^{1,1}; elementwise for an array t."""
    order = _as_order(alpha)
    return f.value(a) * (t - a) ** (-order.alpha) / specfun.gamma(order.beta)


#: non-integer exponents route E_{1,gamma+1} through the series, which loses
#: accuracy left of roughly -15; beyond that the caller falls back to quadrature
_ML_SERIES_TRUST = -15.0

#: the Caputo series of cos is summed while e^u / Gamma(beta) stays below
#: e^_COS_C_LOSS_LOG: its terms peak near e^u u^(-alpha) / Gamma(beta) and
#: cancel to O(1), so rounding costs at most about 1e-11 absolute, and well
#: under 1e-12 as measured; farther points fall back to quadrature
_COS_C_LOSS_LOG = 10.0

#: u = t - a up to which E_{1,1+beta}(u) of the exponential's Caputo form is
#: summed; its terms overflow near u = 709
_EXP_C_REACH = 700.0

_EXP_MAX_T = math.log(np.finfo(float).max)  #: e^t overflows a double past it


@dataclass(frozen=True)
class Power(_NumpyEntry):
    """f(t) = (t - origin)^gamma_exp with gamma_exp > 0."""

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
        with np.errstate(divide="ignore"):  # f' = inf at the origin when gamma_exp < 1
            return self.gamma_exp * self._offsets(ts) ** (self.gamma_exp - 1.0)

    def _closed_form_grid(
        self, kind: OperatorKind, order: FractionalOrder, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        if a != self.origin:
            return None
        g = self.gamma_exp
        u = ts - a
        if kind is OperatorKind.CAPUTO:
            try:
                ratio = specfun.gamma(g + 1.0) / specfun.gamma(g + order.beta)
            except NumericalError:  # Gamma(g+1) overflows; the quotient need not
                ratio = math.exp(specfun.ln_gamma(g + 1.0) - specfun.ln_gamma(g + order.beta))
            return ratio * u ** (g - order.alpha)
        z = -order.rate * u
        if self._is_integer_exp():
            ml = specfun.mittag_leffler_one_array(g + 1.0, z)
            return specfun.gamma(g + 1.0) * u**g * ml / order.beta
        known = z >= _ML_SERIES_TRUST
        ml = specfun.mittag_leffler_one_array(g + 1.0, z[known])
        out = np.full(u.shape, math.nan)
        out[known] = specfun.gamma(g + 1.0) * u[known] ** g * ml / order.beta
        return out


@dataclass(frozen=True)
class Affine(_NumpyEntry):
    """f(t) = slope * t + intercept."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise DomainError(f"affine coefficients must be finite, got {self!r}")

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(ts, dtype=float) + self.intercept

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        return np.full(np.shape(ts), self.slope)

    def _closed_form_grid(
        self, kind: OperatorKind, order: FractionalOrder, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        return _step_response(kind, order, ts - a, self.slope)


@dataclass(frozen=True)
class Exponential(_NumpyEntry):
    """f(t) = e^t.

    Caputo: e^t u^beta (e^(-u) E_{1,1+beta}(u)), u = t - a, a series of
    positive terms summed up to u = 700 (farther, its terms overflow and the
    point falls back to quadrature).  Caputo-Fabrizio: e^t - e^a e^(-rate u)
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

    def _closed_form_grid(
        self, kind: OperatorKind, order: FractionalOrder, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        e_t = np.exp(self._checked(ts))
        u = ts - a
        if kind is OperatorKind.CAPUTO:
            known = u <= _EXP_C_REACH
            ml = np.exp(-u[known]) * specfun.mittag_leffler_one_array(1.0 + order.beta, u[known])
            out = np.full(u.shape, math.nan)
            out[known] = e_t[known] * u[known] ** order.beta * ml
            return out
        return -e_t * np.expm1(-u) - math.exp(a) * np.expm1(-order.rate * u)


@dataclass(frozen=True)
class Cosine(_NumpyEntry):
    """f(t) = cos t.

    Caputo-Fabrizio, elementary: with u = t - a and rate = alpha/beta,
    -(1/beta) int_0^u sin(t-v) e^(-rate v) dv
    = -(u/beta) Im[e^(it) phi1(-(rate+i) u)], phi1(z) = (e^z - 1)/z,
    which is -((rate sin t - cos t) - e^(-rate u)(rate sin a - cos a)) /
    (beta (rate^2+1)) without its cancellation as u or rate -> 0.

    Caputo, Re[i e^(ia) u^beta E_{1,1+beta}(iu)], as the real series of
    ``_cos_caputo_array``: its even and odd halves by Horner's rule in
    -u^2, with as many terms for every point as the farthest one needs.
    Its terms grow to about e^u u^(-alpha) / Gamma(beta) and cancel to
    O(1), so it is summed only up to the reach u = 10 + ln Gamma(beta)
    (10.03 at alpha 0.05, 19.2 at 1 - 1e-4), where rounding leaves at most
    about 1e-11 absolute, and under 1e-12 as measured against a 50-digit
    sum; farther points fall back to quadrature.
    """

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.cos(np.asarray(ts, dtype=float))

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        return -np.sin(np.asarray(ts, dtype=float))

    def _closed_form_grid(
        self, kind: OperatorKind, order: FractionalOrder, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        u = ts - a
        if kind is OperatorKind.CAPUTO:
            known = u <= _cos_c_reach(order)
            out = np.full(u.shape, math.nan)
            out[known] = _cos_caputo_array(order, ts[known], u[known])
            return out
        e = _phi1_array((-order.rate - 1j) * u)
        return -u / order.beta * (np.sin(ts) * e.real + np.cos(ts) * e.imag)


@dataclass(frozen=True)
class AbsShift(_NumpyEntry):
    """f(t) = |t - center|."""

    center: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise DomainError(f"center must be finite, got {self.center!r}")

    def breakpoints(self) -> tuple[float, ...]:
        return (self.center,)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(ts, dtype=float) - self.center)

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if (ts == self.center).any():
            raise NonDifferentiableError(f"|t - {self.center}| has no derivative at its center")
        return np.sign(ts - self.center)

    def _closed_form_grid(
        self, kind: OperatorKind, order: FractionalOrder, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        if self.center <= a:
            return _step_response(kind, order, ts - a)
        # f' = -1 left of the center and 1 right of it: twice the ramp from
        # the center (0 left of it) less the ramp from a
        ramp_at_center = _step_response(kind, order, np.maximum(ts - self.center, 0.0), 2.0)
        return ramp_at_center - _step_response(kind, order, ts - a)


@dataclass(frozen=True)
class StepAntiderivative(_NumpyEntry):
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

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted({x for ab in self.breaks for x in ab}))

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

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape)
        for (lo, hi), q in zip(self.breaks, self.heights):
            if ((ts == lo) | (ts == hi)).any():
                raise NonDifferentiableError("step function jumps at a point of the array")
            out[(lo < ts) & (ts < hi)] = q
        return out

    def _closed_form_grid(
        self, kind: OperatorKind, order: FractionalOrder, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        p, rate = order.beta, order.rate
        total = np.zeros(ts.shape)
        for (lo, hi), q in zip(self.breaks, self.heights):
            lo = max(lo, a)
            if hi <= lo:
                continue
            # the step's part [max(lo, a), min(hi, t)] of [a, t], pinched to
            # [t, t] (no contribution) where t <= lo
            lo_t = np.minimum(lo, ts)
            hi_t = np.minimum(hi, ts)
            if kind is OperatorKind.CAPUTO:
                total += q * _power_drop_array(ts - lo_t, hi_t - lo_t, p)
            else:
                # e^(-rate (t-hi)) - e^(-rate (t-lo)), exact in its digits
                total += -q * np.exp(-rate * (ts - hi_t)) * np.expm1(-rate * (hi_t - lo_t))
        return total / (specfun.gamma(1.0 + p) if kind is OperatorKind.CAPUTO else order.alpha)


def _power_drop_array(x: np.ndarray, width: np.ndarray, p: float) -> np.ndarray:
    """x^p - (x - width)^p elementwise, for 0 <= width <= x; 0 where width = 0.

    Written as -x^p expm1(p ln(y/x)), y = x - width, so that no digits are
    lost when the width is small against x or p is small; ln(y/x) is taken
    by log1p(-width/x) where y >= x/2, and directly where y/x is small.
    """
    y = x - width
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(0) = -inf gives x^p where y = 0
        ratio_log = np.where(2.0 * y < x, np.log(y / x), np.log1p(-width / x))
        drop = -(x**p) * np.expm1(p * ratio_log)
    return np.where(width > 0.0, drop, 0.0)


def _cos_c_reach(order: FractionalOrder) -> float:
    """The largest u = t - a at which Cosine sums its Caputo series."""
    return _COS_C_LOSS_LOG + math.lgamma(order.beta)


def _cos_caputo_array(order: FractionalOrder, ts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Caputo derivative of cos at each t = a + u: -(1/Gamma(beta)) times
    int_0^u sin(t-v) v^(beta-1) dv, with sin(t-v) expanded at t, so

        -(u^beta/Gamma(beta)) sum_k d_k u^k / (k! (k+beta)),

    where d_k = (sin t, -cos t, -sin t, cos t) repeats with period 4.  This
    is Re[i e^(ia) u^beta E_{1,1+beta}(iu)] regrouped; against the series in
    u^n/Gamma(n+1+beta) about a, every term past the first carries the
    factor 1/Gamma(beta) -> 0 as beta -> 0, so its cancellation costs less
    there.  The number of terms is set once, at the largest u, by the stop
    rule of specfun's Mittag-Leffler series: past the peak, until the next
    u^k/k! is below 1e-18 of the sum of the |terms| so far.  With r = u / U,
    U the largest u, and c_k = U^k / (k! (k+beta)), which neither overflows
    nor underflows within the reach, the sum is sin t A - cos t r B: A and B,
    the even and the odd half, are polynomials in -r^2 with the c_k as
    coefficients, evaluated by Horner's rule."""
    beta = order.beta
    scale = float(np.max(u, initial=0.0)) or 1.0
    coeffs, mag, abs_sum = [], 1.0, 0.0  # mag = U^k / k!
    while True:
        k = len(coeffs)
        coeffs.append(mag / (k + beta))
        abs_sum += coeffs[-1]
        mag *= scale / (k + 1)
        if k + 1 > scale and mag <= specfun._SERIES_TERM_TOL * abs_sum:
            break
    r = u / scale
    x = -r * r
    even = odd = 0.0
    for c in reversed(coeffs[0::2]):
        even = even * x + c
    for c in reversed(coeffs[1::2]):
        odd = odd * x + c
    total = np.sin(ts) * even - np.cos(ts) * r * odd
    return -(u**beta) / specfun.gamma(beta) * total


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
