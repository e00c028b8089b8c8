"""Catalog of test functions with exact derivatives and closed fractional forms.

Every entry evaluates itself and its classical derivative exactly, and knows
its closed-form fractional derivatives under Caputo and Caputo-Fabrizio (and
so, through the boundary term, under Riemann-Liouville).  A closed form may
stop short of some points: a power's CF form left of the trusted
Mittag-Leffler series, the Caputo series of cos past its reach
u = t - a = 10 + ln Gamma(1-alpha), and the exponential's Caputo form past
u = 700.  There, and for entries without closed forms,
``closed_form_fractional`` returns ``None`` and operators fall back to
quadrature.

Each (entry, operator) pair has one closed form, written once, as numpy
expressions over an array of points: the hook
``TestFunction._closed_form_grid``, with NaN where a point has no closed
form.  ``operators`` calls it on all the points it needs at once, and
``closed_form_fractional`` on the one-point array [t].  The Caputo-Fabrizio
form of a power,
(1/(1-alpha)) int_0^u g s^(g-1) e^(-rate (u-s)) ds, is written as
Gamma(g+1) u^g E_{1,g+1}(-rate u) / (1-alpha) (Caputo & Fabrizio, Progr.
Fract. Differ. Appl. 1 (2015) 73), which has no cancellation as alpha -> 0.
The Caputo form of e^t is e^a u^(1-alpha) E_{1,2-alpha}(u), from
D^alpha e^(lambda t) = lambda t^(1-alpha) E_{1,2-alpha}(lambda t) (Podlubny,
*Fractional Differential Equations*, 1999); those of cos are described in
``Cosine``.
"""

import enum
import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import specfun
from .exceptions import DomainError, NonDifferentiableError

__all__ = [
    "AbsShift",
    "Affine",
    "Cosine",
    "Exponential",
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
    """A bounded open interval (a, b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval endpoints must be finite, got {self!r}")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got {self!r}")

    @property
    def width(self) -> float:
        return self.b - self.a


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"fractional order must lie in (0, 1), got {alpha!r}")
    return alpha


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
        self, kind: OperatorKind, alpha: float, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        """The closed form for kind C or CF at every point of ts (all > a):
        NaN at a point it does not reach, ``None`` if the entry has none."""
        return None


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
    alpha = _check_order(getattr(alpha, "alpha", alpha))
    if not t > a:
        raise DomainError(f"evaluation point must satisfy t > a, got t={t}, a={a}")
    rl = kind is OperatorKind.RIEMANN_LIOUVILLE
    values = f._closed_form_grid(OperatorKind.CAPUTO if rl else kind, alpha, a, np.array([t]))
    if values is None or math.isnan(values[0]):
        return None
    if rl:
        return rl_boundary_term(f, alpha, a, t) + float(values[0])
    return float(values[0])


def rl_boundary_term(
    f: TestFunction, alpha: float, a: float, t: float | np.ndarray
) -> float | np.ndarray:
    """f(a) (t-a)^(-alpha) / Gamma(1-alpha): the Riemann-Liouville derivative
    minus the Caputo one, for f in W^{1,1}; elementwise for an array t."""
    return f.value(a) * (t - a) ** (-alpha) / specfun.gamma(1.0 - alpha)


def _cf_rate(alpha: float) -> float:
    return alpha / (1.0 - alpha)


#: non-integer exponents route E_{1,gamma+1} through the series, which loses
#: accuracy left of roughly -15; beyond that the caller falls back to quadrature
_ML_SERIES_TRUST = -15.0

#: the Caputo series of cos is summed while e^u / Gamma(1-alpha) stays below
#: e^_COS_C_LOSS_LOG: its terms peak near e^u u^(-alpha) / Gamma(1-alpha) and
#: cancel to O(1), so rounding costs at most about 1e-11 absolute, and well
#: under 1e-12 as measured; farther points fall back to quadrature
_COS_C_LOSS_LOG = 10.0

#: u = t - a up to which E_{1,2-alpha}(u) of the exponential's Caputo form is
#: summed; its terms overflow near u = 709
_EXP_C_REACH = 700.0


@dataclass(frozen=True)
class Power(TestFunction):
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

    def value(self, t: float) -> float:
        u = t - self.origin
        if u < 0 and not self._is_integer_exp():
            raise DomainError(
                f"(t - origin)^{self.gamma_exp} undefined for t={t} < origin={self.origin}"
            )
        return u**self.gamma_exp

    def derivative(self, t: float) -> float:
        u = t - self.origin
        g = self.gamma_exp
        if u < 0 and not self._is_integer_exp():
            raise DomainError(
                f"derivative of (t - origin)^{g} undefined for t={t} < origin={self.origin}"
            )
        if u == 0.0:
            if g > 1:
                return 0.0
            if g == 1:
                return 1.0
            return math.inf  # integrable singularity of t^(g-1), g < 1
        return g * u ** (g - 1.0)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        u = np.asarray(ts, dtype=float) - self.origin
        if not self._is_integer_exp() and np.any(u < 0):
            raise DomainError("power function evaluated left of its origin")
        return u**self.gamma_exp

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        u = np.asarray(ts, dtype=float) - self.origin
        if not self._is_integer_exp() and np.any(u < 0):
            raise DomainError("power derivative evaluated left of its origin")
        with np.errstate(divide="ignore"):
            return self.gamma_exp * u ** (self.gamma_exp - 1.0)

    def _closed_form_grid(
        self, kind: OperatorKind, alpha: float, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        if a != self.origin:
            return None
        g = self.gamma_exp
        u = ts - a
        if kind is OperatorKind.CAPUTO:
            return specfun.gamma(g + 1.0) / specfun.gamma(g - alpha + 1.0) * u ** (g - alpha)
        if kind is OperatorKind.CAPUTO_FABRIZIO:
            z = -_cf_rate(alpha) * u
            known = np.full(u.shape, True) if self._is_integer_exp() else z >= _ML_SERIES_TRUST
            ml = specfun.mittag_leffler_one_array(g + 1.0, z[known])
            out = np.full(u.shape, math.nan)
            out[known] = specfun.gamma(g + 1.0) * u[known] ** g * ml / (1.0 - alpha)
            return out
        return None


@dataclass(frozen=True)
class Affine(TestFunction):
    """f(t) = slope * t + intercept."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise DomainError(f"affine coefficients must be finite, got {self!r}")

    def value(self, t: float) -> float:
        return self.slope * t + self.intercept

    def derivative(self, t: float) -> float:
        return self.slope

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(ts, dtype=float) + self.intercept

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        return np.full(np.shape(ts), self.slope)

    def _closed_form_grid(
        self, kind: OperatorKind, alpha: float, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        u = ts - a
        if kind is OperatorKind.CAPUTO:
            return self.slope * u ** (1.0 - alpha) / specfun.gamma(2.0 - alpha)
        if kind is OperatorKind.CAPUTO_FABRIZIO:
            return -self.slope / alpha * np.expm1(-_cf_rate(alpha) * u)
        return None


@dataclass(frozen=True)
class Exponential(TestFunction):
    """f(t) = e^t.

    Caputo: e^a u^(1-alpha) E_{1,2-alpha}(u), u = t - a, a series of
    positive terms, summed up to u = 700 (farther, its terms overflow and the
    point falls back to quadrature).  Caputo-Fabrizio: e^t - e^a e^(-rate u),
    rate = alpha/(1-alpha), written with expm1.
    """

    def value(self, t: float) -> float:
        return math.exp(t)

    def derivative(self, t: float) -> float:
        return math.exp(t)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(ts, dtype=float))

    derivative_array = value_array

    def _closed_form_grid(
        self, kind: OperatorKind, alpha: float, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        u = ts - a
        if kind is OperatorKind.CAPUTO:
            known = u <= _EXP_C_REACH
            ml = specfun.mittag_leffler_one_array(2.0 - alpha, u[known])
            out = np.full(u.shape, math.nan)
            out[known] = math.exp(a) * u[known] ** (1.0 - alpha) * ml
            return out
        if kind is OperatorKind.CAPUTO_FABRIZIO:
            return math.exp(a) * (np.expm1(u) - np.expm1(-_cf_rate(alpha) * u))
        return None


@dataclass(frozen=True)
class Cosine(TestFunction):
    """f(t) = cos t.

    Caputo-Fabrizio, elementary: with u = t - a and rate = alpha/(1-alpha),
    -(1/(1-alpha)) int_0^u sin(t-v) e^(-rate v) dv
    = -(u/(1-alpha)) Im[e^(it) phi1(-(rate+i) u)], phi1(z) = (e^z - 1)/z,
    which is -((rate sin t - cos t) - e^(-rate u)(rate sin a - cos a)) /
    ((1-alpha)(rate^2+1)) without its cancellation as u or rate -> 0.

    Caputo, Re[i e^(ia) u^(1-alpha) E_{1,2-alpha}(iu)], as the real series
    of ``_cos_caputo_array``.  Its terms grow to about e^u u^(-alpha) /
    Gamma(1-alpha) and cancel to O(1), so it is summed only up to the reach
    u = 10 + ln Gamma(1-alpha) (10.03 at alpha 0.05, 19.2 at 1 - 1e-4), where
    rounding leaves at most about 1e-11 absolute, and under 1e-12 as
    measured; farther points fall back to quadrature.
    """

    def value(self, t: float) -> float:
        return math.cos(t)

    def derivative(self, t: float) -> float:
        return -math.sin(t)

    def value_array(self, ts: np.ndarray) -> np.ndarray:
        return np.cos(np.asarray(ts, dtype=float))

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        return -np.sin(np.asarray(ts, dtype=float))

    def _closed_form_grid(
        self, kind: OperatorKind, alpha: float, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        u = ts - a
        if kind is OperatorKind.CAPUTO:
            known = u <= _cos_c_reach(alpha)
            out = np.full(u.shape, math.nan)
            out[known] = _cos_caputo_array(alpha, ts[known], u[known])
            return out
        if kind is OperatorKind.CAPUTO_FABRIZIO:
            e = _phi1_array((-_cf_rate(alpha) - 1j) * u)
            return -u / (1.0 - alpha) * (np.sin(ts) * e.real + np.cos(ts) * e.imag)
        return None


@dataclass(frozen=True)
class AbsShift(TestFunction):
    """f(t) = |t - center|."""

    center: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise DomainError(f"center must be finite, got {self.center!r}")

    def value(self, t: float) -> float:
        return abs(t - self.center)

    def derivative(self, t: float) -> float:
        if t == self.center:
            raise NonDifferentiableError(f"|t - {self.center}| has no derivative at t={t}")
        return 1.0 if t > self.center else -1.0

    def breakpoints(self) -> tuple[float, ...]:
        return (self.center,)

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts == self.center):
            raise NonDifferentiableError(f"|t - {self.center}| has no derivative at its center")
        return np.where(ts > self.center, 1.0, -1.0)

    def _closed_form_grid(
        self, kind: OperatorKind, alpha: float, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        c = self.center
        past = np.maximum(ts - c, 0.0)  # t - c, clipped where the t <= c branch applies
        if kind is OperatorKind.CAPUTO:
            p = 1.0 - alpha
            unit = (ts - a) ** p / specfun.gamma(2.0 - alpha)
            if c <= a:
                return unit
            right = (2.0 * past**p - (ts - a) ** p) / specfun.gamma(2.0 - alpha)
            return np.where(ts <= c, -unit, right)
        if kind is OperatorKind.CAPUTO_FABRIZIO:
            rate = _cf_rate(alpha)
            unit = -np.expm1(-rate * (ts - a)) / alpha
            if c <= a:
                return unit
            right = (np.expm1(-rate * (ts - a)) - 2.0 * np.expm1(-rate * past)) / alpha
            return np.where(ts <= c, -unit, right)
        return None


@dataclass(frozen=True)
class StepAntiderivative(TestFunction):
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

    def value(self, t: float) -> float:
        total = 0.0
        for (lo, hi), q in zip(self.breaks, self.heights):
            overlap = min(t, hi) - lo
            if overlap > 0:
                total += q * overlap
        return total

    def derivative(self, t: float) -> float:
        for (lo, hi), q in zip(self.breaks, self.heights):
            if t == lo or t == hi:
                raise NonDifferentiableError(f"step function jumps at t={t}")
            if lo < t < hi:
                return q
        return 0.0

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted({x for ab in self.breaks for x in ab}))

    def derivative_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(np.isin(ts, self.breakpoints())):
            raise NonDifferentiableError("step function jumps at a point of the array")
        out = np.zeros(ts.shape)
        for (lo, hi), q in zip(self.breaks, self.heights):
            out[(lo < ts) & (ts < hi)] = q
        return out

    def _closed_form_grid(
        self, kind: OperatorKind, alpha: float, a: float, ts: np.ndarray
    ) -> np.ndarray | None:
        if kind not in (OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO):
            return None
        p, rate = 1.0 - alpha, _cf_rate(alpha)
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
        if kind is OperatorKind.CAPUTO:
            return total / specfun.gamma(2.0 - alpha)
        return total / alpha


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


def _cos_c_reach(alpha: float) -> float:
    """The largest u = t - a at which Cosine sums its Caputo series."""
    return _COS_C_LOSS_LOG + math.lgamma(1.0 - alpha)


def _cos_caputo_array(alpha: float, ts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Caputo derivative of cos at each t = a + u: -(1/Gamma(1-alpha)) times
    int_0^u sin(t-v) v^(-alpha) dv, with sin(t-v) expanded at t, so

        -(u^(1-alpha)/Gamma(1-alpha)) sum_k d_k u^k / (k! (k+1-alpha)),

    where d_k = (sin t, -cos t, -sin t, cos t) repeats with period 4 and u^k/k!
    is a running product.  This is Re[i e^(ia) u^(1-alpha) E_{1,2-alpha}(iu)]
    regrouped; against the series in u^n/Gamma(n+2-alpha) about a, every term
    past the first carries the factor 1/Gamma(1-alpha) -> 0 as alpha -> 1,
    so its cancellation costs less there.  The terms are summed with their
    exact rounding errors carried alongside (TwoSum, Knuth, TAOCP vol. 2,
    4.2.2), past the peak until at every point the next term is below 1e-18
    of the sum of |terms|, as specfun's Mittag-Leffler series are."""
    s, c = np.sin(ts), np.cos(ts)
    signs = (s, -c, -s, c)
    mag = np.ones(u.shape)
    total = np.zeros(u.shape)
    carry = np.zeros(u.shape)  # the rounding errors of total, summed
    abs_sum = np.zeros(u.shape)
    reach = float(np.max(u, initial=0.0))
    k = 0
    while True:
        term = signs[k % 4] * mag / (k + 1.0 - alpha)
        new = total + term
        back = new - total
        carry += (total - (new - back)) + (term - back)
        total = new
        abs_sum += np.abs(term)
        k += 1
        mag = mag * (u / k)
        if k > reach and (mag <= specfun._SERIES_TERM_TOL * abs_sum).all():
            return -(u ** (1.0 - alpha)) / specfun.gamma(1.0 - alpha) * (total + carry)


#: |z| below which phi1 is summed as its Taylor series; 20 terms reach 4e-19
_PHI1_SERIES = 1.0
_PHI1_TERMS = 20


def _phi1_array(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z elementwise for Re z <= 0, without cancellation: the
    Taylor series sum z^k/(k+1)! by Horner's rule for |z| < 1, else e^z - 1
    by parts, (expm1(x) cos y - 2 sin^2(y/2)) + i e^x sin y, whose real
    terms share their sign while |y| < pi."""
    out = np.empty(z.shape, dtype=complex)
    near = np.abs(z) < _PHI1_SERIES
    zn = z[near]
    acc = np.ones(zn.shape, dtype=complex)
    for k in range(_PHI1_TERMS, 1, -1):
        acc = 1.0 + zn * acc / k
    out[near] = acc
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
