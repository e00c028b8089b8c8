"""Special functions: Gamma, log-Gamma, Digamma and Mittag-Leffler.

``ln_gamma`` and ``gamma`` delegate to the C library routines exposed by
:mod:`math`, which deliver well over 13 significant digits on (0, 170] and
exact factorials at small integers.  ``digamma`` uses the classical Bernoulli
asymptotic expansion with a recurrence shift, and the one-parameter
Mittag-Leffler family E_{1,omega} switches between a truncated power series
and, for integer omega and z < min(-1, 3 - omega), a compensated finite
closed form, so that neither branch is evaluated where it cancels.  Every
function is scalar and pure :mod:`math`, except ``mittag_leffler_one_array``,
the numpy twin of ``mittag_leffler_one`` that the catalog's closed forms use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, NumericalError, SeriesConvergenceError

__all__ = [
    "MLParams",
    "digamma",
    "gamma",
    "ln_gamma",
    "mittag_leffler",
    "mittag_leffler_one",
    "mittag_leffler_one_array",
]

EULER_GAMMA = 0.5772156649015329

#: shift threshold for the digamma asymptotic expansion
_DIGAMMA_SHIFT = 6.0

#: series truncation: stop once a term falls below this fraction of the sum
_SERIES_TERM_TOL = 1e-18
_SERIES_MAX_TERMS = 100_000


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def gamma(x: float) -> float:
    """Gamma function for x > 0; exact at small integer arguments.  Past
    x = 171.6 it overflows a double, and is refused with NumericalError."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise NumericalError(f"gamma({x!r}) overflows a double") from None


def digamma(x: float) -> float:
    """Digamma (Psi) function for x > 0.

    Arguments below the asymptotic threshold are shifted up with
    Psi(x+1) = Psi(x) + 1/x; the tail uses the Bernoulli expansion through
    x**-16, giving absolute error below 1e-13 on (0, 200].
    """
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    # Psi(x) ~ ln x - 1/(2x) - sum_k B_{2k}/(2k) x^{-2k}
    tail = y * (
        1.0 / 12.0
        - y * (
            1.0 / 120.0
            - y * (
                1.0 / 252.0
                - y * (
                    1.0 / 240.0
                    - y * (
                        1.0 / 132.0
                        - y * (
                            691.0 / 32760.0
                            - y * (1.0 / 12.0 - y * (3617.0 / 8160.0))
                        )
                    )
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - tail


@dataclass(frozen=True)
class MLParams:
    """Parameters (rho, omega) of the Mittag-Leffler function E_{rho,omega}."""

    rho: float
    omega: float

    def __post_init__(self) -> None:
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise DomainError(f"rho must be a positive real, got {self.rho!r}")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise DomainError(f"omega must be a positive real, got {self.omega!r}")


def _is_integer(x: float) -> bool:
    return x == round(x)


def _closed_form_below(omega: float) -> float:
    """The z left of which E_{1,omega} takes the finite closed form:
    min(-1, 3 - omega) for integer omega, none for any other."""
    return min(-1.0, 3.0 - omega) if _is_integer(omega) else -math.inf


def _series(rho: float, omega: float, z: float) -> float:
    """Plain truncated power series sum_k z^k / Gamma(rho*k + omega).

    Terms are accumulated exactly with ``math.fsum``.  For rho = 1 the terms
    are built by a stable running product; cancellation still limits the
    attainable accuracy for z far below -1 (the integer-omega closed form is
    used there instead).
    """
    if z == 0.0:
        return 1.0 / gamma(omega)
    terms = [1.0 / gamma(omega)]
    running = terms[0]
    log_abs_z = math.log(abs(z))
    k = 0
    while True:
        k += 1
        if k > _SERIES_MAX_TERMS:
            raise SeriesConvergenceError(
                f"Mittag-Leffler series did not converge within "
                f"{_SERIES_MAX_TERMS} terms (rho={rho}, omega={omega}, z={z})"
            )
        if rho == 1.0:
            term = terms[-1] * z / (k - 1.0 + omega)
        else:
            mag = math.exp(k * log_abs_z - math.lgamma(rho * k + omega))
            term = mag if z > 0 or k % 2 == 0 else -mag
        terms.append(term)
        running += term
        # stop only past the term peak, where the ratio has dropped below 1
        if abs(term) <= _SERIES_TERM_TOL * abs(running) and rho * k + omega > abs(z):
            break
    return math.fsum(terms)


def _closed_form_integer(m: int, z: float) -> float:
    """E_{1,m+1}(z) = z^-m (e^z - sum_{k<m} z^k/k!) via compensated summation;
    NumericalError where a term or z^m overflows a double."""
    if m == 0:
        return math.exp(z)
    terms = [math.exp(z)]
    try:
        terms.extend(-(z**k) / math.factorial(k) for k in range(m))
        return math.fsum(terms) / z**m
    except OverflowError:
        raise NumericalError(f"E_1,{m + 1}({z!r}) overflows a double in its closed form") from None


def mittag_leffler_one(omega: float, z: float) -> float:
    """One-parameter-family Mittag-Leffler value E_{1,omega}(z).

    For integer omega and z < min(-1, 3 - omega) the finite closed form is
    used: the power series cancels there, while the e^z partial sum the
    closed form subtracts cancels only right of 3 - omega, where its terms
    z^k/k! outgrow the remainder.  Elsewhere the series is summed until terms
    drop below 1e-18 of the running total.  For integer omega 1..16 the
    relative error on [-(3 omega + 2), 0] is below 1e-15; for non-integer
    omega the series keeps 1e-10 only down to z of roughly -15 and degrades
    further left, which callers must guard against.
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise DomainError(f"omega must be a positive real, got {omega!r}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if z < _closed_form_below(omega):
        return _closed_form_integer(int(round(omega)) - 1, z)
    return _series(1.0, omega, z)


def _series_array(omega: float, z: np.ndarray) -> np.ndarray:
    """``_series`` for rho = 1 at every z at once, with as many terms for
    every point as the farthest one needs: the scalar stopping rule, run
    once on the term magnitudes at the largest |z| and against the sum of
    those magnitudes (no term of a nearer point is larger), fixes the
    count, and the same running product is then summed in order without a
    check."""
    if not z.size:
        return np.empty(z.shape)
    reach = float(np.max(np.abs(z)))
    mag = 1.0 / gamma(omega)
    abs_sum, k = mag, 0
    while True:
        k += 1
        if k > _SERIES_MAX_TERMS:
            raise SeriesConvergenceError(
                f"Mittag-Leffler series did not converge within "
                f"{_SERIES_MAX_TERMS} terms (omega={omega}, max |z| = {reach})"
            )
        mag *= reach / (k - 1.0 + omega)
        abs_sum += mag
        if k + omega > reach and mag <= _SERIES_TERM_TOL * abs_sum:
            break
    term = np.full(z.shape, 1.0 / gamma(omega))
    total = term.copy()
    for j in range(k):
        term = term * z / (j + omega)
        total += term
    return total


def _closed_form_integer_array(m: int, z: np.ndarray) -> np.ndarray:
    """``_closed_form_integer`` at every z at once, summed in order."""
    total = np.exp(z)
    term = np.ones_like(z)
    for k in range(m):
        total -= term
        term = term * z / (k + 1.0)
    return total / z**m


def mittag_leffler_one_array(omega: float, z: np.ndarray) -> np.ndarray:
    """E_{1,omega}(z) at every point of the array z.

    The branches are those of ``mittag_leffler_one``: the finite closed form
    for integer omega and z < min(-1, 3 - omega), the series everywhere else.
    Both are summed in order rather than compensated, so values agree with
    the scalar function to rounding of the largest term, and the series
    branch carries the same restriction to z above roughly -15 for
    non-integer omega.
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise DomainError(f"omega must be a positive real, got {omega!r}")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    closed = z < _closed_form_below(omega)
    out = np.empty(z.shape)
    out[closed] = _closed_form_integer_array(int(round(omega)) - 1, z[closed])
    out[~closed] = _series_array(omega, z[~closed])
    return out


def mittag_leffler(params: MLParams, z: float) -> float:
    """General E_{rho,omega}(z) by plain truncated series."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if params.rho == 1.0:
        return mittag_leffler_one(params.omega, z)
    return _series(params.rho, params.omega, z)
