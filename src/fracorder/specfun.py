"""Special functions: Gamma, log-Gamma, Digamma and Mittag-Leffler.

``ln_gamma`` and ``gamma`` delegate to the C library routines exposed by
:mod:`math`, which deliver well over 13 significant digits on (0, 170] and
exact factorials at small integers.  ``digamma`` uses the classical Bernoulli
asymptotic expansion with a recurrence shift, and the one-parameter
Mittag-Leffler family E_{1,omega} switches between a truncated power series
and, for integer omega and z < min(-1, 3 - omega), a compensated finite
closed form, so that neither branch is evaluated where it cancels.
``_mittag_leffler_one_pair`` gives E_{1,m} and E_{1,m-1} at one z on those
same branches, for the Newton steps of ``analysis.t_star``: where both take
the closed form, they share one term list.  Every function is scalar and
pure :mod:`math`, except ``mittag_leffler_one_array``,
the numpy twin of ``mittag_leffler_one``, and the binder behind it and the
catalog's closed forms, ``_mittag_leffler_one_bound``: it fixes each series'
terms and coefficients once for a range of z, and sums a series at an array
of points as one power table times its coefficients (``_power_sums``), the
series of z < 0 in Kummer's form, whose terms do not cancel.
"""

import math
from dataclasses import dataclass
from functools import partial

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


def _closed_form_terms(m: int, z: float) -> list[float]:
    """[e^z, -z^k/k! for k < m]: the terms of the closed form of E_{1,m+1}(z),
    whose first j + 1 are those of E_{1,j+1}(z).  NumericalError where a
    term overflows a double."""
    try:
        return [math.exp(z), *[-(z**k) / math.factorial(k) for k in range(m)]]
    except OverflowError:
        raise NumericalError(f"E_1,{m + 1}({z!r}) overflows a double in its closed form") from None


def _closed_form_sum(terms: list[float], z: float) -> float:
    """E_{1,m+1}(z) = z^-m fsum(terms) from the m + 1 terms of
    ``_closed_form_terms``: compensated summation, then one division;
    NumericalError where z^m overflows a double."""
    m = len(terms) - 1
    try:
        return math.fsum(terms) / z**m
    except OverflowError:
        raise NumericalError(f"E_1,{m + 1}({z!r}) overflows a double in its closed form") from None


def _closed_form_integer(m: int, z: float) -> float:
    """E_{1,m+1}(z) = z^-m (e^z - sum_{k<m} z^k/k!) via compensated summation;
    NumericalError where a term or z^m overflows a double."""
    return _closed_form_sum(_closed_form_terms(m, z), z)


def _mittag_leffler_one_pair(m: int, z: float) -> tuple[float, float]:
    """(E_{1,m}(z), E_{1,m-1}(z)) for an integer m >= 2 and a finite z, each
    as ``mittag_leffler_one`` gives it, unchecked.  Left of min(-1, 3 - m),
    where both take the closed form, they share one term list: E_{1,m-1}'s
    is E_{1,m}'s without its last term (e^z alone at m = 2).  Elsewhere each
    takes its own branch: the series for E_{1,m}, and the closed form for
    E_{1,m-1} left of min(-1, 4 - m), the series right of it."""
    if z < min(-1.0, 3.0 - m):
        terms = _closed_form_terms(m - 1, z)
        return _closed_form_sum(terms, z), _closed_form_sum(terms[:-1], z)
    upper = _series(1.0, float(m), z)
    if z < min(-1.0, 4.0 - m):
        return upper, _closed_form_integer(m - 2, z)
    return upper, _series(1.0, m - 1.0, z)


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


#: the most entries of one power table of ``_power_sums``: points are taken
#: in blocks of at most this many entries, so memory stays O(points)
_TABLE_ENTRIES = 2**16
#: rows of the power table built by doubling, x^0 .. x^31; the powers past
#: them are taken as that table times x^j, x^j from ``np.power``, so that the
#: rounding of x^2, which doubling passes on to every higher power, reaches
#: at most x^31 (a whole table by doubling loses about |z| eps where the
#: terms peak at k ~ |z|: 3e-14 relative for E_{1,1+beta}(700))
_TABLE_BLOCK = 32


def _power_sums(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[i, k] x^k for each row i of the (m, K) coefficients and
    each point of the 1-D x, as an (m, x.size) array.

    The powers x^0 .. x^31 are one table, built by doubling (Estrin, Proc.
    Western Joint Computer Conf. 1960: x^(n+j) = x^j x^n, so a table of n
    rows doubles in one array product), and the powers past them are that
    table times x^32, x^64, ...: each block of 32 powers times its
    coefficients is one ``np.einsum``, highest block first.  The table holds
    the highest power first, and einsum sums its rows one after the other,
    elementwise, so each point's terms are summed in a fixed order, from the
    last to the first (smallest first for a series past its peak), and
    apart from every other point: a point's value does not depend on the
    points beside it.  (A lone point is summed beside a copy of itself,
    since numpy sums a single column in another order.)"""
    n = coeffs.shape[1]
    first = min(n, _TABLE_BLOCK)
    rows = _TABLE_ENTRIES // first
    if x.size > rows:
        blocks = [_power_sums(x[at : at + rows], coeffs) for at in range(0, x.size, rows)]
        return np.concatenate(blocks, axis=1)
    if x.size == 1:
        return _power_sums(np.repeat(x, 2), coeffs)[:, :1]
    # row first - 1 - k holds x^k
    table = np.empty((first, x.size))
    table[-1] = 1.0
    if first > 1:
        table[-2] = x
    m = 2
    while m < first:
        w = min(m, first - m)
        np.multiply(table[first - w :], table[first - m] * x, out=table[first - m - w : first - m])
        m += w
    reversed_coeffs = coeffs[:, ::-1]
    lowest = np.einsum("mk,kn->mn", reversed_coeffs[:, n - first :], table)
    if n == first:
        return lowest
    starts = np.arange(first, n, first, dtype=float)[::-1]
    total = 0.0
    for j, base in zip(starts.astype(int).tolist(), np.power(x, starts[:, None])):
        w = min(first, n - j)
        total = total + np.einsum(
            "mk,kn->mn", reversed_coeffs[:, n - j - w : n - j], table[first - w :] * base
        )
    return total + lowest


def _scaled_coefficients(
    first: float, p: float, r: float, reach: float, what: str
) -> tuple[float, np.ndarray]:
    """(s, c): the coefficients c_k = a_k s^k of the power series
    sum a_k z^k with a_0 = first and a_k = a_{k-1} (k + p) / (k (k + r)),
    for |z| up to reach, in the variable z / s.  s is the power of 2 at
    most reach (1 at reach 0), so that z / s is exact and below 2.

    The term count is the scalar stopping rule's, run on the terms'
    magnitudes at |z| = reach: past their peak (where the next ratio times
    reach is at most 1), until one is at most ``_SERIES_TERM_TOL`` of their
    sum so far, or 0.  The coefficients are a running product, which loses
    about sqrt(2K) half-ulps by the K-th term: past ``_TABLE_BLOCK`` terms
    it is taken again in numpy's longdouble (64-bit significands on x86),
    so that each is within about an ulp once rounded to a double (where
    longdouble is a double, the rounding stays).  On 150 points of [0, 700],
    where E_{1,1+beta} takes up to 960 terms, that took the worst error at
    beta 1e-4 from 2.1e-14 to 9.5e-16."""
    scale = 2.0 ** math.floor(math.log2(reach)) if reach > 0.0 else 1.0
    coeffs = [first]
    mag = abs_sum = abs(first)
    k = 0
    while True:
        k += 1
        if k > _SERIES_MAX_TERMS:
            raise SeriesConvergenceError(
                f"{what} did not converge within {_SERIES_MAX_TERMS} terms (reach {reach})"
            )
        ratio = (k + p) / (k * (k + r))
        coeffs.append(coeffs[-1] * (ratio * scale))
        mag *= abs(ratio) * reach
        abs_sum += mag
        if mag == 0.0 or (
            mag <= _SERIES_TERM_TOL * abs_sum
            and abs((k + 1 + p) / ((k + 1) * (k + 1 + r))) * reach <= 1.0
        ):
            break
    if k < _TABLE_BLOCK:
        return scale, np.array(coeffs)
    ks = np.arange(1, k + 1, dtype=np.longdouble)
    steps = np.empty(k + 1, dtype=np.longdouble)
    steps[0] = first
    steps[1:] = (ks + p) / (ks * (ks + r)) * scale
    return scale, np.cumprod(steps).astype(float)


def _series_bound(omega: float, reach: float):
    """E_{1,omega}(z) for 0 <= z <= reach: the series sum z^k / Gamma(k+omega),
    of positive terms, as one ``_power_sums`` table."""
    # 1 / (k - 1 + omega) = k / (k (k + omega - 1))
    scale, coeffs = _scaled_coefficients(
        1.0 / gamma(omega), 0.0, omega - 1.0, reach, "Mittag-Leffler series"
    )
    coeffs = coeffs[None, :]
    return lambda z: _power_sums(z / scale, coeffs)[0]


def _kummer_bound(omega: float, reach: float):
    """E_{1,omega}(z) for -reach <= z <= 0, by Kummer's transformation
    1F1(1; omega; z) = e^z 1F1(omega-1; omega; -z) (DLMF 13.2.39):

        E_{1,omega}(-x) = e^(-x) / Gamma(omega) sum_k x^k / k! (omega-1) / (omega-1+k),

    a series of terms of one sign past the first, where the series in z
    alternates and cancels (to 1e-11 relative at z = -15 for omega = 2, and
    to 1e-4 for omega = 1 + 1e-8)."""
    w = omega - 1.0
    scale, coeffs = _scaled_coefficients(1.0 / gamma(omega), w - 1.0, w, reach, "Kummer series")
    coeffs = coeffs[None, :]
    return lambda z: np.exp(z) * _power_sums(z / -scale, coeffs)[0]


def _closed_form_integer_array(m: int, z: np.ndarray) -> np.ndarray:
    """``_closed_form_integer`` at every z at once, summed in order."""
    if m == 0:
        return np.exp(z)
    total = np.exp(z) - 1.0
    term = z
    for k in range(1, m):
        if k > 1:
            term = term * z / k
        total -= term
    return total / z**m


def _mittag_leffler_one_bound(omega: float, low: float, high: float):
    """E_{1,omega} as one function of an array of points z in [low, high],
    with every constant computed here, once: the finite closed form for
    integer omega and z < min(-1, 3 - omega), Kummer's series
    (``_kummer_bound``) for the other z < 0, and the series (``_series_bound``)
    for z >= 0 (Kummer's at z = 0 where no z > 0 is in range), each with its
    term count and coefficients at its farthest reach in [low, high].  Only
    the branches that [low, high] meets are bound, and joined by ``_split``.
    A point's value depends on the bounds, not on the other points of a
    call."""
    below = _closed_form_below(omega)
    values = None
    if high > 0.0 or low >= 0.0:
        values = _series_bound(omega, high)
    if low < 0.0 and high >= below:
        kummer = _kummer_bound(omega, -max(low, below))
        values = kummer if values is None else _split(kummer, 0.0, values)
    if low < below:
        closed = partial(_closed_form_integer_array, int(round(omega)) - 1)
        values = closed if values is None else _split(closed, below, values)
    return values


def _split(left, at: float, right):
    """One function of an array z from two: left where z < at, right
    elsewhere; where every point of a call falls on one side, that side runs
    on the whole array."""

    def values(z: np.ndarray) -> np.ndarray:
        on_left = z < at
        count = np.count_nonzero(on_left)
        if not count:
            return right(z)
        if count == z.size:
            return left(z)
        out = np.empty(z.shape)
        out[on_left] = left(z[on_left])
        on_right = ~on_left
        out[on_right] = right(z[on_right])
        return out

    return values


def mittag_leffler_one_array(omega: float, z: np.ndarray) -> np.ndarray:
    """E_{1,omega}(z) at every point of the array z: ``_mittag_leffler_one_bound``
    on the extent of z, so the series take their terms at its farthest
    point.

    The branches are those of ``mittag_leffler_one``, except that z < 0
    outside the closed form takes Kummer's series, whose terms do not
    cancel: within about 1e-15 relative of E_{1,omega} for omega in {1.5,
    2, 3, 3.5, 1 + 1e-8} on [-15, 0], and within 1.5e-15 for omega = 1 + beta
    on [0, 700] (40-digit mpmath).  The scalar function's series cancels
    there; its restriction to z above roughly -15 for non-integer omega
    stays with the callers.
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise DomainError(f"omega must be a positive real, got {omega!r}")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    if not z.size:
        return np.empty(z.shape)
    flat = z.ravel()
    return _mittag_leffler_one_bound(omega, float(flat.min()), float(flat.max()))(flat).reshape(
        z.shape
    )


def mittag_leffler(params: MLParams, z: float) -> float:
    """General E_{rho,omega}(z) by plain truncated series."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if params.rho == 1.0:
        return mittag_leffler_one(params.omega, z)
    return _series(params.rho, params.omega, z)
