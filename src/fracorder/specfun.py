"""Special functions: Gamma, log-Gamma, Digamma and Mittag-Leffler.

``ln_gamma`` and ``gamma`` delegate to the C library routines exposed by
:mod:`math`, which deliver well over 13 significant digits on (0, 170] and
exact factorials at small integers.  ``digamma`` uses the classical Bernoulli
asymptotic expansion with a recurrence shift.

The one-parameter Mittag-Leffler family E_{1,omega} has one branch policy,
written once, in ``_closed_form_below`` and the binder
``_mittag_leffler_one_bound``, so that no branch is evaluated where it
cancels:

- E_{1,1}(z) = e^z and E_{1,2}(z) = expm1(z)/z, elementary, at every z;
- for any other integer omega and z < min(-1, 3 - omega), the finite
  closed form z^-m (e^z - sum_{k<m} z^k/k!), m = omega - 1;
- for any other z < 0 down to -700, Kummer's series, whose terms are of
  one sign past the first; a non-integer omega left of -700 is refused,
  since its terms reach e^(-z);
- for z >= 0, the power series sum z^k / Gamma(k + omega).

The binder fixes each series' terms and coefficients once for a range of
z, and sums a series at an array of points as one power table times its
coefficients (``_power_sums``).  It marks the reach of E_{1,omega} as NaN,
and the points where z^m of the closed form overflows a double, which the
catalog's closed forms pass on to quadrature.
``mittag_leffler_one_array`` binds it on the extent of its z, and refuses
a point past the reach, or whose value overflows a double, with
NumericalError.  The scalar ``mittag_leffler_one`` sums the closed form in
scalar code, by ``math.fsum``, and takes every other value from
``mittag_leffler_one_array`` at that one point;
``_mittag_leffler_one_pair`` gives E_{1,m} and E_{1,m-1} at one z for the
Newton steps of ``analysis.t_star``, from one term list where both take the
closed form.  The general E_{rho,omega}, rho != 1, sums its plain series,
and refuses where the terms cancel past 1e-10.

``_ln_gamma_shift`` gives ln Gamma(g + beta) - ln Gamma(g) without the
cancellation of the two logs, for the ratio analysis and the catalog's
Caputo defect forms alike.
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

#: -z down to which Kummer's series sums E_{1,omega}(z), z < 0, for a
#: non-integer omega: its terms peak near e^(-z), which overflows past 709
_KUMMER_REACH = 700.0


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


#: ln Gamma(1 + beta) = sum_k c_k beta^k: c_1 = -(Euler's gamma), c_k = (-1)^k zeta(k) / k;
#: c_1 to c_5 serve below beta = 1e-3, and all seventeen up to 0.1
_LN_GAMMA_1P = (
    -0.5772156649015329, 0.8224670334241132, -0.40068563438653143, 0.27058080842778454,
    -0.20738555102867398, 0.1695571769974082, -0.1440498967688461, 0.12550966952474304,
    -0.11133426586956469, 0.1000994575127818, -0.09095401714582904, 0.083353840546109,
    -0.0769325164113522, 0.07143294629536133, -0.06666870588242046, 0.06250095514121304,
    -0.058823978658684585,
)

#: ln Gamma(1 + beta) + log1p(beta) - (1 - Euler's gamma) beta = sum_k d_k beta^k,
#: k = 2..29, d_k = (-1)^k (zeta(k) - 1) / k: the terms fall as (beta/2)^k / k,
#: and those left out are below 1e-18 up to beta = 0.5
_LN_GAMMA_1P_TAIL = (
    0.3224670334241132, -0.0673523010531981, 0.020580808427784546, -0.007385551028673986,
    0.0028905103307415234, -0.001192753911703261, 0.0005096695247430425,
    -0.00022315475845357939, 9.945751278180853e-05, -4.492623673813314e-05,
    2.050721277567069e-05, -9.439488275268397e-06, 4.374866789907488e-06,
    -2.039215753801366e-06, 9.55141213040742e-07, -4.492469198764566e-07,
    2.1207184805554665e-07, -1.0043224823968099e-07, 4.7698101693639804e-08,
    -2.2711094608943164e-08, 1.0838659214896955e-08, -5.183475041970047e-09,
    2.4836745438024785e-09, -1.1921401405860912e-09, 5.731367241678862e-10,
    -2.7595228851242334e-10, 1.330476437424449e-10, -6.4229645638381e-11,
)
_ONE_LESS_EULER = 0.42278433509846713

#: B_2k / (2k (2k - 1)) for k = 1..8, the coefficients of Stirling's series
#: ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k c_k z^(1-2k); from
#: z = 10 on, the next term moves ln Gamma(z + beta) - ln Gamma(z) by less
#: than 1e-17 beta
_STIRLING = tuple(
    np.longdouble(p) / q
    for p, q in ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156),
                 (-3617, 122400))
)
_STIRLING_FROM = 10.0
#: an integer g past this many log1p terms takes Stirling's series, which
#: costs less and rounds less than their sum
_LOG1P_TERMS = 64


def _ln_gamma_shift(g: float, beta: float) -> float:
    """ln Gamma(g + beta) - ln Gamma(g) for g > 0 and 0 < beta < 1, without
    the cancellation of the two logs, which leaves eps |ln Gamma(g)|
    (4e-5 of the shift at g = 2.5 and beta 1e-12).

    For an integer g up to ``_LOG1P_TERMS`` it is
    ln Gamma(1 + beta) + sum_{k<g} log1p(beta / k):
    g + beta would round a small beta away.  Below beta = 0.1,
    ln Gamma(1 + beta) is its Taylor series (``_LN_GAMMA_1P``): the terms
    left out, after beta^17 (after beta^5 below 1e-3), are below 2e-18
    (3e-16) of it.  From 0.1 to 0.5 it is -log1p(beta) + (1 - Euler's
    gamma) beta + the series of ``_LN_GAMMA_1P_TAIL``, where
    ``math.lgamma(1 + beta)`` is up to 6e-15 beta off (near 1 + beta =
    1.1).  From 0.5 on it is ``math.lgamma(1 + beta)``.  Against 40-digit
    mpmath, for g in {1, 2, 3, 5, 9}, the shift is within 7.6e-16 beta
    below beta = 0.5, and within 1.5e-15 beta from 0.5 on.

    For any other g it is the shift at z = g + n >= 10 (n = 0 from 10 on) less
    sum_{k<n} log1p(beta / (g + k)), the shift at z from Stirling's series
    (``_STIRLING``) in differences that cancel nothing but the beta of
    (z - 1/2) log1p(x) - beta, x = beta/z, whose rounding is eps beta:
    (z - 1/2) log1p(x) - beta + beta ln(z + beta)
    + sum_k c_k z^(1-2k) expm1((1-2k) log1p(x)).  Against 40-digit mpmath
    it is within 7e-16 of the shift."""
    m = int(g)
    if m != g or m > _LOG1P_TERMS:
        return _stirling_shift(g, beta)
    if beta >= 0.5:
        shift = math.lgamma(1.0 + beta)
    elif beta >= 0.1:
        tail = 0.0
        for d in reversed(_LN_GAMMA_1P_TAIL):
            tail = d + beta * tail
        shift = _ONE_LESS_EULER * beta - math.log1p(beta) + beta * beta * tail
    else:
        c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15, c16, c17 = _LN_GAMMA_1P
        high = 0.0
        if beta >= 1e-3:
            high = beta * (c6 + beta * (c7 + beta * (c8 + beta * (c9 + beta * (c10 + beta * (
                c11 + beta * (c12 + beta * (c13 + beta * (c14 + beta * (c15 + beta * (
                    c16 + beta * c17)))))))))))
        shift = beta * (c1 + beta * (c2 + beta * (c3 + beta * (c4 + beta * (c5 + high)))))
    for k in range(1, m):  # positive terms: a plain sum loses at most m ulps
        shift += math.log1p(beta / k)
    return shift


def _stirling_shift(g: float, beta: float) -> float:
    """``_ln_gamma_shift`` by Stirling's series, in longdouble (64-bit
    significands on x86) and rounded once: in doubles its n + 10 terms left
    1.2e-15 beta at g = 0.5."""
    g, beta = np.longdouble(g), np.longdouble(beta)
    n = max(0, math.ceil(_STIRLING_FROM - g))
    z = g + n
    x = np.log1p(beta / z)
    shift = (z - 0.5) * x - beta + beta * np.log(z + beta)
    for k, c in enumerate(_STIRLING, 1):
        shift += c * z ** (1 - 2 * k) * np.expm1((1 - 2 * k) * x)
    return float(shift - sum(np.log1p(beta / (g + k)) for k in range(n)))


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
    """Plain truncated power series sum_k z^k / Gamma(rho*k + omega) of
    ``mittag_leffler``, rho != 1, summed by ``math.fsum``, and refused with
    NumericalError where its terms cancel past 1e-10 relative."""
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
        mag = math.exp(k * log_abs_z - math.lgamma(rho * k + omega))
        term = mag if z > 0 or k % 2 == 0 else -mag
        terms.append(term)
        running += term
        # stop only past the term peak, where the ratio has dropped below 1
        if abs(term) <= _SERIES_TERM_TOL * abs(running) and rho * k + omega > abs(z):
            break
    total = math.fsum(terms)
    # rounding of the terms leaves eps sum |terms|: refused past 1e-10 of the sum
    if math.ulp(1.0) * math.fsum(map(abs, terms)) > 1e-10 * abs(total):
        raise NumericalError(f"E_{rho},{omega}({z!r}): its series cancels past 1e-10 relative")
    return total


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
    as ``mittag_leffler_one`` gives it.  Left of min(-1, 3 - m), where both
    take the closed form, they share one term list: E_{1,m-1}'s is E_{1,m}'s
    without its last term (e^z alone at m = 2).  Elsewhere they are two
    ``mittag_leffler_one`` calls."""
    if z < min(-1.0, 3.0 - m):
        terms = _closed_form_terms(m - 1, z)
        return _closed_form_sum(terms, z), _closed_form_sum(terms[:-1], z)
    return mittag_leffler_one(float(m), z), mittag_leffler_one(m - 1.0, z)


def mittag_leffler_one(omega: float, z: float) -> float:
    """One-parameter-family Mittag-Leffler value E_{1,omega}(z), on the
    branches of the module docstring: for integer omega and
    z < min(-1, 3 - omega) the finite closed form, summed by ``math.fsum``
    (``_closed_form_integer``), and elsewhere ``mittag_leffler_one_array``
    at this one point, bit for bit, with its refusals.  The closed form is
    used where the power series cancels, while the e^z partial sum it
    subtracts cancels only right of 3 - omega, where its terms z^k/k!
    outgrow the remainder.  For integer omega 1..16 the relative error on
    [-(3 omega + 2), 0] is below 1e-15; for omega in {0.5, 1.5, 2, 2.5,
    3.5, 1 + 1e-8, 7.25} it is within 1.5e-15 on [-700, 700] (1.4e-15 at
    most on 3500 seeded points, against 40-digit mpmath).
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise DomainError(f"omega must be a positive real, got {omega!r}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if z < _closed_form_below(omega):
        return _closed_form_integer(int(round(omega)) - 1, z)
    return float(mittag_leffler_one_array(omega, np.array([z]))[0])


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
    """``_closed_form_integer`` at every z at once, summed in order, m >= 1;
    NaN, and no warning, where z^m overflows a double: the sum over an
    infinite z^m read 0 there (E_{1,3}(-1e155) for t^2 under CF at beta
    1e-155, where D f is about 1).  No term overflows where z^m does not."""
    with np.errstate(over="ignore", invalid="ignore"):
        power = z**m
        total = np.exp(z) - 1.0
        term = z
        for k in range(1, m):
            if k > 1:
                term = term * z / k
            total -= term
        return np.where(np.isinf(power), math.nan, total / power)


def _expm1_quotient(z: np.ndarray) -> np.ndarray:
    """E_{1,2}(z) = expm1(z)/z, 1 at z = 0."""
    if z.all():
        return np.expm1(z) / z
    return np.divide(np.expm1(z), z, out=np.ones(z.shape), where=z != 0.0)


def _mittag_leffler_one_bound(omega: float, low: float, high: float):
    """E_{1,omega} as one function of an array of points z in [low, high],
    with every constant computed here, once: e^z and expm1(z)/z for omega 1
    and 2 at every z; the finite closed form for any other integer omega and
    z < min(-1, 3 - omega), Kummer's series (``_kummer_bound``) for the other
    z < 0 down to -700 (``_KUMMER_REACH``), and the series
    (``_series_bound``) for z >= 0 (Kummer's at z = 0 where no z > 0 is in
    range), each with its term count and coefficients at its farthest reach
    in [low, high].  A point left of -700 that no closed form takes is NaN,
    and so is a point where z^m of the closed form overflows: the reach of
    E_{1,omega} is marked here, and nowhere else.  Only the branches that
    [low, high] meets are bound, and joined by ``_split``.  A point's value
    depends on the bounds, not on the other points of a call."""
    if omega == 1.0:
        return np.exp
    if omega == 2.0:
        return _expm1_quotient
    below = _closed_form_below(omega)
    values = None
    if high > 0.0 or low >= 0.0:
        values = _series_bound(omega, high)
    if low < 0.0 and high >= below:
        kummer = _kummer_bound(omega, min(-max(low, below), _KUMMER_REACH))
        values = kummer if values is None else _split(kummer, 0.0, values)
    if low < below:
        closed = partial(_closed_form_integer_array, int(round(omega)) - 1)
        values = closed if values is None else _split(closed, below, values)
    elif low < -_KUMMER_REACH:
        values = _split(lambda z: np.full(z.shape, math.nan), -_KUMMER_REACH, values)
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
    point, on the branches of the module docstring.  The power table sums
    Kummer's terms and the series' in floating point: within 1.5e-15
    relative of E_{1,omega} for omega in {1.5, 2.5, 3.5, 1 + 1e-8, 7.25} on
    [-700, 0] (1.2e-15 at most on 100 points), and for omega = 1 + beta on
    [0, 700] (40-digit mpmath).  Refused with NumericalError, and no
    warning: a point left of -700 that the closed form does not take, and
    any value that overflows a double (E_{1,omega}(z) near e^z z^(1-omega)
    past z = 709, or z^m of the closed form).
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise DomainError(f"omega must be a positive real, got {omega!r}")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    if not z.size:
        return np.empty(z.shape)
    flat = z.ravel()
    low, high = float(flat.min()), float(flat.max())
    # an overflow reads inf or NaN, refused below: the refusal is its one signal
    with np.errstate(over="ignore", invalid="ignore"):
        values = _mittag_leffler_one_bound(omega, low, high)(flat)
    if not np.isfinite(values).all():
        if low < -_KUMMER_REACH and not _is_integer(omega):
            raise NumericalError(f"E_1,{omega}({low!r}): Kummer's series reaches z = -700 only")
        raise NumericalError(f"E_1,{omega}({max(low, high, key=abs)!r}) overflows a double")
    return values.reshape(z.shape)


def mittag_leffler(params: MLParams, z: float) -> float:
    """General E_{rho,omega}(z): ``mittag_leffler_one`` for rho = 1, else the
    plain truncated series, refused with NumericalError where its terms
    cancel, eps sum |terms| > 1e-10 |sum| (E_{1/2,1}(-10) summed to -1.6e29,
    where it is 0.0561)."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if params.rho == 1.0:
        return mittag_leffler_one(params.omega, z)
    return _series(params.rho, params.omega, z)
