"""Special-function accuracy against independent high-precision oracles."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fracorder import (
    DomainError,
    MLParams,
    NumericalError,
    SeriesConvergenceError,
    digamma,
    gamma,
    ln_gamma,
    mittag_leffler,
    mittag_leffler_one,
)
from fracorder import specfun
from fracorder.specfun import mittag_leffler_one_array
from fracorder.specfun import EULER_GAMMA, _closed_form_integer

mp.mp.dps = 40


def ml_exact_series(omega: int, z: float, terms: int = 200) -> float:
    """Exact-rational truncated series for E_{1,omega}(z), integer omega.

    Gamma(k + omega) is the exact integer (k + omega - 1)! and the float z
    converts to an exact binary fraction, so the partial sum is exact; 200
    terms leave a remainder below 1e-70 for |z| <= 30.
    """
    zq = Fraction(z)
    total = Fraction(0)
    for k in range(terms):
        total += zq**k / math.factorial(k + omega - 1)
    return float(total)


class TestLnGamma:
    def test_at_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_factorial_point(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15, abs=0.0)

    def test_half(self):
        # ln Gamma(1/2) = ln sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x", [1e-3, 0.017, 0.1, 0.5, 1.5, 3.7, 10.0, 33.7, 99.1, 170.0])
    def test_relative_error_vs_mpmath(self, x):
        exact = mp.loggamma(mp.mpf(x))
        got = ln_gamma(x)
        scale = max(1.0, abs(float(exact)))
        assert abs(got - float(exact)) <= 1e-13 * scale

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)


class TestGamma:
    def test_one(self):
        assert gamma(1.0) == 1.0

    def test_three_factorial(self):
        assert gamma(4.0) == 6.0

    @pytest.mark.parametrize("n", range(1, 21))
    def test_integer_factorials_exact(self, n):
        exact = float(math.factorial(n - 1))
        assert abs(gamma(float(n)) - exact) <= 2 * math.ulp(exact)

    def test_half_integer(self):
        # Gamma(2.5) = (3/2)(1/2) sqrt(pi)
        assert gamma(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-14, abs=0.0)

    def test_ratio_recurrence(self):
        # Gamma(x+1)/Gamma(x) = x, relative 1e-11 on [0.5, 100]
        for x in np.linspace(0.5, 100.0, 400):
            assert gamma(x + 1.0) / gamma(float(x)) == pytest.approx(x, rel=1e-11, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(-2.0)

    def test_overflow_is_refused(self):
        assert math.isfinite(gamma(171.0))
        with pytest.raises(NumericalError, match="overflows"):
            gamma(172.0)

    def test_closed_form_overflow_is_refused(self):
        with pytest.raises(NumericalError, match="overflows"):
            mittag_leffler_one(151.0, -149.0)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_two(self):
        # recurrence from Psi(1) = -euler_gamma
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_at_four(self):
        assert digamma(4.0) == pytest.approx(11.0 / 6.0 - EULER_GAMMA, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 0.2, 0.9, 1.0, 3.5, 6.0, 17.3, 55.0, 123.0, 200.0])
    def test_absolute_error_vs_mpmath(self, x):
        assert abs(digamma(x) - float(mp.digamma(mp.mpf(x)))) <= 1e-12

    def test_recurrence_invariant(self):
        for x in np.linspace(0.5, 100.0, 500):
            assert abs(digamma(x + 1.0) - digamma(float(x)) - 1.0 / x) <= 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)


class TestLnGammaShift:
    @pytest.mark.parametrize(
        "g", [0.01, 0.5, 1.0, 1.4616321449683622, 2.0, 2.5, 3.0, 9.99, 25.25, 64.0, 65.0, 1000.0]
    )
    def test_against_mpmath(self, g):
        # ln Gamma(g + beta) - ln Gamma(g), which the difference of two
        # math.lgamma values misses by eps |ln Gamma(g)|: 4e-5 of it at
        # g = 2.5 and beta 1e-12
        for beta in (0.999, 0.5, 0.3, 0.1, 0.0999, 1e-2, 1e-4, 1e-8, 1e-12):
            exact = mp.loggamma(g + mp.mpf(beta)) - mp.loggamma(g)
            got = specfun._ln_gamma_shift(g, beta)
            assert abs(got - exact) <= 1.5e-15 * beta + 2e-16 * abs(exact), beta


class TestMittagLefflerOne:
    def test_exponential_case(self):
        assert mittag_leffler_one(1.0, 1.0) == pytest.approx(math.e, rel=1e-14, abs=0.0)

    def test_zero_argument(self):
        # only the k = 0 term survives: 1/Gamma(3) = 0.5
        assert mittag_leffler_one(3.0, 0.0) == 0.5

    def test_zero_argument_matches_gamma(self):
        for omega in (0.3, 1.7, 2.0, 5.5, 9.0):
            got = mittag_leffler_one(omega, 0.0)
            assert got == pytest.approx(1.0 / gamma(omega), rel=5e-16, abs=0.0)

    def test_omega_two_closed_form(self):
        # E_{1,2}(z) = (e^z - 1)/z
        expected = ml_exact_series(2, -5.0)
        assert expected == pytest.approx((math.exp(-5.0) - 1.0) / -5.0, rel=1e-13, abs=0.0)
        assert mittag_leffler_one(2.0, -5.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("omega", range(2, 17))
    def test_dual_path_against_exact_series(self, omega):
        # right of 3 - omega the series, left of it the closed form: either
        # side of the switch, and just left of -1, where the closed form's
        # partial sum of e^z would cancel for large omega
        for z in np.linspace(-30.0, -1.0, 30).tolist() + [3.0 - omega - 1e-9, 3.0 - omega, -1.05]:
            exact = ml_exact_series(omega, float(z), terms=220)
            got = mittag_leffler_one(float(omega), float(z))
            assert got == pytest.approx(exact, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_pair_is_bit_identical_to_two_calls(self, m):
        # one term list where both take the closed form, each its own branch
        # elsewhere: around both switches, at -1, and on [-(3m + 2), 0]
        edges = [3.0 - m, 4.0 - m, -1.0]
        zs = edges + [math.nextafter(z, -math.inf) for z in edges]
        zs += np.linspace(-(3.0 * m + 2.0), 0.0, 97).tolist()
        for z in zs:
            want = (mittag_leffler_one(float(m), z), mittag_leffler_one(m - 1.0, z))
            assert specfun._mittag_leffler_one_pair(m, z) == want, z

    def test_pair_overflow_names_the_upper_function(self):
        # a term of E_{1,3} overflows first, as in the single call
        with pytest.raises(NumericalError, match=r"E_1,3\("):
            specfun._mittag_leffler_one_pair(3, -1e200)

    def test_series_and_closed_form_agree_in_mild_region(self):
        # both branches are accurate here, so they must coincide
        for omega in range(2, 9):
            z = np.linspace(-5.0, -1.01, 9)
            series = mittag_leffler_one_array(float(omega), z)
            for x, value in zip(z.tolist(), series.tolist()):
                closed = _closed_form_integer(omega - 1, x)
                assert value == pytest.approx(closed, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("omega", [1.0, 2.0, 5.0, 12.0, 0.5, 1.5, 1.0 + 1e-8, 7.25])
    def test_equals_the_one_point_array(self, omega):
        # off the integer closed form the scalar is the array at one point
        rng = np.random.default_rng(31)
        z = [0.0, -700.0, 700.0, *rng.uniform(-700.0, 700.0, 40).tolist()]
        for x in z:
            if x >= specfun._closed_form_below(omega):
                assert mittag_leffler_one(omega, x) == mittag_leffler_one_array(
                    omega, np.array([x])
                )[0], x

    @pytest.mark.parametrize("omega", [0.5, 1.5, 2.0, 3.5, 7.25, 1.0 + 1e-8])
    def test_positive_axis_against_mpmath(self, omega):
        # the running product that summed the series reached 1.3e-14 here
        z = [700.0, 1e-300, 0.3, *(700.0 * np.random.default_rng(70).random(30)).tolist()]
        for x in z:
            exact = mp.hyp1f1(1, omega, x) / mp.gamma(omega)
            assert abs(mittag_leffler_one(omega, x) - exact) <= 1.5e-15 * abs(exact), x

    def test_positive_arguments(self):
        for z in (0.5, 3.0, 20.0, 50.0):
            assert mittag_leffler_one(1.0, z) == pytest.approx(math.exp(z), rel=1e-12, abs=0.0)

    def test_non_integer_omega_moderate(self):
        for omega in (0.5, 2.5, 7.3):
            for z in (-8.0, -1.0, 0.7, 4.0):
                exact = float(sum(mp.mpf(z) ** k / mp.gamma(k + omega) for k in range(250)))
                assert mittag_leffler_one(omega, z) == pytest.approx(exact, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("omega", [0.5, 1.5, 2.5, 3.5, 1.0 + 1e-8, 7.25])
    def test_non_integer_omega_down_to_the_reach(self, omega):
        # Kummer's series, of one sign, where the series in z was 2.4e-10
        # off at z = -15 for omega 1.5, 2.1e5 relative at -50, and 1.1 off
        # at -20 for omega 1 + 1e-8
        z = [-700.0, -699.99, -50.0, -20.0, -15.0, -1e-300, *(-700.0 * np.arange(1, 40) / 40)]
        for x in z:
            exact = mp.hyp1f1(1, omega, x) / mp.gamma(omega)
            assert abs(mittag_leffler_one(omega, x) - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("z", [-700.0000000000001, -720.0, -750.0, -1e300])
    def test_non_integer_omega_past_the_reach_is_refused(self, z):
        with pytest.raises(NumericalError, match="-700"):
            mittag_leffler_one(2.5, z)

    @pytest.mark.parametrize("omega", [1.0, 2.0, 3.0, 1.5, 7.25])
    @pytest.mark.parametrize("z", [800.0, 1e4])
    def test_overflow_is_refused(self, omega, z):
        # E_{1,omega}(z) is near e^z z^(1-omega), past a double; the scalar
        # read inf, and the array inf after three RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows a double"):
                mittag_leffler_one(omega, z)
            for points in ([z], [0.0, -3.0, z]):
                with pytest.raises(NumericalError, match="overflows a double"):
                    mittag_leffler_one_array(omega, np.array(points))

    # E_{1,2}(z) is expm1(z)/z, with no terms to count: at 1e6 it overflows
    @pytest.mark.parametrize("omega", [3.0, 2.5])
    def test_too_many_terms_is_refused(self, omega):
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler_one(omega, 1e6)
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler_one_array(omega, np.array([1.0, 1e6]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler_one(0.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler_one(-2.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler_one(2.0, math.inf)


class TestMittagLefflerOneArray:
    @pytest.mark.parametrize("omega", range(1, 17))
    def test_integer_omega_both_branches(self, omega):
        # the scalar function is checked against the exact series above; the
        # twins switch branch at the same z, min(-1, 3 - omega)
        z = np.concatenate([np.linspace(-30.0, -1.0, 30), np.linspace(-0.99, 3.0, 9)])
        got = mittag_leffler_one_array(float(omega), z)
        for x, value in zip(z.tolist(), got.tolist()):
            want = mittag_leffler_one(float(omega), x)
            assert value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_non_integer_omega_moderate(self):
        z = np.array([-8.0, -1.0, 0.0, 0.7, 4.0])
        for omega in (0.5, 2.5, 7.3):
            got = mittag_leffler_one_array(omega, z)
            for x, value in zip(z.tolist(), got.tolist()):
                exact = float(sum(mp.mpf(x) ** k / mp.gamma(k + omega) for k in range(250)))
                assert value == pytest.approx(exact, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("omega", range(1, 7))
    @pytest.mark.parametrize("side", ["left", "right", "mixed", "empty"])
    def test_one_branch_matches_the_split(self, omega, side):
        # an array on one side of the cut takes its branch whole; its values
        # are bit for bit those of the same points within a mixed array
        cut = min(-1.0, 3.0 - omega)
        z = {
            "left": np.linspace(cut - 30.0, cut - 0.01, 40),
            "right": np.linspace(cut, 4.0, 40),
            "mixed": np.linspace(cut - 30.0, 4.0, 81),
            "empty": np.empty(0),
        }[side]
        whole = mittag_leffler_one_array(float(omega), z)
        assert whole.shape == z.shape
        for mask in (z < cut, z >= cut):
            np.testing.assert_array_equal(
                whole[mask], mittag_leffler_one_array(float(omega), z[mask]), strict=True
            )

    @pytest.mark.parametrize("omega", [1.5, 2.5, 3.5, 1.0 + 1e-8, 7.25])
    def test_non_integer_omega_down_to_the_reach(self, omega):
        # the power table sums Kummer's terms in floating point, where the
        # scalar function sums them exactly: up to 1.2e-15 on these points
        z = np.concatenate([[-700.0, -1e-300], -700.0 * np.random.default_rng(7).random(98)])
        got = mittag_leffler_one_array(omega, z)
        for x, value in zip(z.tolist(), got.tolist()):
            exact = mp.hyp1f1(1, omega, x) / mp.gamma(omega)
            assert abs(value - exact) <= 1.5e-15 * abs(exact)

    @pytest.mark.parametrize("z", [-700.0000000000001, -720.0, -750.0])
    def test_non_integer_omega_past_the_reach_is_refused(self, z):
        # the binder marks such points NaN; where it summed them, -720 read
        # inf and -750 NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="-700"):
                mittag_leffler_one_array(2.5, np.array([-1.0, z]))
        values = specfun._mittag_leffler_one_bound(2.5, z, 0.0)(np.array([z, -700.0, -1.0]))
        assert math.isnan(values[0]) and np.isfinite(values[1:]).all()

    def test_closed_form_past_a_double_is_nan(self):
        # z^2 of E_{1,3}(z) overflows past |z| = 1.3e154, where the sum over
        # it read 0 after a RuntimeWarning; the binder marks such points
        # NaN, and the points where z^2 is finite keep their closed form
        z = np.array([-1e155, -1e200, -1e154, -5.0])
        values = specfun._mittag_leffler_one_bound(3.0, -1e200, 0.0)(z)
        assert np.isnan(values[:2]).all()
        for x, value in zip(z[2:].tolist(), values[2:].tolist()):
            exact = mp.hyp1f1(1, 3, x) / 2
            assert abs(value - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("omega", [1.0, 2.0])
    def test_elementary_omegas_on_the_whole_axis(self, omega):
        # E_{1,1}(z) = e^z and E_{1,2}(z) = expm1(z)/z on all of [low, high],
        # with no series and no split: 1 at z = 0, and no warning
        z = np.concatenate(
            [[0.0, -1e-300, 1e-300, -700.0, 700.0], np.random.default_rng(12).uniform(-700, 700, 200)]
        )
        values = specfun._mittag_leffler_one_bound(omega, -700.0, 700.0)(z)
        for x, value in zip(z.tolist(), values.tolist()):
            exact = mp.hyp1f1(1, omega, x) / mp.gamma(omega)
            assert abs(value - exact) <= 1e-15 * abs(exact), x

    def test_integer_omega_overflow_is_refused(self):
        # z^4 of E_{1,5}'s closed form overflows, where the array read NaN;
        # the refusal is the only signal, no RuntimeWarning before it
        with pytest.raises(NumericalError, match="overflows"):
            mittag_leffler_one_array(5.0, np.array([-1e200, -1.0]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler_one_array(0.0, np.array([1.0]))
        with pytest.raises(DomainError):
            mittag_leffler_one_array(2.0, np.array([0.5, math.nan]))


class TestPowerTableKernels:
    """The series branches of ``mittag_leffler_one_array``, one power table
    each (``specfun._power_sums``), against 40-digit mpmath.  Each bound is
    first the worst relative error of the running product that they
    replaced, summed term by term on the same points (a whole array in one
    call), and then what the table reaches."""

    #: the running product's worst relative error on these points
    RUNNING_PRODUCT_NEGATIVE = {2.0: 5.52e-11, 3.0: 4.96e-12, 1.5: 5.03e-10, 3.5: 1.34e-12,
                                1.0 + 1e-8: 2.31e-4}
    RUNNING_PRODUCT_POSITIVE = {0.5: 3.93e-15, 1e-2: 1.47e-14, 1e-4: 1.83e-14, 1e-8: 1.40e-14}

    @staticmethod
    def worst_relative_error(got, omega, z):
        worst = mp.mpf(0)
        for value, x in zip(got.tolist(), z.tolist()):
            exact = mp.hyp1f1(1, omega, x) / mp.gamma(omega)
            worst = max(worst, abs(value - exact) / abs(exact))
        return float(worst)

    @pytest.mark.parametrize("omega", [2.0, 3.0, 1.5, 3.5, 1.0 + 1e-8])
    def test_kummer_series_on_the_negative_axis(self, omega):
        # Kummer's series sums terms of one sign, where the series in z
        # cancels to 1e-12 .. 1e-4 relative at z = -15
        z = np.concatenate([[-15.0, -1e-300], -15.0 * np.random.default_rng(15).random(298)])
        worst = self.worst_relative_error(specfun._kummer_bound(omega, 15.0)(z), omega, z)
        assert worst <= self.RUNNING_PRODUCT_NEGATIVE[omega]
        assert worst <= 1.5e-15

    @pytest.mark.parametrize("beta", [0.5, 1e-2, 1e-4, 1e-8])
    def test_series_up_to_the_exponential_reach(self, beta):
        # E_{1,1+beta}(u), about 960 terms at u = 700: each
        # block of 32 powers starts from np.power, so the rounding of x^2
        # does not grow with the term's index
        z = np.concatenate([[700.0, 1e-300], 700.0 * np.random.default_rng(700).random(148)])
        got = specfun._series_bound(1.0 + beta, 700.0)(z)
        worst = self.worst_relative_error(got, 1.0 + beta, z)
        assert worst <= self.RUNNING_PRODUCT_POSITIVE[beta]
        assert worst <= 1.5e-15

    def test_power_sums_of_a_point_alone(self):
        # a point's sum does not depend on the points beside it, whatever
        # block of the table it falls in
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((2, 70))
        x = rng.uniform(-1.9, 1.9, 3000)
        whole = specfun._power_sums(x, coeffs)
        for i in (0, 1, 2047, 2048, 2999):
            alone = specfun._power_sums(x[i : i + 1], coeffs)[:, 0]
            np.testing.assert_array_equal(whole[:, i], alone)


class TestGeneralMittagLeffler:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            MLParams(rho=0.0, omega=1.0)
        with pytest.raises(DomainError):
            MLParams(rho=1.0, omega=-1.0)

    def test_rho_two_is_cosh(self):
        # E_{2,1}(z) = cosh(sqrt(z)) for z >= 0
        params = MLParams(rho=2.0, omega=1.0)
        for z in (0.25, 1.5, 9.0):
            want = math.cosh(math.sqrt(z))
            assert mittag_leffler(params, z) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_rho_one_delegates(self):
        params = MLParams(rho=1.0, omega=3.0)
        assert mittag_leffler(params, -4.0) == mittag_leffler_one(3.0, -4.0)

    def test_cancelling_series_is_refused(self):
        # E_{1/2,1}(-10) = e^100 erfc(10) = 0.0561; its series summed to
        # -1.6e29, its terms peaking near 1e42
        with pytest.raises(NumericalError, match="cancels"):
            mittag_leffler(MLParams(rho=0.5, omega=1.0), -10.0)
        for z in (-1.0, -2.0, 3.0):
            exact = mp.exp(z * z) * mp.erfc(-z)
            got = mittag_leffler(MLParams(rho=0.5, omega=1.0), z)
            assert got == pytest.approx(float(exact), rel=1e-10, abs=0.0)

    def test_term_budget_exhaustion(self):
        # terms shrink like 0.999999^k here, far too slowly for the budget
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler(MLParams(rho=1e-5, omega=0.5), 0.999999)
