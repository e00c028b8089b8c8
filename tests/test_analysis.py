"""Order fits, ratio machinery, root finders and the comparison table."""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fracorder import (
    AbsShift,
    Affine,
    BracketingError,
    DegenerateFitError,
    DomainError,
    NumericalError,
    ErrorReport,
    Exponential,
    Interval,
    NormKind,
    OperatorKind,
    Power,
    error_l1,
    error_linf,
    error_sweep,
    fit_order,
    gamma,
    ln_gamma,
    mittag_leffler_one,
    ratio_cf_over_c_l1,
    specfun,
    ratio_limit,
    s_star,
    t_star,
    table1,
)

C = OperatorKind.CAPUTO
CF = OperatorKind.CAPUTO_FABRIZIO
RL = OperatorKind.RIEMANN_LIOUVILLE
I01 = Interval(0.0, 1.0)

# ten-digit reference values for the comparison table, m -> (T=1, T=m-1)
TABLE_REFERENCE = {
    3: (1.592207522, 0.8881460240),
    4: (1.991876242, 0.8179851126),
    5: (2.344504178, 0.7816816178),
    6: (2.669821563, 0.7594559202),
}


# the (m, T, beta) entries of the bench's ratio-table workload
BENCH_REFS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "refs.json").read_text())


def _t_star_single_calls(m, beta):
    """t_star as two mittag_leffler_one calls per Newton iterate, a value and
    a slope: the reference its paired evaluation must match bit for bit."""
    rate = (1.0 - beta) / beta
    gm = gamma(float(m))

    def left(omega, v):
        return gm * mittag_leffler_one(omega, -rate * v)

    v = float(m - 1)
    g_v = left(float(m), v) - beta
    if g_v <= 0.0:
        assert g_v > -1e-12
        return v
    for _ in range(50):
        slope = (left(m - 1.0, v) - (m - 1) * (g_v + beta)) / v
        assert slope < 0.0
        step = -g_v / slope
        v += step
        assert v <= 1e6
        if abs(step) <= 1e-10:
            return v
        g_v = left(float(m), v) - beta
    raise AssertionError(f"no root for m={m}, beta={beta}")


def synthetic_reports(betas, values):
    return [
        ErrorReport(C, beta, NormKind.L1, I01, value, 1) for beta, value in zip(betas, values)
    ]


class TestFitOrder:
    def test_exact_power_law(self):
        betas = [0.1, 0.05, 0.02, 0.01]
        fit = fit_order(synthetic_reports(betas, [3.0 * b**0.7 for b in betas]))
        assert fit.r_hat == pytest.approx(0.7, abs=1e-12)
        assert fit.log_c_hat == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.residual <= 1e-12
        assert fit.n_points == 4

    def test_cf_exponential_rate(self):
        betas = list(np.logspace(-1, -4, 37))
        reports = error_sweep(Exponential(), CF, NormKind.L1, betas, I01)
        fit = fit_order(reports)
        assert 0.95 <= fit.r_hat <= 1.01

    def test_rl_constant_refused(self):
        betas = list(np.logspace(-1, -3, 25))
        reports = error_sweep(Affine(0.0, 1.0), RL, NormKind.L1, betas, I01)
        with pytest.raises(DegenerateFitError, match="do not decay"):
            fit_order(reports)

    def test_zero_values_refused(self):
        betas = [0.1, 0.05, 0.02, 0.01]
        with pytest.raises(DegenerateFitError, match="non-positive"):
            fit_order(synthetic_reports(betas, [1.0, 0.5, 0.0, 0.1]))

    def test_infinite_values_refused(self):
        # an unbounded sup norm (RL with f(a) != 0) comes back as inf; the
        # refusal happens before the log, not as a nan residual
        betas = [0.1, 0.05, 0.02, 0.01]
        with pytest.raises(DegenerateFitError, match="non-finite"):
            fit_order(synthetic_reports(betas, [math.inf] * 4))

    def test_non_power_law_refused(self):
        betas = [0.1, 0.05, 0.02, 0.01, 0.005]
        values = [1.0, 1e-3, 1.0, 1e-3, 1.0]  # wildly oscillating
        with pytest.raises(DegenerateFitError, match="power law"):
            fit_order(synthetic_reports(betas, values))

    def test_needs_four_points(self):
        betas = [0.1, 0.05, 0.02]
        with pytest.raises(DomainError):
            fit_order(synthetic_reports(betas, [b for b in betas]))

    def test_mixed_sweeps_rejected(self):
        betas = [0.1, 0.05, 0.02, 0.01]
        reports = synthetic_reports(betas, [b for b in betas])
        other = ErrorReport(CF, 0.005, NormKind.L1, I01, 0.005, 1)
        with pytest.raises(DomainError):
            fit_order(reports + [other])


#: beta from 1e-1 to 1e-17, half a decade apart, and 1.5e-3
RATIO_BETAS = [10 ** (-k / 2) for k in range(2, 35)] + [1.5e-3]


class TestRatioFiniteBeta:
    def test_tends_to_table_values(self):
        got = ratio_cf_over_c_l1(3, 1.0, 1e-4)
        assert got.value == pytest.approx(1.5922, abs=1e-2)
        got = ratio_cf_over_c_l1(3, 2.0, 1e-4)
        assert got.value == pytest.approx(0.8881, abs=1e-2)

    @pytest.mark.parametrize("beta", [1e-320, 5e-324])
    def test_subnormal_beta_is_refused(self, beta):
        # (1 - beta)/beta overflows: refused by beta, not by an internal z = -inf
        with pytest.raises(NumericalError, match=f"beta={beta!r} is too small"):
            ratio_cf_over_c_l1(3, 2.0, beta)

    # m = 2..6, T in {1, m-1}, beta from 1e-1 to 1e-4, and two T between
    L1_CASES = [
        (m, T, beta)
        for m in range(2, 7)
        for T in sorted({1.0, m - 1.0})
        for beta in (1e-1, 1e-2, 1e-3, 1e-4)
    ] + [(3, 1.5, 0.2), (4, 2.0, 0.35)]

    @pytest.mark.parametrize("m,T,beta", L1_CASES)
    def test_numerator_matches_l1_error(self, m, T, beta):
        # the closed-form numerator must equal the adaptively integrated
        # L1 error of t^m under the exponential-kernel derivative, within
        # the requested tol
        rate = (1.0 - beta) / beta
        numerator = (
            T**m
            / (1.0 - beta)
            * (gamma(m + 1.0) * mittag_leffler_one(m + 1.0, -rate * T) - beta)
        )
        report = error_l1(Power(float(m), 0.0), CF, beta, Interval(0.0, T), tol=1e-8)
        assert report.value == pytest.approx(numerator, abs=1e-8)

    @pytest.mark.parametrize("m,T,beta", L1_CASES)
    def test_denominator_matches_l1_error(self, m, T, beta):
        denominator = (
            T**m
            / gamma(m + beta + 1.0)
            * (gamma(m + beta + 1.0) - gamma(m + 1.0) * T**beta)
        )
        report = error_l1(Power(float(m), 0.0), C, beta, Interval(0.0, T), tol=1e-8)
        assert report.value == pytest.approx(denominator, abs=1e-8)

    # mpmath at 80 digits: the numerator's Gamma(m+1) E_{1,m+1}(-x) as
    # m! (e^-x - sum_{k<m} (-x)^k / k!) / (-x)^m, x = ((1-beta)/beta) T, and the
    # denominator from mp.gamma(m + beta + 1), beta the double given
    SMALL_BETA_RATIOS = [
        (3, 1.0, 1e-12, 1.592207521845409),
        (3, 2.0, 1e-14, 0.88814602323135715),
        (5, 2.0, 1e-17, 1.4807933873289268),
        (10, 9.0, 1e-13, 0.71903540249322861),
        (4, 1.0, 1e-10, 1.9918762408700342),
    ]

    @pytest.mark.parametrize("m,T,beta,want", SMALL_BETA_RATIOS)
    def test_small_beta_against_mpmath(self, m, T, beta, want):
        # m + 1 + beta rounds a beta this small away
        assert ratio_cf_over_c_l1(m, T, beta).value == pytest.approx(want, rel=1e-12, abs=0.0)

    @staticmethod
    def _mp_ratio(m, T, beta):
        # mpmath at 50 digits with the double T and beta
        with mp.workdps(50):
            b, t = mp.mpf(beta), mp.mpf(T)
            z = -(1 - b) / b * t
            ml = (mp.exp(z) - sum(z**k / mp.factorial(k) for k in range(m))) / z**m
            num = t**m / (1 - b) * (mp.factorial(m) * ml - b)
            den = t**m / mp.gamma(m + b + 1) * (mp.gamma(m + b + 1) - mp.factorial(m) * t**b)
            return float(num / den)

    def test_where_the_closed_form_would_cancel(self):
        # E_{1,11}(-2.2): right of 3 - omega, where the closed form's partial
        # sum of e^z cancels
        want = self._mp_ratio(10, 1.1, 0.5)
        assert ratio_cf_over_c_l1(10, 1.1, 0.5).value == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_against_mpmath_from_a_tenth_to_the_limit(self, m):
        # for 1e-3 <= beta < 0.1, ln Gamma(1 + beta) was math.lgamma's, which
        # left m = 10, T = 9, beta 1.5e-3 1.9e-12 relative off
        for T in sorted({1.0, m - 1.0}):
            for beta in RATIO_BETAS:
                want = self._mp_ratio(m, T, beta)
                got = ratio_cf_over_c_l1(m, T, beta).value
                assert got == pytest.approx(want, rel=5e-14, abs=0.0), (T, beta)

    def test_tiniest_beta_is_the_limit(self):
        for T in (1.0, 2.0):
            got = ratio_cf_over_c_l1(3, T, 1e-17).value
            assert got == pytest.approx(ratio_limit(3, T).value, rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ratio_cf_over_c_l1(3, 2.5, 0.1)  # T > m - 1
        with pytest.raises(DomainError):
            ratio_cf_over_c_l1(1, 0.5, 0.1)
        with pytest.raises(DomainError):
            ratio_cf_over_c_l1(3, 1.0, 0.0)


class TestRatioLimit:
    def test_reference_values(self):
        assert ratio_limit(3, 1.0).value == pytest.approx(1.592207522, abs=1e-8)
        assert ratio_limit(5, 4.0).value == pytest.approx(0.7816816178, abs=1e-8)
        assert ratio_limit(6, 1.0).value == pytest.approx(2.669821563, abs=1e-8)

    def test_digamma_expression(self):
        # independent recomputation from the digamma recurrence
        euler_gamma = 0.5772156649015329
        psi4 = 11.0 / 6.0 - euler_gamma
        assert ratio_limit(3, 1.0).value == pytest.approx(2.0 / psi4, rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ratio_limit(3, 0.0)
        with pytest.raises(DomainError):
            ratio_limit(3, 2.00001)
        with pytest.raises(DomainError):
            ratio_limit(2.5, 1.0)


class TestTable:
    def test_rows(self):
        rows = table1()
        assert [m for m, _, _ in rows] == [3, 4, 5, 6]
        for m, at_one, at_top in rows:
            ref_one, ref_top = TABLE_REFERENCE[m]
            assert at_one == pytest.approx(ref_one, abs=1e-8)
            assert at_top == pytest.approx(ref_top, abs=1e-8)

    def test_bit_identical_to_ratio_limit(self):
        # the reference formulation: eight ratio_limit calls, one digamma each
        reference = [
            (m, ratio_limit(m, 1.0).value, ratio_limit(m, float(m - 1)).value)
            for m in (3, 4, 5, 6)
        ]
        assert table1() == reference

    def test_finite_beta_approach(self):
        for m, _, _ in table1():
            for T in (1.0, float(m - 1)):
                finite = ratio_cf_over_c_l1(m, T, 1e-5).value
                limit = ratio_limit(m, T).value
                assert abs(finite - limit) <= 1e-2


class TestTStar:
    def test_known_value(self):
        # for m=2, beta=1/2 the defining equation reduces to (1-e^-x)/x = 1/2
        # with v = x beta/(1-beta); bisect it independently
        lo, hi = 1.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (1.0 - math.exp(-mid)) / mid > 0.5:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)  # equals v since beta/(1-beta) = 1
        assert t_star(2, 0.5) == pytest.approx(oracle, abs=1e-8)
        assert t_star(2, 0.5) == pytest.approx(1.59362426, abs=1e-6)

    def test_bound_and_residual(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            m = int(rng.integers(2, 9))
            beta = float(rng.uniform(0.01, 0.99))
            v = t_star(m, beta)
            assert v >= m - 1
            rate = (1.0 - beta) / beta
            residual = gamma(float(m)) * mittag_leffler_one(float(m), -rate * v) - beta
            assert abs(residual) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            t_star(1, 0.5)
        with pytest.raises(DomainError):
            t_star(3, 0.0)

    ORACLE_CASES = [
        (m, beta)
        for m in range(2, 11)
        for beta in (0.99, 0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
    ]

    @pytest.mark.parametrize("m,beta", ORACLE_CASES)
    def test_against_mpmath(self, m, beta):
        # Gamma(m) E_{1,m}(z) = (m-1)! z^(1-m) (e^z - sum_{k<m-1} z^k/k!) at 50
        # digits, the double beta, solved on [m-1, m]
        with mp.workdps(50):
            b = mp.mpf(beta)
            rate = (1 - b) / b

            def g(v):
                z = -rate * v
                head = sum(z**k / mp.factorial(k) for k in range(m - 1))
                return mp.factorial(m - 1) * (mp.exp(z) - head) / z ** (m - 1) - b

            want = float(mp.findroot(g, (mp.mpf(m - 1), mp.mpf(m)), solver="anderson"))
        assert t_star(m, beta) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m,beta", ORACLE_CASES)
    def test_newton_call_count(self, monkeypatch, m, beta):
        # one paired value and slope per Newton iterate, from the first at m - 1
        calls = []
        pair = specfun._mittag_leffler_one_pair

        def counted(m, z):
            calls.append(z)
            return pair(m, z)

        monkeypatch.setattr(specfun, "_mittag_leffler_one_pair", counted)
        t_star(m, beta)
        assert 1 <= len(calls) <= 6

    @pytest.mark.parametrize(
        "m,beta,fake,match",
        [
            # fakes of (E_{1,m}(z), E_{1,m-1}(z))
            # g(m-1) = -beta: no root at or right of m - 1
            (3, 0.5, lambda m, z: (0.0, 0.0), "already negative"),
            # g = 1 + e^z - beta > 0 everywhere and flat: a slope of 0
            (
                3,
                0.5,
                lambda m, z: ((1.0 + math.exp(z)) / gamma(m), (1.0 + math.exp(z)) / gamma(m - 1)),
                "found no root",
            ),
            # g = 3/2 everywhere, slope -4/v: each step multiplies v by 1.375, past the cap
            (3, 0.5, lambda m, z: (1.0, 0.0), "found no root"),
            # g = 1/2 and slope -1/2 at every v: unit steps, the step count runs out
            (2, 0.5, lambda m, z: (1.0, 1.0 + 0.5 * z), "found no root"),
        ],
        ids=["negative-at-m-1", "flat", "past-the-cap", "steps-run-out"],
    )
    def test_no_root_is_refused(self, monkeypatch, m, beta, fake, match):
        calls = []

        def counted(m, z):
            calls.append(z)
            return fake(m, z)

        monkeypatch.setattr(specfun, "_mittag_leffler_one_pair", counted)
        with pytest.raises(BracketingError, match=match):
            t_star(m, beta)
        assert len(calls) <= 51  # bounded: one pair at m - 1, then one per step

    @pytest.mark.parametrize("m,beta", ORACLE_CASES)
    def test_bit_identical_to_single_calls(self, m, beta):
        assert t_star(m, beta) == _t_star_single_calls(m, beta)

    def test_bit_identical_on_the_bench_pairs(self):
        pairs = [(p["m"], p["beta"]) for p in BENCH_REFS["ratio"]]
        assert len(pairs) == 48
        assert [t_star(m, b) for m, b in pairs] == [_t_star_single_calls(m, b) for m, b in pairs]

    @pytest.mark.parametrize("beta", [1e-320, 5e-324])
    def test_subnormal_beta_is_refused(self, beta):
        # (1 - beta)/beta overflows: refused by beta, not by an internal z = -inf
        with pytest.raises(NumericalError, match=f"beta={beta!r} is too small"):
            t_star(3, beta)


class TestSStar:
    def test_known_value(self):
        assert s_star(2, 0.5) == pytest.approx((gamma(2.5) / gamma(2.0)) ** 2, rel=1e-13, abs=0.0)

    def test_bound_and_residual(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            m = int(rng.integers(2, 9))
            beta = float(rng.uniform(0.01, 0.99))
            w = s_star(m, beta)
            assert w >= m - 1
            residual = math.exp(
                beta * math.log(w) + ln_gamma(float(m)) - ln_gamma(m + beta)
            ) - 1.0
            assert abs(residual) <= 1e-9

    @pytest.mark.parametrize(
        "beta", [1e-17, 1e-30, 1e-100, 1e-300, 2.2e-308, 1e-310, 1e-315, 1e-320, 1e-322, 5e-324]
    )
    def test_subnormal_beta_keeps_its_value(self, beta):
        # s* takes no (1 - beta)/beta, so the beta t* refuses still has an
        # answer: mpmath's (Gamma(m + beta) / Gamma(m))^(1/beta), which below
        # 1e-17 is e^Psi(m), 2.5162868309393636 at m = 3, to well under 1e-15
        with mp.workdps(int(-math.log10(beta)) + 40):
            b = mp.mpf(beta)
            for m in range(2, 11):
                want = float((mp.gamma(m + b) / mp.gamma(m)) ** (1 / b))
                assert s_star(m, beta) == pytest.approx(want, rel=1e-15, abs=0.0), m

    def test_small_beta_limit(self):
        # s*(beta) -> e^(Psi(m)) as beta -> 0
        from fracorder import digamma

        for m in (2, 5):
            assert s_star(m, 1e-6) == pytest.approx(math.exp(digamma(float(m))), abs=1e-4)
        assert s_star(2, 1e-6) == pytest.approx(1.5262, abs=1e-3)

    @pytest.mark.parametrize(
        "m,beta,want",
        [
            # mpmath at 80 digits: (Gamma(m + beta) / Gamma(m))^(1/beta)
            (2, 1e-14, 1.5262051115958688),
            (7, 1e-12, 6.5063871643696716),
            (3, 1e-17, 2.5162868309393636),
            (5, 1e-10, 4.5091905949667743),
        ],
    )
    def test_small_beta_against_mpmath(self, m, beta, want):
        assert s_star(m, beta) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_against_mpmath_from_a_tenth_to_the_limit(self, m):
        # mpmath at 50 digits: (Gamma(m + beta) / Gamma(m))^(1/beta); at
        # beta 1.5e-3, math.lgamma(1 + beta) left m = 6 3.0e-13 relative off
        with mp.workdps(50):
            for beta in RATIO_BETAS:
                b = mp.mpf(beta)
                want = float((mp.gamma(m + b) / mp.gamma(m)) ** (1 / b))
                assert s_star(m, beta) == pytest.approx(want, rel=1e-14, abs=0.0), beta


class TestSupNormExamples:
    def test_identity_function_verdict(self):
        # sup-norm error of f(t) = t: Caputo error is exactly 1 and the
        # exponential-kernel error is at least 1, so the ratio is >= 1
        for beta in (0.1, 0.01):
            c = error_linf(Affine(1.0, 0.0), C, beta, I01)
            cf = error_linf(Affine(1.0, 0.0), CF, beta, I01)
            assert c.value == pytest.approx(1.0, abs=1e-12)
            assert cf.value >= c.value - 1e-12
