"""Error functionals: closed-form agreement, sup-norm candidates, sweeps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracorder import norms, operators
from fracorder import (
    AbsShift,
    Affine,
    BudgetExceededError,
    Cosine,
    DomainError,
    ErrorReport,
    Exponential,
    Interval,
    NonDifferentiableError,
    NormKind,
    NumericalError,
    OperatorKind,
    Power,
    QuadratureScheme,
    StepAntiderivative,
    error_l1,
    error_linf,
    error_sweep,
    gamma,
    parse_function,
)

RL = OperatorKind.RIEMANN_LIOUVILLE
C = OperatorKind.CAPUTO
CF = OperatorKind.CAPUTO_FABRIZIO
I01 = Interval(0.0, 1.0)
ONE = Affine(0.0, 1.0)


def cf_exp_l1(beta: float, b: float) -> float:
    # |CF D e^t - e^t| integrates to (beta/(1-beta)) (1 - e^(-((1-beta)/beta) b))
    return beta / (1.0 - beta) * (1.0 - math.exp(-(1.0 - beta) / beta * b))


class TestErrorL1:
    def test_rl_constant(self):
        # E = b^beta / Gamma(beta+1) for f = 1 on (0, b)
        report = error_l1(ONE, RL, 0.5, I01)
        assert report.value == pytest.approx(1.0 / gamma(1.5), abs=1e-8)
        assert report.p is NormKind.L1
        assert report.n_eval_points >= 1

    def test_cf_exponential(self):
        report = error_l1(Exponential(), CF, 0.25, I01)
        assert report.value == pytest.approx(cf_exp_l1(0.25, 1.0), abs=1e-8)
        assert report.value == pytest.approx(0.3167376438, abs=1e-8)

    def test_constant_function_zero(self):
        for kind in (C, CF):
            report = error_l1(ONE, kind, 0.3, I01)
            assert report.value == pytest.approx(0.0, abs=1e-10)

    def test_rl_non_vanishing(self):
        for beta in (0.1, 0.01, 0.001):
            report = error_l1(ONE, RL, beta, I01)
            assert report.value == pytest.approx(1.0 / gamma(1.0 + beta), abs=1e-8)
            assert report.value >= 0.9

    def test_rl_shifted_interval_with_smooth_remainder(self):
        # f(t) = t + 1 on (0.5, 1.5): the error integrand
        # 1.5 (t-a)^(beta-1)/Gamma(beta) + (t-a)^beta/Gamma(1+beta) - 1
        # is positive throughout, so the norm integrates in closed form
        f = Affine(1.0, 1.0)
        interval = Interval(0.5, 1.5)
        for beta in (0.5, 0.2, 0.01, 0.001):
            report = error_l1(f, RL, beta, interval)
            exact = 1.5 / gamma(1.0 + beta) + 1.0 / gamma(2.0 + beta) - 1.0
            assert report.value == pytest.approx(exact, abs=1e-8)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            error_l1(Cosine(), C, 0.5, I01, max_evals=40)

    def test_beta_validation(self):
        with pytest.raises(DomainError):
            error_l1(ONE, C, 1.0, I01)
        with pytest.raises(DomainError):
            error_l1(ONE, C, 0.5, I01, tol=0.0)

    def test_quadrature_backed_function(self):
        # cosine has no closed forms; compare against a tight reference from
        # a much finer operator grid
        coarse = error_l1(Cosine(), C, 0.3, I01, tol=1e-7, scheme=QuadratureScheme(2048))
        fine = error_l1(Cosine(), C, 0.3, I01, tol=1e-7, scheme=QuadratureScheme(8192))
        assert coarse.value == pytest.approx(fine.value, rel=1e-4)


class TestErrorLinf:
    def test_caputo_identity_function(self):
        # sup |1 - t^beta/Gamma(1+beta)| = 1, attained as t -> 0+
        for beta in (0.25, 0.1):
            report = error_linf(Affine(1.0, 0.0), C, beta, I01)
            assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_cf_identity_function(self):
        report = error_linf(Affine(1.0, 0.0), CF, 0.25, I01)
        assert report.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_function_zero(self):
        report = error_linf(ONE, CF, 0.4, I01)
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_power2_caputo_matches_formula(self):
        # sup 2t|1 - t^beta/Gamma(2+beta)| = (2 beta/(1+beta)) (Gamma(2+beta)/(1+beta))^(1/beta)
        for beta in (0.3, 0.05):
            report = error_linf(Power(2.0, 0.0), C, beta, I01)
            expected = (2.0 * beta / (1.0 + beta)) * (gamma(2.0 + beta) / (1.0 + beta)) ** (
                1.0 / beta
            )
            assert report.value == pytest.approx(expected, rel=1e-9)

    def test_interior_maximum_found_by_refinement(self):
        # coarse grids must still nail the interior max thanks to golden-section
        report = error_linf(Power(2.0, 0.0), C, 0.2, I01, n_grid=101)
        expected = (2.0 * 0.2 / 1.2) * (gamma(2.2) / 1.2) ** 5.0
        assert report.value == pytest.approx(expected, rel=1e-7)

    def test_rl_unbounded_when_f_a_nonzero(self):
        # f(a)(t-a)^(beta-1)/Gamma(beta) grows without bound as t -> a+
        for interval in (I01, Interval(0.5, 1.5)):
            report = error_linf(Affine(1.0, 1.0), RL, 0.5, interval, n_grid=100)
            assert report.value == math.inf
            assert report.n_eval_points == 1

    def test_rl_with_f_a_zero_is_caputo(self):
        # no boundary term: the RL and Caputo errors coincide
        f = Power(2.0, 0.0)
        rl = error_linf(f, RL, 0.2, I01, n_grid=101)
        c = error_linf(f, C, 0.2, I01, n_grid=101)
        assert rl.value == pytest.approx(c.value, rel=1e-12)
        assert rl.n_eval_points == 101 + 62

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            error_linf(ONE, C, 0.5, I01, n_grid=1)

    def test_eval_count_matches_operator_calls(self, monkeypatch):
        calls = 0
        original = operators.caputo

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(operators, "caputo", counting)
        n_grid = 201
        report = error_linf(Cosine(), C, 0.3, I01, n_grid=n_grid, scheme=QuadratureScheme(64))
        # the grid scan is one evaluate_grid call, the 62 golden-section steps
        # are scalar; n_eval_points adds the boundary candidate |f'(a+)|
        assert calls == 62
        assert report.n_eval_points == n_grid + 62 + 1


class TestNormComparison:
    @pytest.mark.parametrize(
        "f,interval",
        [
            (Affine(1.0, 1.0), I01),
            (Exponential(), I01),
            (Power(2.0, 0.0), I01),
            (AbsShift(0.5), I01),
            (Cosine(), I01),
            (StepAntiderivative(((0.1, 0.4),), (2.0,)), I01),
            (AbsShift(1.0), Interval(0.0, 2.0)),
        ],
    )
    @pytest.mark.parametrize("kind", [C, CF])
    def test_l1_below_width_times_linf(self, f, kind, interval):
        beta = 0.3
        tol = 1e-6
        l1 = error_l1(f, kind, beta, interval, tol, scheme=QuadratureScheme(1024))
        linf = error_linf(f, kind, beta, interval, n_grid=2001, scheme=QuadratureScheme(1024))
        assert l1.value <= interval.width * linf.value + tol


    @pytest.mark.parametrize(
        "name",
        [
            "cos",
            "exp",
            "abs:0.5",
            "power:2",
            "power:2.5",
            "affine:1,1",
            "affine:2,0",
            "step:0.2,0.6,2",
        ],
    )
    @pytest.mark.parametrize("kind", [C, CF, RL])
    @pytest.mark.parametrize("beta", [0.5, 0.1, 1e-2, 1e-3])
    def test_l1_below_width_times_linf_as_beta_vanishes(self, name, kind, beta):
        f = parse_function(name)
        tol = 1e-6
        l1 = error_l1(f, kind, beta, I01, tol)
        linf = error_linf(f, kind, beta, I01, n_grid=2001)
        assert l1.value <= I01.width * linf.value + tol


class TestDerivativeGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.one_of(
            st.integers(1, 150).map(lambda k: ("abs:0.5", 2 * k)),
            st.integers(1, 60).map(lambda k: ("step:0.2,0.6,2", 5 * k)),
        )
    )
    def test_matches_pointwise_on_breakpoints(self, case):
        name, n = case
        f = parse_function(name)
        ts = operators._grid_points(0.0, 1.0, n)
        assert np.isin(ts, f.breakpoints()).any()
        nudge = 1e-12
        got = norms._derivative_grid(f, ts, nudge).tolist()
        for t, value in zip(ts.tolist(), got):
            try:
                want = norms._derivative_off_kinks(f, t, nudge)
            except NonDifferentiableError:
                assert math.isnan(value)
            else:
                assert value == want


class TestErrorSweep:
    def test_rl_constant_values(self):
        reports = error_sweep(ONE, RL, NormKind.L1, [0.1, 0.01], I01)
        assert [r.beta for r in reports] == [0.1, 0.01]
        assert reports[0].value == pytest.approx(1.0 / gamma(1.1), abs=1e-8)
        assert reports[1].value == pytest.approx(1.0 / gamma(1.01), abs=1e-8)

    def test_constant_zero_everywhere(self):
        reports = error_sweep(ONE, C, NormKind.L1, [0.4, 0.2, 0.1], I01)
        assert all(r.value == pytest.approx(0.0, abs=1e-10) for r in reports)

    def test_cf_exponential_matches_formula(self):
        betas = [0.2, 0.1, 0.05]
        reports = error_sweep(Exponential(), CF, NormKind.L1, betas, I01)
        for r, beta in zip(reports, betas):
            assert r.value == pytest.approx(cf_exp_l1(beta, 1.0), abs=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            error_sweep(ONE, C, NormKind.L1, [], I01)
        with pytest.raises(DomainError):
            error_sweep(ONE, C, NormKind.L1, [0.1, 0.2], I01)

    def test_element_error_carries_beta(self):
        with pytest.raises(BudgetExceededError, match=r"beta=0\.2"):
            error_sweep(Cosine(), C, NormKind.L1, [0.2, 0.1], I01, max_evals=40)

    def test_element_error_keeps_type_with_any_constructor(self):
        class TwoArgError(NumericalError):
            def __init__(self, where, why):
                super().__init__(f"{why} at {where}")
                self.where = where

        class Broken(Cosine):
            def derivative(self, t):
                raise TwoArgError(t, "sensor offline")

        with pytest.raises(TwoArgError, match=r"beta=0\.2.*sensor offline") as info:
            error_sweep(Broken(), C, NormKind.L1, [0.2, 0.1], I01)
        assert isinstance(info.value.where, float)
        assert type(info.value.__cause__) is TwoArgError
        assert "beta" not in str(info.value.__cause__)


class TestErrorReport:
    def test_validation(self):
        with pytest.raises(DomainError):
            ErrorReport(C, 0.5, NormKind.L1, I01, -1.0, 10)
        with pytest.raises(DomainError):
            ErrorReport(C, 1.5, NormKind.L1, I01, 1.0, 10)
        with pytest.raises(DomainError):
            ErrorReport(C, 0.5, NormKind.L1, I01, 1.0, 0)


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs most of the import time and only the L1
    # functional and custom kernels use it; the grid scan and figures use
    # numpy.fft, not scipy.fft or scipy.signal, whose imports cost more still
    src = str(Path(operators.__file__).resolve().parents[1])
    code = (
        "import os, sys, fracorder\n"
        "from fracorder import Cosine, Interval, OperatorKind, error_linf\n"
        "from fracorder.cli import main\n"
        "error_linf(Cosine(), OperatorKind.CAPUTO, 0.1, Interval(0.0, 1.0), n_grid=64)\n"
        "assert main(['figures', '-f', 'cos', '--interval', '0,1', '--out', os.devnull]) == 0\n"
        "print(sorted({'scipy.integrate', 'scipy.fft', 'scipy.signal'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
