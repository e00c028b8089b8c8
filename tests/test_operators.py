"""Operator values against closed forms, identities and quadrature properties."""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracorder import (
    AbsShift,
    Affine,
    CaputoFabrizioKernel,
    CaputoKernel,
    Cosine,
    CustomKernel,
    DomainError,
    Exponential,
    FractionalOrder,
    IntegrationError,
    Interval,
    NonDifferentiableError,
    OperatorKind,
    Power,
    QuadratureScheme,
    StepAntiderivative,
    TestFunction,
    caputo,
    caputo_fabrizio,
    closed_form_fractional,
    error_l1,
    error_linf,
    evaluate,
    evaluate_grid,
    gamma,
    generic_kernel_derivative,
    parse_function,
    riemann_liouville,
    rl_integral,
)
from fracorder import operators
from fracorder.funcat import rl_boundary_term

mp.mp.dps = 30

CATALOG = [
    Affine(1.0, 1.0),
    Affine(0.0, 1.0),
    Power(2.0, 0.0),
    Exponential(),
    Cosine(),
    AbsShift(0.4),
    StepAntiderivative(((0.1, 0.3), (0.5, 0.8)), (1.5, -0.5)),
]


class TestFractionalOrder:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_rejects_outside_open_interval(self, alpha):
        with pytest.raises(DomainError):
            FractionalOrder(alpha)

    def test_beta_complement(self):
        order = FractionalOrder.from_beta(0.25)
        assert order.alpha == 0.75
        assert order.beta == 0.25

    def test_scheme_validation(self):
        with pytest.raises(DomainError):
            QuadratureScheme(n_nodes=1)

    @given(x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_keeps_the_value_it_was_given(self, x):
        from_alpha, from_beta = FractionalOrder(x), FractionalOrder.from_beta(x)
        assert from_alpha.alpha == x and from_alpha.beta == 1.0 - x
        assert from_beta.beta == x and from_beta.alpha == 1.0 - x
        for order in (from_alpha, from_beta):
            assert order.rate == order.alpha / order.beta

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.99])
    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: type(f).__name__)
    def test_float_and_order_give_the_same_bits(self, f, alpha):
        order, a, t = FractionalOrder(alpha), 0.0, 0.9
        for op in (caputo, caputo_fabrizio, riemann_liouville):
            assert op(f, alpha, a, t) == op(f, order, a, t)
        for kind in OperatorKind:
            assert evaluate_grid(kind, f, alpha, a, 1.0, 17).tolist() == (
                evaluate_grid(kind, f, order, a, 1.0, 17).tolist()
            )
            assert closed_form_fractional(f, kind, alpha, a, t) == (
                closed_form_fractional(f, kind, order, a, t)
            )
        ts = np.linspace(0.1, 1.0, 5)
        assert rl_boundary_term(f, alpha, a, t) == rl_boundary_term(f, order, a, t)
        assert rl_boundary_term(f, alpha, a, ts).tolist() == (
            rl_boundary_term(f, order, a, ts).tolist()
        )

    def test_small_beta_is_not_rounded_away(self):
        # 1 - (1 - 1e-12) is 9.99978e-13: a beta passed through alpha would
        # move both values by about 2e-5 relative
        beta = 1e-12
        order = FractionalOrder.from_beta(beta)
        with mp.workdps(40):
            b = mp.mpf(beta)
            # RL of f = 1 at t = 1 is the boundary term 1 / Gamma(beta)
            rl_exact = 1 / mp.gamma(b)
            # CF of f = t: (1/alpha) (1 - e^(-(alpha/beta) t)) at t = beta
            t = mp.mpf(1e-12)
            cf_exact = -mp.expm1(-(1 - b) / b * t) / (1 - b)
        rl = riemann_liouville(Affine(0.0, 1.0), order, 0.0, 1.0)
        cf = caputo_fabrizio(Affine(1.0, 0.0), order, 0.0, 1e-12)
        assert rl == pytest.approx(float(rl_exact), rel=1e-14)
        assert cf == pytest.approx(float(cf_exact), rel=1e-14)


class TestRlIntegral:
    def test_constant(self):
        # int of order 1/2 of 1 from 0: t^alpha / Gamma(alpha+1)
        got = rl_integral(Affine(0.0, 1.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(1.5), abs=1e-8)

    def test_zero_function(self):
        for alpha in (0.2, 0.8):
            assert rl_integral(Affine(0.0, 0.0), alpha, 0.0, 2.0) == 0.0

    def test_identity_function(self):
        # high-precision quadrature oracle for (1/Gamma(1/2)) int tau (1-tau)^(-1/2)
        oracle = float(
            mp.quad(lambda u: u * (1 - u) ** mp.mpf("-0.5"), [0, 1]) / mp.gamma(mp.mpf("0.5"))
        )
        assert oracle == pytest.approx(1.0 / gamma(2.5), rel=1e-12)
        got = rl_integral(Affine(1.0, 0.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            rl_integral(Exponential(), 0.5, 1.0, 1.0)

    def test_convergence_under_node_doubling(self):
        # fractional integral of t^2.5: exact Gamma(3.5)/Gamma(4) t^3 at alpha=0.5
        exact = gamma(3.5) / gamma(4.0)
        errors = []
        for n in (64, 128, 256, 512):
            got = rl_integral(Power(2.5, 0.0), 0.5, 0.0, 1.0, QuadratureScheme(n))
            errors.append(abs(got - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < 1e-10 or coarse / fine >= 1.8


class TestCaputo:
    def test_identity_function(self):
        # t^(1-alpha)/Gamma(2-alpha) at alpha=0.3, t=1
        got = caputo(Affine(1.0, 0.0), 0.3, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(1.7), rel=1e-12)

    def test_constant_is_zero(self):
        assert caputo(Affine(0.0, 5.0), 0.5, 0.0, 1.0) == 0.0

    def test_absshift_value(self):
        # |t-1| on [0,2] at order 1-beta, beta=0.4, t=1.5
        got = caputo(AbsShift(1.0), 0.6, 0.0, 1.5)
        expected = (2.0 * 0.5**0.4 - 1.5**0.4) / gamma(1.4)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_quadrature_matches_closed_form(self):
        for f, alpha, t in [
            (Power(3.0, 0.0), 0.5, 1.0),
            (Power(2.0, 0.0), 0.25, 1.5),
            (AbsShift(0.4), 0.7, 1.0),
        ]:
            closed = caputo(f, alpha, 0.0, t)
            quad = caputo(f, alpha, 0.0, t, use_closed_form=False)
            assert quad == pytest.approx(closed, abs=2e-6)

    def test_convergence_under_node_doubling(self):
        exact = gamma(4.0) / gamma(3.5)  # Caputo of t^3 at alpha=0.5, t=1
        errors = []
        for n in (64, 128, 256, 512, 1024):
            got = caputo(Power(3.0, 0.0), 0.5, 0.0, 1.0, QuadratureScheme(n), use_closed_form=False)
            errors.append(abs(got - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < 1e-10 or coarse / fine >= 1.8


class TestCaputoFabrizio:
    def test_constant_is_zero(self):
        assert caputo_fabrizio(Affine(0.0, -2.0), 0.5, 0.0, 1.0) == 0.0

    def test_identity_function(self):
        # (1/alpha)(1 - e^(-alpha t/(1-alpha))) at alpha=0.5, t=1
        got = caputo_fabrizio(Affine(1.0, 0.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-13)

    def test_quadratic(self):
        # (2/alpha) t (1 - E_{1,2}(-alpha t/(1-alpha))) = 4/e at alpha=0.5, t=1
        got = caputo_fabrizio(Power(2.0, 0.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(4.0 * math.exp(-1.0), rel=1e-13)

    def test_exponential_vs_quadrature(self):
        closed = caputo_fabrizio(Exponential(), 0.4, 0.0, 1.0)
        quad = caputo_fabrizio(Exponential(), 0.4, 0.0, 1.0, use_closed_form=False)
        assert quad == pytest.approx(closed, abs=1e-7)

    def test_convergence_under_node_doubling(self):
        exact = caputo_fabrizio(Power(3.0, 0.0), 0.6, 0.0, 1.0)
        errors = []
        for n in (64, 128, 256, 512):
            got = caputo_fabrizio(
                Power(3.0, 0.0), 0.6, 0.0, 1.0, QuadratureScheme(n), use_closed_form=False
            )
            errors.append(abs(got - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < 1e-10 or coarse / fine >= 1.8


class TestRiemannLiouville:
    def test_constant(self):
        # f = 1, order 1-beta with beta=0.5, t=0.25: t^(beta-1)/Gamma(beta)
        got = riemann_liouville(Affine(0.0, 1.0), 0.5, 0.0, 0.25)
        assert got == pytest.approx(0.25**-0.5 / gamma(0.5), rel=1e-13)

    def test_vanishing_at_a_equals_caputo(self):
        for alpha, t in [(0.3, 0.7), (0.8, 1.2)]:
            assert riemann_liouville(Affine(1.0, 0.0), alpha, 0.0, t) == caputo(
                Affine(1.0, 0.0), alpha, 0.0, t
            )

    def test_affine_shift(self):
        got = riemann_liouville(Affine(1.0, 1.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(0.5) + 1.0 / gamma(1.5), rel=1e-13)

    def test_identity_structural(self):
        rng = np.random.default_rng(3)
        for f in CATALOG:
            for _ in range(8):
                alpha = float(rng.uniform(0.05, 0.95))
                t = float(rng.uniform(0.9, 2.0))
                lhs = riemann_liouville(f, alpha, 0.0, t)
                rhs = f.value(0.0) * t**-alpha / gamma(1.0 - alpha) + caputo(f, alpha, 0.0, t)
                assert lhs == rhs  # same composition, bit for bit

    def test_against_differentiated_integral(self):
        scheme = QuadratureScheme(16384)
        h = 1e-3
        for f in (Exponential(), Cosine(), Power(2.0, 0.0)):
            for alpha in (0.3, 0.7):
                t = 0.6
                diff = (
                    rl_integral(f, 1.0 - alpha, 0.0, t + h, scheme)
                    - rl_integral(f, 1.0 - alpha, 0.0, t - h, scheme)
                ) / (2.0 * h)
                assert diff == pytest.approx(riemann_liouville(f, alpha, 0.0, t), abs=1e-4)


class OpaqueCosine(Cosine):
    """cos with its closed forms hidden, so every value is product quadrature."""

    def _closed_form_grid(self, kind, alpha, a, ts):
        return None


class OpaqueExponential(Exponential):
    """e^t with its closed forms hidden, so every value is product quadrature."""

    def _closed_form_grid(self, kind, alpha, a, ts):
        return None


class TestCosineAgainstHighPrecision:
    """Cross-validate the generic quadrature path, and the closed forms, on a
    transcendental function.

    The mpmath oracles substitute w = u^p to remove the endpoint singularity
    entirely (plain tanh-sinh misjudges u^(-0.95) by ~1e-3), leaving smooth
    integrands that are trustworthy at every order.
    """

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("t", [0.6, 1.0])
    def test_caputo(self, alpha, t):
        a, T = mp.mpf(alpha), mp.mpf(t)
        p = 1 - a
        oracle = mp.quad(lambda w: -mp.sin(T - w ** (1 / p)), [0, T**p]) / (p * mp.gamma(p))
        assert caputo(OpaqueCosine(), alpha, 0.0, t) == pytest.approx(float(oracle), abs=1e-7)
        assert caputo(Cosine(), alpha, 0.0, t) == pytest.approx(float(oracle), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("t", [0.6, 1.0])
    def test_caputo_fabrizio(self, alpha, t):
        a, T = mp.mpf(alpha), mp.mpf(t)
        rate = a / (1 - a)
        oracle = mp.quad(lambda tau: -mp.sin(tau) * mp.exp(-rate * (T - tau)), [0, T]) / (1 - a)
        quad = caputo_fabrizio(OpaqueCosine(), alpha, 0.0, t)
        assert quad == pytest.approx(float(oracle), abs=1e-7)
        assert caputo_fabrizio(Cosine(), alpha, 0.0, t) == pytest.approx(float(oracle), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95])
    def test_rl_integral(self, alpha):
        a, T = mp.mpf(alpha), mp.mpf(1.0)
        oracle = mp.quad(lambda w: mp.cos(T - w ** (1 / a)), [0, T**a]) / (a * mp.gamma(a))
        assert rl_integral(Cosine(), alpha, 0.0, 1.0) == pytest.approx(float(oracle), abs=1e-7)


class TestLinearity:
    def test_affine_combination(self):
        for op in (caputo, caputo_fabrizio):
            for alpha, t in [(0.2, 0.8), (0.6, 1.7)]:
                combo = op(Affine(2.0, 3.0), alpha, 0.0, t)
                parts = 2.0 * op(Affine(1.0, 0.0), alpha, 0.0, t) + 3.0 * op(
                    Affine(0.0, 1.0), alpha, 0.0, t
                )
                assert combo == pytest.approx(parts, abs=1e-10)

    def test_step_superposition(self):
        a = StepAntiderivative(((0.0, 0.5),), (1.0,))
        b = StepAntiderivative(((1.0, 1.5),), (1.0,))
        both = StepAntiderivative(((0.0, 0.5), (1.0, 1.5)), (2.0, -1.0))
        for op in (caputo, caputo_fabrizio):
            got = op(both, 0.4, 0.0, 1.8)
            parts = 2.0 * op(a, 0.4, 0.0, 1.8) - 1.0 * op(b, 0.4, 0.0, 1.8)
            assert got == pytest.approx(parts, abs=1e-10)

    def test_quadrature_path_linearity(self):
        scheme = QuadratureScheme(512)
        combo = caputo(Affine(2.0, 3.0), 0.5, 0.0, 1.0, scheme, use_closed_form=False)
        parts = 2.0 * caputo(
            Affine(1.0, 0.0), 0.5, 0.0, 1.0, scheme, use_closed_form=False
        ) + 3.0 * caputo(Affine(0.0, 1.0), 0.5, 0.0, 1.0, scheme, use_closed_form=False)
        assert combo == pytest.approx(parts, abs=1e-10)


class TestPointwiseConvergence:
    """Operator values approach f'(t) on (0,1) as the order climbs to 1."""

    LADDER = (0.9, 0.99, 0.999)

    @pytest.mark.parametrize("f", [Affine(1.0, 1.0), Cosine()])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio, riemann_liouville])
    def test_error_ladder(self, f, t, op):
        errs = [abs(op(f, alpha, 0.0, t) - f.derivative(t)) for alpha in self.LADDER]
        assert errs[-1] < 1e-2
        if op is caputo_fabrizio and isinstance(f, Affine) and t == 0.25:
            # Exact non-monotone cell: (1/a)(1 - e^(-a t/(1-a))) - 1 changes
            # sign near a = 0.9 (kernel-mass deficit e^(-at/(1-a)) crosses the
            # prefactor surplus (1-a)/a), so only the net decrease holds.
            assert errs[-1] < errs[0]
        else:
            for coarse, fine in zip(errs, errs[1:]):
                assert fine <= coarse + 1e-9


class TestEvaluate:
    @pytest.mark.parametrize(
        "kind,op",
        [
            (OperatorKind.RIEMANN_LIOUVILLE, riemann_liouville),
            (OperatorKind.CAPUTO, caputo),
            (OperatorKind.CAPUTO_FABRIZIO, caputo_fabrizio),
        ],
    )
    def test_dispatch_matches_operator(self, kind, op):
        scheme = QuadratureScheme(256)
        for f in (Cosine(), Affine(1.0, 1.0)):
            assert evaluate(kind, f, 0.6, 0.0, 0.7, scheme) == op(f, 0.6, 0.0, 0.7, scheme)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            evaluate("C", Cosine(), 0.6, 0.0, 0.7)


#: catalog entries with max |f''| and max |f'''| on [0, 1], for the trapezoid
#: bound; None where every operator value has a closed form.  The opaque
#: entries keep the whole-grid product quadrature covered.
GRID_FUNCTIONS = {
    "cos": (Cosine(), 1.0, 1.0),
    "exp": (Exponential(), math.e, math.e),
    "opaque cos": (OpaqueCosine(), 1.0, 1.0),
    "opaque exp": (OpaqueExponential(), math.e, math.e),
    "power:2,-0.5": (parse_function("power:2,-0.5"), 2.0, 0.0),
    "affine:1,1": (parse_function("affine:1,1"), 0.0, 0.0),
    "abs:0.5": (parse_function("abs:0.5"), None, None),
    "step:0.2,0.6,2": (parse_function("step:0.2,0.6,2"), None, None),
}
GRID_NODES = 64

#: relative to max|grid|, how far a closed form on the grid may lie from the
#: same hook taken at one point: a series summed for the whole grid may add a
#: term more than for one point, which can move the last bit
CLOSED_FORM_TOL = 1e-15


def _kernel_mass(kind, alpha, t):
    """Integral over (0, t) of the C or CF kernel of order alpha."""
    if kind is OperatorKind.CAPUTO:
        return t ** (1.0 - alpha) / gamma(2.0 - alpha)
    return -math.expm1(-alpha / (1.0 - alpha) * t) / alpha


class TestEvaluateGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.99),
        n=st.integers(2, 300),
        name=st.sampled_from(sorted(GRID_FUNCTIONS)),
        kind=st.sampled_from([OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO]),
    )
    def test_matches_pointwise(self, alpha, n, name, kind):
        f, d2, d3 = GRID_FUNCTIONS[name]
        scheme = QuadratureScheme(GRID_NODES)
        grid = evaluate_grid(kind, f, alpha, 0.0, 1.0, n, scheme)
        h_grid = 1.0 / (n * math.ceil(GRID_NODES / n))
        scale = float(np.max(np.abs(grid)))
        for i, value in enumerate(grid.tolist(), start=1):
            t = i / n
            pointwise = evaluate(kind, f, alpha, 0.0, t, scheme)
            if closed_form_fractional(f, kind, alpha, 0.0, t) is not None:
                assert abs(value - pointwise) <= CLOSED_FORM_TOL * scale
                continue
            # both product trapezoids lie within h^2/8 max|f'''| (kernel mass)
            # of the exact value; each insets its end nodes by 1e-9 of the
            # segment, which moves the result by up to 1e-9 max|f''| (kernel mass)
            mass = _kernel_mass(kind, alpha, t)
            bound = (h_grid**2 + (t / GRID_NODES) ** 2) / 8 * d3 * mass + 4e-9 * d2 * mass
            assert abs(value - pointwise) <= bound + 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.99),
        n=st.integers(2, 300),
        name=st.sampled_from(sorted(GRID_FUNCTIONS)),
    )
    def test_rl_is_boundary_term_plus_caputo(self, alpha, n, name):
        f = GRID_FUNCTIONS[name][0]
        scheme = QuadratureScheme(GRID_NODES)
        rl = evaluate_grid(OperatorKind.RIEMANN_LIOUVILLE, f, alpha, 0.0, 1.0, n, scheme)
        c = evaluate_grid(OperatorKind.CAPUTO, f, alpha, 0.0, 1.0, n, scheme)
        ts = np.arange(1, n + 1) / n
        np.testing.assert_array_equal(rl, rl_boundary_term(f, alpha, 0.0, ts) + c)

    def test_breakpoint_without_closed_form_is_pointwise(self):
        class OpaqueAbs(AbsShift):
            def _closed_form_grid(self, kind, alpha, a, ts):
                return None

        f = OpaqueAbs(0.5)
        scheme = QuadratureScheme(128)
        for kind in OperatorKind:
            grid = evaluate_grid(kind, f, 0.7, 0.0, 1.0, 5, scheme)
            pointwise = [evaluate(kind, f, 0.7, 0.0, i / 5, scheme) for i in range(1, 6)]
            assert grid.tolist() == pointwise

    def test_missing_closed_forms_filled_by_quadrature(self):
        # the E_{1,gamma} series is not trusted left of -15, so Power(2.5)
        # under CF at alpha 0.99 has closed forms only for t <= 15/99
        f, alpha, kind = Power(2.5), 0.99, OperatorKind.CAPUTO_FABRIZIO
        grid = evaluate_grid(kind, f, alpha, 0.0, 1.0, 50)
        ts = [i / 50 for i in range(1, 51)]
        closed = [closed_form_fractional(f, kind, alpha, 0.0, t) for t in ts]
        assert 0 < sum(v is None for v in closed) < len(ts)
        scale = float(np.max(np.abs(grid)))
        for t, value, known in zip(ts, grid.tolist(), closed):
            if known is not None:
                assert abs(value - known) <= CLOSED_FORM_TOL * scale
            else:
                assert value == pytest.approx(evaluate(kind, f, alpha, 0.0, t), abs=1e-7)

    def test_points_past_the_reach_skip_a_second_closed_form_try(self, monkeypatch):
        # the closed form is tried once, on all the points; those past cos's
        # Caputo reach (10 + ln Gamma(1/2) = 10.57) go straight to quadrature,
        # the whole-grid trapezoid on a grid, pointwise for scattered points
        sizes = []
        original = Cosine._closed_form_grid

        def counting(self, kind, alpha, a, ts):
            sizes.append(len(ts))
            return original(self, kind, alpha, a, ts)

        monkeypatch.setattr(Cosine, "_closed_form_grid", counting)
        evaluate_grid(OperatorKind.CAPUTO, Cosine(), 0.5, 0.0, 30.0, 301)
        assert sizes == [301]
        sizes.clear()
        ts, scheme = np.array([5.0, 20.0, 25.0]), QuadratureScheme(64)
        values = operators._evaluate_points(
            OperatorKind.CAPUTO, Cosine(), FractionalOrder(0.5), 0.0, ts, scheme
        )
        assert sizes == [3]
        quad = [caputo(Cosine(), 0.5, 0.0, t, scheme, use_closed_form=False) for t in (20.0, 25.0)]
        assert values[1:].tolist() == quad

    def test_points_match_scalar_expression(self):
        f, a, b, n = Affine(1.0, 0.0), 0.1, 0.7, 7
        grid = evaluate_grid(OperatorKind.CAPUTO, f, 0.5, a, b, n)
        assert grid.tolist() == [caputo(f, 0.5, a, a + (b - a) * i / n) for i in range(1, n + 1)]

    @pytest.mark.parametrize(
        "kind,alpha,a,b,n",
        [
            ("C", 0.5, 0.0, 1.0, 4),
            (OperatorKind.CAPUTO, 1.0, 0.0, 1.0, 4),
            (OperatorKind.CAPUTO, 0.5, 1.0, 1.0, 4),
            (OperatorKind.CAPUTO, 0.5, 0.0, math.inf, 4),
            (OperatorKind.CAPUTO, 0.5, 0.0, 1.0, 0),
            # a + (b - a)/n rounds back to a
            (OperatorKind.CAPUTO, 0.5, 1e16, 1e16 + 2.0, 8),
        ],
    )
    def test_validation(self, kind, alpha, a, b, n):
        with pytest.raises(DomainError):
            evaluate_grid(kind, Cosine(), alpha, a, b, n)


@st.composite
def catalog_entry(draw, a, u):
    """A catalog entry with closed forms from a, and the maxima of |f''| and
    |f'''| on [a, a + u] (0 where f' is piecewise constant: the quadrature
    splits at its breakpoints and is exact there)."""
    name = draw(st.sampled_from(["power", "affine", "exp", "cos", "abs", "step"]))
    if name == "power":
        g = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(3.0, 4.0)))
        d2, d3 = g * (g - 1) * u ** (g - 2), g * (g - 1) * (g - 2) * u ** (g - 3)
        f = Power(g, a)
    elif name == "affine":
        f, d2, d3 = Affine(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))), 0.0, 0.0
    elif name == "exp":
        f, d2, d3 = Exponential(), math.exp(a + u), math.exp(a + u)
    elif name == "cos":
        f, d2, d3 = Cosine(), 1.0, 1.0
    elif name == "abs":
        f, d2, d3 = AbsShift(a + u * draw(st.floats(0.1, 0.9))), 0.0, 0.0
    else:
        lo, hi = draw(st.floats(0.1, 0.45)), draw(st.floats(0.55, 0.9))
        f, d2, d3 = StepAntiderivative(((a + u * lo, a + u * hi),), (2.0,)), 0.0, 0.0
    return f, d2, d3


@st.composite
def closed_form_entry(draw):
    """A catalog entry with closed forms, a point t in (a, a + 2], and the
    maxima of |f''| and |f'''| on [a, t]."""
    a = draw(st.sampled_from([0.0, -0.5, 1.0]))
    u = draw(st.floats(0.05, 2.0))
    f, d2, d3 = draw(catalog_entry(a, u))
    return f, a, a + u, d2, d3


@dataclass(frozen=True)
class Combination(TestFunction):
    """c1 f + c2 g of two catalog entries, with no closed forms of its own;
    its breakpoints are the union of theirs."""

    c1: float
    f: TestFunction
    c2: float
    g: TestFunction

    def value(self, t):
        return self.c1 * self.f.value(t) + self.c2 * self.g.value(t)

    def derivative(self, t):
        return self.c1 * self.f.derivative(t) + self.c2 * self.g.derivative(t)

    def breakpoints(self):
        return tuple(sorted({*self.f.breakpoints(), *self.g.breakpoints()}))

    def value_array(self, ts):
        return self.c1 * self.f.value_array(ts) + self.c2 * self.g.value_array(ts)

    def derivative_array(self, ts):
        return self.c1 * self.f.derivative_array(ts) + self.c2 * self.g.derivative_array(ts)


@st.composite
def combination_entry(draw):
    """c1 f + c2 g of two catalog entries with closed forms, a point t in
    (a, a + 2], and bounds on |f''| and |f'''| of the combination on [a, t]."""
    a = draw(st.sampled_from([0.0, -0.5, 1.0]))
    u = draw(st.floats(0.05, 2.0))
    (f, f2, f3), (g, g2, g3) = draw(catalog_entry(a, u)), draw(catalog_entry(a, u))
    c1, c2 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    d2, d3 = abs(c1) * f2 + abs(c2) * g2, abs(c1) * f3 + abs(c2) * g3
    return Combination(c1, f, c2, g), a, a + u, d2, d3


#: two breakpoints with no float between them
KINKS = (0.1, math.nextafter(0.1, 1.0))
ADJACENT_KINKS = Combination(0.0, AbsShift(KINKS[0]), 0.0, AbsShift(KINKS[1]))


class TestClosedFormAgainstQuadrature:
    NODES = 4096

    @settings(max_examples=200, deadline=None)
    @given(
        entry=closed_form_entry(),
        kind=st.sampled_from(list(OperatorKind)),
        alpha=st.floats(0.05, 0.999),
    )
    def test_agree_within_trapezoid_bound(self, entry, kind, alpha):
        f, a, t, d2, d3 = entry
        closed = closed_form_fractional(f, kind, alpha, a, t)
        if closed is None:
            return  # Power-CF left of the trusted series: both are quadrature
        scheme = QuadratureScheme(self.NODES)
        op = {
            OperatorKind.CAPUTO: caputo,
            OperatorKind.CAPUTO_FABRIZIO: caputo_fabrizio,
            OperatorKind.RIEMANN_LIOUVILLE: riemann_liouville,
        }[kind]
        quad = op(f, alpha, a, t, scheme, use_closed_form=False)
        # the product trapezoid lies within h^2/8 max|f'''| (kernel mass) of the
        # exact value; its end nodes are inset by 1e-9 of the segment, which
        # moves it by up to 1e-9 (t-a) max|f''| (kernel mass)
        u = t - a
        # RL differs from C by the same boundary term on both paths
        kernel = OperatorKind.CAPUTO if kind is OperatorKind.RIEMANN_LIOUVILLE else kind
        mass = _kernel_mass(kernel, alpha, u)
        bound = (u / self.NODES) ** 2 / 8 * d3 * mass + 2e-9 * u * d2 * mass
        assert abs(closed - quad) <= bound + 1e-12 * max(1.0, abs(closed))

    @settings(max_examples=100, deadline=None)
    @given(
        entry=combination_entry(),
        kind=st.sampled_from(list(OperatorKind)),
        alpha=st.floats(0.05, 0.999),
    )
    # the one-ulp piece between adjacent breakpoints is dropped, or both of
    # its inset nodes would land on a breakpoint
    @example(entry=(ADJACENT_KINKS, 0.0, 1.0, 0.0, 0.0), kind=OperatorKind.CAPUTO, alpha=0.5)
    @example(
        entry=(ADJACENT_KINKS, 0.0, 1.0, 0.0, 0.0), kind=OperatorKind.CAPUTO_FABRIZIO, alpha=0.5
    )
    @example(
        entry=(ADJACENT_KINKS, 0.0, 1.0, 0.0, 0.0), kind=OperatorKind.RIEMANN_LIOUVILLE, alpha=0.5
    )
    def test_operators_are_linear(self, entry, kind, alpha):
        # the combination's pointwise quadrature, split at the union of the
        # breakpoints, against c1 D f + c2 D g from the closed forms
        combo, a, t, d2, d3 = entry
        parts = [closed_form_fractional(h, kind, alpha, a, t) for h in (combo.f, combo.g)]
        if None in parts:
            return  # Power-CF left of the trusted series
        closed = combo.c1 * parts[0] + combo.c2 * parts[1]
        op = {
            OperatorKind.CAPUTO: caputo,
            OperatorKind.CAPUTO_FABRIZIO: caputo_fabrizio,
            OperatorKind.RIEMANN_LIOUVILLE: riemann_liouville,
        }[kind]
        quad = op(combo, alpha, a, t, QuadratureScheme(self.NODES))
        # the bound of test_agree_within_trapezoid_bound
        u = t - a
        kernel = OperatorKind.CAPUTO if kind is OperatorKind.RIEMANN_LIOUVILLE else kind
        mass = _kernel_mass(kernel, alpha, u)
        bound = (u / self.NODES) ** 2 / 8 * d3 * mass + 2e-9 * u * d2 * mass
        assert abs(closed - quad) <= bound + 1e-12 * max(1.0, abs(closed))

    @pytest.mark.parametrize("t", [1.0, 0.1 + 1e-9])
    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio, riemann_liouville])
    def test_adjacent_breakpoints_drop_a_negligible_ulp(self, op, t):
        # |t - 0.1| + 2 |t - 0.1^+|, whose f' is -1 on the one-ulp piece
        # between the kinks, which has no float inside: the kernel's mass
        # there is below 1e-12 of its mass on [0, t], so the piece is dropped
        f = Combination(1.0, AbsShift(KINKS[0]), 2.0, AbsShift(KINKS[1]))
        closed = op(AbsShift(KINKS[0]), 0.5, 0.0, t) + 2.0 * op(AbsShift(KINKS[1]), 0.5, 0.0, t)
        quad = op(f, 0.5, 0.0, t, use_closed_form=False)
        assert quad == pytest.approx(closed, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    @pytest.mark.parametrize("op", [caputo, riemann_liouville])
    @pytest.mark.parametrize(
        "f,t",
        [
            (AbsShift(0.1), KINKS[1]),
            # the piece between the kinks, two ulps below t
            (
                Combination(1.0, AbsShift(KINKS[0]), 2.0, AbsShift(KINKS[1])),
                math.nextafter(math.nextafter(KINKS[1], 1.0), 1.0),
            ),
        ],
    )
    def test_ulp_piece_next_to_t_is_refused(self, f, t, op, alpha):
        # the C kernel has ulp^(1-alpha)/Gamma(2-alpha) of mass on a one-ulp
        # piece next to t (0.68 at alpha 0.99), so dropping it would move the
        # value by as much; the piece has no float inside to sample f' at
        with pytest.raises(NonDifferentiableError):
            op(f, alpha, 0.0, t, use_closed_form=False)

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    def test_bounded_kernel_drops_the_ulp_next_to_t(self, alpha):
        # the CF kernel is bounded by 1/(1-alpha), so the one-ulp piece next
        # to t carries at most 1e-12 of its mass on [0, t]
        t = KINKS[1]
        quad = caputo_fabrizio(AbsShift(0.1), alpha, 0.0, t, use_closed_form=False)
        assert quad == pytest.approx(caputo_fabrizio(AbsShift(0.1), alpha, 0.0, t), rel=1e-12)

    def test_rl_integral_keeps_the_ulp_next_to_t(self):
        # f itself is continuous, so a kept piece with no float inside is
        # sampled at its ends: 1 + |t - 0.1| at t = 0.1^+, where the piece
        # carries 16 % of the kernel's mass at alpha 0.05
        f = Combination(1.0, AbsShift(0.1), 1.0, Affine(0.0, 1.0))
        t, al = KINKS[1], 0.05
        T, d = mp.mpf(t), mp.mpf(t) - mp.mpf(0.1)
        # the integrals of 1, of 0.1 - s on [0, 0.1] and of s - 0.1 on [0.1, t]
        exact = (
            T**al / al
            + (T ** (al + 1) - d ** (al + 1)) / (al + 1)
            - d * (T**al - d**al) / al
            + d ** (al + 1) / (al * (al + 1))
        ) / mp.gamma(al)
        # the end nodes of [0, 0.1] are inset by 1e-10, where f moves by as much
        assert rl_integral(f, al, 0.0, t) == pytest.approx(float(exact), rel=1e-9)

    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio])
    def test_narrow_step_keeps_inset_nodes_inside(self, op):
        # the step is 1e-12 wide at 0.1, where 1e-9 of it is below one ulp:
        # the end nodes must still be inset, not land on the breakpoints
        f = StepAntiderivative(((0.1, 0.1 + 1e-12),), (2.0,))
        closed = op(f, 0.5, 0.0, 1.0)
        quad = op(f, 0.5, 0.0, 1.0, use_closed_form=False)
        # f' is piecewise constant, so the trapezoid bound is rounding only;
        # the moments of a 1e-12 wide cell at 0.9 lose about 12 digits
        assert quad == pytest.approx(closed, rel=1e-3)

    def test_cosine_past_the_reach_falls_back_to_quadrature(self):
        alpha, b, n = 0.5, 12.0, 24
        reach = 10.0 + math.lgamma(0.5)
        scheme = QuadratureScheme(512)
        assert closed_form_fractional(Cosine(), OperatorKind.CAPUTO, alpha, 0.0, b) is None
        assert caputo(Cosine(), alpha, 0.0, b, scheme) == caputo(
            OpaqueCosine(), alpha, 0.0, b, scheme
        )
        # the grid: closed forms up to the reach, the whole-grid trapezoid past it
        grid = evaluate_grid(OperatorKind.CAPUTO, Cosine(), alpha, 0.0, b, n, scheme)
        opaque = evaluate_grid(OperatorKind.CAPUTO, OpaqueCosine(), alpha, 0.0, b, n, scheme)
        ts = b * np.arange(1, n + 1) / n
        past = ts > reach
        assert past.any() and not past.all()
        np.testing.assert_array_equal(grid[past], opaque[past])
        closed = [caputo(Cosine(), alpha, 0.0, t) for t in ts[~past].tolist()]
        np.testing.assert_allclose(grid[~past], closed, rtol=0, atol=1e-13)
        # and both sides of the reach agree with quadrature within its bound
        h = b / (n * math.ceil(512 / n))
        assert np.max(np.abs(grid - opaque)) <= h**2 / 8 * _kernel_mass(
            OperatorKind.CAPUTO, alpha, b
        ) + 4e-9 * b


class TestGenericKernel:
    def test_caputo_kernel_specialization(self):
        # must agree with the Caputo derivative of order 1 - beta exactly
        got = generic_kernel_derivative(Affine(1.0, 0.0), CaputoKernel(), 0.7, 0.0, 1.0)
        assert got == caputo(Affine(1.0, 0.0), 0.3, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(1.7), rel=1e-12)

    def test_cf_kernel_specialization(self):
        for f in CATALOG:
            got = generic_kernel_derivative(f, CaputoFabrizioKernel(), 0.4, 0.0, 1.9)
            assert abs(got - caputo_fabrizio(f, 0.6, 0.0, 1.9)) <= 1e-12

    def test_cf_kernel_on_step(self):
        # single step of height 1 on [0, 0.5], beta = 0.5, t = 0.25:
        # (1/(1-beta))(1 - e^(-((1-beta)/beta) t)) = 2 (1 - e^-0.25)
        f = StepAntiderivative(((0.0, 0.5),), (1.0,))
        got = generic_kernel_derivative(f, CaputoFabrizioKernel(), 0.5, 0.0, 0.25)
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-0.25)), rel=1e-13)

    def test_constant_any_kernel(self):
        f = Affine(0.0, 3.0)
        for kernel in (CaputoKernel(), CaputoFabrizioKernel()):
            assert generic_kernel_derivative(f, kernel, 0.3, 0.0, 1.0) == 0.0
        custom = CustomKernel(h=lambda u, beta: math.exp(-u / beta) / beta)
        assert generic_kernel_derivative(f, custom, 0.3, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "beta,scale",
        [(0.4, 1.0), (0.1, 1.0), (0.01, 1.0), (1e-3, 1.0), (0.4, 1e6)],
    )
    def test_custom_kernel_reproduces_cf(self, beta, scale):
        def h(u, b):
            return scale * math.exp(-((1.0 - b) / b) * u) / b

        got = generic_kernel_derivative(Exponential(), CustomKernel(h=h), beta, 0.0, 1.0)
        expected = scale * caputo_fabrizio(Exponential(), 1.0 - beta, 0.0, 1.0)
        # 1e-12 absolute for the kernel itself; the scaled one, whose 1e-11
        # absolute target lies below its rounding floor, to 1e-11 relative
        assert abs(got - expected) <= (1e-12 if scale == 1.0 else 1e-11 * abs(expected))

    def test_custom_kernel_non_finite_values(self):
        bad = CustomKernel(h=lambda u, b: math.nan)
        with pytest.raises(IntegrationError):
            generic_kernel_derivative(Exponential(), bad, 0.5, 0.0, 1.0)

    @pytest.mark.parametrize(
        "f,h,beta",
        [
            (Exponential(), lambda u, b: u**-1.5, 0.5),  # divergent mass
            (Cosine(), lambda u, b: 1.0 / u, 0.5),  # divergent; raises at u = 0
            # nodes where u underflows to 0, where the Caputo kernel's mass
            # is not negligible, and where the log kernel raises
            (Cosine(), lambda u, b: u ** (b - 1.0) / gamma(b), 1e-3),
            (Cosine(), lambda u, b: -math.log(u), 1e-3),
        ],
    )
    def test_custom_kernel_is_refused(self, f, h, beta):
        with pytest.raises(IntegrationError):
            generic_kernel_derivative(f, CustomKernel(h=h), beta, 0.0, 1.0)

    @pytest.mark.parametrize("beta", [0.4, 0.1, 0.01])
    @pytest.mark.parametrize("f", [Power(2.0, 0.0), AbsShift(1.0)])
    def test_custom_kernel_singular_but_integrable(self, f, beta):
        # an integrable power singularity reproduces the Caputo derivative
        # through its kernel; for |t - 1| at t = 1, f' is taken from the left
        # where a node's t - u rounds onto t
        def h(u, b):
            return u ** (b - 1.0) / gamma(b)

        got = generic_kernel_derivative(f, CustomKernel(h=h), beta, 0.0, 1.0)
        expected = caputo(f, 1.0 - beta, 0.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "h,op",
        [
            (lambda u, b: u ** (b - 1.0) / gamma(b), caputo),
            (lambda u, b: math.exp(-((1.0 - b) / b) * u) / b, caputo_fabrizio),
        ],
    )
    def test_custom_kernel_on_derivative_singular_at_a(self, h, op):
        # f' = t^(-1/2) / 2 is unbounded at a: accurate or refused
        try:
            got = generic_kernel_derivative(Power(0.5), CustomKernel(h=h), 0.4, 0.0, 1.0)
        except IntegrationError:
            return
        assert got == pytest.approx(op(Power(0.5), 0.6, 0.0, 1.0), abs=1e-9)

    def test_beta_validation(self):
        with pytest.raises(DomainError):
            generic_kernel_derivative(Exponential(), CaputoKernel(), 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("gap", [1e-14, 3e-16, 1e-12])
    def test_custom_kernel_node_on_a_breakpoint(self, gap):
        # with the kink a few ulps left of t, some node's t - u rounds onto
        # it; f' there is a one-sided limit, not a refusal
        def h(u, b):
            return u ** (b - 1.0) / math.gamma(b)

        f = AbsShift(1.0 - gap)
        got = generic_kernel_derivative(f, CustomKernel(h=h), 0.9, 0.0, 1.0)
        assert got == pytest.approx(caputo(f, 0.1, 0.0, 1.0), abs=1e-13)


class Square(TestFunction):
    """t^2 as a user would define it: value and derivative only, so every
    array goes through the base class's pointwise ``value_array`` and
    ``derivative_array``, and every operator value through product quadrature."""

    def value(self, t):
        return t * t

    def derivative(self, t):
        return 2.0 * t


class TestUserDefinedFunction:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_grid_quadrature_matches_power(self, kind):
        alpha, b = 0.6, 1.5
        grid = evaluate_grid(kind, Square(), alpha, 0.0, b, 40)
        closed = evaluate_grid(kind, Power(2.0), alpha, 0.0, b, 40)
        # f' is linear, so the trapezoid is exact up to the 1e-9 end-node
        # inset, which moves it by up to 1e-9 b max|f''| (kernel mass)
        base = OperatorKind.CAPUTO if kind is OperatorKind.RIEMANN_LIOUVILLE else kind
        bound = 2e-9 * b * 2.0 * _kernel_mass(base, alpha, b)
        np.testing.assert_allclose(grid, closed, rtol=0, atol=bound)

    @pytest.mark.parametrize("kind", [OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO])
    @pytest.mark.parametrize("norm", [error_l1, error_linf])
    def test_error_norms_match_power(self, kind, norm):
        # the L1 integrand and the sup-norm refinement fill every point
        # through pointwise quadrature
        interval = Interval(0.0, 1.5)
        got = norm(Square(), kind, 0.3, interval).value
        assert got == pytest.approx(norm(Power(2.0), kind, 0.3, interval).value, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_rl_integral(self, alpha):
        t = 1.2
        got = rl_integral(Square(), alpha, 0.0, t)
        assert got == pytest.approx(rl_integral(Power(2.0), alpha, 0.0, t), rel=1e-15)
        # the interpolant of t^2 is off by at most h^2/8 max|f''| (kernel mass)
        exact = 2.0 * t ** (alpha + 2.0) / gamma(alpha + 3.0)
        bound = (t / operators.DEFAULT_N_NODES) ** 2 / 4.0 * t**alpha / gamma(alpha + 1.0)
        assert abs(got - exact) <= bound
