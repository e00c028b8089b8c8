"""Operator values against closed forms, identities and quadrature properties."""

import math
import tracemalloc
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Opaque, record_binds
from fracorder import (
    AbsShift,
    Affine,
    BudgetExceededError,
    Cosine,
    DomainError,
    Exponential,
    FractionalOrder,
    IntegrationError,
    Interval,
    NonDifferentiableError,
    OperatorKind,
    Power,
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
        # no operator takes a node count: every value without a closed form
        # runs to its own tolerance
        with pytest.raises(TypeError):
            evaluate_grid(OperatorKind.CAPUTO, Cosine(), 0.5, 0.0, 1.0, 4, n_nodes=1)
        with pytest.raises(TypeError):
            caputo(Cosine(), 0.5, 0.0, 1.0, n_nodes=1)

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
        assert rl == pytest.approx(float(rl_exact), rel=1e-14, abs=0.0)
        assert cf == pytest.approx(float(cf_exact), rel=1e-14, abs=0.0)


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
        assert oracle == pytest.approx(1.0 / gamma(2.5), rel=1e-12, abs=0.0)
        got = rl_integral(Affine(1.0, 0.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            rl_integral(Exponential(), 0.5, 1.0, 1.0)


class TestCaputo:
    def test_identity_function(self):
        # t^(1-alpha)/Gamma(2-alpha) at alpha=0.3, t=1
        got = caputo(Affine(1.0, 0.0), 0.3, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(1.7), rel=1e-12, abs=0.0)

    def test_constant_is_zero(self):
        assert caputo(Affine(0.0, 5.0), 0.5, 0.0, 1.0) == 0.0

    def test_absshift_value(self):
        # |t-1| on [0,2] at order 1-beta, beta=0.4, t=1.5
        got = caputo(AbsShift(1.0), 0.6, 0.0, 1.5)
        expected = (2.0 * 0.5**0.4 - 1.5**0.4) / gamma(1.4)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_quadrature_matches_closed_form(self):
        for f, alpha, t in [
            (Power(3.0, 0.0), 0.5, 1.0),
            (Power(2.0, 0.0), 0.25, 1.5),
            (AbsShift(0.4), 0.7, 1.0),
        ]:
            closed = caputo(f, alpha, 0.0, t)
            quad = caputo(Opaque(f), alpha, 0.0, t)
            assert quad == pytest.approx(closed, abs=2e-6)

    def test_grid_quadrature_within_point_tol(self):
        # a grid value without a closed form is one quadrature to 1e-11
        exact = gamma(4.0) / gamma(3.5)  # Caputo of t^3 at alpha=0.5, t=1
        (got,) = evaluate_grid(OperatorKind.CAPUTO, Opaque(Power(3.0, 0.0)), 0.5, 0.0, 1.0, 1)
        assert abs(got - exact) <= POINT_TOL * max(1.0, abs(exact))


class TestCaputoFabrizio:
    def test_constant_is_zero(self):
        assert caputo_fabrizio(Affine(0.0, -2.0), 0.5, 0.0, 1.0) == 0.0

    def test_identity_function(self):
        # (1/alpha)(1 - e^(-alpha t/(1-alpha))) at alpha=0.5, t=1
        got = caputo_fabrizio(Affine(1.0, 0.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-13, abs=0.0)

    def test_quadratic(self):
        # (2/alpha) t (1 - E_{1,2}(-alpha t/(1-alpha))) = 4/e at alpha=0.5, t=1
        got = caputo_fabrizio(Power(2.0, 0.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(4.0 * math.exp(-1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [1e-155, 1e-200])
    def test_quadratic_where_z_squared_overflows(self, beta):
        # (2t/alpha) (1 - E_{1,2}(-rate t)) = 2t - O(beta); the closed form
        # through E_{1,3}(-rate t), whose z^2 overflows, read 0.0 after an
        # overflow warning, and now leaves the point to the quadrature
        order = FractionalOrder.from_beta(beta)
        got = operators.evaluate(OperatorKind.CAPUTO_FABRIZIO, Power(2.0), order, 0.0, 0.5)
        assert got == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_exponential_vs_quadrature(self):
        closed = caputo_fabrizio(Exponential(), 0.4, 0.0, 1.0)
        quad = caputo_fabrizio(Opaque(Exponential()), 0.4, 0.0, 1.0)
        assert quad == pytest.approx(closed, abs=1e-7)

    def test_grid_quadrature_within_point_tol(self):
        exact = caputo_fabrizio(Power(3.0, 0.0), 0.6, 0.0, 1.0)
        kind = OperatorKind.CAPUTO_FABRIZIO
        (got,) = evaluate_grid(kind, Opaque(Power(3.0, 0.0)), 0.6, 0.0, 1.0, 1)
        assert abs(got - exact) <= POINT_TOL * max(1.0, abs(exact))


class TestRiemannLiouville:
    def test_constant(self):
        # f = 1, order 1-beta with beta=0.5, t=0.25: t^(beta-1)/Gamma(beta)
        got = riemann_liouville(Affine(0.0, 1.0), 0.5, 0.0, 0.25)
        assert got == pytest.approx(0.25**-0.5 / gamma(0.5), rel=1e-13, abs=0.0)

    def test_vanishing_at_a_equals_caputo(self):
        for alpha, t in [(0.3, 0.7), (0.8, 1.2)]:
            assert riemann_liouville(Affine(1.0, 0.0), alpha, 0.0, t) == caputo(
                Affine(1.0, 0.0), alpha, 0.0, t
            )

    def test_affine_shift(self):
        got = riemann_liouville(Affine(1.0, 1.0), 0.5, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(0.5) + 1.0 / gamma(1.5), rel=1e-13, abs=0.0)

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
        h = 1e-3
        for f in (Exponential(), Cosine(), Power(2.0, 0.0)):
            for alpha in (0.3, 0.7):
                t = 0.6
                diff = (
                    rl_integral(f, 1.0 - alpha, 0.0, t + h)
                    - rl_integral(f, 1.0 - alpha, 0.0, t - h)
                ) / (2.0 * h)
                assert diff == pytest.approx(riemann_liouville(f, alpha, 0.0, t), abs=1e-4)


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
        assert caputo(Opaque(Cosine()), alpha, 0.0, t) == pytest.approx(float(oracle), abs=1e-7)
        assert caputo(Cosine(), alpha, 0.0, t) == pytest.approx(float(oracle), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("t", [0.6, 1.0])
    def test_caputo_fabrizio(self, alpha, t):
        a, T = mp.mpf(alpha), mp.mpf(t)
        rate = a / (1 - a)
        oracle = mp.quad(lambda tau: -mp.sin(tau) * mp.exp(-rate * (T - tau)), [0, T]) / (1 - a)
        quad = caputo_fabrizio(Opaque(Cosine()), alpha, 0.0, t)
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
        combo = caputo(Opaque(Affine(2.0, 3.0)), 0.5, 0.0, 1.0)
        parts = 2.0 * caputo(Opaque(Affine(1.0, 0.0)), 0.5, 0.0, 1.0) + 3.0 * caputo(
            Opaque(Affine(0.0, 1.0)), 0.5, 0.0, 1.0
        )
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
        for f in (Cosine(), Affine(1.0, 1.0)):
            assert evaluate(kind, f, 0.6, 0.0, 0.7) == op(f, 0.6, 0.0, 0.7)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            evaluate("C", Cosine(), 0.6, 0.0, 0.7)

    @pytest.mark.parametrize("n", [0, -3, 2.5, 4096.0, math.nan, "64"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: evaluate_grid(OperatorKind.CAPUTO, Cosine(), 0.6, 0.0, 0.7, n),
            lambda n: evaluate_grid(OperatorKind.CAPUTO_FABRIZIO, Cosine(), 0.6, 0.0, 0.7, n),
            lambda n: evaluate_grid(OperatorKind.RIEMANN_LIOUVILLE, Cosine(), 0.6, 0.0, 0.7, n),
            lambda n: evaluate_grid(OperatorKind.CAPUTO, Opaque(Cosine()), 0.6, 0.0, 0.7, n),
            lambda n: evaluate_grid(
                OperatorKind.CAPUTO_FABRIZIO, Opaque(Cosine()), 0.6, 0.0, 0.7, n
            ),
            lambda n: error_linf(Cosine(), OperatorKind.CAPUTO, 0.4, Interval(0.0, 1.0), n_grid=n),
            lambda n: error_linf(
                Cosine(), OperatorKind.CAPUTO_FABRIZIO, 0.4, Interval(0.0, 1.0), n_grid=n
            ),
            # the RL sup norm of f(a) != 0 is inf without a single operator value
            lambda n: error_linf(
                Affine(1.0, 1.0), OperatorKind.RIEMANN_LIOUVILLE, 0.4, Interval(0.0, 1.0), n_grid=n
            ),
            # so is the sup norm where f'(a+) is infinite
            lambda n: error_linf(
                Power(0.5, 0.0), OperatorKind.CAPUTO, 0.4, Interval(0.0, 1.0), n_grid=n
            ),
        ],
    )
    def test_grid_size_is_an_integer(self, call, n):
        # refused even where a closed form needs no quadrature: a fractional
        # n would put the last grid point past b
        with pytest.raises(DomainError, match="grid"):
            call(n)

    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio, riemann_liouville, rl_integral])
    def test_window_whose_width_overflows_is_refused(self, op):
        with pytest.raises(DomainError, match="t - a"):
            op(Cosine(), 0.5, -1e308, 1e308)

    @pytest.mark.parametrize(
        "a,b,n",
        [
            # finite widths whose product with n overflows
            (0.0, 1e308, 3),
            (-1e308, 1e307, 2),
            # counts numpy refuses before it allocates, and past the double range
            (0.0, 1.0, 10**20),
            (0.0, 1.0, 10**400),
        ],
    )
    def test_grid_that_overflows_is_refused(self, a, b, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="a grid of"):
                evaluate_grid(OperatorKind.CAPUTO, Cosine(), 0.5, a, b, n)

    @pytest.mark.parametrize(
        "a,b,n",
        [(0.0, 1.0, 7), (-1.0, 1.0, 10), (0.0, 1e308, 1), (0.0, 8e307, 2), (-3e307, 5e307, 2)],
    )
    def test_grid_points_round_as_the_scalar_expression(self, a, b, n):
        want = [a + (b - a) * i / n for i in range(1, n)] + [b]
        assert operators._grid_points(a, b, n).tolist() == want

    def test_points_without_a_closed_form_skip_the_public_operators(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("re-entered a public operator")

        ts, order = np.array([0.3, 0.7, 0.9]), FractionalOrder(0.6)
        want = {
            kind: [evaluate(kind, Opaque(Cosine()), order, 0.0, t) for t in ts.tolist()]
            for kind in OperatorKind
        }
        for name in ("caputo", "caputo_fabrizio", "riemann_liouville", "evaluate"):
            monkeypatch.setattr(operators, name, refuse)
        for kind in OperatorKind:
            got = operators._bind(kind, Opaque(Cosine()), order, 0.0, 0.9)(ts)
            # the RL sum may round its array and scalar addends an ulp apart
            np.testing.assert_allclose(got, want[kind], rtol=1e-15, atol=0.0)


#: catalog entries; the opaque ones keep the quadrature of a grid covered
GRID_FUNCTIONS = {
    "cos": Cosine(),
    "exp": Exponential(),
    "opaque cos": Opaque(Cosine()),
    "opaque exp": Opaque(Exponential()),
    "power:2,-0.5": parse_function("power:2,-0.5"),
    "affine:1,1": parse_function("affine:1,1"),
    "abs:0.5": parse_function("abs:0.5"),
    "step:0.2,0.6,2": parse_function("step:0.2,0.6,2"),
}

#: relative to max|grid|, how far a closed form on the grid may lie from the
#: same hook taken at one point: a series summed for the whole grid may add a
#: term more than for one point, which can move the last bit
CLOSED_FORM_TOL = 1e-15

#: the absolute or relative target, whichever is looser, of one quadrature
POINT_TOL = 1e-11


class TestBinding:
    """``operators._bind``: the closed form and its constants are bound once,
    and every call of the bound function gives each point the value it
    would have alone."""

    @pytest.mark.parametrize("f", [*CATALOG, Power(2.5)], ids=repr)
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_a_point_does_not_depend_on_its_call(self, f, kind):
        # 200 seeded points of (0, 2] in one call, then one at a time: the
        # same bits (a series summed with the terms its call's farthest point
        # needed, as for cos under C and power:2.5 under CF, would not be);
        # power:2.5 under CF fills the points past its series, rate u > 15,
        # by quadrature
        order = FractionalOrder(0.9)
        ts = 2.0 * (1.0 - np.random.default_rng(200).random(200))
        bound = operators._bind(kind, f, order, 0.0, 2.0)
        together = bound(ts)
        alone = [bound(ts[i : i + 1])[0] for i in range(ts.size)]
        np.testing.assert_array_equal(together, alone)

    def test_evaluate_grid_binds_once(self, monkeypatch):
        binds, calls = record_binds(monkeypatch)
        evaluate_grid(OperatorKind.CAPUTO, Cosine(), 0.5, 0.0, 2.0, 300)
        assert len(binds) == 1
        assert [len(call[3]) for call in calls] == [300]

    def test_grid_memory_stays_linear(self):
        # 2e5 points of e^t under C on (0, 700], whose series takes about 960
        # terms at u = 700: the power table comes in blocks of at most 2^16
        # entries, so the peak is that of a few arrays of the grid's size
        # (13.2 MB with the per-term loop that the table replaced)
        tracemalloc.start()
        try:
            evaluate_grid(OperatorKind.CAPUTO, Exponential(), 0.5, 0.0, 700.0, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 13.2e6


class TestEvaluateGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.99),
        n=st.integers(2, 300),
        name=st.sampled_from(sorted(GRID_FUNCTIONS)),
        kind=st.sampled_from([OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO]),
    )
    def test_matches_pointwise(self, alpha, n, name, kind):
        f = GRID_FUNCTIONS[name]
        grid = evaluate_grid(kind, f, alpha, 0.0, 1.0, n)
        scale = float(np.max(np.abs(grid)))
        for i, value in enumerate(grid.tolist(), start=1):
            t = i / n
            pointwise = evaluate(kind, f, alpha, 0.0, t)
            if closed_form_fractional(f, kind, alpha, 0.0, t) is not None:
                assert abs(value - pointwise) <= CLOSED_FORM_TOL * scale
                continue
            # the point's own quadrature, within 1e-11 of the closed form
            # that an opaque entry hides
            assert value == pointwise
            if isinstance(f, Opaque):
                exact = evaluate(kind, f.f, alpha, 0.0, t)
                assert abs(value - exact) <= POINT_TOL * max(1.0, abs(exact))

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.99),
        n=st.integers(2, 300),
        name=st.sampled_from(sorted(GRID_FUNCTIONS)),
    )
    def test_rl_is_boundary_term_plus_caputo(self, alpha, n, name):
        f = GRID_FUNCTIONS[name]
        rl = evaluate_grid(OperatorKind.RIEMANN_LIOUVILLE, f, alpha, 0.0, 1.0, n)
        c = evaluate_grid(OperatorKind.CAPUTO, f, alpha, 0.0, 1.0, n)
        ts = np.arange(1, n + 1) / n
        np.testing.assert_array_equal(rl, rl_boundary_term(f, alpha, 0.0, ts) + c)

    def test_breakpoint_without_closed_form_matches_pointwise(self):
        # each grid value is the point's quadrature, whose panels end at the
        # breakpoint
        f = Opaque(AbsShift(0.5))
        for kind in OperatorKind:
            grid = evaluate_grid(kind, f, 0.7, 0.0, 1.0, 5)
            pointwise = [evaluate(kind, f, 0.7, 0.0, i / 5) for i in range(1, 6)]
            np.testing.assert_allclose(grid, pointwise, rtol=1e-13, atol=0.0)

    def test_missing_closed_forms_filled_by_quadrature(self):
        # Kummer's series for E_{1,gamma} reaches z = -700 only, so Power(2.5)
        # under CF at alpha 0.999 has closed forms only for t <= 700/999
        f, alpha, kind = Power(2.5), 0.999, OperatorKind.CAPUTO_FABRIZIO
        grid = evaluate_grid(kind, f, alpha, 0.0, 1.0, 50)
        ts = [i / 50 for i in range(1, 51)]
        closed = [closed_form_fractional(f, kind, alpha, 0.0, t) for t in ts]
        assert 0 < sum(v is None for v in closed) < len(ts)
        scale = float(np.max(np.abs(grid)))
        for t, value, known in zip(ts, grid.tolist(), closed):
            if known is not None:
                assert abs(value - known) <= CLOSED_FORM_TOL * scale
            else:
                assert value == evaluate(kind, f, alpha, 0.0, t)

    def test_points_past_the_reach_skip_a_second_closed_form_try(self, monkeypatch):
        # the closed form is bound once and tried once, on all the points;
        # those past cos's Caputo reach (10 + ln Gamma(1/2) = 10.57) go
        # straight to quadrature, one per point
        sizes = []
        original = Cosine._closed_form

        def counting(self, kind, alpha, a, b):
            closed = original(self, kind, alpha, a, b)
            sizes.append("bind")

            def values(ts):
                sizes.append(len(ts))
                return closed(ts)

            return values

        monkeypatch.setattr(Cosine, "_closed_form", counting)
        evaluate_grid(OperatorKind.CAPUTO, Cosine(), 0.5, 0.0, 30.0, 301)
        assert sizes == ["bind", 301]
        sizes.clear()
        ts = np.array([5.0, 20.0, 25.0])
        order = FractionalOrder(0.5)
        values = operators._bind(OperatorKind.CAPUTO, Cosine(), order, 0.0, 25.0)(ts)
        assert sizes == ["bind", 3]
        quad = [caputo(Opaque(Cosine()), 0.5, 0.0, t) for t in (20.0, 25.0)]
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
    """A catalog entry with closed forms from a, its breakpoints inside
    (a, a + u)."""
    name = draw(st.sampled_from(["power", "affine", "exp", "cos", "abs", "step"]))
    if name == "power":
        return Power(draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(3.0, 4.0))), a)
    if name == "affine":
        return Affine(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    if name == "exp":
        return Exponential()
    if name == "cos":
        return Cosine()
    if name == "abs":
        return AbsShift(a + u * draw(st.floats(0.1, 0.9)))
    lo, hi = draw(st.floats(0.1, 0.45)), draw(st.floats(0.55, 0.9))
    return StepAntiderivative(((a + u * lo, a + u * hi),), (2.0,))


@st.composite
def closed_form_entry(draw):
    """A catalog entry with closed forms and a point t in (a, a + 2]."""
    a = draw(st.sampled_from([0.0, -0.5, 1.0]))
    u = draw(st.floats(0.05, 2.0))
    return draw(catalog_entry(a, u)), a, a + u


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
    """c1 f + c2 g of two catalog entries with closed forms and a point t
    in (a, a + 2]."""
    a = draw(st.sampled_from([0.0, -0.5, 1.0]))
    u = draw(st.floats(0.05, 2.0))
    f, g = draw(catalog_entry(a, u)), draw(catalog_entry(a, u))
    c1, c2 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    return Combination(c1, f, c2, g), a, a + u


#: two breakpoints with no float between them
KINKS = (0.1, math.nextafter(0.1, 1.0))
ADJACENT_KINKS = Combination(0.0, AbsShift(KINKS[0]), 0.0, AbsShift(KINKS[1]))



class TestClosedFormAgainstQuadrature:
    @settings(max_examples=200, deadline=None)
    @given(
        entry=closed_form_entry(),
        kind=st.sampled_from(list(OperatorKind)),
        alpha=st.floats(0.05, 0.999),
    )
    def test_agree_within_point_tol(self, entry, kind, alpha):
        f, a, t = entry
        closed = closed_form_fractional(f, kind, alpha, a, t)
        if closed is None:
            return  # Power-CF left of the trusted series: both are quadrature
        op = {
            OperatorKind.CAPUTO: caputo,
            OperatorKind.CAPUTO_FABRIZIO: caputo_fabrizio,
            OperatorKind.RIEMANN_LIOUVILLE: riemann_liouville,
        }[kind]
        quad = op(Opaque(f), alpha, a, t)
        assert abs(closed - quad) <= POINT_TOL * max(1.0, abs(closed))

    @settings(max_examples=100, deadline=None)
    @given(
        entry=combination_entry(),
        kind=st.sampled_from(list(OperatorKind)),
        alpha=st.floats(0.05, 0.999),
    )
    # f' is taken as 0 on the one-ulp gap between adjacent breakpoints,
    # where it has no side to be read from
    @example(entry=(ADJACENT_KINKS, 0.0, 1.0), kind=OperatorKind.CAPUTO, alpha=0.5)
    @example(entry=(ADJACENT_KINKS, 0.0, 1.0), kind=OperatorKind.CAPUTO_FABRIZIO, alpha=0.5)
    @example(entry=(ADJACENT_KINKS, 0.0, 1.0), kind=OperatorKind.RIEMANN_LIOUVILLE, alpha=0.5)
    def test_operators_are_linear(self, entry, kind, alpha):
        # the combination's quadrature, whose panels end at the union of the
        # breakpoints, against c1 D f + c2 D g from the closed forms
        combo, a, t = entry
        parts = [closed_form_fractional(h, kind, alpha, a, t) for h in (combo.f, combo.g)]
        if None in parts:
            return  # Power-CF left of the trusted series
        closed = combo.c1 * parts[0] + combo.c2 * parts[1]
        op = {
            OperatorKind.CAPUTO: caputo,
            OperatorKind.CAPUTO_FABRIZIO: caputo_fabrizio,
            OperatorKind.RIEMANN_LIOUVILLE: riemann_liouville,
        }[kind]
        quad = op(combo, alpha, a, t)
        assert abs(closed - quad) <= POINT_TOL * max(1.0, abs(closed))

    @pytest.mark.parametrize("t", [1.0, 0.1 + 1e-9])
    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio, riemann_liouville])
    def test_adjacent_breakpoints_drop_a_negligible_ulp(self, op, t):
        # |t - 0.1| + 2 |t - 0.1^+|, whose f' is -1 on the one-ulp gap
        # between the kinks, which has no float inside: the kernel's mass
        # there is below 1e-12 of its mass on [0, t], so f' is taken as 0
        f = Combination(1.0, AbsShift(KINKS[0]), 2.0, AbsShift(KINKS[1]))
        closed = op(AbsShift(KINKS[0]), 0.5, 0.0, t) + 2.0 * op(AbsShift(KINKS[1]), 0.5, 0.0, t)
        quad = op(Opaque(f), 0.5, 0.0, t)
        assert quad == pytest.approx(closed, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    @pytest.mark.parametrize("op", [caputo, riemann_liouville])
    def test_ulp_piece_next_to_t_is_sampled(self, op, alpha):
        # the C kernel has ulp^(1-alpha)/Gamma(2-alpha) of mass on the one-ulp
        # piece [0.1, t] (0.68 at alpha 0.99), so dropping it would move the
        # value by as much; the jump at 0.1 is added back in closed form
        f, t = AbsShift(0.1), KINKS[1]
        quad = op(Opaque(f), alpha, 0.0, t)
        assert quad == pytest.approx(op(f, alpha, 0.0, t), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    @pytest.mark.parametrize("op", [caputo, riemann_liouville])
    def test_ulp_piece_next_to_t_is_refused(self, op, alpha):
        # the gap between the kinks, two ulps below t, carries as much of
        # the C kernel's mass; both its ends are breakpoints, so f' has no
        # side to be read from there
        f = Combination(1.0, AbsShift(KINKS[0]), 2.0, AbsShift(KINKS[1]))
        t = math.nextafter(math.nextafter(KINKS[1], 1.0), 1.0)
        with pytest.raises(NonDifferentiableError):
            op(Opaque(f), alpha, 0.0, t)

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    def test_bounded_kernel_drops_the_ulp_next_to_t(self, alpha):
        # the CF kernel is bounded by 1/(1-alpha), so the one-ulp piece next
        # to t carries at most 1e-12 of its mass on [0, t]
        t = KINKS[1]
        quad = caputo_fabrizio(Opaque(AbsShift(0.1)), alpha, 0.0, t)
        closed = caputo_fabrizio(AbsShift(0.1), alpha, 0.0, t)
        assert quad == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_rl_integral_keeps_the_ulp_next_to_t(self):
        # the kink of 1 + |t - 0.1| is a ramp added back in closed form, at
        # t = 0.1^+ too, where the piece [0.1, t] carries 16 % of the
        # kernel's mass at alpha 0.05
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
        assert rl_integral(f, al, 0.0, t) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio])
    def test_narrow_step_is_sampled_from_inside_each_piece(self, op):
        # the step is 1e-12 wide at 0.1, and the quadrature's panels end at
        # both its ends
        f = StepAntiderivative(((0.1, 0.1 + 1e-12),), (2.0,))
        closed = op(f, 0.5, 0.0, 1.0)
        quad = op(Opaque(f), 0.5, 0.0, 1.0)
        # f' is piecewise constant, so the error is rounding only; the value
        # is about 1e-12, and tau on the step is a float 1.4e-17 apart
        assert quad == pytest.approx(closed, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio, riemann_liouville])
    def test_derivative_singular_at_a_is_refused(self, op):
        # f' = t^(-1/2)/2 is infinite at a = 0, which is read before any
        # quadrature runs
        with pytest.raises(IntegrationError, match="tau = 0.0"):
            op(Opaque(Power(0.5)), 0.5, 0.0, 1.0)

    def test_cosine_past_the_reach_falls_back_to_quadrature(self):
        alpha, b, n = 0.5, 12.0, 24
        reach = 10.0 + math.lgamma(0.5)
        assert closed_form_fractional(Cosine(), OperatorKind.CAPUTO, alpha, 0.0, b) is None
        assert caputo(Cosine(), alpha, 0.0, b) == caputo(Opaque(Cosine()), alpha, 0.0, b)
        # the grid: closed forms up to the reach, one quadrature a point past it
        grid = evaluate_grid(OperatorKind.CAPUTO, Cosine(), alpha, 0.0, b, n)
        opaque = evaluate_grid(OperatorKind.CAPUTO, Opaque(Cosine()), alpha, 0.0, b, n)
        ts = b * np.arange(1, n + 1) / n
        past = ts > reach
        assert past.any() and not past.all()
        np.testing.assert_array_equal(grid[past], opaque[past])
        closed = [caputo(Cosine(), alpha, 0.0, t) for t in ts[~past].tolist()]
        np.testing.assert_allclose(grid[~past], closed, rtol=0, atol=1e-13)
        # and both sides of the reach agree with quadrature within its target
        assert np.all(np.abs(grid - opaque) <= POINT_TOL * np.maximum(1.0, np.abs(grid)))

    @pytest.mark.parametrize("b,n", [(40.0, 500), (11.0, 11), (100.0, 500)])
    def test_grid_far_past_the_reach_is_its_points(self, b, n):
        # six and sixteen periods of cos under the kernel on (0, 40) and
        # (0, 100): past the reach every grid value is that point's
        # quadrature, within 1e-11
        alpha = 0.5
        grid = evaluate_grid(OperatorKind.CAPUTO, Cosine(), alpha, 0.0, b, n)
        ts = b * np.arange(1, n + 1) / n
        past = ts > 10.0 + math.lgamma(0.5)
        points = [caputo(Cosine(), alpha, 0.0, t) for t in ts[past].tolist()]
        assert grid[past].tolist() == points

    def test_grid_it_cannot_resolve_is_refused(self):
        # at 1e6 a 4096-cell trapezoid gave -6.07 at t = b, where the value
        # is 0.909; b's quadrature goes first and passes the budget
        with pytest.raises(BudgetExceededError, match="exceeded 1000000 evaluations"):
            evaluate_grid(OperatorKind.CAPUTO, Cosine(), 0.5, 0.0, 1e6, 500)

    def test_cosine_far_past_the_reach(self):
        # six periods of cos under one kernel, where a 4096-cell trapezoid
        # was 8.5e-6 off.  mpmath, with tau = 40 - x^2:
        #     -2 / mp.sqrt(mp.pi) * mp.quad(lambda x: mp.sin(40 - x**2),
        #                                   mp.linspace(0, mp.sqrt(40), 60))
        assert abs(caputo(Cosine(), 0.5, 0.0, 40.0) - -1.0876356101940467) <= 1e-12

    def test_exponential_past_its_reach(self):
        # u = 715, past the series' 700, where a 4096-cell trapezoid was
        # 2.3e-3 off: e^705 gamma(1/2, 715) / Gamma(1/2) in mpmath
        got = caputo(Exponential(), 0.5, -10.0, 705.0)
        assert got == pytest.approx(1.5052538330631941e306, rel=1e-12, abs=0.0)


class TestKernelQuadratureOnOpaque:
    """The C and CF quadrature (``operators._pointwise``) of ``Opaque(f)``
    against the closed form of f, where a node meets a breakpoint."""

    def test_cf_on_step(self):
        # single step of height 1 on [0, 0.5], beta = 0.5, t = 0.25:
        # (1/(1-beta))(1 - e^(-((1-beta)/beta) t)) = 2 (1 - e^-0.25)
        f = StepAntiderivative(((0.0, 0.5),), (1.0,))
        got = caputo_fabrizio(Opaque(f), 0.5, 0.0, 0.25)
        assert got == pytest.approx(caputo_fabrizio(f, 0.5, 0.0, 0.25), rel=1e-13, abs=0.0)
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-0.25)), rel=1e-13, abs=0.0)

    def test_constant(self):
        f = Opaque(Affine(0.0, 3.0))
        assert caputo(f, 0.7, 0.0, 1.0) == 0.0
        assert caputo_fabrizio(f, 0.7, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio])
    @pytest.mark.parametrize("beta", [0.4, 0.1, 0.01])
    @pytest.mark.parametrize("f", [Power(2.0, 0.0), AbsShift(1.0)])
    def test_breakpoint_at_t(self, f, beta, op):
        # for |t - 1| at t = 1, f' is taken from the left where a node's
        # t - u rounds onto t
        got = op(Opaque(f), 1.0 - beta, 0.0, 1.0)
        assert got == pytest.approx(op(f, 1.0 - beta, 0.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("op", [caputo, caputo_fabrizio])
    @pytest.mark.parametrize("gap", [1e-14, 3e-16, 1e-12])
    def test_node_on_a_breakpoint(self, gap, op):
        # with the kink a few ulps left of t, some node's t - u rounds onto
        # it; f' there is a one-sided limit, not a refusal
        f = AbsShift(1.0 - gap)
        got = op(Opaque(f), 0.1, 0.0, 1.0)
        assert got == pytest.approx(op(f, 0.1, 0.0, 1.0), abs=1e-13)


class Square(TestFunction):
    """t^2 as a user would define it: value and derivative only, so every
    array goes through the base class's pointwise ``value_array`` and
    ``derivative_array``, and every operator value through quadrature."""

    def value(self, t):
        return t * t

    def derivative(self, t):
        return 2.0 * t


class UserCos(TestFunction):
    """cos t as a user would define it, in scalars."""

    def value(self, t):
        return math.cos(t)

    def derivative(self, t):
        return -math.sin(t)


class TestUserDefinedFunction:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_grid_quadrature_matches_power(self, kind):
        alpha, b = 0.6, 1.5
        grid = evaluate_grid(kind, Square(), alpha, 0.0, b, 40)
        closed = evaluate_grid(kind, Power(2.0), alpha, 0.0, b, 40)
        # f' is linear, so each point's quadrature is exact up to rounding
        np.testing.assert_allclose(grid, closed, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", [OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO])
    @pytest.mark.parametrize("norm", [error_l1, error_linf])
    def test_error_norms_match_power(self, kind, norm):
        # the L1 integrand and the sup-norm refinement fill every point
        # through pointwise quadrature
        interval = Interval(0.0, 1.5)
        got = norm(Square(), kind, 0.3, interval).value
        assert got == pytest.approx(norm(Power(2.0), kind, 0.3, interval).value, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_rl_integral(self, alpha):
        t = 1.2
        got = rl_integral(Square(), alpha, 0.0, t)
        assert got == pytest.approx(rl_integral(Power(2.0), alpha, 0.0, t), rel=1e-15, abs=0.0)
        exact = 2.0 * t ** (alpha + 2.0) / gamma(alpha + 3.0)
        assert abs(got - exact) <= POINT_TOL * max(1.0, abs(exact))

    @pytest.mark.parametrize("beta", [0.5, 1e-2, 1e-4])
    @pytest.mark.parametrize("kind", [OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO])
    def test_sup_norm_matches_the_catalog(self, kind, beta):
        # every scan and zoom value is a quadrature to 1e-11
        interval = Interval(0.0, 2.0)
        got = error_linf(UserCos(), kind, beta, interval).value
        want = error_linf(Cosine(), kind, beta, interval).value
        assert abs(got - want) <= POINT_TOL * want


class UserAbs(TestFunction):
    """|t - 1/2| as a user would define it, counting its derivative calls."""

    def __init__(self):
        self.calls = 0

    def value(self, t):
        return abs(t - 0.5)

    def derivative(self, t):
        self.calls += 1
        if t == 0.5:
            raise NonDifferentiableError("|t - 1/2| has no derivative at 1/2")
        return 1.0 if t > 0.5 else -1.0

    def breakpoints(self):
        return (0.5,)


class SqrtAbs(TestFunction):
    """sqrt|t - 1/2|, whose f' has no finite one-sided limit at 1/2."""

    def value(self, t):
        return math.sqrt(abs(t - 0.5))

    def derivative(self, t):
        if t == 0.5:
            raise NonDifferentiableError("sqrt|t - 1/2| has no derivative at 1/2")
        return math.copysign(0.5 / math.sqrt(abs(t - 0.5)), t - 0.5)

    def breakpoints(self):
        return (0.5,)


class SteepKink(TestFunction):
    """1000 (t - 1/2)^2 + |t - 1/2|: f' is 2000 (t - 1/2) -/+ 1, steep but
    with finite one-sided limits at 1/2."""

    def value(self, t):
        return 1000.0 * (t - 0.5) ** 2 + abs(t - 0.5)

    def derivative(self, t):
        if t == 0.5:
            raise NonDifferentiableError("|t - 1/2| has no derivative at 1/2")
        return 2000.0 * (t - 0.5) + math.copysign(1.0, t - 0.5)

    def breakpoints(self):
        return (0.5,)


#: SteepKink from closed forms: 1000 (t^2 + (1/4 - t)) + |t - 1/2|
STEEP_PARTS = ((1000.0, Power(2)), (1000.0, Affine(-1.0, 0.25)), (1.0, AbsShift(0.5)))


class TestJumpsOfTheDerivative:
    """f' jumps at a breakpoint: a point's quadrature ends its panels there,
    and an f' with no finite one-sided limit there is refused."""

    @pytest.mark.parametrize("kind", [OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO])
    def test_sup_norm_of_a_user_kink_matches_the_catalog(self, kind):
        f, interval = UserAbs(), Interval(0.0, 2.0)
        got = error_linf(f, kind, 1e-2, interval)
        want = error_linf(AbsShift(0.5), kind, 1e-2, interval)
        assert abs(got.value - want.value) <= POINT_TOL * want.value
        # one adaptive quadrature at each point scored, 224 (C) and 292 (CF)
        # nodes a point on average
        assert f.calls <= 400 * got.n_eval_points

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("kind", [OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO])
    def test_grid_of_a_kinked_user_function(self, kind, alpha):
        # cos t + 2 |t - 1/2|, without closed forms: each point's quadrature
        # ends its panels at the kink and is within 1e-11 of the closed forms
        f, n = Combination(1.0, Cosine(), 2.0, AbsShift(0.5)), 50
        grid = evaluate_grid(kind, f, alpha, 0.0, 1.0, n)
        closed = evaluate_grid(kind, Cosine(), alpha, 0.0, 1.0, n) + 2.0 * evaluate_grid(
            kind, AbsShift(0.5), alpha, 0.0, 1.0, n
        )
        assert np.all(np.abs(grid - closed) <= POINT_TOL * np.maximum(1.0, np.abs(closed)))

    @pytest.mark.parametrize("t", [0.30001, 0.3001234, 1.7])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_rl_integral_at_a_kink(self, alpha, t):
        # |tau - c| = (c - tau) + 2 (tau - c)_+: the kink is a ramp
        c = 0.3
        exact = (
            c * t**alpha / gamma(1.0 + alpha)
            - t ** (1.0 + alpha) / gamma(2.0 + alpha)
            + 2.0 * (t - c) ** (1.0 + alpha) / gamma(2.0 + alpha)
        )
        assert rl_integral(AbsShift(c), alpha, 0.0, t) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: caputo(f, 0.5, 0.0, 0.9),
            lambda f: caputo_fabrizio(f, 0.5, 0.0, 0.9),
            lambda f: evaluate_grid(OperatorKind.CAPUTO, f, 0.5, 0.0, 1.0, 4),
            lambda f: evaluate_grid(OperatorKind.CAPUTO_FABRIZIO, f, 0.5, 0.0, 1.0, 4),
            lambda f: riemann_liouville(f, 0.5, 0.0, 0.9),
        ],
    )
    def test_derivative_without_a_finite_limit_is_refused(self, call):
        # f' tends to infinity at the breakpoint: read at the next float it
        # is 6.7e7, which a quadrature would weigh as a finite limit (the
        # Caputo value at 0.9 would read -30868, where it is 0.343238)
        with pytest.raises(IntegrationError, match="no finite one-sided limit"):
            call(SqrtAbs())

    def test_integral_of_a_function_without_a_finite_derivative_limit(self):
        # the RL integral reads f, which is continuous at the breakpoint;
        # its panels end there, so the square-root cusp is integrated, not
        # refused.  mpmath, in the exact (t - tau)^(1/2) = 0.9^(1/2) s::
        #
        #     mp.mp.dps = 30
        #     w = mp.mpf(0.9)
        #     f = lambda s: mp.sqrt(abs(w * (1 - s**2) - mp.mpf(0.5)))
        #     cut = mp.sqrt(mp.mpf(0.4) / w)
        #     mp.sqrt(w) / mp.gamma(mp.mpf(1.5)) * mp.quad(f, [0, cut, 1])
        got = rl_integral(SqrtAbs(), 0.5, 0.0, 0.9)
        assert got == pytest.approx(0.51576488914122049, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", [OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO])
    def test_steep_derivative_with_a_limit_is_computed(self, kind):
        # f'' = 2000 moves f' by 2e-6 between the next float and 1e-9 from
        # the kink, as much as between 1e-9 / 2 and 1e-9: a finite limit.
        # f' is piecewise linear, so each point's quadrature is exact but for
        # rounding
        f, t = SteepKink(), 0.9
        want = sum(c * evaluate(kind, g, 0.5, 0.0, t) for c, g in STEEP_PARTS)
        assert evaluate(kind, f, 0.5, 0.0, t) == pytest.approx(want, rel=1e-13, abs=0.0)
        grid = evaluate_grid(kind, f, 0.5, 0.0, 1.0, 8)
        closed = sum(c * evaluate_grid(kind, g, 0.5, 0.0, 1.0, 8) for c, g in STEEP_PARTS)
        np.testing.assert_allclose(grid, closed, rtol=1e-12, atol=1e-12)

    def test_steep_rl_integral_is_computed(self):
        al, t, c = 0.5, 0.9, 0.5
        # I^al of 1000 (t - c)^2, and of |t - c| = (c - t) + 2 (t - c)_+
        exact = 1000.0 * (
            2.0 * t ** (2.0 + al) / gamma(3.0 + al)
            - 2.0 * c * t ** (1.0 + al) / gamma(2.0 + al)
            + c * c * t**al / gamma(1.0 + al)
        ) + (
            c * t**al / gamma(1.0 + al)
            - t ** (1.0 + al) / gamma(2.0 + al)
            + 2.0 * (t - c) ** (1.0 + al) / gamma(2.0 + al)
        )
        got = rl_integral(SteepKink(), al, 0.0, t)
        assert abs(got - exact) <= POINT_TOL * max(1.0, abs(exact))

    @pytest.mark.parametrize("kind", [OperatorKind.CAPUTO, OperatorKind.CAPUTO_FABRIZIO])
    def test_sup_norm_across_a_one_ulp_gap_is_refused(self, kind):
        # 5 t^2 + (|t - 0.9| + |t - 0.9^+|) / 2: f' is 8 left of the gap and
        # 10 right of it, so a 0 read on the gap as a one-sided limit would
        # enter the sup; its one-sided limits there are refused instead
        up = math.nextafter(0.9, 2.0)
        f = Combination(5.0, Power(2), 1.0, Combination(0.5, AbsShift(0.9), 0.5, AbsShift(up)))
        with pytest.raises(NonDifferentiableError):
            error_linf(f, kind, 0.01, Interval(0.0, 1.0))
