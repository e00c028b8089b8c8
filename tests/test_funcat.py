"""Catalog functions: exact values, derivatives, closed forms, string ids."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracorder import (
    AbsShift,
    Affine,
    Cosine,
    DomainError,
    Exponential,
    Interval,
    NonDifferentiableError,
    OperatorKind,
    Power,
    StepAntiderivative,
    TestFunction,
    caputo_fabrizio,
    closed_form_fractional,
    gamma,
    parse_function,
)

RL = OperatorKind.RIEMANN_LIOUVILLE
C = OperatorKind.CAPUTO
CF = OperatorKind.CAPUTO_FABRIZIO

mp.mp.dps = 40


class TestInterval:
    def test_width(self):
        assert Interval(-1.0, 3.0).width == 4.0

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf)])
    def test_invalid(self, a, b):
        with pytest.raises(DomainError):
            Interval(a, b)


class TestEval:
    def test_affine(self):
        assert Affine(1.0, 1.0).value(2.0) == 3.0

    def test_power(self):
        assert Power(2.0, 0.0).value(3.0) == 9.0

    def test_step(self):
        f = StepAntiderivative(((0.0, 1.0), (2.0, 3.0)), (2.0, -1.0))
        assert f.value(2.5) == pytest.approx(1.5)  # 2*1 + (-1)*0.5

    def test_step_zero_left_of_first_break(self):
        f = StepAntiderivative(((0.5, 1.0),), (3.0,))
        assert f.value(0.5) == 0.0
        assert f.value(-2.0) == 0.0

    def test_power_domain(self):
        with pytest.raises(DomainError):
            Power(0.5, 1.0).value(0.0)
        # integer exponents extend left of the origin
        assert Power(2.0, 1.0).value(0.0) == 1.0

    def test_exponential_cosine(self):
        assert Exponential().value(0.0) == 1.0
        assert Cosine().value(0.0) == 1.0


class TestDerivative:
    def test_cosine_at_zero(self):
        assert Cosine().derivative(0.0) == 0.0

    def test_absshift(self):
        assert AbsShift(1.0).derivative(0.5) == -1.0
        assert AbsShift(1.0).derivative(1.5) == 1.0

    def test_power(self):
        assert Power(2.0, 0.0).derivative(3.0) == 6.0

    def test_breakpoint_errors(self):
        with pytest.raises(NonDifferentiableError):
            AbsShift(1.0).derivative(1.0)
        step = StepAntiderivative(((0.0, 1.0),), (2.0,))
        for t in (0.0, 1.0):
            with pytest.raises(NonDifferentiableError):
                step.derivative(t)

    def test_step_piecewise_values(self):
        f = StepAntiderivative(((0.0, 1.0), (2.0, 3.0)), (2.0, -1.0))
        assert f.derivative(0.5) == 2.0
        assert f.derivative(1.5) == 0.0
        assert f.derivative(2.5) == -1.0
        assert f.derivative(4.0) == 0.0

    def test_singular_power_derivative(self):
        assert Power(0.5, 0.0).derivative(0.0) == math.inf


class TestStepValidation:
    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            StepAntiderivative(((0.0, 1.0), (0.5, 2.0)), (1.0, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            StepAntiderivative(((0.0, 1.0),), (1.0, 2.0))

    def test_empty_subinterval(self):
        with pytest.raises(DomainError):
            StepAntiderivative(((1.0, 1.0),), (1.0,))


class TestClosedForms:
    def test_power_caputo(self):
        # gamma_exp=1, alpha=0.5, t=1 -> 1/Gamma(1.5)
        got = closed_form_fractional(Power(1.0, 0.0), C, 0.5, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(1.5), rel=1e-14)

    def test_constant_is_zero(self):
        for kind in (C, CF):
            assert closed_form_fractional(Affine(0.0, 4.0), kind, 0.3, 0.0, 2.0) == 0.0

    def test_constant_rl(self):
        # f = 1, order 1-beta with beta=0.5 at t=1: t^(beta-1)/Gamma(beta)
        got = closed_form_fractional(Affine(0.0, 1.0), RL, 0.5, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(0.5), rel=1e-14)

    def test_absshift_left_branch(self):
        # |t-1| on [0,2], order 1-beta, beta=0.5, t=0.5: -t^0.5/Gamma(1.5)
        got = closed_form_fractional(AbsShift(1.0), C, 0.5, 0.0, 0.5)
        assert got == pytest.approx(-math.sqrt(0.5) / gamma(1.5), rel=1e-14)
        assert got == pytest.approx(-0.7978845608028654, rel=1e-12)

    def test_absshift_right_branch(self):
        # order 1-beta with beta=0.4 at t=1.5: (2*0.5^0.4 - 1.5^0.4)/Gamma(1.4)
        got = closed_form_fractional(AbsShift(1.0), C, 0.6, 0.0, 1.5)
        expected = (2.0 * 0.5**0.4 - 1.5**0.4) / gamma(1.4)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_power_origin_mismatch_has_no_form(self):
        assert closed_form_fractional(Power(2.0, 0.5), C, 0.5, 0.0, 1.0) is None

    def test_cosine_has_no_form(self):
        for kind in (RL, C, CF):
            assert closed_form_fractional(Cosine(), kind, 0.5, 0.0, 1.0) is None

    def test_exponential_only_cf(self):
        assert closed_form_fractional(Exponential(), C, 0.5, 0.0, 1.0) is None
        assert closed_form_fractional(Exponential(), RL, 0.5, 0.0, 1.0) is None
        # CF of e^t from 0 is e^t - e^(-alpha t/(1-alpha))
        got = closed_form_fractional(Exponential(), CF, 0.5, 0.0, 1.0)
        assert got == pytest.approx(math.e - math.exp(-1.0), rel=1e-14)

    def test_affine_linearity(self):
        # closed forms decompose as slope*(form of t) + intercept*(form of 1)
        rng = np.random.default_rng(42)
        for kind in (RL, C, CF):
            for _ in range(20):
                s, c = rng.uniform(-3, 3, 2)
                alpha = rng.uniform(0.05, 0.95)
                t = rng.uniform(0.1, 2.0)
                combo = closed_form_fractional(Affine(s, c), kind, alpha, 0.0, t)
                unit_t = closed_form_fractional(Affine(1.0, 0.0), kind, alpha, 0.0, t)
                unit_1 = closed_form_fractional(Affine(0.0, 1.0), kind, alpha, 0.0, t)
                assert combo == pytest.approx(s * unit_t + c * unit_1, abs=1e-12)

    def test_evaluation_point_validation(self):
        with pytest.raises(DomainError):
            closed_form_fractional(Affine(1.0, 0.0), C, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            closed_form_fractional(Affine(1.0, 0.0), C, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("g", [2.0, 3.0])
    @pytest.mark.parametrize(
        "alpha", [0.05, 0.3, 0.7, 0.9, 0.99, 1e-3, 1e-6, 1e-15, 1e-300]
    )
    def test_power_cf_against_mpmath(self, g, alpha):
        # the CF form once lost every digit to cancellation as alpha -> 0
        # (11 % off at 1e-15, 0.0 at 1e-300); u^g 1F1(1; g+1; z) / (1-alpha)
        # is the same integral in closed form
        rate = mp.mpf(alpha) / (1 - mp.mpf(alpha))
        for u in (0.01, 0.3, 1.0, 2.5):
            exact = mp.mpf(u) ** g * mp.hyp1f1(1, g + 1, -rate * u) / (1 - mp.mpf(alpha))
            got = closed_form_fractional(Power(g), CF, alpha, 0.0, u)
            assert abs(got - exact) <= 1e-14 * abs(exact)


def random_step(rng) -> StepAntiderivative:
    n = int(rng.integers(1, 6))
    edges = np.sort(rng.uniform(0.0, 2.0, 2 * n))
    # enforce strictly increasing edges to avoid empty subintervals
    edges += np.arange(2 * n) * 1e-6
    breaks = tuple((float(edges[2 * i]), float(edges[2 * i + 1])) for i in range(n))
    heights = tuple(float(q) for q in rng.uniform(-2.0, 2.0, n))
    return StepAntiderivative(breaks, heights)


class TestStepProperties:
    def test_continuity_and_piecewise_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_step(rng)
            for x in f.breakpoints():
                left = f.value(x - 1e-9)
                right = f.value(x + 1e-9)
                assert abs(left - right) <= 1e-8
            # exactly linear between consecutive breakpoints
            pts = (-0.5, *f.breakpoints(), 2.5)
            for lo, hi in zip(pts[:-1], pts[1:]):
                if hi - lo < 1e-5:
                    continue
                t0, t1 = lo + 0.2 * (hi - lo), lo + 0.8 * (hi - lo)
                tm = 0.5 * (t0 + t1)
                assert f.value(tm) == pytest.approx(
                    0.5 * (f.value(t0) + f.value(t1)), abs=1e-12
                )

    def test_cf_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            f = random_step(rng)
            alpha = float(rng.uniform(0.1, 0.9))
            t = float(rng.uniform(0.5, 2.5))
            if any(abs(t - x) < 1e-4 for x in f.breakpoints()):
                continue
            closed = closed_form_fractional(f, CF, alpha, -0.5, t)
            quad = caputo_fabrizio(f, alpha, -0.5, t, use_closed_form=False)
            assert closed == pytest.approx(quad, abs=1e-8)


@st.composite
def catalog_on_interval(draw):
    """A catalog entry with closed forms, and an interval [a, b] for it."""
    a = draw(st.sampled_from([0.0, -0.5, 1.0]))
    width = draw(st.floats(0.1, 3.0))
    name = draw(st.sampled_from(["power", "affine", "exp", "abs", "step"]))
    if name == "power":
        g = draw(st.one_of(st.integers(1, 3).map(float), st.floats(0.1, 4.0)))
        f = Power(g, a)
    elif name == "affine":
        f = Affine(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    elif name == "exp":
        f = Exponential()
    elif name == "abs":
        f = AbsShift(a + width * draw(st.floats(-0.5, 1.5)))
    else:
        n = draw(st.integers(1, 3))
        fracs = sorted(draw(st.lists(st.floats(-0.3, 1.3), min_size=2 * n, max_size=2 * n)))
        # spread the edges apart so no subinterval is empty
        edges = [a + width * (x + 1e-3 * i) for i, x in enumerate(fracs)]
        heights = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        f = StepAntiderivative(
            tuple((edges[2 * i], edges[2 * i + 1]) for i in range(n)), tuple(heights)
        )
    return f, a, a + width


def _exact_in_arithmetic(f) -> bool:
    """Whether the array closed forms differ from the scalar ones by rounding
    only, rather than by the order of a Mittag-Leffler series sum."""
    return not isinstance(f, Power) or (f._is_integer_exp() and f.gamma_exp <= 3)


class TestClosedFormGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        entry=catalog_on_interval(),
        kind=st.sampled_from([C, CF]),
        alpha=st.floats(0.01, 0.999),
        n=st.integers(2, 300),
    )
    def test_matches_scalar_hook(self, entry, kind, alpha, n):
        f, a, b = entry
        ts = a + (b - a) * np.arange(1, n + 1) / n
        scalar = [f._closed_form(kind, alpha, a, t) for t in ts.tolist()]
        grid = f._closed_form_grid(kind, alpha, a, ts)
        if grid is None:
            assert all(v is None for v in scalar)
            return
        missing = np.isnan(grid)
        assert missing.tolist() == [v is None for v in scalar]
        if missing.all():
            return
        known = np.array([v for v in scalar if v is not None])
        tol = 1e-13 if _exact_in_arithmetic(f) else 1e-10
        scale = np.max(np.abs(grid[~missing]))
        assert np.max(np.abs(grid[~missing] - known), initial=0.0) <= tol * scale

    def test_scalar_only_entry_gets_grid_hook(self):
        class ScalarOnly(Affine):
            _closed_form_grid = TestFunction._closed_form_grid

        f = ScalarOnly(2.0, 1.0)
        ts = np.array([0.25, 0.5, 1.0])
        grid = f._closed_form_grid(CF, 0.4, 0.0, ts)
        assert grid.tolist() == [f._closed_form(CF, 0.4, 0.0, t) for t in ts.tolist()]
        assert Cosine()._closed_form_grid(C, 0.4, 0.0, ts) is None


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("exp", Exponential()),
            ("cos", Cosine()),
            ("power:2", Power(2.0)),
            ("power:2.5,1", Power(2.5, 1.0)),
            ("abs:1", AbsShift(1.0)),
            ("affine:1,1", Affine(1.0, 1.0)),
            ("affine:0,1", Affine(0.0, 1.0)),
            (
                "step:0,1,2;2,3,-1",
                StepAntiderivative(((0.0, 1.0), (2.0, 3.0)), (2.0, -1.0)),
            ),
        ],
    )
    def test_good_ids(self, text, expected):
        assert parse_function(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "nope", "power:", "power:a", "abs:", "affine:1", "step:1,2", "power:-1"]
    )
    def test_bad_ids(self, text):
        with pytest.raises(DomainError):
            parse_function(text)
