"""Catalog functions: exact values, derivatives, closed forms, string ids."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import Opaque
from fracorder import (
    AbsShift,
    Affine,
    Cosine,
    DomainError,
    Exponential,
    FractionalOrder,
    Interval,
    NonDifferentiableError,
    OperatorKind,
    Power,
    StepAntiderivative,
    caputo_fabrizio,
    closed_form_fractional,
    gamma,
    parse_function,
)
from fracorder import funcat
from fracorder.funcat import rl_boundary_term

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

    def test_width_that_overflows_is_refused(self):
        # both ends are finite doubles, b - a is not
        with pytest.raises(DomainError, match="width"):
            Interval(-1e308, 1e308)


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

    def test_step_cancelling_steps_keep_their_digits(self):
        # summed in order, these steps come out 2 ulp off the exact sum
        steps = ((-0.25, 0.001, -0.75), (0.002, 0.753, 0.0625), (1.004, 2.005, 0.125))
        f = StepAntiderivative(tuple((a, b) for a, b, _ in steps), tuple(q for *_, q in steps))
        t = 2.004999999
        exact = math.fsum(q * (min(t, b) - a) for a, b, q in steps)
        assert f.value(t) == exact

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
        assert got == pytest.approx(1.0 / gamma(1.5), rel=1e-14, abs=0.0)

    def test_constant_is_zero(self):
        for kind in (C, CF):
            assert closed_form_fractional(Affine(0.0, 4.0), kind, 0.3, 0.0, 2.0) == 0.0

    def test_constant_rl(self):
        # f = 1, order 1-beta with beta=0.5 at t=1: t^(beta-1)/Gamma(beta)
        got = closed_form_fractional(Affine(0.0, 1.0), RL, 0.5, 0.0, 1.0)
        assert got == pytest.approx(1.0 / gamma(0.5), rel=1e-14, abs=0.0)

    def test_absshift_left_branch(self):
        # |t-1| on [0,2], order 1-beta, beta=0.5, t=0.5: -t^0.5/Gamma(1.5)
        got = closed_form_fractional(AbsShift(1.0), C, 0.5, 0.0, 0.5)
        assert got == pytest.approx(-math.sqrt(0.5) / gamma(1.5), rel=1e-14, abs=0.0)
        assert got == pytest.approx(-0.7978845608028654, rel=1e-12, abs=0.0)

    def test_absshift_right_branch(self):
        # order 1-beta with beta=0.4 at t=1.5: (2*0.5^0.4 - 1.5^0.4)/Gamma(1.4)
        got = closed_form_fractional(AbsShift(1.0), C, 0.6, 0.0, 1.5)
        expected = (2.0 * 0.5**0.4 - 1.5**0.4) / gamma(1.4)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_power_origin_mismatch_has_no_form(self):
        assert closed_form_fractional(Power(2.0, 0.5), C, 0.5, 0.0, 1.0) is None

    def test_exponential_cf(self):
        # CF of e^t from 0 is e^t - e^(-alpha t/(1-alpha))
        got = closed_form_fractional(Exponential(), CF, 0.5, 0.0, 1.0)
        assert got == pytest.approx(math.e - math.exp(-1.0), rel=1e-14, abs=0.0)

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


def _series_about_a(deriv, alpha, a, t):
    """u^(1-alpha) sum_n f^(n+1)(a) u^n / Gamma(n+2-alpha), u = t - a, term
    by term at the working precision: the Caputo derivative of an entire f.
    (mpmath quad is no oracle here: it misjudges the (t-s)^(-alpha)
    endpoint badly as alpha -> 1.)"""
    al, a_ = mp.mpf(alpha), mp.mpf(a)
    u = mp.mpf(t) - a_
    term, total, n = 1 / mp.gamma(2 - al), mp.mpf(0), 0
    while n <= u or abs(term) > mp.mpf(10) ** -45:
        total += deriv(n, a_) * term
        n += 1
        term *= u / (n + 1 - al)
    return u ** (1 - al) * total


def _cos_derivative(n, a):
    """cos^(n+1)(a): -sin, -cos, sin, cos with period 4."""
    return (-mp.sin(a), -mp.cos(a), mp.sin(a), mp.cos(a))[n % 4]


def _cf_cosine(alpha, a, t):
    """-((r sin t - cos t) - e^(-r u)(r sin a - cos a)) / ((1-alpha)(r^2+1)),
    r = alpha/(1-alpha), at 60 digits, where its cancellation is harmless."""
    with mp.workdps(60):
        al, a_, t_ = mp.mpf(alpha), mp.mpf(a), mp.mpf(t)
        r = al / (1 - al)
        at_t = r * mp.sin(t_) - mp.cos(t_)
        at_a = r * mp.sin(a_) - mp.cos(a_)
        return -(at_t - mp.exp(-r * (t_ - a_)) * at_a) / ((1 - al) * (r * r + 1))


#: orders, left ends and distances u = t - a of the golden tests
GOLDEN_ALPHAS = [0.05, 0.3, 0.5, 0.9, 0.99, 0.9999, 1 - 1e-8]
GOLDEN_STARTS = [0.0, -0.7, 1.3]
GOLDEN_US = [1e-6, 1e-3, 0.3, 1.0, 2.7]

EPS = 2.0**-52


class TestTranscendentalForms:
    """cos under C and CF, e^t under C against exact oracles; RL follows
    from C through ``closed_form_fractional``."""

    @pytest.mark.parametrize("alpha", GOLDEN_ALPHAS)
    def test_cosine_caputo(self, alpha):
        for a in GOLDEN_STARTS:
            for u in GOLDEN_US:
                t = a + u
                exact = _series_about_a(_cos_derivative, alpha, a, t)
                got = closed_form_fractional(Cosine(), C, alpha, a, t)
                # the terms peak near e^u and cancel: a few e^u ulp absolute
                assert abs(got - exact) <= 1e-14 * abs(exact) + 4 * EPS * math.exp(u)

    @pytest.mark.parametrize("alpha", GOLDEN_ALPHAS)
    def test_cosine_caputo_to_the_reach(self, alpha):
        # the loss grows as e^u u^(-alpha)/Gamma(1-alpha) eps up to the reach,
        # where the series gives way to quadrature
        reach = funcat._cos_c_reach(FractionalOrder(alpha))
        for a in GOLDEN_STARTS:
            for u in (5.0, reach):
                t = a + u
                exact = _series_about_a(_cos_derivative, alpha, a, t)
                loss = EPS * math.exp(u) * u**-alpha / gamma(1.0 - alpha)
                got = closed_form_fractional(Cosine(), C, alpha, a, t)
                assert abs(got - exact) <= 1e-14 * abs(exact) + 4 * loss
        assert closed_form_fractional(Cosine(), C, alpha, 0.0, reach * 1.01) is None

    @pytest.mark.parametrize("alpha", GOLDEN_ALPHAS)
    def test_cosine_caputo_one_array_to_the_reach(self, alpha):
        # one call sums every point with the terms that the farthest needs,
        # in powers of u over the farthest u: the near points keep their
        # accuracy beside it
        order = FractionalOrder(alpha)
        reach = funcat._cos_c_reach(order)
        for a in GOLDEN_STARTS:
            us = np.array([*GOLDEN_US, 5.0, reach])
            got = Cosine()._closed_form_grid(C, order, a, a + us)
            for u, value in zip(us.tolist(), got.tolist()):
                exact = _series_about_a(_cos_derivative, alpha, a, a + u)
                loss = EPS * math.exp(u) * u**-alpha / gamma(1.0 - alpha)
                assert abs(value - exact) <= 1e-14 * abs(exact) + 4 * loss, u

    @pytest.mark.parametrize("alpha", GOLDEN_ALPHAS)
    def test_cosine_caputo_fabrizio(self, alpha):
        for a in GOLDEN_STARTS:
            for u in (*GOLDEN_US, 10.0, 40.0):
                t = a + u
                exact = _cf_cosine(alpha, a, t)
                got = closed_form_fractional(Cosine(), CF, alpha, a, t)
                # sin t Re + cos t Im cancels only where the value itself
                # is small against u |phi1| / (1-alpha)
                scale = -math.expm1(-alpha / (1.0 - alpha) * u) / alpha
                assert abs(got - exact) <= 1e-14 * abs(exact) + 4 * EPS * scale

    @pytest.mark.parametrize("alpha", GOLDEN_ALPHAS)
    def test_exponential_caputo(self, alpha):
        for a in GOLDEN_STARTS:
            for u in (*GOLDEN_US, 10.0, 40.0):
                t = a + u
                exact = _series_about_a(lambda n, a_: mp.exp(a_), alpha, a, t)
                got = closed_form_fractional(Exponential(), C, alpha, a, t)
                assert abs(got - exact) <= 1e-14 * abs(exact)

    def test_riemann_liouville_from_caputo(self):
        for f in (Cosine(), Exponential()):
            cap = closed_form_fractional(f, C, 0.6, -0.7, 0.8)
            rl = closed_form_fractional(f, RL, 0.6, -0.7, 0.8)
            assert rl == rl_boundary_term(f, 0.6, -0.7, 0.8) + cap

    def test_exponential_past_reach(self):
        # E_{1,2-alpha}(u) overflows near u = 709
        assert closed_form_fractional(Exponential(), C, 0.5, -400.0, 301.0) is None
        grid = Exponential()._closed_form_grid(
            C, FractionalOrder(0.5), -400.0, np.array([299.0, 301.0])
        )
        assert math.isfinite(grid[0]) and math.isnan(grid[1])

    def test_phi1_against_mpmath(self):
        # (e^z - 1)/z, which cos under CF rests on, over |z| from 1e-300 to
        # 5 with Re z <= 0: the Taylor series (|z| < 1) keeps each part within
        # 2e-16 of |phi1| (1.6e-16 at most over 11000 such points); e^z - 1
        # by parts loses up to about 2 ulp more to its complex division
        # (4.9e-16 over the same points)
        rng = np.random.default_rng(20)
        mag = np.concatenate([10.0 ** rng.uniform(-300, -3, 300), rng.uniform(1e-3, 5.0, 800)])
        ang = rng.uniform(0.5 * np.pi, 1.5 * np.pi, mag.size)
        z = mag * np.cos(ang) + 1j * mag * np.sin(ang)
        z.real = np.minimum(z.real, 0.0)
        z[:4] = [-1.0, 1j, -0.5j, -5.0]
        got = funcat._phi1_array(z)
        for zz, value in zip(z.tolist(), got.tolist()):
            w = mp.mpc(zz)
            exact = mp.expm1(w) / w
            bound = (2e-16 if abs(zz) < funcat._PHI1_SERIES else 6e-16) * abs(exact)
            assert abs(value.real - exact.real) <= bound
            assert abs(value.imag - exact.imag) <= bound


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
            quad = caputo_fabrizio(Opaque(f), alpha, -0.5, t)
            assert closed == pytest.approx(quad, abs=1e-8)


@st.composite
def catalog_on_interval(draw):
    """A catalog entry with closed forms, and an interval [a, b] for it."""
    a = draw(st.sampled_from([0.0, -0.5, 1.0]))
    width = draw(st.floats(0.1, 3.0))
    name = draw(st.sampled_from(["power", "affine", "exp", "cos", "abs", "step"]))
    if name == "power":
        g = draw(st.one_of(st.integers(1, 3).map(float), st.floats(0.1, 4.0)))
        f = Power(g, a)
    elif name == "affine":
        f = Affine(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    elif name == "exp":
        f = Exponential()
    elif name == "cos":
        f = Cosine()
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


def _f_prime_pieces(f, a, t):
    """f' on (a, t) as (lo, hi, slope) pieces, for the entries whose f' is
    piecewise constant."""
    if isinstance(f, Affine):
        return [(a, t, mp.mpf(f.slope))]
    if isinstance(f, AbsShift):
        c = mp.mpf(f.center)
        return [(a, min(c, t), -1), (max(c, a), t, 1)]
    return [
        (max(mp.mpf(lo), a), min(mp.mpf(hi), t), mp.mpf(q))
        for (lo, hi), q in zip(f.breaks, f.heights)
    ]


def _exact_closed_form(f, kind, alpha, a, t):
    """D f(t) from a for kind C or CF at 30 digits, each pair's formula
    written afresh: powers and e^t through 1F1, cos through the oracles
    above, and an f' that is piecewise constant as the sum over its pieces
    of slope times the kernel's integral over (t - hi, t - lo)."""
    with mp.workdps(30):
        al, a_, t_ = mp.mpf(alpha), mp.mpf(a), mp.mpf(t)
        u, p = t_ - a_, 1 - al
        rate = al / p
        if isinstance(f, Power):
            g = mp.mpf(f.gamma_exp)
            if kind is C:
                return mp.gamma(g + 1) / mp.gamma(g + p) * u ** (g - al)
            return u**g * mp.hyp1f1(1, g + 1, -rate * u) / p
        if isinstance(f, Exponential):
            if kind is C:
                return mp.exp(a_) * u**p * mp.hyp1f1(1, 1 + p, u) / mp.gamma(1 + p)
            return mp.exp(t_) - mp.exp(a_ - rate * u)
        if isinstance(f, Cosine):
            if kind is C:
                return _series_about_a(_cos_derivative, alpha, a, t)
            return _cf_cosine(alpha, a, t)

        def kernel_integral(near, far):
            if kind is C:
                return (far**p - near**p) / mp.gamma(1 + p)
            # e^(-rate near) - e^(-rate far), not (1 - e^(-rate far)) -
            # (1 - e^(-rate near)), which cancels to nothing far from the piece
            return (mp.exp(-rate * near) - mp.exp(-rate * far)) / al

        return sum(
            q * kernel_integral(t_ - hi, t_ - lo)
            for lo, hi, q in _f_prime_pieces(f, a_, t_)
            if lo < hi
        )


class TestClosedFormGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        entry=catalog_on_interval(),
        kind=st.sampled_from([C, CF]),
        alpha=st.floats(0.01, 0.999),
        n=st.integers(2, 300),
    )
    def test_matches_exact_formula(self, entry, kind, alpha, n):
        f, a, b = entry
        ts = a + (b - a) * np.arange(1, n + 1) / n
        grid = f._closed_form_grid(kind, FractionalOrder(alpha), a, ts)
        # only Power-CF with a non-integer exponent stops short, left of the
        # trusted Mittag-Leffler series, on intervals this short
        series = isinstance(f, Power) and kind is CF and not f._is_integer_exp()
        if series:
            z = -(alpha / (1.0 - alpha)) * (ts - a)
            np.testing.assert_array_equal(np.isnan(grid), z < funcat._ML_SERIES_TRUST)
        else:
            assert not np.isnan(grid).any()
        known = np.flatnonzero(~np.isnan(grid))
        if not known.size:
            return
        scale = np.max(np.abs(grid[known]))
        # mpmath at up to 8 points spread over the grid keeps the draws cheap
        picks = known[np.unique(np.linspace(0, known.size - 1, 8).round().astype(int))]
        exact = np.array(
            [float(_exact_closed_form(f, kind, alpha, a, t)) for t in ts[picks].tolist()]
        )
        tol = 1e-10 if series else 1e-13
        # plus float64's absolute rounding floor, for a value drawn subnormal
        floor = 4 * np.finfo(float).smallest_subnormal
        assert np.max(np.abs(grid[picks] - exact)) <= tol * scale + floor

    def test_entry_without_forms_has_no_grid_hook(self):
        ts = np.array([0.25, 0.5, 1.0])
        assert Opaque(Cosine())._closed_form_grid(C, FractionalOrder(0.4), 0.0, ts) is None
        assert closed_form_fractional(Opaque(Cosine()), RL, 0.4, 0.0, 0.5) is None

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.99, 1 - 1e-6])
    @pytest.mark.parametrize("f,width", [(Cosine(), 40.0), (Exponential(), 900.0)])
    def test_grid_is_nan_exactly_past_the_reach(self, f, width, alpha):
        # from a = -350, e^t stays a normal float from u = 0 to past its reach
        a = -0.7 if isinstance(f, Cosine) else -350.0
        reach = (
            funcat._cos_c_reach(FractionalOrder(alpha))
            if isinstance(f, Cosine)
            else funcat._EXP_C_REACH
        )
        ts = a + width * np.arange(1, 402) / 401
        grid = f._closed_form_grid(C, FractionalOrder(alpha), a, ts)
        missing = np.isnan(grid)
        np.testing.assert_array_equal(missing, ts - a > reach)
        assert 0 < missing.sum() < len(ts)
        # the values short of the reach, up to its last point, against the
        # exact ones; cos/C loses about e^u u^(-alpha)/Gamma(1-alpha) ulp to
        # the cancellation of its series
        known = np.flatnonzero(~missing)
        picks = known[np.unique(np.linspace(0, known.size - 1, 16).round().astype(int))]
        for t, got in zip(ts[picks].tolist(), grid[picks].tolist()):
            u = t - a
            exact = float(_exact_closed_form(f, C, alpha, a, t))
            loss = 0.0
            if isinstance(f, Cosine):
                loss = EPS * math.exp(u) * u**-alpha / gamma(1.0 - alpha)
            assert abs(got - exact) <= 1e-13 * abs(exact) + 4 * loss
        # the one-point form is None exactly where the grid is NaN
        last, first_past = ts[~missing][-1], ts[missing][0]
        assert closed_form_fractional(f, C, alpha, a, float(last)) == grid[~missing][-1]
        assert closed_form_fractional(f, C, alpha, a, float(first_past)) is None


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


def _fmt_id(*xs):
    return ",".join(repr(float(x)) for x in xs)


@st.composite
def catalog_ids(draw):
    """A catalog id that ``parse_function`` accepts, with f, f' and the
    breakpoints of its function written with ``math`` only, and points in
    the function's domain at which to compare them."""
    name = draw(st.sampled_from(["power", "affine", "exp", "cos", "abs", "step"]))
    lo, hi = -3.0, 3.0
    points = []
    breaks = set()
    limit = None  # (c, side) -> the one-sided limit of f' at breakpoint c
    if name == "power":
        g = draw(st.one_of(st.integers(1, 4).map(float), st.floats(0.1, 4.0)))
        origin = draw(st.sampled_from([0.0, -0.5, 1.0]))
        text = f"power:{_fmt_id(g)}" if origin == 0.0 else f"power:{_fmt_id(g, origin)}"
        if g != round(g):
            lo = origin
        points.append(origin)  # where f' is 0, 1 or inf, by g

        def value(t):
            return (t - origin) ** g

        def derivative(t):
            u = t - origin
            if u == 0.0:
                return 0.0 if g > 1 else (1.0 if g == 1 else math.inf)
            return g * u ** (g - 1.0)

    elif name == "affine":
        s, i = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
        text = f"affine:{_fmt_id(s, i)}"

        def value(t):
            return s * t + i

        def derivative(t):
            return s

    elif name in ("exp", "cos"):
        text = name
        value = math.exp if name == "exp" else math.cos

        def derivative(t):
            return math.exp(t) if name == "exp" else -math.sin(t)

    elif name == "abs":
        c = draw(st.floats(-2.0, 2.0))
        text, breaks = f"abs:{_fmt_id(c)}", {c}

        def value(t):
            return abs(t - c)

        def derivative(t):
            if t == c:
                raise NonDifferentiableError
            return 1.0 if t > c else -1.0

        def limit(x, side):
            return 1.0 if side > 0 else -1.0

    else:
        n = draw(st.integers(1, 3))
        fracs = sorted(draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n)))
        edges = [x + 1e-3 * k for k, x in enumerate(fracs)]
        if draw(st.booleans()) and n > 1:
            edges[2] = edges[1]  # two steps that meet
        heights = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        steps = [(edges[2 * k], edges[2 * k + 1], heights[k]) for k in range(n)]
        text = "step:" + ";".join(_fmt_id(*step) for step in steps)
        breaks = set(edges)

        def value(t):
            return math.fsum(q * max(min(t, b) - a, 0.0) for a, b, q in steps)

        def derivative(t):
            if t in breaks:
                raise NonDifferentiableError
            return sum(q for a, b, q in steps if a < t < b)

        def limit(x, side):
            return sum(q for a, b, q in steps if (a <= x < b if side > 0 else a < x <= b))

    points += draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8))
    points += [x + d for x in breaks for d in (-1e-9, 1e-9) if lo <= x + d]
    return text, value, derivative, breaks, limit, points


def _close(x, y):
    return x == y or math.isclose(x, y, rel_tol=4e-16)


class TestCatalogAgainstMath:
    """Every catalog id, against f and f' written with ``math`` alone."""

    @settings(max_examples=150, deadline=None)
    @given(case=catalog_ids())
    def test_scalars_match_math(self, case):
        text, value, derivative, breaks, _, points = case
        f = parse_function(text)
        for t in points:
            if t in breaks:
                continue
            assert _close(f.value(t), value(t))
            assert _close(f.derivative(t), derivative(t))

    @settings(max_examples=150, deadline=None)
    @given(case=catalog_ids())
    def test_derivative_refused_exactly_on_breakpoints(self, case):
        text, _, _, breaks, _, points = case
        f = parse_function(text)
        assert set(f.breakpoints()) == breaks
        for c in breaks:
            with pytest.raises(NonDifferentiableError):
                f.derivative(c)
        for t in points:
            if t not in breaks:
                f.derivative(t)

    @settings(max_examples=150, deadline=None)
    @given(case=catalog_ids())
    def test_one_sided_limits_at_breakpoints(self, case):
        text, _, _, breaks, limit, _ = case
        f = parse_function(text)
        cs = np.array(sorted(breaks))
        for side in (-math.inf, math.inf):
            got = funcat._derivative_toward(f, cs, side).tolist()
            assert got == [limit(c, side) for c in cs.tolist()]

    @settings(max_examples=150, deadline=None)
    @given(case=catalog_ids(), k=st.integers(0, 7))
    def test_one_point_array_matches_longer_array(self, case, k):
        text, _, _, breaks, _, points = case
        f = parse_function(text)
        ts = np.array([t for t in points if t not in breaks])
        assume(ts.size)
        k %= ts.size
        one = ts[k : k + 1]
        assert f.value_array(one)[0] == f.value_array(ts)[k]
        assert f.derivative_array(one)[0] == f.derivative_array(ts)[k]
