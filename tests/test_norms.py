"""Error functionals: closed-form agreement, sup-norm candidates, sweeps."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Opaque, record_binds, record_errors
from fracorder import funcat, norms, operators
from fracorder import (
    AbsShift,
    Affine,
    BudgetExceededError,
    Cosine,
    DomainError,
    ErrorReport,
    Exponential,
    FractionalOrder,
    IntegrationError,
    Interval,
    NonDifferentiableError,
    NormKind,
    NumericalError,
    OperatorKind,
    Power,
    StepAntiderivative,
    TestFunction,
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

    def test_budget(self, monkeypatch):
        # the budget is read at call time
        monkeypatch.setattr(operators, "MAX_EVALS", 40)
        with pytest.raises(BudgetExceededError):
            error_l1(Cosine(), C, 0.5, I01)

    def test_beta_validation(self):
        with pytest.raises(DomainError):
            error_l1(ONE, C, 1.0, I01)
        with pytest.raises(DomainError):
            error_l1(ONE, C, 0.5, I01, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_tol_must_be_finite(self, tol):
        # an infinite tol would stop after one round and bound nothing
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            error_l1(Cosine(), C, 0.1, I01, tol=tol)

    def test_no_budget_keyword(self):
        with pytest.raises(TypeError, match="max_evals"):
            error_l1(Cosine(), C, 0.5, I01, max_evals=40)

    def test_reports_estimate_within_tol(self):
        # |t - 1| under C: a looser tol stops after fewer rounds around the
        # kink of the error; one pass of the flattened pieces already meets
        # 1e-8, so the looser of the two is 1e-8 and the tighter 1e-13
        f, interval = AbsShift(1.0), Interval(0.0, 2.0)
        report = error_l1(f, C, 0.1, interval, tol=1e-13)
        assert 0.0 < report.quad_error <= 1e-13
        loose = error_l1(f, C, 0.1, interval)
        assert loose.quad_error <= 1e-8
        assert loose.n_eval_points < report.n_eval_points
        assert loose.value == pytest.approx(report.value, abs=1e-8)

    @pytest.mark.parametrize(
        "f,kind,beta,interval,most",
        [
            (Cosine(), CF, 0.1, I01, 3),
            (Cosine(), CF, 0.01, I01, 3),
            (Cosine(), CF, 0.001, I01, 3),
            (AbsShift(1.0), C, 0.1, Interval(0.0, 2.0), 4),
        ],
    )
    def test_sign_changes_cost_few_rounds(self, f, kind, beta, interval, most, monkeypatch):
        # each round calls the integrand once; bisecting at the kinks of
        # |D f - f'| took 12, 10, 8 and 12 rounds.  |t - 1| under C is two
        # flattened pieces of two rounds each; on t-panels it took 8
        rounds = 0
        original = operators._gauss_kronrod

        def counting(fn, *args, **kwargs):
            def counted(x):
                nonlocal rounds
                rounds += 1
                return fn(x)

            return original(counted, *args, **kwargs)

        monkeypatch.setattr(operators, "_gauss_kronrod", counting)
        error_l1(f, kind, beta, interval)
        assert rounds <= most

    def test_budget_counts_every_node(self, monkeypatch):
        # 15 nodes a panel, and the two probes of each of the two pieces
        report = error_l1(AbsShift(1.0), C, 0.1, Interval(0.0, 2.0))
        assert (report.n_eval_points - 2 * 2) % 15 == 0
        monkeypatch.setattr(operators, "MAX_EVALS", report.n_eval_points)
        again = error_l1(AbsShift(1.0), C, 0.1, Interval(0.0, 2.0))
        assert again == report
        monkeypatch.setattr(operators, "MAX_EVALS", report.n_eval_points - 1)
        with pytest.raises(BudgetExceededError):
            error_l1(AbsShift(1.0), C, 0.1, Interval(0.0, 2.0))

    @pytest.mark.parametrize("closed_forms", [True, False])
    def test_refuses_tol_below_what_the_panels_can_reach(self, closed_forms):
        # a panel 2^-42 of its position wide is neither bisected nor split at
        # its boundary layer, and its estimate is at least 50 eps times its
        # integral, about 2.3e-13 here; no node may land on a, where the
        # scalar operators (all the opaque function has) are undefined
        f = Affine(1.0, 0.0) if closed_forms else Opaque(Affine(1.0, 0.0))
        narrow = Interval(1.0, 1.0 + 2.0**-42)
        assert error_l1(f, C, 0.5, narrow).quad_error <= 1e-8
        with pytest.raises(IntegrationError, match="too narrow to bisect"):
            error_l1(f, C, 0.5, narrow, tol=1e-30)

    def test_refuses_tol_below_the_rounding_floor(self, monkeypatch):
        # every panel's estimate is at least 50 eps times its integral, so
        # bisection cannot bring the sum below about 1.5e-15 here; the tol is
        # refused after the first round, not by the evaluation budget
        monkeypatch.setattr(operators, "MAX_EVALS", 10**4)
        with pytest.raises(IntegrationError, match="rounding floor"):
            error_l1(Power(2.0), C, 0.1, Interval(0.0, 2.0), tol=1e-15)

    @pytest.mark.parametrize("kind,beta", [(C, 0.1), (C, 1e-3), (RL, 0.1), (RL, 1e-3)])
    def test_abs_against_mpmath(self, kind, beta):
        # |t - 1| on (0, 2): under C the error is e(t) = 1 - t^b/Gamma(1+b)
        # left of 1 and e(t) = (2(t-1)^b - t^b)/Gamma(1+b) - 1 right of it; RL
        # adds f(0) t^(b-1)/Gamma(b) with f(0) = 1 (the flattened panel left
        # of 1, the boundary term right of it).  |e| is integrated exactly,
        # from each branch's antiderivative between the roots of e
        rl = 1 if kind is RL else 0

        def left(t):
            return rl * t ** (b - 1) / mp.gamma(b) + 1 - t**b / mp.gamma(1 + b)

        def left_integral(t):
            return rl * t**b / mp.gamma(1 + b) + t - t ** (1 + b) / mp.gamma(2 + b)

        def right(t):
            return rl * t ** (b - 1) / mp.gamma(b) + (2 * (t - 1) ** b - t**b) / mp.gamma(1 + b) - 1

        def right_integral(t):
            power = (2 * (t - 1) ** (1 + b) - t ** (1 + b)) / mp.gamma(2 + b)
            return rl * t**b / mp.gamma(1 + b) + power - t

        with mp.workdps(30):
            b = mp.mpf(beta)
            exact = mp.mpf(0)
            for lo, hi, e, integral in ((0, 1, left, left_integral), (1, 2, right, right_integral)):
                pts = mp.linspace(lo, hi, 401)[1:-1]
                roots = [
                    mp.findroot(e, (x, y), solver="illinois")
                    for x, y in zip(pts, pts[1:])
                    if e(x) * e(y) < 0
                ]
                cuts = [mp.mpf(lo), *roots, mp.mpf(hi)]
                exact += sum(abs(integral(y) - integral(x)) for x, y in zip(cuts, cuts[1:]))
            exact = float(exact)
        report = error_l1(AbsShift(1.0), kind, beta, Interval(0.0, 2.0), tol=1e-8)
        assert abs(report.value - exact) <= 1e-8

    @pytest.mark.parametrize("kind", [C, CF, RL])
    def test_quadrature_backed_function(self, kind):
        # cosine with its closed forms hidden: each operator value is within
        # 1e-11 of the closed form, so the two errors differ by about the
        # two quadrature estimates
        quad = error_l1(Opaque(Cosine()), kind, 0.3, I01, tol=1e-7)
        closed = error_l1(Cosine(), kind, 0.3, I01, tol=1e-7)
        assert abs(quad.value - closed.value) <= quad.quad_error + closed.quad_error + 1e-11

    @pytest.mark.parametrize(
        "kind,beta,exact,rel",
        [
            (C, 1e-6, 4.011858318064e-7, 1e-6),
            (C, 1e-8, 4.01185904845e-9, 1e-6),
            (CF, 1e-6, 4.466539795551e-7, 1e-7),
            (CF, 1e-8, 4.46653835525e-9, 1e-7),
        ],
    )
    def test_quadrature_at_small_beta(self, kind, beta, exact, rel):
        """cos with its closed forms hidden, whose error is about beta in size:
        each operator value is an adaptive quadrature of f' within 1e-11, so
        the error is resolved far below beta.  ``exact`` integrates |e|
        from e's antiderivative between its roots, in 30 digits::

            import mpmath as mp

            mp.mp.dps = 30

            def l1(kind, beta):
                beta = mp.mpf(beta)
                rate = (1 - beta) / beta
                if kind == "C":  # the error and its antiderivative as series in t
                    def s(t, j):
                        return mp.nsum(lambda k: (-1) ** k * t ** (2 * k + j + beta)
                                       / mp.gamma(2 * k + j + 1 + beta), [0, mp.inf])
                    e, E = (lambda t: mp.sin(t) - s(t, 1)), (lambda t: -mp.cos(t) - s(t, 2))
                else:
                    K, L = rate / (beta * (rate**2 + 1)), 1 / (beta * (rate**2 + 1))
                    e = lambda t: (1 - K) * mp.sin(t) + L * (mp.cos(t) - mp.exp(-rate * t))
                    E = lambda t: (K - 1) * mp.cos(t) + L * (mp.sin(t) + mp.exp(-rate * t) / rate)
                grid = [mp.mpf(i) / 64 for i in range(1, 65)]
                roots = [mp.findroot(e, (x, y), solver="anderson")
                         for x, y in zip(grid, grid[1:]) if e(x) * e(y) < 0]
                ends = [0, *roots, 1]
                return sum(abs(E(y) - E(x)) for x, y in zip(ends, ends[1:]))

        As beta -> 0 the CF value tends to beta (2 sqrt(2) - 1 - cos 1 - sin 1)
        = 0.44665383407 beta.
        """

        report = error_l1(Opaque(Cosine()), kind, beta, I01, tol=min(1e-8, 1e-3 * beta))
        assert report.value == pytest.approx(exact, rel=rel, abs=0.0)


    @pytest.mark.parametrize("kind", [C, CF, RL])
    def test_integrand_operator_values_match_pointwise(self, kind, monkeypatch):
        # |t - 1/2| with its closed forms hidden: every operator value of the
        # integrand comes from a point's quadrature, and under RL the piece
        # right of the breakpoint carries the boundary term f(0) t^(-alpha)
        binds, calls = record_binds(monkeypatch)
        f = Opaque(AbsShift(0.5))
        error_l1(f, kind, 0.3, I01, tol=1e-4)
        assert [bind[0] for bind in binds] == [kind]
        # a copy: operators.evaluate itself binds through the recorder; a
        # call without the boundary term is the Caputo operator
        for call_kind, alpha, a, ts, extra, values in list(calls):
            call_kind = C if extra == (False,) else call_kind
            want = [operators.evaluate(call_kind, f, alpha, a, t) for t in ts.tolist()]
            # the RL sum may round its array and scalar addends an ulp apart
            np.testing.assert_allclose(values, want, rtol=1e-15, atol=1e-15)

    def test_derivative_singular_at_a_is_refused(self):
        # t^(1/2) under CF at beta 1e-3 has no closed form past t = 700/999,
        # where E_{1,3/2}(-rate t) leaves Kummer's reach, and the quadrature
        # there would sample f' = inf at a = 0
        with pytest.raises(IntegrationError, match="tau = 0.0"):
            error_l1(Power(0.5), CF, 1e-3, I01)

    @pytest.mark.parametrize(
        "b,expected", [(1.0, 0.11295880678266065), (2.0, 0.11865396941730751)]
    )
    def test_derivative_singular_at_a_within_the_reach(self, b, expected):
        # at beta 1e-2, z = -99 t stays within Kummer's reach on (0, 2), so
        # every value is a closed form; mpmath's values
        report = error_l1(Power(0.5), CF, 0.01, Interval(0.0, b))
        assert abs(report.value - expected) <= norms.DEFAULT_TOL


class UserSin(TestFunction):
    """sin as a user writes it: scalar f and f', no closed forms."""

    def value(self, t):
        return math.sin(t)

    def derivative(self, t):
        return math.cos(t)


class UserAbs(TestFunction):
    """|t - 1/2| as a user writes it."""

    def value(self, t):
        return abs(t - 0.5)

    def derivative(self, t):
        return 1.0 if t > 0.5 else -1.0

    def breakpoints(self):
        return (0.5,)


class TestFlattenedPieces:
    """Under C and RL each piece between a, the breakpoints and b on which
    f' has a finite limit at the left end lo is integrated in
    v = ((t - lo)/w)^beta, where the term J (t - lo)^beta of a jump J is
    linear."""

    @pytest.mark.parametrize("kind", [C, RL])
    @pytest.mark.parametrize("beta", [0.9, 1e-1, 1e-4, 1e-6])
    def test_affine_against_exact(self, kind, beta):
        # t + 1 on (0, 2): under C the error e = t^b/Gamma(1+b) - 1 changes
        # sign once, at t* = Gamma(1+b)^(1/b); under RL it gains
        # t^(b-1)/Gamma(b), and e = t^(b-1) (b + t)/Gamma(1+b) - 1 is
        # positive, since its least value, at t = 1 - b, is
        # (1-b)^(b-1)/Gamma(1+b) > 1.  |e| integrates from e's antiderivative
        # between those roots.  At beta 1e-4 the first RL panel hid 4e-12
        # below its outermost node while estimating 1.4e-14
        with mp.workdps(40):
            b = mp.mpf(beta)
            rl = 1 if kind is RL else 0

            def integral(t):
                return rl * t**b / mp.gamma(1 + b) + t ** (1 + b) / mp.gamma(2 + b) - t

            cuts = [mp.mpf(0), mp.mpf(2)]
            if kind is C:
                cuts.insert(1, mp.gamma(1 + b) ** (1 / b))
            exact = float(sum(abs(integral(y) - integral(x)) for x, y in zip(cuts, cuts[1:])))
        report = error_l1(Affine(1.0, 1.0), kind, beta, Interval(0.0, 2.0), tol=1e-12)
        assert abs(report.value - exact) <= min(report.quad_error, 1e-12)

    @pytest.mark.parametrize("kind", [C, RL])
    def test_sign_change_beside_b_is_seen(self, kind):
        # t^2 on (0, 2) at beta 0.99: e = 2 t^(1+b)/Gamma(2+b) - 2t changes
        # sign at t* = Gamma(2+b)^(1/b) = 1.9954, between b and the outermost
        # node, and 2 t^(2+b)/Gamma(3+b) - t^2 is its antiderivative;
        # unprobed, the value was 4.2e-5 off, estimating 1.6e-10
        with mp.workdps(30):
            b = mp.mpf(0.99)

            def integral(t):
                return 2 * t ** (2 + b) / mp.gamma(3 + b) - t**2

            root = mp.gamma(2 + b) ** (1 / b)
            exact = float(abs(integral(root) - integral(0)) + abs(integral(2) - integral(root)))
        report = error_l1(Power(2.0), kind, 0.99, Interval(0.0, 2.0))
        assert abs(report.value - exact) <= report.quad_error

    @pytest.mark.parametrize("b,exact", [(1.0, 1.4619605314147295e-4), (2.0, 2.4271150928874449e-4)])
    def test_power_with_f_prime_infinite_at_a_stays_on_t_panels(self, b, exact):
        # f' = t^(-1/2)/2 has no finite limit at a = 0, so the piece keeps the
        # t-panels of the boundary layer; flattened, a node on t = 0 would
        # read f' = inf
        report = error_l1(Power(0.5), C, 1e-4, Interval(0.0, b))
        assert abs(report.value - exact) <= 1e-9

    @pytest.mark.parametrize("f", [UserSin(), UserAbs()], ids=["sin", "abs"])
    def test_user_defined_pieces_take_few_nodes(self, f):
        # each node is a quadrature of its own; on t-panels these took 690
        # and 1410 nodes
        assert error_l1(f, C, 0.1, Interval(0.0, 2.0)).n_eval_points <= 400


class TestGaussKronrod:
    @staticmethod
    def moment_errors(column):
        # the stored rules live on [0, 1]; mapped back to [-1, 1] exactly
        nodes = [2 * Fraction(x) - 1 for x in operators._GK_NODES.tolist()]
        weights = [2 * Fraction(w) for w in operators._GK_WEIGHTS[:, column].tolist()]
        for k in range(27):
            exact = Fraction(2, k + 1) if k % 2 == 0 else 0
            yield k, abs(float(sum(w * x**k for w, x in zip(weights, nodes)) - exact))

    @pytest.mark.parametrize("column,degree", [(0, 23), (1, 13)])
    def test_rules_integrate_polynomials_exactly(self, column, degree):
        # K15 has degree 3*7+2 = 23, G7 degree 13; the exact rational sums of
        # the stored doubles show rounding only, and the next even power
        # shows the degree is not higher
        for k, error in self.moment_errors(column):
            if k <= degree:
                assert error <= 4e-16, k
            elif k == degree + 1:
                assert error > 1e-10, k

    def test_nodes_lie_strictly_inside_the_panel(self):
        # so that no node falls on a panel edge, which may be a breakpoint
        assert np.all((0.0 < operators._GK_NODES) & (operators._GK_NODES < 1.0))

    def test_kink_is_resolved_within_tol(self):
        counter = operators._Counter(10**6)
        value, estimate = operators._gauss_kronrod(
            lambda x: np.abs(x - 0.3), [0.0, 1.0], 1e-9, counter
        )
        assert abs(value - 0.29) <= estimate <= 1e-9
        assert counter.count % 15 == 0

    def test_sign_change_is_cut_out_in_two_rounds(self):
        # the secant root of x - 0.3 is the root, so the pieces around it are
        # linear, and the second round meets the tol
        rounds = 0

        def fn(x):
            nonlocal rounds
            rounds += 1
            return x - 0.3

        counter = operators._Counter(10**6)
        value, estimate = operators._gauss_kronrod(fn, [0.0, 1.0], 1e-9, counter, absolute=True)
        assert abs(value - 0.29) <= estimate <= 1e-9
        assert rounds <= 2

    def test_two_sign_changes_in_one_panel(self):
        # (x - 0.3)(x - 0.7): each kink is cut out between its own two nodes;
        # bisection takes 20 rounds for this tol.  The second secant roots
        # miss the roots by about 1e-7, into the strips that no node of the
        # pieces sees, and the estimate has to count what that costs
        rounds = 0

        def fn(x):
            nonlocal rounds
            rounds += 1
            return (x - 0.3) * (x - 0.7)

        value, estimate = operators._gauss_kronrod(
            fn, [0.0, 1.0], 1e-12, operators._Counter(10**6), absolute=True
        )
        assert abs(value - 97 / 1500) <= estimate <= 1e-12
        assert rounds <= 4

    def test_root_beside_a_secant_cut_is_counted(self):
        # the secant root of (x - 0.3) + (x - 0.3)^2 between the nodes
        # 0.297077 and 0.396107 is 0.299743, and the root 0.3 lies 2.6e-4
        # past it, in the strip before the first node of the piece
        # [0.299743, 0.396107]; |g'| (2.6e-4)^2 = 6.6e-8 is missed there
        # unless the pieces' touching nodes are compared
        counter = operators._Counter(10**6)
        value, estimate = operators._gauss_kronrod(
            lambda x: (x - 0.3) + (x - 0.3) ** 2, [0.0, 1.0], 1e-9, counter, absolute=True
        )
        assert abs(value - 593 / 1500) <= estimate <= 1e-9

    @pytest.mark.parametrize(
        "a,b,s", [(3.99, 5.28, -0.78), (5.78, 5.85, 0.72), (5.39, 5.62, 0.1), (4.76, 5.57, 0.7)]
    )
    def test_kink_near_a_panel_end_is_counted(self, a, b, s):
        # |sin(a x + b) - s|: roots that land just inside or just outside a
        # piece's outermost node, where QUADPACK's estimate under-reads the
        # kink by up to 1e3 both with secant cuts and with bisection
        def primitive(x):
            return -math.cos(a * x + b) / a - s * x

        base = math.asin(s)
        roots = sorted(
            x
            for n in range(-2, 3)
            for r in (base + 2 * math.pi * n, math.pi - base + 2 * math.pi * n)
            if 0.0 < (x := (r - b) / a) < 1.0
        )
        points = [0.0, *roots, 1.0]
        exact = math.fsum(abs(primitive(q) - primitive(p)) for p, q in zip(points, points[1:]))
        counter = operators._Counter(10**6)
        value, estimate = operators._gauss_kronrod(
            lambda x: np.sin(a * x + b) - s, [0.0, 1.0], 1e-9, counter, absolute=True
        )
        assert abs(value - exact) <= estimate <= 1e-9

    def test_sign_change_beside_an_outer_edge_is_seen(self):
        """600 seeded |(x - r) e^(c x)| on [0, 1], each with its one root r
        in the strip between an outer edge and the outermost node, 0.43% of
        the panel wide, where no two nodes see the sign change.  Without the
        probes inside the outer edges, all 600 were off, by up to 2.5e-4,
        under estimates of 1e-15 to 5e-14.  The exact value integrates the
        antiderivative e^(c x) ((x - r)/c - 1/c^2) between 0, r and 1."""
        rng = np.random.default_rng(20)
        strip = 0.5 * (1.0 - operators._XGK[0])
        offsets = rng.uniform(0.0, strip, 600)
        for r, c in zip(
            np.where(rng.random(600) < 0.5, offsets, 1.0 - offsets).tolist(),
            rng.choice([-1.0, 1.0], 600) * rng.uniform(0.1, 3.0, 600),
        ):

            def g(x, r=r, c=c):
                return (x - r) * np.exp(c * x)

            ends = np.array([0.0, r, 1.0])
            primitive = np.exp(c * ends) * ((ends - r) / c - 1.0 / c**2)
            exact = math.fsum(np.abs(np.diff(primitive)).tolist())
            value, estimate = operators._gauss_kronrod(
                g, [0.0, 1.0], 1e-9, operators._Counter(10**6), absolute=True
            )
            assert abs(value - exact) <= estimate, (r, c)

    def test_no_sign_change_is_bisected_as_without_absolute(self):
        # the same nodes in every round, but for the two probes inside the
        # outer edges that the first round of |fn| reads
        calls = {False: [], True: []}
        for absolute, seen in calls.items():

            def fn(x, seen=seen):
                seen.append(x)
                return -np.sqrt(x)

            counter = operators._Counter(10**6)
            operators._gauss_kronrod(fn, [0.0, 1.0], 1e-10, counter, absolute=absolute)
        assert len(calls[False]) == len(calls[True])
        calls[True][0] = calls[True][0][1:-1]
        for plain, of_abs in zip(calls[False], calls[True]):
            np.testing.assert_array_equal(plain, of_abs)

    def test_floor_is_taken_on_the_integral_of_the_absolute_value(self):
        # 1e6 sin(2 pi x) integrates to 0 over [0, 1], but its rounding error
        # is about 50 eps times the integral of |fn|, 7e-9; a floor on |K15|
        # alone would vanish, and the estimate would claim 3e-16 for a value
        # 7e-11 off
        def fn(x):
            return 1e6 * np.sin(2.0 * np.pi * x)

        with pytest.raises(IntegrationError, match="rounding floor"):
            operators._gauss_kronrod(fn, [0.0, 1.0], 1e-11, operators._Counter(10**6))


def _cf_power_layer_peak(g: float, beta: float) -> float:
    """The largest error of t^g under CF, 1 < g < 2, which peaks once inside
    the boundary layer at 0: |t^g 1F1(1, g+1, -rate t)/beta - g t^(g-1)|
    maximised by golden section at 30 digits over (0, 10 beta]."""
    with mp.workdps(30):
        beta_mp = mp.mpf(beta)
        rate = (1 - beta_mp) / beta_mp

        def err(t):
            return abs(t**g * mp.hyp1f1(1, g + 1, -rate * t) / beta_mp - g * t ** (g - 1))

        lo, hi = mp.mpf(0), 10 * beta_mp
        golden = (mp.sqrt(5) - 1) / 2
        x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
        f1, f2 = err(x1), err(x2)
        for _ in range(100):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + golden * (hi - lo)
                f2 = err(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - golden * (hi - lo)
                f1 = err(x1)
        return float(max(f1, f2))


class TestErrorLinf:
    def test_reports_no_quadrature_estimate(self):
        assert error_linf(Cosine(), C, 0.5, I01, n_grid=101).quad_error is None

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
            assert report.value == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n_grid", [2, 7, 101])
    def test_interior_maximum_found_by_refinement(self, n_grid):
        # coarse grids must still nail the interior max thanks to the
        # refinement: a round leaves cells 1/64 of the one before, and the
        # quartic's maximum, once it agrees with the parabola's vertex,
        # lands on the peak to rounding
        report = error_linf(Power(2.0, 0.0), C, 0.2, I01, n_grid=n_grid)
        expected = (2.0 * 0.2 / 1.2) * (gamma(2.2) / 1.2) ** 5.0
        assert report.value == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("b", [1.0, 2.0])
    @pytest.mark.parametrize("n_grid", [101, 2001])
    def test_narrow_peak_found_by_refinement(self, n_grid, b):
        # under CF at beta 1e-3 the error of t^1.5 peaks near t = 0.0015,
        # inside a boundary layer 10 times narrower than the grid cell at
        # n_grid 101
        report = error_linf(Power(1.5), CF, 1e-3, Interval(0.0, b), n_grid=n_grid)
        assert report.value == pytest.approx(_cf_power_layer_peak(1.5, 1e-3), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("b", [1.0, 2.0])
    @pytest.mark.parametrize("beta", [1e-4, 1e-5])
    @pytest.mark.parametrize("g", [1.25, 1.5, 1.75])
    def test_narrow_layer_peak_of_a_power(self, g, beta, b):
        # the layer is about beta wide, under a hundredth of a default grid
        # cell; the scan's layer points and decay lengths find it
        report = error_linf(Power(g), CF, beta, Interval(0.0, b))
        assert report.value == pytest.approx(_cf_power_layer_peak(g, beta), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "g,beta,b,expected",
        [
            # its peak at t = 4.4e-109 read 0.05905180375711383
            (1.0029, 2.49e-3, 1.892, 0.22471623287244259),
            # its peak at t = 4.2e-12 read 8.2e-10 low
            (1.03819290694477, 0.0014831196416532104, 0.5959034020095528, 0.0142662763746255),
        ],
    )
    def test_layer_peak_far_below_the_scan(self, g, beta, b, expected):
        # the peak lies decades below the scan's first layer point, inside
        # the bracket (a, first point], which is zoomed in ln(t - a)
        for kind in (C, RL):
            report = error_linf(Power(g), kind, beta, Interval(0.0, b))
            assert report.value == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_caputo_fabrizio_layer_peak_in_the_log_zoom(self):
        # the peak at t = 1.18e-5 lies inside the bracket (0, first point];
        # points evenly spaced in t miss it by 6.9e-8 relative
        beta, b = 0.0011567240812624413, 0.7444826396302688
        report = error_linf(Power(1.01), CF, beta, Interval(0.0, b))
        assert report.value == pytest.approx(0.89259412377781332, rel=1e-13, abs=0.0)

    def test_layer_peaks_of_powers_just_above_one(self):
        # |t^g under C - g t^(g-1)| = t^(g-1) |k t^beta - g|, k =
        # Gamma(g+1)/Gamma(g+beta), peaks at t*^beta = g(g-1)/(k(g-1+beta)) at
        # t*^(g-1) g beta/(g-1+beta), and past it rises to its value at b;
        # t* can lie far below any scan point.  RL is C, since f(0) = 0
        rng = np.random.default_rng(30)
        cases = 0
        while cases < 300:
            g, beta, b = rng.uniform(1.0, 1.1), 10 ** rng.uniform(-4, -1), rng.uniform(0.1, 2.0)
            g_, beta_, b_ = mp.mpf(g), mp.mpf(beta), mp.mpf(b)
            k = mp.gamma(g_ + 1) / mp.gamma(g_ + beta_)
            t_star = (g_ * (g_ - 1) / (k * (g_ - 1 + beta_))) ** (1 / beta_)
            if t_star < 1e-300:
                continue
            cases += 1
            peaks = [abs(b_ ** (g_ - 1) * (k * b_**beta_ - g_))]
            if t_star < b_:
                peaks.append(t_star ** (g_ - 1) * g_ * beta_ / (g_ - 1 + beta_))
            expected = float(max(peaks))
            for kind in (C, RL):
                report = error_linf(Power(g), kind, beta, Interval(0.0, b))
                assert report.value == pytest.approx(expected, rel=1e-12, abs=0.0), (g, beta, b)

    def test_largest_of_two_peaks_is_taken(self):
        # the scan's best sample is at b, while the peak near t = 0.5, whose
        # sample is lower, is higher; both local maxima are zoomed on
        report = error_linf(Power(2.5), CF, 1e-5, Interval(0.0, 2.0))
        assert abs(report.value - 1.7677846305475007e-05) <= 1e-10

    def test_sup_is_the_exact_maximum(self):
        # every value of the scan and its zoom is a closed form, so the
        # maximum is within 1e-14 of mpmath's 0.1887146138058821
        report = error_linf(Power(1.75), CF, 0.1, Interval(0.0, 2.0))
        assert abs(report.value - 0.1887146138058821) <= 1e-14

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
        assert rl.value == pytest.approx(c.value, rel=1e-12, abs=0.0)
        # the 101 grid points and 7 layer points right of a, the
        # refinement's one round of 127 points and its vertex, and |f'(a+)|
        assert rl.n_eval_points == 101 + 7 + 127 + 1 + 1

    @pytest.mark.parametrize("f", [Affine(1.0, 0.0), AbsShift(0.0)])
    @pytest.mark.parametrize("n_grid", [101, 2001, 20001])
    def test_rl_with_f_a_zero_keeps_the_boundary_limit(self, f, n_grid):
        # the boundary term vanishes, so RL is C, whose error tends to
        # |f'(0+)| = 1 as t -> 0+ while every grid point is near 0.02; for
        # |t| that limit is the right one at the breakpoint a = 0
        rl = error_linf(f, RL, 1e-3, I01, n_grid=n_grid)
        c = error_linf(f, C, 1e-3, I01, n_grid=n_grid)
        assert rl.value == c.value == 1.0

    @pytest.mark.parametrize("kind", [C, CF])
    @pytest.mark.parametrize("n_grid", [2, 100, 101, 2001])
    def test_breakpoint_at_b_takes_the_left_limit(self, kind, n_grid):
        # on (0, 1], f' = -1 up to and at b = 1; the right limit +1 belongs
        # to no point of the interval, and the sup is |f'(0+)| = 1
        report = error_linf(AbsShift(1.0), kind, 0.1, I01, n_grid=n_grid)
        assert report.value == 1.0

    @pytest.mark.parametrize("n_grid", [64, 101])
    def test_breakpoint_at_b_when_the_grid_rounds_past_b(self, n_grid):
        # b 101 / 101 rounds one ulp above this b, where f' of |t - b| is +1;
        # on (0, b] f' = -1 and the sup is |D(b) + 1| = b^beta/Gamma(1+beta) - 1
        b = 3.192310023961893
        report = error_linf(AbsShift(b), C, 0.5, Interval(0.0, b), n_grid=n_grid)
        assert report.value == pytest.approx(b**0.5 / gamma(1.5) - 1.0, rel=1e-14, abs=0.0)

    def test_sup_at_b_when_the_grid_rounds_short_of_b(self):
        # b 19 / 19 rounds one ulp below this b, where the error of t^4 under
        # CF, rising at about 190, is 6.4e-15 relative below its sup at b;
        # the sup is D f(b) - f'(b) by 50-digit mpmath, which the operator
        # less f' missed by 2.7e-15 relative
        b = 3.925679093211253
        report = error_linf(Power(4.0), CF, 0.5, Interval(0.0, b), n_grid=19)
        assert report.value == pytest.approx(13.510499995830023, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("b", [1.0, 2.0])
    def test_boundary_limit_is_f_prime_at_a(self, b):
        # |D e^t - e^t| = e^(-rate t) under CF, largest as t -> 0+
        assert error_linf(Exponential(), CF, 0.1, Interval(0.0, b)).value == 1.0

    @pytest.mark.parametrize("kind", [C, CF, RL])
    @pytest.mark.parametrize("n_grid", [2, 7, 101, 2001, 20001])
    def test_unbounded_f_prime_at_a_is_inf(self, kind, n_grid):
        # f' = t^(-1/2)/2 is unbounded at 0+, the operators are not
        assert error_linf(Power(0.5), kind, 0.5, I01, n_grid=n_grid).value == math.inf

    def test_unbounded_f_prime_at_a_is_inf_without_a_scan(self):
        # the quadrature behind CF of t^(1/2) past its trusted closed form
        # would refuse f'(0) = inf; the sup is inf from f'(a+) alone
        report = error_linf(Power(0.5), CF, 0.01, I01)
        assert report.value == math.inf
        assert report.n_eval_points == 1

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            error_linf(ONE, C, 0.5, I01, n_grid=1)

    @pytest.mark.parametrize("n_grid", [2, 3, 7, 101, 2001])
    def test_one_sided_limits_at_breakpoints(self, n_grid):
        # the operator is continuous at the kink c and f' jumps from -1 to 1,
        # so the essential sup is the right limit |D(c) - 1|, which no grid
        # point sits on: 1 + c^beta/Gamma(1+beta) under C, and under CF
        # 1 + (1 - e^(-rate c))/(1-beta), rate = (1-beta)/beta
        beta = 1e-3
        report = error_linf(AbsShift(1.0), C, beta, Interval(0.0, 2.0), n_grid=n_grid)
        assert report.value == pytest.approx(1.0 + 1.0 / gamma(1.0 + beta), rel=1e-14, abs=0.0)
        assert report.value == pytest.approx(2.000577, abs=5e-7)
        beta = 1e-2
        report = error_linf(AbsShift(0.3), CF, beta, Interval(0.0, 2.0), n_grid=n_grid)
        rate = (1.0 - beta) / beta
        assert report.value == pytest.approx(1.0 - math.expm1(-rate * 0.3) / (1.0 - beta))
        assert report.value == pytest.approx(2.0101, abs=5e-5)
        # the grid, 7 layer points right of a and of c and under CF 9 and 12
        # decay lengths, |f'(a+)|, and the two limits at c; the right limit
        # at c is the sup, so nothing is zoomed on
        assert report.n_eval_points == n_grid + 14 + 21 + 1 + 2

    def test_breakpoints_outside_the_interval_add_nothing(self):
        # the kink at a adds no limits, and only one piece's 7 layer points;
        # |f'(1+)| = 1 is the sup, so nothing is zoomed on
        report = error_linf(AbsShift(1.0), C, 0.3, Interval(1.0, 2.0), n_grid=101)
        assert report.n_eval_points == 101 + 7 + 1

    def test_one_bind_per_error_functional(self, monkeypatch):
        # the scan, the zoom round and its vertex call one bound error
        # function, and so does every Gauss-Kronrod round of the L1 norm
        binds, calls = record_errors(monkeypatch)
        error_linf(Cosine(), C, 0.01, I01)
        assert len(binds) == 1 and len(calls) == 3
        binds.clear()
        calls.clear()
        error_l1(AbsShift(1.0), C, 0.01, Interval(0.0, 2.0))
        assert len(binds) == 1 and len(calls) > 2

    def test_eval_count_matches_operator_calls(self, monkeypatch):
        calls = 0
        original = operators.caputo

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(operators, "caputo", counting)
        binds, bound_calls = record_binds(monkeypatch)
        n_grid = 201
        report = error_linf(Cosine(), C, 0.3, I01, n_grid=n_grid)
        # one bind; the scan (the grid and 7 layer points right of a), the
        # one round of the refinement and its vertex are one call each of
        # the bound operator, all closed forms; n_eval_points adds the
        # boundary candidate |f'(a+)|
        assert calls == 0
        assert len(binds) == 1
        assert [len(call[3]) for call in bound_calls] == [n_grid + 7, 127, 1]
        assert report.n_eval_points == n_grid + 7 + 127 + 1 + 1

    @pytest.mark.parametrize("beta", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_limit_that_is_the_sup_is_not_zoomed(self, monkeypatch, beta):
        _, calls = record_binds(monkeypatch)
        _, errors = record_errors(monkeypatch)
        # under CF the sup of |D e^t - e^t| = e^(-rate t) is |f'(0+)| = 1:
        # the scan is the only array call, and the operator is not called
        report = error_linf(Exponential(), CF, beta, I01, n_grid=2001)
        points = [len(ts) for ts in errors]
        assert report.value == 1.0
        assert len(points) == 1 and report.n_eval_points == points[0] + 1
        assert calls == []
        # under C the sup of |t - 1| is the right limit at 1; the scan, and
        # the breakpoint's two sides
        errors.clear()
        report = error_linf(AbsShift(1.0), C, beta, Interval(0.0, 2.0), n_grid=2001)
        points = [len(ts) for ts in errors]
        assert abs(report.value - (1.0 + 1.0 / gamma(1.0 + beta))) <= 1e-14
        assert points[1:] == [2] and report.n_eval_points == points[0] + 1 + 2
        assert calls == []

    @pytest.mark.parametrize("kind,n", [(C, 71), (CF, 83)])
    def test_user_limit_that_is_the_sup_is_not_zoomed(self, kind, n):
        # sin without closed forms: the sup is |f'(0+)| = 1, and the scan's
        # quadratures are all it costs
        report = error_linf(UserSin(), kind, 1e-2, Interval(0.0, 2.0))
        assert report.value == 1.0
        assert report.n_eval_points == n

    @pytest.mark.parametrize(
        "b,beta,expected",
        [
            (1.0, 0.5, 0.48447359751593215),
            (0.3, 1e-2, 0.017062997637701751),
            (0.3, 0.1, 0.14760394182207162),
        ],
    )
    def test_coarse_grid_peak_needs_the_stop_rule(self, b, beta, expected):
        # at n_grid 2 the first round's quartic and parabola vertices differ
        # by more than 1/512 of its spacing, so a second round is taken: one
        # round alone left the second case 2.6e-11 low, and a stop at 1/64
        # the first 5.8e-14 low; the references are mpmath maxima
        report = error_linf(Power(1.25), C, beta, Interval(0.0, b), n_grid=2)
        assert report.value == pytest.approx(expected, rel=2e-14, abs=0.0)

    def test_brackets_reach_the_best_candidate(self):
        # the sample at 0.3 is a local maximum whose reach, 0.6 + 0.05, passes
        # every sample but not a limit of 0.9 at a; so is the first sample,
        # whose left neighbour is a, with the limit there, while that is 0
        ts, values = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.4, 0.6, 0.55])
        first, peak = (0.0, 0.2, 0.0, 0.4), (0.2, 0.4, 0.4, 0.55)
        assert norms._brackets(ts, values, 0.0, 0.0, [], 0.6) == [first, peak]
        assert norms._brackets(ts, values, 0.0, 0.9, [], 0.9) == []
        # a right limit of 0.7 at a breakpoint 0.25 is the left neighbour of
        # the sample at 0.3, and the left limit the right one of that at 0.2
        limits = [(0.25, 0.45, 0.7)]
        assert norms._brackets(ts, values, 0.0, 0.6, limits, 0.7) == []
        assert norms._brackets(ts, values, 0.0, 0.6, [(0.25, 0.45, 0.1)], 0.6) == [peak]

    def test_zoom_counts_the_bracket_ends_among_its_points(self):
        # the peak at 0.999 lies past the last of the 127 points inside
        # (0, 1), spaced in ln(t + 10), nearly evenly in t; with the end's
        # value beside them the quartic finds it
        def fn(ts):
            return -((ts - 0.999) ** 2)

        value, scored = norms._zoom_max(fn, [(0.0, 1.0, -(0.999**2), -(0.001**2))], [-10.0])
        assert value >= -1e-20 and scored == 127 + 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zoom_scores_no_known_point_again(self, sign):
        # a maximum at an end of the bracket is a value already known: the
        # round is the only call
        calls = []

        def fn(ts):
            calls.append(ts.size)
            return sign * (ts - 0.5)

        value, scored = norms._zoom_max(fn, [(0.0, 1.0, -0.5 * sign, 0.5 * sign)], [-1.0])
        assert value == 0.5 and scored == 127 and calls == [127]

    @pytest.mark.parametrize("beta", [2.0**-7, 2.0**-8])
    def test_peak_between_the_last_zoom_point_and_the_bracket_end(self, beta):
        # at n_grid 10 on (0, 1.4375) the peak of t^1.5 under C, near 0.143,
        # lies between the scan points near 0.14375 and the zoom points of
        # the cell left of them; a layer point one ulp from a grid point
        # there used to decide by rounding which cell was zoomed on
        report = error_linf(Power(1.5), C, beta, Interval(0.0, 1.4375), n_grid=10)
        with mp.workdps(30):
            g, beta_mp = mp.mpf(1.5), mp.mpf(beta)
            k = mp.gamma(g + 1) / mp.gamma(g + beta_mp)
            # the error t^(g-1) (g - k t^beta) peaks where its slope is 0
            t = (g * (g - 1) / (k * (g - 1 + beta_mp))) ** (1 / beta_mp)
            expected = float(t ** (g - 1) * (g - k * t**beta_mp))
        assert report.value == pytest.approx(expected, rel=1e-13, abs=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.one_of(
            st.floats(1.0, 5.0).map(lambda g: f"power:{g!r}"),
            st.sampled_from(["exp", "cos"]),
            st.floats(0.05, 4.9).map(lambda c: f"abs:{c!r}"),
        ),
        kind=st.sampled_from([C, CF]),
        beta=st.floats(1e-4, 0.9),
        b=st.floats(0.3, 5.0),
        n_grid=st.integers(2, 101),
    )
    def test_never_below_a_fine_scan(self, name, kind, beta, b, n_grid):
        # the supremum is at least the largest error on 20001 uniform points
        # of the same D f - f' (``norms._error``), up to the rounding of its
        # values: a scan of the operator less f' may miss a defect form's
        # value by eps |f'|, 2.8e-14 of it for t^4.07 under C at beta 0.19
        f = parse_function(name)
        report = error_linf(f, kind, beta, Interval(0.0, b), n_grid=n_grid)
        ts = np.linspace(0.0, b, 20002)[1:]  # 20001 points, the last exactly b
        if kind is CF and isinstance(f, Power) and not f._is_integer_exp():
            # each value past the series' reach is a quadrature, about 80 us:
            # every tenth point, 2001, keeps such an example near 0.15 s
            ts = ts[::10]
        order = FractionalOrder.from_beta(beta)
        scan = float(np.abs(norms._error(kind, f, order, 0.0, b)(ts)).max())
        assert report.value >= scan * (1.0 - 1e-15 / beta)


class TestDefectPath:
    """Where the catalog has a defect form (``TestFunction._defect``), the
    error functionals read D f - f' from it, not from the operator less f',
    whose rounding, eps |f'|, is all that is left of D f - f' where the two
    agree to many digits."""

    def test_exp_cf_sup_is_its_limit_at_a(self):
        # D e^t - e^t = -e^(-rate t) under CF, largest as t -> 0+; the
        # operator less e^t read 2.0 on (0, 40), where eps e^t is near 1
        for b in (20.0, 40.0, 100.0, 700.0):
            for beta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
                value = error_linf(Exponential(), CF, beta, Interval(0.0, b)).value
                assert abs(value - 1.0) <= 1e-15, (b, beta)

    @pytest.mark.parametrize("beta", [1e-10, 1e-12, 1e-14])
    def test_power_caputo_sup_at_small_beta(self, beta):
        # e(t) = 2 t (t^beta / Gamma(2 + beta) - 1) on (0, 2] peaks at
        # t* = Gamma(1 + beta)^(1/beta), where it is -2 t* beta / (1 + beta),
        # or is largest at 2: the operator less 2t read 1.1546e-14 at beta
        # 1e-14, 2.8 % above the 1.1229189671337683e-14 of mpmath
        with mp.workdps(40):
            x = mp.mpf(beta)
            peak = 2 * mp.exp(mp.loggamma(1 + x) / x) * x / (1 + x)
            exact = max(peak, abs(4 * (2**x / mp.gamma(2 + x) - 1)))
        value = error_linf(Power(2.0), C, beta, Interval(0.0, 2.0)).value
        assert abs(value - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("beta", [1e-100, 1e-155, 1e-200])
    def test_power_cf_sup_at_tiny_beta(self, beta):
        # 2 beta (1 - O(beta ln beta)): the operator less 2t read 6.7e-16 at
        # 1e-100, and 2.0 at 1e-155 and 1e-200, where z^2 of E_{1,3}(z)
        # overflowed and the closed form read D f = 0
        value = error_linf(Power(2.0), CF, beta, I01).value
        assert abs(value - 2.0 * beta) <= 1e-12 * 2.0 * beta

    # each catalog entry and kind with a defect form, and the betas at which
    # it takes every point: E_{1,5/2} of power:2.5 under CF reaches rate u =
    # 700 only, past which its points fall back to the subtraction
    GUARDED = [
        (Power(1.0), C), (Power(1.0), CF), (Power(2.0), C), (Power(2.0), CF), (Power(2.0), RL),
        (Power(3.0), CF), (Power(2.5), C), (Power(0.5), C), (Affine(1.0, 1.0), C),
        (Affine(1.0, 1.0), CF), (Affine(1.0, 1.0), RL), (AbsShift(1.0), C), (AbsShift(1.0), CF),
        (AbsShift(1.0), RL), (AbsShift(0.0), C), (Exponential(), CF),
        (StepAntiderivative(((0.0, 1.0),), (2.0,)), C),
        (StepAntiderivative(((0.0, 1.0),), (2.0,)), CF),
        (StepAntiderivative(((0.0, 1.0),), (2.0,)), RL),
    ]

    @pytest.mark.parametrize(
        "f,kind,betas",
        [(f, kind, (0.5, 1e-2, 1e-6)) for f, kind in GUARDED] + [(Power(2.5), CF, (0.5, 1e-2))],
        ids=[f"{f!r}-{kind.value}" for f, kind in [*GUARDED, (Power(2.5), CF)]],
    )
    def test_no_subtraction_where_a_defect_form_exists(self, monkeypatch, f, kind, betas):
        # f' is read at a, at a breakpoint's two sides and at the pieces'
        # ends (at most 2 points), and no operator value is a quadrature
        sizes = []
        original = type(f).derivative_array

        def counted(self, ts):
            sizes.append(np.size(ts))
            return original(self, ts)

        def refused(*args):
            raise AssertionError("operators._kernel_point was called")

        monkeypatch.setattr(type(f), "derivative_array", counted)
        monkeypatch.setattr(operators, "_kernel_point", refused)
        for beta in betas:
            error_linf(f, kind, beta, Interval(0.0, 2.0))
            error_l1(f, kind, beta, Interval(0.0, 2.0))
        assert sizes and max(sizes) <= 2

    @pytest.mark.parametrize("beta", [0.8, 0.95])
    @pytest.mark.parametrize("f", [Power(2.631), Power(1.5), Affine(1.0, 0.0)], ids=repr)
    def test_cf_error_at_large_beta(self, f, beta):
        # under CF at beta above 1/2, D f - f' is the closed form less f':
        # the defect forms of power:2.631 and of an affine function were
        # 5.3e-15 and 1.5e-15 off at beta 0.95, the subtraction 3.6e-16 and
        # 5.0e-16, relative to max(|D f - f'|, |f'|), against 50-digit mpmath
        b = 2.82
        ts = np.append(np.random.default_rng(7).uniform(0.0, b, 200), b)
        got = norms._error(CF, f, FractionalOrder.from_beta(beta), 0.0, b)(ts)
        g = f.gamma_exp if isinstance(f, Power) else 1.0
        worst = 0.0
        with mp.workdps(50):
            x = mp.mpf(beta)
            rate = (1 - x) / x
            for t, value in zip(ts.tolist(), got):
                u = mp.mpf(t)
                operator = u**g * mp.hyp1f1(1, g + 1, -rate * u) / x
                slope = g * u ** (g - 1)
                scale = max(abs(operator - slope), slope)
                worst = max(worst, float(abs(value - (operator - slope)) / scale))
        assert worst <= 1e-15


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
        l1 = error_l1(f, kind, beta, interval, tol)
        linf = error_linf(f, kind, beta, interval, n_grid=2001)
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
            st.integers(1, 150).map(lambda k: ("abs:0.5", 1.0, 2 * k)),
            st.integers(1, 60).map(lambda k: ("step:0.2,0.6,2", 1.0, 5 * k)),
            # grids whose last point is a breakpoint
            st.integers(1, 150).map(lambda n: ("abs:1", 1.0, n)),
            st.integers(1, 60).map(lambda k: ("step:0.2,0.6,2", 0.6, 3 * k)),
        )
    )
    def test_matches_pointwise_on_breakpoints(self, case):
        name, b, n = case
        f = parse_function(name)
        ts = operators._grid_points(0.0, b, n)
        assert np.isin(ts, f.breakpoints()).any()
        got = funcat._derivative_toward(f, ts).tolist()
        for t, value in zip(ts.tolist(), got):
            if t in f.breakpoints():
                # the left limit, the side inside (a, t]
                assert value == f.derivative(math.nextafter(t, -math.inf))
                with pytest.raises(NonDifferentiableError):
                    f.derivative(t)
            else:
                assert value == f.derivative(t)
            assert value == funcat._derivative_toward(f, np.array([t]))[0]


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

    def test_element_error_carries_beta(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_EVALS", 40)
        with pytest.raises(BudgetExceededError, match=r"beta=0\.2"):
            error_sweep(Cosine(), C, NormKind.L1, [0.2, 0.1], I01)

    def test_tol_must_be_finite(self):
        with pytest.raises(DomainError, match=r"beta=0\.2.*tol must be positive and finite"):
            error_sweep(Cosine(), C, NormKind.L1, [0.2, 0.1], I01, tol=math.inf)

    @pytest.mark.parametrize("keyword", ["n_grid", "max_evals"])
    def test_no_grid_or_budget_keyword(self, keyword):
        # the sup norm scans its default grid and the L1 norm reads
        # operators.MAX_EVALS
        with pytest.raises(TypeError, match=keyword):
            error_sweep(Cosine(), C, NormKind.LINF, [0.2, 0.1], I01, **{keyword: 64})

    def test_element_error_keeps_type_with_any_constructor(self):
        class TwoArgError(NumericalError):
            def __init__(self, where, why):
                super().__init__(f"{why} at {where}")
                self.where = where

        class Broken(Cosine):
            def derivative(self, t):
                raise TwoArgError(t, "sensor offline")

            def derivative_array(self, ts):
                raise TwoArgError(float(ts[0]), "sensor offline")

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
        with pytest.raises(DomainError):
            ErrorReport(C, 0.5, NormKind.L1, I01, 1.0, 10, -1e-9)
        assert ErrorReport(C, 0.5, NormKind.L1, I01, 1.0, 10).quad_error is None


def test_import_leaves_scipy_integrate_unloaded():
    # scipy is not a dependency, and its imports cost most of the start-up
    # time: where it is installed, neither the L1 functional (C, CF, and RL
    # with its flattening panel), the grid scan nor figures load
    # scipy.integrate, and they use numpy.fft, not scipy.fft or scipy.signal
    src = str(Path(operators.__file__).resolve().parents[1])
    code = (
        "import os, sys, fracorder\n"
        "from fracorder import Cosine, Interval, OperatorKind, error_l1, error_linf\n"
        "from fracorder.cli import main\n"
        "error_linf(Cosine(), OperatorKind.CAPUTO, 0.1, Interval(0.0, 1.0), n_grid=64)\n"
        "for kind in OperatorKind:\n"
        "    error_l1(Cosine(), kind, 0.1, Interval(0.0, 1.0))\n"
        "assert main(['figures', '-f', 'cos', '--interval', '0,1', '--out', os.devnull]) == 0\n"
        "assert main(['order', '-f', 'abs:1', '-k', 'C', '-p', '1', '--interval', '0,2',\n"
        "             '--betas', '0.1,0.05,0.02,0.01', '--out', os.devnull]) == 0\n"
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


def test_public_api_runs_without_scipy():
    # with every import of scipy made to fail, the operators, both error
    # functionals, the ratio analysis and the CLI run
    src = str(Path(operators.__file__).resolve().parents[1])
    code = (
        "import os, sys\n"
        "sys.modules['scipy'] = None\n"
        "from fracorder import *\n"
        "from fracorder.cli import main\n"
        "f, interval = Cosine(), Interval(0.0, 1.0)\n"
        "for kind in OperatorKind:\n"
        "    evaluate(kind, f, 0.5, 0.0, 1.0)\n"
        "    evaluate_grid(kind, f, 0.5, 0.0, 1.0, 16)\n"
        "    error_l1(f, kind, 0.1, interval)\n"
        "    error_linf(f, kind, 0.1, interval, n_grid=64)\n"
        "rl_integral(f, 0.5, 0.0, 1.0)\n"
        "ratio_cf_over_c_l1(3, 1.0, 0.01), ratio_limit(3, 1.0), t_star(3, 0.01)\n"
        "assert main(['figures', '-f', 'cos', '--interval', '0,1', '--out', os.devnull]) == 0\n"
        "assert main(['order', '-f', 'abs:1', '-k', 'C', '-p', '1', '--interval', '0,2',\n"
        "             '--betas', '0.1,0.05,0.02,0.01', '--out', os.devnull]) == 0\n"
        "assert main(['table1', '--out', os.devnull]) == 0\n"
        "print('ok')"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
